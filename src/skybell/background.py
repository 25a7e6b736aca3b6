"""Coincidence model for unentangled photon pairs from partially polarized sources.

A pair drawn from sources (i, j), reaching detectors A and B through the
leg amplitudes d, is detected behind polarizer operators M_A, M_B at the
rate

      Tr(M_A rho_i) Tr(M_B rho_j) |d_iA d_jB|^2
    + Tr(M_A rho_j) Tr(M_B rho_i) |d_jA d_iB|^2
    + 2 Re[ Tr(M_A rho_i M_B rho_j) d_iA d_jB conj(d_jA d_iB) ],

the two direct assignments of photons to detectors plus their
interference.  Pairs are drawn from the cross-source pairing (one photon
from each source, entered twice as (1,2) and (2,1)) and the same-source
pairings (1,1) and (2,2), mixed with nonnegative weights normalized to
sum one.  :func:`effective_density_matrix` writes the weighted rate once,
as an unnormalized 4x4 pair density matrix rho_eff with
Tr[(M_A x M_B) rho_eff] equal to it; it is the reference the model is
tested against.

Every polarizer operator is a combination of I, sigma_z and sigma_x with
coefficients from (1, cos 2t, sin 2t), so contracting rho_eff with that
basis on each side leaves one real 3x3 tensor K per config: a total rate
w, marginal 2-vectors m_A and m_B and a 2x2 correlation tensor T.
:func:`correlation_tensor` builds K in closed form from the sources'
Stokes vectors, without rho_eff.  It splits each pairing by the photon
swap: the routes act as a + b on the swap-symmetric (triplet) part of
rho_i x rho_j and as a - b on its singlet part (Braunstein & Mann, PRA
51, R1727 (1995)).  Each part adds a rate >= 0, so the total cannot go
negative at a dark fringe, where the rate formula's direct and exchange
terms cancel.  With u = (cos 2t_A, sin 2t_A) and v = (cos 2t_B, sin 2t_B),
the (oa, ob) outcome pair is detected at the rate

    p(oa, ob) = w (1 + oa m_A.u + ob m_B.v + oa ob u^T T v) / 4,

and the correlator is u^T T v; :class:`skybell.scenarios.CorrelationModel`
reads both for every observable, :func:`background_correlator` the latter
for one setting.  Every quantity here is an unnormalized rate in
arbitrary units; normalization happens only when forming a correlator.

When the cross legs are masked off (detector A sees only source 1 and B
only source 2), all interference dies, T = m_A m_B^T, and the correlator
reduces to the separable product of single-photon polarizer traces
alpha_1 cos 2(t_A - n_1)/(1+alpha_1) * alpha_2 cos 2(t_B - n_2)/(1+alpha_2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polarization import PolarizerAxis, Projector, SourceDensityMatrix
from .propagation import PathAmplitudeSet

__all__ = [
    "BackgroundSpec", "background_correlator", "effective_density_matrix",
    "interference_trace", "polarizer_trace",
]

#: The four +-1 outcome pairs, in fixed (A, B) order.
OUTCOME_PAIRS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))

#: Four weights divided by their sum add up to one within about 2 eps.
_WEIGHT_SUM_TOL = 4.0 * np.finfo(float).eps

#: Tr[(B_m x B_n) psi-] over the basis B = (I, sigma_z, sigma_x): the singlet's tensor.
_SINGLET = np.diag([1.0, -1.0, -1.0])


@dataclass(frozen=True)
class BackgroundSpec:
    """Two partially polarized sources plus pairing weights.

    axis1/alpha1 and axis2/alpha2 parameterize the source density
    matrices.  w12, w21 weight the cross-source pairing (one photon from
    each source, in either detector assignment; the two entries are
    physically equivalent and share the rate), while w11 and w22 weight
    pairs drawn twice from the same source.  Weights must be nonnegative
    with a positive sum and are renormalized to sum one; a refusal names
    its field (``alpha1``, ``weights.w12``, ``weights``).  Weights that
    already sum to one within 4 eps are kept as given, so renormalizing is
    idempotent and a spec rebuilt from its own weights is bitwise equal.
    """

    axis1: PolarizerAxis
    axis2: PolarizerAxis
    alpha1: float
    alpha2: float
    w12: float = 0.5
    w21: float = 0.5
    w11: float = 0.0
    w22: float = 0.0

    def __post_init__(self):
        for name in ("alpha1", "alpha2"):
            v = float(getattr(self, name))
            if not (v >= 0.0 and math.isfinite(2.0 + 2.0 * v)):
                raise ValueError(f"{name}: must be >= 0 with 2 + 2 {name} finite, got {v!r}")
            object.__setattr__(self, name, v)
        weights = []
        for name in ("w12", "w21", "w11", "w22"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"weights.{name}: must be finite and >= 0, got {v!r}")
            weights.append(v)
        total = sum(weights)
        # an infinite sum would divide every weight down to zero
        if not 0.0 < total < math.inf:
            raise ValueError(
                f"weights: pairing weights must have a positive, finite sum, got {total!r}"
            )
        # weights that sum to one up to rounding are kept, which makes the
        # renormalization idempotent: dividing again would move them by an ulp
        if abs(total - 1.0) <= _WEIGHT_SUM_TOL:
            total = 1.0
        for name, v in zip(("w12", "w21", "w11", "w22"), weights):
            object.__setattr__(self, name, v / total)

    def densities(self) -> tuple[SourceDensityMatrix, SourceDensityMatrix]:
        return (
            SourceDensityMatrix(self.axis1, self.alpha1),
            SourceDensityMatrix(self.axis2, self.alpha2),
        )

    def pairings(self):
        """(weight, source index i, source index j) for the four pairings."""
        return (
            (self.w12, 0, 1),
            (self.w21, 1, 0),
            (self.w11, 0, 0),
            (self.w22, 1, 1),
        )


def polarizer_trace(p: Projector, rho: SourceDensityMatrix) -> float:
    """Tr(P rho) in closed form: alpha cos 2(t_p - t_n) / (1 + alpha).

    The projector's matrix already carries (cos 2t_p, sin 2t_p) in its
    first row, so no inverse trigonometry is needed.  The result lies in
    (-1, 1).
    """
    c2n = math.cos(2.0 * rho.axis.angle)
    s2n = math.sin(2.0 * rho.axis.angle)
    cos2delta = p.m[0, 0] * c2n + p.m[0, 1] * s2n
    return rho.alpha * cos2delta / (1.0 + rho.alpha)


def interference_trace(
    pa: Projector,
    rho1: SourceDensityMatrix,
    pb: Projector,
    rho2: SourceDensityMatrix,
) -> complex:
    """Tr(P_A rho_1 P_B rho_2), the polarization factor of the cross term.

    Swapping the two density matrices conjugates the result, so the two
    cross terms of the rate formula always sum to something real.  For
    unpolarized sources (alpha = 0) the value is cos 2(t_A - t_B)/2.
    """
    return complex(np.trace(pa.m @ rho1.rho @ pb.m @ rho2.rho))


def correlation_tensor(spec: BackgroundSpec, amps: PathAmplitudeSet) -> np.ndarray:
    """The background's real 3x3 tensor K in the polarizer basis (I, sigma_z, sigma_x).

    K[m, n] = Tr[(B_m x B_n) rho_eff] with rho_eff from
    :func:`effective_density_matrix`, summed over each pairing's triplet
    and singlet parts, on which its routes (a, b) = ``amps.routes(i, j)``
    act as a + b and a - b:

        K = sum w [ |a+b|^2 (P - Z) + |a-b|^2 Z + Re((a+b) conj(a-b)) Q ],

    with P and Q the symmetric and antisymmetric parts of s_i s_j^T over
    the Stokes vectors s = (1, p cos 2n, p sin 2n), p = alpha / (1 + alpha),
    and Z = (1 - p_i p_j cos 2(n_i - n_j)) / 4 diag(1, -1, -1) the singlet
    block; the rate formula's exchange trace Tr[B_m rho_i B_n rho_j] is
    P - 2Z.  K[0, 0] is the total rate w, K[1:, 0] and K[0, 1:] are w m_A
    and w m_B, K[1:, 1:] is w T.  A pairing adds
    |a+b|^2 (1 - Z00) + |a-b|^2 Z00 >= 0 to K[0, 0], as 0 <= Z00 <= 1/2
    and Q00 = 0.  Z00 is summed without cancellation, so it keeps its
    precision for nearly pure sources on nearly one axis, where K's terms
    must balance.  OverflowError if a route rate is out of range.
    """
    alphas, n = (spec.alpha1, spec.alpha2), (spec.axis1.angle, spec.axis2.angle)
    p, q = [x / (1.0 + x) for x in alphas], [1.0 / (1.0 + x) for x in alphas]
    s = [np.array([1.0, pk * math.cos(2.0 * nk), pk * math.sin(2.0 * nk)]) for pk, nk in zip(p, n)]
    k = np.zeros((3, 3))
    for w, i, j in spec.pairings():
        if w == 0.0:
            continue
        a, b = amps.routes(i, j)
        triplet, singlet = abs(a + b) ** 2, abs(a - b) ** 2
        if not math.isfinite(triplet + singlet):  # inf would meet Q's zeros as inf * 0
            raise OverflowError("coincidence rate is out of floating-point range")
        ss = s[i][:, None] * s[j]
        # 1 - p_i p_j cos 2(n_i - n_j) as terms >= 0, with q = 1 - p = 1 / (1 + alpha)
        z = (q[i] + p[i] * q[j] + 2.0 * p[i] * p[j] * math.sin(n[i] - n[j]) ** 2) / 4.0 * _SINGLET
        cross = ((a + b) * (a - b).conjugate()).real
        k += w * (triplet * ((ss + ss.T) / 2.0 - z) + singlet * z + cross * (ss - ss.T) / 2.0)
    return k


def background_correlator(
    spec: BackgroundSpec, amps: PathAmplitudeSet, a: PolarizerAxis, b: PolarizerAxis
) -> float:
    """Expected +-1 outcome product for unentangled pairs, u^T T v.

    With the cross legs masked off this is exactly the separable product
    of the two single-photon polarizer traces.
    """
    k = correlation_tensor(spec, amps)
    if k[0, 0] <= 0.0:
        raise ValueError(
            "total background rate is zero for these weights/amplitudes; "
            "no correlator is defined"
        )
    u, v = (np.array([math.cos(2.0 * t.angle), math.sin(2.0 * t.angle)]) for t in (a, b))
    return float(u @ k[1:, 1:] @ v / k[0, 0])


#: Index order that swaps which photon each detector gets: kron(b, a) is
#: kron(a, b)[_SWAP][:, _SWAP] and kron(a, b) @ SWAP is kron(a, b)[:, _SWAP],
#: bit for bit, so each pairing forms one kron.
_SWAP = [0, 2, 1, 3]


def effective_density_matrix(spec: BackgroundSpec, amps: PathAmplitudeSet) -> np.ndarray:
    """Unnormalized 4x4 pair density matrix equivalent to the rate formula.

    For any product of single-detector operators M_A x M_B,
    Tr[(M_A x M_B) rho_eff] reproduces the weighted four-term rate; its
    trace is the total coincidence rate.  Divide by the trace to
    feed it into :func:`skybell.polarization.joint_outcome_probability`.
    """
    rhos = tuple(s.rho for s in spec.densities())
    out = np.zeros((4, 4), dtype=complex)
    for w, i, j in spec.pairings():
        if w == 0.0:
            continue
        a, b = amps.routes(i, j)
        kron_ij = np.multiply.outer(rhos[i], rhos[j]).transpose(0, 2, 1, 3).reshape(4, 4)
        direct = abs(a) ** 2 * kron_ij + abs(b) ** 2 * kron_ij[_SWAP][:, _SWAP]
        exchange = a * np.conj(b) * kron_ij[:, _SWAP]
        out += w * (direct + exchange + exchange.conj().T)
    return out
