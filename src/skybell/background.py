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
Stokes vectors, without rho_eff.  With u = (cos 2t_A, sin 2t_A) and
v = (cos 2t_B, sin 2t_B), the (oa, ob) outcome pair is detected at the
rate

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

from .errors import ConsistencyError
from .polarization import (
    PolarizerAxis,
    Projector,
    SourceDensityMatrix,
    source_density,
)
from .propagation import PathAmplitudeSet

__all__ = [
    "BackgroundSpec", "background_correlator", "effective_density_matrix",
    "interference_trace", "polarizer_trace",
]

_NEGATIVE_TOL = -1e-12

#: The four +-1 outcome pairs, in fixed (A, B) order.
OUTCOME_PAIRS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))

#: Four weights divided by their sum add up to one within about 2 eps.
_WEIGHT_SUM_TOL = 4.0 * np.finfo(float).eps

#: I, sigma_z, sigma_x: the polarizer observable at angle t is
#: cos 2t sigma_z + sin 2t sigma_x.
_BASIS = np.array(
    [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]]
)

#: G[m, a, n, b] = Tr[B_m B_a B_n B_b] / 4 as a map from X[a, b] to K[m, n]:
#: with X = s_i s_j^T it gives Tr[B_m rho_i B_n rho_j], the exchange term.
_EXCHANGE = (
    np.einsum("mij,ajk,nkl,bli->mnab", _BASIS, _BASIS, _BASIS, _BASIS) / 4.0
).reshape(9, 9)


@dataclass(frozen=True)
class BackgroundSpec:
    """Two partially polarized sources plus pairing weights.

    axis1/alpha1 and axis2/alpha2 parameterize the source density
    matrices.  w12, w21 weight the cross-source pairing (one photon from
    each source, in either detector assignment; the two entries are
    physically equivalent and share the rate), while w11 and w22 weight
    pairs drawn twice from the same source.  Weights must be nonnegative
    with a positive sum and are renormalized to sum one.  Weights that
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
                raise ValueError(f"{name} must be >= 0 with 2 + 2 {name} finite, got {v!r}")
            object.__setattr__(self, name, v)
        weights = []
        for name in ("w12", "w21", "w11", "w22"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"weight {name} must be finite and >= 0, got {v!r}")
            weights.append(v)
        total = sum(weights)
        # an infinite sum would divide every weight down to zero
        if not 0.0 < total < math.inf:
            raise ValueError(f"pairing weights must have a positive, finite sum, got {total!r}")
        # weights that sum to one up to rounding are kept, which makes the
        # renormalization idempotent: dividing again would move them by an ulp
        if abs(total - 1.0) <= _WEIGHT_SUM_TOL:
            total = 1.0
        for name, v in zip(("w12", "w21", "w11", "w22"), weights):
            object.__setattr__(self, name, v / total)

    def densities(self) -> tuple[SourceDensityMatrix, SourceDensityMatrix]:
        return (
            source_density(self.axis1, self.alpha1),
            source_density(self.axis2, self.alpha2),
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


def _stokes(axis: PolarizerAxis, alpha: float) -> tuple[float, float, float]:
    """Tr(B_m rho) of a source: s = (1, p cos 2n, p sin 2n) with p = alpha / (1 + alpha)."""
    p = alpha / (1.0 + alpha)
    return (1.0, p * math.cos(2.0 * axis.angle), p * math.sin(2.0 * axis.angle))


def correlation_tensor(spec: BackgroundSpec, amps: PathAmplitudeSet) -> np.ndarray:
    """The background's real 3x3 tensor K in the polarizer basis (I, sigma_z, sigma_x).

    K[m, n] = Tr[(B_m x B_n) rho_eff] with rho_eff from
    :func:`effective_density_matrix`, in closed form over the pairings:

        K = sum w [ |d_iA d_jB|^2 s_i s_j^T + |d_jA d_iB|^2 s_j s_i^T
                    + 2 Re(z) G(s_i, s_j) ],

    with the sources' Stokes vectors s, z = d_iA d_jB conj(d_jA d_iB) and
    G(s_i, s_j)[m, n] = Tr[B_m rho_i B_n rho_j] (``_EXCHANGE``).  K[0, 0]
    is the total rate w, K[1:, 0] and K[0, 1:] are w m_A and w m_B,
    K[1:, 1:] is w T.  Raises ConsistencyError on an imaginary residue or
    a total rate below -1e-12, both of which signal corrupt inputs.
    """
    d = ((amps.d1a, amps.d1b), (amps.d2a, amps.d2b))
    # coefficients of s_a s_b^T in the direct and the exchange terms
    direct = [[0.0, 0.0], [0.0, 0.0]]
    exchange = [[0.0, 0.0], [0.0, 0.0]]
    for w, i, j in spec.pairings():
        if w == 0.0:
            continue
        dia, dib = d[i]
        dja, djb = d[j]
        direct[i][j] += w * abs(dia * djb) ** 2
        direct[j][i] += w * abs(dja * dib) ** 2
        exchange[i][j] += 2.0 * w * (dia * djb * (dja * dib).conjugate()).real
    s = np.array([_stokes(spec.axis1, spec.alpha1), _stokes(spec.axis2, spec.alpha2)])
    k = s.T @ np.array(direct) @ s
    k += (_EXCHANGE @ (s.T @ np.array(exchange) @ s).reshape(9)).reshape(3, 3)
    if np.iscomplexobj(k):  # only corrupt, complex weights get here
        residue = float(np.max(np.abs(k.imag)))
        if residue > 1e-12 * max(1.0, float(np.max(np.abs(k.real)))):
            raise ConsistencyError(f"correlation tensor has imaginary residue {residue:.3e}")
        k = k.real
    if k[0, 0] < _NEGATIVE_TOL:
        raise ConsistencyError(
            f"total coincidence rate {k[0, 0]:.3e} is negative beyond tolerance"
        )
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
    d = ((amps.d1a, amps.d1b), (amps.d2a, amps.d2b))
    out = np.zeros((4, 4), dtype=complex)
    for w, i, j in spec.pairings():
        if w == 0.0:
            continue
        dia, dib = d[i]
        dja, djb = d[j]
        z = dia * djb * np.conj(dja * dib)
        kron_ij = np.multiply.outer(rhos[i], rhos[j]).transpose(0, 2, 1, 3).reshape(4, 4)
        direct = abs(dia * djb) ** 2 * kron_ij + abs(dja * dib) ** 2 * kron_ij[_SWAP][:, _SWAP]
        exchange = z * kron_ij[:, _SWAP]
        out += w * (direct + exchange + exchange.conj().T)
    return out
