"""Polarization algebra for photon pairs in a shared transverse plane.

All axes (polarizer orientations and source polarization directions) are
measured from one common reference direction in a single transverse
plane, and are identified modulo pi: a polarizer axis is a line, not a
ray.  The +-1 polarizer observable for an axis at angle t is

    P(t) = |n(t)><n(t)| - |n(t + pi/2)><n(t + pi/2)|
         = [[cos 2t, sin 2t], [sin 2t, -cos 2t]],

with eigenvalue +1 for light polarized along the axis and -1 across it.
P(t) is symmetric, traceless and squares to the identity.

Photon-pair states are stored as four complex amplitudes on the ordered
product basis (e1 e1, e1 e2, e2 e1, e2 e2); the first slot is the photon
arriving at detector A.  The two maximally entangled states are

    kind 1:  (e1 e1 + e2 e2) / sqrt(2)    correlator  +cos 2(ta - tb)
    kind 2:  (e1 e2 - e2 e1) / sqrt(2)    correlator  -cos 2(ta - tb)

where the correlator is <state| P(ta) x P(tb) |state>, i.e. the expected
product of the two +-1 polarizer outcomes.  The four-setting CHSH sum

    S = E(a,b) + E(a',b) + E(a,b') - E(a',b')

is bounded by 2*sqrt(2) over all normalized pair states, and both
entangled kinds saturate the bound at suitable settings.  Helicity
(circular) product states give zero correlator at every setting.

Partially polarized single-photon sources are described by an excess
parameter alpha >= 0 along an axis n:

    rho = [(1 + 2 alpha) |n><n| + |n_perp><n_perp|] / (2 + 2 alpha),

an unpolarized part plus an excess along n, with degree of polarization
alpha / (1 + alpha).

P and rho are built from their parameters (an axis, plus alpha for rho),
so the properties above hold by construction and are not re-checked;
only alpha's range is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TSIRELSON_BOUND", "ChshConfiguration", "PolarizerAxis", "Projector",
    "SourceDensityMatrix", "TwoPhotonPureState", "bell_state", "chsh_expectation",
    "chsh_operator", "chsh_operator_square", "chsh_square_spectral_bound", "correlator",
    "joint_outcome_probability", "projector_from_axis", "source_density",
]

#: Quantum bound on the absolute CHSH sum, 2*sqrt(2).
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_NORM_TOL = 1e-12
_DENSITY_TOL = 1e-10

_I2 = np.eye(2)


def _wrap_axis_angle(angle: float) -> float:
    """Canonical axis representative of an angle, in [0, pi)."""
    a = math.fmod(float(angle), math.pi)
    if a < 0.0:
        a += math.pi
    if a >= math.pi:  # guard the rounding case fmod(-eps) + pi == pi
        a -= math.pi
    return a


@dataclass(frozen=True)
class PolarizerAxis:
    """A polarizer (or source polarization) axis.

    The angle is normalized into [0, pi) on construction, so two axes
    differing by a multiple of pi compare equal.
    """

    angle: float

    def __post_init__(self):
        if not math.isfinite(float(self.angle)):
            raise ValueError(f"axis angle must be finite, got {self.angle!r}")
        object.__setattr__(self, "angle", _wrap_axis_angle(self.angle))

    def perpendicular(self) -> "PolarizerAxis":
        """The orthogonal axis in the same transverse plane."""
        return PolarizerAxis(self.angle + math.pi / 2.0)

    def direction(self) -> np.ndarray:
        """Unit vector along the axis in the transverse plane."""
        return np.array([math.cos(self.angle), math.sin(self.angle)])


def axis_angle_between(first: PolarizerAxis, second: PolarizerAxis) -> float:
    """Unsigned angle between two axes (lines), in [0, pi/2]."""
    d = abs(first.angle - second.angle)
    return min(d, math.pi - d)


@dataclass(frozen=True, eq=False)
class Projector:
    """The +-1 polarizer observable: +1 along its axis, -1 across it.

    Built from its axis: the read-only matrix ``m`` is
    [[cos 2t, sin 2t], [sin 2t, -cos 2t]] for axis angle t, which is
    symmetric, traceless and an involution.
    """

    axis: PolarizerAxis
    m: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = math.cos(2.0 * self.axis.angle)
        s = math.sin(2.0 * self.axis.angle)
        m = np.array([[c, s], [s, -c]])
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


#: The +-1 polarizer observable for an axis: the type itself.
projector_from_axis = Projector


def outcome_projector(axis: PolarizerAxis, outcome: int) -> np.ndarray:
    """Rank-1 projector for a single +-1 polarizer outcome.

    ``outcome`` +1 projects onto the axis direction, -1 onto the
    perpendicular: (I + outcome * P(t)) / 2.
    """
    if outcome not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    return 0.5 * (_I2 + outcome * Projector(axis).m)


@dataclass(frozen=True, eq=False)
class TwoPhotonPureState:
    """Pure polarization state of a photon pair.

    Amplitudes are on the ordered basis (e1 e1, e1 e2, e2 e1, e2 e2);
    the first slot is the photon reaching detector A.  The amplitude
    vector must be normalized to unity within 1e-12.
    """

    amp: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amp, dtype=complex)
        if amp.shape != (4,):
            raise ValueError(f"need 4 amplitudes, got shape {amp.shape}")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)

    def density(self) -> np.ndarray:
        """Rank-1 density matrix |psi><psi| as a 4x4 complex array."""
        return np.outer(self.amp, self.amp.conj())


def bell_state(kind: int) -> TwoPhotonPureState:
    """Maximally entangled pair state of the given kind (1 or 2).

    Kind 1 is the parallel combination (e1 e1 + e2 e2)/sqrt(2); kind 2
    is the singlet (e1 e2 - e2 e1)/sqrt(2).
    """
    r = 1.0 / math.sqrt(2.0)
    if kind == 1:
        return TwoPhotonPureState(np.array([r, 0.0, 0.0, r], dtype=complex))
    if kind == 2:
        return TwoPhotonPureState(np.array([0.0, r, -r, 0.0], dtype=complex))
    raise ValueError(f"entangled state kind must be 1 or 2, got {kind!r}")


def correlator(state: TwoPhotonPureState, a: PolarizerAxis, b: PolarizerAxis) -> float:
    """Expected product of the +-1 outcomes at polarizers a (photon A) and b.

    Computes <state| P(a) x P(b) |state>; the result lies in [-1, 1].
    """
    amp = state.amp
    op = np.kron(Projector(a).m, Projector(b).m)
    return float(np.vdot(amp, op @ amp).real)


@dataclass(frozen=True)
class ChshConfiguration:
    """Four polarizer settings for a CHSH measurement: a, a' at A and b, b' at B."""

    a: PolarizerAxis
    a_prime: PolarizerAxis
    b: PolarizerAxis
    b_prime: PolarizerAxis

    @classmethod
    def saturating(cls) -> "ChshConfiguration":
        """Settings that drive |S| to the quantum bound 2*sqrt(2).

        a = 0, a' = pi/4, b = pi/8, b' = -pi/8: the three unprimed-style
        axis pairs are pi/8 apart and the primed-primed pair 3 pi/8.
        """
        return cls(
            a=PolarizerAxis(0.0),
            a_prime=PolarizerAxis(math.pi / 4.0),
            b=PolarizerAxis(math.pi / 8.0),
            b_prime=PolarizerAxis(-math.pi / 8.0),
        )

    def terms(self) -> tuple[tuple[PolarizerAxis, PolarizerAxis, int], ...]:
        """The four (A setting, B setting, sign) terms of the CHSH sum.

        In setting-index order 0..3: (a, b, +1), (a', b, +1), (a, b', +1),
        (a', b', -1).  The sampler keys each term's random stream by its
        index, so this order is part of every seeded result.
        """
        return (
            (self.a, self.b, +1),
            (self.a_prime, self.b, +1),
            (self.a, self.b_prime, +1),
            (self.a_prime, self.b_prime, -1),
        )


def chsh_expectation(state: TwoPhotonPureState, cfg: ChshConfiguration) -> float:
    """CHSH sum E(a,b) + E(a',b) + E(a,b') - E(a',b') for a pure state.

    Bounded in magnitude by 2*sqrt(2) for every normalized state.
    """
    return sum(sign * correlator(state, a, b) for a, b, sign in cfg.terms())


def chsh_operator(cfg: ChshConfiguration) -> np.ndarray:
    """The CHSH observable as a 4x4 matrix on the pair basis."""
    return sum(
        sign * np.kron(Projector(a).m, Projector(b).m)
        for a, b, sign in cfg.terms()
    )


def chsh_operator_square(cfg: ChshConfiguration) -> np.ndarray:
    """Square of the CHSH observable, built explicitly from tensor products.

    The exact identity is

        C^2 = 4 I - [P(a), P(a')] x [P(b), P(b')],

    and since any two axis observables have commutator
    2 i sin 2(t'-t) sigma_y, the eigenvalues of C^2 are
    4 (1 +- sin 2(ta'-ta) sin 2(tb'-tb)), each twice.  The largest of
    them, 4 (1 + sin 2t_aa' sin 2t_bb') in terms of the unsigned angles
    between the axes, caps the CHSH sum at 2*sqrt(2); see
    :func:`chsh_square_spectral_bound`.
    """
    c = chsh_operator(cfg)
    return np.asarray(c @ c, dtype=complex)


def chsh_square_spectral_bound(cfg: ChshConfiguration) -> float:
    """Largest eigenvalue of the squared CHSH observable at these settings.

    Equals 4 (1 + sin 2t_aa' sin 2t_bb') where t_aa' and t_bb' are the
    unsigned angles between the two settings of each detector.  Its
    square root bounds |chsh_expectation| sharply; the worst case over
    settings is 8, giving the 2*sqrt(2) quantum bound.
    """
    saa = math.sin(2.0 * axis_angle_between(cfg.a, cfg.a_prime))
    sbb = math.sin(2.0 * axis_angle_between(cfg.b, cfg.b_prime))
    return 4.0 * (1.0 + saa * sbb)


@dataclass(frozen=True, eq=False)
class SourceDensityMatrix:
    """2x2 polarization density matrix of a partially polarized source.

    Built from its parameters, the polarization axis n and the excess
    alpha: the read-only complex matrix ``rho`` =
    [(1 + 2 alpha)|n><n| + |n_perp><n_perp|] / (2 + 2 alpha) is stored for
    direct trace arithmetic.  Its eigenvalues are (1 + 2 alpha)/(2 + 2 alpha)
    and 1/(2 + 2 alpha): alpha = 0 is unpolarized (I/2), and alpha -> inf
    approaches a pure state along the axis.  alpha is the only value
    checked: ValueError unless alpha >= 0 and 2 + 2 alpha is finite (from
    alpha ~ 9e307 on it overflows and rho would be NaN).
    """

    axis: PolarizerAxis
    alpha: float
    rho: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        alpha = float(self.alpha)
        if not (alpha >= 0.0 and math.isfinite(2.0 + 2.0 * alpha)):
            raise ValueError(
                f"polarization excess alpha must be >= 0 with 2 + 2 alpha finite, got {alpha!r}"
            )
        n = self.axis.direction()
        nperp = self.axis.perpendicular().direction()
        rho = ((1.0 + 2.0 * alpha) * np.outer(n, n) + np.outer(nperp, nperp)) / (
            2.0 + 2.0 * alpha
        )
        rho = rho.astype(complex)
        rho.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rho", rho)


#: Density matrix of a source with excess polarization alpha along an axis: the type itself.
source_density = SourceDensityMatrix


def joint_outcome_probability(
    rho4: np.ndarray, a: PolarizerAxis, b: PolarizerAxis, oa: int, ob: int
) -> float:
    """Probability of the (oa, ob) outcome pair on a two-photon density matrix.

    ``rho4`` must be a 4x4 hermitian, positive semi-definite, unit-trace
    matrix on the pair basis (tolerance 1e-10 on each property).  The
    outcome projectors are rank-1, so the four probabilities at fixed
    settings sum to one.
    """
    rho = np.asarray(rho4, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"pair density matrix must be 4x4, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > _DENSITY_TOL:
        raise ValueError("pair density matrix must be hermitian")
    if abs(complex(np.trace(rho)).real - 1.0) > _DENSITY_TOL:
        raise ValueError("pair density matrix must have unit trace")
    if float(np.linalg.eigvalsh(rho).min()) < -_DENSITY_TOL:
        raise ValueError("pair density matrix must be positive semi-definite")
    op = np.kron(outcome_projector(a, oa), outcome_projector(b, ob))
    p = float(np.trace(rho @ op).real)
    return min(max(p, 0.0), 1.0)
