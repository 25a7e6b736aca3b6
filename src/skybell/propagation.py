"""Scalar path amplitudes and intensity interference for two sources, two detectors.

Photons from point sources 1 and 2 reach detectors A and B along four
legs.  Each leg carries a scalar amplitude

    d_iX = exp(i (k r_iX + phi_i)) / r_iX      (spherical)
    d_iX = exp(i (k r_iX + phi_i))             (phase-only, the default)

where r_iX is the leg length, k the wavenumber and phi_i a random
emission phase of source i.  Polarization rides along unchanged, so the
amplitudes are spin independent.

A pair with one photon from each source reaches the detectors by two
routes, a = d1a d2b and b = d2a d1b, formed once by
:meth:`PathAmplitudeSet.routes`, the only code that multiplies two legs.
|a + b|^2 splits into the direct part |a|^2 + |b|^2 plus the interference
term 2 Re(a conj b); a conj b is the closed four-leg loop, so the random
per-source phases cancel out of it exactly.  Scenario II
(:func:`scenario2_mask`) zeroes route b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

__all__ = [
    "Geometry", "HbtIntensity", "PathAmplitudeSet", "entangled_pair_weight",
    "hbt_intensity", "path_amplitudes", "propagate_pair", "scenario2_mask",
]

#: Allowed leg-amplitude normalizations; the first is the default of every
#: function and config that takes one.
NORMALIZATIONS = ("phase-only", "spherical")


def _as_point(value, name: str) -> np.ndarray:
    p = np.array(value, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {p.shape}")
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError(f"{name} must be finite")
    p.setflags(write=False)
    return p


@dataclass(frozen=True, eq=False)
class Geometry:
    """Positions of the two sources and two detectors, plus the wavenumber.

    All four source-detector separations must be strictly positive, with k r finite.
    """

    source1: np.ndarray
    source2: np.ndarray
    detector_a: np.ndarray
    detector_b: np.ndarray
    wavenumber: float

    def __post_init__(self):
        for name in ("source1", "source2", "detector_a", "detector_b"):
            object.__setattr__(self, name, _as_point(getattr(self, name), name))
        k = float(self.wavenumber)
        if not math.isfinite(k) or k <= 0.0:
            raise ValueError(f"wavenumber must be finite and > 0, got {self.wavenumber!r}")
        object.__setattr__(self, "wavenumber", k)
        s1, s2, da, db = self.source1, self.source2, self.detector_a, self.detector_b
        lengths = _distance(np.array((s1, s2, s1, s2)), np.array((da, da, db, db)))
        _check_legs(k, lengths)
        object.__setattr__(self, "_lengths", tuple(lengths.tolist()))

    def path_lengths(self) -> tuple[float, float, float, float]:
        """Leg lengths (r_1A, r_2A, r_1B, r_2B), measured once, at construction."""
        return self._lengths


def _distance(a, b) -> np.ndarray:
    """|a - b| over the last axis, inf where it is out of float range."""
    with np.errstate(over="ignore"):
        d = np.subtract(a, b)
        return np.hypot(np.hypot(d[..., 0], d[..., 1]), d[..., 2])


def _check_legs(k: float, lengths: np.ndarray, names=("1->A", "2->A", "1->B", "2->B")) -> None:
    """Each row of ``lengths`` is the leg named alike; all must be > 0 with k r finite."""
    if lengths.min(initial=math.inf) > 0.0 and math.isfinite(k * float(lengths.max(initial=0.0))):
        return
    for name, r in zip(names, lengths):
        if (r <= 0.0).any():  # reached only to name the leg that fails
            raise ValueError(f"source/detector pair {name} is coincident")
        if not math.isfinite(k * float(r.max())):  # a NaN leg's max is NaN
            raise ValueError(f"source/detector pair {name}: its length or phase k r overflows")


def _legs(k: float, lengths, phi1, phi2, normalization: str) -> PathAmplitudeSet:
    """exp(i (k r + phi)), over r if spherical, for leg lengths (r_1A, r_2A, r_1B, r_2B)."""
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}")
    legs = [np.exp(1j * (k * r + phi)) for r, phi in zip(lengths, (phi1, phi2, phi1, phi2))]
    if normalization == "spherical":
        legs = [d / r for d, r in zip(legs, lengths)]
    return PathAmplitudeSet(*legs)


@dataclass(frozen=True)
class PathAmplitudeSet:
    """The four leg amplitudes d1a, d2a, d1b, d2b: numbers, or arrays of one shape.

    Zeros are legitimate (a mask or an occulted leg); non-finite values
    are not.
    """

    d1a: complex
    d2a: complex
    d1b: complex
    d2b: complex

    def __post_init__(self):
        for name in ("d1a", "d2a", "d1b", "d2b"):
            v = getattr(self, name)
            # a scalar leg is checked in Python: numpy's checks cost ~10 us a number
            if isinstance(v, (int, float, complex)) or np.ndim(v) == 0:
                v = complex(v)
                finite = math.isfinite(v.real) and math.isfinite(v.imag)
            else:
                v = np.asarray(v, dtype=complex)
                finite = np.all(np.isfinite(v))
            if not finite:
                raise ValueError(f"amplitude {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)

    def routes(self, i: int = 0, j: int = 1) -> tuple[complex, complex]:
        """(d_iA d_jB, d_jA d_iB): sources i, j (0 or 1) to A, B, and the other way round."""
        legs = ((self.d1a, self.d1b), (self.d2a, self.d2b))
        (dia, dib), (dja, djb) = legs[i], legs[j]
        return dia * djb, dja * dib


def path_amplitudes(
    geometry: Geometry,
    phi1: float = 0.0,
    phi2: float = 0.0,
    normalization: str = NORMALIZATIONS[0],
) -> PathAmplitudeSet:
    """Leg amplitudes for the given geometry and source emission phases.

    Parameters
    ----------
    geometry : Geometry
    phi1, phi2 : float
        Emission phases of sources 1 and 2 (radians).
    normalization : str
        One of NORMALIZATIONS: phase-only for unit-magnitude legs,
        spherical for 1/r falloff.
    """
    return _legs(geometry.wavenumber, geometry.path_lengths(), phi1, phi2, normalization)


class HbtIntensity(NamedTuple):
    total: float
    interference: float


def hbt_intensity(amps: PathAmplitudeSet) -> HbtIntensity:
    """Coincidence intensity for one unpolarized photon from each source.

    Returns (total, interference) over the routes (a, b) = ``amps.routes()``:

        total        = |a|^2 + |b|^2 + interference
        interference = 2 Re[a conj(b)].

    Raises OverflowError unless the total, hence the interference, is finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = amps.routes()
        direct = np.abs(a) ** 2 + np.abs(b) ** 2
        interference = 2.0 * np.real(a * np.conj(b))
        total = direct + interference
    if not np.all(np.isfinite(total)):
        raise OverflowError("hbt intensity is out of floating-point range")
    return HbtIntensity(total=total, interference=interference)


def hbt_scan(
    geometry, baselines, phi1=0.0, phi2=0.0, normalization=NORMALIZATIONS[0]
) -> HbtIntensity:
    """``hbt_intensity`` with detector B at each of the length-n ``baselines`` from A.

    B moves along the line from ``geometry``'s detector A towards its own B;
    ``phi1``/``phi2`` are numbers or length-n arrays.  Returns length-n arrays.
    Raises ConfigError if the detectors coincide, ValueError naming the leg if
    B lands on a source or a leg's length or k r overflows, OverflowError if an
    intensity overflows.
    """
    g = geometry
    # B - A (from halved positions where it overflows, which loses no bit the direction
    # keeps), scaled by the power of two that puts its larger coordinate in [0.5, 1):
    # exact, so a subnormal separation points as a unit one does
    with np.errstate(over="ignore"):
        diff = g.detector_b - g.detector_a
    if not np.isfinite(diff).all():
        diff = g.detector_b * 0.5 - g.detector_a * 0.5
    diff = np.ldexp(diff, -math.frexp(float(np.abs(diff).max()))[1])
    span = _distance(diff, 0.0)
    if span <= 0.0:
        raise ConfigError("geometry.detector_a, geometry.detector_b: must differ, "
                          "the hbt baseline runs from detector A towards detector B")
    # a baseline past float range puts B at inf, refused as a leg below
    with np.errstate(over="ignore"):
        detector_b = g.detector_a + np.multiply.outer(baselines, diff / span)
    b_legs = _distance(np.array((g.source1, g.source2))[:, None], detector_b)
    _check_legs(g.wavenumber, b_legs, ("1->B", "2->B"))
    lengths = g.path_lengths()[:2] + tuple(b_legs)
    return hbt_intensity(_legs(g.wavenumber, lengths, phi1, phi2, normalization))


def entangled_pair_weight(amps: PathAmplitudeSet) -> float:
    """Propagation weight |a + b|^2 of the entangled pair, over its routes (a, b).

    The pair's polarization state factors out of propagation, so its
    correlators at the detectors are the source-frame correlators times
    this single nonnegative number.  This symmetric route sum holds for a
    state the photon swap leaves unchanged (Bell kind 1); the singlet
    (kind 2) changes sign under the swap, so its weight is
    |a - b|^2, and with both routes live (scenario I) the model's kind-2
    weight from this function is wrong.
    """
    a, b = amps.routes()
    return float(abs(a + b) ** 2)


def scenario2_mask(amps: PathAmplitudeSet) -> PathAmplitudeSet:
    """Wide-separation mask: detector A sees only source 1, B only source 2.

    Zeroes the cross legs d2a and d1b, so route b of every pairing
    (:meth:`PathAmplitudeSet.routes`) and every interference term vanish.
    """
    return replace(amps, d2a=0j, d1b=0j)


def propagate_pair(amp4: np.ndarray, amps: PathAmplitudeSet) -> np.ndarray:
    """Unnormalized pair amplitudes at the detectors.

    Sums the two routes (a, b) of :meth:`PathAmplitudeSet.routes`
    explicitly: source 1 to A with source 2 to B, and source 2 to A with
    source 1 to B.  Both routes carry the same polarization amplitudes, so
    the result equals amp4 * (a + b).  That holds for a symmetric pair
    state (Bell kind 1); the second route swaps the photons, which flips
    the singlet's (kind 2) sign, so its pair amplitudes are amp4 * (a - b).
    """
    amp4 = np.asarray(amp4, dtype=complex)
    if amp4.shape != (4,):
        raise ValueError(f"need 4 pair amplitudes, got shape {amp4.shape}")
    a, b = amps.routes()
    return a * amp4 + b * amp4
