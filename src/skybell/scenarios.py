"""Observation scenarios: entangled signal mixed with unentangled background.

Two viewing configurations are supported.  In scenario "I" the two
sources sit close together on the sky, every detector sees both, and all
four propagation legs are live; the interference part of the background
then shares the signal's cos 2(t_a - t_b) angular shape, which is what
makes small-separation signal extraction ill posed.  In scenario "II"
the sources are far apart and each detector is pointed at one of them,
which is modeled by masking the two cross legs; the background becomes
an exactly separable function of the two polarizer angles and can be
nulled or fitted away.

A coincidence correlator is the rate-weighted mixture

    E = [f w_sig E_sig + (1 - f) w_bg E_bg] / [f w_sig + (1 - f) w_bg]

of the entangled-pair correlator (+-cos 2(t_a - t_b) times the
propagation weight) and the unentangled-background correlator, where f
is the entangled fraction of emitted pairs.  Neither weight depends on
the polarizer angles, so the mixture preserves each component's angular
shape.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .background import BackgroundSpec, correlation_tensor, tensor_correlator
from .errors import DegenerateDesignError
from .polarization import TSIRELSON_BOUND, ChshConfiguration, PolarizerAxis
from .propagation import (
    NORMALIZATIONS,
    Geometry,
    PathAmplitudeSet,
    entangled_pair_weight,
    path_amplitudes,
    scenario2_mask,
)

SCENARIOS = ("I", "II")

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one observation run.

    f = entangled_fraction is the fraction of coincident pairs drawn
    from the entangled channel; the rest follow the background spec.
    """

    scenario: str
    bell_kind: int
    entangled_fraction: float
    background: BackgroundSpec
    geometry: Geometry
    propagator_normalization: str = "phase-only"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if isinstance(self.bell_kind, bool) or self.bell_kind not in (1, 2):
            raise ValueError(f"bell_kind must be 1 or 2, got {self.bell_kind!r}")
        f = float(self.entangled_fraction)
        if not math.isfinite(f) or not 0.0 <= f <= 1.0:
            raise ValueError(f"entangled_fraction must lie in [0, 1], got {f!r}")
        object.__setattr__(self, "entangled_fraction", f)
        if self.propagator_normalization not in NORMALIZATIONS:
            raise ValueError(
                f"propagator_normalization must be one of {NORMALIZATIONS}, "
                f"got {self.propagator_normalization!r}"
            )


def effective_amplitudes(
    cfg: ExperimentConfig, phi1: float = 0.0, phi2: float = 0.0
) -> PathAmplitudeSet:
    """Leg amplitudes for the config, cross legs masked in scenario II.

    No observable downstream depends on phi1/phi2: the source phases
    enter every retained quantity through magnitudes or the closed loop,
    where they cancel.
    """
    amps = path_amplitudes(
        cfg.geometry, phi1=phi1, phi2=phi2, normalization=cfg.propagator_normalization
    )
    if cfg.scenario == "II":
        amps = scenario2_mask(amps)
    return amps


@dataclass(frozen=True)
class CorrelatorParts:
    """A coincidence correlator with its signal/background decomposition.

    weight_signal = f * w_sig and weight_background = (1 - f) * w_bg are
    the rate-weighted mixture weights, so
    e == (weight_signal * e_signal + weight_background * e_background)
         / (weight_signal + weight_background).
    """

    e: float
    e_signal: float
    e_background: float
    weight_signal: float
    weight_background: float


def coincidence_correlator(
    cfg: ExperimentConfig, a: PolarizerAxis, b: PolarizerAxis
) -> CorrelatorParts:
    """Mixture correlator at polarizer settings (a, b)."""
    model = correlation_model(cfg)
    e, e_sig, e_bg = model.correlators(a.angle, b.angle)
    return CorrelatorParts(
        e=float(e[0, 0]),
        e_signal=float(e_sig[0, 0]),
        e_background=float(e_bg[0, 0]),
        weight_signal=model.w_signal,
        weight_background=model.w_background,
    )


@dataclass(eq=False)
class ScanResult:
    """Row-major table of correlators over a polarizer-angle grid.

    Rows are ordered with theta_a as the outer loop and theta_b inner,
    matching the CSV layout written by the command-line tool.
    """

    theta_a: np.ndarray
    theta_b: np.ndarray
    e: np.ndarray
    e_signal: np.ndarray
    e_background: np.ndarray
    w_signal: np.ndarray
    w_background: np.ndarray

    def __post_init__(self):
        names = [field.name for field in dataclasses.fields(self)]
        arrays = [np.asarray(getattr(self, name), dtype=float) for name in names]
        n = arrays[0].shape[0]
        if any(arr.shape != (n,) for arr in arrays):
            raise ValueError("scan columns must be 1-D arrays of equal length")
        if n == 0:
            raise ValueError("scan must contain at least one row")
        for name, arr in zip(names, arrays):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"scan column {name} holds a non-finite value")
            setattr(self, name, arr)
        if np.max(np.abs(self.e)) > 1.0 + 1e-9:
            raise ValueError("correlator column leaves [-1, 1]")

    def __len__(self) -> int:
        return int(self.theta_a.shape[0])


@dataclass(frozen=True, eq=False)
class CorrelationModel:
    """Both channels of one config in the (cos 2t, sin 2t) polarizer basis.

    w_signal = f w_sig and w_background = (1 - f) w are the rate weights
    of the mixture.  The entangled channel has no marginals and the
    correlation tensor sign * I, so its correlator is
    sign * cos 2(t_a - t_b); ``k`` is the background's tensor from
    :func:`skybell.background.correlation_tensor`.  Build one per config
    with :func:`correlation_model`; nothing here depends on the settings.
    """

    w_signal: float
    w_background: float
    sign: float
    k: np.ndarray

    def correlators(self, theta_a, theta_b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(E, E_signal, E_background) over the outer product of two angle grids."""
        e_signal = np.atleast_2d(self.sign * np.cos(2.0 * np.subtract.outer(theta_a, theta_b)))
        if self.w_background > 0.0:
            e_background = tensor_correlator(self.k, theta_a, theta_b)
        else:
            e_background = np.zeros_like(e_signal)
        e = (self.w_signal * e_signal + self.w_background * e_background) / (
            self.w_signal + self.w_background
        )
        return e, e_signal, e_background

    def scan(self, grid_a, grid_b) -> ScanResult:
        """The analytic scan over two angle grids, in row-major order."""
        grid_a = np.array([float(x) for x in grid_a])
        grid_b = np.array([float(x) for x in grid_b])
        if not grid_a.size or not grid_b.size:
            raise ValueError("scan grids must be non-empty")
        e, e_signal, e_background = self.correlators(grid_a, grid_b)
        theta_a, theta_b = np.meshgrid(grid_a, grid_b, indexing="ij")
        return ScanResult(
            theta_a=theta_a.ravel(),
            theta_b=theta_b.ravel(),
            e=e.ravel(),
            e_signal=e_signal.ravel(),
            e_background=e_background.ravel(),
            w_signal=np.full(e.size, self.w_signal),
            w_background=np.full(e.size, self.w_background),
        )


def correlation_model(cfg: ExperimentConfig) -> CorrelationModel:
    """Build the config's model from its scenario's leg amplitudes.

    Raises OverflowError when a rate is out of floating-point range and
    ValueError when both rates vanish.
    """
    amps = effective_amplitudes(cfg)
    f = cfg.entangled_fraction
    try:
        k = correlation_tensor(cfg.background, amps)
        w_signal = f * entangled_pair_weight(amps)
        w_background = (1.0 - f) * max(float(k[0, 0]), 0.0)
        total = w_signal + w_background
    except OverflowError:  # Python's float power raises where numpy gives inf
        total = math.inf
    if not math.isfinite(total):
        raise OverflowError("coincidence rate is out of floating-point range")
    if total <= 0.0:
        raise ValueError(
            "total coincidence weight is zero: no entangled rate and no "
            "background rate at these settings"
        )
    return CorrelationModel(
        w_signal=w_signal,
        w_background=w_background,
        sign=1.0 if cfg.bell_kind == 1 else -1.0,
        k=k,
    )


def angular_scan(cfg: ExperimentConfig, grid_a, grid_b) -> ScanResult:
    """Analytic correlator over the outer product of two angle grids.

    ``grid_a`` and ``grid_b`` are sequences of polarizer angles in
    radians; the result has len(grid_a) * len(grid_b) rows in row-major
    order and is deterministic (no sampling).
    """
    return correlation_model(cfg).scan(grid_a, grid_b)


def null_background_axes(spec: BackgroundSpec) -> tuple[float, float]:
    """Polarizer angles that zero the separable background at each detector.

    Rotating each polarizer pi/4 away from its source's polarization
    axis kills the cos 2(t - n) factor; returns the two angles modulo pi.
    """
    return (
        (spec.axis1.angle + math.pi / 4.0) % math.pi,
        (spec.axis2.angle + math.pi / 4.0) % math.pi,
    )


@dataclass(frozen=True)
class FitReport:
    """Least-squares decomposition of a scan into signal and background shapes.

    bell_s = 2*sqrt(2) * s_hat is the CHSH value implied by a pure
    cos 2(t_a - t_b) term of amplitude s_hat at saturating settings;
    violates_bell flags |bell_s| > 2.
    """

    s_hat: float
    b_hat: float
    residual_rms: float
    bell_s: float
    violates_bell: bool

    def to_dict(self) -> dict:
        return {
            "S_hat": self.s_hat,
            "B_hat": self.b_hat,
            "residual_rms": self.residual_rms,
            "bell_S": self.bell_s,
            "violates_bell": self.violates_bell,
        }


def extract_signal(
    scan: ScanResult,
    beta1: float,
    beta2: float,
    background_basis: str = "product",
) -> FitReport:
    """Fit E(t_a, t_b) = s_hat cos 2(t_a - t_b) + b_hat g(t_a, t_b).

    With background_basis "product" (the wide-separation procedure) the
    background shape is g = cos 2(t_a - beta1) cos 2(t_b - beta2).  With
    "scan" the scan's own recorded background correlator column is used
    as the shape; for a small-separation scan with unpolarized sources
    that column is itself proportional to cos 2(t_a - t_b), so the two
    basis functions are parallel and the fit is refused.

    Requires at least 4 distinct (t_a, t_b) rows.  Raises
    DegenerateDesignError when the second singular value of the design
    matrix falls below 1e-10, naming the degenerate direction.
    """
    if background_basis not in ("product", "scan"):
        raise ValueError(
            f"background_basis must be 'product' or 'scan', got {background_basis!r}"
        )
    distinct = set()  # stops growing at 4; the else runs only when fewer exist
    for setting in zip(scan.theta_a.tolist(), scan.theta_b.tolist()):
        distinct.add(setting)
        if len(distinct) == 4:
            break
    else:
        raise ValueError(
            f"need at least 4 distinct (theta_a, theta_b) rows, got {len(distinct)}"
        )

    signal_col = np.cos(2.0 * (scan.theta_a - scan.theta_b))
    if background_basis == "product":
        bg_col = np.cos(2.0 * (scan.theta_a - beta1)) * np.cos(2.0 * (scan.theta_b - beta2))
        bg_name = "background basis cos 2(theta_a - beta1) cos 2(theta_b - beta2)"
    else:
        bg_col = scan.e_background.copy()
        bg_name = "scan background correlator column"
    design = np.column_stack([signal_col, bg_col])

    singular_values = np.linalg.svd(design, compute_uv=False)
    if singular_values[1] < _RANK_TOL:
        norm_signal = float(np.linalg.norm(signal_col))
        norm_bg = float(np.linalg.norm(bg_col))
        scale = math.sqrt(len(scan))
        if norm_bg <= _RANK_TOL * scale:
            direction = f"{bg_name} vanishes on this scan"
        elif norm_signal <= _RANK_TOL * scale:
            direction = "signal basis cos 2(theta_a - theta_b) vanishes on this scan"
        else:
            direction = (
                f"{bg_name} is parallel to the signal basis "
                "cos 2(theta_a - theta_b) on this scan"
            )
        raise DegenerateDesignError(direction, singular_values[1])

    coef, _, _, _ = np.linalg.lstsq(design, scan.e, rcond=None)
    residual = scan.e - design @ coef
    residual_rms = float(np.sqrt(np.mean(residual**2)))
    s_hat = float(coef[0])
    bell_s = TSIRELSON_BOUND * s_hat
    return FitReport(
        s_hat=s_hat,
        b_hat=float(coef[1]),
        residual_rms=residual_rms,
        bell_s=bell_s,
        violates_bell=bool(abs(bell_s) > 2.0),
    )


def chsh_with_background(cfg: ExperimentConfig, chsh: ChshConfiguration) -> float:
    """CHSH sum of the mixture correlator at the four settings.

    Reaches f * 2*sqrt(2) at the saturating settings when the background
    correlator vanishes there and the two channel rates are equal.
    """
    terms = chsh.terms()
    # one evaluation over the terms' angles; term i is the diagonal entry (i, i)
    e, _, _ = correlation_model(cfg).correlators(
        [a.angle for a, _, _ in terms], [b.angle for _, b, _ in terms]
    )
    return float(sum(sign * e[i, i] for i, (_, _, sign) in enumerate(terms)))
