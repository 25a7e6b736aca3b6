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

of the entangled-pair correlator and the unentangled-background
correlator, where f is the entangled fraction of emitted pairs.  Each
channel is one 3x3 tensor in the basis (I, sigma_z, sigma_x),
diag(1, +-1, +-1) for the entangled pairs and K for the background, and
:class:`CorrelationModel` (``ExperimentConfig.model``) alone reads them:
its ``correlators`` give every analytic correlator and CHSH sum, its
``distributions`` every sampled count.  :func:`angular_scan` alone builds
scan tables, sampled ones too.  Neither weight depends on the polarizer
angles, so the mixture preserves each component's angular shape.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .background import BackgroundSpec, correlation_tensor
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

__all__ = [
    "CorrelatorParts", "ExperimentConfig", "FitReport", "ScanResult", "angular_scan",
    "chsh_with_background", "coincidence_correlator", "effective_amplitudes",
    "extract_signal", "null_background_axes",
]

SCENARIOS = ("I", "II")

_RANK_TOL = 1e-10

#: Round-off allowed beyond |E| = 1 in a scan's correlator column.
E_TOL = 1e-9


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one observation run.

    f = entangled_fraction is the fraction of coincident pairs drawn
    from the entangled channel; the rest follow the background spec.
    Every field is immutable, so the correlation model is built once per
    instance, on first use, and kept with it (``model``).
    """

    scenario: str
    bell_kind: int
    entangled_fraction: float
    background: BackgroundSpec
    geometry: Geometry
    propagator_normalization: str = NORMALIZATIONS[0]

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario: must be one of {SCENARIOS}, got {self.scenario!r}")
        if type(self.bell_kind) is not int or self.bell_kind not in (1, 2):
            raise ValueError(f"bell_kind: must be 1 or 2, got {self.bell_kind!r}")
        f = float(self.entangled_fraction)
        if not math.isfinite(f) or not 0.0 <= f <= 1.0:
            raise ValueError(f"entangled_fraction: must lie in [0, 1], got {f!r}")
        object.__setattr__(self, "entangled_fraction", f)
        if self.propagator_normalization not in NORMALIZATIONS:
            raise ValueError(
                f"propagator_normalization: must be one of {NORMALIZATIONS}, "
                f"got {self.propagator_normalization!r}"
            )

    @functools.cached_property
    def model(self) -> "CorrelationModel":
        """The config's correlation model, built on first use and kept.

        OverflowError if a rate is out of floating-point range, ValueError if both vanish.
        """
        return _build_model(self)


def effective_amplitudes(cfg: ExperimentConfig) -> PathAmplitudeSet:
    """Leg amplitudes for the config at zero source phases, cross legs masked in scenario II.

    No observable downstream depends on the source phases: they enter
    every retained quantity through magnitudes or the closed loop, where
    they cancel.
    """
    amps = path_amplitudes(cfg.geometry, normalization=cfg.propagator_normalization)
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
    e, e_sig, e_bg = cfg.model.correlators(a.angle, b.angle)
    return CorrelatorParts(
        e=float(e[0, 0]),
        e_signal=float(e_sig[0, 0]),
        e_background=float(e_bg[0, 0]),
        weight_signal=cfg.model.w_signal,
        weight_background=cfg.model.w_background,
    )


#: Scan CSV header; column i holds field i of ScanResult (names lower-cased).
SCAN_CSV_COLUMNS = (
    "theta_a",
    "theta_b",
    "E",
    "E_signal",
    "E_background",
    "w_signal",
    "w_background",
)


@dataclass(eq=False)
class ScanResult:
    """Row-major table of correlators over a polarizer-angle grid.

    Rows are ordered with theta_a as the outer loop and theta_b inner,
    matching the CSV layout written by the command-line tool.  The first
    non-finite value in row order, else |E| > 1 + E_TOL, is refused by
    data row (from 1) and CSV column.
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
        row = n  # of the first non-finite value; an earlier column wins a tie
        for name, column, arr in zip(names, SCAN_CSV_COLUMNS, arrays):
            finite = np.isfinite(arr)
            if not finite[:row].all():
                row = int(np.argmin(finite))
                bad = f"column {column}: non-finite value {float(arr[row])!r}"
            setattr(self, name, arr)
        if row == n and (over := np.abs(self.e) > 1.0 + E_TOL).any():
            row = int(np.argmax(over))
            bad = f"column E: correlator {float(self.e[row])!r} leaves [-1, 1]"
        if row < n:
            raise ValueError(f"data row {row + 1}, {bad}")

    def __len__(self) -> int:
        return int(self.theta_a.shape[0])


def _basis_vectors(theta) -> np.ndarray:
    """Rows (cos 2t, sin 2t), one per polarizer angle t of ``theta``."""
    t = 2.0 * np.atleast_1d(np.asarray(theta, dtype=float))
    return np.column_stack([np.cos(t), np.sin(t)])


def _outcome_vectors(theta) -> np.ndarray:
    """Rows (1, o cos 2t, o sin 2t) for o = +1, -1 at each angle of ``theta``, shape (2n, 3)."""
    u = _basis_vectors(theta)
    bar = np.empty((len(u), 2, 3))
    bar[:, :, 0] = 1.0
    bar[:, 0, 1:] = u
    bar[:, 1, 1:] = -u
    return bar.reshape(-1, 3)


def _outcome_rates(k: np.ndarray, bars_a: np.ndarray, bars_b: np.ndarray) -> np.ndarray:
    """The OUTCOME_PAIRS rates u_bar^T K v_bar / 4 at each point of two grids, row-major."""
    rates = bars_a @ k @ bars_b.T
    na, nb = rates.shape[0] // 2, rates.shape[1] // 2
    return rates.reshape(na, 2, nb, 2).transpose(0, 2, 1, 3).reshape(na * nb, 4) / 4.0


@dataclass(frozen=True, eq=False)
class ChannelDistributions:
    """Per-channel outcome distributions and the channel-choice probability.

    ``signal`` and ``background`` hold p(+,+), p(+,-), p(-,+), p(-,-) in
    their last axis: one row per grid point, or a 4-vector for one setting.
    """

    p_signal_channel: float
    signal: np.ndarray      # entangled pairs
    background: np.ndarray  # the unentangled channel


@dataclass(frozen=True, eq=False)
class CorrelationModel:
    """Both channels of one config as 3x3 tensors in the (I, sigma_z, sigma_x) basis.

    w_signal = f w_sig and w_background = (1 - f) w are the rate weights
    of the mixture.  ``k_signal`` = diag(1, s, s), s = +-1 by bell_kind,
    is the entangled channel; ``k`` is the background's tensor from
    :func:`skybell.background.correlation_tensor` at every f, or
    diag(1, 0, 0) when the background has no rate (K[0, 0] <= 0):
    E_background then reads 0 with no 0/0, and the channel, given no
    trials, draws nothing.  Both are read-only and built once per config
    on first use (``ExperimentConfig.model``), independent of settings.
    """

    w_signal: float
    w_background: float
    k_signal: np.ndarray
    k: np.ndarray

    def correlators(self, theta_a, theta_b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(E, E_signal, E_background) over the outer product of two angle grids."""
        u_a, u_b = _basis_vectors(theta_a), _basis_vectors(theta_b)
        e_signal, e_background = (
            u_a @ k[1:, 1:] @ u_b.T / k[0, 0] for k in (self.k_signal, self.k)
        )
        e = (self.w_signal * e_signal + self.w_background * e_background) / (
            self.w_signal + self.w_background
        )
        return e, e_signal, e_background

    def distributions(self, grid_a, grid_b) -> ChannelDistributions:
        """Channel distributions over the outer product of two angle grids.

        Row i of ``signal`` and ``background`` is the channel's outcome rates
        over its rate k[0, 0] at grid point i of :func:`angular_scan`.
        Probabilities below 1e-15 are truncated to exactly zero (and the row
        renormalized) so that analytically forbidden outcomes never occur in
        samples.
        """
        bars_a, bars_b = _outcome_vectors(grid_a), _outcome_vectors(grid_b)
        p_signal, p_background = (
            _outcome_rates(k, bars_a, bars_b) / k[0, 0] for k in (self.k_signal, self.k)
        )

        def truncate(p: np.ndarray) -> np.ndarray:
            p = np.clip(p, 0.0, 1.0)
            p[p < 1e-15] = 0.0
            s = p.sum(axis=1, keepdims=True)
            return p / np.where(s > 0.0, s, 1.0)

        return ChannelDistributions(
            p_signal_channel=self.w_signal / (self.w_signal + self.w_background),
            signal=truncate(p_signal),
            background=truncate(p_background),
        )


def _build_model(cfg: ExperimentConfig) -> CorrelationModel:
    """Build the config's model from its scenario's leg amplitudes."""
    amps = effective_amplitudes(cfg)
    f = cfg.entangled_fraction
    try:
        k = correlation_tensor(cfg.background, amps)
        w_signal = f * entangled_pair_weight(amps)
        w_background = (1.0 - f) * float(k[0, 0])
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
    if not k[0, 0] > 0.0:
        k = np.diag([1.0, 0.0, 0.0])
    k_signal = np.diag([1.0, 1.0, 1.0] if cfg.bell_kind == 1 else [1.0, -1.0, -1.0])
    for tensor in (k_signal, k):
        tensor.setflags(write=False)  # shared by every caller of the cached model
    return CorrelationModel(w_signal=w_signal, w_background=w_background, k_signal=k_signal, k=k)


def angular_scan(cfg: ExperimentConfig, grid_a, grid_b) -> ScanResult:
    """Analytic correlator over the outer product of two angle grids.

    ``grid_a`` and ``grid_b`` are sequences of polarizer angles in
    radians; the result has len(grid_a) * len(grid_b) rows in row-major
    order and is deterministic (no sampling).
    """
    grid_a = np.array([float(x) for x in grid_a])
    grid_b = np.array([float(x) for x in grid_b])
    e, e_signal, e_background = cfg.model.correlators(grid_a, grid_b)
    theta_a, theta_b = np.meshgrid(grid_a, grid_b, indexing="ij")
    return ScanResult(
        theta_a=theta_a.ravel(),
        theta_b=theta_b.ravel(),
        e=e.ravel(),
        e_signal=e_signal.ravel(),
        e_background=e_background.ravel(),
        w_signal=np.full(e.size, cfg.model.w_signal),
        w_background=np.full(e.size, cfg.model.w_background),
    )


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
    # rows are read lazily: the loop stops at the 4th distinct setting, and
    # the else runs only when fewer exist
    distinct = set()
    for setting in zip(scan.theta_a, scan.theta_b):
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

    coef, _, _, singular_values = np.linalg.lstsq(design, scan.e, rcond=None)
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
    e, _, _ = cfg.model.correlators([a.angle for a, _, _ in terms], [b.angle for _, b, _ in terms])
    return float(sum(sign * e[i, i] for i, (_, _, sign) in enumerate(terms)))
