"""Coincidence-counting Monte Carlo with counter-based random streams.

Each sampling task draws from a Philox stream keyed by
(seed, setting index, chunk index), so any worker layout that processes
the fixed-size chunks in any order produces bitwise-identical aggregate
counts.  A trial first picks the entangled or background channel with
probability f w_sig / (f w_sig + (1 - f) w_bg), then draws one of the
four (+-, +-) outcome pairs from that channel's distribution; the
estimator is the empirical outcome product with the binomial standard
error sqrt((1 - e^2)/n).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .background import OUTCOME_PAIRS, outcome_rates
from .polarization import ChshConfiguration, PolarizerAxis
from .scenarios import (
    CorrelationModel,
    ExperimentConfig,
    ScanResult,
    correlation_model,
)

#: Fixed chunk size; the chunk decomposition of n depends only on n.
CHUNK_SIZE = 1 << 18

_MAX_UINT32 = (1 << 32) - 1
_MAX_UINT64 = (1 << 64) - 1

#: oa * ob for each of the OUTCOME_PAIRS.
_PRODUCTS = np.array([oa * ob for oa, ob in OUTCOME_PAIRS], dtype=float)


def _stream(seed: int, setting_index: int, chunk_index: int) -> np.random.Generator:
    """Philox generator keyed by (seed, setting, chunk); no shared state."""
    if not 0 <= seed <= _MAX_UINT64:
        raise ValueError(f"seed must be a uint64, got {seed!r}")
    if not 0 <= setting_index <= _MAX_UINT32:
        raise ValueError(f"setting index out of range: {setting_index!r}")
    if not 0 <= chunk_index <= _MAX_UINT32:
        raise ValueError(f"chunk index out of range: {chunk_index!r}")
    key = np.array([seed, (setting_index << 32) | chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_sizes(n: int) -> list[int]:
    sizes = [CHUNK_SIZE] * (n // CHUNK_SIZE)
    if n % CHUNK_SIZE:
        sizes.append(n % CHUNK_SIZE)
    return sizes


@dataclass(frozen=True, eq=False)
class ChannelDistributions:
    """Per-channel outcome distributions and the channel-choice probability."""

    p_signal_channel: float
    signal: np.ndarray      # p(+,+), p(+,-), p(-,+), p(-,-) for entangled pairs
    background: np.ndarray  # same, for the unentangled channel

    def mixture(self) -> np.ndarray:
        p = self.p_signal_channel
        return p * self.signal + (1.0 - p) * self.background


def channel_distributions(
    cfg: ExperimentConfig, a: PolarizerAxis, b: PolarizerAxis
) -> ChannelDistributions:
    """Outcome distributions of the entangled and background channels.

    Probabilities below 1e-15 are truncated to exactly zero (and the
    vector renormalized) so that analytically forbidden outcomes never
    occur in samples.
    """
    return _distributions(correlation_model(cfg), a.angle, b.angle)


def _distributions(model: CorrelationModel, ta: float, tb: float) -> ChannelDistributions:
    """Channel distributions at one setting pair, read off the model."""
    _, e_signal, _ = model.correlators(ta, tb)
    p_signal = (1.0 + _PRODUCTS * e_signal[0, 0]) / 4.0
    if model.w_background > 0.0:
        p_background = outcome_rates(model.k, ta, tb) / model.k[0, 0]
    else:
        p_background = np.zeros(4)

    def truncate(p: np.ndarray) -> np.ndarray:
        p = np.clip(p, 0.0, 1.0)
        p[p < 1e-15] = 0.0
        s = p.sum()
        return p / s if s > 0.0 else p

    return ChannelDistributions(
        p_signal_channel=model.w_signal / (model.w_signal + model.w_background),
        signal=truncate(p_signal),
        background=truncate(p_background),
    )


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Coincidence counts for one polarizer setting pair."""

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int
    settings: tuple[float, float]
    seed_record: str

    def __post_init__(self):
        for name in ("n_pp", "n_pm", "n_mp", "n_mm"):
            v = int(getattr(self, name))
            if v < 0:
                raise ValueError(f"count {name} must be >= 0, got {v}")
            object.__setattr__(self, name, v)

    @property
    def n_total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def to_dict(self) -> dict:
        return {
            "n_pp": self.n_pp,
            "n_pm": self.n_pm,
            "n_mp": self.n_mp,
            "n_mm": self.n_mm,
            "settings": list(self.settings),
            "seed_record": self.seed_record,
        }


def _chunk_counts(
    dists: ChannelDistributions, m: int, seed: int, setting_index: int, chunk_index: int
) -> np.ndarray:
    """Outcome counts of one chunk of m trials; depends only on its key."""
    rng = _stream(seed, setting_index, chunk_index)
    n_signal = int(rng.binomial(m, dists.p_signal_channel))
    counts = np.zeros(4, dtype=np.int64)
    if n_signal > 0:
        counts += rng.multinomial(n_signal, dists.signal)
    if m - n_signal > 0:
        counts += rng.multinomial(m - n_signal, dists.background)
    return counts


def sample_coincidences(
    cfg: ExperimentConfig,
    a: PolarizerAxis,
    b: PolarizerAxis,
    n: int,
    seed: int,
    setting_index: int = 0,
) -> SampleBatch:
    """Draw n coincidences at settings (a, b).

    Deterministic for a given (seed, setting_index): the fixed chunk
    decomposition of n and the per-chunk stream keys make the aggregate
    counts independent of how the chunks are scheduled.
    """
    dists = channel_distributions(cfg, a, b)
    return _sample(dists, (a.angle, b.angle), n, seed, setting_index)


def _sample(
    dists: ChannelDistributions,
    settings: tuple[float, float],
    n: int,
    seed: int,
    setting_index: int,
) -> SampleBatch:
    """Draw n coincidences from fixed channel distributions."""
    n = int(n)
    if n <= 0:
        raise ValueError(f"sample size must be positive, got {n}")
    counts = np.zeros(4, dtype=np.int64)
    for chunk_index, m in enumerate(_chunk_sizes(n)):
        counts += _chunk_counts(dists, m, seed, setting_index, chunk_index)
    return SampleBatch(
        n_pp=int(counts[0]),
        n_pm=int(counts[1]),
        n_mp=int(counts[2]),
        n_mm=int(counts[3]),
        settings=settings,
        seed_record=f"philox seed={seed} setting={setting_index}",
    )


@dataclass(frozen=True)
class EstimatedCorrelator:
    """Sampled correlator with its binomial standard error."""

    e_hat: float
    stderr: float
    n: int

    def to_dict(self) -> dict:
        return {"e_hat": self.e_hat, "stderr": self.stderr, "n": self.n}


def estimate_correlator(batch: SampleBatch) -> EstimatedCorrelator:
    """Empirical outcome product (n_pp + n_mm - n_pm - n_mp) / n_total."""
    n = batch.n_total
    if n == 0:
        raise ValueError("cannot estimate a correlator from an empty batch")
    e_hat = (batch.n_pp + batch.n_mm - batch.n_pm - batch.n_mp) / n
    stderr = math.sqrt(max(1.0 - e_hat * e_hat, 0.0) / n)
    return EstimatedCorrelator(e_hat=e_hat, stderr=stderr, n=n)


def estimate_chsh(
    cfg: ExperimentConfig, chsh: ChshConfiguration, n_per_setting: int, seed: int
) -> tuple[float, float]:
    """Sampled CHSH sum and its standard error (quadrature over settings).

    Term i of :meth:`ChshConfiguration.terms` is sampled with setting
    index i of the same seed.
    """
    terms = chsh.terms()
    estimates = [
        estimate_correlator(
            sample_coincidences(cfg, a, b, n_per_setting, seed, setting_index=idx)
        )
        for idx, (a, b, _) in enumerate(terms)
    ]
    s_hat = sum(sign * est.e_hat for (_, _, sign), est in zip(terms, estimates))
    stderr = math.sqrt(sum(est.stderr**2 for est in estimates))
    return s_hat, stderr


def sample_scan(
    cfg: ExperimentConfig, grid_a, grid_b, n_per_point: int, seed: int
) -> ScanResult:
    """Monte Carlo counterpart of an angular scan.

    The correlator column holds sampled estimates (n_per_point
    coincidences per grid point, setting index = row index); the
    decomposition columns keep their analytic values for diagnostics.
    """
    model = correlation_model(cfg)
    scan = model.scan(grid_a, grid_b)
    e_hat = [
        estimate_correlator(
            _sample(_distributions(model, ta, tb), (ta, tb), n_per_point, seed, row)
        ).e_hat
        for row, (ta, tb) in enumerate(zip(scan.theta_a, scan.theta_b))
    ]
    return dataclasses.replace(scan, e=np.array(e_hat))
