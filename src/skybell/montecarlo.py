"""Coincidence-counting Monte Carlo with counter-based random streams.

Every draw comes from a Philox stream keyed by the seed and one 64-bit
word.  A setting pair sampled with setting index i reads the stream of
(seed, i << 32), so each CHSH term has its own stream; a sampled scan
draws its whole grid from the one stream of (seed, scan word).  A trial
first picks the entangled or background channel with probability
f w_sig / (f w_sig + (1 - f) w_bg), then draws one of the four (+-, +-)
outcome pairs from that channel's distribution.  All n trials of a
setting are drawn at once, one binomial for the channel split and one
multinomial per channel, so the cost does not grow with n.  The
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

#: Unused by the sampler; perfbench/spans.py reads it for its chunk count.
CHUNK_SIZE = 1 << 18

#: numpy draws counts as int64, so n may not exceed this.
MAX_SAMPLE_SIZE = (1 << 63) - 1

_MAX_UINT32 = (1 << 32) - 1
_MAX_UINT64 = (1 << 64) - 1

#: Stream word of a sampled scan; its low 32 bits are not zero, so no
#: setting word i << 32 equals it.
_SCAN_WORD = 0x7363616E

#: oa * ob for each of the OUTCOME_PAIRS.
_PRODUCTS = np.array([oa * ob for oa, ob in OUTCOME_PAIRS])


def _stream(seed: int, word: int) -> np.random.Generator:
    """Philox generator keyed by (seed, word); no shared state."""
    if not 0 <= seed <= _MAX_UINT64:
        raise ValueError(f"seed must be a uint64, got {seed!r}")
    if not 0 <= word <= _MAX_UINT64:
        raise ValueError(f"stream word must be a uint64, got {word!r}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, word], dtype=np.uint64)))


@dataclass(frozen=True, eq=False)
class ChannelDistributions:
    """Per-channel outcome distributions and the channel-choice probability.

    ``signal`` and ``background`` hold p(+,+), p(+,-), p(-,+), p(-,-) in
    their last axis: one row per grid point, or a 4-vector for one setting.
    """

    p_signal_channel: float
    signal: np.ndarray      # entangled pairs
    background: np.ndarray  # the unentangled channel

    def mixture(self) -> np.ndarray:
        p = self.p_signal_channel
        return p * self.signal + (1.0 - p) * self.background


def channel_distributions(
    cfg: ExperimentConfig, a: PolarizerAxis, b: PolarizerAxis
) -> ChannelDistributions:
    """Outcome distributions of the entangled and background channels at (a, b).

    The one-point case of the grid distributions.  Probabilities below
    1e-15 are truncated to exactly zero (and the vector renormalized) so
    that analytically forbidden outcomes never occur in samples.
    """
    grid = _distributions(correlation_model(cfg), [a.angle], [b.angle])
    return dataclasses.replace(grid, signal=grid.signal[0], background=grid.background[0])


def _distributions(model: CorrelationModel, grid_a, grid_b) -> ChannelDistributions:
    """Channel distributions over the outer product of two angle grids.

    Rows of ``signal`` and ``background`` follow the grid points in
    row-major order, as the rows of :meth:`CorrelationModel.scan`.
    """
    _, e_signal, _ = model.correlators(grid_a, grid_b)
    p_signal = (1.0 + np.multiply.outer(e_signal.ravel(), _PRODUCTS)) / 4.0
    if model.w_background > 0.0:
        p_background = outcome_rates(model.k, grid_a, grid_b).reshape(-1, 4) / model.k[0, 0]
    else:
        p_background = np.zeros_like(p_signal)

    def truncate(p: np.ndarray) -> np.ndarray:
        p = np.clip(p, 0.0, 1.0)
        p[p < 1e-15] = 0.0
        s = p.sum(axis=1, keepdims=True)
        return p / np.where(s > 0.0, s, 1.0)

    return ChannelDistributions(
        p_signal_channel=model.w_signal / (model.w_signal + model.w_background),
        signal=truncate(p_signal),
        background=truncate(p_background),
    )


def _draw(dists: ChannelDistributions, n: int, rng: np.random.Generator) -> np.ndarray:
    """Outcome counts of n trials at each row of the distributions, in their shape."""
    n = int(n)
    if not 1 <= n <= MAX_SAMPLE_SIZE:
        raise ValueError(f"sample size must lie in [1, 2^63 - 1], got {n}")
    n_signal = rng.binomial(n, dists.p_signal_channel, size=dists.signal.shape[:-1])
    return rng.multinomial(n_signal, dists.signal) + rng.multinomial(
        n - n_signal, dists.background
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


def sample_coincidences(
    cfg: ExperimentConfig,
    a: PolarizerAxis,
    b: PolarizerAxis,
    n: int,
    seed: int,
    setting_index: int = 0,
) -> SampleBatch:
    """Draw n coincidences at settings (a, b).

    Deterministic for a given (seed, setting_index): all n trials come
    from the stream of (seed, setting_index << 32).
    """
    if not 0 <= setting_index <= _MAX_UINT32:
        raise ValueError(f"setting index out of range: {setting_index!r}")
    counts = _draw(channel_distributions(cfg, a, b), n, _stream(seed, setting_index << 32))
    return SampleBatch(
        n_pp=int(counts[0]),
        n_pm=int(counts[1]),
        n_mp=int(counts[2]),
        n_mm=int(counts[3]),
        settings=(a.angle, b.angle),
        seed_record=f"philox seed={seed} setting={setting_index}",
    )


@dataclass(frozen=True)
class EstimatedCorrelator:
    """Sampled correlator with its binomial standard error."""

    e_hat: float
    stderr: float
    n: int


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
    coincidences per grid point, the whole grid drawn from the one scan
    stream of the seed); the decomposition columns keep their analytic
    values for diagnostics.
    """
    model = correlation_model(cfg)
    scan = model.scan(grid_a, grid_b)
    grid_a, grid_b = np.asarray(grid_a, dtype=float), np.asarray(grid_b, dtype=float)
    dists = _distributions(model, grid_a, grid_b)
    counts = _draw(dists, n_per_point, _stream(seed, _SCAN_WORD))
    return dataclasses.replace(scan, e=(counts @ _PRODUCTS) / int(n_per_point))
