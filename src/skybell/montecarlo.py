"""Coincidence-counting Monte Carlo with counter-based random streams.

Every draw comes from a Philox stream keyed by the seed and one 64-bit
word.  :func:`_setting_stream` is the one rule for a setting's word: the
setting pair sampled with setting index i reads the stream of
(seed, i << 32), so each CHSH term has its own stream and hbt's random
phases read setting 0's; a sampled scan draws its whole grid from the one
stream of (seed, scan word).  Philox is counter-based, so each stream is a
new bit generator built from its key, and nothing is kept between streams.
A trial first picks the entangled or background channel with probability
f w_sig / (f w_sig + (1 - f) w_bg), then draws one of the four (+-, +-)
outcome pairs from that channel's distribution, as read by the config's
model (:meth:`skybell.scenarios.CorrelationModel.distributions`).  All n
trials of a setting are drawn at once, one binomial for the channel split
and one multinomial per channel, so the cost does not grow with n.  A draw
returns its four counts (a :class:`SampleBatch`); the estimator reads them
as the empirical outcome product with the binomial standard error
sqrt((1 - e^2)/n).  A sampled scan is the analytic scan's table with its
correlator column sampled.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .background import OUTCOME_PAIRS
from .polarization import ChshConfiguration, PolarizerAxis
from .scenarios import ChannelDistributions, ExperimentConfig, ScanResult, angular_scan

__all__ = [
    "SampleBatch", "channel_distributions", "estimate_chsh", "estimate_correlator",
    "random_phases", "sample_coincidences", "sample_scan",
]

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
    """A new Generator on the Philox stream keyed by (seed, word)."""
    if not 0 <= seed <= _MAX_UINT64:
        raise ValueError(f"seed must be a uint64, got {seed!r}")
    if not 0 <= word <= _MAX_UINT64:
        raise ValueError(f"stream word must be a uint64, got {word!r}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, word], dtype=np.uint64)))


def _setting_stream(seed: int, i: int) -> np.random.Generator:
    """The stream of setting index i: the Philox stream keyed by (seed, i << 32)."""
    if not 0 <= i <= _MAX_UINT32:
        raise ValueError(f"setting index out of range: {i!r}")
    return _stream(seed, i << 32)


def random_phases(seed: int, n: int) -> np.ndarray:
    """(n, 2) source phases, uniform on [0, 2 pi), from setting index 0's stream, for hbt."""
    return _setting_stream(seed, 0).uniform(0.0, 2.0 * math.pi, size=(n, 2))


def channel_distributions(
    cfg: ExperimentConfig, a: PolarizerAxis, b: PolarizerAxis
) -> ChannelDistributions:
    """Outcome distributions of the entangled and background channels at (a, b).

    The one-point case of :meth:`CorrelationModel.distributions`, with its
    truncation of probabilities below 1e-15.
    """
    return _row(cfg.model.distributions([a.angle], [b.angle]), 0)


def _row(dists: ChannelDistributions, k: int) -> ChannelDistributions:
    """The one-setting distributions of row k of grid distributions."""
    return dataclasses.replace(dists, signal=dists.signal[k], background=dists.background[k])


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
    dists = channel_distributions(cfg, a, b)
    return SampleBatch(*_draw(dists, n, _setting_stream(seed, setting_index)).tolist())


def estimate_correlator(batch: SampleBatch) -> tuple[float, float]:
    """Empirical outcome product (n_pp + n_mm - n_pm - n_mp) / n_total and its stderr."""
    n = batch.n_total
    if n == 0:
        raise ValueError("cannot estimate a correlator from an empty batch")
    e_hat = (batch.n_pp + batch.n_mm - batch.n_pm - batch.n_mp) / n
    return e_hat, math.sqrt(max(1.0 - e_hat * e_hat, 0.0) / n)


def estimate_chsh(
    cfg: ExperimentConfig, chsh: ChshConfiguration, n_per_setting: int, seed: int
) -> tuple[float, float]:
    """Sampled CHSH sum and its standard error (quadrature over settings).

    Term i of :meth:`ChshConfiguration.terms` is sampled with setting
    index i of the same seed, as :func:`sample_coincidences` would.  The
    distributions of all four terms come from one evaluation over the
    terms' angles; term i is the diagonal entry (i, i), row 5 i.
    """
    terms = chsh.terms()
    grid = cfg.model.distributions([a.angle for a, _, _ in terms], [b.angle for _, b, _ in terms])
    batches = [
        SampleBatch(*_draw(_row(grid, i * (len(terms) + 1)), n_per_setting,
                           _setting_stream(seed, i)).tolist())
        for i in range(len(terms))
    ]
    estimates = [estimate_correlator(batch) for batch in batches]
    s_hat = sum(sign * e_hat for (_, _, sign), (e_hat, _) in zip(terms, estimates))
    stderr = math.sqrt(sum(err**2 for _, err in estimates))
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
    scan = angular_scan(cfg, grid_a, grid_b)
    counts = _draw(cfg.model.distributions(grid_a, grid_b), n_per_point, _stream(seed, _SCAN_WORD))
    return dataclasses.replace(scan, e=(counts @ _PRODUCTS) / int(n_per_point))
