"""Coincidence-counting Monte Carlo with counter-based random streams.

Every draw comes from a Philox stream keyed by the seed and one 64-bit
word.  A setting pair sampled with setting index i reads the stream of
(seed, i << 32), so each CHSH term has its own stream; a sampled scan
draws its whole grid from the one stream of (seed, scan word).  Philox
is counter-based, so a sampled CHSH call builds one bit generator and
re-keys it per setting to the state a new one keyed (seed, i << 32)
starts in: the streams are unchanged, and nothing outlives the call.
A trial first picks the entangled or background channel with probability
f w_sig / (f w_sig + (1 - f) w_bg), then draws one of the four (+-, +-)
outcome pairs from that channel's distribution, as read by the config's
model (:meth:`skybell.scenarios.CorrelationModel.distributions`).  All n
trials of a setting are drawn at once, one binomial for the channel split
and one multinomial per channel, so the cost does not grow with n.  The
estimator is the empirical outcome product with the binomial standard
error sqrt((1 - e^2)/n).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .background import OUTCOME_PAIRS
from .polarization import ChshConfiguration, PolarizerAxis
from .scenarios import ChannelDistributions, ExperimentConfig, ScanResult

__all__ = [
    "EstimatedCorrelator", "SampleBatch", "channel_distributions", "estimate_chsh",
    "estimate_correlator", "sample_coincidences", "sample_scan",
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


def _stream(seed: int, word: int, philox: np.random.Philox | None = None) -> np.random.Generator:
    """A new Generator on the Philox stream keyed by (seed, word).

    ``philox`` (a new one if None) is re-keyed to the state a new
    ``Philox(key=(seed, word))`` starts in: counter 0, key (seed, word), an
    empty buffer and no spare 32-bit word.  A sampled call re-keys one bit
    generator per setting this way, each setting's stream unchanged: a
    re-key costs about a tenth of building a Philox.
    """
    if not 0 <= seed <= _MAX_UINT64:
        raise ValueError(f"seed must be a uint64, got {seed!r}")
    if not 0 <= word <= _MAX_UINT64:
        raise ValueError(f"stream word must be a uint64, got {word!r}")
    if philox is None:
        philox = np.random.Philox(0)  # its key is replaced below
    philox.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [seed, word]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(philox)


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
    return _sample(channel_distributions(cfg, a, b), a, b, n, seed, setting_index)


def _sample(
    dists: ChannelDistributions,
    a: PolarizerAxis,
    b: PolarizerAxis,
    n: int,
    seed: int,
    setting_index: int,
    philox: np.random.Philox | None = None,
) -> SampleBatch:
    """n coincidences from one setting's distributions, on that setting's stream.

    ``philox``, if given, is re-keyed to that stream by :func:`_stream`.
    """
    if not 0 <= setting_index <= _MAX_UINT32:
        raise ValueError(f"setting index out of range: {setting_index!r}")
    counts = _draw(dists, n, _stream(seed, setting_index << 32, philox)).tolist()
    return SampleBatch(
        *counts,
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
    index i of the same seed, as :func:`sample_coincidences` would.  The
    distributions of all four terms come from one evaluation over the
    terms' angles; term i is the diagonal entry (i, i), row 5 i.  One
    Philox, built here and dropped on return, is re-keyed to each term's
    stream.
    """
    terms = chsh.terms()
    grid = cfg.model.distributions([a.angle for a, _, _ in terms], [b.angle for _, b, _ in terms])
    philox = np.random.Philox(0)  # re-keyed for each term
    estimates = [
        estimate_correlator(
            _sample(_row(grid, i * (len(terms) + 1)), a, b, n_per_setting, seed, i, philox)
        )
        for i, (a, b, _) in enumerate(terms)
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
    scan = cfg.model.scan(grid_a, grid_b)
    counts = _draw(cfg.model.distributions(grid_a, grid_b), n_per_point, _stream(seed, _SCAN_WORD))
    return dataclasses.replace(scan, e=(counts @ _PRODUCTS) / int(n_per_point))
