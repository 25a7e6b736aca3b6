import math

import numpy as np
import pytest

from helpers import far_field_geometry, make_config, random_geometry

from skybell import (
    TSIRELSON_BOUND,
    ChshConfiguration,
    PolarizerAxis,
    SampleBatch,
    angular_scan,
    channel_distributions,
    coincidence_correlator,
    estimate_chsh,
    estimate_correlator,
    sample_coincidences,
    sample_scan,
)
from skybell import montecarlo
from skybell.montecarlo import MAX_SAMPLE_SIZE, _SCAN_WORD, _stream

A = PolarizerAxis(0.2)
B = PolarizerAxis(0.7)


def fresh_philox_counts(cfg, a, b, n, seed, setting_index):
    """Counts of one setting drawn from a newly built Philox keyed (seed, index << 32)."""
    key = np.array([seed, setting_index << 32], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    dists = channel_distributions(cfg, a, b)
    n_signal = rng.binomial(n, dists.p_signal_channel)
    counts = rng.multinomial(n_signal, dists.signal) + rng.multinomial(
        n - n_signal, dists.background
    )
    return tuple(counts.tolist())


def chsh_reference(cfg, chsh, n, seed):
    """S and its standard error from one sample_coincidences call per CHSH term."""
    estimates = [
        estimate_correlator(sample_coincidences(cfg, a, b, n, seed, setting_index=i))
        for i, (a, b, _) in enumerate(chsh.terms())
    ]
    s_ref = sum(sign * est.e_hat for (_, _, sign), est in zip(chsh.terms(), estimates))
    return s_ref, math.sqrt(sum(est.stderr**2 for est in estimates))


def test_channel_distributions_are_normalized():
    cfg = make_config(fraction=0.3)
    dists = channel_distributions(cfg, A, B)
    assert abs(dists.signal.sum() - 1.0) < 1e-12
    assert abs(dists.background.sum() - 1.0) < 1e-12
    assert abs(dists.mixture().sum() - 1.0) < 1e-12
    assert 0.0 <= dists.p_signal_channel <= 1.0
    # f = 0.3 with equal unit channel rates
    assert dists.p_signal_channel == pytest.approx(0.3, abs=1e-12)


def test_forbidden_outcomes_are_exactly_zero():
    # aligned polarizers on a pure kind-1 pair: mismatched outcomes cannot occur
    cfg = make_config(fraction=1.0)
    axis = PolarizerAxis(0.45)
    dists = channel_distributions(cfg, axis, axis)
    assert dists.signal[1] == 0.0 and dists.signal[2] == 0.0
    assert dists.mixture()[1] == 0.0

    batch = sample_coincidences(cfg, axis, axis, 1_000_000, seed=5)
    assert batch.n_pm == 0 and batch.n_mp == 0
    assert batch.n_total == 1_000_000


def test_mixture_matches_the_analytic_correlator():
    rng = np.random.default_rng(71)
    for scenario in ("I", "II"):
        cfg = make_config(scenario=scenario, fraction=0.4, alpha1=0.8, alpha2=1.7,
                          axis1=0.3, axis2=1.0)
        for ta, tb in rng.uniform(0.0, math.pi, size=(20, 2)):
            a, b = PolarizerAxis(ta), PolarizerAxis(tb)
            p = channel_distributions(cfg, a, b).mixture()
            e = p[0] - p[1] - p[2] + p[3]
            assert abs(e - coincidence_correlator(cfg, a, b).e) < 1e-12


def test_sampling_is_deterministic_in_the_seed():
    cfg = make_config(fraction=0.3)
    b1 = sample_coincidences(cfg, A, B, 40_000, seed=9)
    b2 = sample_coincidences(cfg, A, B, 40_000, seed=9)
    assert (b1.n_pp, b1.n_pm, b1.n_mp, b1.n_mm) == (b2.n_pp, b2.n_pm, b2.n_mp, b2.n_mm)
    b3 = sample_coincidences(cfg, A, B, 40_000, seed=10)
    assert (b1.n_pp, b1.n_pm, b1.n_mp, b1.n_mm) != (b3.n_pp, b3.n_pm, b3.n_mp, b3.n_mm)
    b4 = sample_coincidences(cfg, A, B, 40_000, seed=9, setting_index=3)
    assert (b1.n_pp, b1.n_pm, b1.n_mp, b1.n_mm) != (b4.n_pp, b4.n_pm, b4.n_mp, b4.n_mm)
    assert b1.seed_record == "philox seed=9 setting=0"
    assert b1.settings == (A.angle, B.angle)


def test_sample_batch_validation_and_estimator():
    with pytest.raises(ValueError):
        SampleBatch(n_pp=-1, n_pm=0, n_mp=0, n_mm=0, settings=(0.0, 0.0), seed_record="")
    batch = SampleBatch(
        n_pp=250_000, n_pm=0, n_mp=0, n_mm=250_000, settings=(0.0, 0.0), seed_record="x"
    )
    est = estimate_correlator(batch)
    assert est.e_hat == 1.0 and est.stderr == 0.0 and est.n == 500_000

    flat = SampleBatch(
        n_pp=125_000, n_pm=125_000, n_mp=125_000, n_mm=125_000,
        settings=(0.0, 0.0), seed_record="x",
    )
    est = estimate_correlator(flat)
    assert est.e_hat == 0.0
    assert est.stderr == pytest.approx(math.sqrt(1.0 / 500_000), abs=1e-15)

    empty = SampleBatch(n_pp=0, n_pm=0, n_mp=0, n_mm=0, settings=(0.0, 0.0), seed_record="x")
    with pytest.raises(ValueError):
        estimate_correlator(empty)
    with pytest.raises(ValueError):
        sample_coincidences(make_config(), A, B, 0, seed=0)


def test_estimate_is_consistent_with_the_analytic_value():
    cfg = make_config(fraction=0.4)
    parts = coincidence_correlator(cfg, A, B)
    est = estimate_correlator(sample_coincidences(cfg, A, B, 100_000, seed=3))
    assert abs(est.e_hat - parts.e) < 4.0 * est.stderr


def test_estimator_coverage():
    # about 95 percent of seeds should land within two standard errors
    cfg = make_config(fraction=0.3)
    truth = coincidence_correlator(cfg, A, B).e
    hits = 0
    for seed in range(100):
        est = estimate_correlator(sample_coincidences(cfg, A, B, 10_000, seed=seed))
        if abs(est.e_hat - truth) <= 2.0 * est.stderr:
            hits += 1
    assert hits >= 88


def test_estimate_chsh_pure_signal():
    cfg = make_config(fraction=1.0)
    s_hat, stderr = estimate_chsh(cfg, ChshConfiguration.saturating(), 1_000_000, seed=7)
    assert stderr < 2e-3
    assert abs(s_hat - TSIRELSON_BOUND) < 4.0 * stderr


@pytest.mark.parametrize("cfg", [
    make_config(scenario="I", bell_kind=2, fraction=1.0, alpha1=2.0, axis1=0.4, w11=0.5),
    # masked cross legs leave no rate to a same-source pairing: K = 0
    make_config(scenario="II", fraction=0.4, w12=0.0, w21=0.0, w11=1.0),
], ids=["f=1", "zero-K"])
def test_a_background_of_zero_weight_reads_and_draws_as_pure_signal(cfg):
    assert cfg.model.w_background == 0.0
    pure = make_config(scenario=cfg.scenario, bell_kind=cfg.bell_kind, fraction=1.0)
    grid = np.linspace(0.0, math.pi, 6, endpoint=False)
    scan = angular_scan(cfg, grid, grid)
    # warnings are errors here, so no 0/0 went into these columns
    assert np.all(scan.e_background == 0.0)
    assert np.all(np.isfinite(scan.e))
    assert np.max(np.abs(scan.e - scan.e_signal)) <= 1e-15
    sampled = sample_scan(cfg, grid, grid, n_per_point=5_000, seed=3)
    assert np.array_equal(sampled.e, sample_scan(pure, grid, grid, n_per_point=5_000, seed=3).e)
    chsh = ChshConfiguration.saturating()
    assert estimate_chsh(cfg, chsh, 10_000, seed=4) == estimate_chsh(pure, chsh, 10_000, seed=4)


def test_sampling_error_shrinks_like_root_n():
    cfg = make_config(fraction=0.3)
    truth = coincidence_correlator(cfg, A, B).e
    sizes = (1_000, 10_000, 100_000)
    rms = []
    for n in sizes:
        devs = [
            estimate_correlator(sample_coincidences(cfg, A, B, n, seed=seed)).e_hat - truth
            for seed in range(120)
        ]
        rms.append(float(np.sqrt(np.mean(np.square(devs)))))
    slope = np.polyfit(np.log(sizes), np.log(rms), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_sample_scan_columns():
    cfg = make_config(fraction=0.3)
    grid = np.linspace(0.0, math.pi, 4, endpoint=False)
    scan = sample_scan(cfg, grid, grid, n_per_point=20_000, seed=1)
    analytic = [
        coincidence_correlator(cfg, PolarizerAxis(ta), PolarizerAxis(tb))
        for ta in grid
        for tb in grid
    ]
    assert len(scan) == 16
    for i, parts in enumerate(analytic):
        # decomposition columns stay analytic; the correlator column is sampled
        assert scan.e_signal[i] == parts.e_signal
        assert scan.e_background[i] == parts.e_background
        assert scan.w_signal[i] == parts.weight_signal
        assert scan.w_background[i] == parts.weight_background
        sigma = math.sqrt((1.0 - parts.e**2) / 20_000) + 1e-12
        assert abs(scan.e[i] - parts.e) < 5.0 * sigma

    again = sample_scan(cfg, grid, grid, n_per_point=20_000, seed=1)
    assert np.array_equal(scan.e, again.e)
    other = sample_scan(cfg, grid, grid, n_per_point=20_000, seed=2)
    assert not np.array_equal(scan.e, other.e)


def test_sample_scan_z_scores_are_standard_normal():
    # one grid-wide draw: each point's sampled correlator scatters about the
    # analytic one with its binomial standard error
    cfg = make_config(fraction=0.3)
    grid = np.linspace(0.0, math.pi, 64, endpoint=False)
    analytic = angular_scan(cfg, grid, grid).e
    scan = sample_scan(cfg, grid, grid, n_per_point=1000, seed=4)
    z = (scan.e - analytic) / np.sqrt((1.0 - analytic**2) / 1000)
    assert abs(np.mean(z)) < 0.1
    assert abs(np.std(z) - 1.0) < 0.1

    again = sample_scan(cfg, grid, grid, n_per_point=1000, seed=4)
    assert np.array_equal(scan.e, again.e)
    other = sample_scan(cfg, grid, grid, n_per_point=1000, seed=5)
    assert not np.array_equal(scan.e, other.e)


def test_channel_distributions_are_one_row_of_the_grid():
    rng = np.random.default_rng(72)
    for scenario in ("I", "II"):
        cfg = make_config(scenario=scenario, fraction=0.4, alpha1=0.8, alpha2=1.7,
                          axis1=0.3, axis2=1.0, w11=0.2)
        grid_a, grid_b = rng.uniform(0.0, math.pi, size=(2, 9))
        grid = cfg.model.distributions(grid_a, grid_b)
        assert grid.signal.shape == grid.background.shape == (81, 4)
        for i, (ta, tb) in enumerate((ta, tb) for ta in grid_a for tb in grid_b):
            point = channel_distributions(cfg, PolarizerAxis(ta), PolarizerAxis(tb))
            assert point.p_signal_channel == grid.p_signal_channel
            assert np.max(np.abs(point.signal - grid.signal[i])) <= 1e-15
            assert np.max(np.abs(point.background - grid.background[i])) <= 1e-15


def test_stream_key_validation():
    with pytest.raises(ValueError):
        _stream(-1, 0)
    with pytest.raises(ValueError):
        _stream(1 << 64, 0)
    with pytest.raises(ValueError):
        _stream(0, -1)
    with pytest.raises(ValueError):
        _stream(0, 1 << 64)
    cfg = make_config(fraction=0.3)
    with pytest.raises(ValueError, match="setting index"):
        sample_coincidences(cfg, A, B, 10, seed=0, setting_index=1 << 32)
    with pytest.raises(ValueError, match="sample size"):
        sample_coincidences(cfg, A, B, 1 << 63, seed=0)
    # setting i reads the stream keyed (seed, i << 32); no setting word is the scan word
    assert _SCAN_WORD & 0xFFFFFFFF
    batch = sample_coincidences(cfg, A, B, 1000, seed=6, setting_index=3)
    counts = fresh_philox_counts(cfg, A, B, 1000, seed=6, setting_index=3)
    assert (batch.n_pp, batch.n_pm, batch.n_mp, batch.n_mm) == counts


def test_chsh_terms_sample_as_single_settings():
    # estimate_chsh draws each term from one batched model evaluation; the
    # reference samples each term alone, so the sums must be equal bit for bit
    rng = np.random.default_rng(12)
    for trial in range(24):
        scenario = ("I", "II")[trial % 2]
        normalization = ("phase-only", "spherical")[trial // 2 % 2]
        geometry = random_geometry(rng) if scenario == "I" else far_field_geometry(split=4.0)
        cfg = make_config(scenario=scenario, bell_kind=1 + trial // 4 % 2,
                          fraction=float(rng.uniform(0.1, 0.9)),
                          alpha1=float(rng.uniform(0.0, 3.0)), alpha2=float(rng.uniform(0.0, 3.0)),
                          axis1=float(rng.uniform(0.0, math.pi)),
                          axis2=float(rng.uniform(0.0, math.pi)),
                          geometry=geometry, normalization=normalization, w11=0.2, w22=0.1)
        chsh = ChshConfiguration(*(PolarizerAxis(float(t)) for t in rng.uniform(-4.0, 4.0, 4)))
        n, seed = int(rng.integers(1, 10**12)), int(rng.integers(0, 2**63))
        assert estimate_chsh(cfg, chsh, n, seed) == chsh_reference(cfg, chsh, n, seed)


@pytest.mark.parametrize("seed, n", [
    (0, 10**9), ((1 << 64) - 1, 10**9), (3, MAX_SAMPLE_SIZE), ((1 << 64) - 1, MAX_SAMPLE_SIZE),
])
def test_chsh_streams_hold_at_the_key_and_size_limits(seed, n):
    # one re-keyed Philox per call draws what a new Philox per term draws
    cfg = make_config(scenario="II", fraction=0.4, alpha1=0.8, alpha2=1.7, axis1=0.3)
    chsh = ChshConfiguration.saturating()
    for i, (a, b, _) in enumerate(chsh.terms()):
        batch = sample_coincidences(cfg, a, b, n, seed, setting_index=i)
        counts = (batch.n_pp, batch.n_pm, batch.n_mp, batch.n_mm)
        assert counts == fresh_philox_counts(cfg, a, b, n, seed, i)
    assert estimate_chsh(cfg, chsh, n, seed) == chsh_reference(cfg, chsh, n, seed)


def test_back_to_back_chsh_calls_share_no_stream_state():
    cfg = make_config(scenario="I", fraction=0.3, w11=0.2)
    chsh = ChshConfiguration.saturating()
    alone = {seed: chsh_reference(cfg, chsh, 10**6, seed) for seed in (5, 6)}
    for order in ((5, 6), (6, 5)):
        assert {seed: estimate_chsh(cfg, chsh, 10**6, seed) for seed in order} == alone


@pytest.mark.parametrize("word", [0, 3 << 32, _SCAN_WORD, (1 << 64) - 1])
def test_a_used_philox_is_re_keyed_to_the_state_of_a_new_one(word):
    philox = np.random.Philox(0)
    used = np.random.Generator(philox)
    used.random(3, dtype=np.float32)  # leaves a spare 32-bit word and a part-read buffer
    assert philox.state["has_uint32"] == 1 and philox.state["buffer_pos"] != 4
    state = _stream((1 << 64) - 1, word, philox).bit_generator.state
    new = np.random.Philox(key=np.array([(1 << 64) - 1, word], dtype=np.uint64)).state
    for field in ("counter", "key"):
        assert np.array_equal(state["state"][field], new["state"][field])
    assert np.array_equal(state["buffer"], new["buffer"])
    assert [state[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == [
        new[k] for k in ("buffer_pos", "has_uint32", "uinteger")
    ]


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_an_out_of_range_chsh_seed_raises_before_any_draw(seed, monkeypatch):
    draws = []
    monkeypatch.setattr(montecarlo, "_draw", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="seed must be a uint64"):
        estimate_chsh(make_config(), ChshConfiguration.saturating(), 1000, seed)
    assert draws == []
