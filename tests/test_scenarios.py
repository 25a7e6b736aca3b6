import dataclasses
import math

import numpy as np
import pytest

from helpers import far_field_geometry, make_config, random_geometry, readme_config

from skybell import (
    TSIRELSON_BOUND,
    ChshConfiguration,
    DegenerateDesignError,
    PolarizerAxis,
    ScanResult,
    angular_scan,
    background_correlator,
    chsh_with_background,
    coincidence_correlator,
    effective_amplitudes,
    entangled_pair_weight,
    extract_signal,
    null_background_axes,
    path_amplitudes,
    polarizer_trace,
    projector_from_axis,
    scenario2_mask,
)
from skybell.background import correlation_tensor

GRID16 = np.linspace(0.0, math.pi, 16, endpoint=False)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(scenario="III")
    with pytest.raises(ValueError):
        make_config(bell_kind=0)
    # True == 1, but a boolean is no state kind
    with pytest.raises(ValueError, match="bell_kind"):
        dataclasses.replace(make_config(), bell_kind=True)
    with pytest.raises(ValueError):
        make_config(fraction=1.5)
    with pytest.raises(ValueError):
        make_config(normalization="bogus")


def test_effective_amplitudes_apply_the_scenario_mask():
    cfg2 = make_config(scenario="II")
    amps = effective_amplitudes(cfg2)
    assert amps.d2a == 0j and amps.d1b == 0j
    cfg1 = make_config(scenario="I")
    amps = effective_amplitudes(cfg1)
    assert amps.d2a != 0j and amps.d1b != 0j


def test_pure_signal_follows_the_cosine_law():
    rng = np.random.default_rng(61)
    for kind, sign in ((1, 1.0), (2, -1.0)):
        cfg = make_config(scenario="II", bell_kind=kind, fraction=1.0)
        for ta, tb in rng.uniform(0.0, math.pi, size=(50, 2)):
            parts = coincidence_correlator(cfg, PolarizerAxis(ta), PolarizerAxis(tb))
            assert abs(parts.e - sign * math.cos(2.0 * (ta - tb))) < 1e-12
            assert parts.weight_background == 0.0


@pytest.mark.parametrize("scenario, kind", [
    ("I", 1),
    pytest.param("I", 2, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the model weights the singlet by |a + b|^2 (ROADMAP item 15)")),
    ("II", 1),
    ("II", 2),
])
@pytest.mark.parametrize("where", ["readme", "random"])
def test_signal_weight_follows_the_pair_states_swap_sign(scenario, kind, where):
    # the swap leaves kind 1 as it is and flips the singlet's sign, so the
    # pair reaches (A, B) with weight |a + b|^2 or |a - b|^2 over its routes
    if where == "readme":
        readme = readme_config().experiment
        setups = [(readme.geometry, readme.propagator_normalization)]
    else:
        rng = np.random.default_rng(15)
        setups = [(random_geometry(rng), normalization)
                  for normalization in ("phase-only", "spherical") for _ in range(10)]
    sign = 1.0 if kind == 1 else -1.0
    for geometry, normalization in setups:
        cfg = make_config(scenario=scenario, bell_kind=kind, geometry=geometry,
                          normalization=normalization)
        a, b = effective_amplitudes(cfg).routes()
        assert cfg.model.w_signal == cfg.entangled_fraction * abs(a + sign * b) ** 2


def test_pure_background_is_the_separable_product():
    rng = np.random.default_rng(62)
    cfg = make_config(scenario="II", fraction=0.0, alpha1=2.0, alpha2=0.7, axis1=0.4, axis2=1.3)
    rho1, rho2 = cfg.background.densities()
    for ta, tb in rng.uniform(0.0, math.pi, size=(50, 2)):
        parts = coincidence_correlator(cfg, PolarizerAxis(ta), PolarizerAxis(tb))
        pta = polarizer_trace(projector_from_axis(PolarizerAxis(ta)), rho1)
        ptb = polarizer_trace(projector_from_axis(PolarizerAxis(tb)), rho2)
        assert abs(parts.e - pta * ptb) < 1e-12
        assert parts.weight_signal == 0.0


def test_mixture_decomposition_identity():
    rng = np.random.default_rng(63)
    for scenario in ("I", "II"):
        cfg = make_config(
            scenario=scenario,
            fraction=0.4,
            alpha1=1.2,
            alpha2=0.5,
            axis1=0.2,
            axis2=0.8,
            geometry=random_geometry(rng),
        )
        for ta, tb in rng.uniform(0.0, math.pi, size=(30, 2)):
            parts = coincidence_correlator(cfg, PolarizerAxis(ta), PolarizerAxis(tb))
            w = parts.weight_signal + parts.weight_background
            mix = (
                parts.weight_signal * parts.e_signal
                + parts.weight_background * parts.e_background
            ) / w
            assert abs(parts.e - mix) < 1e-12
            assert parts.weight_signal >= 0.0 and parts.weight_background >= 0.0


def test_mixture_weights_do_not_depend_on_the_settings():
    rng = np.random.default_rng(64)
    cfg = make_config(scenario="I", fraction=0.6, geometry=random_geometry(rng))
    ref = coincidence_correlator(cfg, PolarizerAxis(0.0), PolarizerAxis(0.0))
    for ta, tb in rng.uniform(0.0, math.pi, size=(20, 2)):
        parts = coincidence_correlator(cfg, PolarizerAxis(ta), PolarizerAxis(tb))
        assert abs(parts.weight_signal - ref.weight_signal) < 1e-12
        assert abs(parts.weight_background - ref.weight_background) < 1e-12


def test_balanced_mixture_at_a_background_null():
    # f = 0.5 with equal channel rates: E = (cos 2 delta + E_bg)/2, and at the
    # null polarizer angle the background drops out entirely
    cfg = make_config(scenario="II", fraction=0.5)
    null_a, _ = null_background_axes(cfg.background)
    for tb in np.linspace(0.0, math.pi, 9):
        parts = coincidence_correlator(cfg, PolarizerAxis(null_a), PolarizerAxis(tb))
        assert abs(parts.e_background) < 1e-12
        assert abs(parts.e - 0.5 * math.cos(2.0 * (null_a - tb))) < 1e-12


def test_scenario_two_masks_the_cross_legs():
    # scenario II reads the geometry's legs with the cross legs masked: its
    # correlator is the mixture built by hand from those masked legs
    rng = np.random.default_rng(65)
    geo = random_geometry(rng)
    cfg = make_config(scenario="II", fraction=0.3, geometry=geo)
    masked = scenario2_mask(path_amplitudes(geo))
    assert effective_amplitudes(cfg) == masked
    w_signal = 0.3 * entangled_pair_weight(masked)
    w_background = 0.7 * correlation_tensor(cfg.background, masked)[0, 0]
    for ta, tb in rng.uniform(0.0, math.pi, size=(25, 2)):
        a, b = PolarizerAxis(ta), PolarizerAxis(tb)
        e_background = background_correlator(cfg.background, masked, a, b)
        expected = (w_signal * math.cos(2.0 * (ta - tb)) + w_background * e_background) / (
            w_signal + w_background
        )
        native = coincidence_correlator(cfg, a, b)
        assert abs(native.e - expected) < 1e-12
        assert abs(native.e_background - e_background) < 1e-12


def test_correlator_is_invariant_under_global_rotation():
    rng = np.random.default_rng(66)
    geo = random_geometry(rng)
    for _ in range(50):
        base1, base2, ta, tb = rng.uniform(0.0, math.pi, size=4)
        delta = rng.uniform(-math.pi, math.pi)
        cfg = make_config(
            scenario=rng.choice(("I", "II")),
            fraction=0.35,
            alpha1=1.0,
            alpha2=2.0,
            axis1=base1,
            axis2=base2,
            geometry=geo,
        )
        rotated = make_config(
            scenario=cfg.scenario,
            fraction=0.35,
            alpha1=1.0,
            alpha2=2.0,
            axis1=base1 + delta,
            axis2=base2 + delta,
            geometry=geo,
        )
        e0 = coincidence_correlator(cfg, PolarizerAxis(ta), PolarizerAxis(tb)).e
        e1 = coincidence_correlator(
            rotated, PolarizerAxis(ta + delta), PolarizerAxis(tb + delta)
        ).e
        assert abs(e0 - e1) < 1e-12


def test_zero_weight_raises():
    cfg = make_config(scenario="II", fraction=0.0, w12=0.0, w21=0.0, w11=1.0, w22=1.0)
    # same-source pairings need both legs from one source; the mask kills them
    with pytest.raises(ValueError):
        coincidence_correlator(cfg, PolarizerAxis(0.0), PolarizerAxis(0.0))


def test_model_is_built_once_per_config_and_read_only():
    cfg = make_config()
    model = cfg.model
    assert cfg.model is model
    with pytest.raises(ValueError):
        model.k[0, 0] = 1.0
    with pytest.raises(ValueError):
        model.k_signal[1, 1] = -1.0
    # a replaced config is a new instance and builds its own model
    other = dataclasses.replace(cfg, entangled_fraction=0.6).model
    fresh = make_config(fraction=0.6).model
    assert other is not model
    assert (other.w_signal, other.w_background) == (fresh.w_signal, fresh.w_background)
    assert np.array_equal(other.k, fresh.k)


# ---------------------------------------------------------------- scans


def test_angular_scan_is_row_major():
    cfg = make_config()
    grid_a = [0.0, 0.5]
    grid_b = [0.1, 0.2, 0.3]
    scan = angular_scan(cfg, grid_a, grid_b)
    assert len(scan) == 6
    assert np.allclose(scan.theta_a, [0.0, 0.0, 0.0, 0.5, 0.5, 0.5])
    assert np.allclose(scan.theta_b, [0.1, 0.2, 0.3, 0.1, 0.2, 0.3])
    one = coincidence_correlator(cfg, PolarizerAxis(0.5), PolarizerAxis(0.2))
    assert scan.e[4] == pytest.approx(one.e, abs=1e-15)


def test_angular_scan_rejects_empty_grids():
    with pytest.raises(ValueError):
        angular_scan(make_config(), [], [0.0])


def test_scan_result_validation():
    z = np.zeros(3)
    with pytest.raises(ValueError):
        ScanResult(theta_a=z, theta_b=z, e=np.zeros(2), e_signal=z, e_background=z,
                   w_signal=z, w_background=z)
    with pytest.raises(ValueError):
        ScanResult(theta_a=z, theta_b=z, e=np.array([0.0, 0.0, 1.5]), e_signal=z,
                   e_background=z, w_signal=z, w_background=z)


@pytest.mark.parametrize("column", ["theta_a", "e", "w_background"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_scan_result_rejects_non_finite_values(column, value):
    cols = {name: np.zeros(3) for name in
            ("theta_a", "theta_b", "e", "e_signal", "e_background", "w_signal", "w_background")}
    cols[column][1] = value
    csv_column = {"e": "E"}.get(column, column)
    with pytest.raises(ValueError, match=f"^data row 2, column {csv_column}: non-finite value"):
        ScanResult(**cols)


def test_scan_result_names_the_first_non_finite_value_in_row_order():
    cols = {name: np.zeros(3) for name in
            ("theta_a", "theta_b", "e", "e_signal", "e_background", "w_signal", "w_background")}
    cols["w_background"][0] = math.nan
    cols["theta_a"][1] = math.inf
    with pytest.raises(ValueError, match=r"^data row 1, column w_background: non-finite value nan$"):
        ScanResult(**cols)


def test_null_background_axes():
    cfg = make_config(axis1=0.0, axis2=math.pi / 3)
    n1, n2 = null_background_axes(cfg.background)
    assert n1 == pytest.approx(math.pi / 4)
    assert n2 == pytest.approx(math.pi / 3 + math.pi / 4)
    # wrap around the half turn
    cfg = make_config(axis1=7.0 * math.pi / 8.0, axis2=0.0)
    n1, _ = null_background_axes(cfg.background)
    assert n1 == pytest.approx(math.pi / 8)


# ---------------------------------------------------------------- fitting


def test_extract_signal_recovers_a_noiseless_mixture():
    cfg = make_config(scenario="II", fraction=0.3)
    scan = angular_scan(cfg, GRID16, GRID16)
    report = extract_signal(scan, beta1=0.0, beta2=0.0)
    assert report.s_hat == pytest.approx(0.3, abs=1e-12)
    assert report.b_hat == pytest.approx(0.175, abs=1e-12)
    assert report.residual_rms < 1e-12
    assert report.bell_s == pytest.approx(0.3 * TSIRELSON_BOUND, abs=1e-12)
    assert not report.violates_bell


def test_extract_signal_pure_cases():
    scan = angular_scan(make_config(fraction=1.0), GRID16, GRID16)
    report = extract_signal(scan, beta1=0.0, beta2=0.0)
    assert report.s_hat == pytest.approx(1.0, abs=1e-12)
    assert report.b_hat == pytest.approx(0.0, abs=1e-12)
    assert report.violates_bell

    scan = angular_scan(make_config(fraction=0.0), GRID16, GRID16)
    report = extract_signal(scan, beta1=0.0, beta2=0.0)
    assert report.s_hat == pytest.approx(0.0, abs=1e-12)
    assert report.b_hat == pytest.approx(0.25, abs=1e-12)


def test_extract_signal_with_rotated_background_axes():
    beta1, beta2 = 0.35, 1.15
    cfg = make_config(scenario="II", fraction=0.45, axis1=beta1, axis2=beta2,
                      alpha1=2.0, alpha2=2.0)
    scan = angular_scan(cfg, GRID16, GRID16)
    report = extract_signal(scan, beta1=beta1, beta2=beta2)
    assert report.s_hat == pytest.approx(0.45, abs=1e-10)
    # p1 p2 = (2/3)^2
    assert report.b_hat == pytest.approx(0.55 * 4.0 / 9.0, abs=1e-10)
    assert report.residual_rms < 1e-10


def test_extract_signal_needs_four_distinct_settings():
    cfg = make_config()
    scan = angular_scan(cfg, [0.1], [0.2, 0.9, 0.2])
    with pytest.raises(ValueError):
        extract_signal(scan, beta1=0.0, beta2=0.0)


def test_extract_signal_counts_every_distinct_setting_it_lacks():
    scan = angular_scan(make_config(), [0.1], np.tile([0.2, 0.5, 0.9], 1000))
    assert len(scan) == 3000
    with pytest.raises(ValueError, match=r"at least 4 distinct .* got 3$"):
        extract_signal(scan, beta1=0.0, beta2=0.0)


def test_extract_signal_finds_a_fourth_setting_in_the_last_row():
    cfg = make_config(scenario="II", fraction=0.3)
    scan = angular_scan(cfg, [0.1], np.append(np.tile([0.2, 0.5, 0.9], 1000), 1.3))
    report = extract_signal(scan, beta1=0.0, beta2=0.0)
    assert report.s_hat == pytest.approx(0.3, abs=1e-10)


def test_extract_signal_refuses_a_nulled_background_column():
    # every theta_a sits at the background null, so the product basis column
    # is identically zero and the design matrix loses rank
    cfg = make_config(scenario="II", fraction=0.3)
    null_a, _ = null_background_axes(cfg.background)
    scan = angular_scan(cfg, [null_a], GRID16)
    with pytest.raises(DegenerateDesignError) as err:
        extract_signal(scan, beta1=0.0, beta2=0.0)
    assert err.value.second_singular_value < 1e-10
    assert "vanishes" in str(err.value)


def test_extract_signal_refuses_a_vanishing_signal_column():
    # theta_b = theta_a + 45 degrees on every row puts cos 2(theta_a - theta_b) at 0
    theta_a = np.array([0.1, 0.3, 0.5, 0.7])
    z = np.zeros(4)
    scan = ScanResult(theta_a=theta_a, theta_b=theta_a + math.pi / 4, e=z, e_signal=z,
                      e_background=z, w_signal=z, w_background=z)
    with pytest.raises(DegenerateDesignError) as err:
        extract_signal(scan, beta1=0.0, beta2=0.0)
    assert err.value.second_singular_value < 1e-10
    assert "signal basis cos 2(theta_a - theta_b) vanishes on this scan" in str(err.value)


def test_extract_signal_refuses_parallel_bases_in_scenario_one():
    # small source separation, unpolarized sources: the recorded background
    # correlator column is itself proportional to cos 2(ta - tb)
    cfg = make_config(
        scenario="I",
        fraction=0.3,
        alpha1=0.0,
        alpha2=0.0,
        geometry=far_field_geometry(split=1.0),
    )
    scan = angular_scan(cfg, GRID16, GRID16)
    ratio = np.cos(2.0 * (scan.theta_a - scan.theta_b))
    # sanity: the column really is parallel to the signal shape
    assert np.max(np.abs(scan.e_background - scan.e_background[0] * ratio)) < 1e-12
    with pytest.raises(DegenerateDesignError) as err:
        extract_signal(scan, beta1=0.0, beta2=0.0, background_basis="scan")
    assert err.value.second_singular_value < 1e-10
    assert "parallel" in str(err.value)


def test_extract_signal_scan_basis_works_when_not_degenerate():
    cfg = make_config(scenario="II", fraction=0.3)
    scan = angular_scan(cfg, GRID16, GRID16)
    report = extract_signal(scan, beta1=0.0, beta2=0.0, background_basis="scan")
    assert report.s_hat == pytest.approx(0.3, abs=1e-10)
    assert report.residual_rms < 1e-10


def test_extract_signal_rejects_unknown_basis():
    scan = angular_scan(make_config(), GRID16[:4], GRID16[:4])
    with pytest.raises(ValueError):
        extract_signal(scan, beta1=0.0, beta2=0.0, background_basis="fourier")


# ---------------------------------------------------------------- chsh


def test_chsh_with_background_limits():
    sat = ChshConfiguration.saturating()
    assert chsh_with_background(make_config(fraction=1.0), sat) == pytest.approx(
        TSIRELSON_BOUND, abs=1e-12
    )
    # unpolarized background contributes rate but no correlation, so S scales by f
    cfg = make_config(fraction=0.8, alpha1=0.0, alpha2=0.0)
    assert chsh_with_background(cfg, sat) == pytest.approx(0.8 * TSIRELSON_BOUND, abs=1e-12)
    cfg = make_config(fraction=1.0 / math.sqrt(2.0), alpha1=0.0, alpha2=0.0)
    assert chsh_with_background(cfg, sat) == pytest.approx(2.0, abs=1e-12)


def test_chsh_with_background_polarized_default():
    cfg = make_config(fraction=0.3)
    expected = 0.3 * TSIRELSON_BOUND + 0.7 * 0.25 * math.sqrt(2.0)
    assert chsh_with_background(cfg, ChshConfiguration.saturating()) == pytest.approx(
        expected, abs=1e-12
    )


def svd_optimal_chsh(t):
    """The maximum of S over linear polarizers for correlation tensor t, and its settings.

    S = u.T(v + v') + u'.T(v - v') with u, u', v, v' unit vectors
    (cos 2t, sin 2t); its maximum 2 sqrt(s1^2 + s2^2) takes v +- v' along
    the right singular vectors and u, u' along their images.
    """
    _, s, vt = np.linalg.svd(t)
    theta = math.atan2(s[1], s[0])
    v = math.cos(theta) * vt[0] + math.sin(theta) * vt[1]
    v_prime = math.cos(theta) * vt[0] - math.sin(theta) * vt[1]
    directions = (t @ vt[0], t @ vt[1], v, v_prime)
    axes = [PolarizerAxis(math.atan2(x[1], x[0]) / 2.0) for x in directions]
    return 2.0 * math.hypot(s[0], s[1]), ChshConfiguration(*axes)


@pytest.mark.parametrize("alpha, scenario, expected", [
    (1000.0, "I", 2.809),
    (1000.0, "II", 1.996),
    (10.0, "I", 2.155),
    (10.0, "II", 1.653),
])
def test_background_only_chsh_maximum(alpha, scenario, expected):
    # f = 0, the README geometry, orthogonal source axes.  Scenario I exceeds 2
    # with no entangled pair: each detector sees both sources, and the exchange
    # term post-selects a Bell-like state from two independent photons
    # (Shih & Alley 1988; Popescu, Hardy & Zukowski 1997).  That is physics,
    # not a witness of entanglement; with the cross legs masked it stays <= 2.
    cfg = make_config(scenario=scenario, fraction=0.0, alpha1=alpha, alpha2=alpha,
                      axis1=0.0, axis2=math.pi / 2.0)
    model = cfg.model
    s_max, optimal = svd_optimal_chsh(model.k[1:, 1:] / model.k[0, 0])
    assert round(s_max, 3) == expected
    assert chsh_with_background(cfg, optimal) == pytest.approx(s_max, abs=1e-12)
    assert (s_max > 2.0) == (scenario == "I")
