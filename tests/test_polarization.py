import math

import numpy as np
import pytest

from skybell import (
    TSIRELSON_BOUND,
    ChshConfiguration,
    PolarizerAxis,
    TwoPhotonPureState,
    axis_angle_between,
    bell_state,
    chsh_expectation,
    chsh_operator,
    chsh_operator_square,
    chsh_square_spectral_bound,
    correlator,
    joint_outcome_probability,
    outcome_projector,
    projector_from_axis,
    source_density,
)

RT2 = math.sqrt(2.0)


def random_pure_state(rng):
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TwoPhotonPureState(amp / np.linalg.norm(amp))


def helicity_product(h1, h2):
    """Product of two circular states, helicity +-1 mapping to (e1 +- i e2)/sqrt(2)."""
    r = 1.0 / RT2
    return TwoPhotonPureState(np.kron([r, h1 * 1j * r], [r, h2 * 1j * r]))


def outcome_probabilities(state, a, b):
    """[p(+,+), p(+,-), p(-,+), p(-,-)] of a pure state at settings (a, b)."""
    return np.array([
        joint_outcome_probability(state.density(), a, b, oa, ob)
        for oa, ob in ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
    ])


# ---------------------------------------------------------------- axes


def test_axis_angle_wraps_into_half_turn():
    assert PolarizerAxis(math.pi).angle == 0.0
    assert math.isclose(PolarizerAxis(-math.pi / 8).angle, 7 * math.pi / 8)
    rng = np.random.default_rng(11)
    for x in rng.uniform(-20.0, 20.0, size=300):
        axis = PolarizerAxis(x)
        assert 0.0 <= axis.angle < math.pi
        # adding a half turn reaches the same physical axis
        shifted = PolarizerAxis(x + math.pi)
        assert np.allclose(
            projector_from_axis(axis).m, projector_from_axis(shifted).m, atol=1e-12
        )


def test_axis_rejects_non_finite():
    with pytest.raises(ValueError):
        PolarizerAxis(math.nan)
    with pytest.raises(ValueError):
        PolarizerAxis(math.inf)


def test_axis_helpers():
    axis = PolarizerAxis(0.3)
    assert math.isclose(axis.perpendicular().angle, 0.3 + math.pi / 2)
    d = axis.direction()
    assert math.isclose(float(d @ d), 1.0)


def test_axis_angle_between_is_unsigned_and_capped():
    assert axis_angle_between(PolarizerAxis(0.0), PolarizerAxis(math.pi / 2)) == pytest.approx(
        math.pi / 2
    )
    # 0 and 7pi/8 are only pi/8 apart as lines
    assert axis_angle_between(PolarizerAxis(0.0), PolarizerAxis(7 * math.pi / 8)) == pytest.approx(
        math.pi / 8
    )
    rng = np.random.default_rng(12)
    for x, y in rng.uniform(0.0, math.pi, size=(200, 2)):
        d = axis_angle_between(PolarizerAxis(x), PolarizerAxis(y))
        assert 0.0 <= d <= math.pi / 2 + 1e-15


# ---------------------------------------------------------------- projectors


def test_projector_matrix_values():
    assert np.allclose(projector_from_axis(PolarizerAxis(0.0)).m, [[1, 0], [0, -1]])
    assert np.allclose(projector_from_axis(PolarizerAxis(math.pi / 4)).m, [[0, 1], [1, 0]])
    h = RT2 / 2.0
    assert np.allclose(
        projector_from_axis(PolarizerAxis(math.pi / 8)).m, [[h, h], [h, -h]], atol=1e-15
    )


def test_projector_algebraic_properties():
    rng = np.random.default_rng(13)
    for x in rng.uniform(0.0, math.pi, size=100):
        m = projector_from_axis(PolarizerAxis(x)).m
        assert np.allclose(m, m.T, atol=1e-12)
        assert abs(np.trace(m)) < 1e-12
        assert np.allclose(m @ m, np.eye(2), atol=1e-12)


def test_projector_eigenvectors_follow_the_axis():
    rng = np.random.default_rng(14)
    for x in rng.uniform(0.0, math.pi, size=50):
        axis = PolarizerAxis(x)
        m = projector_from_axis(axis).m
        assert np.allclose(m @ axis.direction(), axis.direction(), atol=1e-12)
        perp = axis.perpendicular().direction()
        assert np.allclose(m @ perp, -perp, atol=1e-12)


def test_outcome_projectors_are_rank1_and_complete():
    rng = np.random.default_rng(15)
    for x in rng.uniform(0.0, math.pi, size=50):
        axis = PolarizerAxis(x)
        plus = outcome_projector(axis, +1)
        minus = outcome_projector(axis, -1)
        assert np.allclose(plus + minus, np.eye(2), atol=1e-15)
        assert np.allclose(plus @ plus, plus, atol=1e-12)
        assert abs(np.trace(plus) - 1.0) < 1e-12
        assert np.allclose(plus @ minus, np.zeros((2, 2)), atol=1e-12)
    with pytest.raises(ValueError):
        outcome_projector(PolarizerAxis(0.0), 0)


# ---------------------------------------------------------------- pair states


def test_entangled_state_amplitudes():
    r = 1.0 / RT2
    assert np.allclose(bell_state(1).amp, [r, 0, 0, r])
    assert np.allclose(bell_state(2).amp, [0, r, -r, 0])
    assert abs(np.vdot(bell_state(1).amp, bell_state(2).amp)) < 1e-15
    with pytest.raises(ValueError):
        bell_state(3)


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        TwoPhotonPureState(np.array([1.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        TwoPhotonPureState(np.array([1.0, 0.0, 0.0]))


def test_helicity_product_amplitudes():
    st = helicity_product(+1, +1)
    assert np.allclose(st.amp, [0.5, 0.5j, 0.5j, -0.5])
    st = helicity_product(-1, +1)
    assert np.allclose(st.amp, [0.5, 0.5j, -0.5j, 0.5])


def test_helicity_products_have_zero_correlator_everywhere():
    rng = np.random.default_rng(16)
    for h1 in (+1, -1):
        for h2 in (+1, -1):
            st = helicity_product(h1, h2)
            for x, y in rng.uniform(0.0, math.pi, size=(40, 2)):
                e = correlator(st, PolarizerAxis(x), PolarizerAxis(y))
                assert abs(e) < 1e-12


# ---------------------------------------------------------------- correlators


def test_correlator_known_values():
    a0 = PolarizerAxis(0.0)
    assert correlator(bell_state(1), a0, a0) == pytest.approx(1.0, abs=1e-12)
    assert correlator(bell_state(2), a0, a0) == pytest.approx(-1.0, abs=1e-12)
    e = correlator(bell_state(1), a0, PolarizerAxis(math.pi / 8))
    assert e == pytest.approx(math.cos(math.pi / 4), abs=1e-12)


def test_correlator_follows_the_cosine_law():
    rng = np.random.default_rng(17)
    for kind, sign in ((1, 1.0), (2, -1.0)):
        st = bell_state(kind)
        for x, y in rng.uniform(-math.pi, math.pi, size=(200, 2)):
            e = correlator(st, PolarizerAxis(x), PolarizerAxis(y))
            assert abs(e - sign * math.cos(2.0 * (x - y))) < 1e-12


def test_correlator_is_bounded_for_any_state():
    rng = np.random.default_rng(18)
    for _ in range(200):
        st = random_pure_state(rng)
        x, y = rng.uniform(0.0, math.pi, size=2)
        e = correlator(st, PolarizerAxis(x), PolarizerAxis(y))
        assert -1.0 - 1e-12 <= e <= 1.0 + 1e-12


def test_outcome_distribution_sums_to_one_and_matches_correlator():
    rng = np.random.default_rng(19)
    for _ in range(100):
        st = random_pure_state(rng)
        a = PolarizerAxis(rng.uniform(0.0, math.pi))
        b = PolarizerAxis(rng.uniform(0.0, math.pi))
        p = outcome_probabilities(st, a, b)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) < 1e-12
        e = p[0] - p[1] - p[2] + p[3]
        assert abs(e - correlator(st, a, b)) < 1e-12


def test_aligned_entangled_pair_never_anticorrelates():
    p = outcome_probabilities(bell_state(1), PolarizerAxis(0.3), PolarizerAxis(0.3))
    assert p[1] == 0.0 and p[2] == 0.0
    assert p[0] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------- chsh


def test_chsh_saturating_settings():
    cfg = ChshConfiguration.saturating()
    assert chsh_expectation(bell_state(1), cfg) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
    assert chsh_expectation(bell_state(2), cfg) == pytest.approx(-TSIRELSON_BOUND, abs=1e-12)


def test_chsh_at_a_single_shared_axis_is_two():
    a = PolarizerAxis(0.7)
    cfg = ChshConfiguration(a=a, a_prime=a, b=a, b_prime=a)
    assert chsh_expectation(bell_state(1), cfg) == pytest.approx(2.0, abs=1e-12)


def test_chsh_operator_reproduces_the_sum():
    rng = np.random.default_rng(20)
    for _ in range(50):
        cfg = ChshConfiguration(
            a=PolarizerAxis(rng.uniform(0, math.pi)),
            a_prime=PolarizerAxis(rng.uniform(0, math.pi)),
            b=PolarizerAxis(rng.uniform(0, math.pi)),
            b_prime=PolarizerAxis(rng.uniform(0, math.pi)),
        )
        st = random_pure_state(rng)
        via_op = float(np.vdot(st.amp, chsh_operator(cfg) @ st.amp).real)
        assert abs(via_op - chsh_expectation(st, cfg)) < 1e-12


def test_chsh_square_identity_and_bound():
    # C^2 = 4 I - [A, A'] x [B, B'], eigenvalues 4 (1 +- s) twice each
    rng = np.random.default_rng(21)
    for _ in range(100):
        ta, tap, tb, tbp = rng.uniform(0, math.pi, size=4)
        cfg = ChshConfiguration(
            a=PolarizerAxis(ta),
            a_prime=PolarizerAxis(tap),
            b=PolarizerAxis(tb),
            b_prime=PolarizerAxis(tbp),
        )
        pa = projector_from_axis(cfg.a).m
        pap = projector_from_axis(cfg.a_prime).m
        pb = projector_from_axis(cfg.b).m
        pbp = projector_from_axis(cfg.b_prime).m
        comm_a = pa @ pap - pap @ pa
        comm_b = pb @ pbp - pbp @ pb
        expected = 4.0 * np.eye(4) - np.kron(comm_a, comm_b)
        sq = chsh_operator_square(cfg)
        assert np.max(np.abs(sq - expected)) < 1e-12
        eigs = np.linalg.eigvalsh(sq)
        assert abs(eigs[-1] - chsh_square_spectral_bound(cfg)) < 1e-12


def test_chsh_square_known_spectra():
    cfg = ChshConfiguration.saturating()
    assert chsh_square_spectral_bound(cfg) == pytest.approx(8.0, abs=1e-12)
    eigs = np.linalg.eigvalsh(chsh_operator_square(cfg))
    assert np.allclose(eigs, [0.0, 0.0, 8.0, 8.0], atol=1e-12)

    cfg = ChshConfiguration(
        a=PolarizerAxis(0.0),
        a_prime=PolarizerAxis(math.pi / 8),
        b=PolarizerAxis(0.0),
        b_prime=PolarizerAxis(math.pi / 8),
    )
    assert chsh_square_spectral_bound(cfg) == pytest.approx(6.0, abs=1e-12)
    eigs = np.linalg.eigvalsh(chsh_operator_square(cfg))
    assert np.allclose(eigs, [2.0, 2.0, 6.0, 6.0], atol=1e-12)


def test_chsh_never_exceeds_the_quantum_bound():
    rng = np.random.default_rng(22)
    for _ in range(500):
        cfg = ChshConfiguration(
            a=PolarizerAxis(rng.uniform(0, math.pi)),
            a_prime=PolarizerAxis(rng.uniform(0, math.pi)),
            b=PolarizerAxis(rng.uniform(0, math.pi)),
            b_prime=PolarizerAxis(rng.uniform(0, math.pi)),
        )
        st = random_pure_state(rng)
        assert abs(chsh_expectation(st, cfg)) <= TSIRELSON_BOUND + 1e-9


# ---------------------------------------------------------------- densities


def test_source_density_limits_and_eigenvalues():
    axis = PolarizerAxis(0.0)
    assert np.allclose(source_density(axis, 0.0).rho, np.eye(2) / 2.0, atol=1e-15)
    assert np.allclose(source_density(axis, 1.0).rho, [[0.75, 0.0], [0.0, 0.25]], atol=1e-15)
    # large excess approaches the pure state along the axis
    rho = source_density(axis, 1e12).rho
    assert np.allclose(rho, [[1.0, 0.0], [0.0, 0.0]], atol=1e-11)

    rng = np.random.default_rng(23)
    for _ in range(200):
        x = rng.uniform(0.0, math.pi)
        alpha = rng.uniform(0.0, 10.0)
        rho = source_density(PolarizerAxis(x), alpha).rho
        eigs = np.sort(np.linalg.eigvalsh(rho))
        lo = 1.0 / (2.0 + 2.0 * alpha)
        hi = (1.0 + 2.0 * alpha) / (2.0 + 2.0 * alpha)
        assert abs(eigs[0] - lo) < 1e-12 and abs(eigs[1] - hi) < 1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_source_density_degree_of_polarization():
    # the eigenvalue gap of rho is the degree of polarization alpha / (1 + alpha)
    for alpha, degree in ((0.0, 0.0), (1.0, 0.5), (3.0, 0.75)):
        lo, hi = np.linalg.eigvalsh(source_density(PolarizerAxis(0.2), alpha).rho)
        assert hi - lo == pytest.approx(degree, abs=1e-12)


def test_source_density_rejects_bad_alpha():
    with pytest.raises(ValueError):
        source_density(PolarizerAxis(0.0), -0.1)
    with pytest.raises(ValueError):
        source_density(PolarizerAxis(0.0), math.inf)


def test_joint_outcome_probability_basics():
    a0 = PolarizerAxis(0.0)
    rho_bell = bell_state(1).density()
    assert joint_outcome_probability(rho_bell, a0, a0, +1, +1) == pytest.approx(0.5, abs=1e-12)
    assert joint_outcome_probability(rho_bell, a0, a0, +1, -1) == pytest.approx(0.0, abs=1e-12)

    mixed = np.eye(4, dtype=complex) / 4.0
    for oa in (+1, -1):
        for ob in (+1, -1):
            p = joint_outcome_probability(mixed, a0, PolarizerAxis(0.4), oa, ob)
            assert p == pytest.approx(0.25, abs=1e-12)


def test_joint_outcome_probability_completeness():
    rng = np.random.default_rng(24)
    for _ in range(50):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        a = PolarizerAxis(rng.uniform(0, math.pi))
        b = PolarizerAxis(rng.uniform(0, math.pi))
        total = sum(
            joint_outcome_probability(rho, a, b, oa, ob)
            for oa in (+1, -1)
            for ob in (+1, -1)
        )
        assert abs(total - 1.0) < 1e-10


def test_joint_outcome_probability_rejects_invalid_matrices():
    a0 = PolarizerAxis(0.0)
    bad_herm = np.array(np.eye(4), dtype=complex)
    bad_herm[0, 1] = 0.5
    with pytest.raises(ValueError):
        joint_outcome_probability(bad_herm / 4.0, a0, a0, +1, +1)
    with pytest.raises(ValueError):
        joint_outcome_probability(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), a0, a0, +1, +1)
    with pytest.raises(ValueError):
        joint_outcome_probability(np.eye(4, dtype=complex) / 2.0, a0, a0, +1, +1)
