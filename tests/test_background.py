import math

import numpy as np
import pytest

from helpers import outcome_rates, random_geometry

from skybell import (
    BackgroundSpec,
    PolarizerAxis,
    PathAmplitudeSet,
    background_correlator,
    effective_density_matrix,
    interference_trace,
    path_amplitudes,
    polarizer_trace,
    projector_from_axis,
    scenario2_mask,
    source_density,
)
from skybell.background import OUTCOME_PAIRS, correlation_tensor
from skybell.polarization import outcome_projector

UNIT_AMPS = PathAmplitudeSet(d1a=1.0, d2a=1.0, d1b=1.0, d2b=1.0)
MASKED_UNIT = scenario2_mask(UNIT_AMPS)


def random_amps(rng):
    vals = rng.normal(size=4) + 1j * rng.normal(size=4)
    return PathAmplitudeSet(d1a=vals[0], d2a=vals[1], d1b=vals[2], d2b=vals[3])


def rates_at(spec, amps, a, b):
    """The four OUTCOME_PAIRS rates at polarizers a, b, read off the tensor K."""
    return outcome_rates(correlation_tensor(spec, amps), a.angle, b.angle)


def signed_rate(spec, amps, a, b):
    """Sum of oa * ob times the (oa, ob) outcome rate."""
    return sum(oa * ob * r for (oa, ob), r in zip(OUTCOME_PAIRS, rates_at(spec, amps, a, b)))


def make_spec(alpha1=1.0, alpha2=1.0, axis1=0.0, axis2=0.0, **weights):
    return BackgroundSpec(
        axis1=PolarizerAxis(axis1),
        axis2=PolarizerAxis(axis2),
        alpha1=alpha1,
        alpha2=alpha2,
        **weights,
    )


# ---------------------------------------------------------------- spec


def test_weights_are_renormalized():
    spec = make_spec(w12=2.0, w21=2.0, w11=4.0, w22=0.0)
    assert spec.w12 == pytest.approx(0.25)
    assert spec.w21 == pytest.approx(0.25)
    assert spec.w11 == pytest.approx(0.5)
    assert spec.w22 == 0.0
    assert sum(w for w, _, _ in spec.pairings()) == pytest.approx(1.0, abs=1e-15)


def test_spec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_spec(alpha1=-0.5)
    with pytest.raises(ValueError):
        make_spec(alpha2=1e308)
    with pytest.raises(ValueError):
        make_spec(w12=-1.0)
    with pytest.raises(ValueError):
        make_spec(w12=0.0, w21=0.0, w11=0.0, w22=0.0)
    with pytest.raises(ValueError, match="finite sum"):
        make_spec(w12=1e308, w21=1e308)


# ---------------------------------------------------------------- traces


def test_polarizer_trace_examples():
    rho = source_density(PolarizerAxis(0.0), 1.0)
    p0 = projector_from_axis(PolarizerAxis(0.0))
    assert polarizer_trace(p0, rho) == pytest.approx(0.5, abs=1e-15)
    # probe at 45 degrees to the polarization axis sees nothing
    p45 = projector_from_axis(PolarizerAxis(math.pi / 4))
    assert abs(polarizer_trace(p45, rho)) < 1e-12
    # unpolarized source sees nothing anywhere
    flat = source_density(PolarizerAxis(1.2), 0.0)
    assert abs(polarizer_trace(p0, flat)) < 1e-15


def test_polarizer_trace_matches_matrix_arithmetic():
    rng = np.random.default_rng(41)
    for _ in range(300):
        tp = rng.uniform(0.0, math.pi)
        tn = rng.uniform(0.0, math.pi)
        alpha = rng.uniform(0.0, 8.0)
        p = projector_from_axis(PolarizerAxis(tp))
        rho = source_density(PolarizerAxis(tn), alpha)
        direct = float(np.trace(p.m @ rho.rho).real)
        assert abs(polarizer_trace(p, rho) - direct) < 1e-12
        assert abs(polarizer_trace(p, rho)) < 1.0


def test_interference_trace_closed_form():
    # Tr(P_A rho1 P_B rho2) = cos 2(tA - tB)/2
    #                         + (p1 p2 / 2) cos 2(tA + tB - n1 - n2)
    # with p_i = alpha_i / (1 + alpha_i); exactly real for this family.
    rng = np.random.default_rng(42)
    for _ in range(300):
        ta, tb, n1, n2 = rng.uniform(0.0, math.pi, size=4)
        a1, a2 = rng.uniform(0.0, 6.0, size=2)
        val = interference_trace(
            projector_from_axis(PolarizerAxis(ta)),
            source_density(PolarizerAxis(n1), a1),
            projector_from_axis(PolarizerAxis(tb)),
            source_density(PolarizerAxis(n2), a2),
        )
        p1 = a1 / (1.0 + a1)
        p2 = a2 / (1.0 + a2)
        expected = 0.5 * math.cos(2.0 * (ta - tb)) + 0.5 * p1 * p2 * math.cos(
            2.0 * (ta + tb - n1 - n2)
        )
        assert abs(val.real - expected) < 1e-12
        assert abs(val.imag) < 1e-12


def test_interference_trace_swap_conjugates():
    pa = projector_from_axis(PolarizerAxis(0.3))
    pb = projector_from_axis(PolarizerAxis(1.0))
    r1 = source_density(PolarizerAxis(0.1), 2.0)
    r2 = source_density(PolarizerAxis(0.9), 0.7)
    assert interference_trace(pa, r1, pb, r2) == pytest.approx(
        np.conj(interference_trace(pa, r2, pb, r1)), abs=1e-14
    )


def test_interference_trace_weak_polarization_bound():
    # deviation from the unpolarized value is O(alpha1 * alpha2)
    rng = np.random.default_rng(43)
    for _ in range(100):
        ta, tb, n1, n2 = rng.uniform(0.0, math.pi, size=4)
        a1, a2 = rng.uniform(0.0, 0.1, size=2)
        val = interference_trace(
            projector_from_axis(PolarizerAxis(ta)),
            source_density(PolarizerAxis(n1), a1),
            projector_from_axis(PolarizerAxis(tb)),
            source_density(PolarizerAxis(n2), a2),
        )
        assert abs(val.real - 0.5 * math.cos(2.0 * (ta - tb))) <= 0.5 * a1 * a2 + 1e-15


# ---------------------------------------------------------------- rates


def test_masked_rate_is_a_separable_product():
    # with only the direct 1->A, 2->B route alive the signed rate factorizes
    rng = np.random.default_rng(44)
    for _ in range(100):
        spec = make_spec(
            alpha1=rng.uniform(0.0, 4.0),
            alpha2=rng.uniform(0.0, 4.0),
            axis1=rng.uniform(0.0, math.pi),
            axis2=rng.uniform(0.0, math.pi),
        )
        a = PolarizerAxis(rng.uniform(0.0, math.pi))
        b = PolarizerAxis(rng.uniform(0.0, math.pi))
        rho1, rho2 = spec.densities()
        pta = polarizer_trace(projector_from_axis(a), rho1)
        ptb = polarizer_trace(projector_from_axis(b), rho2)
        signed = signed_rate(spec, MASKED_UNIT, a, b)
        assert abs(signed - pta * ptb) < 1e-12
        assert abs(background_correlator(spec, MASKED_UNIT, a, b) - pta * ptb) < 1e-12


def test_unpolarized_masked_background_is_flat_zero():
    spec = make_spec(alpha1=0.0, alpha2=0.0)
    for ta in np.linspace(0.0, math.pi, 7):
        for tb in np.linspace(0.0, math.pi, 7):
            e = background_correlator(spec, MASKED_UNIT, PolarizerAxis(ta), PolarizerAxis(tb))
            assert abs(e) < 1e-12


def test_unmasked_unpolarized_background_tracks_the_signal_shape():
    # all four legs live, alpha = 0: only the interference survives, and it
    # carries exactly the entangled cos 2(ta - tb) dependence
    rng = np.random.default_rng(45)
    spec = make_spec(alpha1=0.0, alpha2=0.0)
    amps = path_amplitudes(random_geometry(rng))
    ref = background_correlator(spec, amps, PolarizerAxis(0.0), PolarizerAxis(0.0))
    assert abs(ref) > 1e-3  # geometry chosen so the loop term is alive
    for _ in range(50):
        ta, tb = rng.uniform(0.0, math.pi, size=2)
        e = background_correlator(spec, amps, PolarizerAxis(ta), PolarizerAxis(tb))
        assert abs(e - ref * math.cos(2.0 * (ta - tb))) < 1e-12


def test_outcome_rates_are_nonnegative_and_sum_to_total():
    rng = np.random.default_rng(46)
    for _ in range(100):
        spec = make_spec(
            alpha1=rng.uniform(0.0, 5.0),
            alpha2=rng.uniform(0.0, 5.0),
            axis1=rng.uniform(0.0, math.pi),
            axis2=rng.uniform(0.0, math.pi),
            w12=rng.uniform(0.0, 1.0),
            w21=rng.uniform(0.0, 1.0),
            w11=rng.uniform(0.0, 1.0),
            w22=rng.uniform(0.1, 1.0),
        )
        amps = random_amps(rng)
        a = PolarizerAxis(rng.uniform(0.0, math.pi))
        b = PolarizerAxis(rng.uniform(0.0, math.pi))
        rates = rates_at(spec, amps, a, b)
        assert min(rates) >= 0.0
        assert sum(rates) == pytest.approx(correlation_tensor(spec, amps)[0, 0], abs=1e-12)


def test_signed_rate_equals_outcome_rate_combination():
    rng = np.random.default_rng(47)
    for _ in range(50):
        spec = make_spec(
            alpha1=rng.uniform(0.0, 3.0),
            alpha2=rng.uniform(0.0, 3.0),
            axis1=rng.uniform(0.0, math.pi),
            axis2=rng.uniform(0.0, math.pi),
            w11=rng.uniform(0.0, 0.5),
            w22=rng.uniform(0.0, 0.5),
        )
        amps = random_amps(rng)
        a = PolarizerAxis(rng.uniform(0.0, math.pi))
        b = PolarizerAxis(rng.uniform(0.0, math.pi))
        signed = signed_rate(spec, amps, a, b)
        total = correlation_tensor(spec, amps)[0, 0]
        assert abs(signed - total * background_correlator(spec, amps, a, b)) < 1e-12


def test_signed_rate_goes_negative_at_crossed_settings():
    # strongly polarized sources seen through crossed polarizers anticorrelate;
    # the signed rate is negative there while every outcome rate stays >= 0
    spec = make_spec(alpha1=10.0, alpha2=10.0)
    a = PolarizerAxis(0.0)
    b = PolarizerAxis(math.pi / 2)
    # unit masked legs give unit total rate, so the correlator is the signed rate
    assert background_correlator(spec, MASKED_UNIT, a, b) < -0.5
    assert min(rates_at(spec, MASKED_UNIT, a, b)) >= 0.0


def test_masked_total_rate_is_one_for_unit_legs():
    spec = make_spec(alpha1=2.0, alpha2=0.3)
    assert correlation_tensor(spec, MASKED_UNIT)[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_total_rate_ignores_polarizer_settings():
    rng = np.random.default_rng(48)
    spec = make_spec(alpha1=1.5, alpha2=0.4, axis1=0.3, axis2=1.2, w11=0.2, w22=0.1)
    amps = random_amps(rng)
    total = correlation_tensor(spec, amps)[0, 0]
    for _ in range(20):
        a = PolarizerAxis(rng.uniform(0.0, math.pi))
        b = PolarizerAxis(rng.uniform(0.0, math.pi))
        assert abs(sum(rates_at(spec, amps, a, b)) - total) < 1e-12


def test_correlator_needs_a_nonzero_total_rate():
    spec = make_spec(w12=0.0, w21=0.0, w11=1.0, w22=0.0)
    # same-source pairing (1,1) needs both a d1a and a d1b leg; mask kills d1b
    dead = PathAmplitudeSet(d1a=1.0, d2a=0.0, d1b=0.0, d2b=1.0)
    assert correlation_tensor(spec, dead)[0, 0] == 0.0
    with pytest.raises(ValueError):
        background_correlator(spec, dead, PolarizerAxis(0.0), PolarizerAxis(0.0))


@pytest.mark.parametrize("leg", [1e80, 1e154], ids=["square", "sum"])
def test_a_route_rate_out_of_range_raises_overflow(leg):
    # legs of 1e80 make routes of 1e160, whose square overflows; legs of
    # 1e154 make finite routes of 1e308, but a + b is infinite and would meet
    # the zeros of Q (two sources on one axis) as inf * 0
    amps = PathAmplitudeSet(d1a=leg, d2a=leg, d1b=leg, d2b=leg)
    with pytest.raises(OverflowError):
        correlation_tensor(make_spec(), amps)


def test_correlator_stays_in_bounds():
    rng = np.random.default_rng(49)
    for _ in range(100):
        spec = make_spec(
            alpha1=rng.uniform(0.0, 6.0),
            alpha2=rng.uniform(0.0, 6.0),
            axis1=rng.uniform(0.0, math.pi),
            axis2=rng.uniform(0.0, math.pi),
            w11=rng.uniform(0.0, 0.3),
            w22=rng.uniform(0.0, 0.3),
        )
        amps = random_amps(rng)
        if correlation_tensor(spec, amps)[0, 0] < 1e-9:
            continue
        a = PolarizerAxis(rng.uniform(0.0, math.pi))
        b = PolarizerAxis(rng.uniform(0.0, math.pi))
        e = background_correlator(spec, amps, a, b)
        assert -1.0 - 1e-10 <= e <= 1.0 + 1e-10


# ---------------------------------------------------------------- density route


def four_term_rate(spec, amps, ma, mb):
    """The weighted pairing rate written out term by term, without rho_eff."""
    rhos = [rho.rho for rho in spec.densities()]
    d = ((amps.d1a, amps.d1b), (amps.d2a, amps.d2b))
    total = 0.0
    for w, i, j in spec.pairings():
        dia, dib = d[i]
        dja, djb = d[j]
        direct = np.trace(ma @ rhos[i]).real * np.trace(mb @ rhos[j]).real * abs(dia * djb) ** 2
        swapped = np.trace(ma @ rhos[j]).real * np.trace(mb @ rhos[i]).real * abs(dja * dib) ** 2
        cross = np.trace(ma @ rhos[i] @ mb @ rhos[j]) * dia * djb * np.conj(dja * dib)
        total += w * (direct + swapped + 2.0 * cross.real)
    return total


def test_effective_density_matrix_reproduces_rates():
    rng = np.random.default_rng(50)
    for _ in range(50):
        spec = make_spec(
            alpha1=rng.uniform(0.0, 4.0),
            alpha2=rng.uniform(0.0, 4.0),
            axis1=rng.uniform(0.0, math.pi),
            axis2=rng.uniform(0.0, math.pi),
            w11=rng.uniform(0.0, 0.4),
            w22=rng.uniform(0.0, 0.4),
        )
        amps = random_amps(rng)
        m = effective_density_matrix(spec, amps)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        total = four_term_rate(spec, amps, np.eye(2), np.eye(2))
        assert abs(float(np.trace(m).real) - total) < 1e-12
        assert abs(correlation_tensor(spec, amps)[0, 0] - total) < 1e-12
        assert float(np.linalg.eigvalsh(m).min()) > -1e-10

        a = PolarizerAxis(rng.uniform(0.0, math.pi))
        b = PolarizerAxis(rng.uniform(0.0, math.pi))
        for (oa, ob), rate in zip(OUTCOME_PAIRS, rates_at(spec, amps, a, b)):
            ma, mb = outcome_projector(a, oa), outcome_projector(b, ob)
            expected = four_term_rate(spec, amps, ma, mb)
            assert abs(float(np.trace(np.kron(ma, mb) @ m).real) - expected) < 1e-12
            assert abs(rate - expected) < 1e-12


def test_masked_effective_density_is_the_tensor_product():
    spec = make_spec(alpha1=1.0, alpha2=3.0, axis1=0.2, axis2=1.1)
    rho1, rho2 = spec.densities()
    m = effective_density_matrix(spec, MASKED_UNIT)
    assert np.max(np.abs(m - np.kron(rho1.rho, rho2.rho))) < 1e-12
