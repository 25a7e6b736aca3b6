import cmath
import math

import numpy as np
import pytest

from helpers import far_field_geometry, random_geometry

from skybell import (
    ConfigError,
    Geometry,
    PathAmplitudeSet,
    bell_state,
    correlator,
    PolarizerAxis,
    TwoPhotonPureState,
    entangled_pair_weight,
    hbt_intensity,
    path_amplitudes,
    propagate_pair,
    scenario2_mask,
)
from skybell.propagation import hbt_scan


def per_row_hbt(geo, detector_b, phi1, phi2, normalization):
    """Reference for hbt_scan: one Geometry and one amplitude set per row."""
    rows = []
    for b, p1, p2 in zip(detector_b, phi1, phi2):
        g = Geometry(
            source1=geo.source1, source2=geo.source2, detector_a=geo.detector_a,
            detector_b=b, wavenumber=geo.wavenumber,
        )
        amps = path_amplitudes(g, phi1=p1, phi2=p2, normalization=normalization)
        rows.append(hbt_intensity(amps))
    return np.array(rows)


def loop(amps):
    """a conj(b) over the two routes: the closed four-leg loop."""
    a, b = amps.routes()
    return a * np.conj(b)


def test_geometry_path_lengths():
    # 3-4-5 triangles on purpose
    geo = Geometry(
        source1=np.array([0.0, 0.0, 3.0]),
        source2=np.array([4.0, 0.0, 3.0]),
        detector_a=np.array([0.0, 0.0, 0.0]),
        detector_b=np.array([4.0, 0.0, 0.0]),
        wavenumber=1.0,
    )
    assert np.allclose(geo.path_lengths(), (3.0, 5.0, 5.0, 3.0))


def test_geometry_validation():
    p = np.zeros(3)
    with pytest.raises(ValueError):
        Geometry(source1=p, source2=[1, 0, 0], detector_a=p, detector_b=[0, 1, 0], wavenumber=1.0)
    with pytest.raises(ValueError):
        Geometry(
            source1=[0, 0, 5], source2=[1, 0, 5], detector_a=p, detector_b=[0, 1, 0],
            wavenumber=0.0,
        )
    with pytest.raises(ValueError):
        Geometry(
            source1=[0, 0, 5], source2=[1, 0, 5], detector_a=p, detector_b=[0, 1], wavenumber=1.0
        )
    with pytest.raises(ValueError, match="^source1 must be finite$"):
        Geometry(
            source1=[math.nan, 0, 5], source2=[1, 0, 5], detector_a=p, detector_b=[0, 1, 0],
            wavenumber=1.0,
        )


def test_hbt_scan_moves_only_detector_b():
    # detector B moves along the line from A through the geometry's own B, however
    # far off that sits; the sources, detector A and k are untouched
    geo = far_field_geometry()
    further = Geometry(
        source1=geo.source1, source2=geo.source2, detector_a=geo.detector_a,
        detector_b=[50.0, 0.0, 0.0], wavenumber=geo.wavenumber,
    )
    rows = np.array([geo.detector_b, [3.0, 0.0, 0.0]])
    for norm in ("phase-only", "spherical"):
        ref = per_row_hbt(geo, rows, (0.0, 0.0), (0.0, 0.0), norm)
        scale = ref[:, 0] - ref[:, 1]
        for g in (geo, further):
            scan = hbt_scan(g, [2.0, 4.0], normalization=norm)
            assert scan.total.shape == scan.interference.shape == (2,)
            assert np.all(np.abs(scan.total - ref[:, 0]) <= 1e-12 * scale)
            assert np.all(np.abs(scan.interference - ref[:, 1]) <= 1e-12 * scale)


@pytest.mark.parametrize("norm", ["phase-only", "spherical"])
@pytest.mark.parametrize("random_phases", [False, True])
def test_hbt_scan_matches_per_row_reference(norm, random_phases):
    rng = np.random.default_rng(41)
    geo = random_geometry(rng)
    direction = (geo.detector_b - geo.detector_a) / math.dist(geo.detector_b, geo.detector_a)
    lengths = np.linspace(0.0, 20.0, 201)
    detector_b = geo.detector_a + lengths[:, None] * direction
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(201, 2)) if random_phases else np.zeros((201, 2))
    scan = hbt_scan(geo, lengths, phi1=phases[:, 0], phi2=phases[:, 1], normalization=norm)
    ref = per_row_hbt(geo, detector_b, phases[:, 0], phases[:, 1], norm)
    # relative to the row's scale: the interference term crosses zero
    scale = ref[:, 0] - ref[:, 1]
    assert np.all(scale > 0.0)
    assert np.all(np.abs(scan.total - ref[:, 0]) <= 1e-12 * scale)
    assert np.all(np.abs(scan.interference - ref[:, 1]) <= 1e-12 * scale)


def test_hbt_scan_names_a_coincident_leg():
    # source 2 sits on the baseline, 3 from detector A
    geo = Geometry(source1=[0.0, 0.0, 10.0], source2=[3.0, 0.0, 0.0], detector_a=[0.0, 0.0, 0.0],
                   detector_b=[1.0, 0.0, 0.0], wavenumber=1.0)
    with pytest.raises(ValueError, match="2->B"):
        hbt_scan(geo, [0.0, 3.0])


def test_hbt_scan_of_no_baselines_is_empty():
    scan = hbt_scan(far_field_geometry(), np.zeros(0))
    assert scan.total.shape == scan.interference.shape == (0,)


def test_hbt_scan_refuses_coincident_detectors():
    geo = far_field_geometry(baseline=0.0)
    with pytest.raises(ConfigError, match="geometry.detector_a, geometry.detector_b: must differ"):
        hbt_scan(geo, [1.0])


def test_path_amplitudes_phase_only():
    geo = far_field_geometry()
    amps = path_amplitudes(geo, phi1=0.4, phi2=-1.1)
    r1a, r2a, r1b, r2b = geo.path_lengths()
    k = geo.wavenumber
    assert cmath.isclose(amps.d1a, cmath.exp(1j * (k * r1a + 0.4)), abs_tol=1e-12)
    assert cmath.isclose(amps.d2a, cmath.exp(1j * (k * r2a - 1.1)), abs_tol=1e-12)
    assert cmath.isclose(amps.d1b, cmath.exp(1j * (k * r1b + 0.4)), abs_tol=1e-12)
    for d in (amps.d1a, amps.d2a, amps.d1b, amps.d2b):
        assert abs(abs(d) - 1.0) < 1e-12


def test_path_amplitudes_spherical_falloff():
    geo = far_field_geometry()
    amps = path_amplitudes(geo, normalization="spherical")
    r1a, r2a, r1b, r2b = geo.path_lengths()
    assert abs(abs(amps.d1a) - 1.0 / r1a) < 1e-12
    assert abs(abs(amps.d2b) - 1.0 / r2b) < 1e-12
    with pytest.raises(ValueError):
        path_amplitudes(geo, normalization="cylindrical")


def test_amplitude_set_rejects_non_finite():
    with pytest.raises(ValueError):
        PathAmplitudeSet(d1a=complex("nan"), d2a=1.0, d1b=1.0, d2b=1.0)


def test_loop_product_cancels_source_phases():
    geo = far_field_geometry()
    ref = loop(path_amplitudes(geo))
    rng = np.random.default_rng(31)
    for phi1, phi2 in rng.uniform(0.0, 2.0 * math.pi, size=(100, 2)):
        got = loop(path_amplitudes(geo, phi1=phi1, phi2=phi2))
        assert abs(got - ref) < 1e-12


def test_routes_pair_each_source_with_each_detector():
    amps = PathAmplitudeSet(d1a=2.0, d2a=3.0, d1b=5.0, d2b=7.0)
    assert amps.routes() == amps.routes(0, 1) == (2.0 * 7.0, 3.0 * 5.0)
    assert amps.routes(1, 0) == (3.0 * 5.0, 2.0 * 7.0)
    assert amps.routes(0, 0) == (2.0 * 5.0, 2.0 * 5.0)
    assert amps.routes(1, 1) == (3.0 * 7.0, 3.0 * 7.0)


def test_hbt_intensity_identities():
    ones = PathAmplitudeSet(d1a=1.0, d2a=1.0, d1b=1.0, d2b=1.0)
    assert hbt_intensity(ones) == pytest.approx((4.0, 2.0), abs=1e-15)

    # a quarter-turn loop phase kills the interference term
    quarter = PathAmplitudeSet(d1a=cmath.exp(1j * math.pi / 2), d2a=1.0, d1b=1.0, d2b=1.0)
    total, interference = hbt_intensity(quarter)
    assert abs(interference) < 1e-12
    assert total == pytest.approx(2.0, abs=1e-12)

    # a half-turn loop phase cancels the coincidence rate entirely
    opposite = PathAmplitudeSet(d1a=-1.0, d2a=1.0, d1b=1.0, d2b=1.0)
    assert hbt_intensity(opposite).total == pytest.approx(0.0, abs=1e-12)


def test_hbt_observables_are_phase_invariant():
    rng = np.random.default_rng(32)
    for norm in ("phase-only", "spherical"):
        geo = random_geometry(rng)
        ref = hbt_intensity(path_amplitudes(geo, normalization=norm))
        for phi1, phi2 in rng.uniform(0.0, 2.0 * math.pi, size=(40, 2)):
            got = hbt_intensity(path_amplitudes(geo, phi1=phi1, phi2=phi2, normalization=norm))
            assert abs(got.total - ref.total) < 1e-12
            assert abs(got.interference - ref.interference) < 1e-12


def test_fringe_spacing_matches_far_field_estimate():
    # sources split by 10 at range 1000: fringe period lambda * R / split
    geo = far_field_geometry(split=10.0, distance=1000.0, wavenumber=2.0 * math.pi)
    lengths = np.linspace(0.0, 100.0, 1001)
    fringe = hbt_scan(geo, lengths).interference
    # the loop phase starts at 0 and winds once: cos crosses zero at 1/4 and 3/4 period
    crossings = np.flatnonzero(np.diff(np.sign(fringe)))
    assert fringe[0] == pytest.approx(2.0) and len(crossings) == 2
    first, second = (
        lengths[n] + fringe[n] / (fringe[n] - fringe[n + 1]) * (lengths[n + 1] - lengths[n])
        for n in crossings
    )
    assert 2.0 * (second - first) == pytest.approx(100.0, rel=0.02)


def test_entangled_pair_weight_examples():
    ones = PathAmplitudeSet(d1a=1.0, d2a=1.0, d1b=1.0, d2b=1.0)
    assert entangled_pair_weight(ones) == pytest.approx(4.0, abs=1e-15)
    assert entangled_pair_weight(scenario2_mask(ones)) == pytest.approx(1.0, abs=1e-15)
    opposite = PathAmplitudeSet(d1a=-1.0, d2a=1.0, d1b=1.0, d2b=1.0)
    assert entangled_pair_weight(opposite) == pytest.approx(0.0, abs=1e-15)


def test_entangled_pair_weight_is_phase_invariant():
    rng = np.random.default_rng(33)
    geo = random_geometry(rng)
    ref = entangled_pair_weight(path_amplitudes(geo))
    for phi1, phi2 in rng.uniform(0.0, 2.0 * math.pi, size=(50, 2)):
        w = entangled_pair_weight(path_amplitudes(geo, phi1=phi1, phi2=phi2))
        assert abs(w - ref) < 1e-12


def test_scenario2_mask_zeroes_the_cross_legs():
    rng = np.random.default_rng(34)
    amps = path_amplitudes(random_geometry(rng), phi1=0.3, phi2=1.7)
    masked = scenario2_mask(amps)
    assert masked.d2a == 0j and masked.d1b == 0j
    assert masked.d1a == amps.d1a and masked.d2b == amps.d2b
    assert masked.routes()[1] == 0j and loop(masked) == 0j
    assert hbt_intensity(masked).interference == 0.0


def test_propagation_factorizes_out_of_polarization():
    rng = np.random.default_rng(35)
    a = PolarizerAxis(0.25)
    b = PolarizerAxis(1.1)
    for _ in range(30):
        geo = random_geometry(rng)
        norm = "spherical" if rng.uniform() < 0.5 else "phase-only"
        amps = path_amplitudes(geo, normalization=norm)
        for kind in (1, 2):
            source = bell_state(kind)
            out = propagate_pair(source.amp, amps)
            scale = amps.d1a * amps.d2b + amps.d2a * amps.d1b
            assert np.max(np.abs(out - scale * source.amp)) < 1e-12
            # squared norm of the propagated amplitudes is the pair weight
            w = entangled_pair_weight(amps)
            assert abs(float(np.vdot(out, out).real) - w) < 1e-12
            if abs(scale) > 1e-6:
                detected = TwoPhotonPureState(out / np.linalg.norm(out))
                assert abs(correlator(detected, a, b) - correlator(source, a, b)) < 1e-12


def test_propagate_pair_checks_shape():
    amps = PathAmplitudeSet(d1a=1.0, d2a=1.0, d1b=1.0, d2b=1.0)
    with pytest.raises(ValueError):
        propagate_pair(np.zeros(3, dtype=complex), amps)
