"""Invariants of the correlation-tensor model over random physical configs,
and exact round trips of the scan CSV and config YAML formats."""

import cmath
import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import bits, flatten, make_config, outcome_rates, random_geometry

from skybell import (
    BackgroundSpec,
    ChshConfiguration,
    ConfigError,
    Geometry,
    PathAmplitudeSet,
    PolarizerAxis,
    background_correlator,
    bell_state,
    chsh_square_spectral_bound,
    chsh_with_background,
    cli,
    effective_amplitudes,
    effective_density_matrix,
    path_amplitudes,
    projector_from_axis,
    propagation,
    source_density,
)
from skybell.background import OUTCOME_PAIRS, correlation_tensor
from skybell.cli import SCAN_CSV_COLUMNS, _csv_rows, _sweep_rows, read_scan_csv, write_scan_csv
from skybell.config import SCHEMA_VERSION, dump_config, parse_config
from skybell.scenarios import ScanResult

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)

PAULI = (np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))

angles = st.floats(0.0, math.pi)
unit = st.floats(0.0, 1.0)


@st.composite
def configs(draw):
    # a live cross pairing keeps the total rate positive in both scenarios
    weights = [draw(st.floats(0.01, 1.0))] + [draw(unit) for _ in range(3)]
    return make_config(
        scenario=draw(st.sampled_from(("I", "II"))),
        bell_kind=draw(st.sampled_from((1, 2))),
        fraction=draw(unit),
        alpha1=draw(st.floats(0.0, 6.0)),
        alpha2=draw(st.floats(0.0, 6.0)),
        axis1=draw(angles),
        axis2=draw(angles),
        geometry=random_geometry(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))),
        normalization=draw(st.sampled_from(("phase-only", "spherical"))),
        **dict(zip(("w12", "w21", "w11", "w22"), weights)),
    )


def reference_legs(geometry, phi1, phi2, normalization):
    """Leg lengths (r_1A, r_2A, r_1B, r_2B) and amplitudes by the textbook formulas."""
    g = geometry
    pairs = ((g.source1, g.detector_a), (g.source2, g.detector_a),
             (g.source1, g.detector_b), (g.source2, g.detector_b))
    lengths = [float(np.hypot(np.hypot(x, y), z)) for x, y, z in (s - d for s, d in pairs)]
    legs = [np.exp(1j * (g.wavenumber * r + phi))
            for r, phi in zip(lengths, (phi1, phi2, phi1, phi2))]
    if normalization == "spherical":
        legs = [d / r for d, r in zip(legs, lengths)]
    return lengths, legs


def complex_bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


@st.composite
def geometries(draw):
    # sources at z >= 1 and detectors at |z| <= 1/2, so no leg is coincident
    def point(z):
        return [draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4)), draw(z)]

    sources = st.floats(1.0, 1e7)
    detectors = st.floats(-0.5, 0.5)
    return Geometry(source1=point(sources), source2=point(sources), detector_a=point(detectors),
                    detector_b=point(detectors), wavenumber=draw(st.floats(1e-3, 1e4)))


# the leg amplitudes, and so every model output and golden pin, rest on these bits
@PROPERTY_SETTINGS
@given(geometry=geometries(), phases=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       normalization=st.sampled_from(("phase-only", "spherical")),
       scenario=st.sampled_from(("I", "II")))
def test_leg_lengths_and_amplitudes_are_the_formulas_bitwise(geometry, phases, normalization,
                                                            scenario):
    lengths, legs = reference_legs(geometry, *phases, normalization)
    assert bits(geometry.path_lengths()) == bits(lengths)
    amps = path_amplitudes(geometry, *phases, normalization=normalization)
    fields = (amps.d1a, amps.d2a, amps.d1b, amps.d2b)
    assert all(type(d) is complex for d in fields)
    assert list(map(complex_bits, fields)) == list(map(complex_bits, legs))
    cfg = make_config(scenario=scenario, geometry=geometry, normalization=normalization)
    _, legs = reference_legs(geometry, 0.0, 0.0, normalization)
    if scenario == "II":
        legs[1] = legs[2] = 0j
    amps = effective_amplitudes(cfg)
    fields = (amps.d1a, amps.d2a, amps.d1b, amps.d2b)
    assert list(map(complex_bits, fields)) == list(map(complex_bits, legs))


# within +-1e300 every distance is finite; the full float range reaches overflow
coordinates = st.one_of(st.floats(-1e300, 1e300), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=500, deadline=None, database=None)
@given(a=st.tuples(coordinates, coordinates, coordinates),
       b=st.tuples(coordinates, coordinates, coordinates))
def test_distance_is_within_an_ulp_of_math_dist_and_overflows_with_it(a, b):
    got, want = float(propagation._distance(a, b)), math.dist(a, b)
    assert math.isfinite(got) == math.isfinite(want)
    if math.isfinite(want):
        assert abs(got - want) <= math.ulp(want)


# an hbt row and the model read the same leg bits wherever detector B stands
@PROPERTY_SETTINGS
@given(geometry=geometries(), baselines=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=8))
def test_hbt_b_legs_are_the_geometrys_own_bitwise(geometry, baselines):
    g = geometry
    assume(math.dist(g.detector_a, g.detector_b) > 0.0)
    rows, legs = [], []

    def measure(a, b, distance=propagation._distance):
        rows.append(b)
        return distance(a, b)

    def amplitudes(k, lengths, *args, build=propagation._legs):
        legs.append(lengths[2:])
        return build(k, lengths, *args)

    with mock.patch.multiple(propagation, _distance=measure, _legs=amplitudes):
        propagation.hbt_scan(g, baselines)
    for row, r1b, r2b in zip(rows[-1], *legs[-1]):
        at_row = Geometry(source1=g.source1, source2=g.source2, detector_a=g.detector_a,
                          detector_b=row, wavenumber=g.wavenumber)
        assert bits(at_row.path_lengths()[2:]) == bits((r1b, r2b))


@PROPERTY_SETTINGS
@given(leg=st.sampled_from(("d1a", "d2a", "d1b", "d2b")),
       value=st.sampled_from((complex(math.nan, 0.0), complex(0.0, math.inf),
                              complex(-math.inf, 1.0), complex(math.nan, math.nan))),
       form=st.sampled_from(("complex", "numpy scalar", "0-d array", "1-d array")))
def test_amplitude_sets_refuse_non_finite_legs_in_every_form(leg, value, form):
    make = {"complex": complex, "numpy scalar": np.complex128, "0-d array": np.array,
            "1-d array": lambda v: np.array([1.0, v])}[form]
    shown = np.array([1.0, value]) if form == "1-d array" else value
    amps = dict.fromkeys(("d1a", "d2a", "d1b", "d2b"), 1.0)
    with pytest.raises(ValueError) as excinfo:
        PathAmplitudeSet(**{**amps, leg: make(value)})
    assert str(excinfo.value) == f"amplitude {leg} must be finite, got {shown!r}"
    kept = getattr(PathAmplitudeSet(**{**amps, leg: make(1.5 - 2.0j)}), leg)
    if form == "1-d array":
        assert kept.dtype == np.complex128 and kept.tolist() == [1.0, 1.5 - 2.0j]
    else:
        assert type(kept) is complex and kept == 1.5 - 2.0j


# model.k and the golden pins rest on these exact bits
@PROPERTY_SETTINGS
@given(t=st.floats(-20.0, 20.0), alpha=st.floats(0.0, 1e12))
def test_source_density_is_the_closed_form_bitwise(t, alpha):
    axis = PolarizerAxis(t)
    n = np.array([math.cos(axis.angle), math.sin(axis.angle)])
    perp = axis.perpendicular().angle
    nperp = np.array([math.cos(perp), math.sin(perp)])
    expected = ((1.0 + 2.0 * alpha) * np.outer(n, n) + np.outer(nperp, nperp)) / (
        2.0 + 2.0 * alpha
    )
    rho = source_density(axis, alpha).rho
    assert rho.dtype == np.complex128 and not rho.flags.writeable
    assert rho.tobytes() == expected.astype(complex).tobytes()


@PROPERTY_SETTINGS
@given(t=st.floats(-20.0, 20.0))
def test_projector_is_the_closed_form_bitwise(t):
    axis = PolarizerAxis(t)
    c, s = math.cos(2.0 * axis.angle), math.sin(2.0 * axis.angle)
    m = projector_from_axis(axis).m
    assert m.dtype == np.float64 and not m.flags.writeable
    assert m.tobytes() == np.array([[c, s], [s, -c]]).tobytes()


@PROPERTY_SETTINGS
@given(cfg=configs())
def test_tensor_is_the_density_matrix_contraction(cfg):
    def contraction(rho):
        return np.array([[np.trace(np.kron(bm, bn) @ rho).real for bn in PAULI] for bm in PAULI])

    rho = effective_density_matrix(cfg.background, effective_amplitudes(cfg))
    k = correlation_tensor(cfg.background, effective_amplitudes(cfg))
    expected = contraction(rho)
    assert np.max(np.abs(k - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))
    # the entangled channel's tensor is the same contraction of its Bell state
    expected = contraction(bell_state(cfg.bell_kind).density())
    assert np.max(np.abs(cfg.model.k_signal - expected)) <= 1e-15


@st.composite
def dark_fringes(draw):
    """A background at or near a dark fringe of its cross pairing, where a + b ~ 0.

    Legs of 1e2-1e4 give route rates |a|^2 of up to 1e16, and strongly
    polarized sources on one axis, or on two nearly equal ones, leave
    almost nothing of the singlet part either: the true rate is then many
    orders of magnitude below the route rates.
    """
    def leg():
        return cmath.rect(draw(st.floats(1e2, 1e4)), draw(st.floats(-math.pi, math.pi)))

    d1a, d2a, d1b = leg(), leg(), leg()
    eps = draw(st.sampled_from((0.0, 1e-15, 1e-12, 1e-9)))
    amps = PathAmplitudeSet(d1a=d1a, d2a=d2a, d1b=d1b, d2b=-d2a * d1b / d1a * (1.0 + eps))
    axis1 = draw(angles)
    axis2 = draw(st.one_of(
        st.just(axis1),
        st.floats(-10.0, -2.0).map(lambda e: axis1 + 10.0 ** e),
        angles,
    ))
    alpha = st.one_of(st.floats(1e16, 1e300), st.floats(0.0, 1e300))
    same_source = st.one_of(st.just(0.0), unit)
    spec = BackgroundSpec(
        PolarizerAxis(axis1), PolarizerAxis(axis2), draw(alpha), draw(alpha),
        w12=draw(st.floats(0.01, 1.0)), w21=draw(st.floats(0.01, 1.0)),
        w11=draw(same_source), w22=draw(same_source),
    )
    return spec, amps


@settings(max_examples=300, deadline=None, database=None)
@given(fringe=dark_fringes(), ta=angles, tb=angles)
def test_background_at_a_dark_fringe_is_a_rate_and_a_correlator(fringe, ta, tb):
    k = correlation_tensor(*fringe)
    assert k[0, 0] >= 0.0
    if k[0, 0] > 0.0:
        u, v = (np.array([math.cos(2.0 * t), math.sin(2.0 * t)]) for t in (ta, tb))
        assert abs(u @ k[1:, 1:] @ v) <= (1.0 + 1e-9) * k[0, 0]
        assert max(abs(u @ k[1:, 0]), abs(k[0, 1:] @ v)) <= (1.0 + 1e-9) * k[0, 0]


SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def reference_density_matrix(spec, amps):
    """The four-term rate as pair operators, spelt out with kron and the SWAP gate."""
    rhos = tuple(s.rho for s in spec.densities())
    d = ((amps.d1a, amps.d1b), (amps.d2a, amps.d2b))
    out = np.zeros((4, 4), dtype=complex)
    for w, i, j in spec.pairings():
        if w == 0.0:
            continue
        dia, dib = d[i]
        dja, djb = d[j]
        z = dia * djb * np.conj(dja * dib)
        direct = (abs(dia * djb) ** 2 * np.kron(rhos[i], rhos[j])
                  + abs(dja * dib) ** 2 * np.kron(rhos[j], rhos[i]))
        exchange = z * (np.kron(rhos[i], rhos[j]) @ SWAP)
        out += w * (direct + exchange + exchange.conj().T)
    return out


@PROPERTY_SETTINGS
@given(cfg=configs())
def test_density_matrix_equals_the_kron_formula_bitwise(cfg):
    amps = effective_amplitudes(cfg)
    rho = effective_density_matrix(cfg.background, amps)
    assert rho.tobytes() == reference_density_matrix(cfg.background, amps).tobytes()


@PROPERTY_SETTINGS
@given(cfg=configs(), ta=angles, tb=angles)
def test_outcome_rates_are_nonnegative_and_sum_to_the_total(cfg, ta, tb):
    k = correlation_tensor(cfg.background, effective_amplitudes(cfg))
    rates = outcome_rates(k, ta, tb)
    scale = max(k[0, 0], 1e-300)
    assert len(rates) == len(OUTCOME_PAIRS)
    assert np.min(rates) >= -1e-12 * scale
    assert abs(np.sum(rates) - k[0, 0]) <= 1e-12 * scale


grid_or_scalar = st.one_of(angles, st.lists(angles, min_size=1, max_size=4))


@PROPERTY_SETTINGS
@given(cfg=configs(), ta=grid_or_scalar, tb=grid_or_scalar)
def test_outcome_rates_are_the_tensor_formula(cfg, ta, tb):
    k = correlation_tensor(cfg.background, effective_amplitudes(cfg))
    w = k[0, 0]
    m_a, m_b, t = k[1:, 0] / w, k[0, 1:] / w, k[1:, 1:] / w
    rates = outcome_rates(k, ta, tb)
    assert rates.shape == np.shape(ta) + np.shape(tb) + (len(OUTCOME_PAIRS),)
    rates = rates.reshape(np.size(ta), np.size(tb), len(OUTCOME_PAIRS))
    for i, x in enumerate(np.atleast_1d(ta)):
        u = np.array([math.cos(2.0 * x), math.sin(2.0 * x)])
        for j, y in enumerate(np.atleast_1d(tb)):
            v = np.array([math.cos(2.0 * y), math.sin(2.0 * y)])
            for col, (oa, ob) in enumerate(OUTCOME_PAIRS):
                expected = w * (1.0 + oa * m_a @ u + ob * m_b @ v + oa * ob * u @ t @ v) / 4.0
                assert abs(rates[i, j, col] - expected) <= 1e-12 * w


# background_correlator reads K on its own, so only this ties it to the model
@PROPERTY_SETTINGS
@given(cfg=configs(), ta=angles, tb=angles)
def test_background_correlator_is_the_models_background_column(cfg, ta, tb):
    amps = effective_amplitudes(cfg)
    assume(cfg.entangled_fraction < 1.0 and correlation_tensor(cfg.background, amps)[0, 0] > 0.0)
    e = background_correlator(cfg.background, amps, PolarizerAxis(ta), PolarizerAxis(tb))
    assert abs(e - cfg.model.correlators(ta, tb)[2][0, 0]) <= 1e-15


@PROPERTY_SETTINGS
@given(cfg=configs(), ta=st.lists(angles, min_size=1, max_size=4),
       tb=st.lists(angles, min_size=1, max_size=4))
def test_correlators_stay_in_bounds(cfg, ta, tb):
    for e in cfg.model.correlators(ta, tb):
        assert e.shape == (len(ta), len(tb))
        assert np.max(np.abs(e)) <= 1.0 + 1e-12


@PROPERTY_SETTINGS
@given(cfg=configs(), settings_=st.tuples(angles, angles, angles, angles))
def test_chsh_respects_the_spectral_bound(cfg, settings_):
    chsh = ChshConfiguration(*(PolarizerAxis(t) for t in settings_))
    s = chsh_with_background(cfg, chsh)
    assert abs(s) <= math.sqrt(chsh_square_spectral_bound(chsh)) + 1e-12


SCAN_FIELDS = ("theta_a", "theta_b", "e", "e_signal", "e_background", "w_signal", "w_background")


@PROPERTY_SETTINGS
@given(data=st.data(), rows=st.integers(1, 6))
def test_scan_csv_round_trips_bitwise(data, rows):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    scan = ScanResult(**{
        name: data.draw(arrays(np.float64, rows, elements=st.floats(-1.0, 1.0) if name == "e"
                               else finite))
        for name in SCAN_FIELDS
    })
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.csv"
        write_scan_csv(path, scan)
        back = read_scan_csv(path)
    for name in SCAN_FIELDS:
        assert bits(getattr(back, name).tolist()) == bits(getattr(scan, name).tolist())


CSV_EDGE_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                   2.2250738585072009e-308, 1e-310, 0.1, 1.0 / 3.0)


@st.composite
def csv_columns(draw):
    """1-7 columns of one length with many repeats, edge values and one single-valued column."""
    rows = draw(st.integers(1, 40))
    value = st.one_of(st.sampled_from(CSV_EDGE_VALUES), st.floats())
    pool = draw(st.lists(value, min_size=1, max_size=6))
    repeated = st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)
    any_value = st.lists(value, min_size=rows, max_size=rows)
    columns = draw(st.lists(st.one_of(repeated, any_value), min_size=0, max_size=6))
    columns.insert(draw(st.integers(0, len(columns))), [draw(value)] * rows)
    return [np.array(column, dtype=float) for column in columns]


@PROPERTY_SETTINGS
@given(columns=csv_columns())
def test_csv_rows_equal_one_repr_per_value(columns):
    # the grid renderer (scan) and the sweep renderer (hbt) both write every value's repr
    expected = [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    assert list(_csv_rows(*columns)) == expected
    assert list(_sweep_rows(*columns)) == expected


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308,
               1.7976931348623157e308)
TOKEN_FORMATS = (repr, "{:.17e}".format, "{:.17g}".format, "{:.17E}".format, "{:+}".format)


def reference_scan_rows(text):
    """The scan reader's contract spelt out line by line with float()."""
    rows, header = [], None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line
            continue
        rows.append([float(v) for v in line.split(",")])
    return rows


@st.composite
def scan_texts(draw):
    """A valid scan file: float tokens in several spellings, padded fields,
    comment and blank lines anywhere, LF, CRLF or CR endings."""
    finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(EDGE_FLOATS))
    # ScanResult keeps the mixture correlator E in [-1, 1]
    correlator = st.one_of(st.floats(-1.0, 1.0), st.sampled_from(EDGE_FLOATS[:4]))
    pad = st.sampled_from(("", " ", "\t"))
    filler = st.lists(st.sampled_from(("", "   ", "# a comment", "  # x,1,2", "#")), max_size=2)
    lines = draw(filler) + [",".join(SCAN_CSV_COLUMNS)]
    for _ in range(draw(st.integers(1, 8))):
        lines += draw(filler)
        fields = [draw(pad) + draw(st.sampled_from(TOKEN_FORMATS))(
                      draw(correlator if name == "E" else finite)) + draw(pad)
                  for name in SCAN_CSV_COLUMNS]
        lines.append(draw(pad) + ",".join(fields))
    lines += draw(filler)
    return draw(st.sampled_from(("\n", "\r\n", "\r"))).join(lines) + draw(st.sampled_from(("", "\n")))


@PROPERTY_SETTINGS
@given(text=scan_texts())
def test_scan_reader_equals_a_float_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.csv"
        path.write_bytes(text.encode("utf-8"))
        scan = read_scan_csv(path)
    expected = list(zip(*reference_scan_rows(text)))
    for name, column in zip(SCAN_FIELDS, expected):
        assert bits(getattr(scan, name).tolist()) == bits(column)


DAMAGED_ROWS = (
    lambda fields: fields[:-1],  # short
    lambda fields: fields + ["0.5"],  # long
    lambda fields: [""] + fields[1:],  # empty field
    lambda fields: fields[:3] + ["abc"] + fields[4:],  # non-numeric
    lambda fields: fields[:-1] + [fields[-1] + " # note"],  # trailing comment
    lambda fields: ["1_0"] + fields[1:],  # underscore digits
)
FILLER_LINES = ("", "   ", "\t", "# note", "  # indented,1,2", "#")
HEADER = ",".join(SCAN_CSV_COLUMNS)


@st.composite
def mixed_scan_texts(draw):
    """A scan file: valid rows mixed with blank, whitespace-only and # lines
    (each file its own kinds, maybe none) and rows with one kind of damage,
    or no rows at all; LF, CRLF or CR endings."""
    kinds = draw(st.sets(st.sampled_from(FILLER_LINES)))
    filler = st.lists(st.sampled_from(sorted(kinds)), max_size=2) if kinds else st.just([])
    damage = draw(st.sampled_from(DAMAGED_ROWS))
    rows = [[repr(draw(st.floats(-1.0, 1.0))) for _ in SCAN_CSV_COLUMNS]
            for _ in range(draw(st.integers(0, 6)))]
    rows = [damage(fields) if draw(st.integers(0, 2)) == 0 else fields for fields in rows]
    lines = draw(filler) + [HEADER]
    for fields in rows:
        lines += draw(filler) + [",".join(fields)]
    lines += draw(filler)
    return draw(st.sampled_from(("\n", "\r\n", "\r"))).join(lines) + draw(st.sampled_from(("", "\n")))


def scan_or_error(path):
    """The scan read from ``path`` as column bits, or the ConfigError text."""
    try:
        scan = read_scan_csv(path)
    except ConfigError as exc:
        return str(exc)
    return [bits(getattr(scan, name).tolist()) for name in SCAN_FIELDS]


def refuse_the_block_read(source, skip=0, rows=cli._rows):
    """``cli._rows`` with every read by path refused, so a scan is read on line by line."""
    return None if isinstance(source, (str, os.PathLike)) else rows(source, skip)


@PROPERTY_SETTINGS
@given(text=mixed_scan_texts())
# rows of one wrong width, a row numpy would read with comments="#", a
# whitespace-only line after the first row, a header with no rows, and
# blank and # lines before the header and the first row that the block read skips
@example(text=f"{HEADER}\n0,0,0,0,0,0\n0,0,0,0,0,0\n")
@example(text=f"{HEADER}\n0,0,0,0,0,0,0\n0,0,0,0,0,0,0 # note\n")
@example(text=f"# manifest: x\n{HEADER}\n0,0,0,0,0,0,0\n  \n0,0,0,0,0,0,0\n")
@example(text=f"#\r{HEADER}\r\r")
@example(text=f"# manifest: x\r\r  # a\r{HEADER}\r\r#\r \r0.5,0,0,0,0,0,0\r1,0,0,0,0,0,0\r")
def test_streamed_scan_reader_equals_the_line_filtered_one(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            streamed = scan_or_error(path)
            with mock.patch.object(cli, "_rows", refuse_the_block_read):
                filtered = scan_or_error(path)
    assert streamed == filtered
    assert caught == []


@st.composite
def config_docs(draw, degrees):
    """A config document as a user writes it, angles in degrees drawn from ``degrees``."""
    coordinate = st.floats(-1e6, 1e6)
    nonnegative = st.floats(0.0, 1e6)

    def point(height):
        return [draw(coordinate), draw(coordinate), draw(height)]

    # sources above the detector plane, so no source/detector pair coincides
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": draw(st.sampled_from(("I", "II"))),
        "bell_kind": draw(st.sampled_from((1, 2))),
        "entangled_fraction": draw(unit),
        "geometry": {
            "source1": point(st.floats(1.0, 1e6)),
            "source2": point(st.floats(1.0, 1e6)),
            "detector_a": point(st.floats(-1e6, 0.0)),
            "detector_b": point(st.floats(-1e6, 0.0)),
            "wavenumber": draw(st.floats(1e-6, 1e6)),
        },
        "propagation": {"normalization": draw(st.sampled_from(("phase-only", "spherical")))},
        "background": {
            "axis1_deg": draw(degrees),
            "axis2_deg": draw(degrees),
            "alpha1": draw(nonnegative),
            "alpha2": draw(nonnegative),
            "weights": {
                "w12": draw(st.floats(1e-6, 1e6)),
                **{w: draw(nonnegative) for w in ("w21", "w11", "w22")},
            },
        },
        "chsh": {key: draw(degrees) for key in ("a_deg", "a_prime_deg", "b_deg", "b_prime_deg")},
        "rng": {"seed": draw(st.integers(0, 2**64 - 1))},
    }


def reload(loaded):
    return parse_config(yaml.safe_load(dump_config(loaded)))


@PROPERTY_SETTINGS
@given(doc=config_docs(st.floats(0.0, 180.0, exclude_max=True)))
def test_config_round_trips_exactly(doc):
    loaded = parse_config(doc)
    assert flatten(reload(loaded)) == flatten(loaded)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@PROPERTY_SETTINGS
@given(doc=config_docs(st.floats(0.0, 180.0, exclude_max=True)))
def test_libyaml_and_python_loaders_agree(doc):
    for text in (yaml.safe_dump(doc, sort_keys=False), dump_config(parse_config(doc))):
        c_doc = yaml.load(text, Loader=yaml.CSafeLoader)
        py_doc = yaml.load(text, Loader=yaml.SafeLoader)
        assert repr(c_doc) == repr(py_doc)
        assert flatten(parse_config(c_doc)) == flatten(parse_config(py_doc))


@PROPERTY_SETTINGS
@given(doc=config_docs(st.floats(-1e6, 1e6)))
def test_config_round_trip_settles_after_one_pass(doc):
    # an angle outside [0, 180) is normalized on load, and its radians may
    # have no exact float in degrees; the dumped one always has
    once = reload(parse_config(doc))
    assert flatten(reload(once)) == flatten(once)
