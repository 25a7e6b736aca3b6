"""Invariants of the correlation-tensor model over random physical configs,
and exact round trips of the scan CSV and config YAML formats."""

import math
import tempfile
from pathlib import Path

import numpy as np
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import make_config, random_geometry

from skybell import (
    ChshConfiguration,
    PolarizerAxis,
    chsh_square_spectral_bound,
    chsh_with_background,
    effective_amplitudes,
    effective_density_matrix,
)
from skybell.background import OUTCOME_PAIRS, correlation_tensor, outcome_rates
from skybell.cli import SCAN_CSV_COLUMNS, read_scan_csv, write_scan_csv
from skybell.config import SCHEMA_VERSION, dump_config, parse_config
from skybell.scenarios import ScanResult, correlation_model

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


@PROPERTY_SETTINGS
@given(cfg=configs())
def test_tensor_is_the_density_matrix_contraction(cfg):
    rho = effective_density_matrix(cfg.background, effective_amplitudes(cfg))
    k = correlation_tensor(cfg.background, effective_amplitudes(cfg))
    expected = np.array(
        [[np.trace(np.kron(bm, bn) @ rho).real for bn in PAULI] for bm in PAULI]
    )
    assert np.max(np.abs(k - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


@PROPERTY_SETTINGS
@given(cfg=configs(), ta=angles, tb=angles)
def test_outcome_rates_are_nonnegative_and_sum_to_the_total(cfg, ta, tb):
    k = correlation_tensor(cfg.background, effective_amplitudes(cfg))
    rates = outcome_rates(k, ta, tb)
    scale = max(k[0, 0], 1e-300)
    assert len(rates) == len(OUTCOME_PAIRS)
    assert np.min(rates) >= -1e-12 * scale
    assert abs(np.sum(rates) - k[0, 0]) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(cfg=configs(), ta=st.lists(angles, min_size=1, max_size=4),
       tb=st.lists(angles, min_size=1, max_size=4))
def test_correlators_stay_in_bounds(cfg, ta, tb):
    for e in correlation_model(cfg).correlators(ta, tb):
        assert e.shape == (len(ta), len(tb))
        assert np.max(np.abs(e)) <= 1.0 + 1e-12


@PROPERTY_SETTINGS
@given(cfg=configs(), settings_=st.tuples(angles, angles, angles, angles))
def test_chsh_respects_the_spectral_bound(cfg, settings_):
    chsh = ChshConfiguration(*(PolarizerAxis(t) for t in settings_))
    s = chsh_with_background(cfg, chsh)
    assert abs(s) <= math.sqrt(chsh_square_spectral_bound(chsh)) + 1e-12


def bits(values):
    """Floats as hex strings, so equality is bitwise (0.0 and -0.0 differ)."""
    return [float(v).hex() if isinstance(v, float) else v for v in values]


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
        write_scan_csv(path, scan, manifest_name="scan.csv.manifest.json")
        back = read_scan_csv(path)
    for name in SCAN_FIELDS:
        assert bits(getattr(back, name).tolist()) == bits(getattr(scan, name).tolist())


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
    comment and blank lines anywhere, LF or CRLF endings."""
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
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines) + draw(st.sampled_from(("", "\n")))


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


def flatten(loaded):
    exp, bg, geo, chsh = (loaded.experiment, loaded.experiment.background,
                          loaded.experiment.geometry, loaded.chsh)
    return bits([
        exp.scenario, exp.bell_kind, exp.entangled_fraction, exp.propagator_normalization,
        *(float(v) for point in (geo.source1, geo.source2, geo.detector_a, geo.detector_b)
          for v in point),
        geo.wavenumber, bg.axis1.angle, bg.axis2.angle, bg.alpha1, bg.alpha2,
        bg.w12, bg.w21, bg.w11, bg.w22,
        chsh.a.angle, chsh.a_prime.angle, chsh.b.angle, chsh.b_prime.angle, loaded.seed,
    ])


def reload(loaded):
    return parse_config(yaml.safe_load(dump_config(loaded)))


@PROPERTY_SETTINGS
@given(doc=config_docs(st.floats(0.0, 180.0, exclude_max=True)))
def test_config_round_trips_exactly(doc):
    loaded = parse_config(doc)
    assert flatten(reload(loaded)) == flatten(loaded)


@PROPERTY_SETTINGS
@given(doc=config_docs(st.floats(-1e6, 1e6)))
def test_config_round_trip_settles_after_one_pass(doc):
    # an angle outside [0, 180) is normalized on load, and its radians may
    # have no exact float in degrees; the dumped one always has
    once = reload(parse_config(doc))
    assert flatten(reload(once)) == flatten(once)
