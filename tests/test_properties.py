"""Invariants of the correlation-tensor model over random physical configs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
from skybell.scenarios import correlation_model

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
