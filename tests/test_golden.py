"""Golden sampled counts at fixed seeds.

The counts depend on the outcome distributions bit for bit: a change of
one ulp in a channel probability can move a multinomial draw.  These pins
make any such change visible; when a deliberate change to the model moves
them, re-bless the numbers and log the old and new values in CHANGES.md.
The chi-square test at the same seeds does not depend on the bits: it
holds the pinned draws to the outcome distribution of the density matrix.
"""

import math

import numpy as np
import pytest

from helpers import far_field_geometry, make_config, random_geometry

from skybell import (
    ChshConfiguration,
    PolarizerAxis,
    bell_state,
    coincidence_correlator,
    effective_amplitudes,
    effective_density_matrix,
    estimate_chsh,
    joint_outcome_probability,
    sample_coincidences,
)
from skybell.background import OUTCOME_PAIRS

A = PolarizerAxis(0.2)
B = PolarizerAxis(0.7)

CASES = {
    "II_default": (make_config(scenario="II", fraction=0.3), 9),
    # scenario I with all four pairings live, distinct axes and alphas
    "I_all_weights": (
        make_config(
            scenario="I",
            bell_kind=2,
            fraction=0.45,
            alpha1=1.7,
            alpha2=0.4,
            axis1=0.3,
            axis2=1.1,
            geometry=random_geometry(np.random.default_rng(7)),
            w12=0.4,
            w21=0.3,
            w11=0.2,
            w22=0.1,
        ),
        21,
    ),
    "II_spherical": (
        make_config(
            scenario="II",
            fraction=0.6,
            alpha1=0.5,
            alpha2=2.5,
            axis1=1.0,
            axis2=2.0,
            geometry=far_field_geometry(split=4.0),
            normalization="spherical",
            w11=0.3,
        ),
        2**40 + 5,
    ),
}

# (n_pp, n_pm, n_mp, n_mm) of 300,000 draws at (A, B), and the
# (S_hat, stderr) of estimate_chsh at 100,000 per saturating setting
GOLDEN = {
    "II_default": ((117859, 80708, 40772, 60661), (1.0954000000000002, 0.0060706048891358425)),
    "I_all_weights": ((94860, 85144, 86589, 33407), (-0.9746400000000001, 0.006130117316985051)),
    "II_spherical": ((86287, 63394, 32828, 117491), (1.81868, 0.005627650230069385)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_sampled_counts_are_pinned(name):
    cfg, seed = CASES[name]
    batch = sample_coincidences(cfg, A, B, 300_000, seed)
    assert (batch.n_pp, batch.n_pm, batch.n_mp, batch.n_mm) == GOLDEN[name][0]


@pytest.mark.parametrize("name", list(CASES))
def test_sampled_chsh_is_pinned(name):
    cfg, seed = CASES[name]
    assert estimate_chsh(cfg, ChshConfiguration.saturating(), 100_000, seed) == GOLDEN[name][1]


def _mixture_probabilities(cfg):
    """Outcome probabilities at (A, B) through the mixed pair density matrix."""
    parts = coincidence_correlator(cfg, A, B)
    f = parts.weight_signal / (parts.weight_signal + parts.weight_background)
    bg = effective_density_matrix(cfg.background, effective_amplitudes(cfg))
    rho = f * bell_state(cfg.bell_kind).density() + (1.0 - f) * bg / np.trace(bg).real
    return np.array([joint_outcome_probability(rho, A, B, oa, ob) for oa, ob in OUTCOME_PAIRS])


@pytest.mark.parametrize("name", list(CASES))
def test_sampled_counts_fit_the_analytic_distribution(name):
    cfg, seed = CASES[name]
    batch = sample_coincidences(cfg, A, B, 300_000, seed)
    counts = np.array([batch.n_pp, batch.n_pm, batch.n_mp, batch.n_mm])
    expected = 300_000 * _mixture_probabilities(cfg)
    assert np.all(expected > 0.0)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # chi-square survival function for 3 degrees of freedom
    p_value = math.erfc(math.sqrt(chi2 / 2.0)) + math.sqrt(2.0 * chi2 / math.pi) * math.exp(
        -chi2 / 2.0
    )
    assert p_value > 1e-3
