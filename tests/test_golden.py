"""Golden sampled counts at fixed seeds.

The counts depend on the outcome distributions bit for bit: a change of
one ulp in a channel probability can move a multinomial draw.  These pins
make any such change visible; when a deliberate change to the model moves
them, re-bless the numbers and log the old and new values in CHANGES.md.
"""

import numpy as np
import pytest

from helpers import far_field_geometry, make_config, random_geometry

from skybell import ChshConfiguration, PolarizerAxis, estimate_chsh, sample_coincidences

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
    "II_default": ((117844, 80858, 40783, 60515), (1.0954000000000002, 0.0060706048891358425)),
    "I_all_weights": ((94869, 85082, 86597, 33452), (-0.9746400000000001, 0.006130117316985051)),
    "II_spherical": ((86005, 63467, 32799, 117729), (1.81868, 0.005627650230069385)),
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
