"""Golden sampled counts at fixed seeds.

The counts depend on the outcome distributions bit for bit: a change of
one ulp in a channel probability can move a multinomial draw.  These pins
make any such change visible; when a deliberate change to the model moves
them, re-bless the numbers and log the old and new values in CHANGES.md.
The chi-square test at the same seeds does not depend on the bits: it
holds the pinned draws to the outcome distribution of the density matrix.
The sha256 pins of whole CLI outputs hold the CSV writer, the model and
the sampler to the same bytes together.
"""

import hashlib
import math

import numpy as np
import pytest

from helpers import far_field_geometry, make_config, random_geometry, readme_example

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
from skybell.cli import EXIT_OK, run

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


GRID = ["--grid-a", "0:168.75:16", "--grid-b", "0:168.75:16"]

# sha256 of each output after its "# manifest:" line
GOLDEN_OUTPUTS = {
    "scan": (["scan", *GRID],
             "58f7e84edbaa3093dd9e47fa8d61ae5419f6a9f0a5f06280575228b922339363"),
    "scan_n": (["scan", *GRID, "--n", "1000", "--seed", "7"],
               "a090d7ba1b50fe683aa968ac28b69ed3dc336e8dd8774e8b177795a72cb86af6"),
    "hbt": (["hbt", "--baseline", "0:100:101", "--random-phases", "--seed", "11"],
            "6874076e812f8e062e46e21dd462bbb9427093beb9b3135b02715e2d48d3f53d"),
}


@pytest.mark.parametrize("name", list(GOLDEN_OUTPUTS))
def test_cli_output_bytes_are_pinned(name, tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(readme_example(), encoding="utf-8")
    argv, digest = GOLDEN_OUTPUTS[name]
    out = tmp_path / f"{name}.csv"
    assert run([*argv, "--config", str(config), "--out", str(out)]) == EXIT_OK
    first, body = out.read_bytes().split(b"\n", 1)
    assert first == f"# manifest: {name}.csv.manifest.json".encode()
    assert hashlib.sha256(body).hexdigest() == digest


# sha256 of the whole JSON report of `chsh --n 100000 --seed 7 --out chsh.json`
GOLDEN_CHSH_REPORT = "3a5927391f78fc9f80e7663fd20c242cd263c394419e324ffbfd2b782c8476ce"


def test_chsh_report_bytes_are_pinned(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(readme_example(), encoding="utf-8")
    out = tmp_path / "chsh.json"
    argv = ["chsh", "--config", str(config), "--n", "100000", "--seed", "7", "--out", str(out)]
    assert run(argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CHSH_REPORT
