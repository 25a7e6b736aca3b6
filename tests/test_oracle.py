"""The second-quantized oracle (tests/oracle.py) against textbook facts and its own bookkeeping.

The model is checked against the oracle in test_properties.py and
test_scenarios.py; these tests pin the oracle itself, independently of
the package under test.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from helpers import make_config, oracle_legs, oracle_rates, random_geometry, readme_config
from oracle import correlator, events, linear_analyzer, pair_amplitudes, pure

#: Outcome vectors (+1, -1) of sigma_z, sigma_x and sigma_y, the last a circular analyzer.
PAULI_ANALYZERS = (
    linear_analyzer(0.0),
    linear_analyzer(np.pi / 4.0),
    np.array([[1.0, 1.0j], [1.0, -1.0j]]) / np.sqrt(2.0),
)


def test_oracle_shares_no_code_with_the_model():
    source = (Path(__file__).parent / "oracle.py").read_text(encoding="utf-8")
    imports = [alias.name for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names]
    assert imports == ["numpy"]
    for name in ("skybell", "routes", "correlation_tensor", "effective_density_matrix",
                 "entangled_pair_weight", "propagate_pair"):
        assert name not in source


def geometries():
    rng = np.random.default_rng(21)
    readme = readme_config().experiment
    return [(readme.geometry, readme.propagator_normalization)] + [
        (random_geometry(rng), normalization)
        for normalization in ("phase-only", "spherical") for _ in range(5)
    ]


@pytest.mark.parametrize("kind, expected", [(1, [1.0, 1.0, -1.0]), (2, [-1.0, -1.0, -1.0])])
@pytest.mark.parametrize("scenario", ["I", "II"])
def test_signal_tensor_over_the_pauli_analyzers_is_the_bell_states(scenario, kind, expected):
    # <sigma_m x sigma_n> is diag(1, 1, -1) for (HH + VV)/sqrt 2 and -I for
    # the singlet; the sigma_y entry pins the conjugation of complex analyzers
    for geometry, normalization in geometries():
        cfg = make_config(scenario=scenario, bell_kind=kind, fraction=1.0, geometry=geometry,
                          normalization=normalization)
        tensor = [[correlator(oracle_rates(cfg, a, b)[0])[1] for b in PAULI_ANALYZERS]
                  for a in PAULI_ANALYZERS]
        assert np.max(np.abs(np.array(tensor) - np.diag(expected))) <= 1e-12


def random_unitary(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (0, 0), (1, 1)])
def test_every_event_of_a_pair_sums_to_its_norm(i, j):
    # over complete analyzer bases, the coincidences and both-at-A and
    # both-at-B events exhaust the two-photon state, of norm ||C + C^T||_F^2 / 2
    rng = np.random.default_rng(9)
    for _ in range(50):
        legs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        psi = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        psi /= np.linalg.norm(psi)
        ab, aa, bb = events(legs, pure(psi), random_unitary(rng), random_unitary(rng), i, j)
        norm = np.linalg.norm(pair_amplitudes(legs, psi, i, j)) ** 2 / 2.0
        assert abs(ab.sum() + aa.sum() + bb.sum() - norm) <= 1e-12 * norm
        assert np.all(np.tril(aa, -1) == 0.0) and np.all(np.tril(bb, -1) == 0.0)


def test_scenario_two_leaves_one_detector_events_to_same_source_pairs():
    # with the cross legs masked, a photon from source 1 reaches only A and
    # one from source 2 only B: the pairing (1, 2) always gives a coincidence,
    # while a same-source pair always lands on one detector
    rng = np.random.default_rng(10)
    for geometry, normalization in geometries():
        legs = oracle_legs(make_config(scenario="II", geometry=geometry,
                                       normalization=normalization))
        psi = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        psi /= np.linalg.norm(psi)
        analyzers = random_unitary(rng), random_unitary(rng)
        ab, aa, bb = events(legs, pure(psi), *analyzers, 0, 1)
        assert np.all(aa == 0.0) and np.all(bb == 0.0) and ab.sum() > 0.0
        ab, aa, bb = events(legs, pure(psi), *analyzers, 0, 0)
        assert np.all(ab == 0.0) and np.all(bb == 0.0) and aa.sum() > 0.0
