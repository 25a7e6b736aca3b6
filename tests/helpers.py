"""Shared builders for the test suite."""

import math
import re
from pathlib import Path

import numpy as np
import yaml

import oracle

from skybell import (
    BackgroundSpec, ExperimentConfig, Geometry, PolarizerAxis, effective_amplitudes, scenarios,
)
from skybell.config import parse_config


def readme_example():
    """The YAML run configuration shown in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(r"```yaml\n(.*?)```", readme, re.DOTALL).group(1)


def readme_config():
    """The README example configuration, parsed."""
    return parse_config(yaml.safe_load(readme_example()))


def far_field_geometry(split=10.0, distance=1000.0, baseline=2.0, wavenumber=2.0 * math.pi):
    """Two sources high above two detectors, symmetric about the z axis."""
    return Geometry(
        source1=np.array([-split / 2.0, 0.0, distance]),
        source2=np.array([split / 2.0, 0.0, distance]),
        detector_a=np.array([-baseline / 2.0, 0.0, 0.0]),
        detector_b=np.array([baseline / 2.0, 0.0, 0.0]),
        wavenumber=wavenumber,
    )


def random_geometry(rng):
    """Random positions with the sources pushed well away from the detectors."""
    while True:
        pts = rng.uniform(-3.0, 3.0, size=(4, 3))
        pts[:2, 2] += 20.0
        try:
            return Geometry(
                source1=pts[0],
                source2=pts[1],
                detector_a=pts[2],
                detector_b=pts[3],
                wavenumber=float(rng.uniform(0.5, 8.0)),
            )
        except ValueError:
            continue


def make_config(
    scenario="II",
    bell_kind=1,
    fraction=0.3,
    alpha1=1.0,
    alpha2=1.0,
    axis1=0.0,
    axis2=0.0,
    geometry=None,
    normalization="phase-only",
    **weights,
):
    background = BackgroundSpec(
        axis1=PolarizerAxis(axis1),
        axis2=PolarizerAxis(axis2),
        alpha1=alpha1,
        alpha2=alpha2,
        **weights,
    )
    return ExperimentConfig(
        scenario=scenario,
        bell_kind=bell_kind,
        entangled_fraction=fraction,
        background=background,
        geometry=geometry if geometry is not None else far_field_geometry(),
        propagator_normalization=normalization,
    )


def bits(values):
    """Floats as hex strings, so equality is bitwise (0.0 and -0.0 differ)."""
    return [float(v).hex() if isinstance(v, float) else v for v in values]


def flatten(loaded):
    """Every field of a LoadedConfig in one list, floats bitwise."""
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


def outcome_rates(k, theta_a, theta_b):
    """Rates of the four OUTCOME_PAIRS over two angle grids, read off any 3x3 tensor K.

    The arithmetic of the model's private rate reader, which the sampler's
    distributions run.  Point (i, j) holds its four rates in the last axis;
    a scalar angle has no axis, so one setting pair gives a 4-vector.
    """
    bars_a, bars_b = scenarios._outcome_vectors(theta_a), scenarios._outcome_vectors(theta_b)
    rates = scenarios._outcome_rates(k, bars_a, bars_b)
    return rates.reshape(np.shape(theta_a) + np.shape(theta_b) + (4,))


def oracle_legs(cfg):
    """cfg's legs ((d1A, d1B), (d2A, d2B)), read off ``effective_amplitudes``."""
    amps = effective_amplitudes(cfg)
    return (amps.d1a, amps.d1b), (amps.d2a, amps.d2b)


def oracle_rates(cfg, analyzer_a, analyzer_b):
    """The oracle's (signal, background) coincidence rates for cfg, one per outcome pair.

    The signal is the Bell state of cfg's kind from sources (1, 2), the
    background each pairing's product state by its weight, with the
    densities read off cfg's background.
    """
    legs = oracle_legs(cfg)
    rhos = [density.rho for density in cfg.background.densities()]
    signal = oracle.events(legs, oracle.pure(oracle.BELL[cfg.bell_kind]), analyzer_a, analyzer_b)
    background = sum(
        w * oracle.events(legs, np.kron(rhos[i], rhos[j]), analyzer_a, analyzer_b, i, j)[0]
        for w, i, j in cfg.background.pairings()
    )
    return signal[0], background
