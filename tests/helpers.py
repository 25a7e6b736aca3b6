"""Shared builders for the test suite."""

import math
import re
from pathlib import Path

import numpy as np
import yaml

from skybell import BackgroundSpec, ExperimentConfig, Geometry, PolarizerAxis
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
