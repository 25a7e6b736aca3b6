"""YAML run configuration: parsing, validation, and degree conversion.

Config files are human-written, so angles are given in degrees and every
validation failure names the offending field: config checks each value's
YAML type and finiteness, the type a section builds alone refuses a value
out of range, and config puts the section's name before its message.  A
key that ``dump_config`` does not write is refused, so a misspelt one
cannot fall back to a default.  Internally everything is radians.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
import yaml

from .background import BackgroundSpec
from .errors import ConfigError
from .polarization import ChshConfiguration, PolarizerAxis
from .propagation import NORMALIZATIONS, Geometry
from .scenarios import ExperimentConfig

SCHEMA_VERSION = 1

#: Exponent numbers such as ``1e3``, ``3e-1``, ``.5e1`` or ``1.e3``; YAML 1.1 alone
#: reads them as strings unless the mantissa has a dot and the exponent a sign.
_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$")


class _UniqueKeys:
    """Loader mixin that refuses a key repeated in one mapping.

    A clean mapping has as many keys as entries, so only one that does not
    is searched.  Merge keys (``<<``) are not entries, and a key one brings
    in may be overridden, as YAML allows.
    """

    def construct_mapping(self, node, deep=False):
        pairs = list(node.value)  # flattening drops the merge keys from node.value
        mapping = super().construct_mapping(node, deep=deep)
        if len(mapping) != len(pairs):
            seen = set()
            for key_node, _ in pairs:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found repeated key {key!r}", key_node.start_mark,
                    )
                seen.add(key)
        return mapping


def _config_loader(base: type) -> type:
    """A subclass of the loader ``base`` that reads ``_EXPONENT_FLOAT`` as a
    float and refuses a key repeated in one mapping."""
    loader = type(f"Config{base.__name__}", (_UniqueKeys, base), {})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+.0123456789"))
    return loader


#: libyaml's parser when PyYAML was built with it, else the pure-Python one;
#: both use the same safe resolver and constructor, so documents are equal.
_LOADER = _config_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))

#: The keys of the root ("") and of each section, as ``dump_config`` writes them.
_KEYS = {
    "": (
        "schema_version", "scenario", "bell_kind", "entangled_fraction",
        "geometry", "propagation", "background", "chsh", "rng",
    ),
    "geometry": ("source1", "source2", "detector_a", "detector_b", "wavenumber"),
    "propagation": ("normalization",),
    "background": ("axis1_deg", "axis2_deg", "alpha1", "alpha2", "weights"),
    "background.weights": ("w12", "w21", "w11", "w22"),
    "chsh": ("a_deg", "a_prime_deg", "b_deg", "b_prime_deg"),
    "rng": ("seed",),
}


@dataclass(frozen=True)
class LoadedConfig:
    """An experiment plus the run-level settings carried in the same file."""

    experiment: ExperimentConfig
    chsh: ChshConfiguration
    seed: int


def _known_keys(mapping: dict, path: str) -> dict:
    """``mapping`` if each of its keys is one of ``_KEYS[path]``, else name the first other."""
    for key in mapping:
        if key not in _KEYS[path]:
            raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
    return mapping


def _section(doc: dict, label: str, required: bool = True) -> dict:
    """The mapping at ``label`` (a dotted path; ``doc`` holds its last part)."""
    name = label.rsplit(".", 1)[-1]
    if name not in doc:
        if required:
            raise ConfigError(f"{label}: missing required section")
        return {}
    value = doc[name]
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{label}: must be a mapping")
    return _known_keys(value, label)


def _is_number(value) -> bool:
    # YAML booleans are ints to Python; a config number is never one
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value, label: str) -> float:
    """A config number as a float; an int beyond float range is not finite."""
    if not _is_number(value):
        raise ConfigError(f"{label}: must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{label}: must be finite, got {value!r}")
    return number


def _number(section: dict, path: str, key: str) -> float:
    label = f"{path}.{key}" if path else key
    if key not in section:
        raise ConfigError(f"{label}: missing required value")
    return _float(section[key], label)


def _axis(section: dict, path: str, key: str) -> PolarizerAxis:
    return PolarizerAxis(math.radians(_number(section, path, key)))


def _point(section: dict, path: str, key: str) -> np.ndarray:
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required value")
    value = section[key]
    if not (isinstance(value, (list, tuple)) and len(value) == 3 and all(map(_is_number, value))):
        raise ConfigError(f"{path}.{key}: must be a list of 3 numbers, got {value!r}")
    return np.array([_float(v, f"{path}.{key}") for v in value])


def _built(prefix: str, build, /, **fields):
    """``build(**fields)``; the type's own refusal (a ValueError) becomes a
    ConfigError with ``prefix``, the section's name, in front."""
    try:
        return build(**fields)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def parse_config(doc: dict) -> LoadedConfig:
    """Validate a parsed YAML document and build the typed configuration."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")

    version = doc.get("schema_version")
    # integers are exactly int: a YAML boolean is a bool and 1.0 a float
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    _known_keys(doc, "")

    fraction = _number(doc, "", "entangled_fraction")

    geo = _section(doc, "geometry")
    geometry = _built(
        "geometry: ", Geometry,
        **{key: _point(geo, "geometry", key) for key in _KEYS["geometry"][:4]},
        wavenumber=_number(geo, "geometry", "wavenumber"),
    )

    bg = _section(doc, "background")
    weights = _section(bg, "background.weights", required=False)
    background = _built(
        "background.", BackgroundSpec,
        axis1=_axis(bg, "background", "axis1_deg"),
        axis2=_axis(bg, "background", "axis2_deg"),
        alpha1=_number(bg, "background", "alpha1"),
        alpha2=_number(bg, "background", "alpha2"),
        # a weight left out keeps BackgroundSpec's default
        **{key: _number(weights, "background.weights", key) for key in weights},
    )

    prop = _section(doc, "propagation", required=False)
    normalization = prop.get("normalization", ExperimentConfig.propagator_normalization)
    if normalization not in NORMALIZATIONS:
        raise ConfigError(
            f"propagation.normalization: must be one of {NORMALIZATIONS}, got {normalization!r}"
        )

    experiment = _built(
        "", ExperimentConfig,
        scenario=doc.get("scenario"),
        bell_kind=doc.get("bell_kind", 1),
        entangled_fraction=fraction,
        background=background,
        geometry=geometry,
        propagator_normalization=normalization,
    )

    chsh_section = _section(doc, "chsh", required=False)
    if chsh_section:
        chsh = ChshConfiguration(*(_axis(chsh_section, "chsh", key) for key in _KEYS["chsh"]))
    else:
        chsh = ChshConfiguration.saturating()

    rng = _section(doc, "rng", required=False)
    seed = rng.get("seed", 0)
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ConfigError(f"rng.seed: must be an integer in [0, 2^64), got {seed!r}")

    return LoadedConfig(experiment=experiment, chsh=chsh, seed=seed)


def load_config(path) -> LoadedConfig:
    """Load and validate a YAML config file (UTF-8 text)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"could not parse config file {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path}: not UTF-8 text ({exc.reason})") from exc
    return parse_config(doc)


def _degrees(angle: float) -> float:
    """The degrees of an axis angle, chosen to load back as exactly ``angle``.

    ``math.degrees`` alone is one ulp off for about one angle in twenty read
    from a file; a neighbouring float then converts back exactly.  An angle
    that no float in degrees reaches (one normalized into [0, pi) on load)
    keeps ``math.degrees``.
    """
    d = math.degrees(angle)
    for candidate in (d, math.nextafter(d, math.inf), math.nextafter(d, -math.inf)):
        if PolarizerAxis(math.radians(candidate)).angle == angle:
            return candidate
    return d


def dump_config(loaded: LoadedConfig) -> str:
    """Serialize a configuration back to YAML (angles in degrees).

    A configuration read by ``parse_config`` with its angles in [0, 180)
    degrees loads back from this text exactly; any other one does after
    one more pass.
    """
    exp = loaded.experiment
    bg = exp.background
    geo = exp.geometry
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": exp.scenario,
        "bell_kind": exp.bell_kind,
        "entangled_fraction": exp.entangled_fraction,
        "geometry": {
            "source1": [float(v) for v in geo.source1],
            "source2": [float(v) for v in geo.source2],
            "detector_a": [float(v) for v in geo.detector_a],
            "detector_b": [float(v) for v in geo.detector_b],
            "wavenumber": geo.wavenumber,
        },
        "propagation": {"normalization": exp.propagator_normalization},
        "background": {
            "axis1_deg": _degrees(bg.axis1.angle),
            "axis2_deg": _degrees(bg.axis2.angle),
            "alpha1": bg.alpha1,
            "alpha2": bg.alpha2,
            "weights": {"w12": bg.w12, "w21": bg.w21, "w11": bg.w11, "w22": bg.w22},
        },
        "chsh": {
            "a_deg": _degrees(loaded.chsh.a.angle),
            "a_prime_deg": _degrees(loaded.chsh.a_prime.angle),
            "b_deg": _degrees(loaded.chsh.b.angle),
            "b_prime_deg": _degrees(loaded.chsh.b_prime.angle),
        },
        "rng": {"seed": loaded.seed},
    }
    return yaml.safe_dump(doc, sort_keys=False)

