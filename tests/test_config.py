import math
import re

import numpy as np
import pytest
import yaml

from helpers import flatten, readme_config, readme_example

from skybell import BackgroundSpec, ConfigError, PolarizerAxis, config
from skybell.config import (
    SCHEMA_VERSION,
    dump_config,
    load_config,
    parse_config,
)


def base_doc():
    return yaml.safe_load(dump_config(readme_config()))


#: A valid value other than the README example's for each config value but schema_version.
OTHER_VALUES = {
    "scenario": "I",
    "bell_kind": 2,
    "entangled_fraction": 0.5,
    "geometry.source1": [-4.0, 0.0, 1000.0],
    "geometry.source2": [4.0, 0.0, 1000.0],
    "geometry.detector_a": [-2.0, 0.0, 0.0],
    "geometry.detector_b": [2.0, 0.0, 0.0],
    "geometry.wavenumber": 3.0,
    "propagation.normalization": "spherical",
    "background.axis1_deg": 10.0,
    "background.axis2_deg": 20.0,
    "background.alpha1": 2.0,
    "background.alpha2": 3.0,
    "background.weights.w12": 0.25,
    "background.weights.w21": 0.75,
    "background.weights.w11": 0.1,
    "background.weights.w22": 0.2,
    "chsh.a_deg": 5.0,
    "chsh.a_prime_deg": 50.0,
    "chsh.b_deg": 25.0,
    "chsh.b_prime_deg": 100.0,
    "rng.seed": 11,
}

#: The loaders config may build on; CSafeLoader exists only when PyYAML has libyaml.
LOADER_BASES = [getattr(yaml, n) for n in ("CSafeLoader", "SafeLoader") if hasattr(yaml, n)]


def test_default_config_values():
    loaded = readme_config()
    exp = loaded.experiment
    assert exp.scenario == "II"
    assert exp.bell_kind == 1
    assert exp.entangled_fraction == 0.3
    assert exp.background.alpha1 == 1.0
    assert exp.background.axis1.angle == 0.0
    assert loaded.seed == 0
    assert loaded.chsh.b.angle == pytest.approx(math.pi / 8)


def test_round_trip_through_yaml():
    loaded = readme_config()
    doc = yaml.safe_load(dump_config(loaded))
    assert doc["schema_version"] == SCHEMA_VERSION
    back = parse_config(doc)
    exp0, exp1 = loaded.experiment, back.experiment
    assert exp1.scenario == exp0.scenario
    assert exp1.bell_kind == exp0.bell_kind
    assert exp1.entangled_fraction == exp0.entangled_fraction
    assert exp1.propagator_normalization == exp0.propagator_normalization
    assert np.allclose(exp1.geometry.source1, exp0.geometry.source1)
    assert np.allclose(exp1.geometry.detector_b, exp0.geometry.detector_b)
    assert exp1.geometry.wavenumber == pytest.approx(exp0.geometry.wavenumber)
    assert exp1.background.axis1.angle == pytest.approx(exp0.background.axis1.angle)
    assert exp1.background.alpha2 == exp0.background.alpha2
    assert exp1.background.w12 == pytest.approx(exp0.background.w12)
    assert back.chsh.a_prime.angle == pytest.approx(loaded.chsh.a_prime.angle)
    assert back.seed == loaded.seed


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(dump_config(readme_config()), encoding="utf-8")
    loaded = load_config(path)
    assert loaded.experiment.scenario == "II"


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("text", [readme_example(), dump_config(readme_config())],
                         ids=["readme-example", "default-dump"])
def test_libyaml_and_python_loaders_agree(text):
    docs = [yaml.load(text, Loader=loader) for loader in (yaml.CSafeLoader, yaml.SafeLoader)]
    assert repr(docs[0]) == repr(docs[1])
    assert flatten(parse_config(docs[0])) == flatten(parse_config(docs[1]))


def test_exponent_floats_extend_both_loaders_alike():
    text = "a: 1e3\nb: '1e3'\nc: -2E5\nd: .5e1\ne: 3e-1\nf: 1.0e3\ng: 1.e3\nh: -2.E3\n"
    text += "i: '1.e3'\n"
    expected = {"a": 1000.0, "b": "1e3", "c": -200000.0, "d": 5.0, "e": 0.3, "f": 1000.0,
                "g": 1000.0, "h": -2000.0, "i": "1.e3"}
    for base in LOADER_BASES:
        assert repr(yaml.load(text, Loader=config._config_loader(base))) == repr(expected)
        # the base loader keeps YAML 1.1's reading
        assert yaml.load(text, Loader=base)["a"] == "1e3"


@pytest.mark.parametrize("text, key", [
    ("a: 1\nb: 2\na: 3\n", "a"),
    ("s:\n  x: 1\n  y: 2\n  x: 1\n", "x"),
    ("w: {p: 1, q: 2, p: 3}\n", "p"),
    ("m:\n  <<: {x: 1}\n  x: 2\n  x: 3\n", "x"),
])
def test_both_loaders_refuse_a_repeated_key(text, key):
    for base in LOADER_BASES:
        with pytest.raises(yaml.YAMLError, match=f"found repeated key '{key}'"):
            yaml.load(text, Loader=config._config_loader(base))


def test_a_merged_key_may_be_overridden():
    text = "base: &b {x: 1, y: 2}\nd:\n  <<: *b\n  x: 3\ne: {<<: [{x: 1}, {x: 2}]}\n"
    expected = {"base": {"x": 1, "y": 2}, "d": {"x": 3, "y": 2}, "e": {"x": 1}}
    for base in LOADER_BASES:
        assert yaml.load(text, Loader=config._config_loader(base)) == expected


def test_load_config_falls_back_to_the_python_loader(tmp_path, monkeypatch):
    path = tmp_path / "run.yaml"
    text, n = re.subn(r"(?m)^  alpha1: .*$", "  alpha1: 1e1", readme_example())
    assert n == 1
    path.write_text(text, encoding="utf-8")
    loaded = load_config(path)
    assert loaded.experiment.background.alpha1 == 10.0
    # the loader config builds when PyYAML has no libyaml
    monkeypatch.setattr(config, "_LOADER", config._config_loader(yaml.SafeLoader))
    assert flatten(load_config(path)) == flatten(loaded)


def test_load_config_rejects_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("scenario: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_angles_are_given_in_degrees():
    doc = base_doc()
    doc["background"]["axis1_deg"] = 45.0
    doc["chsh"]["b_deg"] = 30.0
    loaded = parse_config(doc)
    assert loaded.experiment.background.axis1.angle == pytest.approx(math.pi / 4)
    assert loaded.chsh.b.angle == pytest.approx(math.pi / 6)


def test_chsh_section_defaults_to_saturating_settings():
    doc = base_doc()
    del doc["chsh"]
    loaded = parse_config(doc)
    assert loaded.chsh.a.angle == 0.0
    assert loaded.chsh.a_prime.angle == pytest.approx(math.pi / 4)
    assert loaded.chsh.b_prime.angle == pytest.approx(7 * math.pi / 8)


def test_missing_fields_are_named():
    doc = base_doc()
    del doc["geometry"]["wavenumber"]
    with pytest.raises(ConfigError, match="geometry.wavenumber"):
        parse_config(doc)

    doc = base_doc()
    del doc["geometry"]
    with pytest.raises(ConfigError, match="^geometry: missing required section$"):
        parse_config(doc)

    doc = base_doc()
    del doc["geometry"]["source1"]
    with pytest.raises(ConfigError, match="^geometry.source1: missing required value$"):
        parse_config(doc)

    doc = base_doc()
    del doc["entangled_fraction"]
    with pytest.raises(ConfigError, match="entangled_fraction"):
        parse_config(doc)

    doc = base_doc()
    del doc["background"]["axis2_deg"]
    with pytest.raises(ConfigError, match="background.axis2_deg"):
        parse_config(doc)


def test_schema_version_is_checked():
    doc = base_doc()
    doc["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(doc)
    del doc["schema_version"]
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(doc)


def test_invalid_values_are_rejected_with_field_names():
    doc = base_doc()
    doc["scenario"] = "X"
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(doc)

    doc = base_doc()
    doc["entangled_fraction"] = 1.2
    with pytest.raises(ConfigError, match="entangled_fraction"):
        parse_config(doc)

    doc = base_doc()
    doc["entangled_fraction"] = "lots"
    with pytest.raises(ConfigError, match="entangled_fraction"):
        parse_config(doc)

    doc = base_doc()
    doc["background"]["alpha1"] = -2.0
    with pytest.raises(ConfigError, match="background"):
        parse_config(doc)

    doc = base_doc()
    doc["background"]["weights"]["w13"] = 0.5
    with pytest.raises(ConfigError, match="w13"):
        parse_config(doc)

    doc = base_doc()
    doc["geometry"]["source1"] = [1.0, 2.0]
    with pytest.raises(ConfigError, match="geometry.source1"):
        parse_config(doc)

    doc = base_doc()
    doc["geometry"]["wavenumber"] = -1.0
    with pytest.raises(ConfigError, match="geometry"):
        parse_config(doc)

    doc = base_doc()
    doc["rng"]["seed"] = -4
    with pytest.raises(ConfigError, match="rng.seed"):
        parse_config(doc)

    doc = base_doc()
    doc["rng"]["seed"] = True
    with pytest.raises(ConfigError, match="rng.seed"):
        parse_config(doc)

    with pytest.raises(ConfigError):
        parse_config(["not", "a", "mapping"])


@pytest.mark.parametrize(
    "field, values",
    [
        ("alpha1", {"alpha1": -2.0}),
        # 2 + 2 alpha, the source density's denominator, overflows
        ("alpha2", {"alpha2": 1e308}),
        ("weights.w12", {"weights": {"w12": -1.0}}),
        ("weights", {"weights": {"w12": 0.0, "w21": 0.0}}),
        # the sum of the weights overflows
        ("weights", {"weights": {"w12": 1e308, "w21": 1e308}}),
    ],
    ids=["alpha-negative", "alpha-1e308", "weight-negative", "weights-zero", "weights-overflow"],
)
def test_background_values_are_refused_by_background_spec_alone(field, values):
    doc = base_doc()
    bg = doc["background"]
    for key, value in values.items():
        bg[key] = {**bg[key], **value} if key == "weights" else value
    with pytest.raises(ValueError) as refusal:
        BackgroundSpec(
            axis1=PolarizerAxis(math.radians(bg["axis1_deg"])),
            axis2=PolarizerAxis(math.radians(bg["axis2_deg"])),
            alpha1=bg["alpha1"],
            alpha2=bg["alpha2"],
            **bg["weights"],
        )
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    # config only names the section; the message is the type's own
    assert str(exc.value) == f"background.{refusal.value}"
    assert str(exc.value).startswith(f"background.{field}: ")


def test_dump_config_writes_exactly_the_listed_keys():
    def sections(node, path=""):
        yield path, tuple(node)
        for key, value in node.items():
            if isinstance(value, dict):
                yield from sections(value, f"{path}.{key}" if path else key)

    assert dict(sections(base_doc())) == config._KEYS
    values = [f"{path}.{key}" if path else key
              for path, keys in config._KEYS.items() for key in keys]
    assert sorted(v for v in values if v not in config._KEYS) == sorted(
        ["schema_version", *OTHER_VALUES]
    )


@pytest.mark.parametrize("field", OTHER_VALUES)
def test_every_listed_value_is_read(field):
    doc = yaml.safe_load(readme_example())
    *parents, key = field.split(".")
    node = doc
    for part in parents:
        node = node[part]
    assert node[key] != OTHER_VALUES[field]
    node[key] = OTHER_VALUES[field]
    assert flatten(parse_config(doc)) != flatten(readme_config())


def test_optional_sections_may_be_absent():
    doc = base_doc()
    del doc["rng"]
    del doc["propagation"]
    doc["background"].pop("weights")
    loaded = parse_config(doc)
    assert loaded.seed == 0
    assert loaded.experiment.propagator_normalization == "phase-only"
    assert loaded.experiment.background.w12 == pytest.approx(0.5)


@pytest.mark.parametrize(
    "section, key",
    [
        ("", "entangled_fractoin"),
        ("geometry", "wave_number"),
        ("propagation", "normalisation"),
        ("background", "alpha3"),
        ("background.weights", "w13"),
        ("chsh", "c_deg"),
        ("rng", "sead"),
    ],
)
def test_unknown_keys_are_refused_by_name(section, key):
    doc = base_doc()
    node = doc
    for part in filter(None, section.split(".")):
        node = node[part]
    node[key] = 5
    label = f"{section}.{key}" if section else key
    with pytest.raises(ConfigError, match=f"^{re.escape(label)}: unknown key$"):
        parse_config(doc)

