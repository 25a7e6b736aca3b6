import dataclasses
import errno
import json
import math
import os
import re
import subprocess
import sys
import warnings
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
import yaml

from helpers import flatten, readme_config, readme_example

import skybell
from skybell import cli, scenarios
from skybell.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    SCAN_CSV_COLUMNS,
    read_scan_csv,
    run,
)
from skybell.config import dump_config, load_config


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(dump_config(readme_config()), encoding="utf-8")
    return path


@pytest.fixture
def scan_csv(config_path, tmp_path):
    path = tmp_path / "input_scan.csv"
    assert run(["scan", "--config", str(config_path), "--grid-a", "0:135:4",
                "--grid-b", "0:135:4", "--out", str(path)]) == EXIT_OK
    return path


# every subcommand, without --out; {config} and {scan} are filled in per test
SUBCOMMANDS = [
    ["chsh", "--config", "{config}"],
    ["scan", "--config", "{config}", "--grid-a", "0:90:2", "--grid-b", "0:90:2"],
    ["fit", "{scan}", "--beta1", "0", "--beta2", "0"],
    ["hbt", "--config", "{config}", "--baseline", "0:10:3"],
]

# the same subcommands run again with other arguments, so the output changes
RERUN_SUBCOMMANDS = [
    ["chsh", "--config", "{config}", "--angles", "0:30:10:70"],
    ["scan", "--config", "{config}", "--grid-a", "0:90:3", "--grid-b", "10:80:2"],
    ["fit", "{scan}", "--beta1", "10", "--beta2", "5"],
    ["hbt", "--config", "{config}", "--baseline", "0:20:5"],
]


def fill(argv, config, scan):
    return [a.format(config=config, scan=scan) for a in argv]


def write_variant(tmp_path, name, **updates):
    doc = yaml.safe_load(dump_config(readme_config()))
    for key, value in updates.items():
        node = doc
        parts = key.split(".")
        for p in parts[:-1]:
            node = node[p]
        node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return path


# ---------------------------------------------------------------- chsh


def test_chsh_analytic_output(config_path, capsys):
    assert run(["chsh", "--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "S = 1.096016 (analytic)"


def test_chsh_angle_override(config_path, capsys):
    code = run(["chsh", "--config", str(config_path), "--angles", "0:45:22.5:157.5"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "S = 1.096016 (analytic)"


def test_chsh_pure_signal(tmp_path, capsys):
    path = write_variant(tmp_path, "pure.yaml", entangled_fraction=1.0)
    assert run(["chsh", "--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "S = 2.828427 (analytic)"


def test_chsh_monte_carlo_report(config_path, tmp_path, capsys):
    out_path = tmp_path / "chsh.json"
    code = run(
        ["chsh", "--config", str(config_path), "--n", "50000", "--seed", "4",
         "--out", str(out_path)]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "S = 1.096016 (analytic)"
    assert lines[1].endswith("(monte carlo, n=50000 per setting)")

    report = json.loads(out_path.read_text())
    assert report["analytic_S"] == pytest.approx(1.0960155108391485)
    mc = report["monte_carlo"]
    assert mc["n_per_setting"] == 50000 and mc["seed"] == 4
    assert abs(mc["S_hat"] - report["analytic_S"]) < 5.0 * mc["stderr"]
    assert report["manifest"] == "chsh.json.manifest.json"

    manifest = json.loads((tmp_path / "chsh.json.manifest.json").read_text())
    assert manifest["command"] == "chsh"
    assert manifest["tool"] == "skybell"
    assert manifest["seed"] == 4
    assert str(out_path) in manifest["outputs"]
    assert manifest["created_utc"]


def test_chsh_missing_config_field(tmp_path, capsys):
    doc = yaml.safe_load(dump_config(readme_config()))
    del doc["entangled_fraction"]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert run(["chsh", "--config", str(path)]) == EXIT_CONFIG
    assert "entangled_fraction" in capsys.readouterr().err


def test_chsh_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert run(["chsh", "--config", str(missing)]) == EXIT_IO


# ---------------------------------------------------------------- scan


def test_scan_csv_layout(config_path, tmp_path):
    out_path = tmp_path / "scan.csv"
    code = run(
        ["scan", "--config", str(config_path), "--grid-a", "0:168.75:16",
         "--grid-b", "0:168.75:16", "--out", str(out_path)]
    )
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0] == "# manifest: scan.csv.manifest.json"
    assert lines[1] == ",".join(SCAN_CSV_COLUMNS)
    assert len(lines) == 2 + 256
    assert (tmp_path / "scan.csv.manifest.json").exists()

    # full-precision round trip
    scan = read_scan_csv(out_path)
    assert len(scan) == 256
    assert scan.theta_a[0] == 0.0
    assert scan.theta_b[1] == pytest.approx(math.radians(11.25), abs=0.0)
    # analytic scan records no seed in the manifest
    manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
    assert manifest["seed"] is None


def test_scan_csv_columns_follow_scan_result_fields():
    # write_scan_csv and read_scan_csv both map column i to field i of ScanResult
    names = tuple(field.name for field in dataclasses.fields(skybell.ScanResult))
    assert tuple(c.lower() for c in SCAN_CSV_COLUMNS) == names


def test_scan_is_deterministic_byte_for_byte(config_path, tmp_path):
    args = ["scan", "--config", str(config_path), "--grid-a", "0:90:4",
            "--grid-b", "0:90:4", "--n", "5000"]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    assert run(args + ["--out", str(p1)]) == EXIT_OK
    assert run(args + ["--out", str(p2)]) == EXIT_OK
    body1 = p1.read_text().splitlines()[1:]  # drop the manifest comment
    body2 = p2.read_text().splitlines()[1:]
    assert body1 == body2


def test_scan_round_trips_exact_floats(config_path, tmp_path):
    out_path = tmp_path / "scan.csv"
    run(["scan", "--config", str(config_path), "--grid-a", "0:170:8",
         "--grid-b", "0:170:8", "--out", str(out_path)])
    scan = read_scan_csv(out_path)
    from skybell import angular_scan

    direct = angular_scan(
        readme_config().experiment,
        np.deg2rad(np.linspace(0.0, 170.0, 8)),
        np.deg2rad(np.linspace(0.0, 170.0, 8)),
    )
    assert np.array_equal(scan.e, direct.e)
    assert np.array_equal(scan.theta_a, direct.theta_a)


def test_clean_scan_files_are_read_in_one_streamed_parse(scan_csv, tmp_path, monkeypatch):
    block_reads, block_read = [], cli._rows

    def no_fallback(source, skip=0):
        if not isinstance(source, (str, os.PathLike)):
            raise AssertionError("a clean scan was read on line by line")
        block_reads.append(source)
        return block_read(source, skip)

    expected = scenarios.angular_scan(
        readme_config().experiment, np.deg2rad(np.linspace(0.0, 135.0, 4)),
        np.deg2rad(np.linspace(0.0, 135.0, 4)),
    )
    written = tmp_path / "written.csv"
    cli.write_scan_csv(written, expected)
    monkeypatch.setattr(cli, "_rows", no_fallback)
    # the scan output starts with its "# manifest:" line, the written file with the header
    assert scan_csv.read_text(encoding="utf-8").startswith("# manifest: ")
    for path in (scan_csv, written):
        scan = read_scan_csv(path)
        assert block_reads.pop() == path and block_reads == []
        for field in dataclasses.fields(scan):
            assert getattr(scan, field.name).tobytes() == getattr(expected, field.name).tobytes()


def test_scan_rejects_bad_grid(config_path, tmp_path, capsys):
    code = run(["scan", "--config", str(config_path), "--grid-a", "0:90:0",
                "--grid-b", "0:90:4", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    code = run(["scan", "--config", str(config_path), "--grid-a", "0:90",
                "--grid-b", "0:90:4", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    code = run(["scan", "--config", str(config_path), "--grid-a", "0:nan:4",
                "--grid-b", "0:90:4", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert "--grid-a" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_scan_rejects_a_sample_size_beyond_int64(config_path, tmp_path, capsys):
    code = run(["scan", "--config", str(config_path), "--grid-a", "0:90:2",
                "--grid-b", "0:90:2", "--n", str(2**63), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--n" in captured.err and "2^63 - 1" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flag, argv", [
    pytest.param(flag, argv, id=flag) for flag, argv in (
        ("--grid-a", ["scan", "--grid-a", "1e308:-1e308:3", "--grid-b", "0:90:2"]),
        ("--grid-b", ["scan", "--grid-a", "0:90:2", "--grid-b=-1e308:1e308:3"]),
        ("--baseline", ["hbt", "--baseline", "1e308:-1e308:3"]),
    )
])
def test_grid_span_that_overflows_exits_two(config_path, tmp_path, capsys, flag, argv):
    # the suite turns warnings into errors, so a numpy overflow warning fails this
    out = tmp_path / "x.csv"
    assert run([*argv, "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}: the span stop - start overflows")
    assert not out.exists()


# step counts from 2^60 - 64 on, which no float64 array can hold, are refused
# before anything is allocated
UNHOLDABLE_STEPS = {"2^60-64": 2**60 - 64, "2^60": 2**60, "1e20": 10**20,
                    "2^63-1": 2**63 - 1, "2^63": 2**63}


# 7.11 PiB and 7.28 TiB exceed an ordinary host's memory, so the allocator refuses
# them at once and no page is ever touched
@pytest.mark.parametrize("argv, flag", [
    pytest.param(argv, None, id=name) for name, argv in (
        ("grid-a", ["scan", "--grid-a", "0:1:1000000000000000", "--grid-b", "0:90:2"]),
        ("outer-product", ["scan", "--grid-a", "0:1:1000000", "--grid-b", "0:1:1000000"]),
        ("baseline", ["hbt", "--baseline", "0:1:1000000000000000"]),
    )
] + [
    pytest.param(argv, flag, id=f"{flag[2:]}-{name}")
    for name, steps in UNHOLDABLE_STEPS.items()
    for flag, argv in (
        ("--grid-a", ["scan", "--grid-a", f"0:1:{steps}", "--grid-b", "0:90:2"]),
        ("--baseline", ["hbt", "--baseline", f"0:1:{steps}"]),
    )
])
def test_sizes_that_cannot_be_allocated_exit_two(config_path, tmp_path, capsys, argv, flag):
    out = tmp_path / "x.csv"
    assert run([*argv, "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: the requested sizes do not fit in memory")
    assert err.count("\n") == 1
    assert not out.exists()
    if flag:
        assert f"({flag}: at most {2**60 - 65} steps" in err


@pytest.mark.parametrize("argv, flag, value", [
    pytest.param(argv, flag, value, id=flag[2:]) for argv, flag, value in (
        (["scan", "--grid-b", "0:90:2"], "--grid-a", "-45:45:7"),
        (["hbt"], "--baseline", "-5:5:3"),
        (["chsh"], "--angles", "-22.5:22.5:0:45"),
    )
])
def test_a_negative_start_needs_an_equals_sign(config_path, tmp_path, capsys, argv, flag, value):
    argv = [*argv, "--config", str(config_path), "--out", str(tmp_path / "out")]
    # argparse reads "-45:..." as an option, not as the flag's value
    assert run([*argv, flag, value]) == EXIT_CONFIG
    assert f"argument {flag}: expected one argument" in capsys.readouterr().err
    assert run([*argv, f"{flag}={value}"]) == EXIT_OK


def test_grid_near_the_float_limit_parses_without_warning():
    # linspace overflows in i * step for the last point and then sets it to stop
    grid = cli._parse_grid("1.7976931348623157e308:0:7", "--grid-a")
    assert np.all(np.isfinite(grid)) and grid[0] == 1.7976931348623157e308 and grid[-1] == 0.0


# ---------------------------------------------------------------- fit


def test_scan_then_fit_recovers_the_fraction(config_path, tmp_path, capsys):
    scan_path = tmp_path / "scan.csv"
    fit_path = tmp_path / "fit.json"
    run(["scan", "--config", str(config_path), "--grid-a", "0:168.75:16",
         "--grid-b", "0:168.75:16", "--out", str(scan_path)])
    code = run(["fit", str(scan_path), "--beta1", "0", "--beta2", "0",
                "--out", str(fit_path)])
    assert code == EXIT_OK
    report = json.loads(fit_path.read_text())
    assert report["S_hat"] == pytest.approx(0.3, abs=1e-10)
    assert report["B_hat"] == pytest.approx(0.175, abs=1e-10)
    assert report["residual_rms"] < 1e-10
    assert report["bell_S"] == pytest.approx(0.3 * 2.0 * math.sqrt(2.0), abs=1e-9)
    assert report["violates_bell"] is False
    assert report["manifest"] == "fit.json.manifest.json"
    out = capsys.readouterr().out
    assert "S_hat = 0.300000" in out


def test_fit_flags_a_bell_violation(tmp_path, capsys):
    path = write_variant(tmp_path, "hot.yaml", entangled_fraction=0.9)
    scan_path = tmp_path / "scan.csv"
    run(["scan", "--config", str(path), "--grid-a", "0:168.75:16",
         "--grid-b", "0:168.75:16", "--out", str(scan_path)])
    assert run(["fit", str(scan_path), "--beta1", "0", "--beta2", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bell inequality violated" in out


def test_fit_degenerate_small_separation_scan(tmp_path, capsys):
    # close sources, unpolarized: the scan's own background column is parallel
    # to the signal shape, so the self-calibrating fit must refuse
    path = write_variant(
        tmp_path,
        "close.yaml",
        scenario="I",
        **{
            "geometry.source1": [-0.5, 0.0, 1000.0],
            "geometry.source2": [0.5, 0.0, 1000.0],
            "background.alpha1": 0.0,
            "background.alpha2": 0.0,
        },
    )
    scan_path = tmp_path / "scan.csv"
    run(["scan", "--config", str(path), "--grid-a", "0:168.75:16",
         "--grid-b", "0:168.75:16", "--out", str(scan_path)])
    code = run(["fit", str(scan_path), "--beta1", "0", "--beta2", "0",
                "--background-basis", "scan"])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "rank deficient" in err and "parallel" in err


def test_fit_rejects_foreign_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n", encoding="utf-8")
    assert run(["fit", str(bad), "--beta1", "0", "--beta2", "0"]) == EXIT_CONFIG

    missing = tmp_path / "missing.csv"
    assert run(["fit", str(missing), "--beta1", "0", "--beta2", "0"]) == EXIT_IO


def test_fit_rejects_non_finite_scan_values(config_path, tmp_path, capsys):
    scan_path = tmp_path / "scan.csv"
    run(["scan", "--config", str(config_path), "--grid-a", "0:135:4",
         "--grid-b", "0:135:4", "--out", str(scan_path)])
    lines = scan_path.read_text().splitlines()
    row = lines[4].split(",")
    row[2] = "nan"
    lines[4] = ",".join(row)
    scan_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["fit", str(scan_path), "--beta1", "0", "--beta2", "0"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "S_hat" not in captured.out
    assert str(scan_path) in captured.err
    assert "data row 3, column E" in captured.err


def fit_fails_on(path, capsys):
    """Run fit on ``path``, expect exit 2 naming the file; return stderr."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["fit", str(path), "--beta1", "0", "--beta2", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert str(path) in captured.err
    return captured.err


def replace_data_row(path, index, text):
    """Replace data row ``index`` (0-based, after the header) by ``text``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2 + index] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("index", [0, 7, 15])
@pytest.mark.parametrize("damage", [
    lambda row: row.rsplit(",", 1)[0],  # short row
    lambda row: row + ",0.5",  # long row
    lambda row: row.replace(",", ",abc,", 1).rsplit(",", 1)[0],  # non-numeric field
    lambda row: row.replace(",", ",,", 1).rsplit(",", 1)[0],  # empty field
    lambda row: row + " # note",  # a trailing comment is not a comment
    # Python's float() takes underscores and non-ASCII digits; scan files do not
    lambda row: "1_0," + row.split(",", 1)[1],
    lambda row: "\u0661," + row.split(",", 1)[1],
    lambda row: "0.\u0665," + row.split(",", 1)[1],
], ids=["short", "long", "non-numeric", "empty-field", "trailing-comment", "underscore",
        "arabic-indic-digit", "arabic-indic-decimal"])
def test_fit_rejects_a_malformed_scan_row(scan_csv, capsys, damage, index):
    row = scan_csv.read_text(encoding="utf-8").splitlines()[2 + index]
    bad = damage(row)
    replace_data_row(scan_csv, index, bad)
    err = fit_fails_on(scan_csv, capsys)
    assert f"malformed row {bad!r}" in err
    assert "usecols" not in err


def test_fit_rejects_a_lone_short_row(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text(",".join(SCAN_CSV_COLUMNS) + "\n1,2,3,4,5,6\n", encoding="utf-8")
    assert "malformed row '1,2,3,4,5,6'" in fit_fails_on(path, capsys)


@pytest.mark.parametrize("text", [
    "# manifest: x\n" + ",".join(SCAN_CSV_COLUMNS) + "\n",
    "# manifest: x\n\n" + ",".join(SCAN_CSV_COLUMNS) + "\n# trailing\n\n",
    "# manifest: x\n# nothing else\n",
    "",
], ids=["header-only", "header-and-comments", "comments-only", "empty"])
def test_fit_rejects_a_scan_without_data_rows(tmp_path, capsys, text):
    path = tmp_path / "empty.csv"
    path.write_text(text, encoding="utf-8")
    err = fit_fails_on(path, capsys)
    assert "no data rows" in err
    assert "input contained no data" not in err


def test_fit_skips_comment_and_blank_lines_between_rows(scan_csv, tmp_path, capsys):
    lines = scan_csv.read_text(encoding="utf-8").splitlines()
    padded = tmp_path / "padded.csv"
    body = [lines[0], "", lines[1]]
    for i, row in enumerate(lines[2:]):
        body += [row, "# between rows", "", "   ", "  # indented comment"][: 1 + i % 5]
    padded.write_text("\r\n".join(body) + "\r\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["fit", str(scan_csv), "--beta1", "0", "--beta2", "0"]) == EXIT_OK
    plain = capsys.readouterr()
    assert run(["fit", str(padded), "--beta1", "0", "--beta2", "0"]) == EXIT_OK
    assert capsys.readouterr() == plain
    plain_scan, padded_scan = read_scan_csv(scan_csv), read_scan_csv(padded)
    for field in dataclasses.fields(plain_scan):
        assert getattr(padded_scan, field.name).tobytes() == getattr(plain_scan, field.name).tobytes()


def scan_bytes(scan):
    """Each column of a scan as its bytes."""
    return [getattr(scan, field.name).tobytes() for field in dataclasses.fields(scan)]


def fit_outcome(path, capsys):
    """fit's exit code, stdout and stderr on ``path``, the path in stderr written ``<scan>``."""
    capsys.readouterr()
    code = run(["fit", str(path), "--beta1", "0", "--beta2", "0"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err.replace(str(path), "<scan>")


@pytest.mark.parametrize("suffix, tail", [
    (".gz", ""), (".bz2", ""), (".xz", ""), (".lzma", ""), (".gz", "1,2,3\n"),
], ids=[".gz", ".bz2", ".xz", ".lzma", ".gz-malformed"])
def test_fit_reads_plain_text_under_a_compressed_suffix(scan_csv, tmp_path, capsys, suffix, tail):
    # numpy's loadtxt opens a path with these suffixes through a decompressor
    renamed = tmp_path / f"scan{suffix}"
    scan_csv.write_text(scan_csv.read_text(encoding="utf-8") + tail, encoding="utf-8")
    renamed.write_bytes(scan_csv.read_bytes())
    outcome = fit_outcome(renamed, capsys)
    assert outcome == fit_outcome(scan_csv, capsys)
    if tail:
        assert outcome[0] == EXIT_CONFIG
        assert "scan file <scan>: malformed row '1,2,3'" in outcome[2]
    else:
        assert outcome[0] == EXIT_OK
        assert scan_bytes(read_scan_csv(renamed)) == scan_bytes(read_scan_csv(scan_csv))


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_a_scan_piped_to_dev_stdin_reads_like_the_file(config_path, tmp_path):
    # a pipe cannot be opened again from its start, and this file (about
    # 54 kB) is longer than the text buffer the header check reads ahead
    path = tmp_path / "scan.csv"
    assert run(["scan", "--config", str(config_path), "--grid-a", "0:170:20",
                "--grid-b", "0:170:20", "--out", str(path)]) == EXIT_OK
    child = ("import sys; from pathlib import Path; from skybell.cli import read_scan_csv; "
             "scan = read_scan_csv(Path('/dev/stdin')); "
             "print(*(getattr(scan, name).tobytes().hex() for name in sys.argv[1:]))")
    names = [field.name for field in dataclasses.fields(skybell.ScanResult)]
    result = subprocess.run([sys.executable, "-c", child, *names], input=path.read_bytes(),
                            capture_output=True, env=child_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    expected = " ".join(column.hex() for column in scan_bytes(read_scan_csv(path)))
    assert result.stdout.decode().strip() == expected


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("tail, message", [
    (b"1,2,3\n", "scan file /dev/stdin: malformed row '1,2,3'"),
    (b"0.5,0,0,0,0,0,\xff\n", "scan file /dev/stdin: not UTF-8 text"),
], ids=["malformed-row", "non-utf-8-byte"])
def test_a_refused_scan_piped_to_dev_stdin_exits_2_naming_it(scan_csv, tail, message):
    # a pipe can be read only once, and the refused row comes after the
    # head pass's first read-ahead buffer: 40 more copies of the rows are ~80 kB
    text = scan_csv.read_bytes()
    text += b"".join(text.splitlines(keepends=True)[2:]) * 40 + tail
    result = subprocess.run(
        [sys.executable, "-m", "skybell.cli", "fit", "/dev/stdin", "--beta1", "0", "--beta2", "0"],
        input=text, capture_output=True, env=child_env(), timeout=60,
    )
    assert result.returncode == EXIT_CONFIG, result.stderr
    assert result.stdout == b""
    assert message in result.stderr.decode()


def test_fit_rejects_a_correlator_beyond_one(tmp_path, capsys):
    path = tmp_path / "over.csv"
    rows = [",".join(SCAN_CSV_COLUMNS), "0,0.5,0.25,0,0,0,0", "0,0,2.0,0,0,0,0"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    err = fit_fails_on(path, capsys)
    assert "data row 2, column E: correlator 2.0 leaves [-1, 1]" in err


def test_fit_names_the_first_non_finite_value_in_row_order(scan_csv, capsys):
    lines = scan_csv.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[2:4]]
    rows[0][SCAN_CSV_COLUMNS.index("w_background")] = "nan"
    rows[1][SCAN_CSV_COLUMNS.index("theta_a")] = "inf"
    for index, row in enumerate(rows):
        replace_data_row(scan_csv, index, ",".join(row))
    err = fit_fails_on(scan_csv, capsys)
    assert f"scan file {scan_csv}: data row 1, column w_background: non-finite value nan" in err


def test_fit_rejects_a_scan_that_is_not_utf8(scan_csv, capsys):
    scan_csv.write_bytes(scan_csv.read_bytes() + b"0,0,0.5,0,0,0,0\xff\n")
    assert "not UTF-8 text" in fit_fails_on(scan_csv, capsys)


@pytest.mark.parametrize(
    "flag, value", [("--beta1", "nan"), ("--beta1", "inf"), ("--beta2", "1e999")]
)
def test_fit_rejects_non_finite_beta(scan_csv, capsys, flag, value):
    betas = {"--beta1": "0", "--beta2": "0", flag: value}
    argv = ["fit", str(scan_csv)] + [item for pair in betas.items() for item in pair]
    assert run(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{flag}: must be a finite number" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------- hbt


def test_hbt_fringe_scan(config_path, tmp_path):
    out_path = tmp_path / "hbt.csv"
    code = run(["hbt", "--config", str(config_path), "--baseline", "0:100:101",
                "--out", str(out_path)])
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0] == "# manifest: hbt.csv.manifest.json"
    assert lines[1] == "baseline_length,total_intensity,interference_term"
    assert len(lines) == 2 + 101
    # at zero baseline both detectors coincide and the fringe peaks
    assert lines[2] == "0.0,4.0,2.0"

    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    # fringe period is about 100 for this geometry, so the interference term
    # crosses zero near the quarter and three-quarter marks and dips negative
    assert rows[:, 2].min() < -1.9
    signs = np.sign(rows[:, 2])
    assert np.any(signs[:60] < 0) and signs[0] > 0
    # total = direct(2) + interference everywhere
    assert np.allclose(rows[:, 1], 2.0 + rows[:, 2], atol=1e-9)


def test_hbt_random_phases_change_nothing(config_path, tmp_path):
    p1 = tmp_path / "fixed.csv"
    p2 = tmp_path / "random.csv"
    run(["hbt", "--config", str(config_path), "--baseline", "0:50:11", "--out", str(p1)])
    run(["hbt", "--config", str(config_path), "--baseline", "0:50:11",
         "--random-phases", "--seed", "123", "--out", str(p2)])
    rows1 = [line for line in p1.read_text().splitlines()[2:]]
    rows2 = [line for line in p2.read_text().splitlines()[2:]]
    for r1, r2 in zip(rows1, rows2):
        v1 = [float(x) for x in r1.split(",")]
        v2 = [float(x) for x in r2.split(",")]
        assert v1[0] == v2[0]
        assert abs(v1[1] - v2[1]) < 1e-9
        assert abs(v1[2] - v2[2]) < 1e-9


def test_hbt_coincident_detectors_is_a_config_error(tmp_path, capsys):
    path = write_variant(tmp_path, "same.yaml", **{"geometry.detector_b": [-1.0, 0.0, 0.0]})
    out = tmp_path / "hbt.csv"
    code = run(["hbt", "--config", str(path), "--baseline", "0:10:3", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "geometry.detector_a" in err and "geometry.detector_b" in err
    assert not out.exists()
    # only the baseline direction needs distinct detectors
    assert run(["chsh", "--config", str(path)]) == EXIT_OK


def test_hbt_baseline_through_a_source_exits_three(tmp_path, capsys):
    # detector B passes through source 1 at L = 5
    path = write_variant(tmp_path, "through.yaml", **{
        "geometry.source1": [5.0, 0.0, 0.0],
        "geometry.detector_a": [0.0, 0.0, 0.0],
        "geometry.detector_b": [1.0, 0.0, 0.0],
    })
    out = tmp_path / "hbt.csv"
    code = run(["hbt", "--config", str(path), "--baseline", "0:10:11", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "1->B" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "hbt.csv.manifest.json").exists()


@pytest.mark.parametrize("argv", [a for a in SUBCOMMANDS if a[0] != "fit"])
def test_overflowing_intensity_exits_three(tmp_path, capsys, argv):
    # the 1/r leg from source 1 to detector A is ~2e157, so its square overflows
    path = write_variant(tmp_path, "tiny.yaml", **{
        "propagation.normalization": "spherical",
        "geometry.source1": [5.0e-158, 0.0, 0.0],
        "geometry.detector_a": [0.0, 0.0, 0.0],
    })
    out = tmp_path / "out"
    assert run(fill(argv, path, None) + ["--out", str(out)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical error:") and "Traceback" not in captured.err
    if argv[0] in ("chsh", "scan"):
        assert "coincidence rate is out of floating-point range" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.yaml"]


# ---------------------------------------------------------------- misc


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--seed", "-1"], "--seed"),
        (["--seed", str(2**64)], "--seed"),
        (["--n", "-5"], "--n"),
        (["--n", "0"], "--n"),
        (["--n", "many"], "--n"),
        (["--angles", "0:inf:22.5:157.5"], "--angles"),
        (["--n", str(2**63)], "--n"),
    ],
)
def test_bad_chsh_flags_exit_two(config_path, capsys, extra, flag):
    assert run(["chsh", "--config", str(config_path), *extra]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "field, value",
    [
        ("bell_kind", True),
        ("chsh.a_deg", math.inf),
        ("background.alpha1", math.nan),
        ("geometry.source1", [True, 0.0, 1000.0]),
        ("geometry.detector_a", ["-1", 0.0, 0.0]),
        ("propagation.normalization", "sph"),
        ("bell_kind", 2.0),
        ("schema_version", 1.0),
        # a 401-digit integer is beyond float range
        pytest.param("geometry.wavenumber", 10**400, id="geometry.wavenumber-10^400"),
        pytest.param("geometry.source1", [10**400, 0.0, 1000.0], id="geometry.source1-10^400"),
        pytest.param("background.alpha1", 10**400, id="background.alpha1-10^400"),
        # 2 + 2 alpha, the source density's denominator, overflows
        ("background.alpha1", 1e308),
        ("background.weights.w12", -1),
        ("background.weights", {"w12": 0, "w21": 0}),
        # the sum of the weights overflows
        ("background.weights", {"w12": 1e308, "w21": 1e308}),
    ],
)
def test_bad_config_values_exit_two(tmp_path, capsys, field, value):
    path = write_variant(tmp_path, "bad.yaml", **{field: value})
    assert run(["chsh", "--config", str(path)]) == EXIT_CONFIG
    assert field in capsys.readouterr().err


def readme_with(path, field, text):
    """Write the README example to ``path`` with the value of ``field`` spelt as ``text``."""
    key = field.rsplit(".", 1)[-1]
    doc, n = re.subn(rf"(?m)^(\s*{key}:) \S+", rf"\g<1> {text}", readme_example())
    assert n == 1
    path.write_text(doc, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "field, text",
    [
        ("entangled_fraction", "3e-1"),
        ("geometry.wavenumber", "1e3"),
        ("background.axis1_deg", "-2E5"),
        ("background.alpha1", ".5e1"),
        ("background.alpha2", "1.0e3"),
    ],
)
def test_exponent_config_numbers_load_as_floats(tmp_path, capsys, field, text):
    # YAML 1.1 alone reads each of these as a string
    path = readme_with(tmp_path / "exponent.yaml", field, text)
    assert run(["chsh", "--config", str(path)]) == EXIT_OK
    decimal = readme_with(tmp_path / "decimal.yaml", field, repr(float(text)))
    assert flatten(load_config(path)) == flatten(load_config(decimal))


def test_a_quoted_exponent_number_is_refused(tmp_path, capsys):
    path = readme_with(tmp_path / "quoted.yaml", "geometry.wavenumber", '"1e3"')
    assert run(["chsh", "--config", str(path)]) == EXIT_CONFIG
    assert "geometry.wavenumber: must be a number, got '1e3'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("propagation.normalisation", "spherical"), ("rng.sead", 5)]
)
def test_misspelt_config_keys_exit_two(tmp_path, capsys, field, value):
    # neither may fall back to its default (phase-only legs, seed 0)
    path = write_variant(tmp_path, "bad.yaml", **{field: value})
    assert run(["chsh", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: {field}: unknown key" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", SUBCOMMANDS)
def test_failed_output_write_leaves_no_manifest(config_path, scan_csv, tmp_path, argv):
    out = tmp_path / "taken"
    out.mkdir()  # a directory cannot be replaced by the output file
    assert run(fill(argv, config_path, scan_csv) + ["--out", str(out)]) == EXIT_IO
    assert not (tmp_path / "taken.manifest.json").exists()
    assert not (tmp_path / "taken.tmp").exists()
    assert out.is_dir() and not (tmp_path / "taken.old").exists()


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_an_unwritable_out_is_named_not_its_temp_file(config_path, scan_csv, tmp_path, capsys,
                                                      argv):
    out = tmp_path / "missing" / "r.json"
    capsys.readouterr()
    assert run(fill(argv, config_path, scan_csv) + ["--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and f"{str(out)!r}" in err
    assert f"{out}.tmp" not in err


@pytest.mark.parametrize(
    "first, second",
    zip(SUBCOMMANDS, RERUN_SUBCOMMANDS),
    ids=[argv[0] for argv in SUBCOMMANDS],
)
def test_rerun_replaces_output_and_manifest_with_fresh_files(
    config_path, scan_csv, tmp_path, first, second
):
    runs = tmp_path / "runs"
    runs.mkdir()
    out = runs / "out"
    first, second = (fill(argv, config_path, scan_csv) + ["--out", str(out)]
                     for argv in (first, second))
    manifest_path = runs / "out.manifest.json"
    assert run(first) == EXIT_OK
    old_bytes = [out.read_bytes(), manifest_path.read_bytes()]

    # held open, the old files keep their inodes and show any write into them
    with open(out, "rb") as old_out, open(manifest_path, "rb") as old_manifest:
        assert run(second) == EXIT_OK
        for old, path, before in zip((old_out, old_manifest), (out, manifest_path), old_bytes):
            assert os.fstat(old.fileno()).st_ino != path.stat().st_ino
            assert old.read() == before
    fresh = tmp_path / "fresh" / "out"
    fresh.parent.mkdir()
    assert run(second[:-1] + [str(fresh)]) == EXIT_OK
    assert out.read_bytes() == fresh.read_bytes() != old_bytes[0]
    manifest = json.loads(manifest_path.read_text())
    assert manifest["argv"] == second
    assert manifest["outputs"] == [str(out)] and out.exists()
    assert sorted(p.name for p in runs.iterdir()) == ["out", "out.manifest.json"]


@pytest.mark.parametrize("argv, with_config, seed", [
    (SUBCOMMANDS[0], True, 0),
    (SUBCOMMANDS[0] + ["--n", "1000", "--seed", "7"], True, 7),
    (SUBCOMMANDS[1], True, None),
    (SUBCOMMANDS[1] + ["--n", "100", "--seed", "3"], True, 3),
    (SUBCOMMANDS[2], False, None),
    (SUBCOMMANDS[3], True, None),
    (SUBCOMMANDS[3] + ["--random-phases", "--seed", "9"], True, 9),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_manifest_format_is_pinned(config_path, scan_csv, tmp_path, argv, with_config, seed):
    out = tmp_path / "out"
    argv = fill(argv, config_path, scan_csv) + ["--out", str(out)]
    assert run(argv) == EXIT_OK
    manifest = json.loads((tmp_path / "out.manifest.json").read_text(encoding="utf-8"))
    created = manifest.pop("created_utc")
    assert list(manifest.items()) == [
        ("command", argv[0]),
        ("argv", argv),
        ("config_path", str(config_path) if with_config else None),
        ("seed", seed),
        ("outputs", [str(out)]),
        ("tool", "skybell"),
        ("version", skybell.__version__),
    ]
    assert datetime.fromisoformat(created).utcoffset() == timedelta(0)


def refuse_temp_renames(monkeypatch, error):
    """Make renaming a ``*.tmp`` file raise ``error``, once its target name is free."""
    rename = os.rename

    def refuse_temp(source, target):
        if os.fspath(source).endswith(".tmp"):
            assert not os.path.exists(target)  # the previous file is already aside
            raise error(f"cannot rename {source} to {target}")
        return rename(source, target)

    monkeypatch.setattr(os, "rename", refuse_temp)


def test_stale_temp_files_are_replaced_not_written_through(config_path, tmp_path, monkeypatch):
    out = tmp_path / "scan.csv"
    argv = ["scan", "--config", str(config_path), "--grid-a", "0:90:2",
            "--grid-b", "0:90:2", "--out", str(out)]
    keep = tmp_path / "keep.txt"
    keep.write_text("keep\n", encoding="utf-8")
    # a killed run's temp and set-aside files, sharing an unrelated file's inode
    for suffix in (".tmp", ".old"):
        os.link(keep, tmp_path / f"scan.csv{suffix}")
        (tmp_path / f"scan.csv.manifest.json{suffix}").write_text("{", encoding="utf-8")

    # a failed run must not put a stale set-aside file back as its output
    with monkeypatch.context() as m:
        refuse_temp_renames(m, OSError)
        assert run(argv) == EXIT_IO
    assert not out.exists() and not (tmp_path / "scan.csv.manifest.json").exists()

    assert run(argv) == EXIT_OK
    assert keep.read_text(encoding="utf-8") == "keep\n"
    assert len(read_scan_csv(out)) == 4
    assert json.loads((tmp_path / "scan.csv.manifest.json").read_text())["command"] == "scan"
    assert not list(tmp_path.glob("*.tmp")) and not list(tmp_path.glob("*.old"))


@pytest.mark.parametrize("target", ["keep.txt", "missing.txt"], ids=["unrelated", "dangling"])
def test_a_stale_temp_symlink_is_replaced_not_followed(config_path, tmp_path, target):
    runs = tmp_path / "runs"
    runs.mkdir()
    out = runs / "scan.csv"
    keep = tmp_path / "keep.txt"
    keep.write_text("keep\n", encoding="utf-8")
    for name in ("scan.csv.tmp", "scan.csv.manifest.json.tmp"):
        os.symlink(tmp_path / target, runs / name)
    argv = ["scan", "--config", str(config_path), "--grid-a", "0:90:2",
            "--grid-b", "0:90:2", "--out", str(out)]

    assert run(argv) == EXIT_OK
    assert keep.read_text(encoding="utf-8") == "keep\n"
    assert not (tmp_path / "missing.txt").exists()
    assert sorted(p.name for p in runs.iterdir()) == ["scan.csv", "scan.csv.manifest.json"]
    assert not out.is_symlink() and len(read_scan_csv(out)) == 4
    assert json.loads((runs / "scan.csv.manifest.json").read_text())["outputs"] == [str(out)]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_short_writes_still_write_every_byte(config_path, scan_csv, tmp_path, monkeypatch, argv):
    whole, short = (tmp_path / side / "out" for side in ("whole", "short"))
    for out in (whole, short):
        out.parent.mkdir()
    assert run(fill(argv, config_path, scan_csv) + ["--out", str(whole)]) == EXIT_OK

    write, written = os.write, []

    def write_at_most_7_bytes(fd, data):
        written.append(write(fd, data[:7]))
        return written[-1]

    monkeypatch.setattr(os, "write", write_at_most_7_bytes)
    short_argv = fill(argv, config_path, scan_csv) + ["--out", str(short)]
    assert run(short_argv) == EXIT_OK
    monkeypatch.undo()

    manifest_path = short.with_name("out.manifest.json")
    assert short.read_bytes() == whole.read_bytes()
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["argv"] == short_argv and manifest["outputs"] == [str(short)]
    assert manifest_path.read_text(encoding="utf-8") == json.dumps(manifest, indent=2) + "\n"
    assert max(written) == 7
    assert sum(written) == short.stat().st_size + manifest_path.stat().st_size


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_failed_rename_keeps_previous_output_and_manifest(
    config_path, scan_csv, tmp_path, monkeypatch, argv, error
):
    runs = tmp_path / "runs"
    runs.mkdir()
    out = runs / "out"
    manifest_path = runs / "out.manifest.json"
    first, second = (fill(a, config_path, scan_csv) + ["--out", str(out)]
                     for a in (argv, RERUN_SUBCOMMANDS[SUBCOMMANDS.index(argv)]))
    assert run(first) == EXIT_OK
    old_bytes = [out.read_bytes(), manifest_path.read_bytes()]

    refuse_temp_renames(monkeypatch, error)
    if error is OSError:
        assert run(second) == EXIT_IO
    else:
        with pytest.raises(KeyboardInterrupt):
            run(second)
    assert [out.read_bytes(), manifest_path.read_bytes()] == old_bytes
    assert sorted(p.name for p in runs.iterdir()) == ["out", "out.manifest.json"]


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_failed_manifest_write_keeps_previous_output_and_manifest(
    config_path, scan_csv, tmp_path, monkeypatch, argv, error
):
    runs = tmp_path / "runs"
    runs.mkdir()
    out = runs / "out"
    manifest_path = runs / "out.manifest.json"
    first, second = (fill(a, config_path, scan_csv) + ["--out", str(out)]
                     for a in (argv, RERUN_SUBCOMMANDS[SUBCOMMANDS.index(argv)]))
    assert run(first) == EXIT_OK
    old_bytes = [out.read_bytes(), manifest_path.read_bytes()]

    open_file = os.open

    def disk_full_at_manifest(path, *args, **kwargs):
        if os.fspath(path).endswith(".manifest.json.tmp"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)) if error is OSError else error
        return open_file(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", disk_full_at_manifest)
    # both texts are written before any file is moved, so nothing is renamed
    monkeypatch.setattr(os, "rename", lambda source, target: pytest.fail(f"renamed {source}"))
    if error is OSError:
        assert run(second) == EXIT_IO
    else:
        with pytest.raises(KeyboardInterrupt):
            run(second)
    assert [out.read_bytes(), manifest_path.read_bytes()] == old_bytes
    assert sorted(p.name for p in runs.iterdir()) == ["out", "out.manifest.json"]


@pytest.mark.parametrize("rerun", [False, True], ids=["first run", "re-run"])
def test_failed_manifest_rename_takes_the_new_output_back(config_path, tmp_path, monkeypatch, rerun):
    runs = tmp_path / "runs"
    runs.mkdir()
    argv = ["scan", "--config", str(config_path), "--grid-a", "0:90:2",
            "--grid-b", "0:90:2", "--out", str(runs / "scan.csv")]
    if rerun:
        assert run(argv[:4] + ["0:90:3"] + argv[5:]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in runs.iterdir()}
    rename = os.rename

    def refuse_manifest(source, target):
        if os.fspath(source).endswith(".manifest.json.tmp"):
            raise OSError(errno.EIO, f"cannot rename {source} to {target}")
        return rename(source, target)

    # the output is already renamed onto its name when its manifest fails
    monkeypatch.setattr(os, "rename", refuse_manifest)
    assert run(argv) == EXIT_IO
    assert {p.name: p.read_bytes() for p in runs.iterdir()} == before


def test_a_directory_at_the_manifest_path_exits_four(config_path, tmp_path):
    out = tmp_path / "scan.csv"
    (tmp_path / "scan.csv.manifest.json").mkdir()
    argv = ["scan", "--config", str(config_path), "--grid-a", "0:90:2",
            "--grid-b", "0:90:2", "--out", str(out)]
    assert run(argv) == EXIT_IO
    assert [p.name for p in tmp_path.glob("scan.csv*")] == ["scan.csv.manifest.json"]
    assert (tmp_path / "scan.csv.manifest.json").is_dir()


@pytest.mark.parametrize("out", ["", ".", "/", "results/", "sub/.", ".."],
                         ids=["empty", "dot", "root", "trailing-slash", "trailing-dot", "dot-dot"])
@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_an_out_without_a_file_name_exits_four_before_any_work(
    config_path, scan_csv, tmp_path, monkeypatch, capsys, argv, out
):
    def unreachable(path):
        raise AssertionError(f"read {path} before refusing --out")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_config", unreachable)
    monkeypatch.setattr(cli, "read_scan_csv", unreachable)
    written = [out + suffix for suffix in (".manifest.json", ".tmp", ".manifest.json.tmp")]
    before = sorted(os.listdir(tmp_path)), [os.path.lexists(p) for p in written]
    capsys.readouterr()
    assert run(fill(argv, config_path, scan_csv) + ["--out", out]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"i/o error: --out {out!r} names no file\n"
    assert (sorted(os.listdir(tmp_path)), [os.path.lexists(p) for p in written]) == before


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_an_out_is_written_and_listed_at_its_normalized_path(
    config_path, scan_csv, tmp_path, monkeypatch, argv
):
    monkeypatch.chdir(tmp_path)
    os.mkdir("sub")
    assert run(fill(argv, config_path, scan_csv) + ["--out", "./sub//./out"]) == EXIT_OK
    assert sorted(os.listdir("sub")) == ["out", "out.manifest.json"]
    manifest = json.loads(Path("sub/out.manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"] == ["sub/out"]
    assert "out.manifest.json" in Path("sub/out").read_text(encoding="utf-8")


def test_config_that_is_not_utf8_exits_two(config_path, capsys):
    config_path.write_bytes(config_path.read_bytes() + b"# \xff\n")
    assert run(["chsh", "--config", str(config_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config file {config_path}: not UTF-8 text" in captured.err


@pytest.mark.parametrize("text", [
    "schema_version: 1\nscenario: [II\n",
    "schema_version: 1\n\tscenario: II\n",
], ids=["unclosed-flow-sequence", "tab-indented-key"])
def test_malformed_yaml_exits_two(tmp_path, capsys, text):
    path = tmp_path / "broken.yaml"
    path.write_text(text, encoding="utf-8")
    assert run(["chsh", "--config", str(path)]) == EXIT_CONFIG
    assert f"could not parse config file {path}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["chsh", "--config", "{config}", "--n", "1000"],
    ["scan", "--config", "{config}", "--grid-a", "0:90:3", "--grid-b", "0:90:3"],
    ["scan", "--config", "{config}", "--grid-a", "0:90:3", "--grid-b", "0:90:3", "--n", "100"],
], ids=["chsh-n", "scan", "scan-n"])
def test_each_run_builds_its_model_once(config_path, tmp_path, monkeypatch, argv):
    builds = []
    build = scenarios._build_model

    def counting_build(cfg):
        builds.append(cfg)
        return build(cfg)

    monkeypatch.setattr(scenarios, "_build_model", counting_build)
    argv = fill(argv, config_path, None) + ["--out", str(tmp_path / "out")]
    assert run(argv) == EXIT_OK
    assert len(builds) == 1


def test_usage_errors_exit_two(capsys):
    assert run([]) == EXIT_CONFIG
    assert run(["chsh"]) == EXIT_CONFIG  # --config is required


def test_version_flag(capsys):
    assert run(["--version"]) == EXIT_OK
    assert "skybell" in capsys.readouterr().out


def child_env():
    """An environment whose Python imports this process's skybell, installed or not."""
    src = str(Path(skybell.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point(config_path):
    result = subprocess.run(
        [sys.executable, "-m", "skybell.cli", "chsh", "--config", str(config_path)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "S = 1.096016 (analytic)"


# argvs whose parse ends in help, a version or a usage error; no handler runs
PARSE_EXITS = [
    *([name, "--help"] for name in cli.COMMANDS),
    [],
    ["--help"],
    ["-h"],
    ["--version"],
    ["--vers"],
    ["survey", "--config", "x.yaml"],
    ["chsh", "--version"],
    ["--config", "x.yaml", "chsh"],
    # a missing required option or positional
    ["chsh"],
    ["scan", "--config", "x.yaml", "--grid-a", "0:90:2", "--out", "o.csv"],
    ["fit", "--beta1", "0", "--beta2", "0"],
    ["hbt", "--config", "x.yaml", "--out", "o.csv"],
    # a bad type= value or choice
    ["chsh", "--config", "x.yaml", "--n", "many"],
    ["scan", "--config", "x.yaml", "--grid-a", "0:90:2", "--grid-b", "0:90:2",
     "--out", "o.csv", "--seed", "-1"],
    ["fit", "s.csv", "--beta1", "nan", "--beta2", "0"],
    ["fit", "s.csv", "--beta1", "0", "--beta2", "0", "--background-basis", "other"],
    # an unrecognized option
    ["chsh", "--config", "x.yaml", "--bogus"],
    ["hbt", "--config", "x.yaml", "--baseline", "0:1:2", "--out", "o.csv", "--frob", "1"],
    # an extra positional
    ["chsh", "--config", "x.yaml", "extra"],
    ["fit", "a.csv", "b.csv", "--beta1", "0", "--beta2", "0"],
]


@pytest.mark.parametrize("argv", PARSE_EXITS, ids=" ".join)
def test_parse_matches_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    full = capsys.readouterr()
    assert run(argv) == (exc.value.code or EXIT_OK)
    assert capsys.readouterr() == full


def test_a_subcommand_run_builds_only_its_own_parser(config_path, monkeypatch, capsys):
    def refuse():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run(["chsh", "--config", str(config_path)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "S = 1.096016 (analytic)"
