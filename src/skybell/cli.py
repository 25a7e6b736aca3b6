"""Command-line interface: chsh, scan, fit, and hbt subcommands.

Every output file is paired with a JSON run manifest (same path plus
".manifest.json") recording the command, config, seed and outputs; CSV
files carry a leading "# manifest: ..." comment pointing back at it.
Floats are written with full repr precision so files round-trip exactly;
each distinct value of a column is formatted once (``_csv_rows``).

Every file is written by ``_write_text`` so that no rename lands on an
existing name and nothing is truncated: the text goes to a new
``<name>.tmp``, the previous file is moved aside to ``<name>.old``, the
temp file is renamed onto the free name and the old file is unlinked.
On ext4 (default ``auto_da_alloc``) truncating a file or renaming over one
forces a writeback that blocks a re-run onto an existing output for tens
of milliseconds per file; a run onto a new path never paid it.  A
subcommand moves its previous manifest aside too and writes the new one
last.  A run that raises (Ctrl-C included) puts the previous output and
manifest back, and a killed one may leave them at ``<name>.old``, so a
manifest never lists a file that was not written.  Nothing calls fsync:
the files are not promised to survive a power loss, and a reader racing
a re-run may briefly find no file.

Exit codes: 0 success, 2 config/usage error, 3 numerical or degeneracy
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import LoadedConfig, load_config
from .errors import ConfigError, SkybellError
from .montecarlo import MAX_SAMPLE_SIZE, estimate_chsh, sample_scan
from .polarization import ChshConfiguration, PolarizerAxis
from .propagation import hbt_scan
from .scenarios import (
    E_TOL,
    ScanResult,
    angular_scan,
    chsh_with_background,
    extract_signal,
)

#: Scan CSV header; column i holds field i of ScanResult (names lower-cased).
SCAN_CSV_COLUMNS = (
    "theta_a",
    "theta_b",
    "E",
    "E_signal",
    "E_background",
    "w_signal",
    "w_background",
)
HBT_CSV_COLUMNS = ("baseline_length", "total_intensity", "interference_term")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@dataclasses.dataclass
class RunManifest:
    """Provenance record written alongside every output file."""

    command: str
    argv: list[str]
    config_path: str | None
    seed: int | None
    outputs: list[str]
    tool: str = "skybell"
    version: str = __version__
    created_utc: str = ""

    def write(self, path: Path) -> None:
        doc = dataclasses.asdict(self)
        doc["created_utc"] = datetime.now(timezone.utc).isoformat()
        _write_text(path, json.dumps(doc, indent=2) + "\n")


def _manifest_path(out_path: Path) -> Path:
    return out_path.with_name(out_path.name + ".manifest.json")


@contextlib.contextmanager
def _moved_aside(path: Path):
    """Move ``path`` to ``<name>.old`` around the body, onto a free name.

    If the body fails, the old file is put back at ``path``; if it returns,
    the old file is unlinked.  Only putting it back may rename over an
    existing file.  A directory at ``path`` is refused, not moved.
    """
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    old = path.with_name(path.name + ".old")
    old.unlink(missing_ok=True)
    try:
        with contextlib.suppress(FileNotFoundError):
            path.rename(old)
        yield
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            old.replace(path)
        raise
    old.unlink(missing_ok=True)


@contextlib.contextmanager
def _manifested(out_path: Path, command: str, argv, config_path, seed):
    """Around the write of ``out_path``: move its manifest aside, then write a new one.

    The new manifest is written only if the body returns; if the body fails,
    the previous manifest is put back beside the previous output, which
    ``_write_text`` has put back too.
    """
    manifest = _manifest_path(out_path)
    with _moved_aside(manifest):
        yield
    RunManifest(
        command=command,
        argv=list(argv),
        config_path=str(config_path) if config_path else None,
        seed=seed,
        outputs=[str(out_path)],
    ).write(manifest)


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as a fresh file, never over the old one in place.

    A stale ``<name>.tmp`` is removed and the text goes to a new one; the
    old ``path`` is moved aside while the temp file is renamed onto the
    free name.  A failed write leaves the previous ``path`` as it was and
    no temp file.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.unlink(missing_ok=True)
        tmp.write_text(text, encoding="utf-8")
        with _moved_aside(path):
            tmp.rename(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_rows(*columns):
    """One CSV line per row of the columns, each value as the repr of a Python float.

    Each distinct value of a column is formatted once.  Values are keyed by
    their bits in a dict, so -0.0 and 0.0 (and every NaN) keep their own
    repr, and the lines are the same as formatting every value.  A column
    with no repeat is formatted row by row and the lines are made as they
    are read, so no column's strings are all held at once.
    """
    formatted = []
    for column in columns:
        column = np.asarray(column, dtype=float)
        bits = column.view(np.int64).tolist()
        texts = dict.fromkeys(bits)
        if len(texts) == len(bits):
            formatted.append(map(repr, column.tolist()))
        else:
            values = np.array(list(texts), dtype=np.int64).view(float).tolist()
            texts = dict(zip(texts, map(repr, values)))
            formatted.append(map(texts.__getitem__, bits))
    return map(",".join, zip(*formatted))


def write_scan_csv(path: Path, scan: ScanResult, manifest_name: str | None = None) -> None:
    lines = [f"# manifest: {manifest_name}"] if manifest_name else []
    lines.append(",".join(SCAN_CSV_COLUMNS))
    lines += _csv_rows(*(getattr(scan, field.name) for field in dataclasses.fields(ScanResult)))
    _write_text(path, "\n".join(lines) + "\n")


def _content_lines(lines):
    """The lines, unstripped, that are neither blank nor ``#`` comments."""
    return (line for line in lines if (text := line.lstrip()) and text[0] != "#")


def _parse_rows(lines) -> np.ndarray:
    """Comma-separated float rows, one per line, by numpy's C parser (2-D)."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _malformed_row(path: Path) -> str:
    """The first data row of ``path`` that alone is not one row of scan floats."""

    def is_scan_row(line):
        try:
            return _parse_rows([line]).shape[1] == len(SCAN_CSV_COLUMNS)
        except ValueError:
            return False

    with open(path, "r", encoding="utf-8") as fh:
        rows = _content_lines(fh)
        next(rows)  # the header
        # loadtxt refused the rows together, and only their column counts
        # couple rows, so some row is refused alone
        return next(line.strip() for line in rows if not is_scan_row(line))


def read_scan_csv(path: Path) -> ScanResult:
    """Read a scan CSV: one header, then rows of decimal, nan or inf tokens.

    Blank and ``#`` lines are skipped anywhere; a ``#`` after a value is not
    a comment.  Rows go to numpy's C parser in one call; only when it
    refuses them is the file read again to quote the first malformed row.
    """
    try:
        data = _scan_rows(path)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scan file {path}: not UTF-8 text ({exc.reason})") from exc
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ConfigError(
            f"scan file {path}: data row {row + 1}, column {SCAN_CSV_COLUMNS[col]}: "
            f"non-finite value {float(data[row, col])!r}"
        )
    e = data[:, SCAN_CSV_COLUMNS.index("E")]
    over = np.flatnonzero(np.abs(e) > 1.0 + E_TOL)
    if over.size:
        row = over[0]
        raise ConfigError(
            f"scan file {path}: data row {row + 1}, column E: "
            f"correlator {float(e[row])!r} leaves [-1, 1]"
        )
    return ScanResult(*data.T)


def _scan_rows(path: Path) -> np.ndarray:
    """The data rows of a scan CSV as one 2-D array, header checked."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = _content_lines(fh)
        header = next(rows, None)
        if header is not None and tuple(header.strip().split(",")) != SCAN_CSV_COLUMNS:
            raise ConfigError(
                f"scan file {path}: header {header.strip()!r} does not "
                f"match {','.join(SCAN_CSV_COLUMNS)!r}"
            )
        # peeked, so loadtxt never sees (and never warns about) empty input
        first = next(rows, None)
        if first is None:
            raise ConfigError(f"scan file {path}: no data rows")
        try:
            data = _parse_rows(itertools.chain((first,), rows))
        except ValueError:
            data = None
    if data is None or data.shape[1] != len(SCAN_CSV_COLUMNS):
        raise ConfigError(f"scan file {path}: malformed row {_malformed_row(path)!r}")
    return data


def _parse_grid(text: str, flag: str) -> np.ndarray:
    """Parse 'start:stop:steps' into an inclusive, evenly spaced grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{flag}: expected start:stop:steps, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ConfigError(f"{flag}: expected start:stop:steps, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"{flag}: start and stop must be finite, got {text!r}")
    if not math.isfinite(stop - start):
        raise ConfigError(f"{flag}: the span stop - start overflows, got {text!r}")
    if steps < 1:
        raise ConfigError(f"{flag}: steps must be >= 1, got {steps}")
    # a finite span near the float limit can overflow in linspace's
    # i * step + start only for the last point, which it then sets to stop
    with np.errstate(over="ignore"):
        return np.linspace(start, stop, steps)


def _argument_type(convert, accept, expected: str):
    """argparse type: ``convert(text)`` if ``accept`` takes it, else "must be <expected>"."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value

    return parse


# [1, 2^63 - 1] is the range numpy draws counts in
_sample_size = _argument_type(
    int, lambda v: 1 <= v <= MAX_SAMPLE_SIZE, "an integer in [1, 2^63 - 1]"
)
_seed = _argument_type(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2^64)")
_finite_float = _argument_type(float, math.isfinite, "a finite number")


def _parse_angles(text: str) -> ChshConfiguration:
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"--angles: expected a:a':b:b' in degrees, got {text!r}")
    try:
        vals = [math.radians(float(v)) for v in parts]
    except ValueError:
        raise ConfigError(f"--angles: expected a:a':b:b' in degrees, got {text!r}") from None
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"--angles: angles must be finite, got {text!r}")
    return ChshConfiguration(
        a=PolarizerAxis(vals[0]),
        a_prime=PolarizerAxis(vals[1]),
        b=PolarizerAxis(vals[2]),
        b_prime=PolarizerAxis(vals[3]),
    )


def _load(args) -> tuple[LoadedConfig, int]:
    """The config named by ``--config`` and the seed: ``--seed`` if given, else the config's."""
    loaded = load_config(args.config)
    return loaded, args.seed if args.seed is not None else loaded.seed


def cmd_chsh(args, argv) -> int:
    loaded, seed = _load(args)
    chsh = _parse_angles(args.angles) if args.angles else loaded.chsh

    s_analytic = chsh_with_background(loaded.experiment, chsh)
    print(f"S = {s_analytic:.6f} (analytic)")
    report = {"analytic_S": s_analytic}

    if args.n:
        s_hat, stderr = estimate_chsh(loaded.experiment, chsh, args.n, seed)
        print(f"S = {s_hat:.6f} +/- {stderr:.6f} (monte carlo, n={args.n} per setting)")
        report["monte_carlo"] = {
            "S_hat": s_hat,
            "stderr": stderr,
            "n_per_setting": args.n,
            "seed": seed,
        }

    if args.out:
        out = Path(args.out)
        report["manifest"] = _manifest_path(out).name
        with _manifested(out, "chsh", argv, args.config, seed):
            _write_text(out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def cmd_scan(args, argv) -> int:
    loaded, seed = _load(args)
    grid_a = np.deg2rad(_parse_grid(args.grid_a, "--grid-a"))
    grid_b = np.deg2rad(_parse_grid(args.grid_b, "--grid-b"))

    if args.n:
        scan = sample_scan(loaded.experiment, grid_a, grid_b, args.n, seed)
    else:
        scan = angular_scan(loaded.experiment, grid_a, grid_b)

    out = Path(args.out)
    with _manifested(out, "scan", argv, args.config, seed if args.n else None):
        write_scan_csv(out, scan, manifest_name=_manifest_path(out).name)
    print(f"wrote {len(scan)} rows to {out}")
    return EXIT_OK


def cmd_fit(args, argv) -> int:
    scan = read_scan_csv(Path(args.scan_csv))
    report = extract_signal(
        scan,
        beta1=math.radians(args.beta1),
        beta2=math.radians(args.beta2),
        background_basis=args.background_basis,
    )
    doc = report.to_dict()
    if args.out:
        out = Path(args.out)
        doc["manifest"] = _manifest_path(out).name
        with _manifested(out, "fit", argv, None, None):
            _write_text(out, json.dumps(doc, indent=2) + "\n")
    print(
        f"S_hat = {report.s_hat:.6f}  B_hat = {report.b_hat:.6f}  "
        f"residual_rms = {report.residual_rms:.3e}  bell_S = {report.bell_s:.6f}"
    )
    if report.violates_bell:
        print("bell inequality violated (|bell_S| > 2)")
    return EXIT_OK


def cmd_hbt(args, argv) -> int:
    loaded, seed = _load(args)
    geometry = loaded.experiment.geometry

    baseline = geometry.detector_b - geometry.detector_a
    length = float(np.linalg.norm(baseline))
    if length <= 0.0:
        raise ConfigError(
            "geometry.detector_a, geometry.detector_b: must differ, "
            "the hbt baseline runs from detector A towards detector B"
        )
    lengths = _parse_grid(args.baseline, "--baseline")
    phases = np.zeros((len(lengths), 2))
    if args.random_phases:
        # one (n, 2) block is the same stream as a size=2 draw per row
        rng = np.random.Generator(np.random.Philox(key=seed))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=phases.shape)
    detector_b = geometry.detector_a + lengths[:, None] * (baseline / length)
    normalization = loaded.experiment.propagator_normalization
    fringe = hbt_scan(geometry, detector_b, phases[:, 0], phases[:, 1], normalization)

    out = Path(args.out)
    lines = [f"# manifest: {_manifest_path(out).name}", ",".join(HBT_CSV_COLUMNS)]
    lines += _csv_rows(lengths, fringe.total, fringe.interference)
    with _manifested(out, "hbt", argv, args.config, seed if args.random_phases else None):
        _write_text(out, "\n".join(lines) + "\n")
    print(f"wrote {len(lengths)} rows to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skybell",
        description=(
            "Polarization-entanglement toolkit for photon pairs from two sky "
            "sources: CHSH tests, angular scans, signal extraction, and "
            "intensity interferometry."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_chsh = sub.add_parser("chsh", help="four-setting CHSH value, analytic and sampled")
    p_chsh.add_argument("--config", required=True, help="YAML run configuration")
    p_chsh.add_argument("--angles", help="override settings as a:a':b:b' in degrees")
    p_chsh.add_argument("--n", type=_sample_size, help="Monte Carlo coincidences per setting")
    p_chsh.add_argument("--seed", type=_seed, help="override the config seed")
    p_chsh.add_argument("--out", help="write a JSON report here")
    p_chsh.set_defaults(func=cmd_chsh)

    p_scan = sub.add_parser("scan", help="correlator over a polarizer-angle grid")
    p_scan.add_argument("--config", required=True, help="YAML run configuration")
    p_scan.add_argument("--grid-a", required=True, help="start:stop:steps in degrees")
    p_scan.add_argument("--grid-b", required=True, help="start:stop:steps in degrees")
    p_scan.add_argument("--n", type=_sample_size, help="sample this many coincidences per point")
    p_scan.add_argument("--seed", type=_seed, help="override the config seed")
    p_scan.add_argument("--out", required=True, help="output CSV path")
    p_scan.set_defaults(func=cmd_scan)

    p_fit = sub.add_parser("fit", help="least-squares signal extraction from a scan CSV")
    p_fit.add_argument("scan_csv", help="scan CSV produced by the scan subcommand")
    p_fit.add_argument(
        "--beta1", type=_finite_float, required=True, help="background axis 1 (degrees)"
    )
    p_fit.add_argument(
        "--beta2", type=_finite_float, required=True, help="background axis 2 (degrees)"
    )
    p_fit.add_argument(
        "--background-basis",
        choices=("product", "scan"),
        default="product",
        help="background shape: separable product of the betas, or the scan's own column",
    )
    p_fit.add_argument("--out", help="write the fit report JSON here")
    p_fit.set_defaults(func=cmd_fit)

    p_hbt = sub.add_parser("hbt", help="intensity-interference fringe over a baseline scan")
    p_hbt.add_argument("--config", required=True, help="YAML run configuration")
    p_hbt.add_argument(
        "--baseline", required=True, help="detector separation scan start:stop:steps"
    )
    p_hbt.add_argument(
        "--random-phases",
        action="store_true",
        help="redraw source phases per row (the interference column is unchanged)",
    )
    p_hbt.add_argument("--seed", type=_seed, help="override the config seed")
    p_hbt.add_argument("--out", required=True, help="output CSV path")
    p_hbt.set_defaults(func=cmd_hbt)

    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args, argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a grid or baseline too large to allocate
        print(f"config error: the requested sizes do not fit in memory ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    except (SkybellError, ValueError, FloatingPointError, OverflowError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
