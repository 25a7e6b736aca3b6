"""Command-line interface: chsh, scan, fit, and hbt subcommands.

Every output file is paired with a JSON run manifest (same path plus
".manifest.json") recording the command, config, seed and outputs; CSV
files carry a leading "# manifest: ..." comment pointing back at it.
Floats are written with full repr precision so files round-trip exactly;
each distinct value of the table is formatted once (``_csv_rows``).

``_publish`` renders the whole text of a run's output, which names its
manifest, and writes both in one step (``_write_fresh``): both texts go to
``<name>.tmp`` files before anything is moved, each created exclusively, so
a stale one (a symlink included) is unlinked, never written through.  The
previous files are then moved aside to ``<name>.old``, the temp files are
renamed onto the free names and the old files are unlinked.  No rename
lands on an existing name and nothing is truncated: on ext4 (default
``auto_da_alloc``) either forces a writeback that blocks a re-run onto an
existing output for tens of milliseconds per file; a run onto a new path
never paid it.  A run that raises (Ctrl-C included) leaves the previous
output and manifest as they were, and a killed one may leave them at
``<name>.old``, so a manifest never lists a file that was not written.
Nothing calls fsync: the files are not promised to survive a power loss,
and a reader racing a re-run may briefly find no file.

Each call builds its argument parser anew and, when it names a
subcommand, only that subcommand's parser (``COMMANDS``); the full tree is
built only for top-level help, the version, or a usage error it reports.

Exit codes: 0 success, 2 config/usage error, 3 numerical or degeneracy
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
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
from .montecarlo import MAX_SAMPLE_SIZE, _stream, estimate_chsh, sample_scan
from .polarization import ChshConfiguration, PolarizerAxis
from .propagation import hbt_scan
from .scenarios import (
    SCAN_CSV_COLUMNS,
    ScanResult,
    angular_scan,
    chsh_with_background,
    extract_signal,
)

HBT_CSV_COLUMNS = ("baseline_length", "total_intensity", "interference_term")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _unlink_if_present(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


def _create(path: str, data: bytes) -> None:
    """Write ``data`` to a file created at ``path``; a stale file there is replaced.

    The create is exclusive, so a symlink left at ``path`` is unlinked and
    its target never written.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(path, flags, 0o666)
    except FileExistsError:
        os.unlink(path)
        fd = os.open(path, flags, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _write_fresh(files) -> None:
    """Write each ``(path, text)`` as a fresh file, all or none of them.

    Every text first goes to a newly created ``<name>.tmp``; only then is
    each existing file moved aside to ``<name>.old`` and each temp file
    renamed onto its free name, in list order, and the old files unlinked.
    Stale ``.tmp`` and ``.old`` files are removed before their names are
    used.  If anything raises, the temp and new files are removed and every
    moved file is put back.  A directory at any path is refused, not moved.
    """
    names = [(os.fspath(path), text) for path, text in files]
    for path, _ in names:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    moved, renamed = [], []
    try:
        for path, text in names:
            try:
                _create(path + ".tmp", text.encode("utf-8"))
            except OSError as exc:  # name the file asked for, not its temp file
                exc.filename = path
                raise
        for path, _ in names:
            _unlink_if_present(path + ".old")
            with contextlib.suppress(FileNotFoundError):
                os.rename(path, path + ".old")
                moved.append(path)
        for path, _ in names:
            os.rename(path + ".tmp", path)
            renamed.append(path)
    except BaseException:
        for path, _ in names:
            _unlink_if_present(path + ".tmp")
        for path in renamed:
            os.unlink(path)
        for path in moved:
            os.rename(path + ".old", path)
        raise
    for path in moved:
        os.unlink(path + ".old")


def _publish(out: str, render, command: str, argv, config_path, seed) -> None:
    """Write ``render(manifest name)`` to ``Path(out)`` and the manifest beside it, in one step."""
    out = os.fspath(Path(out))
    manifest_path = out + ".manifest.json"
    manifest = {
        "command": command,
        "argv": list(argv),
        "config_path": str(config_path) if config_path else None,
        "seed": seed,
        "outputs": [out],
        "tool": "skybell",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    text = render(os.path.basename(manifest_path))
    _write_fresh([(out, text), (manifest_path, json.dumps(manifest, indent=2) + "\n")])


def _csv_rows(*columns):
    """One CSV line per row of the columns, each value as the repr of a Python float.

    Each distinct value of the whole table is formatted once.  Values are
    told apart by their bits, so -0.0 and 0.0 (and every NaN) keep their
    own repr, and the lines are the same as formatting every value.
    """
    table = np.array(columns, dtype=float).T
    bits, cells = np.unique(table.view(np.int64).ravel(), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return map(",".join, texts[cells.reshape(table.shape)].tolist())


def _csv_text(header, columns, manifest_name: str | None) -> str:
    """A CSV file's text: an optional ``# manifest:`` line, the header, one line per row."""
    lines = [f"# manifest: {manifest_name}"] if manifest_name else []
    lines.append(",".join(header))
    lines += _csv_rows(*columns)
    return "\n".join(lines) + "\n"


def _json_text(doc: dict, manifest_name: str) -> str:
    """A JSON report's text: ``doc`` with the manifest file name as its last key."""
    return json.dumps({**doc, "manifest": manifest_name}, indent=2) + "\n"


def _scan_columns(scan: ScanResult):
    return (getattr(scan, field.name) for field in dataclasses.fields(ScanResult))


def write_scan_csv(path: Path, scan: ScanResult) -> None:
    _write_fresh([(path, _csv_text(SCAN_CSV_COLUMNS, _scan_columns(scan), None))])


# np.lib._datasource opens a name with one of these exact suffixes through a
# decompressor, so such a file is never handed to np.loadtxt by path
_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _is_content(line: str) -> bool:
    """Whether a line is neither blank nor a ``#`` comment."""
    return line.lstrip()[:1] not in ("", "#")


def _rows(source, skip: int = 0) -> np.ndarray | None:
    """``source`` (a path or lines) after its first ``skip`` lines as seven-column rows.

    numpy's C parser reads them; a path it opens itself and reads in
    blocks.  None if it refuses them or they are not seven columns wide.
    """
    try:
        data = np.loadtxt(source, delimiter=",", comments=None, ndmin=2, skiprows=skip,
                          encoding="utf-8")
    except ValueError:
        return None
    return data if data.shape[1] == len(SCAN_CSV_COLUMNS) else None


def read_scan_csv(path: Path) -> ScanResult:
    """Read a scan CSV: one header, then rows of decimal, nan or inf tokens.

    Blank and ``#`` lines are skipped anywhere; a ``#`` after a value is not
    a comment.  One pass over the head of the file checks the header and
    finds the first data row; numpy then reads the rest by path, in blocks.
    A file it refuses (a ``#`` or whitespace-only line after the first row,
    or a malformed row), a pipe or another file that cannot seek, and a
    name ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma`` are instead read
    on from the head pass, the content lines into one list that is parsed
    once; the fallback never opens the file again.
    """
    try:
        return ScanResult(*_scan_rows(path).T)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scan file {path}: not UTF-8 text ({exc.reason})") from exc
    except ValueError as exc:
        raise ConfigError(f"scan file {path}: {exc}") from exc


def _scan_rows(path: Path) -> np.ndarray:
    """The data rows of a scan CSV as one 2-D array, header checked.

    The head pass reads up to the first data row and counts the lines
    before it; the block read skips that many lines.  numpy skips empty
    lines, and a whitespace-only or ``#`` line never parses as seven
    floats, so a block read that succeeds equals the line-filtered one.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = ((n, line) for n, line in enumerate(fh) if _is_content(line))
        _, header = next(rows, (0, None))
        if header is not None and tuple(header.strip().split(",")) != SCAN_CSV_COLUMNS:
            raise ConfigError(
                f"scan file {path}: header {header.strip()!r} does not "
                f"match {','.join(SCAN_CSV_COLUMNS)!r}"
            )
        # checked here, so loadtxt never sees (and never warns about) empty input
        skip, first = next(rows, (0, None))
        if first is None:
            raise ConfigError(f"scan file {path}: no data rows")
        # numpy would read a pipe on from where this pass stopped and open
        # these names through a decompressor, so they are read on from here
        if fh.seekable() and os.path.splitext(path)[1] not in _DECOMPRESSED_SUFFIXES:
            data = _rows(path, skip)
            if data is not None:
                return data
        lines = [first, *(line for _, line in rows)]
    data = _rows(lines)
    if data is None:
        # only their column counts couple rows, so some row is refused alone
        row = next(line for line in lines if _rows([line]) is None)
        raise ConfigError(f"scan file {path}: malformed row {row.strip()!r}")
    return data


def _parse_grid(text: str, flag: str) -> np.ndarray:
    """Parse 'start:stop:steps' into an inclusive, evenly spaced grid."""
    try:
        start, stop, steps = text.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError:
        raise ConfigError(f"{flag}: expected start:stop:steps, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"{flag}: start and stop must be finite, got {text!r}")
    if not math.isfinite(stop - start):
        raise ConfigError(f"{flag}: the span stop - start overflows, got {text!r}")
    if steps < 1:
        raise ConfigError(f"{flag}: steps must be >= 1, got {steps}")
    # linspace sizes its array by float(steps), which is 2^60 from 2^60 - 64 on:
    # 2^63 bytes of float64, one more than numpy allows (it raises ValueError)
    if steps > 2**60 - 65:
        raise MemoryError(f"{flag}: at most {2**60 - 65} steps, got {steps}")
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
    try:
        a, a_prime, b, b_prime = (math.radians(float(v)) for v in text.split(":"))
    except ValueError:
        raise ConfigError(f"--angles: expected a:a':b:b' in degrees, got {text!r}") from None
    if not all(map(math.isfinite, (a, a_prime, b, b_prime))):
        raise ConfigError(f"--angles: angles must be finite, got {text!r}")
    return ChshConfiguration(*map(PolarizerAxis, (a, a_prime, b, b_prime)))


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
        _publish(args.out, functools.partial(_json_text, report), "chsh", argv, args.config, seed)
    return EXIT_OK


def cmd_scan(args, argv) -> int:
    loaded, seed = _load(args)
    grid_a = np.deg2rad(_parse_grid(args.grid_a, "--grid-a"))
    grid_b = np.deg2rad(_parse_grid(args.grid_b, "--grid-b"))

    if args.n:
        scan = sample_scan(loaded.experiment, grid_a, grid_b, args.n, seed)
    else:
        scan = angular_scan(loaded.experiment, grid_a, grid_b)

    render = functools.partial(_csv_text, SCAN_CSV_COLUMNS, _scan_columns(scan))
    _publish(args.out, render, "scan", argv, args.config, seed if args.n else None)
    print(f"wrote {len(scan)} rows to {Path(args.out)}")
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
        _publish(args.out, functools.partial(_json_text, doc), "fit", argv, None, None)
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
        # CHSH term 0's stream; one (n, 2) block equals a size=2 draw per row
        phases = _stream(seed, 0).uniform(0.0, 2.0 * math.pi, size=phases.shape)
    detector_b = geometry.detector_a + lengths[:, None] * (baseline / length)
    normalization = loaded.experiment.propagator_normalization
    fringe = hbt_scan(geometry, detector_b, phases[:, 0], phases[:, 1], normalization)

    columns = (lengths, fringe.total, fringe.interference)
    render = functools.partial(_csv_text, HBT_CSV_COLUMNS, columns)
    _publish(args.out, render, "hbt", argv, args.config, seed if args.random_phases else None)
    print(f"wrote {len(lengths)} rows to {Path(args.out)}")
    return EXIT_OK


def _chsh_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--angles", help="override settings as a:a':b:b' in degrees")
    parser.add_argument("--n", type=_sample_size, help="Monte Carlo coincidences per setting")
    parser.add_argument("--seed", type=_seed, help="override the config seed")
    parser.add_argument("--out", help="write a JSON report here")
    parser.set_defaults(func=cmd_chsh)


def _scan_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--grid-a", required=True, help="start:stop:steps in degrees")
    parser.add_argument("--grid-b", required=True, help="start:stop:steps in degrees")
    parser.add_argument("--n", type=_sample_size, help="sample this many coincidences per point")
    parser.add_argument("--seed", type=_seed, help="override the config seed")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.set_defaults(func=cmd_scan)


def _fit_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scan_csv", help="scan CSV produced by the scan subcommand")
    parser.add_argument(
        "--beta1", type=_finite_float, required=True, help="background axis 1 (degrees)"
    )
    parser.add_argument(
        "--beta2", type=_finite_float, required=True, help="background axis 2 (degrees)"
    )
    parser.add_argument(
        "--background-basis",
        choices=("product", "scan"),
        default="product",
        help="background shape: separable product of the betas, or the scan's own column",
    )
    parser.add_argument("--out", help="write the fit report JSON here")
    parser.set_defaults(func=cmd_fit)


def _hbt_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument(
        "--baseline", required=True, help="detector separation scan start:stop:steps"
    )
    parser.add_argument(
        "--random-phases",
        action="store_true",
        help="redraw source phases per row (the interference column is unchanged)",
    )
    parser.add_argument("--seed", type=_seed, help="override the config seed")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.set_defaults(func=cmd_hbt)


#: Subcommand name -> (help text, function that adds its arguments and binds
#: its handler as ``func``), in the order the top-level help lists them.
COMMANDS = {
    "chsh": ("four-setting CHSH value, analytic and sampled", _chsh_arguments),
    "scan": ("correlator over a polarizer-angle grid", _scan_arguments),
    "fit": ("least-squares signal extraction from a scan CSV", _fit_arguments),
    "hbt": ("intensity-interference fringe over a baseline scan", _hbt_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: top-level options and every subcommand of ``COMMANDS``."""
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
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as the full parser would, building only the invoked subcommand.

    The subcommand's parser alone has the prog, arguments and errors it has
    in the full tree.  Leftover arguments, and an argv that does not start
    with a subcommand, go to the full parser, which prints the top-level
    help, version, usage and errors.
    """
    if argv and argv[0] in COMMANDS:
        _, add_arguments = COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"skybell {argv[0]}")
        add_arguments(parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        out = getattr(args, "out", None)
        # the raw string: Path drops a trailing '/' or '/.'
        if out is not None and os.path.basename(out) in ("", ".", ".."):
            raise OSError(f"--out {out!r} names no file")
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
