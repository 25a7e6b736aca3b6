"""One workload in one process: ``prepare`` its inputs or ``measure`` it.

``run.py`` starts this script with BLAS pinned to one thread and
``PYTHONPATH`` pointing at the checkout's ``src``.  ``measure`` drives
``skybell.cli.run`` in-process: one checked warm-up call, then timed
calls until the time budget is spent, each output checked after its
call and timed in calibrated seconds as well (see ``calibrate.py``).
With ``--trace 1`` it first times untraced calls for half the budget,
then installs the span wrappers and times traced calls for the other
half.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, kernel

ROOT = Path(__file__).resolve().parent.parent
#: Timed calls made even when one call outlasts the time budget.
MIN_CALLS = 3


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from skybell import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


class Runner:
    """Calls the CLI, checks each output and counts the failures."""

    def __init__(self, workload, inputs: dict, work: Path, corrupt: bool):
        self.workload = workload
        self.inputs = inputs
        self.corrupt = corrupt
        self.out = work / "out"
        self.argv = workload.argv(inputs, work, self.out)
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        try:
            self.ref = workload.reference(inputs, work, _run_cli)
            self.ref_error = None
        except Exception as exc:  # every later check fails with this reason
            self.ref, self.ref_error = None, f"reference: {exc!r}"

    def call(self, before=None) -> tuple[float, float]:
        """One checked CLI call; returns its (wall, cpu) seconds."""
        if before is not None:
            before()
        t0, c0 = time.perf_counter(), time.process_time()
        code, output = _run_cli(self.argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.attempted += 1
        reason = self._check(code, output)
        if reason is not None:
            self.failed += 1
            self.first_failure = self.first_failure or reason
        return wall, cpu

    def _check(self, code: int, output: str) -> str | None:
        if code != 0:
            return f"exit code {code}: {output.strip()[-500:]}"
        if self.ref_error:
            return self.ref_error
        try:
            parsed = self.workload.parse(self.out)
            if self.corrupt:
                self.workload.corrupt(parsed)
            return self.workload.check(parsed, self.inputs, self.ref)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def loop(self, seconds: float, before=None) -> list[dict]:
        """Checked calls for ``seconds``, each between two runs of the calibration kernel."""
        samples = []
        cal = kernel()
        start = time.perf_counter()
        while len(samples) < MIN_CALLS or time.perf_counter() - start < seconds:
            wall, cpu = self.call(before)
            cal_next = kernel()
            cal_wall = (cal[0] + cal_next[0]) / 2
            cal_cpu = (cal[1] + cal_next[1]) / 2
            samples.append({
                "wall": wall, "cpu": cpu,
                "wall_cal": wall * REFERENCE_S / cal_wall, "cpu_cal": cpu * REFERENCE_S / cal_cpu,
            })
            cal = cal_next
        return samples


def prepare(args) -> dict:
    from workloads import WORKLOADS

    inputs = WORKLOADS[args.workload].prepare(args.seed, args.size, args.dir)
    (args.dir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
    return inputs


def measure(args) -> dict:
    import skybell

    from workloads import WORKLOADS

    if not Path(skybell.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported skybell from {skybell.__file__}, not from {ROOT / 'src'}")
    import numpy

    inputs = json.loads((args.dir / "inputs.json").read_text(encoding="utf-8"))
    runner = Runner(WORKLOADS[args.workload], inputs, args.dir, args.corrupt)
    runner.call()  # warm-up: lazy imports, caches, first file writes
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = runner.loop(budget)
    result = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        **{key: [c[key] for c in plain] for key in ("wall", "cpu", "wall_cal", "cpu_cal")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        from spans import Tracer, aggregate

        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.loop(budget, before=tracer.begin_call)
        finally:
            tracer.uninstall()
        per_call = [aggregate(tracer, i + 1, c["wall"]) for i, c in enumerate(traced)]
        names = sorted(set().union(*per_call))
        layers = {k: statistics.median(c.get(k, 0) for c in per_call) for k in names}
        traced_cal = statistics.median(c["wall_cal"] for c in traced)
        layers["trace.overhead_frac"] = traced_cal / statistics.median(result["wall_cal"]) - 1.0
        result["layers"] = layers
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(("name", "parent", "call", "start_ns", "end_ns"), span))) + "\n")
    result.update(attempted=runner.attempted, failed=runner.failed, first_failure=runner.first_failure)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--spans", help="write every recorded span here as JSON lines")
    args = parser.parse_args(argv)
    result = prepare(args) if args.mode == "prepare" else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
