"""skybell benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan_I_analytic --seed 1 --seconds 10 --trace 0

Each run draws the workload's inputs from ``--seed`` in a fresh process,
times ``import skybell.cli`` plus ``load_config`` in several more fresh
processes (``setup_s``), then measures the workload in one process with
BLAS pinned to one thread, checking every output.  The times
``wall_s``, ``cpu_s`` and ``setup_s`` are medians in calibrated seconds
(see ``calibrate.py``); the raw times are on stderr.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The run's context (python, numpy, CPU, commit,
thread pin) and every figure, raw and calibrated, go to stderr as JSON.
All files are written under ``.perfbench_tmp/`` in the checkout and
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150

WORKLOAD_NAMES = ("scan_I_analytic", "chsh_II_sampled", "fit_csv", "hbt_fringe")

#: Environment of every child: BLAS and OpenMP pinned to one thread.
THREAD_PIN = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

#: Time a fresh interpreter spends importing the CLI and loading one config,
#: then the calibration kernel's time in the same process (second of two runs).
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import skybell.cli\n"
    "skybell.cli.load_config(sys.argv[1])\n"
    "t = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from calibrate import REFERENCE_S, kernel\n"
    "kernel()\n"
    "print(t, t * REFERENCE_S / kernel()[0])\n"
)

#: Fresh processes timed for ``setup_s``, after one that fills the bytecode cache.
SETUP_REPS = {"full": 7, "tiny": 1}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, as listed in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def _child_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PIN)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def _child(args: list[str], env: dict[str, str]) -> str:
    """Run a child to completion; return its stdout, or raise with its stderr."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[:2]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def measure_setup(config: Path, size: str, env: dict[str, str]) -> list[tuple[float, float]]:
    """(raw, calibrated) set-up seconds; a first, unused probe fills the bytecode cache."""
    samples = []
    for _ in range(SETUP_REPS[size] + 1):
        raw, cal = _child(["-c", SETUP_PROBE, str(config), str(HERE)], env).split()
        samples.append((float(raw), float(cal)))
    return samples[1:]


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (or 'unknown')."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run(args) -> dict:
    child = str(HERE / "child.py")
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        env = _child_env(tmp)
        common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
                  "--dir", str(tmp)]
        inputs = _last_json(_child([child, "prepare", *common], env))
        setup = []
        if not args.trace:
            setup = measure_setup(tmp / inputs["config"], args.size, env)
        measure = [child, "measure", *common, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.corrupt:
            measure.append("--corrupt")
        if args.spans:
            measure += ["--spans", str(Path(args.spans).resolve())]
        result = _last_json(_child(measure, env))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    result["setup"] = setup
    result["context"] = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "python": result.pop("python"),
        "numpy": result.pop("numpy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "thread_pin": THREAD_PIN,
    }
    return result


def metrics_of(result: dict, trace: bool) -> dict[str, dict]:
    if trace:
        layers = result["layers"]
        return {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in layer_units().items()}
    values = {
        "wall_s": statistics.median(result["wall_cal"]),
        "cpu_s": statistics.median(result["cpu_cal"]),
        "setup_s": statistics.median(cal for _, cal in result["setup"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's sizes")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage every output before checking it (self-test)")
    parser.add_argument("--spans", help="write the traced run's spans here as JSON lines")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "skybell" / "__init__.py").is_file():
        print(f"perfbench: no skybell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {args.workload} did not run: {exc}", file=sys.stderr)
        return 1
    metrics = metrics_of(result, bool(args.trace))
    attempted, failed = result["attempted"], result["failed"]
    result["fail_frac"] = failed / attempted
    result["metrics"] = metrics
    print(json.dumps(result, indent=1), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
