"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import LAYERS, Tracer, aggregate, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--size", "tiny", "--seconds", "0.3", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def assert_spans_nest(spans: list[list]) -> None:
    assert spans and {s[0] for s in spans if s[1] == -1} == {"cli.run"}
    for span in spans:
        assert span[3] <= span[4]
        if span[1] >= 0:
            parent = spans[span[1]]
            assert parent[2] == span[2]
            assert parent[3] <= span[3] <= span[4] <= parent[4]
    assert min(self_times(spans)) >= 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    result = result_of(bench(ROOT, "--workload", workload, "--seed", "5", "--trace", str(trace),
                             "--spans", str(spans_file)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0.0
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert 0.0 < metrics["trace.coverage"] <= 1.0
        assert all(metrics[f"{layer}.errors"] == 0 for layer in LAYERS)
        keys = ("name", "parent", "call", "start_ns", "end_ns")
        lines = spans_file.read_text(encoding="utf-8").splitlines()
        assert_spans_nest([[json.loads(line)[k] for k in keys] for line in lines])
    else:
        assert not spans_file.exists()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_output_fails_every_operation(workload):
    result = result_of(bench(ROOT, "--workload", workload, "--seed", "5", "--corrupt"))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1  # fail_frac = 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "fit_csv", "--seed", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_changes_inputs_but_not_work_size(workload, tmp_path):
    w = WORKLOADS[workload]
    runs = {}
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        (tmp_path / name).mkdir()
        inputs = w.prepare(seed, "tiny", tmp_path / name)
        files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        runs[name] = inputs, files
    assert runs["a"] == runs["b"]
    assert runs["a"] != runs["c"]
    size_keys = {"grid", "n", "rows", "baseline"}
    assert {k: v for k, v in runs["a"][0].items() if k in size_keys} == {
        k: v for k, v in runs["c"][0].items() if k in size_keys
    }


def test_traced_spans_nest(tmp_path):
    from skybell import cli, scenarios

    w = WORKLOADS["scan_I_analytic"]
    inputs = w.prepare(3, "tiny", tmp_path)
    argv = w.argv(inputs, tmp_path, tmp_path / "out.csv")
    original = scenarios.coincidence_correlator
    tracer = Tracer()
    assert tracer.install() > 20
    try:
        assert scenarios.coincidence_correlator is not original
        assert scenarios.coincidence_correlator.__wrapped__ is original
        for _ in range(2):
            call = tracer.begin_call()
            assert cli.run(argv) == 0
    finally:
        tracer.uninstall()
    assert scenarios.coincidence_correlator is original

    spans = tracer.spans
    assert {s[2] for s in spans} == {1, 2}
    assert_spans_nest(spans)
    root = [s for s in spans if s[1] == -1][-1]
    figures = aggregate(tracer, call, (root[4] - root[3]) / 1e9)
    assert figures["trace.coverage"] == pytest.approx(1.0, abs=1e-9)
    assert figures["scenarios.coincidence_correlator.calls"] == 16
    assert figures["scenarios.model_evals_per_setting"] == 1.0
    assert figures["polarization.source_density.calls"] == 12 * 16
    assert figures["cli.write_scan_csv.bytes"] == (tmp_path / "out.csv").stat().st_size
    # self times partition the root span, up to rounding of the float sum
    assert sum(figures[f"{layer}.share"] for layer in LAYERS) <= 1.0 + 1e-12
