"""The four benchmark workloads: seeded inputs, CLI arguments and output checks.

Each workload is one ``skybell`` subcommand at a fixed size.  The seed
changes the inputs (geometry, axes, weights, Monte Carlo seed, fit noise)
but never the amount of work, so a figure measured on one seed can be
rechecked on another.

A workload runs in three steps, each in its own process:

* ``prepare`` draws the inputs from the seed and writes them to the work
  directory (config YAML, scan CSV, ``inputs.json``);
* ``reference`` builds, once per run, what the checks compare against;
* ``check`` parses one invocation's output and returns ``None`` when it is
  correct, else the reason it is not.  ``corrupt`` damages parsed output
  on purpose, so the self-test can show that the checks catch it.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np
import yaml

def _obs(t: float) -> np.ndarray:
    """The +-1 polarizer observable for an axis at angle t (radians)."""
    c, s = math.cos(2.0 * t), math.sin(2.0 * t)
    return np.array([[c, s], [s, -c]])


def _mixture_e(loaded, amps, rho_eff, ta: float, tb: float) -> float:
    """Mixture correlator through the effective-density-matrix contraction.

    This is an independent route to the value the program computes from
    its per-outcome rate formulas: E_bg = Tr[(M_a x M_b) rho_eff] / Tr rho_eff.
    """
    from skybell.propagation import entangled_pair_weight

    exp = loaded.experiment
    f = exp.entangled_fraction
    w_bg_raw = float(np.trace(rho_eff).real)
    e_bg = float(np.trace(np.kron(_obs(ta), _obs(tb)) @ rho_eff).real) / w_bg_raw
    e_sig = (1.0 if exp.bell_kind == 1 else -1.0) * math.cos(2.0 * (ta - tb))
    w_sig = f * entangled_pair_weight(amps)
    w_bg = (1.0 - f) * w_bg_raw
    return (w_sig * e_sig + w_bg * e_bg) / (w_sig + w_bg)


def _model(config_path: Path):
    from skybell.background import effective_density_matrix
    from skybell.config import load_config
    from skybell.scenarios import effective_amplitudes

    loaded = load_config(config_path)
    amps = effective_amplitudes(loaded.experiment)
    return loaded, amps, effective_density_matrix(loaded.experiment.background, amps)


def _read_csv(path: Path) -> tuple[tuple[str, ...], list[list[float]]]:
    header = None
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = tuple(line.split(","))
        else:
            rows.append([float(v) for v in line.split(",")])
    return header or (), rows


def _scenario_i_doc(rng: random.Random, normalization: str) -> dict:
    """A scenario-I config: sources ~20 m up, both detectors on the ground.

    All four pairing weights are non-zero and the two sources differ in
    axis and alpha, so every term of the background model is evaluated.
    """
    from skybell.config import parse_config
    from skybell.errors import SkybellError
    from skybell.polarization import PolarizerAxis
    from skybell.scenarios import coincidence_correlator

    while True:
        sources = [[rng.uniform(-3, 3), rng.uniform(-3, 3), 20.0 + rng.uniform(-3, 3)] for _ in "12"]
        detectors = [[rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0] for _ in "ab"]
        weights = {key: rng.random() for key in ("w12", "w21", "w11", "w22")}
        axes = (rng.uniform(0.0, 180.0), rng.uniform(0.0, 180.0))
        alphas = (rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
        doc = {
            "schema_version": 1,
            "scenario": "I",
            "bell_kind": rng.choice((1, 2)),
            "entangled_fraction": rng.uniform(0.2, 0.8),
            "geometry": {
                "source1": sources[0],
                "source2": sources[1],
                "detector_a": detectors[0],
                "detector_b": detectors[1],
                "wavenumber": rng.uniform(0.5, 8.0),
            },
            "propagation": {"normalization": normalization},
            "background": {
                "axis1_deg": axes[0],
                "axis2_deg": axes[1],
                "alpha1": alphas[0],
                "alpha2": alphas[1],
                "weights": weights,
            },
            "rng": {"seed": rng.getrandbits(32)},
        }
        if (
            min(weights.values()) == 0.0
            or abs(axes[0] - axes[1]) < 1.0
            or abs(alphas[0] - alphas[1]) < 0.05
            or math.dist(detectors[0], detectors[1]) < 0.5
        ):
            continue
        try:
            cfg = parse_config(doc).experiment
            for a, b in ((0.0, 0.0), (0.4, 1.3)):
                coincidence_correlator(cfg, PolarizerAxis(a), PolarizerAxis(b))
        except (SkybellError, ValueError):
            continue
        return doc


def _write_yaml(path: Path, doc: dict) -> None:
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")


class Workload:
    """One subcommand at a fixed size; ``BENCHMARK.json`` says why it was chosen."""

    name = ""
    sizes: dict = {}

    def prepare(self, seed: int, size: str, work: Path) -> dict:
        raise NotImplementedError

    def argv(self, inputs: dict, work: Path, out: Path) -> list[str]:
        raise NotImplementedError

    def reference(self, inputs: dict, work: Path, run_cli):
        return None

    def parse(self, out: Path) -> dict:
        raise NotImplementedError

    def corrupt(self, parsed: dict) -> None:
        raise NotImplementedError

    def check(self, parsed: dict, inputs: dict, ref) -> str | None:
        raise NotImplementedError


class ScanAnalytic(Workload):
    name = "scan_I_analytic"
    sizes = {"full": "0:165:12", "tiny": "0:135:4"}
    n_checked = 16

    def prepare(self, seed, size, work):
        rng = random.Random(seed)
        _write_yaml(work / "config.yaml", _scenario_i_doc(rng, "phase-only"))
        grid = self.sizes[size]
        steps = int(grid.rsplit(":", 1)[1])
        rows = sorted(rng.sample(range(steps * steps), min(self.n_checked, steps * steps)))
        return {"config": "config.yaml", "grid": grid, "checked_rows": rows}

    def argv(self, inputs, work, out):
        return ["scan", "--config", str(work / inputs["config"]), "--grid-a", inputs["grid"],
                "--grid-b", inputs["grid"], "--out", str(out)]

    def reference(self, inputs, work, run_cli):
        loaded, amps, rho_eff = _model(work / inputs["config"])
        start, stop, steps = inputs["grid"].split(":")
        grid = np.deg2rad(np.linspace(float(start), float(stop), int(steps)))
        thetas = [(float(ta), float(tb)) for ta in grid for tb in grid]
        expected = {i: _mixture_e(loaded, amps, rho_eff, *thetas[i]) for i in inputs["checked_rows"]}
        return thetas, expected

    def parse(self, out):
        header, rows = _read_csv(out)
        return {"header": header, "rows": rows}

    def corrupt(self, parsed):
        for row in parsed["rows"]:
            row[2] = -row[2]

    def check(self, parsed, inputs, ref):
        thetas, expected = ref
        rows = parsed["rows"]
        if parsed["header"] != ("theta_a", "theta_b", "E", "E_signal", "E_background",
                                "w_signal", "w_background"):
            return f"unexpected header {parsed['header']}"
        if len(rows) != len(thetas):
            return f"{len(rows)} rows, expected {len(thetas)}"
        for row, (ta, tb) in zip(rows, thetas):
            if not all(map(math.isfinite, row)) or abs(row[2]) > 1.0:
                return f"bad row {row}"
            if abs(row[0] - ta) > 1e-12 or abs(row[1] - tb) > 1e-12:
                return f"row {row[:2]} is off the grid point {(ta, tb)}"
        for i, e in expected.items():
            if abs(rows[i][2] - e) > 1e-12:
                return f"row {i}: E = {rows[i][2]!r}, contraction gives {e!r}"
        return None


class ChshSampled(Workload):
    name = "chsh_II_sampled"
    sizes = {"full": 1_000_000_000, "tiny": 100_000}

    #: The scenario-II example configuration of the package README.
    CONFIG = {
        "schema_version": 1,
        "scenario": "II",
        "bell_kind": 1,
        "entangled_fraction": 0.3,
        "geometry": {
            "source1": [-5.0, 0.0, 1000.0],
            "source2": [5.0, 0.0, 1000.0],
            "detector_a": [-1.0, 0.0, 0.0],
            "detector_b": [1.0, 0.0, 0.0],
            "wavenumber": 6.283185307179586,
        },
        "propagation": {"normalization": "phase-only"},
        "background": {
            "axis1_deg": 0.0,
            "axis2_deg": 0.0,
            "alpha1": 1.0,
            "alpha2": 1.0,
            "weights": {"w12": 0.5, "w21": 0.5, "w11": 0.0, "w22": 0.0},
        },
        "chsh": {"a_deg": 0.0, "a_prime_deg": 45.0, "b_deg": 22.5, "b_prime_deg": 157.5},
        "rng": {"seed": 0},
    }

    def prepare(self, seed, size, work):
        _write_yaml(work / "config.yaml", self.CONFIG)
        mc_seed = random.Random(seed).getrandbits(63)
        return {"config": "config.yaml", "n": self.sizes[size], "mc_seed": mc_seed}

    def argv(self, inputs, work, out):
        return ["chsh", "--config", str(work / inputs["config"]), "--n", str(inputs["n"]),
                "--seed", str(inputs["mc_seed"]), "--out", str(out)]

    def reference(self, inputs, work, run_cli):
        loaded, amps, rho_eff = _model(work / inputs["config"])
        c = loaded.chsh
        a, a2, b, b2 = c.a.angle, c.a_prime.angle, c.b.angle, c.b_prime.angle
        return sum(
            sign * _mixture_e(loaded, amps, rho_eff, x, y)
            for sign, x, y in ((1, a, b), (1, a2, b), (1, a, b2), (-1, a2, b2))
        )

    def parse(self, out):
        return json.loads(out.read_text(encoding="utf-8"))

    def corrupt(self, parsed):
        parsed["monte_carlo"]["S_hat"] = -parsed["monte_carlo"]["S_hat"]

    def check(self, parsed, inputs, s_ref):
        mc = parsed.get("monte_carlo", {})
        if mc.get("n_per_setting") != inputs["n"] or mc.get("seed") != inputs["mc_seed"]:
            return f"report is for n={mc.get('n_per_setting')}, seed={mc.get('seed')}"
        if abs(parsed["analytic_S"] - s_ref) > 1e-12:
            return f"analytic S = {parsed['analytic_S']!r}, contraction gives {s_ref!r}"
        if not mc["stderr"] > 0.0 or abs(mc["S_hat"] - s_ref) > 5.0 * mc["stderr"]:
            return f"S_mc = {mc['S_hat']!r} +/- {mc['stderr']!r} misses S = {s_ref!r} by > 5 sigma"
        return None


class FitCsv(Workload):
    name = "fit_csv"
    sizes = {"full": 181, "tiny": 16}

    def prepare(self, seed, size, work):
        from skybell.cli import write_scan_csv
        from skybell.scenarios import ScanResult

        rng = random.Random(seed)
        s = rng.uniform(0.2, 0.5) * rng.choice((-1.0, 1.0))
        b = rng.uniform(0.1, 0.4)
        beta1, beta2 = (repr(rng.uniform(0.0, 180.0)) for _ in range(2))
        steps = self.sizes[size]
        grid = np.deg2rad(np.linspace(0.0, 180.0 * (steps - 1) / steps, steps))
        ta, tb = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
        signal = np.cos(2.0 * (ta - tb))
        background = np.cos(2.0 * (ta - math.radians(float(beta1)))) * np.cos(
            2.0 * (tb - math.radians(float(beta2)))
        )
        noise = np.random.default_rng(seed).uniform(-0.01, 0.01, size=ta.shape)
        e = s * signal + b * background + noise
        scan = ScanResult(
            theta_a=ta, theta_b=tb, e=e, e_signal=signal, e_background=background,
            w_signal=np.full_like(e, abs(s)), w_background=np.full_like(e, b),
        )
        write_scan_csv(work / "scan.csv", scan)
        # fit reads no config; setup_s times loading the stock example instead
        _write_yaml(work / "config.yaml", ChshSampled.CONFIG)
        # least-squares optimum by the 2x2 normal equations, summed exactly
        sxx = math.fsum(signal * signal)
        syy = math.fsum(background * background)
        sxy = math.fsum(signal * background)
        sxe = math.fsum(signal * e)
        sye = math.fsum(background * e)
        det = sxx * syy - sxy * sxy
        return {
            "config": "config.yaml",
            "scan": "scan.csv",
            "rows": int(e.size),
            "beta1": beta1,
            "beta2": beta2,
            "S_hat": (syy * sxe - sxy * sye) / det,
            "B_hat": (sxx * sye - sxy * sxe) / det,
        }

    def argv(self, inputs, work, out):
        return ["fit", str(work / inputs["scan"]), "--beta1", inputs["beta1"],
                "--beta2", inputs["beta2"], "--out", str(out)]

    def parse(self, out):
        return json.loads(out.read_text(encoding="utf-8"))

    def corrupt(self, parsed):
        parsed["S_hat"] = -parsed["S_hat"]

    def check(self, parsed, inputs, ref):
        for key in ("S_hat", "B_hat"):
            if not abs(parsed[key] - inputs[key]) <= 1e-9:
                return f"{key} = {parsed[key]!r}, expected {inputs[key]!r}"
        return None


class HbtFringe(Workload):
    name = "hbt_fringe"
    sizes = {"full": "0.5:20:4000", "tiny": "0.5:20:50"}

    def prepare(self, seed, size, work):
        _write_yaml(work / "config.yaml", _scenario_i_doc(random.Random(seed), "spherical"))
        return {"config": "config.yaml", "baseline": self.sizes[size],
                "phase_seed": random.Random(seed + 1).getrandbits(63)}

    def argv(self, inputs, work, out):
        return ["hbt", "--config", str(work / inputs["config"]), "--baseline", inputs["baseline"],
                "--random-phases", "--seed", str(inputs["phase_seed"]), "--out", str(out)]

    def reference(self, inputs, work, run_cli):
        """Per row: length, direct and interference intensity from the leg lengths,
        and the interference column of a run without random phases."""
        doc = yaml.safe_load((work / inputs["config"]).read_text(encoding="utf-8"))
        geo = doc["geometry"]
        s1, s2, da, db = (geo[k] for k in ("source1", "source2", "detector_a", "detector_b"))
        k = geo["wavenumber"]
        length = math.dist(da, db)
        direction = [(y - x) / length for x, y in zip(da, db)]
        start, stop, steps = inputs["baseline"].split(":")
        lengths = np.linspace(float(start), float(stop), int(steps))
        rows = []
        for L in lengths:
            b = [x + L * d for x, d in zip(da, direction)]
            r1a, r2a, r1b, r2b = math.dist(s1, da), math.dist(s2, da), math.dist(s1, b), math.dist(s2, b)
            direct = 1.0 / (r1a * r2b) ** 2 + 1.0 / (r2a * r1b) ** 2
            loop = 2.0 * math.cos(k * (r1a + r2b - r2a - r1b)) / (r1a * r2b * r2a * r1b)
            rows.append((float(L), direct, loop))
        out = work / "hbt_fixed_phases.csv"
        argv = self.argv(inputs, work, out)
        argv.remove("--random-phases")
        code, _ = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"reference hbt run exited {code}")
        _, fixed = _read_csv(out)
        return rows, [row[2] for row in fixed]

    def parse(self, out):
        header, rows = _read_csv(out)
        return {"header": header, "rows": rows}

    def corrupt(self, parsed):
        for row in parsed["rows"]:
            row[2] = -row[2]

    def check(self, parsed, inputs, ref):
        expected, fixed = ref
        rows = parsed["rows"]
        if parsed["header"] != ("baseline_length", "total_intensity", "interference_term"):
            return f"unexpected header {parsed['header']}"
        if len(rows) != len(expected) or len(fixed) != len(expected):
            return f"{len(rows)} rows, expected {len(expected)}"
        for row, (L, direct, loop), f in zip(rows, expected, fixed):
            if not all(map(math.isfinite, row)) or row[0] != L:
                return f"bad row {row}"
            if abs(row[1] - row[2] - direct) > 1e-12 * direct:
                return f"row {row}: total - interference != direct {direct!r}"
            # the leg phases k*r reach ~200 rad, so allow for their rounding
            if abs(row[2] - loop) > 1e-10 * direct:
                return f"row {row}: interference != 2 cos(k loop) / r^4 = {loop!r}"
            if abs(row[2] - f) > 1e-12 * direct:
                return f"row {row}: interference differs from the fixed-phase run ({f!r})"
        return None


WORKLOADS = {w.name: w for w in (ScanAnalytic(), ChshSampled(), FitCsv(), HbtFringe())}
