"""Span recording around skybell's public functions, installed from outside.

The benchmark measures each layer of the package (one layer per module)
without touching ``src/``: :meth:`Tracer.install` replaces every public
function and public method of the layer modules with a wrapper that
records a span.  Modules import each other's functions by name, so every
``skybell.*`` module attribute bound to a wrapped function is rebound to
its wrapper; :meth:`Tracer.uninstall` puts the originals back.

A span is ``[name, parent index, call id, start ns, end ns]``.  Spans stay
in memory; :func:`aggregate` turns the spans of one CLI call into call
counts and self times, where a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

#: The package's modules, one layer each.  ``errors`` does no work.
LAYERS = ("config", "propagation", "polarization", "background", "scenarios", "montecarlo", "cli")


def _public_callables(module):
    """(qualified name, owner, attribute, function) for the module's own public API."""
    prefix = module.__name__.rsplit(".", 1)[1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{prefix}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{prefix}.{attr}.{meth}", obj, meth, fn


class Tracer:
    """Records spans and per-call counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.call_id = 0
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.settings: dict[int, set] = defaultdict(set)
        self._stack: list[int] = []
        self._last_exc = None
        self._restore: list[tuple] = []
        self._call_start: dict[int, int] = {}

    # -- installation -------------------------------------------------

    def install(self) -> int:
        """Wrap every public function of the layer modules; returns how many."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"skybell.{layer}") for layer in LAYERS]
        chunk_size = modules[LAYERS.index("montecarlo")].CHUNK_SIZE
        hooks = {
            "cli.write_scan_csv": self._count_bytes("cli.write_scan_csv.bytes"),
            "cli.read_scan_csv": self._count_bytes("cli.read_scan_csv.bytes"),
            "montecarlo.sample_coincidences": lambda arg: self._count_trials(arg["n"], chunk_size),
            "scenarios.coincidence_correlator": self._count_setting,
        }
        wrappers = {}
        for module in modules:
            for name, owner, attr, fn in _public_callables(module):
                wrapper = self._wrap(name, fn, hooks.get(name))
                wrappers[id(fn)] = wrapper
                self._rebind(owner, attr, fn, wrapper)
        # re-exports: the package namespace and every `from .x import y`
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "skybell" and not mod_name.startswith("skybell."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and obj is not wrappers[id(obj)]:
                    self._rebind(module, attr, obj, wrappers[id(obj)])
        return len(wrappers)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- recording ----------------------------------------------------

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        layer = name.split(".", 1)[0]
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, stack[-1] if stack else -1, self.call_id, clock(), 0]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an exception once, at the innermost span it leaves
                if exc is not self._last_exc:
                    self._last_exc = exc
                    self.errors[f"{layer}.errors", self.call_id] += 1
                raise
            finally:
                record[4] = clock()
                stack.pop()
            if hook is not None:
                # counts by argument name, outside the call's own span
                hook(signature.bind(*args, **kwargs).arguments)
            return result

        return wrapper

    def _count_bytes(self, key):
        def hook(arg):
            self.counters[key, self.call_id] += os.path.getsize(arg["path"])

        return hook

    def _count_trials(self, n, chunk_size):
        n = int(n)
        self.counters["montecarlo.trials", self.call_id] += n
        self.counters["montecarlo.chunks", self.call_id] += -(-n // chunk_size)

    def _count_setting(self, arg):
        self.settings[self.call_id].add((arg["a"].angle, arg["b"].angle))

    def begin_call(self) -> int:
        """Start a new CLI call: later spans share the returned id."""
        if self._stack:
            raise RuntimeError("a CLI call began inside a span")
        self.call_id += 1
        self._call_start[self.call_id] = len(self.spans)
        return self.call_id

    def call_spans(self, call_id: int) -> tuple[int, list[list]]:
        """(index of the first span, spans) of one call."""
        start = self._call_start[call_id]
        end = self._call_start.get(call_id + 1, len(self.spans))
        return start, self.spans[start:end]


def self_times(spans: list[list], base: int = 0) -> list[int]:
    """Self time in ns of each span; ``base`` is the index of spans[0] in the full list."""
    child = [0] * len(spans)
    for span in spans:
        parent = span[1] - base
        if parent >= 0:
            child[parent] += span[4] - span[3]
    return [s[4] - s[3] - c for s, c in zip(spans, child)]


def aggregate(tracer: Tracer, call_id: int, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced CLI call that took ``wall_s`` seconds."""
    base, spans = tracer.call_spans(call_id)
    selfs = self_times(spans, base)
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    layer_ns: Counter = Counter()
    for span, own in zip(spans, selfs):
        calls[span[0]] += 1
        self_ns[span[0]] += own
        layer_ns[span[0].split(".", 1)[0]] += own

    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_ns[layer] / 1e9 / wall_s
        out[f"{layer}.errors"] = tracer.errors[f"{layer}.errors", call_id]
    for key in ("cli.write_scan_csv.bytes", "cli.read_scan_csv.bytes", "montecarlo.chunks"):
        out[key] = tracer.counters[key, call_id]
    sampled_ns = self_ns["montecarlo.sample_coincidences"]
    trials = tracer.counters["montecarlo.trials", call_id]
    out["montecarlo.trials_per_s"] = trials / (sampled_ns / 1e9) if sampled_ns else 0.0
    settings = len(tracer.settings[call_id])
    evals = calls["scenarios.coincidence_correlator"]
    out["scenarios.model_evals_per_setting"] = evals / settings if settings else 0.0
    out["trace.coverage"] = sum(selfs) / 1e9 / wall_s
    return out
