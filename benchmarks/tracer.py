"""Spans around the public functions of each pmqkd module.

A span is (name, start, end, parent, operation id).  The tracer wraps each
function listed in SPANS and rebinds every module attribute of the package
that refers to it, so calls that go through another module's imported name
are traced too.  Nothing under src/ changes; uninstall() restores the
original objects.

Spans are kept in flat arrays while the benchmark runs and are turned into
per-layer totals (calls, busy time, self time) only at the end.  Self time is
a span's duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute).  Several attributes may share one span name.
SPANS = (
    ("cli.main", "pmqkd.cli", "main"),
    ("cli.build_parser", "pmqkd.cli", "build_parser"),
    ("optimizer.optimize", "pmqkd.optimizer", "optimize"),
    ("pipeline.expected_key_rate", "pmqkd.pipeline", "expected_key_rate"),
    ("security.finite_key_rate", "pmqkd.security", "finite_key_rate"),
    ("security.vacuum_yield_ub", "pmqkd.security", "vacuum_yield_ub"),
    ("security.chernoff", "pmqkd.security", "chernoff_expected_ub"),
    ("security.chernoff", "pmqkd.security", "chernoff_observed_ub"),
    ("security.phase_error_discrete", "pmqkd.security", "phase_error_discrete"),
    ("security.deviation_bound", "pmqkd.security", "deviation_bound"),
    ("security.kato_correction", "pmqkd.security", "kato_correction"),
    ("security.key_length", "pmqkd.security", "key_length"),
    ("numerics.pseudo_fock_weight_ub", "pmqkd.numerics", "pseudo_fock_weight_ub"),
    ("numerics.binary_entropy", "pmqkd.numerics", "binary_entropy"),
    ("channel", "pmqkd.channel", "transmittance"),
    ("channel", "pmqkd.channel", "gain"),
    ("channel", "pmqkd.channel", "qber"),
    ("channel", "pmqkd.channel", "expected_sifted"),
    ("simulator.simulate", "pmqkd.simulator", "simulate"),
    ("simulator.merge", "pmqkd.simulator", "ObservedTally.merge"),
    ("simulator.write_tally_csv", "pmqkd.simulator", "write_tally_csv"),
    ("simulator.tally_to_stats", "pmqkd.simulator", "tally_to_stats"),
    ("ingest.parse_tally_csv", "pmqkd.ingest", "parse_tally_csv"),
    ("ingest.derive_observables", "pmqkd.ingest", "derive_observables"),
    ("ingest.reproduce_key_rate", "pmqkd.ingest", "reproduce_key_rate"),
    ("ingest.result_to_json", "pmqkd.ingest", "result_to_json"),
)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans of the SPANS functions while installed."""

    def __init__(self) -> None:
        self.names = sorted({name for name, _, _ in SPANS})
        self._sid = {name: i for i, name in enumerate(self.names)}
        self.reset()
        self._saved: list[tuple[object, str, object, object]] = []

    def reset(self) -> None:
        self.kind = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self._stack = [-1]
        self.op_id = -1
        # Values recorded at the span boundaries, keyed by span index.
        self.optimize_results: dict[int, tuple[int, bool]] = {}
        self.simulate_rounds: dict[int, int] = {}
        self.zero_rates = 0
        self.parse_bytes = 0
        self.parse_rejected = 0

    # -- recording ---------------------------------------------------------

    def _note(self, name: str, idx: int, result) -> None:
        if name == "optimizer.optimize":
            self.optimize_results[idx] = (result.evaluations, result.feasible)
        elif name == "simulator.simulate":
            self.simulate_rounds[idx] = result.n_rounds
        elif name == "security.finite_key_rate":
            self.zero_rates += result.rate == 0.0

    _NOTED = ("optimizer.optimize", "simulator.simulate", "security.finite_key_rate")

    def _wrap(self, fn, name: str):
        sid = self._sid[name]
        kind, parent, op, t0s, t1s = self.kind, self.parent, self.op, self.t0, self.t1
        stack = self._stack
        clock = time.perf_counter_ns
        note = name in self._NOTED
        parse = name == "ingest.parse_tally_csv"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(sid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            t0s.append(0)
            t1s.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                if parse:
                    tracer.parse_bytes += os.path.getsize(args[0])
                result = fn(*args, **kwargs)
            except Exception:
                if parse:
                    tracer.parse_rejected += 1
                raise
            finally:
                t1s[idx] = clock()
                t0s[idx] = t0
                stack.pop()
            if note:
                tracer._note(name, idx, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every SPANS function and rebind each package name that refers to it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.reset()                # each install starts an empty trace
        targets = [(name, *_resolve(module, attr)) for name, module, attr in SPANS]
        modules = [m for n, m in sys.modules.items() if n == "pmqkd" or n.startswith("pmqkd.")]
        for name, owner, leaf in targets:
            fn = getattr(owner, leaf)
            wrapper = self._wrap(fn, name)
            self._saved.append((owner, leaf, fn, wrapper))
            setattr(owner, leaf, wrapper)
            if isinstance(owner, type):
                continue            # a method: the class attribute is the only binding
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn, wrapper))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn, _ in reversed(self._saved):
            setattr(owner, key, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own gates on the original functions."""
        for owner, key, fn, _ in reversed(self._saved):
            setattr(owner, key, fn)
        try:
            yield
        finally:
            for owner, key, _, wrapper in self._saved:
                setattr(owner, key, wrapper)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        if len(self._stack) != 1:
            raise RuntimeError("trace has spans that never ended")
        return {
            "kind": np.array(self.kind, dtype=np.uint16),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "t0_ns": np.array(self.t0, dtype=np.int64),
            "t1_ns": np.array(self.t1, dtype=np.int64),
        }

    def totals(self, spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
        """calls, busy_s (inclusive) and self_s for each span name."""
        kind, parent = spans["kind"], spans["parent"]
        dur = (spans["t1_ns"] - spans["t0_ns"]).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(kind))
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(kind, minlength=k)
        busy = np.bincount(kind, weights=dur, minlength=k)
        own = np.bincount(kind, weights=self_ns, minlength=k)
        return {
            name: {"calls": int(calls[i]), "busy_s": float(busy[i]) * 1e-9,
                   "self_s": float(own[i]) * 1e-9}
            for i, name in enumerate(self.names)
        }

    def children_count(self, spans, parent_name: str, child_name: str) -> dict[int, int]:
        """For each span named parent_name, the number of direct children named child_name."""
        kind, parent = spans["kind"], spans["parent"]
        parents = np.flatnonzero(kind == self._sid[parent_name])
        kids = parent[kind == self._sid[child_name]]
        counts = np.bincount(kids[kids >= 0], minlength=len(kind)) if len(kind) else kids
        return {int(i): int(counts[i]) for i in parents}

    def spans_named(self, spans, name: str) -> np.ndarray:
        return np.flatnonzero(spans["kind"] == self._sid[name])

    def save(self, path, spans) -> None:
        np.savez(path, names=np.array(self.names), **spans)
