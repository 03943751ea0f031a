"""Spans around gammacert's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules with a
recording wrapper *wherever a gammacert module binds it by name*: concavity
imports ``gamma_to_h`` and sweeps imports ``check_transfer``, so patching
only the defining module would miss those calls.  ``uninstall`` puts the
originals back, so untraced rounds run unmodified code.

A span is (name, start, end, parent).  Spans live in flat arrays while the
run lasts and are written out at the end.  Self time is a span's duration
minus its direct children's durations: calls are synchronous and
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("polycore", "concavity", "coefficients", "paths", "sweeps", "jsonio", "render", "cli")

# Arithmetic leaves called inside the hottest loops.  A wrapper would cost
# more than the call; their time stays in the caller's self time.
LEAVES = {"polycore.binomial", "polycore.as_rational", "paths.count_paths"}

# Functions that walk every path of cfg: each call adds cfg.path_count to
# paths.paths_walked.
FULL_WALKS = {"paths.lhs_by_paths", "paths.rhs_by_paths", "paths.check_crossing_claim", "paths.build_certificate"}

# Generator functions: their work runs inside the consumer, so they get a
# yield counter instead of a span.
GENERATORS = {"paths.enumerate_paths"}


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"gammacert.{name}") for name in LAYERS}
        self.package = importlib.import_module("gammacert")
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.recording = False
        self._originals = {}  # original function -> qualified name
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                qualified = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and qualified not in LEAVES
                ):
                    self._originals[obj] = qualified
        self._wrappers = {fn: self._wrap(fn, q) for fn, q in self._originals.items()}
        # Every (namespace, attribute) that binds one of the originals.
        self._bindings = [
            (ns, attr, fn)
            for ns in (self.package, *self.modules.values())
            for attr, fn in vars(ns).items()
            if inspect.isfunction(fn) and fn in self._originals
        ]

    # -- spans --------------------------------------------------------------

    def name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def begin(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, qualified: str):
        tracer = self
        if qualified in GENERATORS:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.recording:
                    tracer.counters[qualified + ".calls"] += 1
                for item in fn(*args, **kwargs):
                    if tracer.recording:
                        tracer.counters[qualified + ".yields"] += 1
                        tracer.counters["paths.paths_walked"] += 1
                    yield item

            return counted

        nid = self.name_id(qualified)
        walks = qualified in FULL_WALKS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if walks:
                cfg = args[0] if args else kwargs["cfg"]
                tracer.counters["paths.paths_walked"] += cfg.path_count
            return result

        return traced

    def install(self) -> None:
        for ns, attr, fn in self._bindings:
            setattr(ns, attr, self._wrappers[fn])

    def uninstall(self) -> None:
        for ns, attr, fn in self._bindings:
            setattr(ns, attr, fn)

    # -- results ------------------------------------------------------------

    def aggregate(self, stop: int) -> dict[str, dict[str, float]]:
        """Calls and self time per span name over the first ``stop`` spans."""
        child_time = defaultdict(float)
        for k in range(stop):
            parent = self.span_parent[k]
            if parent >= 0:
                child_time[parent] += self.span_end[k] - self.span_start[k]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for k in range(stop):
            entry = out[self.names[self.span_name[k]]]
            entry["calls"] += 1
            entry["self_s"] += self.span_end[k] - self.span_start[k] - child_time[k]
        return dict(out)

    def write(self, path) -> None:
        """All spans as gzipped CSV: span, name, start_s, end_s, parent (-1 = root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span,name,start_s,end_s,parent\n")
            for k in range(len(self.span_name)):
                out.write(
                    f"{k},{self.names[self.span_name[k]]},{self.span_start[k]:.9f},"
                    f"{self.span_end[k]:.9f},{self.span_parent[k]}\n"
                )
