"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the orthotile modules from the
outside: every module attribute through which callers look a function up
is replaced (``experiments.duality_product`` is the same object as
``extremal.duality_product``, so both are patched), and methods are patched
on their class, which covers every module that imported the class.  Spans
stay in memory as ``[name, start, end, parent, child_s]`` rows and are
written out once, at the end of the run.  A span's self time is its
duration minus the time its direct child spans cover.

Leaf functions called more than ~1e4 times per pass only count calls
(``count_only`` targets); their time stays in the caller's self time.

The recorder's own cost is estimated, not measured as traced minus
untraced wall time, which run-to-run noise swamps: ``overhead_estimate``
multiplies the spans and counted calls of a pass by the cost of one
wrapper call, measured on a no-op, and adds the time the count hooks took.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional


class Target(NamedTuple):
    path: str                                  # "<module>.<function>" or "<module>.<Class>.<method>"
    hook: Optional[Callable] = None            # hook(counts, name, result, args, kwargs)
    count_only: bool = False
    label: Optional[Callable] = None           # label(args) -> span name


def _add(key, value_of):
    def hook(counts, name, result, args, kwargs):
        counts[f"{name}.{key}"] += value_of(result, args, kwargs)
    return hook


def _solve_hook(counts, name, result, args, kwargs):
    counts[f"{name}.free_vertices"] += result.graph.n - len(result.boundary)
    key = f"{name}.residual_max"
    counts[key] = max(counts[key], result.residual)


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _file_bytes(i, key):
    return _add("bytes", lambda r, a, k: os.path.getsize(_arg(a, k, i, key)))


TARGETS = [
    Target("geom.hausdorff_distance"),
    Target("geom.polyline_min_distance"),
    Target("geom.polygon_contains_many"),
    Target("gridgen.grid_approximation"),
    Target("odmap.OrthodiagonalMap.__init__"),
    Target("odmap.OrthodiagonalMap.side_edges"),
    Target("odmap.save_map", _file_bytes(0, "path")),
    Target("odmap.load_map"),
    Target("odmap.FaceLocator.__init__"),
    Target("harmonic.solve_dirichlet", _solve_hook),
    Target("harmonic.harmonic_conjugate"),
    Target("tiling.build_tiling",
           _add("degenerate_tiles", lambda r, a, k: r[0].degenerate_count)),
    Target("tiling.verify_tiling",
           _add("live_tiles", lambda r, a, k: sum(not t.degenerate
                                                  for t in _arg(a, k, 0, "t").tiles))),
    Target("tiling.save_tiling", _file_bytes(0, "path")),
    Target("tiling.load_tiling"),
    Target("tiling.render_svg", _add("bytes", lambda r, a, k: len(r.encode()))),
    Target("tiling.InterpolatedMap.__init__"),
    Target("tiling.InterpolatedMap.evaluate", count_only=True),
    Target("extremal.duality_product"),
    Target("extremal.extremal_length"),
    Target("holo.assemble"),
    Target("experiments.convergence_run"),
    Target("experiments.modulus_profile"),
    Target("experiments.rotation_color_swap_symmetric"),
    Target("experiments.probe_points"),
    Target("cli.main", label=lambda args: "cli.main." + (args[0][0] if args and args[0] else "?")),
]



def _loaded_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "orthotile" or name.startswith("orthotile."))]


class Tracer:
    """Records spans and counts around the targets while installed."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.paused = False
        self.hook_s = 0.0       # time spent in count hooks, part of the overhead
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._count_only = {tg.path for tg in self.targets if tg.count_only}

    # -- patching ------------------------------------------------------------

    def install(self) -> "Tracer":
        for tg in self.targets:
            parts = tg.path.split(".")
            mod = importlib.import_module("orthotile." + parts[0])
            if len(parts) == 3:
                cls = getattr(mod, parts[1])
                orig = cls.__dict__[parts[2]]
                self._patch(cls, parts[2], self._wrap(tg, orig))
            else:
                orig = getattr(mod, parts[1])
                wrapper = self._wrap(tg, orig)
                for m in _loaded_modules():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, tg: Target, fn):
        name = tg.path
        counts = self.counts
        if tg.count_only:
            key = name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if not self.paused:
                    counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            label = tg.label(args) if tg.label else name
            parent = stack[-1] if stack else -1
            idx = len(spans)
            row = [label, 0.0, 0.0, parent, 0.0]
            spans.append(row)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                row[1], row[2] = t0, t1
                if parent >= 0:
                    spans[parent][4] += t1 - t0
            if tg.hook is not None:
                th = clock()
                tg.hook(counts, name, result, args, kwargs)
                dt = clock() - th
                self.hook_s += dt
                if parent >= 0:
                    # the hook's cost is the recorder's, not the parent's
                    spans[parent][4] += dt
            return result
        return spanned

    @contextlib.contextmanager
    def pause(self):
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    # -- results -------------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for name, t0, t1, _, child in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child
        return out

    def metrics(self) -> dict[str, float]:
        """Flat `<name>.<stat>` metrics plus `<module>.self_s` totals."""
        flat: dict[str, float] = dict(self.counts)
        for name, row in self.table().items():
            for stat, v in row.items():
                flat[f"{name}.{stat}"] = v
            module = name.split(".")[0] + ".self_s"
            flat[module] = flat.get(module, 0.0) + row["self_s"]
        return flat

    def overhead_estimate(self) -> float:
        """Seconds the recorder added to the pass it traced."""
        span_cost, count_cost = wrapper_costs()
        counted = sum(v for k, v in self.counts.items()
                      if k.endswith(".calls") and k[:-len(".calls")] in self._count_only)
        return len(self.spans) * span_cost + counted * count_cost + self.hook_s

    def write(self, path: str) -> None:
        t_ref = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"table": self.table(), "counts": dict(self.counts),
                       "spans": [[n, t0 - t_ref, t1 - t_ref, p]
                                 for n, t0, t1, p, _ in self.spans]}, fh)
            fh.write("\n")


def _noop():
    return None


def wrapper_costs() -> tuple[float, float]:
    """Seconds one span wrapper and one counting wrapper add to a call: the
    fastest of 5 timings of 20,000 wrapped no-op calls, less the same
    number of bare calls."""
    calls = 20_000
    tracer = Tracer([])
    spanned = tracer._wrap(Target("perfbench.noop"), _noop)
    counted = tracer._wrap(Target("perfbench.noop", count_only=True), _noop)

    def per_call(fn):
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - t0)
            tracer.spans.clear()
        return best / calls

    bare = per_call(_noop)
    return max(per_call(spanned) - bare, 0.0), max(per_call(counted) - bare, 0.0)

