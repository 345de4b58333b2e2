"""orthotile benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload chain_L6 --seed 1 --seconds 55 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The run sets up (imports and
input generation, timed as ``setup_s`` over several set-ups), then makes
whole passes of the workload back to back, starting another only while it
is expected to end within ``--seconds`` (at least one pass).  Every output
is checked.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the ``end_to_end`` metrics of ``BENCHMARK.json``: the
  median set-up time, the median pass time and the peak memory.  No spans
  are recorded.
- ``--trace 1``: one untraced pass, then one pass under the span recorder
  of ``layers.py``; the ``per_layer`` metrics of ``BENCHMARK.json``, with
  ``trace.overhead_s`` the recorder's estimated cost in the traced pass.
  The spans are written to ``.perfbench_work/spans-<workload>-seed<seed>.json``.

Earlier stdout lines carry the pass time and the stage times over the
passes (minimum, median and, from 21 passes on, the highest percentile
with ten passes beyond it, with the pass count), the seed, every metric
with its unit and a ``details`` JSON line.  Exits 2 without a result when the sources are
missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 5
NAMES = ("chain_L6", "ladder_rect4")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit (one setup_s sample)")
    return p.parse_args(argv)


def tail(xs: list[float]) -> dict:
    """Minimum, median and the highest whole percentile above it with at
    least ten samples beyond it (nearest rank), with the sample count."""
    out: dict = {"n": len(xs)}
    if not xs:
        return out
    s = sorted(xs)
    out["min"] = s[0]
    out["p50"] = statistics.median(s)
    if len(s) > 20:
        pct = math.floor(100 * (len(s) - 10) / len(s))
        out[f"p{pct}"] = s[math.ceil(pct / 100 * len(s)) - 1]
    return out


def setup_sample(args) -> float:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--setup-only"],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def one_pass(run_pass, inputs, checks):
    gc.collect()
    t0 = time.perf_counter()
    try:
        p = run_pass(inputs, checks)
    except Exception as exc:  # a pass that dies is a failed operation, reported
        checks.fail("pass", exc)
        return None
    p.wall_s = time.perf_counter() - t0
    return p


def emit(args, entries, values, checks, details) -> None:
    metrics = {e["name"]: {"value": float(values.get(e["name"], 0.0)), "unit": e["unit"]}
               for e in entries}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": checks.attempted > 0 and checks.failed == 0,
                      "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))


def pass_details(p) -> dict:
    return {"wall_s": p.wall_s, "stages": p.stages, "counts": p.counts}


def measure(args, inputs, run_pass, checks, setup_s, bench) -> None:
    setups = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    passes = []
    t0 = time.perf_counter()
    while True:
        p = one_pass(run_pass, inputs, checks)
        if p is None:
            break
        passes.append(p)
        if time.perf_counter() - t0 + p.wall_s > args.seconds:
            break
    for p in passes[1:]:
        checks("outside-visible counts repeat across passes",
               lambda: p.counts == passes[0].counts)
    values = {"setup_s": statistics.median(setups),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    times = {}
    if passes:
        samples = {"wall_s": [p.wall_s for p in passes]}
        samples.update({k: [p.stages[k] for p in passes] for k in passes[0].stages})
        times = {k: tail(v) for k, v in samples.items()}
        values["wall_s"] = times["wall_s"]["p50"]
    for k, t in times.items():
        print(f"time {k} " + " ".join(f"{s}={x:.6g}" for s, x in t.items()))
    emit(args, bench["end_to_end"], values, checks,
         {"seed": args.seed, "setup_samples_s": setups, "times_s": times,
          "passes": [pass_details(p) for p in passes]})


def measure_traced(args, inputs, run_pass, checks, bench, layers) -> None:
    untraced = one_pass(run_pass, inputs, checks)
    tracer = layers.Tracer(layers.TARGETS)
    checks.tracer = tracer
    tracer.install()
    try:
        traced = one_pass(run_pass, inputs, checks)
    finally:
        tracer.uninstall()
        checks.tracer = None
    values = tracer.metrics()
    details = {"seed": args.seed, "table": tracer.table()}
    if traced is not None:
        values.update(traced.counts)
        values["trace.wall_s"] = traced.wall_s
        values["trace.spans"] = len(tracer.spans)
        details["traced"] = pass_details(traced)
    values["trace.overhead_s"] = tracer.overhead_estimate()
    if untraced is not None and traced is not None:
        checks("outside-visible counts repeat with tracing on",
               lambda: traced.counts == untraced.counts)
        details["untraced"] = pass_details(untraced)
    spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
    tracer.write(spans_path)
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    print(f"{'span':48s} {'calls':>8s} {'s':>9s} {'self_s':>9s}")
    for name, row in sorted(tracer.table().items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:48s} {row['calls']:8d} {row['s']:9.4f} {row['self_s']:9.4f}")
    emit(args, bench["per_layer"], values, checks, details)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "orthotile", "__init__.py")):
        print(f"orthotile sources not found under {src}", file=sys.stderr)
        return 2
    # one client in one process: no product threads and one numeric-library
    # thread, so that a run does not also time waits on the host's other core
    os.environ.pop("ORTHOTILE_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import layers
    import workloads

    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup, run_pass = workloads.WORKLOADS[args.workload]
        inputs = setup(args.seed, run_dir)
        setup_s = time.perf_counter() - t_start
        if args.setup_only:
            print(repr(setup_s))
            return 0
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        checks = workloads.Checks()
        if args.trace:
            measure_traced(args, inputs, run_pass, checks, bench, layers)
        else:
            measure(args, inputs, run_pass, checks, setup_s, bench)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
