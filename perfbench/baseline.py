"""Baseline and steadiness check for the benchmark.

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json

Runs every workload of ``BENCHMARK.json`` once per seed (seeds 1 .. runs,
round-robin over the workloads, each run its own process), then two
traced runs per workload on seed 1.  Writes, per workload and end-to-end
metric, the median, the quartiles of ``statistics.quantiles(values, n=4)``
and the spread (q3 - q1) / median beside the metric's bound; the same
figures, ungated, for the other stage times; and the traced per-layer
table.  Every count of the traced runs (every per-layer metric not in
seconds) must repeat exactly between them.  Exits
1 when a run is not correct or a count does not repeat.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
FIRST_SEED = 1
TRACE_RUNS = 2


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                           + proc.stderr[-4000:])
    lines = proc.stdout.splitlines()
    details = next(json.loads(ln[len("details "):]) for ln in lines if ln.startswith("details "))
    return json.loads(lines[-1]), details


def summary(values: list[float], bound: float | None = None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"n": len(values), "median": med, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else None, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["spread_below_third_of_bound"] = out["spread"] is not None and out["spread"] < bound / 3
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default=None, help="write the baseline JSON here")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = list(range(FIRST_SEED, FIRST_SEED + args.runs))
    ok = True

    runs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            res, det = run(w, seed, seconds, 0)
            runs[w].append((res, det))
            ok &= res["correct"]
            print(f"{w} seed {seed}: correct {res['correct']} "
                  f"{res['attempted'] - res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
                  flush=True)

    out: dict = {"machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                             **{m: importlib.metadata.version(m) for m in ("numpy", "scipy")}},
                 "run_seconds": seconds, "seeds": seeds, "workloads": {}, "traced": {}}
    for w, rs in runs.items():
        entry: dict = {"correct": [r["correct"] for r, _ in rs],
                       "attempted": [r["attempted"] for r, _ in rs],
                       "failed": [r["failed"] for r, _ in rs],
                       "passes": [len(d["passes"]) for _, d in rs], "end_to_end": {}}
        if len(rs) >= 2:
            for m in bench["end_to_end"]:
                entry["end_to_end"][m["name"]] = summary(
                    [r["metrics"][m["name"]]["value"] for r, _ in rs], m["bound"])
            entry["times_s"] = {k: summary([d["times_s"][k]["p50"] for _, d in rs])
                                for k in rs[0][1]["times_s"] if k not in entry["end_to_end"]}
        out["workloads"][w] = entry

    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in names:
        traced = [run(w, FIRST_SEED, seconds, 1) for _ in range(TRACE_RUNS)]
        first = traced[0][0]["metrics"]
        mismatches = [name for name, u in units.items() if u != "s"
                      for res, _ in traced[1:] if res["metrics"][name] != first[name]]
        ok &= all(res["correct"] for res, _ in traced) and not mismatches
        out["traced"][w] = {
            "correct": [res["correct"] for res, _ in traced],
            "counts_repeat": not mismatches, "mismatches": mismatches,
            "overhead_s": [res["metrics"]["trace.overhead_s"]["value"] for res, _ in traced],
            "per_layer": {k: v["value"] for k, v in first.items()},
            "self_time_table": traced[0][1]["table"]}
        print(f"{w} traced: counts repeat {not mismatches}, estimated overhead "
              + ", ".join(f"{x:.3f}s" for x in out["traced"][w]["overhead_s"]), flush=True)

    for w, entry in out["workloads"].items():
        for name, s in entry["end_to_end"].items():
            print(f"{w:13s} {name:12s} median {s['median']:10.4f} q1 {s['q1']:10.4f} "
                  f"q3 {s['q3']:10.4f} spread {s['spread']:.4f} bound {s['bound']}"
                  + ("" if s["spread_below_third_of_bound"] else "  <-- spread >= bound/3"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
