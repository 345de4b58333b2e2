"""The benchmark's two workloads and their output checks.

Each workload is a pair of functions: ``setup(seed, workdir)`` builds the
inputs (the set-up the benchmark times as ``setup_s``), and
``run(inputs, check)`` makes one pass, a closed loop with one client in
this process, and returns a ``Pass``.  Every output is checked through
``check``; each check is one operation in ``attempted`` / ``failed``.

The workloads call only public functions, through module attributes, so
the span recorder in ``layers.py`` sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

from orthotile import cli, experiments, gridgen

# the paper's reference domains, as in the test fixtures
RECT_POLY = [[0, 0], [2, 0], [2, 1], [0, 1]]
RECT_MARKS = [[0, 1], [0, 0], [2, 0], [2, 1]]
L_POLY = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
L_MARKS = [[0, 0], [2, 0], [2, 1], [0, 2]]

CHAIN_EPS = 2.0 ** -6
CHAIN_FACES = 24_320
LADDER_EPS0 = 0.25
LADDER_LEVELS = 4


class Checks:
    """Counts output checks; failures are reported on stderr, never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracer = None      # paused while a check runs, so checks are not spans

    def __call__(self, name: str, predicate) -> bool:
        self.attempted += 1
        pause = self.tracer.pause() if self.tracer else contextlib.nullcontext()
        try:
            with pause:
                ok = bool(predicate())
        except Exception as exc:  # a check that cannot be evaluated fails
            return self.fail(name, exc)
        if not ok:
            self.failed += 1
            print(f"check failed: {name}", file=sys.stderr)
        return ok

    def fail(self, name: str, exc: BaseException) -> bool:
        self.attempted += 1
        self.failed += 1
        print(f"check failed: {name}: {exc!r}", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)
        return False


@dataclass
class Pass:
    stages: dict[str, float]                  # the chain's four commands, by <command>_s
    counts: dict[str, int]                    # outside-visible counts, equal on every pass
    wall_s: float = 0.0


# -- chain_L6: the CLI chain on the 24,320-face L-shape ---------------------------


def setup_chain(seed: int, workdir: str) -> dict:
    # a fixed reference domain: the seed selects nothing here
    domain = os.path.join(workdir, "L.domain.json")
    gridgen.save_domain(domain, gridgen.DomainSpec(L_POLY, L_MARKS))
    return {"domain": domain, "workdir": workdir}


def _printed(text: str) -> dict[str, str]:
    """The CLI's `key value key value ...` lines as a dict (first wins)."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        tok = line.split()
        for i in range(0, len(tok), 2):
            out.setdefault(tok[i], tok[i + 1] if i + 1 < len(tok) else "")
    return out


def run_chain(inp: dict, check: Checks) -> Pass:
    d = tempfile.mkdtemp(prefix="chain-", dir=inp["workdir"])
    mp, tp = os.path.join(d, "L.map.json"), os.path.join(d, "L.tiling.json")
    steps = {"generate": ["generate", "--domain", inp["domain"], "--mesh", repr(CHAIN_EPS),
                          "--out", mp],
             "tile": ["tile", "--map", mp, "--out", tp, "--svg", os.path.join(d, "L.svg")],
             "verify": ["verify", "--tiling", tp],
             "duality": ["duality", "--map", mp]}
    stages, out = {}, {}
    for name, argv in steps.items():
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        stages[name + "_s"] = time.perf_counter() - t0
        out[name] = _printed(buf.getvalue())
        check(f"{name} exits 0", lambda: rc == 0)
    gen, tile, ver, dua = (out[k] for k in steps)
    check("verify prints ok", lambda: "ok" in ver)
    check("|product - 1| <= 1e-8", lambda: abs(float(dua["product"]) - 1.0) <= 1e-8)
    check("tile L equals lambda_primal to 1e-9",
          lambda: math.isclose(float(tile["L"]), float(dua["lambda_primal"]), rel_tol=1e-9))
    check(f"{CHAIN_FACES} faces", lambda: int(gen["faces"]) == CHAIN_FACES)
    counts = {"faces": int(gen.get("faces", -1)),
              "degenerate_tiles": int(tile.get("degenerate", -1))}
    counts.update({f + ".bytes": os.path.getsize(os.path.join(d, f))
                   for f in sorted(os.listdir(d))})
    shutil.rmtree(d)
    return Pass(stages, counts)


# -- ladder_rect4: the criterion-5 refinement ladder ------------------------------


def setup_ladder(seed: int, workdir: str) -> dict:
    # a fixed reference domain: the seed selects nothing here
    return {"spec": gridgen.DomainSpec(RECT_POLY, RECT_MARKS)}


def run_ladder(inp: dict, check: Checks) -> Pass:
    rep = experiments.convergence_run(inp["spec"], LADDER_EPS0, LADDER_LEVELS)
    for k, lv in enumerate(rep.levels):
        check(f"level {k} has no error", lambda: lv.error is None)
        check(f"level {k} duality defect <= 1e-8", lambda: lv.duality_defect <= 1e-8)
        check(f"level {k} has no overlap or containment violation",
              lambda: lv.overlap_count == 0 and lv.containment_count == 0)
        check(f"level {k} area defect <= 1e-9 max(L, 1)",
              lambda: lv.area_defect <= 1e-9 * max(lv.L_n, 1.0))
    devs = [lv.sup_dev_vs_reference for lv in rep.levels]
    check("sup_dev_vs_reference strictly decreasing",
          lambda: all(b < a for a, b in zip(devs, devs[1:])))
    check("|L_n - 2| <= 0.1 at the finest level", lambda: abs(rep.levels[-1].L_n - 2.0) <= 0.1)
    counts = {"faces": sum(lv.face_count for lv in rep.levels), "probes": rep.probe_count}
    counts.update({f"faces.level{k}": lv.face_count for k, lv in enumerate(rep.levels)})
    return Pass({}, counts)


WORKLOADS = {"chain_L6": (setup_chain, run_chain),
             "ladder_rect4": (setup_ladder, run_ladder)}
