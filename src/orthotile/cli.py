"""Command-line orchestration for the pipeline.

Exit codes: 0 ok, 1 input error, 2 generation error, 3 solver error,
4 verification failure, 64 usage.  All numeric output is printed with
12 significant digits and commands are idempotent: identical inputs give
byte-identical artifacts at a fixed BLAS thread count (the solver's last
bits depend on it).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import experiments, extremal, gridgen, harmonic, odmap, tiling

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GENERATION = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
EXIT_USAGE = 64

FMT = "{:.12g}"


@dataclass
class RunConfig:
    """Central tolerance policy for the pipeline.  The paper never fixes
    solver accuracy, so these defaults are artifact policy; the CLI flags
    default to this record."""

    solver_tol: float = 1e-12
    verify_tol: float = 1e-9
    levels: int = 4

    def __post_init__(self):
        for name in ("solver_tol", "verify_tol"):
            v = getattr(self, name)
            if not (0.0 < v <= 1e-2):
                raise ValueError(f"{name} must be in (0, 1e-2]")


DEFAULTS = RunConfig()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _read(kind: str, path: str, load):
    """load(path); a missing, unparsable or malformed file exits 1 naming it
    (JSONDecodeError is a ValueError; an integer beyond int64 or float
    range raises OverflowError)."""
    try:
        return load(path)
    except (OSError, LookupError, TypeError, ValueError, OverflowError) as exc:
        raise SystemExit(_fail(EXIT_INPUT, f"cannot read {kind} {path}: {exc}"))


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def cert_path(map_path: str) -> str:
    return (map_path[:-5] if map_path.endswith(".json") else map_path) + ".cert.json"


def cmd_generate(args) -> int:
    spec = _read("domain spec", args.domain, gridgen.load_domain)
    try:
        mm, cert = gridgen.grid_approximation(spec, args.mesh)
    except gridgen.GenerationError as exc:
        return _fail(EXIT_GENERATION, f"generation failed: {exc}")
    odmap.save_map(args.out, mm.map, mm.marked)
    odmap.save_json(cert_path(args.out), cert.to_json_dict())
    print("faces", mm.map.n_faces, "delta", FMT.format(cert.delta))
    return EXIT_OK


def _load_marked(path: str) -> odmap.MarkedRectangleMap:
    m, marked = _read("map", path, odmap.load_map)
    if marked is None:
        raise SystemExit(_fail(EXIT_INPUT, f"map {path} has no marked vertices"))
    try:
        return odmap.MarkedRectangleMap(m, marked)
    except (IndexError, odmap.MapError) as exc:
        raise SystemExit(_fail(EXIT_INPUT, f"bad marking in {path}: {exc}"))


def cmd_tile(args) -> int:
    mm = _load_marked(args.map)
    try:
        t, h, ht = tiling.build_tiling(mm, tol=args.tol)
    except odmap.MapError as exc:
        return _fail(EXIT_INPUT, f"bad map {args.map}: {exc}")
    except (harmonic.SolverError, harmonic.ConjugacyError) as exc:
        res = getattr(exc, "residual", None)
        return _fail(EXIT_SOLVER, f"solver failed: {exc}"
                     + (f" (residual {FMT.format(res)})" if res is not None else ""))
    tiling.save_tiling(args.out, t)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(tiling.render_svg(t))
    print("L", FMT.format(t.L), "tiles", len(t), "degenerate", t.degenerate_count)
    return EXIT_OK


def cmd_verify(args) -> int:
    t = _read("tiling", args.tiling, tiling.load_tiling)
    rep = tiling.verify_tiling(t, tol=args.tol)
    print("area_defect", FMT.format(rep.area_defect))
    for face, excess in rep.containment:
        print("containment", face, FMT.format(excess))
    for a, b, area in rep.overlaps:
        print("overlap", a, b, FMT.format(area))
    if not rep.ok:
        return _fail(EXIT_VERIFY, "tiling verification failed")
    print("ok")
    return EXIT_OK


def cmd_duality(args) -> int:
    mm = _load_marked(args.map)
    try:
        lp, ld, prod = extremal.duality_product(mm, tol=args.tol)
    except odmap.MapError as exc:
        return _fail(EXIT_INPUT, f"bad map {args.map}: {exc}")
    except harmonic.SolverError as exc:
        return _fail(EXIT_SOLVER, f"solver failed: {exc}")
    print("lambda_primal", FMT.format(lp))
    print("lambda_dual", FMT.format(ld))
    print("product", FMT.format(prod))
    return EXIT_OK


def cmd_converge(args) -> int:
    spec = _read("domain spec", args.domain, gridgen.load_domain)
    try:
        rep = experiments.convergence_run(spec, args.mesh0, args.levels,
                                          probe_margin=args.probe_margin)
    except ValueError as exc:
        return _fail(EXIT_INPUT, str(exc))
    experiments.save_report(args.report, rep)
    for lv in rep.levels:
        print("level", FMT.format(lv.eps),
              "L", FMT.format(lv.L_n) if lv.error is None else f"error: {lv.error}")
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="orthotile",
                description="rectangle tilings of planar domains from "
                            "orthodiagonal-map approximations")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a grid approximation of a domain")
    g.add_argument("--domain", required=True)
    g.add_argument("--mesh", type=float, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("tile", help="solve and emit the rectangle tiling")
    t.add_argument("--map", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--svg", default=None)
    t.add_argument("--tol", type=float, default=DEFAULTS.solver_tol)
    t.set_defaults(fn=cmd_tile)

    v = sub.add_parser("verify", help="check a tiling file against the BSST facts")
    v.add_argument("--tiling", required=True)
    v.add_argument("--tol", type=float, default=DEFAULTS.verify_tol)
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("duality", help="report both extremal lengths and their product")
    d.add_argument("--map", required=True)
    d.add_argument("--tol", type=float, default=DEFAULTS.solver_tol)
    d.set_defaults(fn=cmd_duality)

    c = sub.add_parser("converge", help="run the refinement convergence harness")
    c.add_argument("--domain", required=True)
    c.add_argument("--mesh0", type=float, required=True)
    c.add_argument("--levels", type=int, default=DEFAULTS.levels)
    c.add_argument("--report", required=True)
    c.add_argument("--probe-margin", type=float, default=None, dest="probe_margin")
    c.set_defaults(fn=cmd_converge)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
