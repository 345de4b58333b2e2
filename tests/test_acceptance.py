"""Acceptance suite: every exit criterion at its stated tolerance, printed
one pass/fail line per criterion (run with -s to see the lines).

Shared fixtures build the three reference domains at their largest size
(about 1e5 faces at eps = 2^-7) and the rectangle refinement ladder
eps = 2^-2 .. 2^-7 once per session.
"""

import math
import time

import numpy as np
import pytest

from conftest import (L_MARKS, L_POLY, RECT_MARKS, RECT_POLY, SQUARE_MARKS,
                      SQUARE_POLY, plus_map)
from orthotile import (experiments, extremal, geom, gridgen, harmonic, holo,
                       odmap, tiling)

BIG_EPS = 2.0 ** -7


def _report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def specs():
    return {
        "rectangle": gridgen.DomainSpec(RECT_POLY, RECT_MARKS),
        "square": gridgen.DomainSpec(SQUARE_POLY, SQUARE_MARKS),
        "L": gridgen.DomainSpec(L_POLY, L_MARKS),
    }


@pytest.fixture(scope="module")
def big(specs):
    out = {}
    for name, spec in specs.items():
        t0 = time.perf_counter()
        mm, cert = gridgen.grid_approximation(spec, BIG_EPS)
        t, h, ht = tiling.build_tiling(mm, tol=1e-12)
        rep = tiling.verify_tiling(t, tol=1e-12)
        elapsed = time.perf_counter() - t0
        out[name] = dict(spec=spec, mm=mm, cert=cert, t=t, h=h, ht=ht,
                         verify=rep, elapsed=elapsed)
    return out


@pytest.fixture(scope="module")
def rect_run(specs):
    return experiments.convergence_run(specs["rectangle"], 0.25, 6)


@pytest.fixture(scope="module")
def small_runs(specs):
    return {name: experiments.convergence_run(spec, 0.25, 5)
            for name, spec in specs.items() if name != "rectangle"}


def test_criterion_01_bsst_exactness(big):
    details = []
    for name, d in big.items():
        t, rep = d["t"], d["verify"]
        assert t.L == pytest.approx(t.L)
        assert d["mm"].map.n_faces <= 10 ** 5
        assert not rep.containment, f"{name}: containment violations"
        assert not rep.overlaps, f"{name}: overlapping tiles"
        area_dev = abs(t.total_area() - t.L)
        assert area_dev <= 1e-9 * max(t.L, 1.0), f"{name}: area defect {area_dev}"
        assert d["elapsed"] <= 10.0, f"{name}: runtime {d['elapsed']:.2f}s"
        details.append(f"{name}:{d['mm'].map.n_faces}f/{d['elapsed']:.1f}s")
    _report(1, True, "BSST exact on " + ", ".join(details))


def test_criterion_02_duality(big, rect_run, small_runs):
    worst = 0.0
    for name, d in big.items():
        _, _, prod = extremal.duality_product(d["mm"], tol=1e-12)
        worst = max(worst, abs(prod - 1.0))
    for rep in [rect_run, *small_runs.values()]:
        for lv in rep.levels:
            if lv.error is None:
                worst = max(worst, lv.duality_defect)
    _report(2, worst <= 1e-8, f"max |lambda_p lambda_d - 1| = {worst:.2e}")


def test_criterion_03_conjugacy(big):
    worst_const, worst_cycle = 0.0, 0.0
    for name, d in big.items():
        mm, h, ht = d["mm"], d["h"], d["ht"]
        conj, max_res = harmonic.harmonic_conjugate(mm, h)
        worst_cycle = max(worst_cycle, max_res / max(h.gap(), 1.0))
        gd = mm.map.extract_dual()
        hd = harmonic.solve_dirichlet(gd, *harmonic.unit_pins(mm.arc_bc, mm.arc_da), tol=1e-12)
        diffs = np.array([ht.values[int(v)] - hd.values[int(v)] for v in gd.ids])
        dev = float(np.abs(diffs - diffs.mean()).max())
        worst_const = max(worst_const, dev)
    ok = worst_const <= 1e-8 and worst_cycle <= 1e-8
    _report(3, ok, f"conjugate vs dual solve dev {worst_const:.2e}, "
                   f"cycle residual {worst_cycle:.2e} (rel)")


def test_criterion_04_aspect_ratio(big):
    worst = 0.0
    for name, d in big.items():
        c = d["mm"].map.extract_primal().edge_c
        for tl in d["t"].tiles:
            if tl.degenerate:
                continue
            r = c[tl.face]          # height / width = |dual| / |primal|
            worst = max(worst, abs(tl.height / tl.width - r) / (1.0 + r))
    _report(4, worst <= 1e-8, f"max aspect deviation {worst:.2e}")


def test_criterion_05_main_theorem(rect_run):
    devs = [lv.sup_dev_vs_reference for lv in rect_run.levels]
    assert all(d is not None for d in devs)
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    C = rect_run.C_sup_dev
    enveloped = all(lv.sup_dev_vs_reference <= C / math.log(1.0 / lv.eps) + 1e-12
                    for lv in rect_run.levels)
    l_final = abs(rect_run.levels[-1].L_n - 2.0)
    total = sum(lv.runtime_s for lv in rect_run.levels)
    ok = decreasing and enveloped and l_final <= 0.1 and total <= 300.0
    _report(5, ok, f"sup dev {devs[0]:.3f}->{devs[-1]:.4f}, C={C:.3f}, "
                   f"|L-2|={l_final:.4f}, total {total:.0f}s")


def test_criterion_06_L_rate_envelope(rect_run):
    K = rect_run.K_hat_coarsest
    worst_margin = math.inf
    for lv in rect_run.levels:
        de = max(lv.delta, lv.mesh_eps)
        bound = 8.0 * K * 4.0 / math.log(lv.d_hat / de)
        margin = bound - abs(lv.L_n - 2.0)
        worst_margin = min(worst_margin, margin)
        assert abs(lv.L_n - 2.0) <= bound, f"eps={lv.eps}: {abs(lv.L_n-2)} > {bound}"
    _report(6, True, f"L-rate envelope holds, min margin {worst_margin:.3f}")


def test_criterion_07_symmetric_square(small_runs):
    # generated square maps fail the rotation-color-swap check (the grid is
    # anchored at the corner), so the 0.05 fallback applies at eps = 1/64
    run = small_runs["square"]
    lv64 = next(lv for lv in run.levels if abs(lv.eps - 1 / 64) < 1e-12)
    assert not lv64.symmetric_square
    fallback_ok = abs(lv64.L_n - 1.0) <= 0.05
    # the hand-built plus map passes the check and must give L = 1 exactly
    mm = plus_map()
    assert experiments.rotation_color_swap_symmetric(mm)
    t, _, _ = tiling.build_tiling(mm)
    exact_ok = abs(t.L - 1.0) <= 1e-8
    _report(7, fallback_ok and exact_ok,
            f"fallback |L-1|={abs(lv64.L_n-1):.4f} (<=0.05); "
            f"symmetric map |L-1|={abs(t.L-1):.1e} (<=1e-8)")


def test_criterion_08_gradient_bound_shape(rect_run, small_runs):
    details = []
    for name, run in [("rectangle", rect_run)] + list(small_runs.items()):
        ks = [lv.K_hat for lv in run.levels if lv.error is None]
        cap = 4.0 * ks[0]
        assert all(k <= cap for k in ks), f"{name}: K_hat grew past 4x coarsest"
        details.append(f"{name}: max {max(ks):.3f} <= {cap:.3f}")
    _report(8, True, "; ".join(details))


def test_criterion_09_discrete_morera(big):
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for name, d in big.items():
        mm, h, ht = d["mm"], d["h"], d["ht"]
        F = holo.assemble(mm, h, ht)
        cent = mm.map.face_centroids()
        lo = cent.min(axis=0)
        hi = cent.max(axis=0)
        count = 0
        while count < 20:
            a = rng.uniform(lo, hi)
            b = rng.uniform(lo, hi)
            x0, x1 = sorted((a[0], b[0]))
            y0, y1 = sorted((a[1], b[1]))
            if x1 - x0 < 0.1 or y1 - y0 < 0.1:
                continue
            sel = np.flatnonzero((cent[:, 0] > x0) & (cent[:, 0] < x1)
                                 & (cent[:, 1] > y0) & (cent[:, 1] < y1))
            if len(sel) == 0:
                continue
            try:
                walk = holo.boundary_walk_of_faces(mm.map, sel)
                integral = holo.contour_integral(F, walk)
            except holo.ContourError:
                continue
            pts = mm.map.positions[np.array(walk + [walk[0]])]
            per = float(np.sqrt(((pts[1:] - pts[:-1]) ** 2).sum(-1)).sum())
            tol = 1e-9 * per * float(np.abs(F.values).max())
            worst_rel = max(worst_rel, abs(integral) / tol)
            assert abs(integral) <= tol
            count += 1
    _report(9, True, f"60 contours, worst |integral|/tol = {worst_rel:.3f}")


def test_criterion_10_short_contours(specs):
    spec = specs["rectangle"]
    mm, cert = gridgen.grid_approximation(spec, 2.0 ** -5)
    eps = mm.map.mesh_eps
    loc = odmap.FaceLocator(mm.map)
    rng = np.random.default_rng(7)
    done = 0
    attempts = 0
    while done < 50:
        attempts += 1
        assert attempts < 2000, "could not build 50 admissible cases"
        delta = float(rng.uniform(4.0, 7.0)) * eps
        inset = delta + 2.5 * eps
        a = rng.uniform([inset, inset], [2 - inset, 1 - inset])
        ang = rng.uniform(0, 2 * math.pi)
        length = float(rng.uniform(8.0 * eps, 0.6))
        b = a + length * np.array([math.cos(ang), math.sin(ang)])
        if not (inset <= b[0] <= 2 - inset and inset <= b[1] <= 1 - inset):
            continue
        color = "primal" if done % 2 == 0 else "dual"
        try:
            path = extremal.find_short_contour(mm.map, (a, b), delta, color,
                                               locator=loc)
        except extremal.ContourError as exc:
            if "neighborhood" in str(exc):
                continue  # precondition genuinely fails; not an admissible case
            raise
        pts = mm.map.positions[np.array(path)]
        plen = float(np.sqrt(((pts[1:] - pts[:-1]) ** 2).sum(-1)).sum())
        assert plen <= 2.0 * length * (1.0 + 4.0 * eps / delta) + 1e-9
        dh = geom.hausdorff_distance(pts, np.array([a, b]))
        assert dh <= delta + 1e-9
        done += 1
    _report(10, True, f"50 admissible cases, zero no-path outcomes "
                      f"({attempts} candidates)")


def test_criterion_11_comparability_bracket(specs):
    checked = 0
    for name, spec in specs.items():
        for k in range(3, 7):
            mm, cert = gridgen.grid_approximation(spec, 2.0 ** -k)
            rec = extremal.comparability_check(mm, cert, spec)
            if rec.status != "ok":
                continue
            assert rec.inside, (f"{name} eps=2^-{k}: lambda {rec.lam} outside "
                                f"[{rec.lower}, {rec.upper}]")
            checked += 1
    assert checked >= 9, "too few conclusive levels"
    _report(11, True, f"{checked} conclusive levels, all inside the bracket")


def test_criterion_12_oracle_cross_checks(specs):
    # dense vs CG on every instance small enough
    worst = 0.0
    for name, spec in specs.items():
        mm, _ = gridgen.grid_approximation(spec, 0.25)
        for which, S, T in (("primal", mm.arc_ab, mm.arc_cd),
                            ("dual", mm.arc_bc, mm.arc_da)):
            g = mm.map.extract(0 if which == "primal" else 1)
            if g.n > 500:
                continue
            pinned = harmonic.unit_pins(S, T)
            hc = harmonic.solve_dirichlet(g, *pinned, tol=1e-12)
            hd = harmonic.solve_dirichlet_dense(g, *pinned)
            dev = max(abs(hc.values[k] - hd.values[k]) for k in g.ids)
            worst = max(worst, dev)
    assert worst <= 1e-8

    # random-walk oracle at five probes
    mm, _ = gridgen.grid_approximation(specs["rectangle"], 0.25)
    gp = mm.map.extract_primal()
    pinned = harmonic.unit_pins(mm.arc_ab, mm.arc_cd)
    h = harmonic.solve_dirichlet(gp, *pinned, tol=1e-12)
    free = gp.ids[~np.isin(gp.ids, pinned[0])].tolist()
    probes = free[:: max(1, len(free) // 5)][:5]
    worst_z = 0.0
    for i, v in enumerate(probes):
        est, se = harmonic.random_walk_oracle(gp, *pinned, v, 10_000, seed=100 + i)
        z = abs(est - h.values[v]) / max(se, 1e-12)
        worst_z = max(worst_z, z)
        assert z <= 3.0, f"probe {v}: z = {z:.2f}"
    _report(12, True, f"dense-CG dev {worst:.2e}; worst random-walk z {worst_z:.2f}")
