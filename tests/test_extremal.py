import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (OracleLocator, graph_from_edges, grid_graph, oracle_adjacency,
                      oracle_dijkstra, star_map, strip_map)
from orthotile import extremal, geom, gridgen, harmonic, odmap


def test_single_edge_network():
    g = graph_from_edges({0: (0, 0), 1: (1, 0)}, [(0, 1, 1.0)])
    assert abs(harmonic.effective_resistance(g, [0], [1]) - 1.0) < 1e-12


def test_extremal_length_star_and_strip():
    res = extremal.extremal_length(star_map(), "primal", tol=1e-12)
    assert abs(res.lam - 1.0) < 1e-12
    assert abs(res.lam - 1.0 / res.energy) < 1e-12
    res = extremal.extremal_length(strip_map(), "primal", tol=1e-12)
    assert abs(res.lam - 3.0) < 1e-10


def test_duality_product_on_fixtures_and_grids(rect_spec):
    for mk in (star_map, strip_map):
        lp, ld, prod = extremal.duality_product(mk(), tol=1e-12)
        assert abs(prod - 1.0) <= 1e-10
    for eps in (1 / 4, 1 / 8, 1 / 16):
        mm, _ = gridgen.grid_approximation(rect_spec, eps)
        lp, ld, prod = extremal.duality_product(mm, tol=1e-12)
        assert abs(prod - 1.0) <= 1e-8


@pytest.fixture(scope="module")
def l_map64(l_spec):
    return gridgen.grid_approximation(l_spec, 1 / 64)[0]


def test_dual_started_from_the_conjugate_takes_few_steps(l_map64):
    primal = extremal.extremal_length(l_map64, "primal")
    start = harmonic.conjugate_start(l_map64, primal.witness_field)
    started = extremal.extremal_length(l_map64, "dual", start=start)
    cold = extremal.extremal_length(l_map64, "dual")
    assert 0 < started.witness_field.iterations <= 0.1 * cold.witness_field.iterations
    assert abs(started.lam / cold.lam - 1.0) <= 1e-12
    # duality_product solves the dual this way
    assert extremal.duality_product(l_map64) == (primal.lam, started.lam,
                                                 primal.lam * started.lam)


def test_a_bad_start_does_not_decide_the_dual_answer(l_map64):
    # the dual stops on its own residual, so zeros or a noisy conjugate
    # reach the cold lambda_dual
    cold = extremal.extremal_length(l_map64, "dual").lam
    primal = extremal.extremal_length(l_map64, "primal")
    start = harmonic.conjugate_start(l_map64, primal.witness_field)
    noisy = start + np.random.default_rng(3).normal(0.0, 0.1, len(start))
    for bad in (np.zeros_like(start), noisy):
        assert abs(extremal.extremal_length(l_map64, "dual", start=bad).lam / cold - 1.0) <= 1e-12


def test_rectangle_el_against_dense_oracle(rect_spec):
    mm, _ = gridgen.grid_approximation(rect_spec, 1 / 4)
    gp = mm.map.extract_primal()
    pinned = {int(v): 0.0 for v in mm.arc_ab}
    pinned.update({int(v): 1.0 for v in mm.arc_cd})
    hd = harmonic.solve_dirichlet_dense(gp, pinned)
    res = extremal.extremal_length(mm, "primal", tol=1e-12)
    assert abs(res.lam - 1.0 / hd.energy) < 1e-9


def test_witness_metric_attains_lambda():
    mm = strip_map()
    res = extremal.extremal_length(mm, "primal", tol=1e-12)
    wm = extremal.witness_metric(res)
    bound = extremal.metric_lower_bound(res.witness_field.graph,
                                        mm.arc_ab, mm.arc_cd, wm)
    assert abs(bound - res.lam) < 1e-8


def test_metric_lower_bound_path_graph():
    g = graph_from_edges({0: (0, 0), 1: (1, 0), 2: (2, 0)},
                               [(0, 1, 1.0), (1, 2, 1.0)])
    rho = extremal.EdgeMetric(g, np.ones(2))
    assert abs(extremal.metric_lower_bound(g, [0], [2], rho) - 2.0) < 1e-12


def test_metric_lower_bound_never_exceeds_lambda():
    rng = np.random.default_rng(23)
    g = grid_graph(4, 4)
    S, T = [0, 1, 2, 3], [12, 13, 14, 15]
    lam = harmonic.effective_resistance(g, S, T, tol=1e-12)
    for _ in range(50):
        rho = extremal.EdgeMetric(g, rng.uniform(0.0, 2.0, g.m))
        assert extremal.metric_lower_bound(g, S, T, rho) <= lam + 1e-8


def test_edge_metric_validation():
    g = grid_graph(2, 2)
    with pytest.raises(ValueError):
        extremal.EdgeMetric(g, np.zeros(g.m))
    with pytest.raises(ValueError):
        extremal.EdgeMetric(g, -np.ones(g.m))
    with pytest.raises(ValueError):
        extremal.EdgeMetric(g, np.ones(g.m + 1))


def test_metric_unreachable_is_inf():
    g = graph_from_edges({0: (0, 0), 1: (1, 0), 2: (5, 0), 3: (6, 0)},
                               [(0, 1, 1.0), (2, 3, 1.0)])
    rho = extremal.EdgeMetric(g, np.ones(2))
    assert math.isinf(extremal.metric_lower_bound(g, [0], [3], rho))


def test_sandwich_with_euclidean_metric(rect_spec):
    mm, cert = gridgen.grid_approximation(rect_spec, 1 / 8)
    gp = mm.map.extract_primal()
    res = extremal.extremal_length(mm, "primal", tol=1e-12)
    rho = extremal.EdgeMetric(gp, gp.edge_len)
    lower = extremal.metric_lower_bound(gp, mm.arc_ab, mm.arc_cd, rho)
    assert lower <= res.lam + 1e-8
    assert res.lam <= res.witness_flow.energy() + 1e-8


def _column_cut(mm, x_lo, x_hi):
    gp = mm.map.extract_primal()
    P = mm.map.positions
    cut = []
    for u, v in zip(gp.edge_u, gp.edge_v):
        mx = (P[int(u)][0] + P[int(v)][0]) / 2
        if abs(P[int(u)][0] - P[int(v)][0]) > 0 and x_lo < mx < x_hi:
            cut.append((int(u), int(v)))
    return cut


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_adjacency_rows_and_dijkstra_match_dict_oracles(data):
    # a multigraph on spread-out ids: edges among the first k vertices only,
    # so the rest are isolated, with parallel edges, loops, or no edge at all
    n = data.draw(st.integers(1, 12))
    ids = sorted(data.draw(st.sets(st.integers(0, 60), min_size=n, max_size=n)))
    k = data.draw(st.integers(1, n))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                               max_size=3 * k))
    cond = st.sampled_from([0.5, 1.0, 2.0])
    g = graph_from_edges({v: (float(v), 0.0) for v in ids},
                         [(ids[a], ids[b], data.draw(cond)) for a, b in pairs])
    indptr, nbr, edge = g.adjacency()
    want = oracle_adjacency(g)
    assert indptr[0] == 0 and indptr[-1] == 2 * g.m
    assert np.array_equal(np.bincount(edge, minlength=g.m), np.full(g.m, 2))
    for i, v in enumerate(ids):
        row = slice(indptr[i], indptr[i + 1])
        assert g.ids[nbr[row]].tolist() == [w for w, _ in want[v]]
        ends = np.sort(np.stack([g.edge_u[edge[row]], g.edge_v[edge[row]]], 1), axis=1)
        assert np.array_equal(ends, np.sort(np.stack([np.full(len(ends), v),
                                                      g.ids[nbr[row]]], 1), axis=1))
        # parallel arcs in edge order
        assert np.array_equal(np.lexsort((edge[row], nbr[row])), np.arange(len(ends)))

    # ties are common with weights drawn from few values; targets may be
    # absent ids, which match nothing
    weights = np.array([data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) for _ in pairs])
    sources = data.draw(st.lists(st.sampled_from(ids), max_size=3))
    targets = data.draw(st.lists(st.integers(-1, 61), max_size=3))
    mask = data.draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    allowed = None if mask is None else np.array(mask)
    got = extremal._dijkstra(g, weights, sources, targets, allowed)
    assert got == oracle_dijkstra(g, weights, sources, targets,
                                  None if mask is None else set(g.ids[allowed].tolist()))
    missing = data.draw(st.integers(-1, 61).filter(lambda x: x not in ids))
    with pytest.raises(KeyError):
        extremal._dijkstra(g, weights, sources + [missing], ids, allowed)


def test_min_cut_dual_path_roundtrip(rect_spec):
    mm, _ = gridgen.grid_approximation(rect_spec, 1 / 4)
    cut = _column_cut(mm, 0.8, 0.95)
    res = extremal.min_cut_dual_path(mm, cut)
    assert res.status == "ok"
    assert res.dual_path[0] in set(mm.arc_bc)
    assert res.dual_path[-1] in set(mm.arc_da)
    back = extremal.dual_path_to_cut(mm, res.dual_path)
    assert sorted(back) == sorted((min(u, v), max(u, v)) for u, v in cut)


def test_min_cut_dual_path_rejects_face_ids_out_of_range(rect_spec):
    # -1 would index the last face and n_faces past the end; both are
    # reported like a pair that names no edge, whatever else the cut holds
    mm, _ = gridgen.grid_approximation(rect_spec, 1 / 4)
    cut = _column_cut(mm, 0.8, 0.95)
    n = mm.map.n_faces
    for bad in (-1, n):
        for items in ([bad], cut + [bad], [0, bad, n + 5]):
            res = extremal.min_cut_dual_path(mm, items)
            assert (res.status, res.message) == ("mismatch", f"no face {bad}")
    assert extremal.min_cut_dual_path(mm, [n - 1]).status != "mismatch"


def test_min_cut_reports():
    mm, _ = gridgen.grid_approximation(
        gridgen.DomainSpec([[0, 0], [2, 0], [2, 1], [0, 1]],
                           [[0, 1], [0, 0], [2, 0], [2, 1]]), 1 / 4)
    cut = _column_cut(mm, 0.8, 0.95)
    gp = mm.map.extract_primal()
    extra = cut + [(int(gp.edge_u[0]), int(gp.edge_v[0]))]
    res = extremal.min_cut_dual_path(mm, extra)
    assert res.status == "non-minimal"
    keys = {(min(u, v), max(u, v)) for u, v in extra}
    assert res.witness in keys
    assert extremal.min_cut_dual_path(mm, []).status == "non-separating"
    res = extremal.min_cut_dual_path(mm, cut[:-1])
    assert res.status == "non-separating"
    # the witness is a primal path from [A..B] to [C..D] that avoids the cut
    path = res.witness
    assert path[0] in mm.arc_ab and path[-1] in mm.arc_cd
    steps = {(min(u, v), max(u, v)) for u, v in zip(path[:-1], path[1:])}
    edges = {(min(u, v), max(u, v)) for u, v in zip(gp.edge_u.tolist(), gp.edge_v.tolist())}
    assert steps <= edges and not steps & {(min(u, v), max(u, v)) for u, v in cut[:-1]}


def test_randomized_minimal_cuts_bijection(rect_spec, square_spec):
    # random dual paths are exactly the minimal cuts; roundtrip both ways
    rng = np.random.default_rng(31)
    total = 0
    for spec, eps, want in ((rect_spec, 1 / 4, 50), (square_spec, 1 / 8, 50)):
        mm, _ = gridgen.grid_approximation(spec, eps)
        gd = mm.map.extract_dual()
        indptr, nbr, _ = gd.adjacency()
        rows = np.split(gd.ids[nbr], indptr[1:-1])
        bc, da = set(mm.arc_bc), set(mm.arc_da)
        boundary_duals = {v for v in mm.map.boundary
                          if mm.map.colors[v] == odmap.DUAL}
        count = 0
        attempts = 0
        while count < want and attempts < 3000:
            attempts += 1
            # random simple walk from [B,C] to [D,A] off the other boundary
            cur = int(rng.choice(sorted(bc)))
            path = [cur]
            seen = {cur}
            ok = False
            for _ in range(400):
                nbrs = [w for w in rows[np.searchsorted(gd.ids, cur)].tolist()
                        if w not in seen and (w not in boundary_duals or w in da)]
                if not nbrs:
                    break
                cur = int(nbrs[rng.integers(len(nbrs))])
                path.append(cur)
                seen.add(cur)
                if cur in da:
                    ok = True
                    break
            if not ok:
                continue
            count += 1
            cut = extremal.dual_path_to_cut(mm, path)
            res = extremal.min_cut_dual_path(mm, cut)
            assert res.status == "ok"
            assert res.dual_path == path or res.dual_path == path[::-1]
        total += count
    assert total >= 100


def test_rayleigh_monotonicity_random_graphs():
    rng = np.random.default_rng(41)
    for _ in range(20):
        a, b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        g = grid_graph(a, b)
        pos = {int(i): tuple(p) for i, p in zip(g.ids, g.positions)}
        edges = [(int(u), int(v), float(rng.uniform(0.3, 3.0)))
                 for u, v in zip(g.edge_u, g.edge_v)]
        g1 = graph_from_edges(pos, edges)
        S, T = [0], [a * b - 1]
        r1 = harmonic.effective_resistance(g1, S, T, tol=1e-12)
        # add one random extra edge of positive conductance
        u, v = rng.choice(g1.ids, 2, replace=False)
        g2 = graph_from_edges(pos, edges + [(int(u), int(v), 1.0)])
        r2 = harmonic.effective_resistance(g2, S, T, tol=1e-12)
        assert r2 <= r1 + 1e-9


def test_comparability_rectangle_levels(rect_spec):
    for eps in (1 / 8, 1 / 16):
        mm, cert = gridgen.grid_approximation(rect_spec, eps)
        rec = extremal.comparability_check(mm, cert, rect_spec, tol=1e-12)
        assert rec.status == "ok"
        assert rec.inside
        assert abs(rec.ell_hat - 2.0) < 1e-12
        assert abs(rec.ell_hat_prime - 1.0) < 1e-12
        lo = (2 - 2 * rec.delta) ** 2 / 4.0
        hi = 4.0 / (1 - 2 * rec.delta) ** 2
        assert abs(rec.lower - lo) < 1e-12 and abs(rec.upper - hi) < 1e-12


def test_comparability_delta_zero_limits(rect_spec, square_spec):
    mm, cert = gridgen.grid_approximation(rect_spec, 1 / 16)
    z = gridgen.ApproximationCertificate(cert.eps, 0.0, (0, 0, 0, 0))
    rec = extremal.comparability_check(mm, z, rect_spec, tol=1e-12)
    assert rec.lower == 1.0 and rec.upper == 4.0 and rec.inside
    mm, cert = gridgen.grid_approximation(square_spec, 1 / 16)
    z = gridgen.ApproximationCertificate(cert.eps, 0.0, (0, 0, 0, 0))
    rec = extremal.comparability_check(mm, z, square_spec, tol=1e-12)
    assert abs(rec.lower - 0.5) < 1e-12 and abs(rec.upper - 2.0) < 1e-12
    assert rec.inside


def test_comparability_inconclusive(rect_spec):
    mm, cert = gridgen.grid_approximation(rect_spec, 1 / 16)
    fat = gridgen.ApproximationCertificate(cert.eps, 0.6, (0.3, 0.3, 0.3, 0.3))
    rec = extremal.comparability_check(mm, fat, rect_spec, tol=1e-12)
    assert rec.status == "inconclusive"


def test_el_rate_identical_maps(rect_spec):
    mm, _ = gridgen.grid_approximation(rect_spec, 1 / 8)
    rec = extremal.el_rate_check(mm, mm, K_hat=0.5, tol=1e-12)
    assert rec.status == "ok"
    assert abs(rec.diff) < 1e-12
    assert rec.inside


def test_el_rate_k_zero_degenerate(rect_spec):
    mm, _ = gridgen.grid_approximation(rect_spec, 1 / 8)
    rec = extremal.el_rate_check(mm, mm, K_hat=0.0, tol=1e-12)
    assert rec.lower == 0.0 and rec.upper == 0.0
    coarse, _ = gridgen.grid_approximation(rect_spec, 1 / 8)
    fine, _ = gridgen.grid_approximation(rect_spec, 1 / 16)
    rec = extremal.el_rate_check(coarse, fine, K_hat=0.0, tol=1e-12)
    assert rec.status == "inconclusive"


def _boundary_trimmed(mm):
    """Sub-map of mm with the faces touching the boundary removed."""
    m = mm.map
    btouch = set(m.boundary)
    keep = [fi for fi in range(m.n_faces)
            if not (set(int(x) for x in m.faces[fi]) & btouch)]
    faces = m.faces[np.array(keep, dtype=np.int64)]
    used = sorted({int(v) for f in faces for v in f})
    remap = {v: i for i, v in enumerate(used)}
    pos = m.positions[np.array(used)]
    col = m.colors[np.array(used)]
    nf = np.array([[remap[int(v)] for v in f] for f in faces])
    pair_a, pair_b = [], []
    for f in nf:
        for k in range(4):
            pair_a.append(int(f[k]))
            pair_b.append(int(f[(k + 1) % 4]))
    cnt = {}
    for a, b in zip(pair_a, pair_b):
        cnt[(min(a, b), max(a, b))] = cnt.get((min(a, b), max(a, b)), 0) + 1
    succ = {}
    for a, b in zip(pair_a, pair_b):
        if cnt[(min(a, b), max(a, b))] == 1:
            succ[a] = b
    start = min(succ)
    cyc = [start]
    cur = succ[start]
    while cur != start:
        cyc.append(cur)
        cur = succ[cur]
    sub = odmap.OrthodiagonalMap(pos, col, nf, cyc)
    # nearest primal boundary vertices to the old marked positions
    marks = []
    pb = [v for v in cyc if col[v] == odmap.PRIMAL]
    for old in mm.marked:
        target = m.positions[old]
        d = [np.hypot(*(pos[v] - target)) for v in pb]
        marks.append(pb[int(np.argmin(d))])
    return odmap.MarkedRectangleMap(sub, marks)


def test_el_rate_boundary_trimmed(rect_spec):
    fine, _ = gridgen.grid_approximation(rect_spec, 1 / 16)
    coarse = _boundary_trimmed(fine)
    # the Prop's thresholds cap the usable K_hat near
    # log(d / (delta v eps)) / (8 L) at desk meshes; 0.05 is inside the cap
    rec = extremal.el_rate_check(coarse, fine, K_hat=0.05, tol=1e-12)
    assert rec.status == "ok"
    assert rec.inside
    assert abs(rec.diff) <= rec.upper


def test_find_short_contour_grid(rect_spec):
    mm, _ = gridgen.grid_approximation(rect_spec, 1 / 16)
    eps = mm.map.mesh_eps
    seg = ((0.3, 0.5), (1.7, 0.5))
    delta = 4 * eps
    for color in ("primal", "dual"):
        path = extremal.find_short_contour(mm.map, seg, delta, color)
        pts = mm.map.positions[np.array(path)]
        length = float(np.sqrt(((pts[1:] - pts[:-1]) ** 2).sum(-1)).sum())
        assert length <= 2 * 1.4 * (1 + 4 * eps / delta) + 1e-9
        assert geom.hausdorff_distance(pts, np.array(seg)) <= delta + 1e-9
        assert np.hypot(*(pts[0] - seg[0])) <= delta + 1e-9
        assert np.hypot(*(pts[-1] - seg[1])) <= delta + 1e-9
        col = odmap.PRIMAL if color == "primal" else odmap.DUAL
        assert all(mm.map.colors[v] == col for v in path)


def test_find_short_contour_formula_at_minimal_params():
    # bound value at the lemma's corner: delta = 4 eps, L = 8 eps
    eps = 0.125
    assert abs(2 * (8 * eps) * (1 + 4 * eps / (4 * eps)) - 32 * eps) < 1e-15


def test_find_short_contour_rejects_unknown_color(rect_spec):
    mm, _ = gridgen.grid_approximation(rect_spec, 1 / 8)
    eps = mm.map.mesh_eps
    for color in ("Primal", "both", ""):
        with pytest.raises(ValueError, match="color must be"):
            extremal.find_short_contour(mm.map, ((0.3, 0.5), (1.7, 0.5)), 4 * eps, color)


def test_find_short_contour_precondition_errors(rect_spec):
    mm, _ = gridgen.grid_approximation(rect_spec, 1 / 16)
    eps = mm.map.mesh_eps
    with pytest.raises(extremal.ContourError):
        extremal.find_short_contour(mm.map, ((0.3, 0.5), (1.7, 0.5)), 2 * eps)
    with pytest.raises(extremal.ContourError):
        extremal.find_short_contour(mm.map, ((0.3, 0.5), (0.35, 0.5)), 4 * eps)
    with pytest.raises(extremal.ContourError):
        # neighborhood pokes out of the domain
        extremal.find_short_contour(mm.map, ((0.05, 0.5), (1.0, 0.5)), 4 * eps)


def _oracle_support_check(m, seg, delta):
    """The per-point delta-neighbourhood check find_short_contour ran before
    batching: the first failing sample in (it, isn) order, or None."""
    a, b = np.asarray(seg[0], dtype=float), np.asarray(seg[1], dtype=float)
    loc = OracleLocator(m)
    length = float(np.hypot(*(b - a)))
    direction = (b - a) / length
    normal = np.array([-direction[1], direction[0]])
    pitch = max(m.mesh_eps / 2.0, 1e-12)
    nt = int(math.ceil((length + 2 * delta) / pitch)) + 1
    ns = int(math.ceil(2 * delta / pitch)) + 1
    for it in range(nt + 1):
        t = -delta + it * (length + 2 * delta) / nt
        for isn in range(ns + 1):
            s = -delta + isn * 2 * delta / ns
            p = a + t * direction + s * normal
            ab = b - a
            u = min(1.0, max(0.0, float((p - a) @ ab) / float(ab @ ab)))
            if float(np.hypot(*(p - (a + u * ab)))) > delta:
                continue
            if loc.locate(p) is None:
                return f"delta-neighborhood leaves the map support near {tuple(p)}"
    return None


def test_short_contour_support_check_matches_scalar_oracle(rect_spec, l_spec):
    outcomes = set()
    # the last band's lower edge, exactly delta from its segment, dips into
    # the notches of the jagged support while every row above it is
    # covered: only the `> delta` filter decides whether it fails
    low = 0.25 + 2.0 ** -6
    for spec, seg, delta in [(rect_spec, ((0.05, 0.5), (1.0, 0.5)), None),
                             (rect_spec, ((0.3, 0.5), (1.7, 0.5)), None),
                             (rect_spec, ((1.2, 0.9), (0.4, 0.1)), None),
                             (l_spec, ((0.5, 0.5), (1.5, 1.5)), None),
                             (l_spec, ((0.3, 1.7), (0.4, 0.3)), None),
                             (rect_spec, ((0.3, low), (1.7, low)), 0.25)]:
        mm, _ = gridgen.grid_approximation(spec, 1 / 16)
        delta = 4 * mm.map.mesh_eps if delta is None else delta
        want = _oracle_support_check(mm.map, seg, delta)
        outcomes.add(want is None)
        if want is None:
            extremal.find_short_contour(mm.map, seg, delta)
        else:
            with pytest.raises(extremal.ContourError) as exc:
                extremal.find_short_contour(mm.map, seg, delta)
            assert str(exc.value) == want
    assert outcomes == {True, False}
