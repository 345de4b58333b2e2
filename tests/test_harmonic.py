import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dual_arcs_csr, fan_graph, graph_from_edges, grid_graph,
                      oracle_breadth_first, oracle_cg, oracle_conjugate_values, oracle_csr,
                      oracle_flow_check, oracle_jacobi_cg, star_map)
from orthotile import extremal, gridgen, harmonic, odmap, tiling


def path3(c1=1.0, c2=1.0):
    return graph_from_edges({0: (0, 0), 1: (1, 0), 2: (2, 0)},
                                  [(0, 1, c1), (1, 2, c2)])


def test_symmetric_path_midpoint():
    h = harmonic.solve_dirichlet(path3(), [0, 2], [0.0, 1.0])
    assert abs(h.values[1] - 0.5) < 1e-12


def test_weighted_path_balance():
    # 1 (0 - m) + 2 (1 - m) = 0  =>  m = 2/3
    h = harmonic.solve_dirichlet(path3(1.0, 2.0), [0, 2], [0.0, 1.0])
    assert abs(h.values[1] - 2.0 / 3.0) < 1e-12


def test_constant_pinning():
    g = grid_graph(3, 3)
    h = harmonic.solve_dirichlet(g, [0, 8], [7.0, 7.0])
    assert all(abs(v - 7.0) < 1e-12 for v in h.values[g.ids])
    assert h.energy < 1e-20
    f = harmonic.gradient_flow(h)
    assert abs(f.strength) < 1e-12
    assert f.energy() < 1e-20


def test_maximum_principle_and_residual_fields():
    g = grid_graph(5, 5)
    h = harmonic.solve_dirichlet(g, [0, 24], [0.0, 1.0])
    vals = h.values[g.ids]
    assert vals.min() >= -1e-10 and vals.max() <= 1 + 1e-10
    assert h.residual <= h.tol


def test_series_parallel_resistance():
    assert abs(harmonic.effective_resistance(path3(), [0], [2]) - 2.0) < 1e-10
    g = graph_from_edges({0: (0, 0), 1: (1, 0)}, [(0, 1, 1.0), (0, 1, 1.0)])
    assert abs(harmonic.effective_resistance(g, [0], [1]) - 0.5) < 1e-10


def test_grid_resistance_linear_ansatz_and_dense_oracle():
    for a, b in [(3, 2), (4, 3), (6, 5)]:
        g = grid_graph(a, b)
        S = [j for j in range(b)]
        T = [(a - 1) * b + j for j in range(b)]
        r = harmonic.effective_resistance(g, S, T, tol=1e-12)
        assert abs(r - (a - 1) / b) < 1e-10
        hd = harmonic.solve_dirichlet_dense(g, *harmonic.unit_pins(S, T))
        assert abs(1.0 / hd.energy - r) < 1e-10


def test_cg_matches_dense_oracle_everywhere():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = rng.integers(2, 7, 2)
        g = grid_graph(int(a), int(b), c=1.0)
        # perturb conductances
        pos = {int(i): tuple(p) for i, p in zip(g.ids, g.positions)}
        edges = [(int(u), int(v), float(rng.uniform(0.2, 5.0)))
                 for u, v in zip(g.edge_u, g.edge_v)]
        g = graph_from_edges(pos, edges)
        n = g.n
        pinned = [0, n - 1], [float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))]
        hc = harmonic.solve_dirichlet(g, *pinned, tol=1e-12)
        hd = harmonic.solve_dirichlet_dense(g, *pinned)
        diff = max(abs(hc.values[k] - hd.values[k]) for k in g.ids)
        assert diff < 1e-8


def test_solver_errors():
    g = grid_graph(3, 3)
    with pytest.raises(harmonic.SolverError):
        harmonic.solve_dirichlet(g, [], [])
    disconnected = graph_from_edges(
        {0: (0, 0), 1: (1, 0), 2: (5, 0), 3: (6, 0)},
        [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(harmonic.SolverError, match=r"^2 free vertices unreachable .*first: 2\)"):
        harmonic.solve_dirichlet(disconnected, [0, 1], [0.0, 1.0])
    with pytest.raises(harmonic.SolverError):
        harmonic.effective_resistance(g, [0, 1], [1, 2])  # overlap


def test_repeated_pin_id_is_an_error():
    # each vertex is pinned at most once, whether or not its values agree
    g = grid_graph(3, 3)
    for ids, values in (([0, 8, 0], [0.0, 1.0, 0.0]), ([0, 8, 8], [0.0, 1.0, 0.5])):
        for solve in (harmonic.solve_dirichlet, harmonic.solve_dirichlet_dense):
            with pytest.raises(harmonic.SolverError, match="^a vertex is pinned twice$"):
                solve(g, ids, values)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _cg_systems(maps):
    """(name, graph, pinned) for the primal and dual unit-pinned systems of
    each marked map, as build_tiling and extremal_length solve them."""
    for name, mm in maps.items():
        yield (name + " primal", mm.map.extract_primal(),
               harmonic.unit_pins(mm.arc_ab, mm.arc_cd))
        yield name + " dual", mm.map.extract_dual(), harmonic.unit_pins(mm.arc_bc, mm.arc_da)


def _jacobi_solve(g, pinned, tol=harmonic.DEFAULT_TOL):
    """The reduced system's free values by the Jacobi-preconditioned CG
    that solve_dirichlet ran before, from the mean pinned value with its
    step cap: scipy's (oracle_cg) and the package's old loop
    (oracle_jacobi_cg), which must agree bit for bit."""
    keys, values, free_ids, entries, b, diag = harmonic._reduced_system(g, *pinned)
    A = harmonic.SlotMatrix(len(free_ids), *entries)
    maxiter = max(int(20 * math.isqrt(len(free_ids)) + 1), 10_000)
    x0 = np.full(len(free_ids), float(np.mean(values[keys])))
    x, info = oracle_cg(A, b, x0, 1.0 / diag, tol, maxiter)
    assert info == 0
    own, steps = oracle_jacobi_cg(A, b, x0.copy(), 1.0 / diag, tol, maxiter)
    assert np.array_equal(_bits(own), _bits(x)) and steps < maxiter
    return x


def _system(g, pinned):
    """solve_dirichlet's reduced system: the matrix, rhs, free ids, the
    mean-pinned start, and the preconditioner set-up that _pcg takes."""
    keys, values, free_ids, entries, b, diag = harmonic._reduced_system(g, *pinned)
    A = harmonic.SlotMatrix(len(free_ids), *entries)
    x0 = np.full(len(free_ids), float(np.mean(values[keys])))
    return A, b, free_ids, x0, lambda: harmonic._multigrid(g, free_ids, A, entries, diag)


def _no_setup():
    raise AssertionError("the preconditioner was built")


def _residual_bound(A, b, x):
    """An upper bound on |b - A x|_inf in exact arithmetic: the computed
    residual plus its rounding error, at most gamma_{k+1} (|A||x| + |b|)
    componentwise for rows of k entries (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.5)."""
    csr = oracle_csr(A)
    k = int(np.diff(csr.indptr).max())
    gamma = (k + 1) * 2.0 ** -53 / (1 - (k + 1) * 2.0 ** -53)
    absA = csr.copy()
    absA.data = np.abs(absA.data)
    return float(np.abs(b - csr @ x).max() + gamma * (absA @ np.abs(x) + np.abs(b)).max())


def _inverse_norm_bound(A):
    """An upper bound on |A^-1|_inf for the reduced Laplacian A, an
    M-matrix: A^-1 >= 0 entrywise, so |A^-1|_inf = |A^-1 1|_inf, and w with
    |A w - 1|_inf <= eta < 1 gives A^-1 1 <= w / (1 - eta) (Varga, Matrix
    Iterative Analysis, ch. 3)."""
    from scipy.sparse.linalg import spsolve
    w = spsolve(oracle_csr(A).tocsc(), np.ones(A.n))
    eta = _residual_bound(A, np.ones(A.n), w)
    assert eta < 0.5
    return float(np.abs(w).max() / (1 - eta))


@pytest.fixture(scope="module")
def l_map64(l_spec):
    return gridgen.grid_approximation(l_spec, 1 / 64)[0]


def test_pcg_agrees_with_dense_and_jacobi_oracles(topology_maps, l_map64):
    # Two solutions x1, x2 of A x = b with exact residuals r1, r2 differ by
    # A^-1 (r2 - r1), so |x1 - x2|_inf <= |A^-1|_inf (|r1|_inf + |r2|_inf).
    # Both factors are bounded from above in floating point, so the bound
    # is rigorous up to the rounding of its own few operations, which the
    # factor 1 + 2^-30 covers.  Each solver stops at |r|_2 < tol |b|_2, so
    # the bound is about 2 tol |b|_2 |A^-1|_inf.  The dense solve is left
    # out at 1/64, whose 12,221 unknowns make a 1.2 GB matrix.
    mm = topology_maps["rect16"]
    m = mm.map
    stretched = odmap.MarkedRectangleMap(
        odmap.OrthodiagonalMap(m.positions * [2.0, 1.0], m.colors, m.faces, m.boundary),
        mm.marked)
    assert set(np.unique(stretched.map.extract_primal().edge_c)) == {0.5, 2.0}
    maps = {**topology_maps, "stretched": stretched, "L64": l_map64}
    for name, g, pinned in _cg_systems(maps):
        h = harmonic.solve_dirichlet(g, *pinned)
        A, b, free_ids, _, _ = _system(g, pinned)
        x = h.values[free_ids]
        oracles = [_jacobi_solve(g, pinned)]
        if A.n < 2000:
            oracles.append(harmonic.solve_dirichlet_dense(g, *pinned).values[free_ids])
        inv = _inverse_norm_bound(A)
        for y in oracles:
            bound = inv * (_residual_bound(A, b, x) + _residual_bound(A, b, y))
            assert np.abs(x - y).max() <= bound * (1 + 2.0 ** -30), name
            assert bound <= 4 * harmonic.DEFAULT_TOL * np.linalg.norm(b) * inv, name


def test_pcg_zero_rhs_returns_zeros_after_no_steps(topology_maps):
    # all pins 0: b == 0, and the loop returns zeros from any start without
    # stepping or building the preconditioner
    for name, g, pinned in _cg_systems(topology_maps):
        zero = pinned[0], np.zeros(len(pinned[0]))
        h = harmonic.solve_dirichlet(g, *zero)
        assert h.iterations == 0 and not h.values[g.ids].any(), name
        A, b, _, x0, _ = _system(g, zero)
        x, steps = harmonic._pcg(A, b, x0 + 3.0, harmonic.DEFAULT_TOL, _no_setup)
        assert steps == 0 and not x.any() and not b.any(), name


def test_pcg_step_cap_reports_true_residual(rect_map16, monkeypatch):
    mm = rect_map16[0]
    g = mm.map.extract_primal()
    A, b, _, x0, setup = _system(g, harmonic.unit_pins(mm.arc_ab, mm.arc_cd))
    seen = []
    for cap in (1, 3, 10):
        monkeypatch.setattr(harmonic, "MAX_STEPS", cap)
        x = x0.copy()
        with pytest.raises(harmonic.SolverError,
                           match=f"^CG did not converge in {cap} steps$") as exc:
            harmonic._pcg(A, b, x, harmonic.DEFAULT_TOL, setup)
        # x holds the last iterate, in place, and the error its relative residual
        want = np.linalg.norm(b - oracle_csr(A) @ x) / np.linalg.norm(b)
        assert exc.value.residual == pytest.approx(want, rel=1e-9)
        seen.append(exc.value.residual)
    assert seen[0] > seen[1] > seen[2] > harmonic.DEFAULT_TOL
    # a preconditioner that is not positive definite stops the first step
    with pytest.raises(harmonic.SolverError, match=r"^CG step 1 has r\.z = -.*not positive$") as exc:
        harmonic._pcg(A, b, x0.copy(), harmonic.DEFAULT_TOL, lambda: np.negative)
    assert exc.value.residual == pytest.approx(
        np.linalg.norm(b - oracle_csr(A) @ x0) / np.linalg.norm(b), rel=1e-9)


def test_pcg_steps_stop_doubling_as_eps_halves(l_spec):
    # the Jacobi-preconditioned loop took 71, 143, 279, 550 and 1,083 steps
    # on the L-shape's primal system at 2^-3 ... 2^-7; the multigrid one
    # takes 20, 23, 30, 42 and 59
    steps = []
    for k in range(3, 8):
        mm = gridgen.grid_approximation(l_spec, 2.0 ** -k)[0]
        g = mm.map.extract_primal()
        steps.append(harmonic.solve_dirichlet(g, *harmonic.unit_pins(mm.arc_ab, mm.arc_cd))
                     .iterations)
    assert max(steps) <= 80, steps


def _slot_systems(maps):
    """(name, graph, pinned) for each marked map's two unit-pinned systems,
    and for the fan pinned at two rim vertices, its hub row 69 entries
    wide."""
    yield from _cg_systems(maps)
    yield "fan", fan_graph(), ([1, 36], [0.0, 1.0])


def _dense_reduced(g, pinned):
    """The reduced Laplacian as a dense array, built entry by entry."""
    iu, iv = g.edge_index
    lap = np.zeros((g.n, g.n))
    lap[iu, iv] = lap[iv, iu] = -g.edge_c
    diag = np.zeros(g.n)
    np.add.at(diag, iu, g.edge_c)
    np.add.at(diag, iv, g.edge_c)
    lap[np.arange(g.n), np.arange(g.n)] = diag
    free = ~np.isin(g.ids, pinned[0])
    return lap[free][:, free]


def _held(A):
    """The number of entries a SlotMatrix's arrays hold."""
    return (A.cols.size + A.vals.size + A.long_rows.size
            + sum(c.size + v.size for c, v in A.extra))


@pytest.fixture(scope="module")
def slot_systems(topology_maps):
    systems = []
    for name, g, pinned in _slot_systems(topology_maps):
        dense = _dense_reduced(g, pinned)
        A = harmonic.SlotMatrix(len(dense), *harmonic._reduced_system(g, *pinned)[3])
        systems.append((name, A, dense))
    return systems


def test_slot_matrix_holds_the_reduced_laplacian_in_bounded_storage(slot_systems):
    for name, A, dense in slot_systems:
        assert np.array_equal(A.toarray(), dense), name
        rows, cols, _ = A.entries()
        nnz = len(rows)
        assert nnz == np.count_nonzero(dense), name
        assert _held(A) <= 2 * nnz + 2 * A.n, name
    fan = dict((name, A) for name, A, _ in slot_systems)["fan"]
    # the hub row (index 0) carries on past the common width, alone
    assert fan.cols.shape[0] < 69 and fan.long_rows.tolist() == [0]
    assert len(fan.extra) == 69 - fan.cols.shape[0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e150]),
       zeros=st.floats(0.0, 1.0))
def test_slot_matrix_product_is_scipy_csr_product_bitwise(slot_systems, seed, scale, zeros):
    # x has signed zeros in it, so a row sum started from -0.0 would show;
    # the matrix built from its entries in any order has the same product
    rng = np.random.default_rng(seed)
    for name, A, _ in slot_systems:
        x = rng.standard_normal(A.n) * scale
        x[rng.random(A.n) < zeros] = 0.0
        x[rng.random(A.n) < zeros / 2] = -0.0
        want = _bits(oracle_csr(A) @ x)
        assert np.array_equal(_bits(A @ x), want), name
        rows, cols, vals = A.entries()
        p = rng.permutation(len(rows))
        assert np.array_equal(_bits(harmonic.SlotMatrix(A.n, rows[p], cols[p], vals[p]) @ x),
                              want), name


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 30))
def test_slot_matrix_on_drawn_patterns(data, n):
    # rows of any lengths, empty ones included, in storage under the bound
    # and with scipy's product bits
    import scipy.sparse as sp
    lengths = data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), lengths)
    cols = np.concatenate([rng.permutation(n)[:k] for k in lengths] + [np.zeros(0, int)])
    vals = rng.standard_normal(len(rows))
    A = harmonic.SlotMatrix(n, rows, cols, vals)
    assert _held(A) <= 2 * len(rows) + 2 * n
    x = rng.standard_normal(n)
    want = sp.csr_matrix((vals, (rows, cols)), shape=(n, n)) @ x
    assert np.array_equal(_bits(A @ x), _bits(want))


def test_slot_matrix_sums_repeated_entries():
    A = harmonic.SlotMatrix(3, np.array([0, 2, 0, 1, 0]), np.array([1, 2, 0, 1, 1]),
                            np.array([1.0, 4.0, 2.0, 3.0, 5.0]))
    assert np.array_equal(A.toarray(), [[2.0, 6.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
    assert np.array_equal(A @ np.array([1.0, 2.0, 3.0]), [14.0, 6.0, 12.0])


def _check_bfs(indptr, indices, root):
    """breadth_first_levels against csgraph; the levels are the depths of
    the search tree, and each vertex was discovered by the first arc to it
    in its predecessor's row.  Returns the number of vertices reached."""
    levels, pred, arc = harmonic.breadth_first_levels(indptr, indices, root)
    order = np.concatenate(levels)
    want_order, want_pred = oracle_breadth_first(indptr, indices, root)
    assert np.array_equal(order, want_order) and np.array_equal(pred, want_pred)
    assert np.array_equal(arc < 0, pred < 0)
    for v in order[1:].tolist():
        row = indices[indptr[pred[v]]:indptr[pred[v] + 1]].tolist()
        assert arc[v] == indptr[pred[v]] + row.index(v)
    depth = np.zeros(len(pred), dtype=np.int64)
    for v in order[1:].tolist():
        depth[v] = depth[pred[v]] + 1
    for k, level in enumerate(levels):
        assert level.size and (depth[level] == k).all()
    return len(order)


def test_breadth_first_levels_match_csgraph_on_dual_graphs(topology_maps, l_map64):
    for name, mm in {**topology_maps, "L64": l_map64}.items():
        indptr, indices, root = dual_arcs_csr(mm)
        assert _check_bfs(indptr, indices, root) == len(indptr) - 1, name


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 24))
def test_breadth_first_levels_match_csgraph_on_drawn_graphs(data, n):
    # arcs among the first k vertices only, so the rest are isolated, and
    # the drawn arcs often leave the graph disconnected
    k = data.draw(st.integers(1, n))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                               max_size=3 * k))
    arcs = np.unique(np.array([u * n + v for u, v in pairs], dtype=np.int64))
    indptr = np.searchsorted(arcs // n, np.arange(n + 1))
    _check_bfs(indptr, arcs % n, data.draw(st.integers(0, n - 1)))


def test_conjugate_of_disconnected_dual_graph_is_an_error():
    # one more dual vertex, on no face: the search cannot reach it
    mm = star_map()
    m = mm.map
    m2 = odmap.OrthodiagonalMap(np.vstack([m.positions, [[2.0, 2.0]]]),
                                np.append(m.colors, odmap.DUAL), m.faces, m.boundary)
    mm2 = odmap.MarkedRectangleMap(m2, mm.marked)
    h = harmonic.solve_dirichlet(m2.extract_primal(), *harmonic.unit_pins(mm2.arc_ab, mm2.arc_cd))
    with pytest.raises(harmonic.ConjugacyError, match="^dual graph is not connected$"):
        harmonic.harmonic_conjugate(mm2, h)


def test_conjugate_start_never_raises(rect_map16):
    # a disconnected dual graph and a field far from harmonic make
    # harmonic_conjugate raise, but the start is still finite on the dual
    # vertices and 0 .. 1 on the two dual arcs
    mm = star_map()
    m = mm.map
    m2 = odmap.OrthodiagonalMap(np.vstack([m.positions, [[2.0, 2.0]]]),
                                np.append(m.colors, odmap.DUAL), m.faces, m.boundary)
    mm2 = odmap.MarkedRectangleMap(m2, mm.marked)
    h2 = harmonic.solve_dirichlet(m2.extract_primal(), *harmonic.unit_pins(mm2.arc_ab, mm2.arc_cd))
    mm16 = rect_map16[0]
    gp = mm16.map.extract_primal()
    rough = harmonic.solve_dirichlet(gp, *harmonic.unit_pins(mm16.arc_ab, mm16.arc_cd))
    rough.values[gp.ids] += np.random.default_rng(0).normal(0.0, 1e-3, gp.n)
    for mk, h in ((mm2, h2), (mm16, rough)):
        with pytest.raises(harmonic.ConjugacyError):
            harmonic.harmonic_conjugate(mk, h)
        start = harmonic.conjugate_start(mk, h)
        gd = mk.map.extract_dual()
        assert np.isfinite(start[gd.ids]).all()
        assert start[mk.arc_bc].min() == 0.0 and start[mk.arc_da].max() == 1.0


def test_iterations_count_cg_steps(rect_map16, monkeypatch):
    mm = rect_map16[0]
    g = mm.map.extract_primal()
    pinned = harmonic.unit_pins(mm.arc_ab, mm.arc_cd)
    h = harmonic.solve_dirichlet(g, *pinned)
    # the residual is checked after each step, so a cap of that many steps
    # gives the same field, and one fewer step falls short
    monkeypatch.setattr(harmonic, "MAX_STEPS", h.iterations)
    assert h.iterations > 0
    assert np.array_equal(_bits(harmonic.solve_dirichlet(g, *pinned).values[g.ids]),
                          _bits(h.values[g.ids]))
    monkeypatch.setattr(harmonic, "MAX_STEPS", h.iterations - 1)
    with pytest.raises(harmonic.SolverError):
        harmonic.solve_dirichlet(g, *pinned)
    # a start that meets tol takes no step and builds no preconditioner
    A, b, free_ids, _, _ = _system(g, pinned)
    assert harmonic._pcg(A, b, h.values[free_ids].copy(), harmonic.DEFAULT_TOL,
                         _no_setup)[1] == 0
    assert harmonic.solve_dirichlet(g, *pinned, start=h.values).iterations == 0
    assert harmonic.solve_dirichlet_dense(g, *pinned).iterations == 0
    assert harmonic.solve_dirichlet(g, g.ids, np.zeros(g.n)).iterations == 0
    assert harmonic.solve_dirichlet(g, pinned[0], np.zeros(len(pinned[0]))).iterations == 0


def test_gradient_flow_path():
    h = harmonic.solve_dirichlet(path3(), [0, 2], [0.0, 1.0])
    f = harmonic.gradient_flow(h)
    f.check()
    assert abs(f.strength - 0.5) < 1e-12
    assert np.allclose(np.abs(f.theta), 0.5)
    assert abs(f.energy() - h.energy) < 1e-12


def test_flow_divergence_on_solved_grid():
    g = grid_graph(5, 4)
    h = harmonic.solve_dirichlet(g, [0, 19], [0.0, 1.0], tol=1e-12)
    f = harmonic.gradient_flow(h)
    f.check(rel=1e-8)
    assert abs(f.energy() - h.energy) < 1e-12 * max(1.0, h.energy)


def test_flow_check_matches_dict_oracle(topology_maps):
    rng = np.random.default_rng(23)
    for mm in topology_maps.values():
        for pair in ("primal", "dual"):
            f = extremal.extremal_length(mm, pair).witness_flow
            flows = [f, harmonic.Flow(f.graph, f.theta, f.sources, np.zeros(0, dtype=np.int64))]
            for k in rng.integers(0, f.graph.m, 3):
                theta = f.theta.copy()
                theta[k] += 1e-4
                flows.append(harmonic.Flow(f.graph, theta, f.sources, f.sinks))
            for g in flows:
                for rel in (1e-10, 1e-8):
                    s, want = oracle_flow_check(g, rel)
                    assert g.strength == s
                    if want is None:
                        g.check(rel)
                    else:
                        with pytest.raises(ValueError) as exc:
                            g.check(rel)
                        assert str(exc.value) == want
    # the oracle scans free vertices by ascending id, so equal messages name
    # the lowest-id offender; the last corrupted flow must have reached it
    assert str(exc.value).startswith("nonzero divergence")
    # the strength is summed exactly: sources carrying 1e16, -1e16 and 1.0
    # give 1.0 in every order, where a float sum over 8, 1, 2 gives 0.0
    g = graph_from_edges({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0), 8: (1.0, 1.0)},
                               [(1, 0, 1.0), (2, 0, 1.0), (8, 0, 1.0)])
    for sources in itertools.permutations([1, 2, 8]):
        f = harmonic.Flow(g, np.array([1e16, -1e16, 1.0]), np.array(sources), np.array([0]))
        assert f.strength == oracle_flow_check(f)[0] == 1.0
        f.check()


@pytest.mark.parametrize("eps", [1 / 8, 1 / 16, 1 / 32])
@pytest.mark.parametrize("domain", ["L", "rect"])
def test_witness_flows_pass_their_own_check(eps, domain, rect_spec, l_spec):
    # check() admits the divergence of the solve that produced the flow
    spec = {"L": l_spec, "rect": rect_spec}[domain]
    mm, _ = gridgen.grid_approximation(spec, eps)
    for pair in ("primal", "dual"):
        res = extremal.extremal_length(mm, pair)
        assert res.witness_flow.tol == res.witness_field.tol
        res.witness_flow.check()


def test_dirichlet_thomson_gap_inequalities():
    rng = np.random.default_rng(17)
    g = grid_graph(4, 4)
    S, T = [0, 1], [14, 15]
    r_eff = harmonic.effective_resistance(g, S, T, tol=1e-12)
    h = harmonic.solve_dirichlet(g, *harmonic.unit_pins(S, T), tol=1e-12)

    # Dirichlet: any admissible comparison function gives a lower bound
    for _ in range(25):
        vals = rng.uniform(0, 1, g.n)  # grid_graph ids are 0..n-1
        vals[S], vals[T] = 0.0, 1.0
        e = harmonic.dirichlet_energy(g, vals)
        assert 1.0 / e <= r_eff + 1e-8
    assert abs(1.0 / h.energy - r_eff) < 1e-8

    # Thomson: the unit current flow attains the resistance
    base = harmonic.gradient_flow(h)
    unit = base.scaled(1.0 / base.strength)
    assert abs(unit.energy() - r_eff) < 1e-8

    # gap inequality on random (flow, function) pairs with nonnegative gap
    for _ in range(50):
        vals = rng.uniform(0, 1, g.n)
        vals[S] = rng.uniform(0.0, 0.2, len(S))
        vals[T] = rng.uniform(0.8, 1.0, len(T))
        gap = min(vals[t] for t in T) - max(vals[s] for s in S)
        if gap < 0:
            continue
        scale = float(rng.uniform(0.1, 3.0))
        theta = base.theta * scale
        flow = harmonic.Flow(g, theta, base.sources, base.sinks)
        e_f = harmonic.dirichlet_energy(g, vals)
        lhs = flow.strength * gap
        rhs = math.sqrt(flow.energy()) * math.sqrt(e_f)
        assert lhs <= rhs + 1e-10


def test_thomson_on_explicit_flows():
    # two-route network: send unit flow along suboptimal splits
    g = graph_from_edges(
        {0: (0, 0), 1: (1, 1), 2: (1, -1), 3: (2, 0)},
        [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
    r_eff = harmonic.effective_resistance(g, [0], [3], tol=1e-12)
    assert abs(r_eff - 1.0) < 1e-10
    for split in (0.0, 0.25, 0.5, 0.8, 1.0):
        theta = np.array([split, split, 1 - split, 1 - split])
        f = harmonic.Flow(g, theta, np.array([0]), np.array([3]))
        f.check(rel=1e-9)
        assert f.energy() >= r_eff - 1e-8
    # equality at the balanced split
    f = harmonic.Flow(g, np.array([0.5, 0.5, 0.5, 0.5]), np.array([0]), np.array([3]))
    assert abs(f.energy() - r_eff) < 1e-8


def test_energy_conservation_strength_times_gap():
    g = grid_graph(5, 3)
    h = harmonic.solve_dirichlet(g, [0, 1, 12, 13], [0.0, 0.0, 2.0, 2.0], tol=1e-12)
    f = harmonic.gradient_flow(h)
    assert abs(h.energy - f.strength * h.gap()) < 1e-10 * max(1.0, h.energy)


def test_scale_covariance():
    g = grid_graph(4, 3)
    S, T = [0, 1, 2], [9, 10, 11]
    r1 = harmonic.effective_resistance(g, S, T, tol=1e-12)
    for s in (0.25, 3.0, 17.5):
        pos = {int(i): tuple(p) for i, p in zip(g.ids, g.positions)}
        edges = [(int(u), int(v), s * float(c))
                 for u, v, c in zip(g.edge_u, g.edge_v, g.edge_c)]
        gs = graph_from_edges(pos, edges)
        rs = harmonic.effective_resistance(gs, S, T, tol=1e-12)
        assert abs(rs - r1 / s) < 1e-10 * max(1.0, r1 / s)


def test_harmonic_conjugate_star_exact():
    mm = star_map()
    gp = mm.map.extract_primal()
    h = harmonic.solve_dirichlet(gp, [0, 3, 8, 5], [0.0, 0.0, 1.0, 1.0], tol=1e-12)
    conj, max_res = harmonic.harmonic_conjugate(mm, h)
    assert max_res <= 1e-10
    # normalized: 0 to 1 from the [B, C] dual arc to [D, A]
    assert conj.values[mm.arc_bc].min() == 0.0 and conj.values[mm.arc_da].max() == 1.0
    # h has unit gap, so the conjugate's span is E(h), scaled away
    assert abs(conj.energy * h.energy - 1.0) < 1e-10


def test_conjugate_constant_field():
    mm = star_map()
    gp = mm.map.extract_primal()
    vals = np.full(mm.map.n_vertices, np.nan)
    vals[gp.ids] = 4.0
    pinned = {0: 4.0, 3: 4.0, 8: 4.0, 5: 4.0}
    h = harmonic.HarmonicField(gp, vals, list(pinned), 1e-12)
    conj, max_res = harmonic.harmonic_conjugate(mm, h)
    assert max_res == 0.0
    assert all(v == 0.0 for v in conj.values[conj.graph.ids])


def test_conjugate_matches_direct_dual_solve(rect_map16):
    mm, _ = rect_map16
    gp = mm.map.extract_primal()
    h = harmonic.solve_dirichlet(gp, *harmonic.unit_pins(mm.arc_ab, mm.arc_cd), tol=1e-12)
    conj, max_res = harmonic.harmonic_conjugate(mm, h)
    assert max_res <= 1e-8 * max(h.gap(), 1.0)
    gd = mm.map.extract_dual()
    # the normalized conjugate solves the unit dual problem, and h has unit
    # gap, so the conjugate's span E(h) is scaled away: E(conj) E(h) = 1
    hd = harmonic.solve_dirichlet(gd, *harmonic.unit_pins(mm.arc_bc, mm.arc_da), tol=1e-12)
    # compare up to an additive constant
    diffs = [conj.values[int(v)] - hd.values[int(v)] for v in gd.ids]
    shift = float(np.mean(diffs))
    dev = max(abs(d - shift) for d in diffs)
    assert dev < 1e-8
    assert abs(conj.energy * h.energy - 1.0) < 1e-10


def test_conjugate_matches_bfs_oracle(topology_maps):
    for mm in topology_maps.values():
        t, h, _ = tiling.build_tiling(mm)
        conj, max_res = harmonic.harmonic_conjugate(mm, h)
        vals, tree = oracle_conjugate_values(mm, h)
        ids = conj.graph.ids
        w1, w2 = np.searchsorted(ids, mm.map.faces[:, 1]), np.searchsorted(ids, mm.map.faces[:, 3])
        inc = mm.map.extract_primal().edge_c * (h.values[mm.map.faces[:, 2]]
                                                - h.values[mm.map.faces[:, 0]])
        res = np.abs(vals[w2] - vals[w1] - inc)[~tree]
        assert max_res == (float(res.max()) if res.size else 0.0)
        # normalized as _integrate_conjugate does: [D, A] shifted to minimum
        # 0, then [B, C] to minimum 0 and [D, A] scaled to maximum 1
        da, bc = (np.searchsorted(ids, sorted(arc)) for arc in (mm.arc_da, mm.arc_bc))
        vals -= vals[da].min()
        shift = float(vals[bc].min())
        span = float(vals[da].max()) - shift
        vals = (vals - shift) / (span if span > 0 else 1.0)
        assert np.array_equal(conj.values[ids].view(np.uint64), vals.view(np.uint64))


def test_one_normalized_conjugate(topology_maps):
    # harmonic_conjugate, conjugate_start and build_tiling give the same
    # bits, NaN at the primal ids included, 0 to 1 from [B, C] to [D, A]
    for mm in topology_maps.values():
        _, h, ht = tiling.build_tiling(mm)
        conj = harmonic.harmonic_conjugate(mm, h)[0].values
        for other in (harmonic.conjugate_start(mm, h), ht.values):
            assert np.array_equal(conj.view(np.uint64), other.view(np.uint64))
        assert conj[mm.arc_bc].min() == 0.0 and conj[mm.arc_da].max() == 1.0


def test_conjugacy_error_on_nonharmonic_field():
    mm = star_map()
    gp = mm.map.extract_primal()
    pinned = {0: 0.0, 3: 0.0, 8: 1.0, 5: 1.0, 4: 0.9}  # wrong center value
    vals = np.full(mm.map.n_vertices, np.nan)
    vals[list(pinned)] = list(pinned.values())
    h = harmonic.HarmonicField(gp, vals, list(pinned), 1.0)
    with pytest.raises(harmonic.ConjugacyError):
        harmonic.harmonic_conjugate(mm, h)


def test_random_walk_oracle_gambler():
    est, se = harmonic.random_walk_oracle(path3(), [0, 2], [0.0, 1.0], 1,
                                          10_000, seed=1)
    assert abs(est - 0.5) <= 3 * se


def test_random_walk_oracle_constant():
    g = grid_graph(3, 3)
    rim = g.ids[g.ids != 4]
    est, se = harmonic.random_walk_oracle(g, rim, np.full(len(rim), 7.0), 4, 200, seed=2)
    assert est == 7.0 and se == 0.0


def test_random_walk_matches_solver_5x5():
    g = grid_graph(5, 5)
    pinned = harmonic.unit_pins(range(5), range(20, 25))
    h = harmonic.solve_dirichlet(g, *pinned, tol=1e-12)
    est, se = harmonic.random_walk_oracle(g, *pinned, 12, 10_000, seed=42)
    assert abs(est - h.values[12]) <= 3 * se


def test_random_walk_oracle_pinned_bits():
    # one estimate on a graph without parallel edges, whose hub row is wider
    # than eight, equal to the walk over sorted per-vertex adjacency lists
    est, se = harmonic.random_walk_oracle(fan_graph(12), [3, 9], [0.0, 1.0], 6, 500, seed=9)
    assert (est.hex(), se.hex()) == ("0x1.1374bc6a7ef9ep-1", "0x1.6da9e514dbc68p-6")


def test_random_walk_determinism_and_preconditions():
    g = grid_graph(4, 4)
    pinned = [0, 15], [0.0, 1.0]
    a = harmonic.random_walk_oracle(g, *pinned, 5, 500, seed=9)
    b = harmonic.random_walk_oracle(g, *pinned, 5, 500, seed=9)
    assert a == b
    with pytest.raises(harmonic.SolverError):
        harmonic.random_walk_oracle(g, *pinned, 5, 50, seed=9)
    with pytest.raises(harmonic.SolverError):
        harmonic.random_walk_oracle(g, *pinned, 0, 500, seed=9)
