import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (oracle_nearest_vertex, oracle_rotation_color_swap_symmetric, plus_map,
                      star_map)
from orthotile import experiments, gridgen, odmap, tiling


def test_reference_map_detection(rect_spec, square_spec, l_spec):
    ref = experiments.reference_map(rect_spec)
    assert ref is not None
    phi, L = ref
    assert L == 2.0
    assert phi(0.5 + 0.25j) == 0.5 + 0.25j
    assert experiments.reference_map(l_spec) is None
    phi_sq, L_sq = experiments.reference_map(square_spec)
    assert L_sq == 1.0


def test_reference_map_rotated_rectangle():
    # a tilted rectangle still has an affine reference
    import numpy as np
    c, s = math.cos(0.7), math.sin(0.7)
    R = np.array([[c, -s], [s, c]])
    poly = (np.array([[0, 0], [2, 0], [2, 1], [0, 1]]) @ R.T).tolist()
    marks = (np.array([[0, 1], [0, 0], [2, 0], [2, 1]]) @ R.T).tolist()
    spec = gridgen.DomainSpec(poly, marks)
    phi, L = experiments.reference_map(spec)
    assert abs(L - 2.0) < 1e-12
    z = complex(*marks[0])
    assert abs(phi(z) - 1j) < 1e-12


def test_reference_map_needs_the_fourth_corner():
    # a right angle at B and |CD| = |AB|, but D != A + C - B: the discrete
    # lengths (1.95, 1.88, 1.85 at eps 1/8 ... 1/32) are not the affine L = 2
    quad = [[0, 1], [0, 0], [2, 0], [1.4, 0.8]]
    assert experiments.reference_map(gridgen.DomainSpec(quad, quad)) is None


def test_probe_points_margin(rect_spec):
    pts = experiments.probe_points(rect_spec)
    assert len(pts) > 100
    ring = np.vstack([rect_spec.boundary.vertices, rect_spec.boundary.vertices[:1]])
    from orthotile.geom import points_to_segments_distance
    d = points_to_segments_distance(pts, ring[:-1], ring[1:])
    assert d.min() >= 0.1 * rect_spec.boundary.diameter() - 1e-12


def test_modulus_profile_strip():
    from conftest import strip_map
    mm = strip_map()
    t, h, ht = tiling.build_tiling(mm)
    prof = experiments.modulus_profile(mm, h, ht)
    # hand solution: the middle-row spine jumps by 1 per column in h, and
    # the full-height middle tiles give dual increments of 1
    assert abs(prof.chi - 1.0) < 1e-12
    assert abs(prof.chi_dual - 1.0) < 1e-12
    assert prof.eps == mm.map.mesh_eps


def test_modulus_pointwise_bulk(rect_map16):
    mm, _ = rect_map16
    t, h, ht = tiling.build_tiling(mm)
    prof = experiments.modulus_profile(mm, h, ht)
    rng = np.random.default_rng(2)
    prim = [v for v in range(mm.map.n_vertices) if mm.map.colors[v] == 0]
    pairs = [(int(rng.choice(prim)), int(rng.choice(prim))) for _ in range(100)]
    rep = experiments.modulus_pointwise_check(mm, h, pairs, K_cal=4 * prof.K_hat,
                                              profile=prof)
    assert rep.entries, "no bulk pairs sampled"
    assert rep.ok
    # x = y gives a zero entry
    rep2 = experiments.modulus_pointwise_check(mm, h, [(prim[0], prim[0])],
                                               K_cal=1.0, profile=prof)
    assert rep2.entries[0].product == 0.0
    # a pair hugging the boundary is skipped with a note
    pos = mm.map.positions
    corner = min(prim, key=lambda v: pos[v][0] + pos[v][1])
    far = max(prim, key=lambda v: pos[v][0] + pos[v][1])
    rep3 = experiments.modulus_pointwise_check(mm, h, [(corner, far)],
                                               K_cal=1.0, profile=prof)
    assert rep3.skipped


def test_modulus_pointwise_calibrated_at_164(rect_spec):
    # calibrate at the coarsest level, then audit 100 random bulk pairs on
    # the eps = 1/64 rectangle against 4x that constant
    coarse, _ = gridgen.grid_approximation(rect_spec, 1 / 4)
    tc, hc, htc = tiling.build_tiling(coarse, tol=1e-12)
    K_cal = 4.0 * experiments.modulus_profile(coarse, hc, htc).K_hat

    mm, _ = gridgen.grid_approximation(rect_spec, 1 / 64)
    t, h, ht = tiling.build_tiling(mm, tol=1e-12)
    prof = experiments.modulus_profile(mm, h, ht)
    rng = np.random.default_rng(13)
    P = mm.map.positions
    prim = np.array([v for v in range(mm.map.n_vertices)
                     if mm.map.colors[v] == 0])
    # the bulk condition needs |x - y| below both boundary distances, so
    # draw anchors away from the boundary and partners nearby
    deep = prim[(P[prim, 0] > 0.3) & (P[prim, 0] < 1.7)
                & (P[prim, 1] > 0.3) & (P[prim, 1] < 0.7)]
    pairs = []
    while len(pairs) < 100:
        x = int(rng.choice(deep))
        r = float(rng.uniform(0.01, 0.25))
        near = prim[np.hypot(*(P[prim] - P[x]).T) <= r]
        y = int(rng.choice(near))
        if x != y:
            pairs.append((x, y))
    rep = experiments.modulus_pointwise_check(mm, h, pairs, K_cal=K_cal,
                                              profile=prof)
    assert len(rep.entries) >= 90, "too few bulk pairs"
    assert rep.ok, f"max product {rep.max_product} > {K_cal}"


def test_symmetry_check_true_and_false_cases(square_spec):
    assert experiments.rotation_color_swap_symmetric(plus_map())
    assert not experiments.rotation_color_swap_symmetric(star_map())
    mm, _ = gridgen.grid_approximation(square_spec, 1 / 8)
    assert not experiments.rotation_color_swap_symmetric(mm)


@pytest.mark.parametrize("eps", [1 / 4, 1 / 8, 1 / 16, 1 / 32])
def test_symmetry_check_matches_kdtree_oracle(eps, rect_spec, square_spec, l_spec):
    maps = [plus_map(), star_map()]
    maps += [gridgen.grid_approximation(s, eps)[0] for s in (rect_spec, square_spec, l_spec)]
    for mm in maps:
        assert (experiments.rotation_color_swap_symmetric(mm)
                == oracle_rotation_color_swap_symmetric(mm))


def _stretched(mm, f):
    """mm with x scaled by f about the bounding-box center."""
    pos = mm.map.positions.copy()
    c = (pos[:, 0].min() + pos[:, 0].max()) / 2
    pos[:, 0] = c + (pos[:, 0] - c) * f
    m = odmap.OrthodiagonalMap(pos, mm.map.colors, mm.map.faces, mm.map.boundary)
    return odmap.MarkedRectangleMap(m, mm.marked)


def test_symmetry_check_answers_non_square_boxes_at_once(rect_spec, square_spec, l_spec,
                                                         monkeypatch):
    # the plus map's box is 4 x 4 and its tol 1e-9 * 4 sqrt(2): stretched by
    # one tol it is square within tol, by four it is not
    tol = 1e-9 * 4 * math.sqrt(2)
    square = [plus_map(), _stretched(plus_map(), 1 + tol / 4),
              gridgen.grid_approximation(square_spec, 1 / 8)[0],
              gridgen.grid_approximation(l_spec, 1 / 8)[0]]
    oblong = [_stretched(plus_map(), 1 + tol), gridgen.grid_approximation(rect_spec, 1 / 8)[0]]
    want = [oracle_rotation_color_swap_symmetric(mm) for mm in square + oblong]
    assert want == [True, True, False, False, False, False]
    got = [experiments.rotation_color_swap_symmetric(mm) for mm in square]

    def no_match(*args):
        raise AssertionError("an oblong box is matched vertex by vertex")

    monkeypatch.setattr(experiments, "_nearest_vertex", no_match)
    got += [experiments.rotation_color_swap_symmetric(mm) for mm in oblong]
    assert got == want


@settings(max_examples=150, deadline=None)
@given(scale=st.sampled_from([1e-14, 1e-12, 1e-7, 1e-4, 1e-2]),
       seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(0.0, 1.0))
def test_symmetry_check_matches_oracle_under_perturbation(scale, seed, frac):
    # the plus map's tol is 1e-9 * diagonal (~5.7e-9): scales 1e-14 and
    # 1e-12 stay well inside it, the others land well outside
    base = plus_map()
    rng = np.random.default_rng(seed)
    pos = base.map.positions.copy()
    moved = rng.random(len(pos)) < frac
    pos[moved] += rng.uniform(-scale, scale, (int(moved.sum()), 2))
    m = odmap.OrthodiagonalMap(pos, base.map.colors, base.map.faces, base.map.boundary)
    mm = odmap.MarkedRectangleMap(m, base.marked)
    got = experiments.rotation_color_swap_symmetric(mm)
    assert got == oracle_rotation_color_swap_symmetric(mm)
    if scale < 1e-9:
        assert got


def test_nearest_vertex_matches_oracle_off_the_cells(rect_spec):
    mm, _ = gridgen.grid_approximation(rect_spec, 1 / 8)
    pos = mm.map.positions
    rng = np.random.default_rng(5)
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    pts = np.vstack([pos + rng.normal(0.0, 1e-3, pos.shape),
                     rng.uniform(lo - 1.0, hi + 1.0, (2000, 2)),
                     [[-1e6, 3.0], [1e6, -1e6], [hi[0] + 1e-3, hi[1]], [lo[0], lo[1] - 1e-3]]])
    # tols from well below the vertex spacing to several spacings, where
    # cells hold many vertices
    for tol in (1e-9, 1e-3, 0.02, 0.3, 5.0):
        got = experiments._nearest_vertex(pos, pts, tol)
        want = oracle_nearest_vertex(pos, pts, tol)
        assert np.array_equal(got, want), tol


def test_nearest_vertex_ties_go_to_the_lowest_id():
    # (2, 0) meets id 1 in the cell left of its own before id 0 in its own
    pos = np.array([[3.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    pts = np.array([[2.0, 0.0], [0.5, 0.0], [9.0, 9.0]])
    assert experiments._nearest_vertex(pos, pts, 1.0).tolist() == [0, 1, -1]


def test_convergence_run_rectangle(rect_spec):
    rep = experiments.convergence_run(rect_spec, 0.25, 3)
    assert rep.L_ref == 2.0
    devs = [lv.sup_dev_vs_reference for lv in rep.levels]
    assert all(d is not None for d in devs)
    assert devs[0] > devs[1] > devs[2]
    for lv in rep.levels:
        assert lv.error is None
        assert lv.duality_defect <= 1e-8
        assert lv.area_defect <= 1e-9 * max(lv.L_n, 1.0)
        assert lv.overlap_count == 0 and lv.containment_count == 0
    nexts = [lv.sup_dev_vs_next_level for lv in rep.levels[:-1]]
    assert all(n is not None and n > 0 for n in nexts)
    assert rep.levels[-1].sup_dev_vs_next_level is None
    assert rep.C_sup_dev is not None


def test_convergence_run_l_shape_cauchy(l_spec):
    rep = experiments.convergence_run(l_spec, 0.25, 4)
    assert rep.L_ref is None
    nexts = [lv.sup_dev_vs_next_level for lv in rep.levels[:-1]]
    assert all(n is not None for n in nexts)
    assert nexts[0] > nexts[-1]
    for lv in rep.levels:
        assert lv.duality_defect <= 1e-8


def test_convergence_records_generation_errors(rect_spec):
    rep = experiments.convergence_run(rect_spec, 16.0, 2)
    assert rep.levels[0].error is not None


def test_report_serialization(tmp_path, rect_spec):
    rep = experiments.convergence_run(rect_spec, 0.25, 2)
    p = tmp_path / "report.json"
    experiments.save_report(str(p), rep)
    payload = json.loads(p.read_text())
    assert payload["schema"] == experiments.SCHEMA
    assert len(payload["levels"]) == 2
    assert payload["levels"][0]["eps"] == 0.25


def test_persisted_levels_reverify(tmp_path, rect_spec):
    from orthotile import odmap
    rep = experiments.convergence_run(rect_spec, 0.25, 2,
                                      save_dir=str(tmp_path))
    for k, lv in enumerate(rep.levels):
        base = tmp_path / f"level{k:02d}"
        m, marked = odmap.load_map(str(base) + ".map.json")
        mm = odmap.MarkedRectangleMap(m, marked)
        t = tiling.load_tiling(str(base) + ".tiling.json")
        # recompute the stored defects from the persisted artifacts
        vrep = tiling.verify_tiling(t)
        assert abs(vrep.area_defect - lv.area_defect) <= 1e-12
        assert abs(t.L - lv.L_n) <= 1e-12
        cert = json.loads((tmp_path / f"level{k:02d}.cert.json").read_text())
        assert abs(cert["delta"] - lv.delta) <= 1e-12
