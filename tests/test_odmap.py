import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (OracleLocator, location_probes, oracle_boundary_edge_set,
                      oracle_boundary_mismatch, oracle_map_bytes, oracle_marked_arcs,
                      oracle_quad_is_convex, oracle_side_set, oracle_validate, star_map,
                      strip_map)
from orthotile import geom, gridgen, odmap


def single_face():
    pos = [(0, 0), (1, 0), (1, 1), (0, 1)]
    col = [0, 1, 0, 1]
    return odmap.OrthodiagonalMap(pos, col, [[0, 1, 2, 3]], [0, 1, 2, 3])


def test_single_square_face_validates():
    m = single_face()
    rep = odmap.validate(m)
    assert rep.ok
    assert rep.nonconvex_faces == []


def test_orthogonality_violation_detected():
    pos = [(0, 0), (1.2, 0.1), (1, 1), (0, 1)]
    col = [0, 1, 0, 1]
    m = odmap.OrthodiagonalMap(pos, col, [[0, 1, 2, 3]], [0, 1, 2, 3])
    rep = odmap.validate(m)
    kinds = [v.kind for v in rep.violations]
    assert "orthogonality" in kinds


def test_pinch_point_detected():
    # two faces sharing exactly one vertex
    pos = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 1), (2, 2), (1, 2)]
    col = [0, 1, 0, 1, 1, 0, 1]
    faces = [[0, 1, 2, 3], [2, 4, 5, 6]]
    boundary = [0, 1, 2, 4, 5, 6, 2, 3]  # revisits the shared vertex
    m = odmap.OrthodiagonalMap(pos, col, faces, boundary)
    rep = odmap.validate(m)
    kinds = {v.kind for v in rep.violations}
    assert "boundary-not-simple" in kinds or "euler" in kinds


def test_conductance_formula_and_pairing():
    # |primal diagonal| = 2, |dual diagonal| = 1
    pos = [(0, 0), (1, -0.5), (2, 0), (1, 0.5)]
    col = [0, 1, 0, 1]
    m = odmap.OrthodiagonalMap(pos, col, [[0, 1, 2, 3]], [0, 1, 2, 3])
    gp = m.extract_primal()
    gd = m.extract_dual()
    assert abs(gp.edge_c[0] - 0.5) < 1e-15
    assert abs(gd.edge_c[0] - 2.0) < 1e-15
    assert abs(gp.edge_c[0] * gd.edge_c[0] - 1.0) < 1e-15


def test_extract_pairing_on_star():
    mm = star_map()
    gp = mm.map.extract_primal()
    gd = mm.map.extract_dual()
    assert gp.m == gd.m == mm.map.n_faces
    # edge k of either graph is a diagonal of face k
    assert np.array_equal(np.stack([gp.edge_u, gd.edge_u, gp.edge_v, gd.edge_v], axis=1),
                          mm.map.faces)
    assert np.allclose(gp.edge_c * gd.edge_c, 1.0, rtol=1e-15)


def test_area_identity_convex_faces():
    mm = strip_map()
    m = mm.map
    gp = m.extract_primal()
    gd = m.extract_dual()
    areas = m.face_areas()
    prod = 0.5 * gp.edge_len * gd.edge_len
    assert np.allclose(areas, prod, rtol=1e-12)
    # total: sum |e_p||e_d| = 2 Area(G-hat)
    assert abs(float((gp.edge_len * gd.edge_len).sum()) - 2 * areas.sum()) < 1e-12


def test_degenerate_diagonal_errors():
    pos = [(0, 0), (1, 0), (0, 0), (0, 1)]
    col = [0, 1, 0, 1]
    m = odmap.OrthodiagonalMap(pos, col, [[0, 1, 2, 3]], [0, 1, 2, 3])
    with pytest.raises(odmap.MapError):
        m.extract_primal()


def test_nonconvex_face_recorded_not_violated():
    # dart-shaped quad with orthogonal diagonals that do not cross
    pos = [(0, 0), (2, -1), (3, 0), (2, -0.2)]
    col = [0, 1, 0, 1]
    m = odmap.OrthodiagonalMap(pos, col, [[0, 1, 2, 3]], [0, 1, 2, 3])
    rep = odmap.validate(m)
    # diagonals: (0,0)-(3,0) horizontal and (2,-1)-(2,-0.2) vertical
    assert rep.ok
    assert rep.nonconvex_faces == [0]


def test_json_roundtrip_bit_identical(tmp_path):
    mm = strip_map()
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    odmap.save_map(str(p1), mm.map, mm.marked)
    m2, marked = odmap.load_map(str(p1))
    odmap.save_map(str(p2), m2, marked)
    assert p1.read_bytes() == p2.read_bytes()
    assert marked == list(mm.marked)
    # vertex records are placed by id, in whatever order they come
    d = json.loads(p1.read_text())
    d["vertices"] = d["vertices"][::-1]
    p3 = tmp_path / "m3.json"
    p3.write_text(json.dumps(d))
    m3, _ = odmap.load_map(str(p3))
    assert np.array_equal(m3.positions, mm.map.positions)
    assert np.array_equal(m3.colors, mm.map.colors)
    assert np.array_equal(m2.positions, mm.map.positions)
    assert np.array_equal(m2.faces, mm.map.faces)


def test_face_normalization_starts_primal():
    pos = [(0, 0), (1, 0), (1, 1), (0, 1)]
    col = [1, 0, 1, 0]  # face given starting at a dual vertex
    m = odmap.OrthodiagonalMap(pos, col, [[0, 1, 2, 3]], [0, 1, 2, 3])
    assert m.colors[m.faces[0][0]] == odmap.PRIMAL
    # the star's faces given from each of their four corners in turn: a
    # face that starts at a dual vertex starts one step later, the others
    # are kept as given
    m = star_map().map
    given = np.array([np.roll(f, -k) for k, f in enumerate(m.faces)])
    rot = odmap.OrthodiagonalMap(m.positions, m.colors, given, m.boundary)
    for g, f in zip(given, rot.faces):
        want = list(g) if m.colors[g[0]] == odmap.PRIMAL else list(g[1:]) + [g[0]]
        assert f.tolist() == want
        assert m.colors[f[0]] == odmap.PRIMAL
    assert rot.faces.dtype == np.int64


def test_trace_boundary(rect_map16, l_spec):
    mm_l, _ = gridgen.grid_approximation(l_spec, 1 / 8)
    for m in (rect_map16[0].map, mm_l.map, star_map().map, strip_map().map):
        cyc = odmap.trace_boundary(m.faces)
        assert cyc[0] == min(cyc) and len(set(cyc)) == len(cyc)
        sides = {(min(a, b), max(a, b)) for a, b in zip(cyc, cyc[1:] + cyc[:1])}
        assert sides == oracle_boundary_edge_set(m)
        assert geom.signed_area(m.positions[cyc]) > 0
        # the face order does not matter
        assert odmap.trace_boundary(m.faces[::-1]) == cyc
    sq = [[0, 1, 2, 3]]
    with pytest.raises(odmap.MapError, match="pinch"):
        odmap.trace_boundary([[0, 1, 2, 3], [2, 4, 5, 6]])
    with pytest.raises(odmap.MapError, match="multiple cycles"):
        odmap.trace_boundary([[0, 1, 2, 3], [4, 5, 6, 7]])
    with pytest.raises(odmap.MapError, match="empty"):
        odmap.trace_boundary(np.zeros((0, 4), dtype=np.int64))
    assert odmap.trace_boundary(sq) == [0, 1, 2, 3]


def test_side_array_matches_set_oracle(topology_maps):
    for mm in topology_maps.values():
        m = mm.map
        sides = m.side_edges()
        assert sides.dtype == np.int64 and sides.shape[1] == 2
        assert list(map(tuple, sides.tolist())) == sorted(oracle_side_set(m))
        assert m.side_edges() is sides


def test_validate_boundary_measure_matches_oracle(topology_maps):
    for mm in topology_maps.values():
        m = mm.map
        b = m.boundary.tolist()
        for wrong in (b[:-1], b[1:2] + b[:1] + b[2:], b[:3], [b[0]], b[::2]):
            bad = odmap.OrthodiagonalMap(m.positions, m.colors, m.faces, wrong)
            found = [v for v in odmap.validate(bad).violations if v.kind == "boundary-mismatch"]
            assert len(found) == 1
            assert found[0].measure == oracle_boundary_mismatch(bad) > 0
            assert odmap.boundary_mismatch(bad) == found[0].measure
        assert oracle_boundary_mismatch(m) == odmap.boundary_mismatch(m) == 0
        assert odmap.validate(m).ok



def _damaged(m):
    """m with one fault each around a middle face: a recoloured vertex, a
    zero diagonal, a sheared face, a clockwise face, an unused vertex and
    a non-convex (dart) face."""
    pos, col, faces, b = m.positions, m.colors, m.faces, m.boundary
    f = faces[len(faces) // 2]
    recol = col.copy()
    recol[f[1]] = 1 - recol[f[1]]
    flat, shear, dart = pos.copy(), pos.copy(), pos.copy()
    flat[f[2]] = flat[f[0]]
    shear[f[1]] += 0.1 * (pos[f[2]] - pos[f[0]])
    mid = (pos[f[0]] + pos[f[2]]) / 2.0
    dart[f[1]] = mid + 0.3 * (pos[f[3]] - mid)
    cw = faces.copy()
    cw[len(faces) // 2] = cw[len(faces) // 2][::-1]
    om = odmap.OrthodiagonalMap
    return [om(pos, recol, faces, b), om(flat, col, faces, b), om(shear, col, faces, b),
            om(pos, col, cw, b), om(np.vstack([pos, [[9.0, 9.0]]]), np.append(col, 0), faces, b),
            om(dart, col, faces, b)]


def test_validate_matches_face_loop_oracle(topology_maps):
    def bits(rep):
        return (repr([(v.kind, v.where, float(v.measure), v.message) for v in rep.violations]),
                rep.nonconvex_faces)

    kinds, nonconvex = set(), 0
    for mm in topology_maps.values():
        for m in [mm.map] + _damaged(mm.map):
            rep = odmap.validate(m)
            assert bits(rep) == bits(oracle_validate(m))
            kinds |= {v.kind for v in rep.violations}
            nonconvex += len(rep.nonconvex_faces)
    assert {"color-alternation", "degenerate-diagonal", "orthogonality", "orientation",
            "unused-vertices"} <= kinds
    assert nonconvex > 0


def test_map_load_rejects_nonfinite_coordinates(tmp_path):
    d = json.loads(oracle_map_bytes(strip_map().map))
    p = tmp_path / "m.json"
    for bad in (None, float("nan"), float("inf")):
        d["vertices"][3]["x"] = bad
        p.write_text(json.dumps(d))
        with pytest.raises(odmap.MapError):
            odmap.load_map(str(p))


def test_marked_map_arcs_and_errors():
    mm = star_map()
    with pytest.raises(odmap.MapError):
        odmap.MarkedRectangleMap(mm.map, [0, 0, 8, 5])       # coincident
    with pytest.raises(odmap.MapError):
        odmap.MarkedRectangleMap(mm.map, [0, 3, 5, 8])       # out of order
    with pytest.raises(odmap.MapError):
        odmap.MarkedRectangleMap(mm.map, [1, 3, 8, 5])       # dual vertex
    with pytest.raises(odmap.MapError):
        odmap.MarkedRectangleMap(mm.map, [4, 3, 8, 5])       # interior vertex


def test_marked_map_with_an_empty_dual_arc_is_an_error():
    # the strip's boundary cut to its marks, then with the vertex after B:
    # build_tiling's conjugate needs a dual vertex on B..C and on D..A
    mm = strip_map()
    b = mm.map.boundary.tolist()
    after_b = b[(b.index(mm.marked[1]) + 1) % len(b)]
    assert mm.map.colors[after_b] == odmap.DUAL
    for cut in (list(mm.marked), [*mm.marked[:2], after_b, *mm.marked[2:]]):
        m = odmap.OrthodiagonalMap(mm.map.positions, mm.map.colors, mm.map.faces, cut)
        with pytest.raises(odmap.MapError, match="no dual vertex between B and C or between D and A"):
            odmap.MarkedRectangleMap(m, mm.marked)


def test_marked_arcs_match_list_oracle(topology_maps):
    for name, mm in topology_maps.items():
        for k in range(4):
            mr = odmap.MarkedRectangleMap(mm.map, mm.marked[k:] + mm.marked[:k])
            *arcs, chains = oracle_marked_arcs(mr)
            for got, want in zip((mr.arc_ab, mr.arc_bc, mr.arc_cd, mr.arc_da), arcs):
                assert got.dtype == np.int64 and got.tolist() == want, (name, k)
            for got, want in zip(mr.arc_chains(), chains):
                assert np.array_equal(got, want), (name, k)


def test_boundary_must_be_a_flat_list_of_ids():
    m = star_map().map
    for bad in (5, [[3, 6], [8, 7]], [3.0, 6.0, 8.0], ["3", "6"], [True, False]):
        with pytest.raises(odmap.MapError, match="flat list of vertex ids"):
            odmap.OrthodiagonalMap(m.positions, m.colors, m.faces, bad)
    for good in ([], np.array([3, 6, 8], dtype=np.int32), (3, 6, 8)):
        b = odmap.OrthodiagonalMap(m.positions, m.colors, m.faces, good).boundary
        assert b.dtype == np.int64 and b.tolist() == list(good)


def test_marked_vertex_repeated_on_the_cycle_is_an_error():
    mm = star_map()
    b = mm.map.boundary.tolist()
    for v in mm.marked:
        # the cycle visits v twice; list.index would take the first visit
        twice = odmap.OrthodiagonalMap(mm.map.positions, mm.map.colors, mm.map.faces, b + [v])
        with pytest.raises(odmap.MapError, match=f"marked vertex {v} appears 2 times"):
            odmap.MarkedRectangleMap(twice, mm.marked)


def test_arcs_partition_boundary_colors():
    mm = strip_map()
    prim = [v for v in mm.map.boundary if mm.map.colors[v] == odmap.PRIMAL]
    dual = [v for v in mm.map.boundary if mm.map.colors[v] == odmap.DUAL]
    neumann_ab = [v for v in mm.arc_ab]
    assert set(mm.arc_ab) | set(mm.arc_cd) <= set(prim)
    assert set(mm.arc_bc) | set(mm.arc_da) <= set(dual)
    assert not (set(mm.arc_ab) & set(mm.arc_cd))
    assert not (set(mm.arc_bc) & set(mm.arc_da))


def oracle_component_minima(n, u, v):
    """Union-find: per vertex, the smallest vertex index in its component."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x
    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(n)]


def test_component_labels_match_union_find():
    rng = np.random.default_rng(33)
    cases = [(0, np.zeros(0, np.int64), np.zeros(0, np.int64))]
    for n in (1, 2, 9, 80, 500):
        for m in (0, n // 2, n, 3 * n):
            cases.append((n, rng.integers(0, n, m), rng.integers(0, n, m)))
    # a shuffled path and a star centred on the largest index need several
    # hooking rounds
    perm = rng.permutation(300)
    cases.append((300, perm[:-1], perm[1:]))
    cases.append((50, np.full(49, 49), np.arange(49)))
    for n, u, v in cases:
        assert odmap.component_labels(n, u, v).tolist() == oracle_component_minima(n, u, v)


def test_face_locator():
    mm = strip_map()
    loc = odmap.FaceLocator(mm.map)
    cents = mm.map.face_centroids()
    for fi, c in enumerate(cents):
        assert loc.locate(c) == fi
    assert loc.locate((5.0, 5.0)) is None


def nonconvex_star():
    """star_map with its center pulled down so that face 0 is a dart
    (reflex corner at the center) among three convex faces."""
    mm = star_map()
    pos = mm.map.positions.copy()
    pos[4] = (0.5, 0.2)
    return odmap.OrthodiagonalMap(pos, mm.map.colors, mm.map.faces, mm.map.boundary)


def test_convexity_matches_scalar_oracle(rect_map16):
    for m in (nonconvex_star(), rect_map16[0].map, strip_map().map):
        q = m.positions[m.faces]
        want = [oracle_quad_is_convex(c) for c in q]
        assert odmap._quads_convex(q).tolist() == want
    assert odmap._quads_convex(nonconvex_star().positions[nonconvex_star().faces]).tolist() \
        == [False, True, True, True]


def test_locate_matches_scalar_oracle(rect_map16, l_spec):
    rng = np.random.default_rng(30)
    dart = odmap.OrthodiagonalMap([(0, 0), (2, -1), (3, 0), (2, -0.2)], [0, 1, 0, 1],
                                  [[0, 1, 2, 3]], [0, 1, 2, 3])
    maps = [rect_map16[0].map, gridgen.grid_approximation(l_spec, 1 / 8)[0].map,
            nonconvex_star(), dart, strip_map().map]
    for m in maps:
        loc, oracle = odmap.FaceLocator(m), OracleLocator(m)
        pts = location_probes(m, rng, 600)
        want = np.array([-1 if (fi := oracle.locate(p)) is None else fi for p in pts])
        assert np.array_equal(loc.locate_many(pts), want)
        assert (want >= 0).any() and (want < 0).any()
        for k in rng.integers(0, len(pts), 50):
            assert loc.locate(pts[k]) == oracle.locate(pts[k])
        # containing() lists every containing face of each hashed bucket
        sub = pts[rng.choice(len(pts), min(len(pts), 400), replace=False)]
        pi, fi = loc.containing(sub)
        got = {(int(a), int(b)) for a, b in zip(pi, fi)}
        full = {(k, f) for k, p in enumerate(sub) for f in oracle.bucket(p)
                if oracle.face_contains(f, p)}
        assert got == full
        assert np.all(np.diff(pi) >= 0)


@st.composite
def located_quads(draw):
    """One quad's corners: four points on an ellipse of aspect 1 ... 1e-12,
    so that thin faces and sharp corners are common, or a dart (three of
    them and a fourth corner inside their triangle), rotated, scaled and
    shifted."""
    turns = sorted(draw(st.lists(st.integers(0, 2 ** 20 - 1), min_size=4, max_size=4,
                                 unique=True)))
    angles = np.array(turns) * (2 * math.pi / 2 ** 20)
    aspect = 10.0 ** -draw(st.integers(0, 12))
    q = np.stack([np.cos(angles), aspect * np.sin(angles)], axis=1)
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3)))
        q[3] = (w / w.sum()) @ q[:3]
    r = draw(st.floats(0.0, 2 * math.pi))
    q = q @ np.array([[math.cos(r), math.sin(r)], [-math.sin(r), math.cos(r)]])
    return q * draw(st.sampled_from([1e-3, 1.0, 37.0])) + draw(st.sampled_from([0.0, 0.3, 1e3, 3e7]))


def _bisector_probes(q, tol):
    """Points on the bisector of each corner of the quad and of its two
    triangles (0, 1, 2) and (0, 2, 3), inward and outward, at k tol for
    small k and around tol / sin(angle / 2), where both side lines of the
    corner are tol away."""
    out = []
    for tri in ([0, 1, 2, 3], [0, 1, 2], [0, 2, 3]):
        c = q[tri]
        for a, b, d in zip(c, np.roll(c, 1, axis=0), np.roll(c, -1, axis=0)):
            e1, e2 = a - b, a - d
            n1, n2 = np.hypot(*e1), np.hypot(*e2)
            if not (n1 > 0 and n2 > 0):
                continue
            u = e1 / n1 + e2 / n2
            nu = np.hypot(*u)
            if not nu > 0:
                continue
            # sin(angle / 2) = sqrt((1 - cos(angle)) / 2)
            crit = 1.0 / max(math.sqrt(max(1.0 - float(e1 @ e2) / (n1 * n2), 0.0) / 2.0), 1e-300)
            for k in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0] + [crit * (1 + r) for r in (-1e-3, -1e-9, 0, 1e-9, 1e-3)]:
                out += [a + sign * k * tol * u / nu for sign in (1.0, -1.0)]
    return np.array(out)


@settings(max_examples=300, deadline=None)
@given(q=located_quads())
def test_containing_matches_scalar_oracle_near_corners(q):
    # the widened-box prefilter drops no pair the containment test keeps
    m = odmap.OrthodiagonalMap(q, [0, 1, 0, 1], [[0, 1, 2, 3]], [0, 1, 2, 3])
    loc, oracle = odmap.FaceLocator(m), OracleLocator(m)
    probes = _bisector_probes(m.positions, loc.tol)
    pi, fi = loc.containing(probes)
    want = [(k, f) for k, p in enumerate(probes) for f in oracle.bucket(p)
            if oracle.face_contains(f, p)]
    assert list(zip(pi.tolist(), fi.tolist())) == want


def test_locate_batches_agree(rect_map16, monkeypatch):
    m = rect_map16[0].map
    pts = location_probes(m, np.random.default_rng(31), 500)
    want = odmap.FaceLocator(m).locate_many(pts)
    monkeypatch.setattr(geom, "_BLOCK_PAIRS", 56)
    assert np.array_equal(odmap.FaceLocator(m).locate_many(pts), want)


def test_locate_and_containment_agree_past_the_bounding_box():
    # past the diamond's right corner both side lines stay within tol up to
    # about 1.41 tol, but the closed face is within tol only up to tol:
    # containing() (the evaluation path) and locate() keep the point at
    # 0.9 tol and drop it at 1.1 tol
    m = odmap.OrthodiagonalMap([(1, 0), (2, 1), (1, 2), (0, 1)], [0, 1, 0, 1],
                               [[0, 1, 2, 3]], [0, 1, 2, 3])
    loc, oracle = odmap.FaceLocator(m), OracleLocator(m)
    near, far = np.array([[2.0 + 0.9 * loc.tol, 1.0], [2.0 + 1.1 * loc.tol, 1.0]])
    assert oracle.face_contains(0, near) and not oracle.face_contains(0, far)
    pi, fi = loc.containing(np.array([near, far]))
    assert pi.tolist() == [0] and fi.tolist() == [0]
    assert oracle.locate(near) == loc.locate(near) == 0
    assert oracle.locate(far) is loc.locate(far) is None
    assert loc.locate_many(np.array([near, far])).tolist() == [0, -1]


def _lowest_containing(m, pts):
    """Per point, the lowest id of a face that contains it within the
    locator's tol, by the scalar rule over every face, or -1."""
    oracle = OracleLocator(m)
    return [min((f for f in range(m.n_faces) if oracle.face_contains(f, p)), default=-1)
            for p in pts]


def _one_face(q):
    return odmap.OrthodiagonalMap(q, [0, 1, 0, 1], [[0, 1, 2, 3]], [0, 1, 2, 3])


def test_locate_across_a_cell_boundary():
    # the diamond shifted right until its right corner sits 0.3 tol below
    # x = 2 mesh_eps, a multiple of the cell side: a point 0.9 tol past the
    # corner is within tol of the face but beyond that x
    diamond = np.array([(1.0, 0.0), (2.0, 1.0), (1.0, 2.0), (0.0, 1.0)])
    m0 = _one_face(diamond)
    tol = odmap.FaceLocator(m0).tol
    m = _one_face(diamond + [2.0 * m0.mesh_eps - 0.3 * tol - 2.0, 0.0])
    corner = m.positions[1]
    pts = corner + np.array([[0.0, 0.0], [0.3 * tol, 0.0], [0.9 * tol, 0.0], [1.1 * tol, 0.0]])
    assert pts[2, 0] > 2.0 * m.mesh_eps > pts[0, 0]
    want = _lowest_containing(m, pts)
    assert want == [0, 0, 0, -1]
    loc = odmap.FaceLocator(m)
    assert loc.locate_many(pts).tolist() == want
    assert loc.locate(pts[2]) == 0


def test_locate_a_face_collapsed_far_from_the_origin():
    # a located_quads draw (turns 0-3 of 2^-20, aspect 1e-12, scale 1e-3,
    # offset 3e7) whose corners round to one point: mesh_eps is 0, so the
    # cell is 1e-12 and the point's cell index counted from 0 would be 3e19,
    # beyond int64
    angles = np.arange(4) * (2 * math.pi / 2 ** 20)
    m = _one_face(np.stack([np.cos(angles), 1e-12 * np.sin(angles)], axis=1) * 1e-3 + 3e7)
    assert m.mesh_eps == 0.0 and len(np.unique(m.positions, axis=0)) == 1
    loc = odmap.FaceLocator(m)
    pts = m.positions[0] + np.array([[0.0, 0.0], [0.5 * loc.tol, 0.0], [0.0, -0.9 * loc.tol],
                                     [1e-6, 0.0], [0.0, 1e-6]])
    want = _lowest_containing(m, pts)
    assert want[0] == 0
    assert loc.locate_many(pts).tolist() == want
    assert loc.locate(pts[0]) == 0

