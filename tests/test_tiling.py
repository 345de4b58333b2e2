import dataclasses
import json

import numpy as np
import pytest

from conftest import (OracleLocator, location_probes, oracle_cross_color_average,
                      oracle_render_svg, oracle_tiles_from_json_dict, oracle_tiling_bytes,
                      oracle_verify_tiling, star_map, strip_map)
from orthotile import experiments, gridgen, odmap, tiling


def test_star_tiling_hand_oracle():
    # hand-solved: L = 1, four half-side squares of [0, 1]^2
    t, h, ht = tiling.build_tiling(star_map())
    assert t.L == 1.0
    boxes = sorted((tl.x0, tl.x1, tl.y0, tl.y1) for tl in t.tiles)
    assert boxes == [(0.0, 0.5, 0.0, 0.5), (0.0, 0.5, 0.5, 1.0),
                     (0.5, 1.0, 0.0, 0.5), (0.5, 1.0, 0.5, 1.0)]
    assert t.degenerate_count == 0
    assert abs(h.energy - t.L) < 1e-12
    assert abs(ht.energy - h.energy) < 1e-12


def test_strip_tiling_hand_oracle():
    # hand-solved on the 10-face strip: L = 3, two half-height columns at
    # each end, three full-height middle tiles, four degenerate tiles
    t, h, ht = tiling.build_tiling(strip_map())
    assert abs(t.L - 3.0) < 1e-12
    live = sorted((round(tl.x0, 12), round(tl.x1, 12), round(tl.y0, 12),
                   round(tl.y1, 12)) for tl in t.tiles if not tl.degenerate)
    assert live == [(0.0, 0.5, 0.0, 0.5), (0.0, 0.5, 0.5, 1.0),
                    (0.5, 1.5, 0.0, 1.0), (1.5, 2.5, 0.0, 1.0),
                    (2.5, 3.0, 0.0, 0.5), (2.5, 3.0, 0.5, 1.0)]
    assert t.degenerate_count == 4
    # columns share y-intervals
    left = [tl for tl in t.tiles if not tl.degenerate and tl.x0 == 0.0]
    assert sorted((tl.y0, tl.y1) for tl in left) == [(0.0, 0.5), (0.5, 1.0)]


def test_energy_area_identity(rect_map16):
    mm, _ = rect_map16
    t, h, ht = tiling.build_tiling(mm)
    assert abs(t.total_area() - t.L) <= 1e-9 * max(t.L, 1.0)
    assert abs(h.energy - t.L) <= 1e-9 * max(t.L, 1.0)
    assert abs(ht.energy - h.energy) <= 1e-10 * max(h.energy, 1.0)


def test_tile_coordinates_reused_bitwise(rect_map16):
    mm, _ = rect_map16
    t, h, ht = tiling.build_tiling(mm)
    for tl in t.tiles[:100]:
        f = mm.map.faces[tl.face]
        xs = sorted((h.values[int(f[0])], h.values[int(f[2])]))
        ys = sorted((ht.values[int(f[1])], ht.values[int(f[3])]))
        assert (tl.x0, tl.x1) == tuple(xs)
        assert (tl.y0, tl.y1) == tuple(ys)


def test_aspect_ratio_identity(rect_map16):
    # height / width = c, the face's conductance |dual| / |primal|; with x
    # stretched by 2, c is 0.5 or 2, so the check tells c from 1 / c
    mm, _ = rect_map16
    m = mm.map
    stretched = odmap.OrthodiagonalMap(m.positions * [2.0, 1.0], m.colors, m.faces, m.boundary)
    for mr in (mm, odmap.MarkedRectangleMap(stretched, mm.marked)):
        t = tiling.build_tiling(mr)[0]
        assert tiling.verify_tiling(t).ok
        c = mr.map.extract_primal().edge_c
        assert set(np.unique(c)) == ({1.0} if mr is mm else {0.5, 2.0})
        for tl in t.tiles:
            if tl.degenerate:
                continue
            r = c[tl.face]
            assert abs(tl.height / tl.width - r) <= 1e-8 * (1.0 + r)


def test_verify_tiling_passes_and_detects_faults():
    t, _, _ = tiling.build_tiling(strip_map())
    assert tiling.verify_tiling(t).ok
    # widen the tiles at the origin: an overlap appears and is named
    rect = t.rect.copy()
    rect[(rect[:, 0] == 0.0) & (rect[:, 2] == 0.0), 1] += 1e-3
    rep = tiling.verify_tiling(dataclasses.replace(t, rect=rect))
    assert not rep.ok
    assert rep.overlaps
    pair = rep.overlaps[0][:2]
    assert 0 in pair  # face 0 is the widened bottom-left tile
    # shift one tile out of the target rectangle
    rect2 = t.rect.copy()
    rect2[t.face == 0, 0] -= 1.0
    rep2 = tiling.verify_tiling(dataclasses.replace(t, rect=rect2))
    assert any(face == 0 for face, _ in rep2.containment)


def test_verify_empty_tiling_vacuous():
    rep = tiling.verify_tiling(tiling.Tiling(0.0, np.zeros(0, np.int64), np.zeros((0, 2), np.int64),
                                             np.zeros((0, 4)), np.zeros(0, bool)))
    assert rep.ok and rep.area_defect == 0.0


def test_total_area_sums_left_to_right_from_zero():
    # areas 1, 1e16, -1e16: the plain running sum drops the 1, while the
    # builtin sum keeps it from Python 3.12 on
    rect = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 1e16, 0.0, 1.0], [1e16, 0.0, 0.0, 1.0]])
    t = tiling.Tiling(1.0, np.arange(3), np.zeros((3, 2), np.int64), rect, np.zeros(3, bool))
    assert t.total_area() == 0.0
    assert tiling.verify_tiling(t).area_defect == 1.0


def _corrupted(t, rng, n_widened):
    """t with n_widened random tiles widened and one tile shifted left."""
    rect = t.rect.copy()
    k = rng.choice(len(t), n_widened, replace=False)
    rect[k, 1] += rng.uniform(1e-6, 0.05, n_widened)
    rect[k[0], :2] -= 0.5
    return dataclasses.replace(t, rect=rect)


def test_tiling_columns_match_tile_oracles(tmp_path, topology_maps, l_spec):
    # load, verify and render on the columns, bitwise against the
    # Tile-at-a-time versions, on built, reloaded and corrupted tilings
    rng = np.random.default_rng(11)
    maps = dict(topology_maps, L32=gridgen.grid_approximation(l_spec, 1 / 32)[0])
    p = tmp_path / "t.json"
    for name, mm in maps.items():
        t, _, _ = tiling.build_tiling(mm)
        d = json.loads(oracle_tiling_bytes(t))
        d["tiles"][0]["x1"] = d["tiles"][0]["x0"] + 1e-10 * max(t.L, 1.0)
        L, rows = oracle_tiles_from_json_dict(d)
        p.write_text(json.dumps(d))
        loaded = tiling.load_tiling(str(p))
        assert loaded.L == L and repr(loaded.tiles) == repr([tiling.Tile(*r) for r in rows])
        p.write_bytes(oracle_tiling_bytes(loaded))
        reloaded = tiling.load_tiling(str(p))
        assert json.loads(oracle_tiling_bytes(reloaded)) == d
        variants = [t, loaded, _corrupted(t, rng, min(50, len(t) // 2))]
        for v in variants:
            rep = tiling.verify_tiling(v)
            want = oracle_verify_tiling(v.L, v.tiles)
            assert repr((rep.containment, rep.overlaps, rep.area_defect, rep.area_ok)) == \
                repr(want), name
            assert tiling.render_svg(v) == oracle_render_svg(v.L, v.tiles), name
        assert variants[-1].tiles and not tiling.verify_tiling(variants[-1]).ok


@pytest.fixture(scope="module")
def l_tiling8(l_spec):
    return tiling.build_tiling(gridgen.grid_approximation(l_spec, 1 / 8)[0])[0]


def test_verify_reports_every_overlap_of_seeded_corruptions(l_tiling8):
    # 50 tiles widened and one shifted: every overlapping pair, as the
    # all-pairs oracle sorts them
    for seed in range(15):
        v = _corrupted(l_tiling8, np.random.default_rng(seed), 50)
        want = oracle_verify_tiling(v.L, v.tiles)[1]
        assert len(want) > 50
        assert repr(tiling.verify_tiling(v).overlaps) == repr(want), seed


def test_verify_reports_every_overlap_of_a_tile_over_the_target(l_spec):
    # one live tile of the L at 1/32 widened to [0, L] x [0, 1] overlaps
    # nearly every other live tile
    t = tiling.build_tiling(gridgen.grid_approximation(l_spec, 1 / 32)[0])[0]
    k = np.flatnonzero(~t.degenerate)[len(t) // 3]
    rect = t.rect.copy()
    rect[k] = [0.0, t.L, 0.0, 1.0]
    v = dataclasses.replace(t, rect=rect)
    rep = tiling.verify_tiling(v)
    assert repr(rep.overlaps) == repr(oracle_verify_tiling(v.L, v.tiles)[1])
    assert len(rep.overlaps) > 0.9 * (len(v) - v.degenerate_count - 1)


def test_tiles_view_rows():
    t, _, _ = tiling.build_tiling(strip_map())
    assert len(t.tiles) == len(t) == 10
    tl = t.tiles[3]
    assert tl == (3, tuple(t.edge[3].tolist()), *t.rect[3].tolist(), bool(t.degenerate[3]))
    assert tl.width == tl.x1 - tl.x0 and tl.area == tl.width * tl.height


def test_interpolated_map_exactness(rect_map16):
    mm, _ = rect_map16
    t, h, ht = tiling.build_tiling(mm)
    f = tiling.InterpolatedMap(mm, h, ht)
    pos = mm.map.positions
    for v in h.graph.ids[:40]:
        assert abs(f.evaluate(pos[v]).real - h.values[v]) < 1e-12
    for w in ht.graph.ids[:40]:
        assert abs(f.evaluate(pos[w]).imag - ht.values[w]) < 1e-12
    with pytest.raises(ValueError):
        f.evaluate((50.0, 50.0))


def test_fields_are_arrays_indexed_by_vertex_id(rect_map16):
    mm, _ = rect_map16
    _, h, ht = tiling.build_tiling(mm)
    gp, gd = mm.map.extract_primal(), mm.map.extract_dual()
    for f, own, other in ((h, gp, gd), (ht, gd, gp)):
        assert f.values.dtype == float and len(f.values) == own.ids[-1] + 1
        assert not np.isnan(f.values[own.ids]).any()
        assert np.isnan(f.values[other.ids[other.ids < len(f.values)]]).all()


def test_interpolated_map_centroid_average():
    mm = star_map()
    t, h, ht = tiling.build_tiling(mm)
    f = tiling.InterpolatedMap(mm, h, ht)
    for fi, face in enumerate(mm.map.faces):
        c = mm.map.positions[face].mean(axis=0)
        v1, w1, v2, w2 = (int(x) for x in face)
        want = ((h.values[v1] + h.values[v2]) / 2
                + 0.5j * (ht.values[w1] + ht.values[w2]))
        # the diamonds' centroids coincide with the primal-diagonal midpoint
        assert abs(f.evaluate(c) - want) < 1e-12


def test_cross_color_average_matches_loop_oracle(topology_maps):
    for mm in topology_maps.values():
        t, h, ht = tiling.build_tiling(mm)
        vv = tiling.InterpolatedMap(mm, h, ht).vertex_values
        avg = oracle_cross_color_average(mm.map, h.values, ht.values)
        dual, primal = ht.graph.ids, h.graph.ids
        assert np.array_equal(vv.real[dual].view(np.uint64), avg[dual].view(np.uint64))
        assert np.array_equal(vv.imag[primal].view(np.uint64), avg[primal].view(np.uint64))


def test_interpolated_map_continuity_across_edges(rect_map16):
    mm, _ = rect_map16
    t, h, ht = tiling.build_tiling(mm)
    f = tiling.InterpolatedMap(mm, h, ht)
    rng = np.random.default_rng(3)
    pos = mm.map.positions
    sides = mm.map.side_edges()
    for k in rng.integers(0, len(sides), 25):
        a, b = sides[int(k)]
        lam = rng.uniform(0.2, 0.8)
        p = (1 - lam) * pos[a] + lam * pos[b]
        va = f.evaluate(p)
        vb = (1 - lam) * f.vertex_values[a] + lam * f.vertex_values[b]
        assert abs(va - vb) < 1e-9


def test_interpolation_lipschitz_per_face(rect_map16):
    mm, _ = rect_map16
    t, h, ht = tiling.build_tiling(mm)
    f = tiling.InterpolatedMap(mm, h, ht)
    rng = np.random.default_rng(5)
    cents = mm.map.face_centroids()
    for fi in rng.integers(0, mm.map.n_faces, 20):
        face = mm.map.faces[int(fi)]
        corners = f.vertex_values[face]
        spread = np.abs(corners[:, None] - corners[None, :]).max()
        c = cents[int(fi)]
        for _ in range(5):
            q = c + rng.uniform(-0.2, 0.2, 2) * mm.map.mesh_eps
            try:
                val = f.evaluate(q)
            except ValueError:
                continue
            assert np.abs(val - f.evaluate(c)) <= spread + 1e-12


def test_render_svg_deterministic_and_counts():
    t, _, _ = tiling.build_tiling(strip_map())
    svg1 = tiling.render_svg(t)
    svg2 = tiling.render_svg(t)
    assert svg1 == svg2
    assert svg1.count("<rect") == len(t.tiles) - t.degenerate_count
    assert "degenerate tiles omitted: 4" in svg1
    t2, _, _ = tiling.build_tiling(star_map())
    assert tiling.render_svg(t2).count("<rect") == 4


def test_tiling_json_roundtrip(tmp_path):
    t, _, _ = tiling.build_tiling(strip_map())
    p = tmp_path / "t.json"
    tiling.save_tiling(str(p), t)
    t2 = tiling.load_tiling(str(p))
    assert t2.L == t.L
    assert [(a.x0, a.x1, a.y0, a.y1) for a in t2.tiles] == \
        [(a.x0, a.x1, a.y0, a.y1) for a in t.tiles]
    p2 = tmp_path / "t2.json"
    tiling.save_tiling(str(p2), t2)
    assert p.read_bytes() == p2.read_bytes()


def test_degenerate_tiles_flagged_not_dropped():
    t, _, _ = tiling.build_tiling(strip_map())
    assert len(t.tiles) == 10
    assert t.degenerate_count == 4
    degs = [tl for tl in t.tiles if tl.degenerate]
    assert all(tl.area == 0.0 for tl in degs)
    assert abs(t.total_area() - t.L) < 1e-12


# -- scalar evaluation oracle -----------------------------------------------------


def _oracle_eval_in_face(f, fi, p):
    mp = f.m.map
    v1, w1, v2, w2 = (int(x) for x in mp.faces[fi])
    pos = mp.positions
    aux = (pos[v1] + pos[v2]) / 2.0
    aux_val = ((f.vertex_values[v1].real + f.vertex_values[v2].real) / 2.0
               + 0.5j * (f.vertex_values[w1].imag + f.vertex_values[w2].imag))
    corners = [v1, w1, v2, w2]
    eps = 1e-9
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        pa, pb = pos[a], pos[b]
        det = (pb[0] - pa[0]) * (aux[1] - pa[1]) - (pb[1] - pa[1]) * (aux[0] - pa[0])
        if det == 0.0:
            continue
        l1 = ((pb[0] - p[0]) * (aux[1] - p[1]) - (pb[1] - p[1]) * (aux[0] - p[0])) / det
        l2 = ((aux[0] - p[0]) * (pa[1] - p[1]) - (aux[1] - p[1]) * (pa[0] - p[0])) / det
        l3 = 1.0 - l1 - l2
        if l1 >= -eps and l2 >= -eps and l3 >= -eps:
            return (l1 * f.vertex_values[a] + l2 * f.vertex_values[b] + l3 * aux_val)
    return None


def _oracle_evaluate(f, loc, p):
    """The per-point evaluate: NaN outside the support."""
    p = np.asarray(p, dtype=float)
    for fi in loc.bucket(p):
        if not loc.face_contains(fi, p):
            continue
        val = _oracle_eval_in_face(f, fi, p)
        if val is not None:
            return val
    return np.nan + 0j


@pytest.mark.parametrize("domain,eps", [("rect", 1 / 4), ("rect", 1 / 8), ("L", 1 / 8),
                                        ("L", 1 / 32)])
def test_evaluate_many_matches_scalar_oracle(domain, eps, rect_spec, l_spec):
    spec = rect_spec if domain == "rect" else l_spec
    mm, _ = gridgen.grid_approximation(spec, eps)
    t, h, ht = tiling.build_tiling(mm)
    f = tiling.InterpolatedMap(mm, h, ht)
    loc = OracleLocator(mm.map)
    rng = np.random.default_rng(40)
    pts = np.vstack([experiments.probe_points(spec),
                     location_probes(mm.map, rng, 3000 if eps > 1 / 32 else 600)])
    if eps == 1 / 32:
        pts = pts[rng.choice(len(pts), 2500, replace=False)]
    want = np.array([_oracle_evaluate(f, loc, p) for p in pts])
    got = f.evaluate_many(pts)
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    outside = np.isnan(want.real)
    assert outside.any() and not outside.all()
    for k in rng.integers(0, len(pts), 40):
        if outside[k]:
            with pytest.raises(ValueError):
                f.evaluate(pts[k])
        else:
            assert np.array_equal(np.array([f.evaluate(pts[k])]).view(np.uint64),
                                  want[k:k + 1].view(np.uint64))
