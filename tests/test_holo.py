import numpy as np
import pytest

from conftest import oracle_walk_error
from orthotile import extremal, geom, holo, odmap, tiling


@pytest.fixture(scope="module")
def tiled_rect(rect_map16):
    mm, _ = rect_map16
    t, h, ht = tiling.build_tiling(mm)
    return mm, holo.assemble(mm, h, ht)


def block_walk(m, x0, x1, y0, y1):
    cent = m.face_centroids()
    sel = np.flatnonzero((cent[:, 0] > x0) & (cent[:, 0] < x1)
                         & (cent[:, 1] > y0) & (cent[:, 1] < y1))
    return holo.boundary_walk_of_faces(m, sel), sel


def test_identity_function_is_discrete_holomorphic(rect_map16):
    mm, _ = rect_map16
    F = holo.from_function(mm.map, lambda z: z)
    assert F.max_cr_residual == 0.0
    walk, _ = block_walk(mm.map, 0.3, 1.6, 0.2, 0.8)
    assert abs(holo.contour_integral(F, walk)) < 1e-12


def test_assembled_pair_residual_bound(tiled_rect):
    mm, F = tiled_rect
    L = F.values.real[mm.map.colors == 0].max()
    assert F.max_cr_residual <= 1e-8 * max(L, 1.0) / mm.map.mesh_eps


def test_conjugacy_iff_cr(tiled_rect):
    # cross-module consistency: the assembled pair's CR residual scales
    # with the conjugate integration's cycle residual, and perturbing the
    # imaginary part breaks both together
    from orthotile import harmonic
    mm, F = tiled_rect
    gp = mm.map.extract_primal()
    L = F.values.real[gp.ids].max()
    pinned = np.concatenate([mm.arc_ab, mm.arc_cd])
    h = harmonic.HarmonicField(gp, F.values.real, pinned, 1e-6 * max(L, 1))
    _, max_res = harmonic.harmonic_conjugate(mm, h)
    # per-face: |dF_p dz_d - dF_d dz_p| = cycle residual * |dz_p|; dividing
    # by |dz_p dz_d| bounds the CR residual by res / min diagonal length
    gd = mm.map.extract_dual()
    assert F.max_cr_residual <= (max_res + 1e-15) / gd.edge_len.min() + 1e-12


def test_single_face_morera_equals_cr(tiled_rect):
    mm, F = tiled_rect
    for fi in range(0, mm.map.n_faces, 37):
        f = mm.map.faces[fi]
        dz_p = F.z[f[2]] - F.z[f[0]]
        dz_d = F.z[f[3]] - F.z[f[1]]
        want = (F.values[f[2]] - F.values[f[0]]) * dz_d \
            - (F.values[f[3]] - F.values[f[1]]) * dz_p
        assert abs(holo.face_integral(F, fi) - want) < 1e-14
        # single-face walk through the contour API
        got = holo.contour_integral(F, [int(x) for x in f])
        assert abs(got - want) < 1e-14


def test_contour_integral_small_on_blocks(tiled_rect):
    mm, F = tiled_rect
    for box in [(0.2, 1.0, 0.2, 0.8), (0.5, 1.7, 0.1, 0.6), (0.9, 1.3, 0.3, 0.9)]:
        walk, _ = block_walk(mm.map, *box)
        integral = holo.contour_integral(F, walk)
        pts = mm.map.positions[np.array(walk + [walk[0]])]
        per = float(np.sqrt(((pts[1:] - pts[:-1]) ** 2).sum(-1)).sum())
        assert abs(integral) <= 1e-9 * per * float(np.abs(F.values).max())


def test_morera_additivity(tiled_rect):
    mm, F = tiled_rect
    walk, sel = block_walk(mm.map, 0.4, 1.5, 0.2, 0.9)
    total = holo.contour_integral(F, walk)
    parts = sum(holo.face_integral(F, int(fi)) for fi in sel)
    assert abs(total - parts) < 1e-12
    enclosed = holo.enclosed_faces(mm.map, walk)
    assert sorted(enclosed.tolist()) == sorted(sel.tolist())


def test_contour_linearity(tiled_rect):
    mm, F = tiled_rect
    G = holo.from_function(mm.map, lambda z: z)
    walk, _ = block_walk(mm.map, 0.3, 1.2, 0.2, 0.8)
    alpha = 2.5
    comb = holo.DiscreteHolomorphic(mm.map, alpha * F.values + G.values)
    lhs = holo.contour_integral(comb, walk)
    rhs = alpha * holo.contour_integral(F, walk) + holo.contour_integral(G, walk)
    assert abs(lhs - rhs) < 1e-12


def test_corrupted_value_localizes(tiled_rect):
    mm, F = tiled_rect
    dual = [w for w in range(mm.map.n_vertices) if mm.map.colors[w] == 1]
    victim = dual[len(dual) // 2]
    vals = F.values.copy()
    vals[victim] += 1e-3j
    bad = holo.DiscreteHolomorphic(mm.map, vals)
    touched = [fi for fi, f in enumerate(mm.map.faces) if victim in set(int(x) for x in f)]
    hot = np.flatnonzero(bad.face_residuals > 100 * F.max_cr_residual)
    assert sorted(hot.tolist()) == sorted(touched)
    # a contour enclosing the victim's faces sees a nonzero integral
    p = mm.map.positions[victim]
    walk, sel = block_walk(mm.map, p[0] - 0.2, p[0] + 0.2, p[1] - 0.2, p[1] + 0.2)
    if set(touched) <= set(sel.tolist()):
        assert abs(holo.contour_integral(bad, walk)) > 1e-6


def test_walk_validation_errors(tiled_rect):
    mm, F = tiled_rect
    walk, _ = block_walk(mm.map, 0.3, 1.2, 0.2, 0.8)
    with pytest.raises(holo.ContourError):
        holo.contour_integral(F, walk[:-1])          # not closed / not a walk
    with pytest.raises(holo.ContourError):
        holo.contour_integral(F, walk + walk)        # repeats vertices
    with pytest.raises(holo.ContourError):
        holo.contour_integral(F, [0, 1, 2])          # too short / not edges


def _walk_error(m, walk):
    try:
        holo.enclosed_faces(m, walk)
    except holo.ContourError as exc:
        return str(exc)
    return None


def test_walk_step_errors_match_oracle(topology_maps):
    for mm in topology_maps.values():
        m = mm.map
        walk = list(m.boundary)
        assert len(walk) >= 8 and _walk_error(m, walk) is oracle_walk_error(m, walk) is None
        # a step to the vertex after next, following a valid prefix
        skip = walk[:4] + [walk[5], walk[4]] + walk[6:]
        assert _walk_error(m, skip) == oracle_walk_error(m, skip) == \
            f"walk step {walk[3]}->{walk[5]} is not an edge of the map"
        # a recoloured vertex breaks alternation on both of its steps; the
        # first failing step names the error: before the skip at k = 2,
        # the skip itself at k = 7
        for k, want in ((2, "walk does not alternate colors"),
                        (7, f"walk step {walk[3]}->{walk[5]} is not an edge of the map")):
            col = m.colors.copy()
            col[skip[k]] = 1 - col[skip[k]]
            mc = odmap.OrthodiagonalMap(m.positions, col, m.faces, m.boundary)
            assert _walk_error(mc, skip) == oracle_walk_error(mc, skip) == want
            assert _walk_error(mc, walk) == oracle_walk_error(mc, walk) == \
                "walk does not alternate colors"


def test_boundary_touching_walk_rejected(tiled_rect):
    mm, F = tiled_rect
    # the full boundary cycle encloses every face but its polygon area
    # includes no extra region, so it is admissible; shifting it to use a
    # non-edge step must fail
    with pytest.raises(holo.ContourError):
        bad = list(mm.map.boundary)
        bad[0], bad[2] = bad[2], bad[0]
        holo.contour_integral(F, bad)


def test_green_identity_random_data(rect_map16):
    mm, _ = rect_map16
    rng = np.random.default_rng(0)
    primal = mm.map.colors == 0
    vals = np.zeros(mm.map.n_vertices, dtype=complex)
    vals[primal] = rng.normal(size=primal.sum())
    vals[~primal] = 1j * rng.normal(size=(~primal).sum())
    F = holo.DiscreteHolomorphic(mm.map, vals)
    outer, _ = block_walk(mm.map, 0.2, 1.7, 0.1, 0.9)
    inner, _ = block_walk(mm.map, 0.6, 1.2, 0.3, 0.7)
    assert abs(holo.green_residual(F, outer, inner)) < 1e-12
    assert holo.green_residual(F, outer, outer) == 0.0


def test_green_one_face_annulus(tiled_rect):
    mm, F = tiled_rect
    outer, sel = block_walk(mm.map, 0.9, 1.2, 0.4, 0.7)
    # inner: drop one face from the block and rebuild the walk
    cent = mm.map.face_centroids()
    order = np.argsort(cent[sel][:, 0] + cent[sel][:, 1])
    for drop in order:
        subset = np.delete(sel, drop)
        try:
            inner = holo.boundary_walk_of_faces(mm.map, subset)
        except holo.ContourError:
            continue
        g = holo.green_residual(F, outer, inner)
        assert abs(g) < 1e-12
        break
    else:
        pytest.fail("no valid one-face annulus found")


def test_green_nesting_violation(tiled_rect):
    mm, F = tiled_rect
    outer, _ = block_walk(mm.map, 0.2, 0.9, 0.2, 0.8)
    inner, _ = block_walk(mm.map, 1.2, 1.8, 0.2, 0.8)
    with pytest.raises(holo.ContourError):
        holo.green_residual(F, outer, inner)


def test_sidewalks_split(tiled_rect):
    mm, F = tiled_rect
    walk, _ = block_walk(mm.map, 0.3, 1.2, 0.2, 0.8)
    prim, dual = holo.sidewalks(mm.map, walk)
    assert len(prim) + len(dual) == len(walk)
    assert all(mm.map.colors[v] == 0 for v in prim)
    assert all(mm.map.colors[v] == 1 for v in dual)


def test_enclosed_faces_blocked_over_faces(rect_map16, monkeypatch):
    # faces x walk exceeds one block, so the centroid test runs in several
    # blocks; the enclosed set is the face set the walk was traced from
    mm, _ = rect_map16
    walk, sel = block_walk(mm.map, 0.1, 1.9, 0.1, 0.9)
    assert mm.map.n_faces * len(walk) > geom._BLOCK_PAIRS
    assert holo.enclosed_faces(mm.map, walk).tolist() == sel.tolist()
    monkeypatch.setattr(geom, "_BLOCK_PAIRS", 1000)
    assert holo.enclosed_faces(mm.map, walk).tolist() == sel.tolist()


def test_face_set_boundary_errors(rect_map16):
    mm, _ = rect_map16
    m = mm.map
    cent = m.face_centroids()
    mid = int(np.argmin(((cent - (1.0, 0.5)) ** 2).sum(-1)))
    # two faces sharing exactly one vertex: a pinched boundary
    pinch = next(int(fi) for fi in np.flatnonzero((m.faces == m.faces[mid, 2]).any(axis=1))
                 if len(set(m.faces[fi].tolist()) & set(m.faces[mid].tolist())) == 1)
    # two faces far apart: two boundary cycles
    far = int(np.argmax(((cent - cent[mid]) ** 2).sum(-1)))
    for faces in ([mid, pinch], [mid, far], []):
        with pytest.raises(holo.ContourError):
            holo.boundary_walk_of_faces(m, faces)


def test_one_contour_error():
    assert holo.ContourError is extremal.ContourError is odmap.ContourError
    assert issubclass(holo.ContourError, ValueError)
