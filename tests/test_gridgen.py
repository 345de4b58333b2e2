import json

import numpy as np
import pytest

from conftest import (L_MARKS, L_POLY, RECT_MARKS, RECT_POLY, SQUARE_MARKS, SQUARE_POLY,
                      map_bits, oracle_kept_faces)
from orthotile import geom, gridgen, odmap


def test_domain_spec_validation():
    with pytest.raises(geom.GeometryError):
        gridgen.DomainSpec(SQUARE_POLY, [[0.5, 0.5], [0, 0], [1, 0], [1, 1]])
    with pytest.raises(geom.GeometryError):  # clockwise marks
        gridgen.DomainSpec(SQUARE_POLY, [[0, 1], [1, 1], [1, 0], [0, 0]])
    spec = gridgen.DomainSpec(SQUARE_POLY, SQUARE_MARKS)
    arc = spec.arc_polyline(0)
    assert np.allclose(arc[0], [0, 1]) and np.allclose(arc[-1], [0, 0])


def test_unit_square_quarter_mesh(square_spec):
    mm, cert = gridgen.grid_approximation(square_spec, 0.25)
    assert odmap.validate(mm.map).ok
    gp = mm.map.extract_primal()
    gd = mm.map.extract_dual()
    assert np.allclose(gp.edge_c, 1.0) and np.allclose(gd.edge_c, 1.0)
    # interior: all vertices in the closed square, all centroids inside
    pos = mm.map.positions
    assert (pos >= -1e-12).all() and (pos <= 1 + 1e-12).all()
    cls = geom.polygon_contains_many(square_spec.boundary,
                                     mm.map.face_centroids(), 1e-12)
    assert all(c == geom.INSIDE for c in cls)
    assert cert.interior
    assert cert.eps == 0.25
    assert cert.delta == 2 * max(cert.per_arc_hausdorff)


def test_too_coarse_mesh_errors(square_spec):
    with pytest.raises(gridgen.GenerationError):
        gridgen.grid_approximation(square_spec, 10.0)


def test_boundary_trace_failure_is_a_generation_error(square_spec, monkeypatch):
    # the shared tracer reports a map fault; generation names the fix
    def pinched(faces):
        raise odmap.MapError("boundary has a pinch point")
    monkeypatch.setattr(gridgen, "trace_boundary", pinched)
    with pytest.raises(gridgen.GenerationError, match="pinch point: refine eps"):
        gridgen.grid_approximation(square_spec, 1 / 4)


def test_l_shape_certificate(l_spec):
    mm, cert = gridgen.grid_approximation(l_spec, 1 / 8)
    assert odmap.validate(mm.map).ok
    # axis-aligned polygon: grid-aligned arcs stay within 2 eps
    assert all(d <= 2 * (1 / 8) for d in cert.per_arc_hausdorff)
    assert cert.delta <= 4 * (1 / 8)


def test_certificate_soundness_axis_aligned(rect_spec, square_spec):
    for spec in (rect_spec, square_spec):
        for eps in (1 / 4, 1 / 8, 1 / 16):
            _, cert = gridgen.grid_approximation(spec, eps)
            assert all(d <= 2 * eps for d in cert.per_arc_hausdorff)


def test_refinement_scaling(square_spec):
    seq = [gridgen.grid_approximation(square_spec, eps) for eps in (0.25, 0.125, 0.0625)]
    eps = [c.eps for _, c in seq]
    assert eps == [0.25, 0.125, 0.0625]
    faces = [m.map.n_faces for m, _ in seq]
    # about x4 per level, up to boundary effects
    assert 3.0 < faces[1] / faces[0] < 5.0
    assert 3.2 < faces[2] / faces[1] < 4.8


def test_refinement_hausdorff_monotone(l_spec):
    seq = [gridgen.grid_approximation(l_spec, 2.0 ** -k) for k in range(3, 7)]
    worst = [max(c.per_arc_hausdorff) for _, c in seq]
    assert all(b <= a + 1e-12 for a, b in zip(worst, worst[1:]))


def test_generated_maps_always_validate(rect_spec, l_spec):
    for spec in (rect_spec, l_spec):
        for eps in (1 / 4, 1 / 8, 1 / 16):
            mm, _ = gridgen.grid_approximation(spec, eps)
            rep = odmap.validate(mm.map)
            assert rep.ok
            assert rep.nonconvex_faces == []


def test_component_selection_near_centroid():
    # dumbbell: two big lobes joined by a channel thinner than the mesh;
    # only the component nearest the centroid survives and generation
    # reports non-simply-connected input rather than silently merging
    poly = [[0, 0], [1, 0], [1, 0.45], [1.6, 0.45], [1.6, 0], [2.6, 0],
            [2.6, 1], [1.6, 1], [1.6, 0.55], [1, 0.55], [1, 1], [0, 1]]
    marks = [[0, 1], [0, 0], [2.6, 0], [2.6, 1]]
    spec = gridgen.DomainSpec(poly, marks)
    mm, cert = gridgen.grid_approximation(spec, 0.3)
    pos = mm.map.positions
    # the kept component must lie in one lobe only
    assert pos[:, 0].max() <= 1.0 + 1e-9 or pos[:, 0].min() >= 1.6 - 1e-9


def test_marked_vertices_deterministic(square_spec):
    a, _ = gridgen.grid_approximation(square_spec, 1 / 8)
    b, _ = gridgen.grid_approximation(square_spec, 1 / 8)
    assert a.marked == b.marked
    assert np.array_equal(a.map.positions, b.map.positions)
    assert np.array_equal(a.map.faces, b.map.faces)


def test_domain_json_roundtrip(tmp_path, l_spec):
    p = tmp_path / "dom.json"
    gridgen.save_domain(str(p), l_spec)
    spec2 = gridgen.load_domain(str(p))
    assert np.array_equal(spec2.boundary.vertices, l_spec.boundary.vertices)
    assert np.array_equal(spec2.marked_points, l_spec.marked_points)


def test_mesh_eps_is_side_length(square_spec):
    mm, cert = gridgen.grid_approximation(square_spec, 0.25)
    assert abs(mm.map.mesh_eps - 0.25 / np.sqrt(2)) < 1e-15
    assert mm.map.mesh_eps <= cert.eps


SKEW_QUAD = [[0.1, 0.05], [1.9, 0.2], [1.3, 1.7], [0.2, 1.1]]
# a rectangle whose origin and sides are not dyadic, so lattice positions
# x0 + i h and center-plus-h positions round differently
OFF_RECT = [[-0.37, 0.11], [1.33, 0.11], [1.33, 1.04], [-0.37, 1.04]]


def _ngon(n):
    """Regular n-gon of radius 1 and phase 0.1, marked at every quarter turn:
    no edge is parallel to a lattice axis or diagonal."""
    a = 0.1 + 2 * np.pi * np.arange(n) / n
    v = np.stack([np.cos(a), np.sin(a)], 1)
    return v.tolist(), v[::n // 4].tolist()


# non-convex: five spikes, no edge lattice-aligned
STAR = [[1.0, 0.0], [0.42, 0.31], [0.35, 0.94], [-0.12, 0.48], [-0.83, 0.61],
        [-0.47, 0.02], [-0.9, -0.55], [-0.2, -0.41], [0.15, -1.0], [0.5, -0.37]]
KEPT_DOMAINS = {"L": (L_POLY, L_MARKS), "rect": (RECT_POLY, RECT_MARKS),
                "skew": (SKEW_QUAD, SKEW_QUAD), "off_rect": (OFF_RECT, OFF_RECT),
                "16-gon": _ngon(16), "64-gon": _ngon(64),
                "star": (STAR, [STAR[0], STAR[4], STAR[6], STAR[8]])}


def _arcs_rebuilt(spec):
    """Each arc of spec rebuilt by _boundary_arc from its own _ring_arclength."""
    s = [gridgen._boundary_parameter(gridgen._ring_arclength(spec.boundary), p)[0]
         for p in spec.marked_points]
    return [gridgen._boundary_arc(gridgen._ring_arclength(spec.boundary), s[i], s[(i + 1) % 4])
            for i in range(4)]


def test_domain_arcs_are_built_once_and_read_only():
    rng = np.random.default_rng(29)
    specs = [gridgen.DomainSpec(*d) for d in KEPT_DOMAINS.values()]
    specs.append(gridgen.DomainSpec(SQUARE_POLY, SQUARE_MARKS))
    for n in rng.integers(5, 40, size=20).tolist():
        # star-shaped random polygons, marked at points inside four edges
        a = 2 * np.pi * (np.arange(n) + rng.uniform(0.0, 0.8, n)) / n
        v = np.stack([np.cos(a), np.sin(a)], 1) * rng.uniform(0.3, 1.0, (n, 1))
        k = np.sort(rng.choice(n, 4, replace=False))
        specs.append(gridgen.DomainSpec(v, v[k] + rng.uniform(0.1, 0.9, (4, 1))
                                        * (v[(k + 1) % n] - v[k])))
    for spec in specs:
        for i, want in enumerate(_arcs_rebuilt(spec)):
            arc = spec.arc_polyline(i)
            assert arc is spec.arc_polyline(i)
            assert arc.shape == want.shape and arc.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                arc[0, 0] = 0.0


def test_generation_and_validate_sort_the_sides_once(l_spec, monkeypatch):
    calls = []
    kernel = odmap._face_sides
    monkeypatch.setattr(odmap, "_face_sides", lambda faces: calls.append(len(faces)) or kernel(faces))
    mm = gridgen.grid_approximation(l_spec, 1 / 8)[0]
    assert calls == [mm.map.n_faces]
    assert odmap.validate(mm.map).ok
    assert calls == [mm.map.n_faces] * 2


def _generated(spec, eps):
    try:
        mm, cert = gridgen.grid_approximation(spec, eps)
    except gridgen.GenerationError as exc:
        return str(exc)
    return map_bits(mm.map, mm.marked), cert


@pytest.mark.parametrize("domain", sorted(KEPT_DOMAINS))
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_kept_faces_match_corner_loop_oracle(domain, k, monkeypatch):
    # one test per lattice vertex keeps the faces, maps and certificates
    # of the five-call corner loop
    spec = gridgen.DomainSpec(*KEPT_DOMAINS[domain])
    eps = 2.0 ** -k
    tol = geom.DEFAULT_REL_TOL * spec.boundary.diameter()
    h, origin, centers = gridgen._kept_faces(spec.boundary, eps, tol)
    h_o, origin_o, centers_o = oracle_kept_faces(spec.boundary, eps, tol)
    assert (h, origin) == (h_o, origin_o)
    assert np.array_equal(centers, centers_o) and len(centers) > 0
    got = _generated(spec, eps)
    monkeypatch.setattr(gridgen, "_kept_faces", oracle_kept_faces)
    assert got == _generated(spec, eps)
