import collections
import json

import numpy as np
import pytest

from orthotile import gridgen, odmap


def grid_graph(a, b, c=1.0):
    """a x b lattice of unit squares' vertices with uniform conductances."""
    pos = {}
    edges = []
    for i in range(a):
        for j in range(b):
            pos[i * b + j] = (float(i), float(j))
    for i in range(a):
        for j in range(b):
            if i + 1 < a:
                edges.append((i * b + j, (i + 1) * b + j, c))
            if j + 1 < b:
                edges.append((i * b + j, i * b + j + 1, c))
    return odmap.graph_from_edges(pos, edges)


def star_map():
    """Four diamonds around the center of the unit square; marked A, B, C, D
    at the four side midpoints.  Hand-solved: L = 1 and the tiling is the
    four half-side squares of [0, 1]^2."""
    pos = [(0, 0.5), (0.25, 0.25), (0.25, 0.75), (0.5, 0), (0.5, 0.5),
           (0.5, 1), (0.75, 0.25), (0.75, 0.75), (1, 0.5)]
    col = [0, 1, 1, 0, 0, 0, 1, 1, 0]
    faces = [[3, 6, 4, 1], [8, 7, 4, 6], [4, 7, 5, 2], [0, 1, 4, 2]]
    boundary = [3, 6, 8, 7, 5, 2, 0, 1]
    m = odmap.OrthodiagonalMap(pos, col, faces, boundary)
    return odmap.MarkedRectangleMap(m, [0, 3, 8, 5])


def strip_map():
    """The 3-wide, 1-tall diamond strip at eps = 1/2 on [0, 2] x [0, 1],
    marked so that the left pair is pinned 0 and the right pair L.
    Hand-solved: L = 3 with a two-column tiling of [0, 3] x [0, 1] and four
    degenerate tiles."""
    h = 0.25
    verts = {}

    def vid(i, j):
        key = (i, j)
        if key not in verts:
            verts[key] = len(verts)
        return verts[key]

    centers = [(2, 1), (4, 1), (6, 1), (1, 2), (3, 2), (5, 2), (7, 2),
               (2, 3), (4, 3), (6, 3)]
    faces = []
    for (ci, cj) in centers:
        east = vid(ci + 1, cj)
        north = vid(ci, cj + 1)
        west = vid(ci - 1, cj)
        south = vid(ci, cj - 1)
        if ci % 2 == 1:
            faces.append([east, north, west, south])
        else:
            faces.append([north, west, south, east])
    n = len(verts)
    pos = np.zeros((n, 2))
    col = np.zeros(n, dtype=int)
    for (i, j), k in verts.items():
        pos[k] = (i * h, j * h)
        col[k] = 0 if i % 2 == 0 else 1
    cyc = odmap.trace_boundary(faces)
    m = odmap.OrthodiagonalMap(pos, col, faces, cyc)
    marked = [vid(0, 2), vid(2, 0), vid(8, 2), vid(6, 4)]
    return odmap.MarkedRectangleMap(m, marked)


def plus_map():
    """Five diamonds in a plus shape, invariant under the quarter rotation
    about the central face's center composed with a color swap; marked at
    the four arm tips so the rotation carries the primal Dirichlet arcs to
    the dual arcs, which forces L = 1 exactly."""
    verts = {}

    def vid(p):
        if p not in verts:
            verts[p] = len(verts)
        return verts[p]

    faces_pts = [
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [(1, 0), (2, 1), (1, 2), (0, 1)],
        [(0, 1), (-1, 2), (-2, 1), (-1, 0)],
        [(-1, 0), (-2, -1), (-1, -2), (0, -1)],
        [(0, -1), (1, -2), (2, -1), (1, 0)],
    ]
    faces = [[vid(p) for p in f] for f in faces_pts]
    n = len(verts)
    pos = np.zeros((n, 2))
    col = np.zeros(n, dtype=int)
    color_of = {(1, 0): 0, (0, 1): 1, (-1, 0): 0, (0, -1): 1,
                (2, 1): 1, (1, 2): 0, (-1, 2): 0, (-2, 1): 1,
                (-2, -1): 1, (-1, -2): 0, (1, -2): 0, (2, -1): 1}
    for p, k in verts.items():
        pos[k] = p
        col[k] = color_of[p]
    boundary_pts = [(1, 0), (2, 1), (1, 2), (0, 1), (-1, 2), (-2, 1), (-1, 0),
                    (-2, -1), (-1, -2), (0, -1), (1, -2), (2, -1)]
    boundary = [verts[p] for p in boundary_pts]
    m = odmap.OrthodiagonalMap(pos, col, faces, boundary)
    marked = [verts[(1, 2)], verts[(-1, 2)], verts[(-1, -2)], verts[(1, -2)]]
    return odmap.MarkedRectangleMap(m, marked)


RECT_POLY = [[0, 0], [2, 0], [2, 1], [0, 1]]
RECT_MARKS = [[0, 1], [0, 0], [2, 0], [2, 1]]
SQUARE_POLY = [[0, 0], [1, 0], [1, 1], [0, 1]]
SQUARE_MARKS = [[0, 1], [0, 0], [1, 0], [1, 1]]
L_POLY = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
L_MARKS = [[0, 0], [2, 0], [2, 1], [0, 2]]


@pytest.fixture(scope="session")
def rect_spec():
    return gridgen.DomainSpec(RECT_POLY, RECT_MARKS)


@pytest.fixture(scope="session")
def square_spec():
    return gridgen.DomainSpec(SQUARE_POLY, SQUARE_MARKS)


@pytest.fixture(scope="session")
def l_spec():
    return gridgen.DomainSpec(L_POLY, L_MARKS)


@pytest.fixture(scope="session")
def rect_map16(rect_spec):
    mm, cert = gridgen.grid_approximation(rect_spec, 1 / 16)
    return mm, cert


@pytest.fixture(scope="session")
def topology_maps(rect_map16, l_spec):
    """The marked maps the array topology is checked on against the
    container oracles below."""
    return {"star": star_map(), "strip": strip_map(), "rect16": rect_map16[0],
            "L8": gridgen.grid_approximation(l_spec, 1 / 8)[0]}


# -- scalar point-location oracle ------------------------------------------------
#
# The per-point FaceLocator that FaceLocator.containing replaced, kept as the
# reference its batched kernel must match exactly.


def _oracle_triangle_contains(a, b, c, p, tol: float) -> bool:
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if det == 0.0:
        return False
    l1 = ((b[0] - p[0]) * (c[1] - p[1]) - (b[1] - p[1]) * (c[0] - p[0])) / det
    l2 = ((c[0] - p[0]) * (a[1] - p[1]) - (c[1] - p[1]) * (a[0] - p[0])) / det
    l3 = 1.0 - l1 - l2
    adet = abs(det)
    s1 = tol * np.hypot(c[0] - b[0], c[1] - b[1]) / adet
    s2 = tol * np.hypot(a[0] - c[0], a[1] - c[1]) / adet
    s3 = tol * np.hypot(b[0] - a[0], b[1] - a[1]) / adet
    return l1 >= -s1 and l2 >= -s2 and l3 >= -s3


def _oracle_simple_polygon_contains(corners, p, tol: float) -> bool:
    ring = np.vstack([corners, corners[:1]])
    d = oracle_points_to_segments_distance(np.asarray([p], dtype=float),
                                           ring[:-1], ring[1:])[0]
    if d <= tol:
        return True
    x, y = float(p[0]), float(p[1])
    n = len(corners)
    crossings = 0
    for i in range(n):
        x1, y1 = corners[i]
        x2, y2 = corners[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xi:
                crossings += 1
    return crossings % 2 == 1


def oracle_quad_is_convex(q) -> bool:
    cross = []
    for k in range(4):
        a, b, c = q[k], q[(k + 1) % 4], q[(k + 2) % 4]
        cross.append((b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]))
    cross = np.array(cross)
    return bool(np.all(cross > 0) or np.all(cross < 0))


class OracleLocator:
    """Dict-of-lists spatial hash with per-point, per-face containment."""

    def __init__(self, m, tol=None):
        import math
        self.math = math
        self.m = m
        q = m.positions[m.faces]
        self.fmin = q.min(axis=1)
        self.fmax = q.max(axis=1)
        self.cell = max(m.mesh_eps * 2.0, 1e-12)
        self.tol = tol if tol is not None else 1e-12 * max(1.0, m.mesh_eps)
        buckets = {}
        lo = np.floor(self.fmin / self.cell).astype(int)
        hi = np.floor(self.fmax / self.cell).astype(int)
        for fi in range(m.n_faces):
            for gx in range(lo[fi, 0], hi[fi, 0] + 1):
                for gy in range(lo[fi, 1], hi[fi, 1] + 1):
                    buckets.setdefault((gx, gy), []).append(fi)
        self.buckets = buckets

    def face_contains(self, fi, p) -> bool:
        corners = self.m.positions[self.m.faces[fi]]
        if oracle_quad_is_convex(corners):
            return (_oracle_triangle_contains(corners[0], corners[1], corners[2], p, self.tol)
                    or _oracle_triangle_contains(corners[0], corners[2], corners[3], p, self.tol))
        return _oracle_simple_polygon_contains(corners, p, self.tol)

    def bucket(self, p):
        gx = int(self.math.floor(p[0] / self.cell))
        gy = int(self.math.floor(p[1] / self.cell))
        return sorted(self.buckets.get((gx, gy), []))

    def locate(self, p):
        for fi in self.bucket(p):
            if (self.fmin[fi, 0] - self.tol <= p[0] <= self.fmax[fi, 0] + self.tol
                    and self.fmin[fi, 1] - self.tol <= p[1] <= self.fmax[fi, 1] + self.tol
                    and self.face_contains(fi, p)):
                return fi
        return None


def location_probes(m, rng, n_random=3000):
    """Mesh vertices, points on shared and boundary sides, face centroids,
    random points over the padded bounding box (many outside the support)
    and far-away points."""
    pos = m.positions
    pairs = m.side_edges()
    lam = rng.uniform(0.0, 1.0, (len(pairs), 1))
    on_sides = (1 - lam) * pos[pairs[:, 0]] + lam * pos[pairs[:, 1]]
    mids = (pos[pairs[:, 0]] + pos[pairs[:, 1]]) / 2.0
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    pad = 0.1 * (hi - lo)
    rand = rng.uniform(lo - pad, hi + pad, (n_random, 2))
    far = np.array([[hi[0] + 10.0, hi[1] + 10.0], [lo[0] - 10.0, lo[1]]])
    return np.vstack([pos, on_sides, mids, m.face_centroids(), rand, far])


# -- set, dict and list topology oracles -------------------------------------------
#
# The Python-container versions of the side sets, the boundary and walk checks,
# the flow check, the conjugate's breadth-first integration and the
# interpolation's averaging loop, kept as the references their array versions
# must match exactly.


def _oracle_side_pairs(m):
    f = m.faces
    a = np.concatenate([f[:, 0], f[:, 1], f[:, 2], f[:, 3]])
    b = np.concatenate([f[:, 1], f[:, 2], f[:, 3], f[:, 0]])
    return np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)


def oracle_side_set(m):
    return {(int(a), int(b)) for a, b in np.unique(_oracle_side_pairs(m), axis=0)}


def oracle_boundary_edge_set(m):
    pairs, counts = np.unique(_oracle_side_pairs(m), axis=0, return_counts=True)
    return {(int(a), int(b)) for (a, b), c in zip(pairs, counts) if c == 1}


def oracle_boundary_mismatch(m):
    """Size of the symmetric difference between the stored cycle's sides and
    the once-used face sides (0 when they agree)."""
    cyc = m.boundary
    cyc_edges = {(min(cyc[i], cyc[(i + 1) % len(cyc)]), max(cyc[i], cyc[(i + 1) % len(cyc)]))
                 for i in range(len(cyc))}
    return len(cyc_edges ^ oracle_boundary_edge_set(m))


def oracle_walk_error(m, walk):
    """The message the first failing step of a closed walk raises, or None."""
    w = [int(x) for x in walk]
    sides = oracle_side_set(m)
    for a, b in zip(w, w[1:] + w[:1]):
        if (min(a, b), max(a, b)) not in sides:
            return f"walk step {a}->{b} is not an edge of the map"
        if m.colors[a] == m.colors[b]:
            return "walk does not alternate colors"
    return None


def oracle_flow_check(flow, rel=1e-10):
    """(strength, the message Flow.check raises or None), from a dict
    divergence."""
    g = flow.graph
    idx = {int(v): i for i, v in enumerate(g.ids)}
    arr = np.zeros(g.n)
    for u, v, th in zip(g.edge_u, g.edge_v, flow.theta):
        arr[idx[int(u)]] += th
        arr[idx[int(v)]] -= th
    div = {int(v): float(arr[i]) for i, v in enumerate(g.ids)}
    s = sum(div[v] for v in flow.source_set)
    scale = max(abs(s), max(abs(d) for d in div.values()), 1e-300)
    for v in sorted(div):
        if v in flow.source_set or v in flow.sink_set:
            continue
        if abs(div[v]) > rel * scale:
            return s, f"nonzero divergence {div[v]:.3e} at free vertex {v}"
    if abs(s + sum(div[v] for v in flow.sink_set)) > rel * scale:
        return s, "source and sink strengths do not balance"
    return s, None


def oracle_conjugate_values(mm, h):
    """Dual values integrated along a deque breadth-first tree over sorted
    adjacency lists, before the shift; and the tree-face mask."""
    g_dual = mm.map.extract_dual()
    f = mm.map.faces
    inc = mm.map.extract_primal().edge_c * (h.values[f[:, 2]] - h.values[f[:, 0]])
    w1 = np.searchsorted(g_dual.ids, f[:, 1]).tolist()
    w2 = np.searchsorted(g_dual.ids, f[:, 3]).tolist()
    adj = [[] for _ in range(g_dual.n)]
    for fi in range(len(f)):
        adj[w1[fi]].append((w2[fi], fi, 1.0))
        adj[w2[fi]].append((w1[fi], fi, -1.0))
    for lst in adj:
        lst.sort()
    root = int(np.searchsorted(g_dual.ids, min(mm.arc_da)))
    vals = [0.0] * g_dual.n
    seen = [False] * g_dual.n
    seen[root] = True
    tree = np.zeros(len(f), dtype=bool)
    dq = collections.deque([root])
    while dq:
        u = dq.popleft()
        for nb, fi, s in adj[u]:
            if not seen[nb]:
                seen[nb] = True
                tree[fi] = True
                vals[nb] = vals[u] + s * float(inc[fi])
                dq.append(nb)
    return np.array(vals), tree


def oracle_cross_color_average(m, hv, tv):
    """Per-vertex mean over the other colour's side neighbours, summed in
    the side set's iteration order."""
    acc = np.zeros(m.n_vertices)
    cnt = np.zeros(m.n_vertices)
    for a, b in oracle_side_set(m):
        pa, da = (a, b) if m.colors[a] == 0 else (b, a)
        acc[pa] += tv[da]
        cnt[pa] += 1.0
        acc[da] += hv[pa]
        cnt[da] += 1.0
    return acc / np.where(cnt == 0, 1.0, cnt)


# -- Tile-object tiling oracles ----------------------------------------------------
#
# The JSON load, verification and SVG rendering that read one Tile object at a
# time, kept as the references the column versions must match bitwise.  Tiles
# are (face, edge, x0, x1, y0, y1, degenerate) rows, e.g. Tiling.tiles.


def oracle_tiles_from_json_dict(d, degenerate_tol=1e-9):
    L = float(d["L"])
    s = max(L, 1.0)
    tiles = []
    for rec in d["tiles"]:
        x0, x1, y0, y1 = (float(rec[k]) for k in ("x0", "x1", "y0", "y1"))
        deg = (x1 - x0) <= degenerate_tol * s or (y1 - y0) <= degenerate_tol
        tiles.append((int(rec["face"]), tuple(rec["edge"]), x0, x1, y0, y1, deg))
    return L, tiles


def oracle_verify_tiling(L, tiles, tol=1e-9):
    """(containment, overlaps, area_defect, area_ok) as the per-tile sweep
    reports them."""
    import bisect
    s = max(L, 1.0)
    slack = tol * s
    containment, overlaps = [], []
    for face, _, x0, x1, y0, y1, _ in tiles:
        excess = max(0.0 - x0, x1 - L, 0.0 - y0, y1 - 1.0, x0 - x1, y0 - y1)
        if excess > slack:
            containment.append((face, float(excess)))
    live = [tl for tl in tiles if not tl[6] and tl[3] - tl[2] > 0.0 and tl[5] - tl[4] > 0.0]
    events = []
    for k, tl in enumerate(live):
        events.append((tl[2], 1, k))
        events.append((tl[3], 0, k))
    events.sort(key=lambda e: (e[0], e[1]))
    active_y0, active_k = [], []
    seen_pairs = set()
    for _, typ, k in events:
        tl = live[k]
        if typ == 0:
            i = bisect.bisect_left(active_y0, tl[4])
            while i < len(active_k) and active_k[i] != k:
                i += 1
            if i < len(active_k):
                del active_y0[i]
                del active_k[i]
            continue
        i = bisect.bisect_left(active_y0, tl[4])
        for j in (i - 1, i):
            if 0 <= j < len(active_k):
                other = live[active_k[j]]
                w = min(tl[3], other[3]) - max(tl[2], other[2])
                hgt = min(tl[5], other[5]) - max(tl[4], other[4])
                area = max(w, 0.0) * max(hgt, 0.0)
                if area > slack:
                    key = tuple(sorted((tl[0], other[0])))
                    if key not in seen_pairs:
                        seen_pairs.add(key)
                        overlaps.append((key[0], key[1], float(area)))
        active_y0.insert(i, tl[4])
        active_k.insert(i, k)
    area_defect = float(abs(float(sum((x1 - x0) * (y1 - y0) for _, _, x0, x1, y0, y1, _ in tiles))
                            - L))
    return containment, overlaps, area_defect, area_defect <= slack


def _oracle_edge_color(edge):
    u, v = edge
    x = (u * 2654435761 ^ v * 40503) & 0xFFFFFFFF
    hue = (x % 360) / 360.0
    c, m_ = 0.55, 0.35
    hp = hue * 6.0
    xx = c * (1 - abs(hp % 2 - 1))
    r, g, b = [(c, xx, 0), (xx, c, 0), (0, c, xx), (0, xx, c), (xx, 0, c), (c, 0, xx)][int(hp) % 6]
    return "#{:02x}{:02x}{:02x}".format(int((r + m_) * 255), int((g + m_) * 255),
                                        int((b + m_) * 255))


def oracle_render_svg(L, tiles, scale=400.0):
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             'width="{:.6f}" height="{:.6f}" viewBox="0 0 {:.6f} 1.000000">'.format(
                 scale * L, scale, L)]
    lines.append("<!-- degenerate tiles omitted: {} -->".format(sum(1 for tl in tiles if tl[6])))
    for _, edge, x0, x1, y0, y1, deg in tiles:
        if deg:
            continue
        lines.append(
            '<rect x="{:.6f}" y="{:.6f}" width="{:.6f}" height="{:.6f}" '
            'fill="{}" stroke="#000000" stroke-width="0.002"/>'.format(
                x0, 1.0 - y1, x1 - x0, y1 - y0, _oracle_edge_color(edge)))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# -- per-face validation oracle ----------------------------------------------------


def oracle_validate(m):
    """odmap.validate with its per-face loop and used-vertex set."""
    from orthotile import geom
    from orthotile.odmap import (DUAL, PRIMAL, TOL_ORTH, ValidationReport, _quads_convex,
                                 side_keys)
    rep = ValidationReport()
    p = m.positions
    convex = _quads_convex(p[m.faces])
    for fi, f in enumerate(m.faces):
        cols = [int(m.colors[v]) for v in f]
        if cols != [PRIMAL, DUAL, PRIMAL, DUAL]:
            rep.add("color-alternation", (fi,), 0.0,
                    f"face {fi} colors {cols} do not alternate primal/dual")
            continue
        d1 = p[f[2]] - p[f[0]]
        d2 = p[f[3]] - p[f[1]]
        n1, n2 = np.hypot(*d1), np.hypot(*d2)
        if n1 == 0.0 or n2 == 0.0:
            rep.add("degenerate-diagonal", (fi,), 0.0, f"face {fi} has a zero-length diagonal")
            continue
        dot = abs(float(d1 @ d2))
        if dot > TOL_ORTH * n1 * n2:
            rep.add("orthogonality", (fi,), dot / (n1 * n2),
                    f"face {fi} diagonals meet at |cos|={dot / (n1 * n2):.3e}")
        q = p[f]
        if geom.signed_area(q) <= 0:
            rep.add("orientation", (fi,), float(geom.signed_area(q)),
                    f"face {fi} is not counterclockwise")
        if not convex[fi]:
            rep.nonconvex_faces.append(fi)
    used = sorted({int(v) for f in m.faces for v in f})
    if len(used) != m.n_vertices:
        rep.add("unused-vertices", tuple(set(range(m.n_vertices)) - set(used)), 0.0,
                "vertices not incident to any face")
    sides, counts = m._sides()
    euler = m.n_vertices - len(sides) + (m.n_faces + 1)
    if euler != 2:
        rep.add("euler", (), float(euler),
                f"V - E + F = {euler} != 2; map is not simply connected")
    cyc = np.array(m.boundary, dtype=np.int64)
    if len(np.unique(cyc)) != len(cyc):
        rep.add("boundary-not-simple", (), 0.0, "boundary cycle repeats a vertex")
    once = counts == 1
    mismatch = np.setxor1d(side_keys(cyc, np.roll(cyc, -1)),
                           side_keys(sides[once, 0], sides[once, 1]))
    if len(mismatch):
        rep.add("boundary-mismatch", (), float(len(mismatch)),
                "stored boundary cycle does not match the once-used face sides")
    else:
        ring = m.boundary_polyline()
        if geom.signed_area(ring[:-1]) <= 0:
            rep.add("boundary-orientation", (), 0.0, "boundary cycle is not counterclockwise")
    recomputed = m._recompute_mesh_eps()
    if abs(recomputed - m.mesh_eps) > 1e-12 * max(1.0, recomputed):
        rep.add("mesh-eps", (), abs(recomputed - m.mesh_eps),
                f"stored mesh_eps {m.mesh_eps} != recomputed {recomputed}")
    return rep


# -- dict-list artifact writers ------------------------------------------------------
#
# The map and tiling writers that built one dict per row and passed the
# object to json.dump(indent=1), kept as the references the column writers
# must match byte for byte.


def _oracle_json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=1) + "\n").encode("utf-8")


def oracle_map_bytes(m, marked=None) -> bytes:
    rows = zip(m.positions.tolist(), m.colors.tolist())
    verts = [{"id": i, "x": x, "y": y, "color": "primal" if c == odmap.PRIMAL else "dual"}
             for i, ((x, y), c) in enumerate(rows)]
    out = {"vertices": verts, "faces": m.faces.tolist(), "boundary": list(m.boundary)}
    if marked is not None:
        out["marked"] = [int(x) for x in marked]
    return _oracle_json_bytes(out)


def oracle_tiling_bytes(t) -> bytes:
    return _oracle_json_bytes(
        {"L": t.L,
         "tiles": [{"face": f, "edge": e, "x0": x0, "x1": x1, "y0": y0, "y1": y1}
                   for f, e, (x0, x1, y0, y1) in zip(
                       t.face.tolist(), t.edge.tolist(), t.rect.tolist())]})


# -- (n, m, 2) distance kernels ---------------------------------------------------
#
# The point/segment distance kernels on (..., 2) coordinate arrays and the
# (n, 2)-gather _points_at that the coordinate-plane kernels replaced, kept
# as the references they must match bit for bit.


def oracle_segment_distances(p, a, b):
    ab = b - a
    denom = (ab ** 2).sum(-1)
    denom = np.where(denom == 0.0, 1.0, denom)
    t = np.clip(((p - a) * ab).sum(-1) / denom, 0.0, 1.0)
    proj = a + t[..., None] * ab
    return np.sqrt(((p - proj) ** 2).sum(-1))


def oracle_points_to_segments_distance(pts, seg_a, seg_b):
    return oracle_segment_distances(pts[:, None, :], seg_a[None], seg_b[None]).min(axis=1)


def oracle_points_at(poly, seg, seg_len, cum, t):
    idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(seg_len) - 1)
    frac = (t - cum[idx]) / np.where(seg_len[idx] == 0.0, 1.0, seg_len[idx])
    return poly[idx] + frac[:, None] * seg[idx]
