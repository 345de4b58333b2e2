import collections

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
    from orthotile import geom
    ring = np.vstack([corners, corners[:1]])
    d = geom.points_to_segments_distance(np.asarray([p], dtype=float),
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
