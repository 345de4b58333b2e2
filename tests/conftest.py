import collections
import json
import math
import os

import numpy as np
import pytest

from orthotile import geom, gridgen, odmap, tiling


def src_env():
    """os.environ with the imported package's source root first on
    PYTHONPATH, so that a subprocess imports the same orthotile."""
    src = os.path.dirname(os.path.dirname(odmap.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def graph_from_edges(positions, edges):
    """An abstract WeightedGraph from {id: (x, y)} and (u, v, conductance)
    triples."""
    ids = np.array(sorted(positions), dtype=np.int64)
    pos = np.array([positions[int(i)] for i in ids], dtype=float)
    eu = np.array([e[0] for e in edges], dtype=np.int64)
    ev = np.array([e[1] for e in edges], dtype=np.int64)
    ec = np.array([e[2] for e in edges], dtype=float)
    el = np.array([np.hypot(positions[int(u)][0] - positions[int(v)][0],
                            positions[int(u)][1] - positions[int(v)][1]) for u, v in zip(eu, ev)])
    return odmap.WeightedGraph(ids, pos, eu, ev, ec, el)


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
    return graph_from_edges(pos, edges)


def fan_graph(k=70):
    """A hub (id 0) joined to each vertex of a k-cycle: the hub's row of a
    reduced Laplacian is far wider than the other rows."""
    pos = {0: (0.0, 0.0)}
    pos.update({i: (float(np.cos(2 * np.pi * i / k)), float(np.sin(2 * np.pi * i / k)))
                for i in range(1, k + 1)})
    edges = [(0, i, 1.0 + i / k) for i in range(1, k + 1)]
    edges += [(i, i % k + 1, 0.5 + 1.0 / i) for i in range(1, k + 1)]
    return graph_from_edges(pos, edges)


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


# -- generation oracle ---------------------------------------------------------------
#
# The keep-mask that tested each candidate diamond's four corners at its own
# center plus and minus h (five polygon_masks calls, shared lattice vertices
# tested up to four times), kept as the reference gridgen._kept_faces must
# match.


def oracle_kept_faces(poly, eps, tol):
    h = eps / 2.0
    v = poly.vertices
    x0, y0 = float(v[:, 0].min()), float(v[:, 1].min())
    x1, y1 = float(v[:, 0].max()), float(v[:, 1].max())
    nx = int(math.floor((x1 - x0) / h + 0.5)) + 1
    ny = int(math.floor((y1 - y0) / h + 0.5)) + 1

    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    odd = ((ii + jj) % 2) == 1
    ci, cj = ii[odd], jj[odd]
    cx = x0 + ci * h
    cy = y0 + cj * h

    on_boundary, inside = geom.polygon_masks(poly, np.stack([cx, cy], 1), tol)
    keep = inside & ~on_boundary
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        on_boundary, inside = geom.polygon_masks(poly, np.stack([cx + di * h, cy + dj * h], 1), tol)
        keep &= on_boundary | inside

    edges = np.stack([v, np.roll(v, -1, axis=0)], axis=1)
    idx = np.flatnonzero(keep)
    if idx.size:
        ccx, ccy = cx[idx], cy[idx]
        pen = np.zeros(idx.size, dtype=bool)
        for (p, q) in edges:
            pu = (p[0] - ccx) + (p[1] - ccy)
            pv = (p[0] - ccx) - (p[1] - ccy)
            du = (q[0] - p[0]) + (q[1] - p[1])
            dv = (q[0] - p[0]) - (q[1] - p[1])
            t0 = np.zeros_like(ccx)
            t1 = np.ones_like(ccx)
            for u0, dd in ((pu, du), (pv, dv)):
                if dd == 0.0:
                    outside = np.abs(u0) >= h
                    t0 = np.where(outside, 1.0, t0)
                    t1 = np.where(outside, 0.0, t1)
                else:
                    ta = (-h - u0) / dd
                    tb = (h - u0) / dd
                    lo_, hi_ = np.minimum(ta, tb), np.maximum(ta, tb)
                    t0 = np.maximum(t0, lo_)
                    t1 = np.minimum(t1, hi_)
            tm = (t0 + t1) / 2.0
            um = pu + tm * du
            vm = pv + tm * dv
            slack = h - np.maximum(np.abs(um), np.abs(vm))
            pen |= (t1 > t0) & (slack > tol)
        keep[idx[pen]] = False

    return h, (x0, y0), np.stack([ci[keep], cj[keep]], 1)


# -- scalar point-location oracle ------------------------------------------------
#
# The per-point FaceLocator that FaceLocator.containing replaced, kept as the
# reference its batched kernel must match exactly.


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
    """Dict-of-lists spatial hash with per-point, per-face containment:
    each face is hashed by its bounding box padded by 2 tol, cells counted
    from the lowest padded corner."""

    def __init__(self, m):
        self.m = m
        q = m.positions[m.faces]
        self.cell = max(m.mesh_eps * 2.0, 1e-12)
        self.tol = 1e-12 * max(1.0, m.mesh_eps)
        buckets = {}
        box_lo, box_hi = q.min(axis=1) - 2 * self.tol, q.max(axis=1) + 2 * self.tol
        origin = box_lo.min(axis=0)
        lo = np.floor((box_lo - origin) / self.cell).astype(int)
        hi = np.floor((box_hi - origin) / self.cell).astype(int)
        self.origin = origin.tolist()
        for fi in range(m.n_faces):
            for gx in range(lo[fi, 0], hi[fi, 0] + 1):
                for gy in range(lo[fi, 1], hi[fi, 1] + 1):
                    buckets.setdefault((gx, gy), []).append(fi)
        self.buckets = buckets

    def face_contains(self, fi, p) -> bool:
        return _oracle_simple_polygon_contains(self.m.positions[self.m.faces[fi]], p, self.tol)

    def bucket(self, p):
        gx = math.floor((float(p[0]) - self.origin[0]) / self.cell)
        gy = math.floor((float(p[1]) - self.origin[1]) / self.cell)
        return sorted(self.buckets.get((gx, gy), []))

    def locate(self, p):
        for fi in self.bucket(p):
            if self.face_contains(fi, p):
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


def oracle_trace_boundary(faces):
    """The boundary cycle by np.unique with an inverse over all 4f side
    keys and a successor dict: the sides used by exactly one face, walked
    head to tail from the smallest vertex id, with odmap.trace_boundary's
    MapError messages."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 4)
    a = faces.T.ravel()
    b = np.roll(faces, -1, axis=1).T.ravel()
    _, inverse, counts = np.unique(odmap.side_keys(a, b), return_inverse=True,
                                   return_counts=True)
    once = counts[inverse] == 1
    succ = dict(zip(a[once].tolist(), b[once].tolist()))
    if len(succ) != int(once.sum()):
        raise odmap.MapError("boundary has a pinch point")
    if not succ:
        raise odmap.MapError("boundary is empty")
    start = min(succ)
    cyc = [start]
    cur = succ[start]
    while cur != start:
        if cur not in succ or len(cyc) == len(succ):
            raise odmap.MapError("boundary walk did not close")
        cyc.append(cur)
        cur = succ[cur]
    if len(cyc) != len(succ):
        raise odmap.MapError("boundary has multiple cycles")
    return cyc


def oracle_marked_arcs(mm):
    """(arc_ab, arc_bc, arc_cd, arc_da, chains) by walking the boundary as
    a list from list.index of each mark: the primal vertices of the walks
    A..B and C..D, the dual vertices strictly inside B..C and D..A, and the
    positions of the four walks."""
    cyc = mm.map.boundary.tolist()
    col = mm.map.colors

    def walk(start, stop):
        i = cyc.index(start)
        out = [start]
        while cyc[i] != stop:
            i = (i + 1) % len(cyc)
            out.append(cyc[i])
        return out

    a, b, c, d = mm.marked
    walks = [walk(a, b), walk(b, c), walk(c, d), walk(d, a)]
    prim = [[v for v in w if col[v] == odmap.PRIMAL] for w in walks]
    dual = [[v for v in w[1:-1] if col[v] == odmap.DUAL] for w in walks]
    return (prim[0], dual[1], prim[2], dual[3],
            [mm.map.positions[np.array(w, dtype=np.int64)] for w in walks])


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
    sources, sinks = flow.sources.tolist(), flow.sinks.tolist()
    s = math.fsum(div[v] for v in sources)
    scale = max(abs(s), max(abs(d) for d in div.values()), 1e-300)
    for v in sorted(div):
        if v in sources or v in sinks:
            continue
        if abs(div[v]) > rel * scale:
            return s, f"nonzero divergence {div[v]:.3e} at free vertex {v}"
    if abs(s + math.fsum(div[v] for v in sinks)) > rel * scale:
        return s, "source and sink strengths do not balance"
    return s, None


def oracle_conjugate_values(mm, h):
    """Dual values integrated along a deque breadth-first tree over sorted
    adjacency lists, before normalization; and the tree-face mask."""
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


def oracle_adjacency(g):
    """WeightedGraph.adjacency as per-vertex dicts, before it returned index
    arrays: {id: [(neighbour id, conductance), ...]}, each list sorted."""
    adj = {int(v): [] for v in g.ids}
    for u, v, c in zip(g.edge_u, g.edge_v, g.edge_c):
        adj[int(u)].append((int(v), float(c)))
        adj[int(v)].append((int(u), float(c)))
    for k in adj:
        adj[k].sort()
    return adj


def oracle_dijkstra(g, weights, sources, targets, allowed=None):
    """extremal._dijkstra over a dict adjacency rebuilt on every call, with
    allowed a set of ids: (distance, id path), (inf, []) when unreachable."""
    import heapq
    targets = set(int(t) for t in targets)
    adj = {int(v): [] for v in g.ids}
    for u, v, w in zip(g.edge_u, g.edge_v, weights):
        u, v = int(u), int(v)
        if allowed is not None and (u not in allowed or v not in allowed):
            continue
        adj[u].append((v, float(w)))
        adj[v].append((u, float(w)))
    for lst in adj.values():
        lst.sort()
    dist, prev, heap = {}, {}, []
    for s in sorted(set(int(x) for x in sources)):
        if allowed is None or s in allowed:
            dist[s] = 0.0
            heapq.heappush(heap, (0.0, s))
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if u in targets:
            path = [u]
            while path[-1] in prev:
                path.append(prev[path[-1]])
            return d, path[::-1]
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return math.inf, []


def oracle_cut_minimality(mm, cut):
    """The separation and minimality checks of extremal.min_cut_dual_path
    before it labelled G minus the cut once: components relabelled once per
    cut key, restoring that key's edges.  cut: (u, v) pairs of primal edges.
    Returns ("non-separating", None), ("non-minimal", the first removable key
    as a sorted pair, keys ascending) or ("minimal", None)."""
    gp = mm.map.extract_primal()
    keys = odmap.side_keys(gp.edge_u, gp.edge_v)
    u, v = np.array(cut, dtype=np.int64).reshape(-1, 2).T
    cut_keys = np.unique(odmap.side_keys(u, v))
    in_cut = np.isin(keys, cut_keys)
    iu, iv = gp.edge_index
    ab, cd = np.isin(gp.ids, mm.arc_ab), np.isin(gp.ids, mm.arc_cd)

    def separates(removed):
        lab = odmap.component_labels(gp.n, iu[~removed], iv[~removed])
        return not np.isin(lab[ab], lab[cd]).any()

    if not separates(in_cut):
        return "non-separating", None
    for k in cut_keys.tolist():
        if separates(in_cut & (keys != k)):
            return "non-minimal", (k // 2 ** 32, k % 2 ** 32)
    return "minimal", None


def oracle_csr(A):
    """scipy's CSR matrix of the entries of the harmonic.SlotMatrix A: the
    matrix harmonic._reduced_system built before, and its product the
    reference for A's."""
    import scipy.sparse as sp
    rows, cols, vals = A.entries()
    return sp.csr_matrix((vals, (rows, cols)), shape=(A.n, A.n))


def oracle_cg(A, b, x0, dinv, tol, maxiter):
    """scipy.sparse.linalg.cg with the Jacobi preconditioner diags(dinv) on
    oracle_csr(A), the call oracle_jacobi_cg replaced: (x, info), x0 left
    as it is."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import cg
    return cg(oracle_csr(A), b, x0=x0, rtol=tol, atol=0.0, maxiter=maxiter, M=sp.diags(dinv))


def oracle_jacobi_cg(A, b, x, dinv, tol, maxiter):
    """The Jacobi-preconditioned CG loop that harmonic._pcg replaced: from
    x, in place, operation for operation as oracle_cg, so with its bits
    (np.dot and np.linalg.norm are BLAS calls, so the bits hold at one BLAS
    thread count): b when norm(b) == 0, else x once norm(r) < tol norm(b);
    each with the number of steps taken.  (x, maxiter) short of it."""
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b, 0
    atol = tol * float(bnrm2)
    r = b - A @ x if x.any() else b.copy()
    for it in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, it
        z = dinv * r
        rho = np.dot(r, z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter


def oracle_breadth_first(indptr, indices, root):
    """scipy.sparse.csgraph.breadth_first_order on the CSR pattern, the search
    harmonic.breadth_first_levels replaced: the order, and the predecessors
    with -1 at the root and at unreached vertices."""
    import scipy.sparse as sp
    from scipy.sparse import csgraph
    n = len(indptr) - 1
    adj = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    order, pred = csgraph.breadth_first_order(adj, root, directed=True,
                                              return_predecessors=True)
    return order, np.where(pred < 0, -1, pred)


def dual_arcs_csr(mm):
    """The dual graph's arcs w -> w' as a CSR pattern (indptr, indices), one
    per ordered pair, targets ascending, and the search root of
    harmonic_conjugate."""
    g = mm.map.extract_dual()
    f, n = mm.map.faces, g.n
    w1, w2 = np.searchsorted(g.ids, f[:, 1]), np.searchsorted(g.ids, f[:, 3])
    arcs = np.unique(np.concatenate([w1 * n + w2, w2 * n + w1]))
    indptr = np.searchsorted(arcs // n, np.arange(n + 1))
    return indptr, arcs % n, int(np.searchsorted(g.ids, mm.arc_da.min()))


def oracle_cross_color_average(m, hv, tv):
    """Per-vertex mean over the other colour's side neighbours, summed in
    the row order of side_edges()."""
    acc = np.zeros(m.n_vertices)
    cnt = np.zeros(m.n_vertices)
    for a, b in m.side_edges().tolist():
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
    """(containment, overlaps, area_defect, area_ok) by a tile-at-a-time
    containment check and an all-pairs overlap check over the live tiles,
    overlaps sorted by face pair."""
    s = max(L, 1.0)
    slack = tol * s
    containment, overlaps = [], []
    for face, _, x0, x1, y0, y1, _ in tiles:
        excess = max(0.0 - x0, x1 - L, 0.0 - y0, y1 - 1.0, x0 - x1, y0 - y1)
        if excess > slack:
            containment.append((face, float(excess)))
    live = [tl for tl in tiles if not tl[6] and tl[3] - tl[2] > 0.0 and tl[5] - tl[4] > 0.0]
    face = np.array([tl[0] for tl in live], dtype=np.int64)
    x0, x1, y0, y1 = np.array([tl[2:6] for tl in live], dtype=float).reshape(-1, 4).T
    for k in range(len(live)):
        # tile k against every later live tile, as numpy rows
        w = np.minimum(x1[k], x1[k + 1:]) - np.maximum(x0[k], x0[k + 1:])
        hgt = np.minimum(y1[k], y1[k + 1:]) - np.maximum(y0[k], y0[k + 1:])
        area = np.maximum(w, 0.0) * np.maximum(hgt, 0.0)
        for o in np.flatnonzero(area > slack).tolist():
            a, b = sorted((int(face[k]), int(face[k + 1 + o])))
            overlaps.append((a, b, float(area[o])))
    overlaps.sort(key=lambda o: o[:2])
    total = 0.0
    for _, _, x0, x1, y0, y1, _ in tiles:
        total += (x1 - x0) * (y1 - y0)
    area_defect = float(abs(total - L))
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
    from orthotile.odmap import DUAL, PRIMAL, TOL_ORTH, ValidationReport, _quads_convex
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
    euler = m.n_vertices - len(oracle_side_set(m)) + (m.n_faces + 1)
    if euler != 2:
        rep.add("euler", (), float(euler),
                f"V - E + F = {euler} != 2; map is not simply connected")
    cyc = np.array(m.boundary, dtype=np.int64)
    if len(np.unique(cyc)) != len(cyc):
        rep.add("boundary-not-simple", (), 0.0, "boundary cycle repeats a vertex")
    mismatch = oracle_boundary_mismatch(m)
    if mismatch:
        rep.add("boundary-mismatch", (), float(mismatch),
                "stored boundary cycle does not match the once-used face sides")
    else:
        ring = m.boundary_polyline()
        if geom.signed_area(ring[:-1]) <= 0:
            rep.add("boundary-orientation", (), 0.0, "boundary cycle is not counterclockwise")
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
    out = {"vertices": verts, "faces": m.faces.tolist(), "boundary": m.boundary.tolist()}
    if marked is not None:
        out["marked"] = [int(x) for x in marked]
    return _oracle_json_bytes(out)


def oracle_tiling_bytes(t) -> bytes:
    return _oracle_json_bytes(
        {"L": t.L,
         "tiles": [{"face": f, "edge": e, "x0": x0, "x1": x1, "y0": y0, "y1": y1}
                   for f, e, (x0, x1, y0, y1) in zip(
                       t.face.tolist(), t.edge.tolist(), t.rect.tolist())]})


# -- dict-tree artifact readers -------------------------------------------------------
#
# OrthodiagonalMap.from_json_dict and Tiling.from_json_dict, which walked the
# per-row dicts json.load builds, kept as the references load_map and
# load_tiling must match bit for bit.


def oracle_map_from_json_dict(d):
    verts = d["vertices"]
    ids = np.array([rec["id"] for rec in verts], dtype=np.int64)
    pos = np.zeros((len(verts), 2))
    col = np.zeros(len(verts), dtype=np.int64)
    pos[ids] = [(rec["x"], rec["y"]) for rec in verts]
    if not np.all(np.isfinite(pos)):
        raise odmap.MapError("vertex coordinates must be finite numbers")
    col[ids] = [odmap.PRIMAL if rec["color"] == "primal" else odmap.DUAL for rec in verts]
    m = odmap.OrthodiagonalMap(pos, col, d["faces"], d["boundary"])
    marked = [int(x) for x in d["marked"]] if "marked" in d and d["marked"] else None
    return m, marked


def oracle_tiling_from_json_dict(d, degenerate_tol=1e-9):
    L = float(d["L"])
    recs = d["tiles"]
    face = np.array([rec["face"] for rec in recs], dtype=np.int64)
    edges = [rec["edge"] for rec in recs]
    if any(len(e) != 2 for e in edges):
        raise ValueError("a tile edge must be a pair of vertex ids")
    edge = np.array(edges, dtype=np.int64).reshape(-1, 2)
    rect = np.array(list(map(float, [rec[k] for rec in recs
                                     for k in ("x0", "x1", "y0", "y1")]))).reshape(-1, 4)
    x0, x1, y0, y1 = rect.T
    deg = (x1 - x0 <= degenerate_tol * max(L, 1.0)) | (y1 - y0 <= degenerate_tol)
    return tiling.Tiling(L, face, edge, rect, deg)


def oracle_load(path, from_json_dict):
    """from_json_dict of json.load's tree of path."""
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def map_bits(m, marked=None):
    """Every column of a loaded map, as comparable dtype, shape and bytes."""
    return ([_bits(c) for c in (m.positions, m.colors, m.faces, m.boundary)],
            m.mesh_eps.hex(), marked)


def tiling_bits(t):
    """Every column of a tiling, as comparable dtype, shape and bytes."""
    return t.L.hex(), [_bits(c) for c in (t.face, t.edge, t.rect, t.degenerate)]


# -- (n, m, 2) distance kernels ---------------------------------------------------
#
# The point/segment distance kernels on (..., 2) coordinate arrays and the
# (n, 2)-gather _points_at that the coordinate-plane kernels replaced, kept
# as the references they must match bit for bit.


def _oracle_squared_distances(p, a, b):
    ab = b - a
    denom = (ab ** 2).sum(-1)
    denom = np.where(denom == 0.0, 1.0, denom)
    t = np.clip(((p - a) * ab).sum(-1) / denom, 0.0, 1.0)
    proj = a + t[..., None] * ab
    return ((p - proj) ** 2).sum(-1)


def oracle_segment_distances(p, a, b):
    return np.sqrt(_oracle_squared_distances(p, a, b))


def oracle_points_to_segments_distance(pts, seg_a, seg_b):
    return oracle_segment_distances(pts[:, None, :], seg_a[None], seg_b[None]).min(axis=1)


def oracle_nearest_segments(pts, seg_a, seg_b):
    d2 = _oracle_squared_distances(pts[:, None, :], seg_a[None], seg_b[None])
    k = d2.argmin(axis=1)
    return np.sqrt(d2[np.arange(len(pts)), k]), k


def oracle_points_at(poly, seg, seg_len, cum, t):
    idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(seg_len) - 1)
    frac = (t - cum[idx]) / np.where(seg_len[idx] == 0.0, 1.0, seg_len[idx])
    return poly[idx] + frac[:, None] * seg[idx]


# -- sampled Hausdorff estimate ----------------------------------------------------
#
# The sampled lower estimate that geom.hausdorff_distance's certified bound
# replaced, in its scalar form: uniform arclength samples plus every vertex,
# then 8 rounds of 17-point refinement around the sampled maximizers, at
# most 64 candidates per round.  The bound must never fall below it, up to
# rounding.


def _sample_polyline(poly, n_samples):
    """Uniform arclength samples plus all vertices.  Returns (points,
    parameters, spacing)."""
    if poly.shape[0] == 1:
        return poly, np.zeros(1), 0.0
    seg, seg_len, cum = geom._arclength(poly)
    total = cum[-1]
    if total == 0.0:
        return poly[:1], np.zeros(1), 0.0
    t = np.linspace(0.0, total, max(n_samples, 2))
    t = np.unique(np.concatenate([t, cum]))
    return geom._points_at(poly, seg, seg_len, cum, t), t, total / max(n_samples - 1, 1)


def _oracle_point_on_polyline(poly, cum, seg, seg_len, t):
    idx = int(np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(seg_len) - 1))
    denom = seg_len[idx] if seg_len[idx] != 0.0 else 1.0
    return poly[idx] + ((t - cum[idx]) / denom) * seg[idx]


def polyline_distances(pts, poly):
    """Distance from each point to the polyline poly, a one-vertex polyline
    being one zero-length segment."""
    sa, sb = (poly[:-1], poly[1:]) if len(poly) > 1 else (poly, poly)
    return geom.points_to_segments_distance(pts, sa, sb)


def oracle_sampled_hausdorff(a, b, n_samples=1024, rounds=8):
    """The sampled estimate of sup over points of a of the distance to b."""
    pts, params, spacing = _sample_polyline(a, n_samples)
    d = polyline_distances(pts, b)
    if a.shape[0] == 1 or spacing == 0.0:
        return float(d.max())
    seg, seg_len, cum = geom._arclength(a)
    best = float(d.max())
    half = spacing / 2.0
    cand = params[d >= best - spacing]
    for _ in range(rounds):
        if half <= 0.0:
            break
        tt = np.unique(np.concatenate([np.linspace(max(t - half, 0.0), min(t + half, cum[-1]), 17)
                                       for t in cand]))
        pts = np.array([_oracle_point_on_polyline(a, cum, seg, seg_len, t) for t in tt])
        d = polyline_distances(pts, b)
        best = max(best, float(d.max()))
        half /= 8.0
        cand = tt[d >= best - 2 * half]
        if len(cand) > 64:
            cand = cand[np.argsort(d[d >= best - 2 * half])[::-1][:64]]
    return best


# -- k-d tree vertex matching ------------------------------------------------------
#
# The rotation check on scipy's cKDTree that the cell-hash matcher replaced,
# kept as the reference it must agree with.  scipy.spatial is imported here
# only, so no orthotile process loads it.


def oracle_rotation_color_swap_symmetric(m) -> bool:
    from scipy.spatial import cKDTree
    mp = m.map
    pos = mp.positions
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    c = (lo + hi) / 2.0
    tol = 1e-9 * max(float(np.hypot(*(hi - lo))), 1.0)
    tree = cKDTree(pos)
    for sgn in (1.0, -1.0):
        rel = pos - c
        rot = np.stack([-sgn * rel[:, 1], sgn * rel[:, 0]], 1) + c
        d, idx = tree.query(rot)
        if d.max() > tol:
            continue
        if len(set(idx.tolist())) != mp.n_vertices:
            continue
        if not np.all(mp.colors[idx] == 1 - mp.colors):
            continue
        img_ab = {int(idx[v]) for v in m.arc_ab}
        img_cd = {int(idx[v]) for v in m.arc_cd}
        bc, da = set(m.arc_bc), set(m.arc_da)
        if (img_ab == bc and img_cd == da) or (img_ab == da and img_cd == bc):
            return True
    return False


def oracle_nearest_vertex(pos, pts, tol):
    """Nearest row of pos for each point by a k-d tree, -1 beyond tol."""
    from scipy.spatial import cKDTree
    d, idx = cKDTree(pos).query(pts)
    return np.where(d <= tol, idx, -1)
