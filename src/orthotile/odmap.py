"""Orthodiagonal map data structure: an embedded bipartite quadrangulation
with boundary, plus extraction of the weighted primal/dual graphs and the
four marked boundary arcs.

Faces are stored as ordered 4-tuples (v1, w1, v2, w2) in counterclockwise
order, normalized to start at a primal vertex; v1, v2 are the primal
diagonal, w1, w2 the dual diagonal.  Adjacency tables are derived lazily.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import geom

PRIMAL = 0
DUAL = 1

TOL_ORTH = 1e-9


def side_keys(a, b) -> np.ndarray:
    """One int64 key per unordered vertex-id pair (a, b), ordered as the
    pairs (min, max) are ordered lexicographically."""
    return np.minimum(a, b) * (2 ** 32) + np.maximum(a, b)


class MapError(ValueError):
    """Structurally invalid orthodiagonal map or marking."""


class ContourError(ValueError):
    """Not a usable contour: a walk that is not a simple closed admissible
    contour, a face set without one boundary cycle, or a short-contour
    search whose preconditions fail or that finds no path."""


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple
    measure: float
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    nonconvex_faces: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, where: tuple, measure: float, message: str) -> None:
        self.violations.append(Violation(kind, where, measure, message))


@dataclass(frozen=True)
class WeightedGraph:
    """Finite network: vertex ids with positions, edges with conductance,
    resistance, Euclidean length and (for graphs extracted from a map) the
    id of the face each edge is the diagonal of."""

    ids: np.ndarray          # (n,) int64, sorted ascending
    positions: np.ndarray    # (n, 2)
    edge_u: np.ndarray       # (m,) int64 vertex ids
    edge_v: np.ndarray
    edge_c: np.ndarray       # conductances > 0
    edge_len: np.ndarray
    edge_face: np.ndarray    # (m,) int64, -1 when not face-derived

    def __post_init__(self):
        if np.any(self.edge_c <= 0) or not np.all(np.isfinite(self.edge_c)):
            raise MapError("conductances must be positive and finite")

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return len(self.edge_u)

    def adjacency(self) -> dict[int, list[tuple[int, float]]]:
        adj: dict[int, list[tuple[int, float]]] = {int(v): [] for v in self.ids}
        for u, v, c in zip(self.edge_u, self.edge_v, self.edge_c):
            adj[int(u)].append((int(v), float(c)))
            adj[int(v)].append((int(u), float(c)))
        for k in adj:
            adj[k].sort()
        return adj


def graph_from_edges(positions: dict[int, tuple[float, float]],
                     edges: Sequence[tuple[int, int, float]]) -> WeightedGraph:
    """Build an abstract WeightedGraph from (u, v, conductance) triples."""
    ids = np.array(sorted(positions), dtype=np.int64)
    pos = np.array([positions[int(i)] for i in ids], dtype=float)
    eu = np.array([e[0] for e in edges], dtype=np.int64)
    ev = np.array([e[1] for e in edges], dtype=np.int64)
    ec = np.array([e[2] for e in edges], dtype=float)
    pmap = {int(i): positions[int(i)] for i in ids}
    el = np.array([np.hypot(pmap[int(u)][0] - pmap[int(v)][0],
                            pmap[int(u)][1] - pmap[int(v)][1]) for u, v in zip(eu, ev)])
    return WeightedGraph(ids, pos, eu, ev, ec, el,
                         np.full(len(eu), -1, dtype=np.int64))


class OrthodiagonalMap:
    """Embedded quadrangulation with one exterior face.

    vertices: (n, 2) float positions, colors: (n,) 0=primal / 1=dual,
    faces: (f, 4) int vertex ids ccw starting primal, boundary: list of
    vertex ids tracing the outer face counterclockwise.
    """

    def __init__(self, positions, colors, faces, boundary, mesh_eps: Optional[float] = None):
        self.positions = np.asarray(positions, dtype=float)
        self.colors = np.asarray(colors, dtype=np.int64)
        faces = np.asarray(faces, dtype=np.int64)
        if faces.ndim != 2 or faces.shape[1] != 4:
            raise MapError("faces must be 4-tuples of vertex ids")
        # a face given from a dual vertex starts one step later
        self.faces = np.where((self.colors[faces[:, 0]] == PRIMAL)[:, None],
                              faces, np.roll(faces, -1, axis=1))
        self.boundary = [int(b) for b in boundary]
        self.mesh_eps = float(mesh_eps) if mesh_eps is not None else self._recompute_mesh_eps()
        self._caches: dict = {}

    # -- derived quantities ------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.positions.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def _sides(self) -> tuple[np.ndarray, np.ndarray]:
        """side_edges() and, per row, the number of faces using that side
        (1 on the boundary, 2 inside)."""
        if "sides" not in self._caches:
            f = self.faces
            keys, counts = np.unique(side_keys(f.T.ravel(), np.roll(f, -1, axis=1).T.ravel()),
                                     return_counts=True)
            pairs = np.stack([keys >> 32, keys & (2 ** 32 - 1)], axis=1)
            self._caches["sides"] = (pairs, counts)
        return self._caches["sides"]

    def side_edges(self) -> np.ndarray:
        """Quadrilateral sides as a cached (e, 2) int64 array of unique
        vertex-id pairs, smaller id first, rows in ascending (a, b) order."""
        return self._sides()[0]

    def _recompute_mesh_eps(self) -> float:
        if self.n_faces == 0:
            return 0.0
        q = self.positions[self.faces]                     # (f, 4, 2)
        d = q - np.roll(q, -1, axis=1)
        return float(np.sqrt((d ** 2).sum(-1)).max())

    def face_centroids(self) -> np.ndarray:
        if "centroids" not in self._caches:
            self._caches["centroids"] = self.positions[self.faces].mean(axis=1)
        return self._caches["centroids"]

    def face_areas(self) -> np.ndarray:
        """Shoelace areas of the faces (positive for ccw simple quads)."""
        q = self.positions[self.faces]  # (f, 4, 2)
        x, y = q[:, :, 0], q[:, :, 1]
        xr, yr = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        return 0.5 * (x * yr - xr * y).sum(axis=1)

    def boundary_polyline(self) -> np.ndarray:
        cyc = self.boundary + [self.boundary[0]]
        return self.positions[np.array(cyc, dtype=np.int64)]

    # -- weighted graph extraction ------------------------------------------

    def _diagonals(self, which: int) -> tuple[np.ndarray, np.ndarray]:
        f = self.faces
        if which == PRIMAL:
            return f[:, 0], f[:, 2]
        return f[:, 1], f[:, 3]

    def extract(self, which: int) -> WeightedGraph:
        """Primal (which=PRIMAL) or dual (which=DUAL) weighted graph.

        One edge per interior face; conductance is the ratio of the
        opposite diagonal's Euclidean length to this one's.
        """
        key = ("graph", which)
        if key in self._caches:
            return self._caches[key]
        p = self.positions
        u, v = self._diagonals(which)
        ou, ov = self._diagonals(1 - which)
        own = np.sqrt(((p[u] - p[v]) ** 2).sum(-1))
        other = np.sqrt(((p[ou] - p[ov]) ** 2).sum(-1))
        if np.any(own == 0.0) or np.any(other == 0.0):
            bad = int(np.argmax((own == 0.0) | (other == 0.0)))
            raise MapError(f"face {bad} has a zero-length diagonal")
        c = other / own
        ids = np.array(sorted(int(i) for i in np.where(self.colors == which)[0]), dtype=np.int64)
        g = WeightedGraph(ids, p[ids], u.astype(np.int64), v.astype(np.int64),
                          c, own, np.arange(self.n_faces, dtype=np.int64))
        self._caches[key] = g
        return g

    def extract_primal(self) -> WeightedGraph:
        return self.extract(PRIMAL)

    def extract_dual(self) -> WeightedGraph:
        return self.extract(DUAL)

    # -- serialization -------------------------------------------------------

    @staticmethod
    def from_json_dict(d: dict) -> tuple["OrthodiagonalMap", Optional[list[int]]]:
        verts = d["vertices"]
        ids = np.array([rec["id"] for rec in verts], dtype=np.int64)
        pos = np.zeros((len(verts), 2))
        col = np.zeros(len(verts), dtype=np.int64)
        pos[ids] = [(rec["x"], rec["y"]) for rec in verts]
        if not np.all(np.isfinite(pos)):
            raise MapError("vertex coordinates must be finite numbers")
        col[ids] = [PRIMAL if rec["color"] == "primal" else DUAL for rec in verts]
        m = OrthodiagonalMap(pos, col, d["faces"], d["boundary"])
        marked = [int(x) for x in d["marked"]] if "marked" in d and d["marked"] else None
        return m, marked


def save_json(path: str, obj) -> None:
    """Write a small artifact (domain, certificate or report): indent 1,
    final newline.  Maps and tilings are written from their columns by
    save_map and tiling.save_tiling, in the same bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


#: rows joined per write by write_json_rows, bounding the text held at once
_ROWS_PER_WRITE = 4096


def json_floats(a: np.ndarray) -> np.ndarray:
    """The text json gives each float of a, in an object array of a's shape:
    float.__repr__ of each distinct bit pattern (so -0.0 and 0.0 stay
    apart), with non-finite values spelled NaN, Infinity and -Infinity."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    bits, inv = np.unique(a.view(np.int64), return_inverse=True)
    u = bits.view(np.float64)
    text = np.array(list(map(float.__repr__, u.tolist())), dtype=object)
    bad = np.flatnonzero(~np.isfinite(u))
    text[bad] = np.where(np.isnan(u[bad]), "NaN", np.where(u[bad] > 0, "Infinity", "-Infinity"))
    return text[inv.reshape(a.shape)]


def write_json_rows(fh, key: str, template: str, columns: Sequence[np.ndarray]) -> None:
    """Write the member `key` of a top-level object as json.dump(indent=1)
    does: one row per index of the columns, row i being template % (the
    json text of each column at i), rows joined by ",\n"; [] when empty."""
    n = len(columns[0])
    fh.write(f' "{key}": ' + ("[\n" if n else "[]"))
    for lo in range(0, n, _ROWS_PER_WRITE):
        block = [c[lo:lo + _ROWS_PER_WRITE] for c in columns]
        floats = iter(json_floats(np.array([c for c in block if c.dtype.kind == "f"])))
        texts = [next(floats).tolist() if c.dtype.kind == "f" else c.tolist() for c in block]
        fh.write((",\n" if lo else "") + ",\n".join(template % row for row in zip(*texts)))
    if n:
        fh.write("\n ]")


_VERTEX = '  {\n   "id": %d,\n   "x": %s,\n   "y": %s,\n   "color": "%s"\n  }'
_FACE = "  [\n   %d,\n   %d,\n   %d,\n   %d\n  ]"


def save_map(path: str, m: OrthodiagonalMap, marked: Optional[Sequence[int]] = None) -> None:
    """Write {"vertices": [{id, x, y, color}], "faces", "boundary"} and,
    unless marked is None, "marked", in json.dump(indent=1) bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        write_json_rows(fh, "vertices", _VERTEX,
                        [np.arange(m.n_vertices), *m.positions.T,
                         np.where(m.colors == PRIMAL, "primal", "dual")])
        fh.write(",\n")
        write_json_rows(fh, "faces", _FACE, list(m.faces.T))
        fh.write(",\n")
        write_json_rows(fh, "boundary", "  %d", [np.array(m.boundary, dtype=np.int64)])
        if marked is not None:
            fh.write(",\n")
            marks = np.array([int(v) for v in marked], dtype=np.int64)
            write_json_rows(fh, "marked", "  %d", [marks])
        fh.write("\n}\n")


def load_map(path: str) -> tuple[OrthodiagonalMap, Optional[list[int]]]:
    return OrthodiagonalMap.from_json_dict(load_json(path))


def trace_boundary(faces) -> list[int]:
    """Counterclockwise boundary cycle of a union of counterclockwise faces
    (f, 4): the sides used by exactly one face, walked head to tail from
    the smallest vertex id.  MapError when that boundary is empty, pinched
    or more than one cycle."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 4)
    a = faces.T.ravel()
    b = np.roll(faces, -1, axis=1).T.ravel()
    _, inverse, counts = np.unique(side_keys(a, b), return_inverse=True, return_counts=True)
    once = counts[inverse] == 1
    succ = dict(zip(a[once].tolist(), b[once].tolist()))
    if len(succ) != int(once.sum()):
        raise MapError("boundary has a pinch point")
    if not succ:
        raise MapError("boundary is empty")
    start = min(succ)
    cyc = [start]
    cur = succ[start]
    while cur != start:
        if cur not in succ or len(cyc) == len(succ):
            raise MapError("boundary walk did not close")
        cyc.append(cur)
        cur = succ[cur]
    if len(cyc) != len(succ):
        raise MapError("boundary has multiple cycles")
    return cyc


def _quads_convex(q: np.ndarray) -> np.ndarray:
    """Strict convexity of quadrilaterals q (..., 4, 2): all four turns
    have the same nonzero sign."""
    a, b, c = q, np.roll(q, -1, axis=-2), np.roll(q, -2, axis=-2)
    cross = ((b[..., 0] - a[..., 0]) * (c[..., 1] - b[..., 1])
             - (b[..., 1] - a[..., 1]) * (c[..., 0] - b[..., 0]))
    return np.all(cross > 0, axis=-1) | np.all(cross < 0, axis=-1)


def _triangles_contain(a, b, c, p, tol: float) -> np.ndarray:
    """Elementwise over rows: is p in the closed triangle abc, with each
    side moved out by tol?  Degenerate triangles contain nothing."""
    (ax, ay), (bx, by), (cx, cy), (px, py) = a.T, b.T, c.T, p.T
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    with np.errstate(divide="ignore", invalid="ignore"):
        l1 = ((bx - px) * (cy - py) - (by - py) * (cx - px)) / det
        l2 = ((cx - px) * (ay - py) - (cy - py) * (ax - px)) / det
        l3 = 1.0 - l1 - l2
        # a negative coordinate l_i means distance |l_i| |det| / |opposite
        # side| outside that side; convert tol to per-coordinate slack
        adet = np.abs(det)
        s1 = tol * np.hypot(cx - bx, cy - by) / adet
        s2 = tol * np.hypot(ax - cx, ay - cy) / adet
        s3 = tol * np.hypot(bx - ax, by - ay) / adet
    return (det != 0.0) & (l1 >= -s1) & (l2 >= -s2) & (l3 >= -s3)


#: points per batch in FaceLocator.containing, bounding its pair temporaries
_BATCH_POINTS = 8192


def first_per_point(n: int, pi: np.ndarray, values: np.ndarray, fill) -> np.ndarray:
    """out[i] = values at the first pair of point i (pairs sorted by point),
    fill for points without a pair."""
    out = np.full(n, fill, dtype=values.dtype)
    pts, first = np.unique(pi, return_index=True)
    out[pts] = values[first]
    return out


class FaceLocator:
    """Uniform-hash point location over the faces of a map.

    Every face is hashed to the grid cells its bounding box meets; the
    cells are stored as sorted keys with their face ids in ascending order.
    containing(pts) is the batched kernel: all (point, face) pairs where
    the closed face contains the point within tol, ordered by point and
    then face id.  locate(p) returns the lowest such face id or None.
    """

    def __init__(self, m: OrthodiagonalMap, tol: Optional[float] = None):
        self.m = m
        q = m.positions[m.faces]
        self.fmin = q.min(axis=1)
        self.fmax = q.max(axis=1)
        self.convex = _quads_convex(q)
        self.cell = max(m.mesh_eps * 2.0, 1e-12)
        self.tol = tol if tol is not None else 1e-12 * max(1.0, m.mesh_eps)
        lo = np.floor(self.fmin / self.cell).astype(np.int64)
        hi = np.floor(self.fmax / self.cell).astype(np.int64)
        self.origin = lo.min(axis=0)
        self.shape = hi.max(axis=0) - self.origin + 1
        # one (cell, face) entry per cell of each face's bounding box
        ny = hi[:, 1] - lo[:, 1] + 1
        count = (hi[:, 0] - lo[:, 0] + 1) * ny
        face = np.repeat(np.arange(m.n_faces, dtype=np.int64), count)
        k = np.arange(len(face)) - np.repeat(np.cumsum(count) - count, count)
        g = lo[face] - self.origin
        key = (g[:, 0] + k // ny[face]) * self.shape[1] + g[:, 1] + k % ny[face]
        order = np.lexsort((face, key))
        self.cell_keys, start = np.unique(key[order], return_index=True)
        self.cell_start = np.append(start, len(key))
        self.cell_faces = face[order]

    def _candidates(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point index, face id) pairs for the faces hashed to each
        point's cell, ordered by point and then face id."""
        g = np.floor(pts / self.cell) - self.origin
        ok = np.all((g >= 0) & (g < self.shape), axis=1)
        key = np.where(ok, g[:, 0] * self.shape[1] + g[:, 1], -1).astype(np.int64)
        slot = np.minimum(np.searchsorted(self.cell_keys, key), len(self.cell_keys) - 1)
        hit = np.flatnonzero(ok & (self.cell_keys[slot] == key))
        start = self.cell_start[slot[hit]]
        count = self.cell_start[slot[hit] + 1] - start
        first = np.repeat(start - (np.cumsum(count) - count), count)
        return np.repeat(hit, count), self.cell_faces[first + np.arange(len(first))]

    def _contains(self, pts: np.ndarray, pi: np.ndarray, fi: np.ndarray) -> np.ndarray:
        """Whether face fi[k] contains point pts[pi[k]] within tol: two
        triangles for convex faces, crossing number for the others."""
        c = self.m.positions[self.m.faces[fi]]
        p = pts[pi]
        out = np.empty(len(fi), dtype=bool)
        cv = self.convex[fi]
        cc, pc = c[cv], p[cv]
        out[cv] = (_triangles_contain(cc[:, 0], cc[:, 1], cc[:, 2], pc, self.tol)
                   | _triangles_contain(cc[:, 0], cc[:, 2], cc[:, 3], pc, self.tol))
        cn, pn = c[~cv], p[~cv][:, None, :]
        nxt = np.roll(cn, -1, axis=1)
        out[~cv] = ((geom.segment_distances(pn, cn, nxt).min(axis=1) <= self.tol)
                    | geom.ray_parity(pn, cn, nxt))
        return out

    def containing(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """All (point index, face id) pairs where the closed face contains
        the point within tol, ordered by point and then face id."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        out_p, out_f = [], []
        for s in range(0, len(pts), _BATCH_POINTS):
            pi, fi = self._candidates(pts[s:s + _BATCH_POINTS])
            keep = self._contains(pts[s:s + _BATCH_POINTS], pi, fi)
            out_p.append(pi[keep] + s)
            out_f.append(fi[keep])
        if not out_p:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        return np.concatenate(out_p), np.concatenate(out_f)

    def locate_many(self, pts) -> np.ndarray:
        """Per point, the lowest id of a face whose closed quadrilateral and
        bounding box (within tol) contain it, or -1."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        pi, fi = self.containing(pts)
        p = pts[pi]
        box = np.all((self.fmin[fi] - self.tol <= p) & (p <= self.fmax[fi] + self.tol), axis=1)
        return first_per_point(len(pts), pi[box], fi[box], -1)

    def locate(self, p) -> Optional[int]:
        fi = int(self.locate_many(p)[0])
        return None if fi < 0 else fi


# -- validation ---------------------------------------------------------------


def validate(m: OrthodiagonalMap) -> ValidationReport:
    """Check every structural invariant; returns a report, never raises.

    Reported violations: color alternation, diagonal orthogonality,
    face orientation, Euler characteristic / boundary simplicity,
    boundary-cycle consistency and the stored mesh_eps.  Non-convex faces
    are recorded separately (they are legal) because the area identity
    Area = |e_primal||e_dual| / 2 only holds when the diagonals cross.
    """
    rep = ValidationReport()
    q = m.positions[m.faces]                             # (f, 4, 2)
    cols = m.colors[m.faces]
    alternates = np.all(cols == [PRIMAL, DUAL, PRIMAL, DUAL], axis=1)
    d1, d2 = q[:, 2] - q[:, 0], q[:, 3] - q[:, 1]
    n1, n2 = np.hypot(d1[:, 0], d1[:, 1]), np.hypot(d2[:, 0], d2[:, 1])
    zero = (n1 == 0.0) | (n2 == 0.0)
    # the batched matmul rounds as the scalar d1 @ d2 does
    dot = np.abs((d1[:, None, :] @ d2[:, :, None])[:, 0, 0])
    skew = dot > TOL_ORTH * n1 * n2
    area = m.face_areas()
    clockwise = area <= 0
    for fi in np.flatnonzero(~alternates | zero | skew | clockwise).tolist():
        if not alternates[fi]:
            rep.add("color-alternation", (fi,), 0.0,
                    f"face {fi} colors {cols[fi].tolist()} do not alternate primal/dual")
        elif zero[fi]:
            rep.add("degenerate-diagonal", (fi,), 0.0, f"face {fi} has a zero-length diagonal")
        else:
            if skew[fi]:
                c = float(dot[fi] / (n1[fi] * n2[fi]))
                rep.add("orthogonality", (fi,), c, f"face {fi} diagonals meet at |cos|={c:.3e}")
            if clockwise[fi]:
                rep.add("orientation", (fi,), float(area[fi]),
                        f"face {fi} is not counterclockwise")
    rep.nonconvex_faces = np.flatnonzero(alternates & ~zero & ~_quads_convex(q)).tolist()

    used = np.unique(m.faces)
    if len(used) != m.n_vertices:
        rep.add("unused-vertices", tuple(set(range(m.n_vertices)) - set(used.tolist())), 0.0,
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


# -- marked maps ---------------------------------------------------------------


class MarkedRectangleMap:
    """OrthodiagonalMap with four marked primal boundary vertices A, B, C, D
    in counterclockwise boundary order, and the four derived arcs.

    arc_ab / arc_cd: primal vertices along the ccw boundary path from A to B
    (resp. C to D), endpoints included.  arc_bc / arc_da: dual vertices
    strictly between B and C (resp. D and A).
    """

    def __init__(self, m: OrthodiagonalMap, marked: Sequence[int]):
        self.map = m
        self.marked = tuple(int(x) for x in marked)
        if len(self.marked) != 4 or len(set(self.marked)) != 4:
            raise MapError("need four distinct marked vertices")
        for v in self.marked:
            if m.colors[v] != PRIMAL:
                raise MapError(f"marked vertex {v} is not primal")
            if v not in m.boundary:
                raise MapError(f"marked vertex {v} is not on the boundary")
        pos = {v: m.boundary.index(v) for v in self.marked}
        a, b, c, d = self.marked
        nb = len(m.boundary)
        order = sorted(self.marked, key=lambda v: (pos[v] - pos[a]) % nb)
        if order != [a, b, c, d]:
            raise MapError("marked vertices are not in counterclockwise order")
        self.arc_ab = self._primal_arc(a, b)
        self.arc_cd = self._primal_arc(c, d)
        self.arc_bc = self._dual_arc(b, c)
        self.arc_da = self._dual_arc(d, a)

    def _walk(self, start: int, stop: int) -> list[int]:
        cyc = self.map.boundary
        nb = len(cyc)
        i = cyc.index(start)
        out = [start]
        while cyc[i] != stop:
            i = (i + 1) % nb
            out.append(cyc[i])
        return out

    def _primal_arc(self, start: int, stop: int) -> list[int]:
        return [v for v in self._walk(start, stop) if self.map.colors[v] == PRIMAL]

    def _dual_arc(self, start: int, stop: int) -> list[int]:
        return [v for v in self._walk(start, stop)[1:-1] if self.map.colors[v] == DUAL]

    def boundary_chain(self, start: int, stop: int) -> np.ndarray:
        """Positions of all boundary vertices from start to stop, ccw."""
        return self.map.positions[np.array(self._walk(start, stop), dtype=np.int64)]

    def arc_chains(self) -> list[np.ndarray]:
        """Boundary chains [A..B], [B..C], [C..D], [D..A] as polylines."""
        a, b, c, d = self.marked
        return [self.boundary_chain(a, b), self.boundary_chain(b, c),
                self.boundary_chain(c, d), self.boundary_chain(d, a)]
