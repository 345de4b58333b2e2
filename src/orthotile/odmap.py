"""Orthodiagonal map data structure: an embedded bipartite quadrangulation
with boundary, plus extraction of the weighted primal/dual graphs and the
four marked boundary arcs.

Faces are stored as ordered 4-tuples (v1, w1, v2, w2) in counterclockwise
order, normalized to start at a primal vertex; v1, v2 are the primal
diagonal, w1, w2 the dual diagonal.  Adjacency tables are derived lazily.
Every set of vertex ids (the boundary cycle, the four marked arcs) is one
int64 array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
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


def _side_key_counts(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The side keys of (f, 4) faces, ascending, and the number of faces
    using each side."""
    return np.unique(side_keys(faces.T.ravel(), np.roll(faces, -1, axis=1).T.ravel()),
                     return_counts=True)


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
    """Finite network: vertex ids with positions, edges with conductance
    and Euclidean length.  Edge k of a graph extracted from a map is the
    diagonal of face k.  Every walk over the graph reads the index arrays
    of adjacency(), built from edge_index."""

    ids: np.ndarray          # (n,) int64, sorted ascending
    positions: np.ndarray    # (n, 2)
    edge_u: np.ndarray       # (m,) int64 vertex ids
    edge_v: np.ndarray
    edge_c: np.ndarray       # conductances > 0
    edge_len: np.ndarray

    def __post_init__(self):
        if np.any(self.edge_c <= 0) or not np.all(np.isfinite(self.edge_c)):
            raise MapError("conductances must be positive and finite")

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return len(self.edge_u)

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints (iu, iv) as indices into ids (which is sorted)."""
        return np.searchsorted(self.ids, self.edge_u), np.searchsorted(self.ids, self.edge_v)

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The arcs out of each vertex as arrays (indptr, nbr, edge), built
        on each call: row i, the slice indptr[i]:indptr[i + 1], lists the
        arcs out of ids[i], with the neighbour's index in nbr, ascending,
        parallel arcs in edge order, and the arc's edge index in edge."""
        arc = np.stack(self.edge_index, axis=1)
        src, nbr = arc.ravel(), arc[:, ::-1].ravel()
        order = np.argsort(src * self.n + nbr, kind="stable")
        indptr = np.searchsorted(src[order], np.arange(self.n + 1))
        return indptr, nbr[order], order // 2


def component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Label each of n vertices with the smallest vertex index in its
    connected component, for the undirected edges (u[k], v[k]).

    Each round hooks the larger of two root labels met across an edge onto
    the smaller one, then jumps pointers until every label is a root."""
    lab = np.arange(n)
    while True:
        lu, lv = lab[u], lab[v]
        ne = lu != lv
        if not ne.any():
            return lab
        np.minimum.at(lab, np.maximum(lu[ne], lv[ne]), np.minimum(lu[ne], lv[ne]))
        while True:
            nxt = lab[lab]
            if np.array_equal(nxt, lab):
                break
            lab = nxt


def id_array(a, n: Optional[int], message: str, ndim: int = 1) -> np.ndarray:
    """The id rule of every id a map or tiling is given: a, as decoded from
    JSON, as an int64 array of ndim dimensions; MapError(message) unless
    every entry is an integer within int64 (not a float, string or boolean)
    and, when n is given, a vertex id in 0..n-1."""
    a = np.asarray(a)
    if (a.ndim != ndim or (a.size and a.dtype.kind != "i")
            or (n is not None and a.size and (a.min() < 0 or a.max() >= n))):
        raise MapError(message if n is None else f"{message} in 0..{n - 1}")
    return a.astype(np.int64, copy=False)


class OrthodiagonalMap:
    """Embedded quadrangulation with one exterior face.

    vertices: (n, 2) float positions, colors: (n,) 0=primal / 1=dual,
    faces: (f, 4) int vertex ids ccw starting primal, boundary: (b,) int64
    vertex ids tracing the outer face counterclockwise, both by id_array.
    """

    def __init__(self, positions, colors, faces, boundary):
        self.positions = np.asarray(positions, dtype=float)
        self.colors = np.asarray(colors, dtype=np.int64)
        n = len(self.positions)
        faces = id_array(faces, n, "faces must be 4-tuples of vertex ids", ndim=2)
        if faces.shape[1] != 4:
            raise MapError("faces must be 4-tuples of vertex ids")
        # a face given from a dual vertex starts one step later
        self.faces = np.where((self.colors[faces[:, 0]] == PRIMAL)[:, None],
                              faces, np.roll(faces, -1, axis=1))
        self.boundary = id_array(boundary, n, "boundary must be a flat list of vertex ids")
        self._caches: dict = {}

    # -- derived quantities ------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.positions.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def side_edges(self) -> np.ndarray:
        """Quadrilateral sides as a cached (e, 2) int64 array of unique
        vertex-id pairs, smaller id first, rows in ascending (a, b) order."""
        if "sides" not in self._caches:
            keys = _side_key_counts(self.faces)[0]
            self._caches["sides"] = np.stack([keys >> 32, keys & (2 ** 32 - 1)], axis=1)
        return self._caches["sides"]

    @cached_property
    def mesh_eps(self) -> float:
        """The longest face side, 0.0 without faces."""
        q = self.positions[self.faces]                     # (f, 4, 2)
        d = q - np.roll(q, -1, axis=1)
        return float(np.sqrt((d ** 2).sum(-1)).max(initial=0.0))

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
        return self.positions[np.append(self.boundary, self.boundary[:1])]

    # -- weighted graph extraction ------------------------------------------

    def extract(self, which: int) -> WeightedGraph:
        """Primal (which=PRIMAL) or dual (which=DUAL) weighted graph.

        One edge per interior face; conductance is the ratio of the
        opposite diagonal's Euclidean length to this one's.
        """
        key = ("graph", which)
        if key in self._caches:
            return self._caches[key]
        p, f = self.positions, self.faces
        # the diagonals of the given color are columns which, which + 2
        u, v, ou, ov = f[:, which], f[:, which + 2], f[:, 1 - which], f[:, 3 - which]
        own = np.sqrt(((p[u] - p[v]) ** 2).sum(-1))
        other = np.sqrt(((p[ou] - p[ov]) ** 2).sum(-1))
        if np.any(own == 0.0) or np.any(other == 0.0):
            bad = int(np.argmax((own == 0.0) | (other == 0.0)))
            raise MapError(f"face {bad} has a zero-length diagonal")
        c = other / own
        ids = np.flatnonzero(self.colors == which)
        g = WeightedGraph(ids, p[ids], u.astype(np.int64), v.astype(np.int64), c, own)
        self._caches[key] = g
        return g

    def extract_primal(self) -> WeightedGraph:
        return self.extract(PRIMAL)

    def extract_dual(self) -> WeightedGraph:
        return self.extract(DUAL)


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
        write_json_rows(fh, "boundary", "  %d", [m.boundary])
        if marked is not None:
            fh.write(",\n")
            marks = np.array([int(v) for v in marked], dtype=np.int64)
            write_json_rows(fh, "marked", "  %d", [marks])
        fh.write("\n}\n")


def load_rows(path: str, member: str, keys: frozenset, row) -> dict:
    """json.load(path), handing each object that carries all of keys to
    row(obj) as soon as it is decoded and leaving a marker in its place, so
    no row's container outlives its decode.  The top-level member must hold
    exactly those objects, else ValueError."""
    mark, n = object(), 0

    def hook(obj):
        nonlocal n
        if keys <= obj.keys():
            row(obj)
            n += 1
            return mark
        return obj

    with open(path, encoding="utf-8") as fh:
        d = json.load(fh, object_hook=hook)
    if list(d[member]) != [mark] * n:
        raise ValueError(f"{member} must hold all objects with keys {sorted(keys)}, and only those")
    return d


def load_map(path: str) -> tuple[OrthodiagonalMap, Optional[list[int]]]:
    """Read a save_map file, its vertex records straight into columns.
    MapError unless they carry each id of 0..n-1 once, colored "primal" or
    "dual", and faces, boundary and marked hold ids by id_array's rule."""
    ids, xy, color, code = [], ([], []), [], {"primal": PRIMAL, "dual": DUAL}.get

    def row(r):
        ids.append(r["id"])
        xy[0].append(r["x"])
        xy[1].append(r["y"])
        color.append(code(r["color"], -1))

    d = load_rows(path, "vertices", frozenset(("id", "x", "y", "color")), row)
    n = len(ids)
    ids = id_array(ids, n, "vertex record ids must be integers")
    # a repeated id leaves another one's color at -1
    colors = np.full(n, -1)
    colors[ids] = color
    if np.any(colors < 0):
        raise MapError(f'vertex records must carry each id of 0..{n - 1} once '
                       'and color "primal" or "dual"')
    pos = np.zeros((n, 2))
    pos[ids] = np.array(xy, dtype=float).swapaxes(0, 1)   # converted as (x, y) pairs are
    if not np.all(np.isfinite(pos)):
        raise MapError("vertex coordinates must be finite numbers")
    # free the value lists before the face lists are converted
    del xy, color
    m = OrthodiagonalMap(pos, colors, d.pop("faces"), d["boundary"])
    marked = (id_array(d["marked"], n, "marked must be a flat list of vertex ids").tolist()
              if "marked" in d and d["marked"] else None)
    return m, marked


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


def barycentric(a, b, c, p) -> tuple[np.ndarray, ...]:
    """Twice the signed area det of the triangle abc and the barycentric
    coordinates l1, l2, l3 of p in it, elementwise: the arguments broadcast
    over the leading axes and hold x, y on the last.  Where det is 0 the
    coordinates are not finite."""
    ax, ay, bx, by, cx, cy, px, py = (q[..., k] for q in (a, b, c, p) for k in (0, 1))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    with np.errstate(divide="ignore", invalid="ignore"):
        l1 = ((bx - px) * (cy - py) - (by - py) * (cx - px)) / det
        l2 = ((cx - px) * (ay - py) - (cy - py) * (ax - px)) / det
        return det, l1, l2, 1.0 - l1 - l2


def first_per_point(n: int, pi: np.ndarray, values: np.ndarray, fill) -> np.ndarray:
    """out[i] = values at the first pair of point i (pairs sorted by point),
    fill for points without a pair."""
    out = np.full(n, fill, dtype=values.dtype)
    pts, first = np.unique(pi, return_index=True)
    out[pts] = values[first]
    return out


class FaceLocator:
    """Point location over the faces of a map.

    containing(pts) is the batched kernel: all (point, face) pairs where
    the closed face contains the point within tol = 1e-12 max(1, mesh_eps),
    ordered by point and then face id; locate(p) returns the lowest such
    face id or None.  A face contains a point within tol of one of its
    sides, or inside it by crossing-number parity (geom's polygon rule), so
    only faces whose box padded by 2 tol (tol spared for rounding) holds the
    point are tested: a geom.BoxIndex of those boxes, in cells of side
    max(2 mesh_eps, 1e-12), finds them."""

    def __init__(self, m: OrthodiagonalMap):
        self.m = m
        q = m.positions[m.faces]
        self.tol = 1e-12 * max(1.0, m.mesh_eps)
        qlo, qhi = (f(f(q[:, 0], q[:, 1]), f(q[:, 2], q[:, 3])) for f in (np.minimum, np.maximum))
        self.index = geom.BoxIndex(qlo - 2 * self.tol, qhi + 2 * self.tol,
                                   max(m.mesh_eps * 2.0, 1e-12))

    def _contains(self, pts: np.ndarray, pi: np.ndarray, fi: np.ndarray) -> np.ndarray:
        """Whether face fi[k] contains point pts[pi[k]]: within tol of a
        side, or inside by crossing number."""
        c = self.m.positions[self.m.faces[fi]]
        p, nxt = pts[pi][:, None, :], np.roll(c, -1, axis=1)
        return ((geom.segment_distances(p, c, nxt).min(axis=1) <= self.tol)
                | geom.ray_parity(p, c, nxt))

    def containing(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """All (point index, face id) pairs where the closed face contains
        the point within tol, ordered by point and then face id."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        return self.index.pairs(pts, pts, lambda pi, fi: self._contains(pts, pi, fi))

    def locate_many(self, pts) -> np.ndarray:
        """Per point, the lowest id of a face that contains it (as in
        containing()), or -1."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        pi, fi = self.containing(pts)
        return first_per_point(len(pts), pi, fi, -1)

    def locate(self, p) -> Optional[int]:
        fi = int(self.locate_many(p)[0])
        return None if fi < 0 else fi


# -- validation ---------------------------------------------------------------


BOUNDARY_MISMATCH = "stored boundary cycle does not match the once-used face sides"


def boundary_mismatch(m: OrthodiagonalMap) -> int:
    """Number of sides in one but not both of the stored boundary cycle and
    the faces' once-used sides; 0 when the two side sets agree.  Nothing is
    cached on m, so a solve that checks its input holds no side table."""
    keys, counts = _side_key_counts(m.faces)
    return len(np.setxor1d(side_keys(m.boundary, np.roll(m.boundary, -1)), keys[counts == 1]))


def validate(m: OrthodiagonalMap) -> ValidationReport:
    """Check every structural invariant; returns a report, never raises.

    Reported violations: color alternation, diagonal orthogonality,
    face orientation, Euler characteristic / boundary simplicity and
    boundary-cycle consistency.  Non-convex faces are recorded separately
    (they are legal) because the area identity
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

    euler = m.n_vertices - len(m.side_edges()) + (m.n_faces + 1)
    if euler != 2:
        rep.add("euler", (), float(euler),
                f"V - E + F = {euler} != 2; map is not simply connected")

    if len(np.unique(m.boundary)) != len(m.boundary):
        rep.add("boundary-not-simple", (), 0.0, "boundary cycle repeats a vertex")
    mismatch = boundary_mismatch(m)
    if mismatch:
        rep.add("boundary-mismatch", (), float(mismatch), BOUNDARY_MISMATCH)
    else:
        ring = m.boundary_polyline()
        if geom.signed_area(ring[:-1]) <= 0:
            rep.add("boundary-orientation", (), 0.0, "boundary cycle is not counterclockwise")
    return rep


# -- marked maps ---------------------------------------------------------------


class MarkedRectangleMap:
    """OrthodiagonalMap with four marked primal boundary vertices A, B, C, D
    in counterclockwise boundary order, and the four derived arcs.

    walks: the boundary cycle rolled to start at A, cut into the four ccw
    walks [A..B], [B..C], [C..D], [D..A] (int64 arrays, ends included).
    arc_ab / arc_cd: the primal vertices of the walk A..B (resp. C..D).
    arc_bc / arc_da: the dual vertices of the walk B..C (resp. D..A); the
    ends are primal, so these lie strictly between them.
    """

    def __init__(self, m: OrthodiagonalMap, marked: Sequence[int]):
        self.map = m
        self.marked = tuple(int(x) for x in marked)
        if len(self.marked) != 4 or len(set(self.marked)) != 4:
            raise MapError("need four distinct marked vertices")
        cyc = m.boundary
        at = []
        for v in self.marked:
            if m.colors[v] != PRIMAL:
                raise MapError(f"marked vertex {v} is not primal")
            hits = np.flatnonzero(cyc == v)
            if len(hits) == 0:
                raise MapError(f"marked vertex {v} is not on the boundary")
            if len(hits) > 1:
                raise MapError(f"marked vertex {v} appears {len(hits)} times on the boundary cycle")
            at.append(int(hits[0]))
        rel = (np.array(at) - at[0]) % len(cyc)
        if not rel[1] < rel[2] < rel[3]:
            raise MapError("marked vertices are not in counterclockwise order")
        ring = np.append(np.roll(cyc, -at[0]), self.marked[0])
        ends = [*rel.tolist(), len(cyc)]
        w = self.walks = [ring[ends[i]:ends[i + 1] + 1] for i in range(4)]
        self.arc_ab, self.arc_cd = (w[i][m.colors[w[i]] == PRIMAL] for i in (0, 2))
        self.arc_bc, self.arc_da = (w[i][m.colors[w[i]] == DUAL] for i in (1, 3))
        if not (len(self.arc_bc) and len(self.arc_da)):
            raise MapError("the boundary has no dual vertex between B and C or between D and A")

    def arc_chains(self) -> list[np.ndarray]:
        """Boundary chains [A..B], [B..C], [C..D], [D..A] as polylines."""
        return [self.map.positions[w] for w in self.walks]
