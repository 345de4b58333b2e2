"""Generate interior square-grid orthodiagonal approximations of polygonal
domains with four marked boundary points, plus a computable approximation
certificate.

The generator emits the 45-degree-rotated square quadrangulation: vertices
live on the half-step lattice anchored at the bounding-box corner, faces
are axis-aligned diamonds of diagonal eps (side eps / sqrt(2)), and all
conductances are exactly 1.  A face is kept when its closure lies inside
the polygon (its center inside by crossing parity, at L1 distance at least
eps / 2 - tol from every edge); the kept set is restricted to the connected
component nearest the domain centroid, and the result must be simply
connected or generation fails with instructions to refine eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom
from .geom import Polygon
from .odmap import (DUAL, PRIMAL, MapError, MarkedRectangleMap, OrthodiagonalMap,
                    component_labels, load_json, save_json, trace_boundary)


class GenerationError(RuntimeError):
    """Mesh too coarse for the domain: refine eps and retry."""


@dataclass(frozen=True)
class DomainSpec:
    """Polygonal conformal rectangle: a simple polygon and four marked
    boundary points A, B, C, D in counterclockwise order."""

    boundary: Polygon
    marked_points: np.ndarray  # (4, 2)

    def __init__(self, boundary, marked_points):
        poly = boundary if isinstance(boundary, Polygon) else Polygon(boundary)
        marks = np.asarray(marked_points, dtype=float)
        if marks.shape != (4, 2):
            raise geom.GeometryError("need exactly four marked points")
        tol = 1e-9 * max(poly.diameter(), 1.0)
        ring = _ring_arclength(poly)
        params = []
        for p in marks:
            s, d = _boundary_parameter(ring, p)
            if d > tol:
                raise geom.GeometryError(
                    f"marked point {tuple(p)} is {d:.3e} away from the boundary")
            params.append(s)
        rel = [(params[i] - params[0]) % ring[3][-1] for i in range(4)]
        if not (rel[1] < rel[2] < rel[3]) or min(rel[1:]) <= 0:
            raise geom.GeometryError("marked points are not in counterclockwise order")
        arcs = tuple(_boundary_arc(ring, params[i], params[(i + 1) % 4]) for i in range(4))
        for arc in arcs:
            arc.flags.writeable = False
        object.__setattr__(self, "boundary", poly)
        object.__setattr__(self, "marked_points", marks)
        object.__setattr__(self, "_arcs", arcs)

    def arc_polyline(self, i: int) -> np.ndarray:
        """Continuous boundary arc from marked point i to i+1 (ccw), built
        once per spec and read-only."""
        return self._arcs[i]

    def to_json_dict(self) -> dict:
        return {"polygon": [[float(x), float(y)] for x, y in self.boundary.vertices],
                "marked": [[float(x), float(y)] for x, y in self.marked_points]}

    @staticmethod
    def from_json_dict(d: dict) -> "DomainSpec":
        return DomainSpec(d["polygon"], d["marked"])


def save_domain(path: str, spec: DomainSpec) -> None:
    save_json(path, spec.to_json_dict())


def load_domain(path: str) -> DomainSpec:
    return DomainSpec.from_json_dict(load_json(path))


@dataclass(frozen=True)
class ApproximationCertificate:
    """Interior approximation certificate: mesh bound eps, the four per-arc
    Hausdorff distances (discrete vs continuous arc, in the order AB, BC,
    CD, DA), certified upper bounds by geom.hausdorff_distance and its
    margin, and the crosscut bound delta = 2 * max of them, valid for
    interior approximations."""

    eps: float
    delta: float
    per_arc_hausdorff: tuple[float, float, float, float]
    interior: bool = True

    def to_json_dict(self) -> dict:
        return {"eps": self.eps, "delta": self.delta,
                "per_arc_hausdorff": list(self.per_arc_hausdorff),
                "interior": self.interior}


# -- boundary parameterization ------------------------------------------------


def _ring_arclength(poly: Polygon):
    """The closed vertex ring of poly and its geom._arclength: segment
    vectors, lengths and cumulative arclength (the perimeter last)."""
    ring = np.vstack([poly.vertices, poly.vertices[:1]])
    return (ring, *geom._arclength(ring))


def _boundary_parameter(ring_arclength, p) -> tuple[float, float]:
    """Arclength parameter of the boundary point nearest to p, and the
    distance to it, on a polygon given by its _ring_arclength."""
    ring, _, seg_len, cum = ring_arclength
    ax, ay, abx, aby, denom = geom._segment_planes(ring[:-1], ring[1:])
    px, py = (float(c) for c in p)
    d = np.sqrt(geom._squared_distances(px, py, ax, ay, abx, aby, denom))
    k = int(np.argmin(d))
    t = min(max(((px - ax[k]) * abx[k] + (py - ay[k]) * aby[k]) / denom[k], 0.0), 1.0)
    return float(cum[k] + t * seg_len[k]), float(d[k])


def _boundary_arc(ring_arclength, s0: float, s1: float) -> np.ndarray:
    """Boundary sub-polyline from parameter s0 ccw to s1, on a polygon
    given by its _ring_arclength."""
    ring, seg, seg_len, cum = ring_arclength
    total = cum[-1]
    span = (s1 - s0) % total
    if span == 0.0:
        span = total
    rel = (cum[:-1] - s0) % total
    slack = 1e-12 * total
    inside = np.flatnonzero((rel > slack) & (rel < span - slack))
    inside = inside[np.argsort(rel[inside])]
    ends = geom._points_at(ring, seg, seg_len, cum, np.array([s0, s0 + span]) % total)
    arr = np.vstack([ends[:1], ring[inside], ends[1:]])
    keep = np.ones(len(arr), dtype=bool)
    keep[1:] = np.sqrt(((arr[1:] - arr[:-1]) ** 2).sum(-1)) > slack
    return arr[keep]


# -- the generator -------------------------------------------------------------


def _kept_faces(poly: Polygon, eps: float, tol: float):
    """Lattice setup and the kept face centers; GenerationError unless eps
    and the lattice's extent in steps are finite.

    The closed diamond {p : |p - c|_1 <= h} lies in the closed polygon
    exactly when c does and every edge is at L1 distance at least h from
    c.  So a center is kept when it is inside by crossing parity and its
    L1 clearance is at least h - tol; that exceeds tol, so no kept center
    lies on the boundary, where parity could go either way.

    Returns (h, origin, centers_ij): the kept centers (i, j), i + j odd,
    i in 0..nx, j in 0..ny, in half-step lattice coordinates and
    lexicographic order, as an (f, 2) integer array.
    """
    h = eps / 2.0
    v = poly.vertices
    x0, y0 = float(v[:, 0].min()), float(v[:, 1].min())
    x1, y1 = float(v[:, 0].max()), float(v[:, 1].max())
    if not (math.isfinite(eps) and math.isfinite(max(x1 - x0, y1 - y0) / h)):
        raise GenerationError(f"eps = {eps!r} gives no finite lattice over the domain")
    nx = int(math.floor((x1 - x0) / h + 0.5)) + 1
    ny = int(math.floor((y1 - y0) / h + 0.5)) + 1

    ci, cj = np.nonzero(np.add.outer(np.arange(nx + 1), np.arange(ny + 1)) % 2 == 1)
    pts = np.stack([x0 + ci * h, y0 + cj * h], 1)
    idx = np.flatnonzero(geom.points_in_ring(pts, v))
    idx = idx[geom.points_to_segments_l1(pts[idx], v, np.roll(v, -1, axis=0)) >= h - tol]
    return h, (x0, y0), np.stack([ci[idx], cj[idx]], 1)


def _largest_component_near(centers_ij: np.ndarray, h: float, origin, target_xy) -> np.ndarray:
    """Indices of the kept-face component nearest to target_xy, its centres
    at origin + h (i, j); ties broken by smallest face index.  centers_ij is
    in lexicographic order, so its keys i * 2**32 + j ascend."""
    nfc = len(centers_ij)
    key = centers_ij[:, 0].astype(np.int64) * (2 ** 32) + centers_ij[:, 1]
    rows, cols = [], []
    for nbr in (key + (2 ** 32 + 1), key + (2 ** 32 - 1)):    # (i + 1, j + 1), (i + 1, j - 1)
        pos = np.minimum(np.searchsorted(key, nbr), nfc - 1)
        hit = key[pos] == nbr
        rows.append(np.flatnonzero(hit))
        cols.append(pos[hit])
    labels = component_labels(nfc, np.concatenate(rows), np.concatenate(cols))
    # a component is named by its smallest face index, so the first
    # minimum of its distance breaks ties by that index
    d = np.sqrt(((np.asarray(origin) + centers_ij * h - np.asarray(target_xy)) ** 2).sum(-1))
    dmin = np.full(nfc, math.inf)
    np.minimum.at(dmin, labels, d)
    return np.flatnonzero(labels == np.argmin(dmin))


def grid_approximation(spec: DomainSpec, eps: float) -> tuple[MarkedRectangleMap,
                                                              ApproximationCertificate]:
    """Build the interior diamond-grid approximation at mesh eps.

    Raises GenerationError when eps is not positive or gives no finite
    lattice, and when the kept cell set is empty, not simply connected,
    has fewer than four distinct primal boundary vertices, or the marked
    points collapse onto fewer than four discrete vertices; in those four
    cases the fix is a smaller eps.
    """
    poly = spec.boundary
    diam = poly.diameter()
    if not (eps > 0):
        raise GenerationError("eps must be positive")
    tol = geom.DEFAULT_REL_TOL * diam

    h, (x0, y0), centers = _kept_faces(poly, eps, tol)
    if len(centers) == 0:
        raise GenerationError("no grid cell lies inside the domain: refine eps")

    centers = centers[_largest_component_near(centers, h, (x0, y0), poly.centroid())]

    # vertices: the four corners of each kept diamond, deduplicated and
    # id-ordered by (i, j)
    ci, cj = centers[:, 0], centers[:, 1]
    corner_i = np.concatenate([ci + 1, ci, ci - 1, ci])
    corner_j = np.concatenate([cj, cj + 1, cj, cj - 1])
    vkey = corner_i.astype(np.int64) * (2 ** 32) + corner_j
    uniq, inverse = np.unique(vkey, return_inverse=True)
    vi, vj = uniq >> 32, uniq & (2 ** 32 - 1)
    positions = np.stack([x0 + vi * h, y0 + vj * h], 1)
    colors = np.where(vi % 2 == 0, PRIMAL, DUAL)

    nfc = len(centers)
    # each diamond ccw from its east corner, which is dual when the centre
    # column is even: OrthodiagonalMap starts those faces one step later
    faces = inverse.reshape(4, nfc).T

    try:
        boundary = trace_boundary(faces)
    except MapError as exc:
        raise GenerationError(f"{exc}: refine eps") from exc
    # V - E + F = 2 with F = f + 1, and E = (4f + b) / 2 because a lattice
    # side bounds at most two kept diamonds: the b boundary sides one, the
    # rest two
    if 2 * len(positions) - 2 * nfc - len(boundary) != 2:
        raise GenerationError("kept cells are not simply connected: refine eps")
    m = OrthodiagonalMap(positions, colors, faces, boundary)

    pb = np.unique(m.boundary[colors[m.boundary] == PRIMAL])
    if len(pb) < 4:
        raise GenerationError("fewer than 4 distinct primal boundary vertices: refine eps")

    marked = []
    for p in spec.marked_points:
        d = np.sqrt(((positions[pb] - p) ** 2).sum(-1))
        marked.append(int(pb[d <= d.min() + 1e-12 * max(diam, 1.0)].min()))
    if len(set(marked)) != 4:
        raise GenerationError("marked points collapse onto fewer than 4 vertices: refine eps")

    try:
        mm = MarkedRectangleMap(m, marked)
    except MapError as exc:
        raise GenerationError(f"marked vertices unusable at this eps: {exc}") from exc

    per_arc = [geom.hausdorff_distance(positions[a], spec.arc_polyline(i))
               for i, a in enumerate((mm.arc_ab, mm.arc_bc, mm.arc_cd, mm.arc_da))]
    cert = ApproximationCertificate(eps=float(eps), delta=2.0 * max(per_arc),
                                    per_arc_hausdorff=tuple(per_arc))
    return mm, cert
