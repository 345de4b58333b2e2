"""Generate interior square-grid orthodiagonal approximations of polygonal
domains with four marked boundary points, plus a computable approximation
certificate.

The generator emits the 45-degree-rotated square quadrangulation: vertices
live on the half-step lattice anchored at the bounding-box corner, faces
are axis-aligned diamonds of diagonal eps (side eps / sqrt(2)), and all
conductances are exactly 1.  A face is kept when its closure lies inside
the polygon; the kept set is restricted to the connected component nearest
the domain centroid, and the result must be simply connected or generation
fails with instructions to refine eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from . import geom
from .geom import Polygon
from .odmap import (DUAL, PRIMAL, MapError, MarkedRectangleMap, OrthodiagonalMap,
                    load_json, save_json, trace_boundary)


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
        params = []
        for p in marks:
            s, d = _boundary_parameter(poly, p)
            if d > tol:
                raise geom.GeometryError(
                    f"marked point {tuple(p)} is {d:.3e} away from the boundary")
            params.append(s)
        rel = [(params[i] - params[0]) % _perimeter(poly) for i in range(4)]
        if not (rel[1] < rel[2] < rel[3]) or min(rel[1:]) <= 0:
            raise geom.GeometryError("marked points are not in counterclockwise order")
        object.__setattr__(self, "boundary", poly)
        object.__setattr__(self, "marked_points", marks)
        object.__setattr__(self, "_params", tuple(params))

    def arc_polyline(self, i: int) -> np.ndarray:
        """Continuous boundary arc from marked point i to i+1 (ccw)."""
        return _boundary_arc(self.boundary, self._params[i], self._params[(i + 1) % 4])

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
    """Interior approximation certificate: mesh bound eps, the four
    per-arc Hausdorff distances (discrete vs continuous arc, in the order
    AB, BC, CD, DA) and the crosscut bound delta = 2 * max of them, valid
    for interior approximations."""

    eps: float
    delta: float
    per_arc_hausdorff: tuple[float, float, float, float]
    interior: bool = True

    def to_json_dict(self) -> dict:
        return {"eps": self.eps, "delta": self.delta,
                "per_arc_hausdorff": list(self.per_arc_hausdorff),
                "interior": self.interior}


# -- boundary parameterization ------------------------------------------------


def _perimeter(poly: Polygon) -> float:
    v = poly.vertices
    return float(np.sqrt(((np.roll(v, -1, axis=0) - v) ** 2).sum(-1)).sum())


def _boundary_parameter(poly: Polygon, p) -> tuple[float, float]:
    """Arclength parameter of the boundary point nearest to p, and the
    distance to it."""
    v = poly.vertices
    a = v
    b = np.roll(v, -1, axis=0)
    ab = b - a
    denom = (ab ** 2).sum(-1)
    t = np.clip(((np.asarray(p) - a) * ab).sum(-1) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    d = np.sqrt(((np.asarray(p) - proj) ** 2).sum(-1))
    k = int(np.argmin(d))
    seg_len = np.sqrt(denom)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    return float(cum[k] + t[k] * seg_len[k]), float(d[k])


def _boundary_arc(poly: Polygon, s0: float, s1: float) -> np.ndarray:
    """Boundary sub-polyline from parameter s0 ccw to s1."""
    v = poly.vertices
    nxt = np.roll(v, -1, axis=0)
    seg_len = np.sqrt(((nxt - v) ** 2).sum(-1))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]

    def point_at(s: float) -> np.ndarray:
        s = s % total
        k = int(np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg_len) - 1))
        return v[k] + ((s - cum[k]) / seg_len[k]) * (nxt[k] - v[k])

    span = (s1 - s0) % total
    if span == 0.0:
        span = total
    rel = (cum[:-1] - s0) % total
    slack = 1e-12 * total
    inside = np.flatnonzero((rel > slack) & (rel < span - slack))
    inside = inside[np.argsort(rel[inside])]
    pts = [point_at(s0)] + [v[k] for k in inside] + [point_at(s0 + span)]
    arr = np.array(pts)
    keep = np.ones(len(arr), dtype=bool)
    keep[1:] = np.sqrt(((arr[1:] - arr[:-1]) ** 2).sum(-1)) > slack
    return arr[keep]


# -- the generator -------------------------------------------------------------


def _kept_faces(poly: Polygon, eps: float, tol: float):
    """Lattice setup and the boolean keep-mask over candidate face centers.

    Returns (h, origin, centers_ij) where centers_ij is an (f, 2) integer
    array of kept face centers in half-step lattice coordinates.
    """
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

    # centers strictly inside
    on_boundary, inside = geom.polygon_masks(poly, np.stack([cx, cy], 1), tol)
    keep = inside & ~on_boundary

    # all four corners inside or on the boundary
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        on_boundary, inside = geom.polygon_masks(poly, np.stack([cx + di * h, cy + dj * h], 1), tol)
        keep &= on_boundary | inside

    # no polygon edge may penetrate the open diamond: clip each edge to the
    # diamond (a square in the rotated frame u = dx + dy, v = dx - dy with
    # |u|, |v| <= h) and inspect the clip midpoint's slack
    edges = poly.edges()
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


def _largest_component_near(centers_ij: np.ndarray, centers_xy: np.ndarray,
                            target_xy) -> np.ndarray:
    """Indices of the kept-face component nearest to target_xy; ties broken
    by smallest face index."""
    nfc = len(centers_ij)
    key = centers_ij[:, 0].astype(np.int64) * (2 ** 32) + centers_ij[:, 1]
    order = np.argsort(key)
    sorted_key = key[order]
    rows, cols = [], []
    for di, dj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        nbr = (centers_ij[:, 0] + di).astype(np.int64) * (2 ** 32) + (centers_ij[:, 1] + dj)
        pos = np.searchsorted(sorted_key, nbr)
        pos = np.clip(pos, 0, nfc - 1)
        hit = sorted_key[pos] == nbr
        rows.append(np.flatnonzero(hit))
        cols.append(order[pos[hit]])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    adjm = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(nfc, nfc))
    ncomp, labels = csgraph.connected_components(adjm, directed=False)
    if ncomp == 1:
        return np.arange(nfc)
    d = np.sqrt(((centers_xy - np.asarray(target_xy)) ** 2).sum(-1))
    best_label, best = None, (math.inf, math.inf)
    for lab in range(ncomp):
        sel = labels == lab
        cand = (float(d[sel].min()), float(np.flatnonzero(sel)[0]))
        if cand < best:
            best, best_label = cand, lab
    return np.flatnonzero(labels == best_label)


def grid_approximation(spec: DomainSpec, eps: float) -> tuple[MarkedRectangleMap,
                                                              ApproximationCertificate]:
    """Build the interior diamond-grid approximation at mesh eps.

    Raises GenerationError when the kept cell set is empty, not simply
    connected, has fewer than four distinct primal boundary vertices, or
    the marked points collapse onto fewer than four discrete vertices;
    in each case the fix is a smaller eps.
    """
    poly = spec.boundary
    diam = poly.diameter()
    if not (eps > 0):
        raise GenerationError("eps must be positive")
    tol = geom.DEFAULT_REL_TOL * diam

    h, (x0, y0), centers = _kept_faces(poly, eps, tol)
    if len(centers) == 0:
        raise GenerationError("no grid cell lies inside the domain: refine eps")

    centers_xy = np.stack([x0 + centers[:, 0] * h, y0 + centers[:, 1] * h], 1)
    comp = _largest_component_near(centers, centers_xy, poly.centroid())
    centers = centers[comp]

    # vertices: the four corners of each kept diamond, deduplicated and
    # id-ordered by (i, j)
    ci, cj = centers[:, 0], centers[:, 1]
    corner_i = np.concatenate([ci + 1, ci, ci - 1, ci])
    corner_j = np.concatenate([cj, cj + 1, cj, cj - 1])
    vkey = corner_i.astype(np.int64) * (2 ** 32) + corner_j
    uniq, inverse = np.unique(vkey, return_inverse=True)
    vi = (uniq // (2 ** 32)).astype(np.int64)
    vj = (uniq - vi * (2 ** 32)).astype(np.int64)
    positions = np.stack([x0 + vi * h, y0 + vj * h], 1)
    colors = np.where(vi % 2 == 0, PRIMAL, DUAL)

    nfc = len(centers)
    east = inverse[0 * nfc:1 * nfc]
    north = inverse[1 * nfc:2 * nfc]
    west = inverse[2 * nfc:3 * nfc]
    south = inverse[3 * nfc:4 * nfc]
    # ccw starting at a primal corner: east corner has i odd when the
    # center column is even, so the two face classes start differently
    faces = np.where((ci % 2 == 1)[:, None],
                     np.stack([east, north, west, south], 1),
                     np.stack([north, west, south, east], 1))

    try:
        boundary = trace_boundary(faces)
    except MapError as exc:
        raise GenerationError(f"{exc}: refine eps") from exc
    m = OrthodiagonalMap(positions, colors, faces, boundary)

    n_e = len(m.side_edges())
    if m.n_vertices - n_e + (m.n_faces + 1) != 2:
        raise GenerationError("kept cells are not simply connected: refine eps")

    primal_boundary = [b for b in boundary if colors[b] == PRIMAL]
    if len(set(primal_boundary)) < 4:
        raise GenerationError("fewer than 4 distinct primal boundary vertices: refine eps")

    marked = []
    pb = np.array(sorted(set(primal_boundary)), dtype=np.int64)
    for p in spec.marked_points:
        d = np.sqrt(((positions[pb] - p) ** 2).sum(-1))
        best = d.min()
        cand = pb[d <= best + 1e-12 * max(diam, 1.0)]
        marked.append(int(cand.min()))
    if len(set(marked)) != 4:
        raise GenerationError("marked points collapse onto fewer than 4 vertices: refine eps")

    try:
        mm = MarkedRectangleMap(m, marked)
    except MapError as exc:
        raise GenerationError(f"marked vertices unusable at this eps: {exc}") from exc

    per_arc = _per_arc_hausdorff(spec, mm)
    cert = ApproximationCertificate(eps=float(eps), delta=2.0 * max(per_arc),
                                    per_arc_hausdorff=tuple(per_arc))
    return mm, cert


def _per_arc_hausdorff(spec: DomainSpec, mm: MarkedRectangleMap) -> list[float]:
    """Hausdorff distance of each discrete arc polyline to its continuous
    counterpart, in arc order AB, BC, CD, DA (primal, dual, primal, dual)."""
    pos = mm.map.positions
    discrete = [pos[np.array(mm.arc_ab, dtype=np.int64)],
                pos[np.array(mm.arc_bc, dtype=np.int64)],
                pos[np.array(mm.arc_cd, dtype=np.int64)],
                pos[np.array(mm.arc_da, dtype=np.int64)]]
    out = []
    for i, disc in enumerate(discrete):
        cont = spec.arc_polyline(i)
        out.append(geom.hausdorff_distance(disc, cont))
    return out


def refine_sequence(spec: DomainSpec, eps0: float, levels: int
                    ) -> list[tuple[MarkedRectangleMap, ApproximationCertificate]]:
    """Level k uses eps = eps0 * 2**-k; generation errors propagate."""
    if levels < 1:
        raise GenerationError("levels must be >= 1")
    return [grid_approximation(spec, eps0 * 2.0 ** (-k)) for k in range(levels)]
