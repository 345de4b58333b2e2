"""Planar primitives shared by every module: points, polygons, containment,
point/segment distances and Hausdorff distance between polylines.

All predicates take an explicit tolerance.  Nothing here knows about meshes
or graphs; inputs are plain sequences of coordinates or numpy arrays of
shape (n, 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"

#: default relative tolerance, scaled by the domain diameter at call sites
DEFAULT_REL_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid geometric input (empty polyline, degenerate polygon, ...)."""


class Point2(NamedTuple):
    x: float
    y: float


def _as_points(pts: Iterable) -> np.ndarray:
    a = np.asarray(pts, dtype=float)
    if a.ndim == 1 and a.size == 2:
        a = a.reshape(1, 2)
    if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] == 0:
        raise GeometryError("expected a nonempty sequence of 2D points")
    if not np.all(np.isfinite(a)):
        raise GeometryError("coordinates must be finite")
    return a


def signed_area(pts: np.ndarray) -> float:
    """Shoelace signed area of a closed polygon (vertices not repeated)."""
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


#: pairs per block in the pairwise point/segment kernels; bounds every
#: (rows, segments) temporary independently of the input sizes
_BLOCK_PAIRS = 1 << 16


def _row_blocks(n_rows: int, n_cols: int):
    step = max(1, _BLOCK_PAIRS // max(n_cols, 1))
    for s in range(0, n_rows, step):
        yield slice(s, s + step)


def _orient(a, b, c):
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _proper_crossing(p1, p2, q1, q2) -> np.ndarray:
    """Elementwise (broadcasting over leading axes): do segments p1p2 and
    q1q2 cross at a single interior point of both?"""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return (((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
            & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0))


def _crossing_rows(ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """For each segment of ea (k, 2, 2), whether it properly crosses some
    segment of eb (m, 2, 2).  Blocked over the rows of ea."""
    out = np.zeros(len(ea), dtype=bool)
    for blk in _row_blocks(len(ea), len(eb)):
        e = ea[blk]
        out[blk] = _proper_crossing(e[:, None, 0], e[:, None, 1],
                                    eb[None, :, 0], eb[None, :, 1]).any(axis=1)
    return out


@dataclass(frozen=True)
class Polygon:
    """Simple polygon, normalized to counterclockwise orientation on
    construction.  Clockwise input is reversed rather than rejected."""

    vertices: np.ndarray

    def __init__(self, vertices: Iterable):
        pts = _as_points(vertices)
        if pts.shape[0] < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        area = signed_area(pts)
        if area == 0.0:
            raise GeometryError("polygon is degenerate (zero area)")
        if area < 0.0:
            pts = pts[::-1].copy()
        edges = np.stack([pts, np.roll(pts, -1, axis=0)], axis=1)
        d = edges[:, 1] - edges[:, 0]
        zero = np.hypot(d[:, 0], d[:, 1]) == 0.0
        bad = np.flatnonzero(zero | _crossing_rows(edges, edges))
        # edge i is checked for zero length before its crossings; proper
        # crossing is symmetric, so the lowest edge crossing any edge
        # crosses a later one
        if len(bad):
            raise GeometryError("polygon has a zero-length edge" if zero[bad[0]]
                                else "polygon is self-intersecting")
        object.__setattr__(self, "vertices", pts)

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    def edges(self) -> np.ndarray:
        """Array of shape (n, 2, 2): edge i runs vertices[i] -> vertices[i+1]."""
        return np.stack([self.vertices, np.roll(self.vertices, -1, axis=0)], axis=1)

    def diameter(self) -> float:
        v = self.vertices
        d = v[:, None, :] - v[None, :, :]
        return float(np.sqrt((d ** 2).sum(-1)).max())

    def area(self) -> float:
        return signed_area(self.vertices)

    def centroid(self) -> Point2:
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        xr, yr = np.roll(x, -1), np.roll(y, -1)
        cross = x * yr - xr * y
        a = cross.sum() / 2.0
        cx = float(((x + xr) * cross).sum() / (6.0 * a))
        cy = float(((y + yr) * cross).sum() / (6.0 * a))
        return Point2(cx, cy)


def point_segment_distance(p, a, b):
    """Exact distance from point p to segment [a, b].  p may also be an
    (n, 2) array of points, giving an (n,) array of distances."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        d = p - a
    else:
        # per point the same dot product as (p - a) @ ab
        t = ((p - a)[..., None, :] @ ab[:, None])[..., 0, 0] / denom
        d = p - (a + np.minimum(1.0, np.maximum(0.0, t))[..., None] * ab)
    out = np.hypot(d[..., 0], d[..., 1])
    return float(out) if out.ndim == 0 else out


def _segment_planes(a, b):
    """x and y planes of a and of b - a, and |b - a|^2 with 0 replaced by 1."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ax, ay = a[..., 0], a[..., 1]
    abx, aby = b[..., 0] - ax, b[..., 1] - ay
    denom = abx ** 2 + aby ** 2
    return ax, ay, abx, aby, np.where(denom == 0.0, 1.0, denom)


def _squared_distances(px, py, ax, ay, abx, aby, denom):
    """Elementwise (px - (ax + t * abx)) ** 2 + (py - (ay + t * aby)) ** 2
    with t = clip(((px - ax) * abx + (py - ay) * aby) / denom, 0, 1): the
    same operations and operand order, in place in two buffers of the
    shape of px - ax, which must be the full broadcast shape."""
    t, u = px - ax, py - ay
    t *= abx
    u *= aby
    t += u
    t /= denom
    np.clip(t, 0.0, 1.0, out=t)
    np.subtract(px, np.add(ax, np.multiply(t, abx, out=u), out=u), out=u)
    np.subtract(py, np.add(ay, np.multiply(t, aby, out=t), out=t), out=t)
    u *= u
    t *= t
    return np.add(u, t, out=t)


def segment_distances(p, a, b) -> np.ndarray:
    """Elementwise distance from p to segment [a, b]; a and b have one
    shape, p broadcasts against it over the leading axes, the last axis
    holds the coordinates.  The arithmetic runs on separate x and y
    planes, each sum over the coordinate axis written as x + y."""
    return np.sqrt(_squared_distances(p[..., 0], p[..., 1], *_segment_planes(a, b)))


def points_to_segments_distance(pts: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """Distances from each point to the nearest of the given segments.

    pts: (n, 2); seg_a, seg_b: (m, 2).  Returns (n,).  segment_distances'
    arithmetic on (rows, m) x and y planes, blocked over the points, so
    temporaries stay bounded for any n and m.  The minimum is taken over
    squared distances with one sqrt per point after it: sqrt is correctly
    rounded and monotone, so this is bitwise the minimum of the distances.
    """
    out = np.empty(len(pts))
    px, py = pts[:, 0, None], pts[:, 1, None]
    planes = _segment_planes(seg_a, seg_b)
    for blk in _row_blocks(len(pts), len(seg_a)):
        out[blk] = _squared_distances(px[blk], py[blk], *planes).min(axis=1)
    return np.sqrt(out)


def points_to_polyline_distance(pts: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    poly = _as_points(polyline)
    if poly.shape[0] == 1:
        return np.sqrt(((pts - poly[0]) ** 2).sum(-1))
    return points_to_segments_distance(pts, poly[:-1], poly[1:])


def polyline_min_distance(a, b) -> float:
    """Minimum Euclidean distance between two polylines (point sets): 0 when
    two segments cross properly, otherwise attained at a vertex of one."""
    pa, pb = _as_points(a), _as_points(b)
    if pa.shape[0] == 1 or pb.shape[0] == 1:
        return float(min(points_to_polyline_distance(pa, pb).min(),
                         points_to_polyline_distance(pb, pa).min()))
    ea, eb = np.stack([pa[:-1], pa[1:]], 1), np.stack([pb[:-1], pb[1:]], 1)
    if _crossing_rows(ea, eb).any():
        return 0.0
    return float(min(points_to_segments_distance(pa, eb[:, 0], eb[:, 1]).min(),
                     points_to_segments_distance(pb, ea[:, 0], ea[:, 1]).min()))


def ray_parity(p, a, b) -> np.ndarray:
    """Crossing-number parity: whether the ray from p towards +x crosses an
    odd number of the edges [a, b] under the half-open rule.  p, a and b
    broadcast; the edges run along the second-to-last axis."""
    x, y = p[..., 0], p[..., 1]
    x1, y1, x2, y2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    cond = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return (np.sum(cond & (x < xint), axis=-1) % 2) == 1


def points_in_ring(pts: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Even-odd containment of each of pts (n, 2) in the closed ring
    through the vertices ring (m, 2), by ray_parity.  Blocked over the
    points, so temporaries stay bounded for any n and m."""
    nxt = np.roll(ring, -1, axis=0)
    out = np.empty(len(pts), dtype=bool)
    for blk in _row_blocks(len(pts), len(ring)):
        out[blk] = ray_parity(pts[blk, None, :], ring[None], nxt[None])
    return out


def polygon_contains(poly: Polygon, p, tol: float) -> str:
    """Classify a point against a polygon: INSIDE, BOUNDARY or OUTSIDE.

    Points within tol of an edge report BOUNDARY; otherwise a crossing-number
    parity decides.
    """
    cls = polygon_contains_many(poly, _as_points([p]), tol)
    return cls[0]


def polygon_masks(poly: Polygon, pts, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Containment of many points as two masks: (on_boundary, inside),
    within tol of an edge and by crossing-number parity.  A point is
    BOUNDARY where on_boundary, else INSIDE where inside, else OUTSIDE."""
    pts, v = _as_points(pts), poly.vertices
    return (points_to_segments_distance(pts, v, np.roll(v, -1, axis=0)) <= tol,
            points_in_ring(pts, v))


def polygon_contains_many(poly: Polygon, pts, tol: float) -> list[str]:
    """Vectorized containment classification for many points."""
    on_boundary, inside = polygon_masks(poly, pts, tol)
    return np.where(on_boundary, BOUNDARY, np.where(inside, INSIDE, OUTSIDE)).tolist()


def _arclength(poly: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment vectors, segment lengths and cumulative arclength at the
    vertices of a polyline with at least two vertices."""
    seg = poly[1:] - poly[:-1]
    seg_len = np.sqrt((seg ** 2).sum(-1))
    return seg, seg_len, np.concatenate([[0.0], np.cumsum(seg_len)])


def _points_at(poly, seg, seg_len, cum, t: np.ndarray) -> np.ndarray:
    """Points at arclength parameters t; zero-length segments are skipped
    by the search and guarded in the division."""
    idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(seg_len) - 1)
    frac = (t - cum[idx]) / np.where(seg_len[idx] == 0.0, 1.0, seg_len[idx])
    return np.stack([poly[:, k][idx] + frac * seg[:, k][idx] for k in (0, 1)], 1)


def _sample_polyline(poly: np.ndarray, n_samples: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Uniform arclength samples plus all vertices.  Returns (points,
    parameters, spacing)."""
    if poly.shape[0] == 1:
        return poly, np.zeros(1), 0.0
    seg, seg_len, cum = _arclength(poly)
    total = cum[-1]
    if total == 0.0:
        return poly[:1], np.zeros(1), 0.0
    t = np.linspace(0.0, total, max(n_samples, 2))
    t = np.unique(np.concatenate([t, cum]))
    return _points_at(poly, seg, seg_len, cum, t), t, total / max(n_samples - 1, 1)


def _linspace17(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Row k equals np.linspace(start[k], stop[k], 17) bitwise: with 16
    intervals the step is an exact division, so numpy's separate rule for
    a zero step yields the same values."""
    y = np.arange(17.0) * ((stop - start) / 16)[:, None] + start[:, None]
    y[:, -1] = stop
    return y


def _directed_hausdorff(a: np.ndarray, b: np.ndarray, n_samples: int, rounds: int) -> float:
    """sup over points of a of the distance to b, by dense sampling with
    local refinement around the sampled maximizers (dist(., b) is
    1-Lipschitz along a).  Each round evaluates all candidates' 17-point
    neighbourhoods at once."""
    pts, params, spacing = _sample_polyline(a, n_samples)
    d = points_to_polyline_distance(pts, b)
    if a.shape[0] == 1 or spacing == 0.0:
        return float(d.max())

    seg, seg_len, cum = _arclength(a)
    best = float(d.max())
    half = spacing / 2.0
    # any unsampled point can exceed the sampled max by at most `half`
    cand = params[d >= best - spacing]
    for _ in range(rounds):
        if half <= 0.0:
            break
        tt = np.unique(_linspace17(np.maximum(cand - half, 0.0),
                                   np.minimum(cand + half, cum[-1])))
        d = points_to_polyline_distance(_points_at(a, seg, seg_len, cum, tt), b)
        best = max(best, float(d.max()))
        half /= 8.0
        cand = tt[d >= best - 2 * half]
        if len(cand) > 64:
            cand = cand[np.argsort(d[d >= best - 2 * half])[::-1][:64]]
    return best


def hausdorff_distance(a, b, n_samples: int = 1024, rounds: int = 8) -> float:
    """Symmetric Hausdorff distance between the point sets of two polylines,
    as a sampled lower estimate.

    Each direction samples n_samples uniform arclength points plus every
    vertex, with analytic point-to-segment minimization, then refines
    locally around the sampled maximizers for `rounds` rounds, keeping at
    most 64 candidates per round.  Up to rounding the result never exceeds
    the true distance, but it is not a certified upper bound: a maximizer
    missed by the sampling and the candidate cap is not recovered (see the
    certified-bound item in ROADMAP.md).
    """
    pa, pb = _as_points(a), _as_points(b)
    return max(_directed_hausdorff(pa, pb, n_samples, rounds),
               _directed_hausdorff(pb, pa, n_samples, rounds))
