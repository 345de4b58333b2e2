"""Planar primitives shared by every module: polygons, containment,
point/segment distances and Hausdorff distance between polylines.

All predicates take an explicit tolerance.  Nothing here knows about meshes
or graphs; inputs are plain sequences of coordinates or numpy arrays of
shape (n, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"

#: default relative tolerance, scaled by the domain diameter at call sites
DEFAULT_REL_TOL = 1e-9
#: hausdorff_distance's rounding margin relative to the largest coordinate
#: magnitude; its points' and distances' rounding stays under 11 eps of it
HAUSDORFF_MARGIN = 16 * 2.0 ** -52


class GeometryError(ValueError):
    """Invalid geometric input (empty polyline, degenerate polygon, ...)."""


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
    construction.  Clockwise input is reversed rather than rejected.  A ring
    with a zero-length edge, two edges that cross, or a vertex on an edge it
    is not an end of (orientation 0 and inside the edge's closed box) is
    rejected: that covers repeated vertices, a vertex touching an edge and
    zero-width slits."""

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
        nxt = np.roll(pts, -1, axis=0)
        if (pts == nxt).all(axis=1).any():
            raise GeometryError("polygon has a zero-length edge")
        n = len(pts)
        lo, hi = np.minimum(pts, nxt), np.maximum(pts, nxt)
        far = 0.0
        # one pass over blocks of edges i: crossings, the vertices k on edge
        # i that are not its ends, and the squared distances from vertex i
        for blk in _row_blocks(n, n):
            a, b = pts[blk, None], nxt[blk, None]
            i, k = np.nonzero(_orient(a, b, pts[None]) == 0.0)
            i += blk.start
            on_edge = ((k != i) & (k != (i + 1) % n)
                       & (pts[k] >= lo[i]).all(axis=1) & (pts[k] <= hi[i]).all(axis=1))
            if on_edge.any() or _proper_crossing(a, b, pts[None], nxt[None]).any():
                raise GeometryError("polygon is self-intersecting")
            dx, dy = (np.subtract.outer(pts[blk, j], pts[:, j]) for j in (0, 1))
            far = max(far, float((dx * dx + dy * dy).max()))
        object.__setattr__(self, "vertices", pts)
        object.__setattr__(self, "_diameter", math.sqrt(far))

    def diameter(self) -> float:
        """Largest distance between two vertices (the square root of the
        largest squared distance: sqrt is correctly rounded and monotone)."""
        return self._diameter

    def area(self) -> float:
        return signed_area(self.vertices)

    def centroid(self) -> tuple[float, float]:
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        xr, yr = np.roll(x, -1), np.roll(y, -1)
        cross = x * yr - xr * y
        a = cross.sum() / 2.0
        cx = float(((x + xr) * cross).sum() / (6.0 * a))
        cy = float(((y + yr) * cross).sum() / (6.0 * a))
        return cx, cy


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


def _squared_blocks(pts: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray):
    """Row blocks of pts (n, 2) and their squared distances to the segments
    (m, 2) on (rows, m) planes: temporaries stay bounded for any n and m."""
    px, py = pts[:, 0, None], pts[:, 1, None]
    planes = _segment_planes(seg_a, seg_b)
    for blk in _row_blocks(len(pts), len(seg_a)):
        yield blk, _squared_distances(px[blk], py[blk], *planes)


def points_to_segments_distance(pts: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """Distances from each point to the nearest of the given segments.

    pts: (n, 2); seg_a, seg_b: (m, 2).  Returns (n,).  The minimum is taken
    over squared distances with one sqrt per point after it: sqrt is
    correctly rounded and monotone, so this is bitwise the minimum of the
    distances.
    """
    out = np.empty(len(pts))
    for blk, sq in _squared_blocks(pts, seg_a, seg_b):
        out[blk] = sq.min(axis=1)
    return np.sqrt(out)


def points_to_segments_l1(pts: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """L1 distances from each point to the nearest of the given segments.

    pts: (n, 2); seg_a, seg_b: (m, 2).  Returns (n,).  With u, v = p - a
    and dx, dy = b - a, f(t) = |t dx - u| + |t dy - v| is convex and
    piecewise linear with kinks at t = u / dx and v / dy, one of which
    minimises it on the line; so its minimum on [0, 1] is at one of them
    clipped to [0, 1].  A zero dx or dy is divided as 1, and the clipped t
    still names a point of the segment.  Blocked over the points, in place
    in five (rows, m) buffers."""
    px, py = pts[:, 0, None], pts[:, 1, None]
    ax, ay, dx, dy, _ = _segment_planes(seg_a, seg_b)
    out = np.empty(len(pts))
    for blk in _row_blocks(len(pts), len(ax)):
        u, v = px[blk] - ax, py[blk] - ay
        w, best = np.empty_like(u), None
        for q, d in ((u, dx), (v, dy)):
            # a quotient that overflows clips to the end it points past
            with np.errstate(over="ignore"):
                t = np.clip(np.divide(q, np.where(d == 0.0, 1.0, d), out=w), 0.0, 1.0)
            np.abs(np.subtract(np.multiply(t, dx, out=w), u, out=w), out=w)
            np.abs(np.subtract(np.multiply(t, dy, out=t), v, out=t), out=t)
            t += w
            best = t if best is None else np.minimum(best, t, out=best)
        out[blk] = best.min(axis=1)
    return out


def _nearest_segments(pts: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray):
    """points_to_segments_distance and the nearest segment's index, the
    lowest on ties; a NaN distance may differ in sign, which min need not keep."""
    d2, idx = np.empty(len(pts)), np.empty(len(pts), dtype=np.intp)
    for blk, sq in _squared_blocks(pts, seg_a, seg_b):
        idx[blk] = k = sq.argmin(axis=1)
        d2[blk] = sq[np.arange(len(k)), k]
    return np.sqrt(d2), idx


def polyline_min_distance(a, b) -> float:
    """Minimum Euclidean distance between two polylines (point sets): 0 when
    two segments cross properly, otherwise attained at a vertex of one.  A
    one-vertex polyline is one zero-length segment."""
    pa, pb = _as_points(a), _as_points(b)
    ea, eb = (np.stack([p[:-1], p[1:]] if len(p) > 1 else [p, p], 1) for p in (pa, pb))
    if _crossing_rows(ea, eb).any():
        return 0.0
    return float(min(points_to_segments_distance(pa, eb[:, 0], eb[:, 1]).min(),
                     points_to_segments_distance(pb, ea[:, 0], ea[:, 1]).min()))


def ray_parity(p, a, b) -> np.ndarray:
    """Crossing-number parity: whether the ray from p towards +x crosses an
    odd number of the edges [a, b] under the half-open rule.  p, a and b
    broadcast; the edges run along the second-to-last axis.  Each crossing's
    x is clamped to its edge's x-range, which rounding, and underflow of
    (y - y1) * (x2 - x1), could otherwise leave."""
    x, y = p[..., 0], p[..., 1]
    x1, y1, x2, y2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    cond = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xint = np.clip(x1 + (y - y1) * (x2 - x1) / (y2 - y1),
                       np.minimum(x1, x2), np.maximum(x1, x2))
    return (np.sum(cond & (x < xint), axis=-1) % 2) == 1


def points_in_ring(pts: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Even-odd containment of each of pts (n, 2) in the closed ring
    through the vertices ring (m, 2), by ray_parity.  Blocked over the
    points, so temporaries stay bounded for any n and m.

    Only points in the ring's box are tested; the others have even parity
    exactly: outside the y-range a point's ray meets no edge, past x_max it
    crosses none (each crossing's x lies in its edge's x-range), and before
    x_min it crosses every edge that straddles its y, of which a closed ring
    has an even number."""
    nxt = np.roll(ring, -1, axis=0)
    lo, hi = ring.min(axis=0), ring.max(axis=0)
    x, y = pts[:, 0], pts[:, 1]
    cand = np.flatnonzero((x >= lo[0]) & (x <= hi[0]) & (y >= lo[1]) & (y <= hi[1]))
    sub = pts[cand]
    out = np.zeros(len(pts), dtype=bool)
    for blk in _row_blocks(len(sub), len(ring)):
        out[cand[blk]] = ray_parity(sub[blk, None, :], ring[None], nxt[None])
    return out


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


def _directed_hausdorff(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[float, float]:
    """Bounds lo <= sup over points of a of the distance to b <= hi, up to
    rounding, with hi - lo <= tol (lo is the largest distance evaluated), by
    branch-and-bound over parameter intervals of a's segments.  An interval
    with end distances f0, f1 is bounded by the least of the 1-Lipschitz
    bound (f0 + f1 + length) / 2 and, as the distance to one segment is
    convex along a line, the larger end distance to the segment of b nearest
    at either end: max(f0, f1), exact, when one segment is nearest at both
    (a one-segment check, so ties need not agree under argmin).  It is
    dropped, its bound folded into hi, once that is at most lo + tol, and
    split into 16 otherwise."""
    sa, sb = (b[:-1], b[1:]) if len(b) > 1 else (b, b)
    f, j = _nearest_segments(a, sa, sb)
    lo = hi = float(f.max())
    seg_len = np.hypot(*(a[1:] - a[:-1]).T)
    # (t, p, f, j): parameters, points, distances and nearest segments along
    # segment i of a, one row each; consecutive columns bound an interval
    i = np.arange(len(a) - 1)
    t = np.broadcast_to([0.0, 1.0], (len(i), 2))
    p, f, j = (np.stack([v[:-1], v[1:]], 1) for v in (a, f, j))
    frac = np.arange(17) / 16
    while True:
        f0, f1 = f[:, :-1], f[:, 1:]
        # each end's distance to the segment nearest at the other end
        g = segment_distances(np.stack([p[:, 1:], p[:, :-1]]),
                              *(s[np.stack([j[:, :-1], j[:, 1:]])] for s in (sa, sb)))
        bound = np.minimum((f0 + f1 + (t[:, 1:] - t[:, :-1]) * seg_len[i, None]) / 2,
                           np.maximum(np.stack([f0, f1]), g).min(axis=0))
        split = bound > lo + tol
        hi = max(hi, float(bound[~split].max(initial=lo)))
        if not split.any():
            return lo, hi
        r, c = np.nonzero(split)
        i, t0, t1 = i[r], t[r, c], t[r, c + 1]
        t = t0[:, None] + (t1 - t0)[:, None] * frac
        t[:, -1] = t1
        q = a[i, None] * (1.0 - t[:, 1:-1, None]) + a[i + 1, None] * t[:, 1:-1, None]
        fq, jq = (v.reshape(len(i), 15) for v in _nearest_segments(q.reshape(-1, 2), sa, sb))
        lo = max(lo, float(fq.max(initial=lo)))
        p, f, j = (np.concatenate([v[r, c, None], w, v[r, c + 1, None]], 1)
                   for v, w in ((p, q), (f, fq), (j, jq)))


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between the point sets of two polylines,
    as a certified upper bound: with s the largest coordinate magnitude,
    each direction is bounded to within DEFAULT_REL_TOL * s, and the larger
    upper bound plus the rounding margin HAUSDORFF_MARGIN * s is returned.
    It is at least the true distance and at most (DEFAULT_REL_TOL +
    HAUSDORFF_MARGIN) * s above it.  The search runs on both polylines
    scaled by 2^-e, e = frexp(s)[1], so that s lies in [1/2, 1) and tiny or
    huge coordinates keep their squares in range; power-of-two scaling is
    exact, so a result whose squares were in range keeps its bits."""
    pa, pb = _as_points(a), _as_points(b)
    s, e = math.frexp(max(float(np.abs(pa).max()), float(np.abs(pb).max())))
    pa, pb = np.ldexp(pa, -e), np.ldexp(pb, -e)
    d = max(_directed_hausdorff(pa, pb, DEFAULT_REL_TOL * s)[1],
            _directed_hausdorff(pb, pa, DEFAULT_REL_TOL * s)[1]) + HAUSDORFF_MARGIN * s
    return math.ldexp(d, e)


def _spans(count: np.ndarray):
    """The ranges 0 .. count[i] - 1 of the rows i, concatenated, in slices
    of _BLOCK_PAIRS // 8 entries (each holds about eight words of BoxIndex
    temporaries): (row, offset) arrays per slice."""
    end = np.cumsum(count)
    total, block = (int(end[-1]) if len(end) else 0), max(1, _BLOCK_PAIRS // 8)
    for s in range(0, total, block):
        e = min(s + block, total)
        r = np.arange(np.searchsorted(end, s, "right"), np.searchsorted(end, e - 1, "right") + 1)
        begin = end[r] - count[r]
        n = np.minimum(end[r], e) - np.maximum(begin, s)
        yield np.repeat(r, n), np.arange(s, e) - np.repeat(begin, n)


class BoxIndex:
    """Uniform-grid index of n >= 1 finite closed boxes lo <= x <= hi, (n, 2)
    each: a box is listed in every cell of side `cell` that it meets, cells
    counted from the lowest box corner.  Cell indices are monotone in the
    coordinate, so boxes that meet share the cell of the lower corner of
    their intersection, and pairs() reports each meeting pair there only,
    once.  It walks (query, cell) rows and (query, box) candidates in
    _spans batches: its temporaries stay bounded, only the answer grows."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray, cell: float):
        self.lo, self.hi, self.cell = lo, hi, cell
        self.origin = lo.min(axis=0)
        glo, ghi = (np.floor((b - self.origin) / cell).astype(np.int64) for b in (lo, hi))
        self.top = ghi.max(axis=0)
        ny = ghi[:, 1] - glo[:, 1] + 1
        count = (ghi[:, 0] - glo[:, 0] + 1) * ny
        # entry e lists box[e] in its k-th cell, row-major
        box = np.repeat(np.arange(len(lo)), count)
        key = np.concatenate([(k // ny[b] + glo[b, 0]) * (self.top[1] + 1) + k % ny[b] + glo[b, 1]
                              for b, k in _spans(count)])
        # a stable sort keeps each cell's boxes ascending
        order = np.argsort(key, kind="stable")
        key, box = key[order], box[order]
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        self.keys, self.start, self.box = key[first], np.append(first, len(key)), box

    def pairs(self, qlo, qhi, keep) -> tuple[np.ndarray, np.ndarray]:
        """(query, box) index pairs of every query box [qlo, qhi] and indexed
        box that meet and that keep(qi, bi) accepts, once each, by query
        (ascending), then cell, then box; keep filters each batch.  Query
        cells are clipped to the grid in floats before the cast: far queries
        cannot overflow."""
        glo, ghi = ((q - self.origin) / self.cell for q in (qlo, qhi))
        on = (ghi >= 0) & (glo < self.top + 1)
        q = np.flatnonzero(on[:, 0] & on[:, 1])
        glo, ghi = (np.clip(np.floor(g[q]), 0, self.top).astype(np.int64) for g in (glo, ghi))
        ny = ghi[:, 1] - glo[:, 1] + 1
        out_q, out_b = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for row, off in _spans((ghi[:, 0] - glo[:, 0] + 1) * ny):
            cx, cy = off // ny[row] + glo[row, 0], off % ny[row] + glo[row, 1]
            key = cx * (self.top[1] + 1) + cy
            slot = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
            start = self.start[slot]
            count = np.where(self.keys[slot] == key, self.start[slot + 1] - start, 0)
            for r, k in _spans(count):
                qi, bi = q[row[r]], self.box[start[r] + k]
                hit = np.ones(len(r), dtype=bool)
                for ax, c in enumerate((cx, cy)):
                    a, b = qlo[qi, ax], self.lo[bi, ax]
                    # they meet, and the lower corner of the meet is in this cell
                    hit &= ((a <= self.hi[bi, ax]) & (b <= qhi[qi, ax])
                            & (np.floor((np.maximum(a, b) - self.origin[ax]) / self.cell) == c[r]))
                qi, bi = qi[hit], bi[hit]
                ok = keep(qi, bi)
                qi, bi = qi[ok], bi[ok]
                out_q.append(qi)
                out_b.append(bi)
        return np.concatenate(out_q), np.concatenate(out_b)
