"""Extremal length machinery: variational bounds, min-cut / dual-path
correspondence, two-sided comparability with the continuous domain, the
refinement rate bracket, and the short-contour finder.

Geometric infima (shortest crossing length, crossing diameter) are
replaced throughout by Euclidean set-distance proxies, which are provable
lower bounds; every inequality consuming them is evaluated in the
direction that keeps it sound.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import geom, harmonic
from .gridgen import ApproximationCertificate, DomainSpec
from .odmap import (DUAL, PRIMAL, ContourError, FaceLocator, MarkedRectangleMap,
                    OrthodiagonalMap, WeightedGraph, component_labels, side_keys)


@dataclass(frozen=True)
class EdgeMetric:
    """Nonnegative edge weights, aligned with the graph's edge arrays."""

    graph: WeightedGraph
    rho: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=float)
        if r.shape != (self.graph.m,):
            raise ValueError("rho must have one value per edge")
        if np.any(r < 0) or not np.all(np.isfinite(r)):
            raise ValueError("rho must be nonnegative and finite")
        if not np.any(r > 0):
            raise ValueError("rho must not be identically zero")
        object.__setattr__(self, "rho", r)

    def area(self) -> float:
        return float(np.sum(self.graph.edge_c * self.rho ** 2))


@dataclass
class ELResult:
    """lam = 1 / E(h) for the solved unit-gap field h, its witness from
    below; the unit current flow, its witness from above, is read from h."""

    lam: float
    witness_field: harmonic.HarmonicField

    @property
    def witness_flow(self) -> harmonic.Flow:
        flow = harmonic.gradient_flow(self.witness_field)
        return flow.scaled(1.0 / flow.strength)


def extremal_length(m: MarkedRectangleMap, pair: str = "primal",
                    tol: float = harmonic.DEFAULT_TOL,
                    start: Optional[np.ndarray] = None) -> ELResult:
    """Extremal length between opposite marked arcs, as the effective
    resistance of the corresponding graph; witnesses attached.

    pair="primal": [A..B] <-> [C..D] on the primal graph;
    pair="dual":   [B..C] <-> [D..A] on the dual graph.
    start, values indexed by vertex id, starts the solve (see
    harmonic.solve_dirichlet).
    """
    if pair == "primal":
        g = m.map.extract_primal()
        S, T = m.arc_ab, m.arc_cd
    elif pair == "dual":
        g = m.map.extract_dual()
        S, T = m.arc_bc, m.arc_da
    else:
        raise ValueError("pair must be 'primal' or 'dual'")
    h = harmonic.solve_dirichlet(g, *harmonic.unit_pins(S, T), tol, start)
    return ELResult(1.0 / h.energy, h)


def duality_product(m: MarkedRectangleMap, tol: float = harmonic.DEFAULT_TOL
                    ) -> tuple[float, float, float]:
    """(lambda_primal, lambda_dual, product): the primal system solved, then
    the dual system solved to its own residual, started from the conjugate
    of the primal field (harmonic.conjugate_start)."""
    primal = extremal_length(m, "primal", tol)
    start = harmonic.conjugate_start(m, primal.witness_field)
    lp, ld = primal.lam, extremal_length(m, "dual", tol, start).lam
    return lp, ld, lp * ld


# -- Dijkstra -------------------------------------------------------------------


def _dijkstra(g: WeightedGraph, weights: np.ndarray, sources: Iterable[int],
              targets: Iterable[int], allowed: Optional[np.ndarray] = None
              ) -> tuple[float, list[int]]:
    """Shortest path by edge weights from any source to any target, within
    the vertices allowed (a mask over g.ids) if given; deterministic via
    (distance, vertex id) heap ordering.  Returns (distance, vertex path);
    (inf, []) when unreachable.  A source that is not a vertex raises
    KeyError; a target that is not one matches nothing."""
    sources = list(sources)
    if not np.isin(sources, g.ids).all():
        raise KeyError("a source is not a vertex")
    ok = np.ones(g.n, dtype=bool) if allowed is None else np.asarray(allowed, dtype=bool)
    start = np.isin(g.ids, sources) & ok
    indptr, nbr, edge = g.adjacency()
    # an arc into a vertex not allowed weighs inf, so it is never relaxed
    w = np.where(ok[nbr], np.asarray(weights, dtype=float)[edge], math.inf).tolist()
    ptr, nbr, is_target = indptr.tolist(), nbr.tolist(), np.isin(g.ids, list(targets)).tolist()
    dist, prev = np.where(start, 0.0, math.inf).tolist(), [-1] * g.n
    heap = [(0.0, s) for s in np.flatnonzero(start).tolist()]   # ascending, so a heap
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if is_target[u]:
            path = [u]
            while prev[path[-1]] >= 0:
                path.append(prev[path[-1]])
            return d, g.ids[path[::-1]].tolist()
        for k in range(ptr[u], ptr[u + 1]):
            v = nbr[k]
            nd = d + w[k]
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return math.inf, []


def metric_lower_bound(g: WeightedGraph, S, T, rho: EdgeMetric) -> float:
    """l(rho, Gamma)^2 / A(rho): a lower bound for the extremal length
    between S and T, for any admissible metric.  Returns inf when S and T
    are disconnected."""
    if rho.graph is not g:
        raise ValueError("metric belongs to a different graph")
    ell, _ = _dijkstra(g, rho.rho, S, T)
    if not math.isfinite(ell):
        return math.inf
    return ell * ell / rho.area()


def witness_metric(res: ELResult) -> EdgeMetric:
    """|dh| of the witness field: the extremal metric."""
    g = res.witness_field.graph
    v = res.witness_field.values
    return EdgeMetric(g, np.abs(v[g.edge_v] - v[g.edge_u]))


# -- min cut <-> dual path -------------------------------------------------------


@dataclass
class CutPathResult:
    status: str                      # "ok" | "non-separating" | "non-minimal" | "mismatch"
    dual_path: list[int] = field(default_factory=list)
    witness: Optional[object] = None
    message: str = ""


def _faces_of(g: WeightedGraph, a, b) -> np.ndarray:
    """For each k, the highest face whose diagonal in g joins a[k] and b[k], or -1."""
    keys, want = side_keys(g.edge_u, g.edge_v), side_keys(a, b)
    order = np.argsort(keys, kind="stable")
    pos = np.searchsorted(keys, want, side="right", sorter=order) - 1
    face = order[pos]
    return np.where((pos >= 0) & (keys[face] == want), face, -1)


def min_cut_dual_path(m: MarkedRectangleMap, cut) -> CutPathResult:
    """Map a minimal [A..B]-[C..D] cut in the primal graph to its dual
    path from [B..C] to [D..A]; report-style on bad input.

    cut: iterable of primal edges as (u, v) id pairs, or of face ids in
    [0, n_faces).
    """
    gp = m.map.extract_primal()
    cut = list(cut)
    pairs = np.array([item for item in cut if isinstance(item, (tuple, list))],
                     dtype=np.int64).reshape(-1, 2)
    paired = _faces_of(gp, pairs[:, 0], pairs[:, 1])
    if (paired < 0).any():
        u, v = sorted(pairs[np.argmax(paired < 0)].tolist())
        return CutPathResult("mismatch", message=f"no primal edge {(u, v)}")
    ids = np.array([item for item in cut if not isinstance(item, (tuple, list))], dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= m.map.n_faces)]
    if bad.size:
        return CutPathResult("mismatch", message=f"no face {bad[0]}")
    faces = np.union1d(paired, ids)
    if not faces.size:
        return CutPathResult("non-separating", message="empty cut")
    keys = side_keys(gp.edge_u, gp.edge_v)
    cut_keys, first = np.unique(keys[faces], return_index=True)
    in_cut = np.isin(keys, cut_keys)
    iu, iv = gp.edge_index
    lab = component_labels(gp.n, iu[~in_cut], iv[~in_cut])
    ab, cd = (np.isin(lab, lab[np.isin(gp.ids, arc)]) for arc in (m.arc_ab, m.arc_cd))
    if (ab & cd).any():
        path = _dijkstra(gp, np.where(in_cut, math.inf, 1.0), m.arc_ab, m.arc_cd)[1]
        return CutPathResult("non-separating", witness=path, message="a primal path avoids the cut")
    # restoring a cut key's edges merges the components of their two ends,
    # so the key is removable unless they join an [A..B] component to a
    # [C..D] one; the first removable key in ascending order is the witness
    f = faces[first]
    joins = (ab[iu[f]] & cd[iv[f]]) | (cd[iu[f]] & ab[iv[f]])
    if not joins.all():
        f = f[np.argmin(joins)]
        key = tuple(sorted((int(gp.edge_u[f]), int(gp.edge_v[f]))))
        return CutPathResult("non-minimal", witness=key, message=f"edge {key} is removable")

    # the dual edges of the cut faces must chain into a simple path from
    # [B..C] to [D..A]; a search from its [B..C] end lists it in order
    gd = m.map.extract_dual()
    w1, w2 = gd.edge_u[faces], gd.edge_v[faces]
    w, deg = np.unique(np.concatenate([w1, w2]), return_counts=True)
    ends = w[deg == 1]
    if len(ends) != 2 or (deg > 2).any():
        return CutPathResult("mismatch", message="cut faces' dual edges do not chain")
    start = ends[np.isin(ends, m.arc_bc)]
    if not start.size or not np.isin(ends, m.arc_da).any():
        return CutPathResult("mismatch", message="dual chain endpoints miss the dual arcs")
    chain = WeightedGraph(gd.ids, gd.positions, w1, w2, gd.edge_c[faces], gd.edge_len[faces])
    indptr, nbr, _ = chain.adjacency()
    levels = harmonic.breadth_first_levels(indptr, nbr, np.searchsorted(gd.ids, start[0]))[0]
    if len(levels) != len(faces) + 1:
        return CutPathResult("mismatch", message="dual chain has a detached loop")
    return CutPathResult("ok", dual_path=gd.ids[np.concatenate(levels)].tolist())


def dual_path_to_cut(m: MarkedRectangleMap, path: Sequence[int]) -> list[tuple[int, int]]:
    """Inverse correspondence: consecutive dual path vertices name faces,
    and their primal diagonals form the cut."""
    p = np.asarray(path, dtype=np.int64)
    fi = _faces_of(m.map.extract_dual(), p[:-1], p[1:])
    if (fi < 0).any():
        k = int(np.argmax(fi < 0))
        raise KeyError((int(p[k]), int(p[k + 1])))
    gp = m.map.extract_primal()
    u, v = gp.edge_u[fi], gp.edge_v[fi]
    return list(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))


# -- comparability and rate -----------------------------------------------------


@dataclass
class BoundRecord:
    status: str              # "ok" | "inconclusive"
    lam: float
    lower: float
    upper: float
    ell_hat: float
    ell_hat_prime: float
    delta: float
    area: float

    @property
    def inside(self) -> bool:
        s = 1e-9 * max(1.0, abs(self.lam))
        return self.lower - s <= self.lam <= self.upper + s

    def to_json_dict(self) -> dict:
        return {"status": self.status, "lambda": self.lam, "lower": self.lower,
                "upper": self.upper, "ell_hat": self.ell_hat,
                "ell_hat_prime": self.ell_hat_prime, "delta": self.delta,
                "area": self.area, "inside": self.inside}


def comparability_check(m: MarkedRectangleMap, cert: ApproximationCertificate,
                        spec: DomainSpec) -> BoundRecord:
    """Two-sided enclosure of the primal extremal length from the domain:
    (l - 2 delta)^2 / (2 Area) <= lambda <= 2 Area / (l' - 2 delta)^2,
    where l, l' are replaced by the minimum Euclidean distances between
    the opposite closed continuous arcs (sound: the proxies are lower
    bounds of the crossing lengths).  Inconclusive when delta >= min/2."""
    lam = extremal_length(m, "primal").lam
    ell_hat = geom.polyline_min_distance(spec.arc_polyline(0), spec.arc_polyline(2))
    ell_hat_p = geom.polyline_min_distance(spec.arc_polyline(1), spec.arc_polyline(3))
    area = spec.boundary.area()
    delta = cert.delta
    if delta >= min(ell_hat, ell_hat_p) / 2.0:
        return BoundRecord("inconclusive", lam, -math.inf, math.inf,
                           ell_hat, ell_hat_p, delta, area)
    lower = (ell_hat - 2.0 * delta) ** 2 / (2.0 * area)
    upper = 2.0 * area / (ell_hat_p - 2.0 * delta) ** 2
    return BoundRecord("ok", lam, lower, upper, ell_hat, ell_hat_p, delta, area)


@dataclass
class RateRecord:
    status: str              # "ok" | "inconclusive"
    L_coarse: float
    L_fine: float
    lower: float
    upper: float
    delta: float
    eps: float
    d_hat: float
    d_hat_prime: float

    @property
    def diff(self) -> float:
        return self.L_coarse - self.L_fine

    @property
    def inside(self) -> bool:
        s = 1e-9 * max(1.0, abs(self.L_fine))
        return self.lower - s <= self.diff <= self.upper + s

    def to_json_dict(self) -> dict:
        return {"status": self.status, "L_coarse": self.L_coarse,
                "L_fine": self.L_fine, "diff": self.diff, "lower": self.lower,
                "upper": self.upper, "delta": self.delta, "eps": self.eps,
                "d_hat": self.d_hat, "d_hat_prime": self.d_hat_prime,
                "inside": self.inside}


def el_rate_check(coarse: MarkedRectangleMap, fine: MarkedRectangleMap,
                  K_hat: float) -> RateRecord:
    """Bracket the extremal-length change when passing to a sub-map:
    -4K / log(d' / (delta v eps)) <= L_sub - L <= 8 K L^2 / log(d / (delta v eps)).

    delta is twice the max per-arc Hausdorff distance between the two
    discrete boundaries, each a certified upper bound (geom.hausdorff_distance
    and its margin); d, d' use the fine map's own arc-distance proxies.
    Inconclusive when the threshold preconditions fail.
    """
    chains_c = coarse.arc_chains()
    chains_f = fine.arc_chains()
    delta = 2.0 * max(geom.hausdorff_distance(a, b)
                      for a, b in zip(chains_c, chains_f))
    eps = fine.map.mesh_eps
    d_hat = geom.polyline_min_distance(chains_f[0], chains_f[2])
    d_hat_p = geom.polyline_min_distance(chains_f[1], chains_f[3])
    L_fine = extremal_length(fine, "primal").lam
    L_coarse = extremal_length(coarse, "primal").lam
    de = max(delta, eps)
    ok = (de <= d_hat_p * math.exp(-2.0 * K_hat / L_fine)
          and de <= d_hat * math.exp(-8.0 * K_hat * L_fine))
    if not ok or de <= 0:
        if L_coarse == L_fine:
            # identical extremal lengths sit inside any bracket
            return RateRecord("ok", L_coarse, L_fine, 0.0, 0.0,
                              delta, eps, d_hat, d_hat_p)
        return RateRecord("inconclusive", L_coarse, L_fine, -math.inf, math.inf,
                          delta, eps, d_hat, d_hat_p)
    lower = -4.0 * K_hat / math.log(d_hat_p / de)
    upper = 8.0 * K_hat * L_fine ** 2 / math.log(d_hat / de)
    status = "ok"
    if K_hat == 0.0 and L_coarse != L_fine:
        status = "inconclusive"
    return RateRecord(status, L_coarse, L_fine, lower, upper, delta, eps,
                      d_hat, d_hat_p)


# -- short contours --------------------------------------------------------------


def find_short_contour(m: OrthodiagonalMap, seg, delta: float, color: str = "primal",
                       locator: Optional[FaceLocator] = None) -> list[int]:
    """Nearest-neighbor path in the primal or dual graph tracking a
    segment: every vertex within delta of the segment, endpoints within
    delta of its endpoints, Euclidean length at most
    2 len(seg) (1 + 4 mesh_eps / delta).

    Preconditions (checked): delta >= 4 mesh_eps, len(seg) >= 8 mesh_eps,
    and the map support contains the closed delta-neighborhood of the
    segment (verified by sampling face coverage).  A missing path after
    the preconditions hold is surfaced as an error.
    """
    if color not in ("primal", "dual"):
        raise ValueError("color must be 'primal' or 'dual'")
    a = np.asarray(seg[0], dtype=float)
    b = np.asarray(seg[1], dtype=float)
    eps = m.mesh_eps
    length = float(np.hypot(*(b - a)))
    if delta < 4.0 * eps:
        raise ContourError(f"delta {delta} < 4 mesh_eps {4 * eps}")
    if length < 8.0 * eps:
        raise ContourError(f"segment length {length} < 8 mesh_eps {8 * eps}")

    if locator is None:
        locator = FaceLocator(m)
    direction = (b - a) / length
    normal = np.array([-direction[1], direction[0]])
    pitch = max(eps / 2.0, 1e-12)
    nt = int(math.ceil((length + 2 * delta) / pitch)) + 1
    ns = int(math.ceil(2 * delta / pitch)) + 1
    t = -delta + np.arange(nt + 1) * (length + 2 * delta) / nt
    s = -delta + np.arange(ns + 1) * 2 * delta / ns
    # sample points in (it, isn) order
    p = (a + np.repeat(t, ns + 1)[:, None] * direction
         + np.tile(s, nt + 1)[:, None] * normal)
    p = p[~(geom.points_to_segments_distance(p, a[None], b[None]) > delta)]
    missing = np.flatnonzero(locator.locate_many(p) < 0)
    if len(missing):
        raise ContourError(
            f"delta-neighborhood leaves the map support near {tuple(p[missing[0]])}")

    g = m.extract(PRIMAL if color == "primal" else DUAL)
    pos = g.positions
    near = delta + 1e-12 * max(1.0, delta)
    admissible = geom.points_to_segments_distance(pos, a[None, :], b[None, :]) <= near
    sources = g.ids[admissible & (np.sqrt(((pos - a) ** 2).sum(-1)) <= near)]
    targets = g.ids[admissible & (np.sqrt(((pos - b) ** 2).sum(-1)) <= near)]
    if not sources.size or not targets.size:
        raise ContourError("no admissible endpoint vertices despite preconditions")
    dist, path = _dijkstra(g, g.edge_len, sources, targets, allowed=admissible)
    if not path:
        raise ContourError("no admissible path despite preconditions")
    bound = 2.0 * length * (1.0 + 4.0 * eps / delta)
    if dist > bound * (1.0 + 1e-12):
        raise ContourError(f"shortest admissible path {dist} exceeds bound {bound}")
    return path
