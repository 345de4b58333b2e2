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
                    OrthodiagonalMap, WeightedGraph)


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
    lam: float
    energy: float
    witness_field: harmonic.HarmonicField
    witness_flow: harmonic.Flow


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
    h = harmonic.solve_dirichlet(g, harmonic.unit_pins(S, T), tol, start)
    lam = 1.0 / h.energy
    flow = harmonic.gradient_flow(h)
    unit = flow.scaled(1.0 / flow.strength)
    return ELResult(lam, h.energy, h, unit)


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
              targets: Iterable[int], allowed: Optional[set[int]] = None
              ) -> tuple[float, list[int]]:
    """Shortest path by edge weights from any source to any target;
    deterministic via (distance, vertex id) heap ordering.  Returns
    (distance, vertex path); (inf, []) when unreachable."""
    targets = set(int(t) for t in targets)
    adj: dict[int, list[tuple[int, float]]] = {int(v): [] for v in g.ids}
    for u, v, w in zip(g.edge_u, g.edge_v, weights):
        u, v = int(u), int(v)
        if allowed is not None and (u not in allowed or v not in allowed):
            continue
        adj[u].append((v, float(w)))
        adj[v].append((u, float(w)))
    for lst in adj.values():
        lst.sort()
    dist: dict[int, float] = {}
    prev: dict[int, int] = {}
    heap = []
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


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def min_cut_dual_path(m: MarkedRectangleMap, cut) -> CutPathResult:
    """Map a minimal [A..B]-[C..D] cut in the primal graph to its dual
    path from [B..C] to [D..A]; report-style on bad input.

    cut: iterable of primal edges as (u, v) id pairs, or of face ids.
    """
    gp = m.map.extract_primal()
    pair_to_face: dict[tuple[int, int], int] = {}
    for fi, (u, v) in enumerate(zip(gp.edge_u, gp.edge_v)):
        pair_to_face[_edge_key(int(u), int(v))] = fi
    faces = []
    for item in cut:
        if isinstance(item, (tuple, list)):
            key = _edge_key(int(item[0]), int(item[1]))
            if key not in pair_to_face:
                return CutPathResult("mismatch", message=f"no primal edge {key}")
            faces.append(pair_to_face[key])
        else:
            faces.append(int(item))
    faces = sorted(set(faces))
    cut_keys = {_edge_key(int(gp.edge_u[f]), int(gp.edge_v[f])) for f in faces}

    def separates(keys: set[tuple[int, int]]) -> tuple[bool, list[int]]:
        mask = np.array([_edge_key(int(u), int(v)) not in keys
                         for u, v in zip(gp.edge_u, gp.edge_v)])
        sub = WeightedGraph(gp.ids, gp.positions, gp.edge_u[mask], gp.edge_v[mask],
                            gp.edge_c[mask], gp.edge_len[mask], gp.edge_face[mask])
        d, path = _dijkstra(sub, np.ones(sub.m), m.arc_ab, m.arc_cd)
        return (not math.isfinite(d)), path

    if not faces:
        return CutPathResult("non-separating", message="empty cut")
    sep, path = separates(cut_keys)
    if not sep:
        return CutPathResult("non-separating", witness=path,
                             message="a primal path avoids the cut")
    for key in sorted(cut_keys):
        if separates(cut_keys - {key})[0]:
            return CutPathResult("non-minimal", witness=key,
                                 message=f"edge {key} is removable")

    # the dual edges of the cut faces must chain into a simple path from
    # [B..C] to [D..A]
    gd = m.map.extract_dual()
    adj: dict[int, list[int]] = {}
    for f in faces:
        w1, w2 = int(gd.edge_u[f]), int(gd.edge_v[f])
        adj.setdefault(w1, []).append(w2)
        adj.setdefault(w2, []).append(w1)
    ends = sorted(v for v, nb in adj.items() if len(nb) == 1)
    if len(ends) != 2 or any(len(nb) > 2 for nb in adj.values()):
        return CutPathResult("mismatch", message="cut faces' dual edges do not chain")
    bc, da = set(m.arc_bc.tolist()), set(m.arc_da.tolist())
    start = next((e for e in ends if e in bc), None)
    stop = next((e for e in ends if e in da), None)
    if start is None or stop is None:
        return CutPathResult("mismatch",
                             message="dual chain endpoints miss the dual arcs")
    path = [start]
    seen = {start}
    while path[-1] != stop:
        nxt = [v for v in adj[path[-1]] if v not in seen]
        if not nxt:
            return CutPathResult("mismatch", message="dual chain is not simple")
        path.append(nxt[0])
        seen.add(nxt[0])
    if len(path) != len(faces) + 1:
        return CutPathResult("mismatch", message="dual chain has a detached loop")
    return CutPathResult("ok", dual_path=path)


def dual_path_to_cut(m: MarkedRectangleMap, path: Sequence[int]) -> list[tuple[int, int]]:
    """Inverse correspondence: consecutive dual path vertices name faces,
    and their primal diagonals form the cut."""
    gd = m.map.extract_dual()
    gp = m.map.extract_primal()
    by_pair: dict[tuple[int, int], int] = {}
    for fi, (u, v) in enumerate(zip(gd.edge_u, gd.edge_v)):
        by_pair[_edge_key(int(u), int(v))] = fi
    out = []
    for a, b in zip(path[:-1], path[1:]):
        fi = by_pair[_edge_key(int(a), int(b))]
        out.append(_edge_key(int(gp.edge_u[fi]), int(gp.edge_v[fi])))
    return out


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
                        spec: DomainSpec, tol: float = harmonic.DEFAULT_TOL
                        ) -> BoundRecord:
    """Two-sided enclosure of the primal extremal length from the domain:
    (l - 2 delta)^2 / (2 Area) <= lambda <= 2 Area / (l' - 2 delta)^2,
    where l, l' are replaced by the minimum Euclidean distances between
    the opposite closed continuous arcs (sound: the proxies are lower
    bounds of the crossing lengths).  Inconclusive when delta >= min/2."""
    lam = extremal_length(m, "primal", tol).lam
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
                  K_hat: float, tol: float = harmonic.DEFAULT_TOL) -> RateRecord:
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
    L_fine = extremal_length(fine, "primal", tol).lam
    L_coarse = extremal_length(coarse, "primal", tol).lam
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
    p = p[~(geom.point_segment_distance(p, a, b) > delta)]
    missing = np.flatnonzero(locator.locate_many(p) < 0)
    if len(missing):
        raise ContourError(
            f"delta-neighborhood leaves the map support near {tuple(p[missing[0]])}")

    which = PRIMAL if color == "primal" else DUAL
    g = m.extract(which)
    pos = g.positions
    d_seg = geom.points_to_segments_distance(pos, a[None, :], b[None, :])
    slack = 1e-12 * max(1.0, delta)
    admissible = {int(v) for v, d in zip(g.ids, d_seg) if d <= delta + slack}
    d_a = np.sqrt(((pos - a) ** 2).sum(-1))
    d_b = np.sqrt(((pos - b) ** 2).sum(-1))
    sources = [int(v) for v, d in zip(g.ids, d_a) if d <= delta + slack and int(v) in admissible]
    targets = [int(v) for v, d in zip(g.ids, d_b) if d <= delta + slack and int(v) in admissible]
    if not sources or not targets:
        raise ContourError("no admissible endpoint vertices despite preconditions")
    dist, path = _dijkstra(g, g.edge_len, sources, targets, allowed=admissible)
    if not path:
        raise ContourError("no admissible path despite preconditions")
    bound = 2.0 * length * (1.0 + 4.0 * eps / delta)
    if dist > bound * (1.0 + 1e-12):
        raise ContourError(f"shortest admissible path {dist} exceeds bound {bound}")
    return path
