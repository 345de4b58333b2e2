"""Convergence harness: run the refinement pipeline on a domain, compare
the interpolated discrete maps against the exact affine reference (when
the domain is a rectangle with corner marks) or against the next level
(Cauchy criterion), and collect gradient statistics and defect metrics
into a machine-readable report.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import geom, gridgen, harmonic, holo, tiling
from .extremal import extremal_length
from .gridgen import DomainSpec, GenerationError
from .odmap import MarkedRectangleMap, first_per_point, save_json, save_map

SCHEMA = "orthotile.convergence@1"
PROBE_PITCH = 1 / 64       # probe lattice pitch, relative to the domain diameter


# -- reference map ---------------------------------------------------------------


def reference_map(spec: DomainSpec) -> Optional[tuple[Callable[[complex], complex], float]]:
    """Exact conformal reference for rectangle domains whose four marks are
    the four corners (a right angle at B and D = A + C - B, within tol):
    the affine map z -> i (z - B) / (A - B), which sends B to 0, A to i
    and C to L = |CB| / |AB|.  None otherwise."""
    poly = spec.boundary.vertices
    if len(poly) != 4:
        return None
    marks = spec.marked_points
    tol = 1e-9 * max(spec.boundary.diameter(), 1.0)
    perm = []
    for p in marks:
        d = np.sqrt(((poly - p) ** 2).sum(-1))
        k = int(np.argmin(d))
        if d[k] > tol:
            return None
        perm.append(k)
    if sorted(perm) != [0, 1, 2, 3]:
        return None
    va, vb, vc, vd = (poly[k] for k in perm)
    ab = vb - va
    bc = vc - vb
    if abs(float(ab @ bc)) > tol * np.hypot(*ab) * np.hypot(*bc):
        return None
    if np.hypot(*(vd - (va + vc - vb))) > tol:
        return None
    A = complex(*va)
    B = complex(*vb)
    C = complex(*vc)
    L_ref = abs(C - B) / abs(A - B)

    def phi(z: complex) -> complex:
        return 1j * (z - B) / (A - B)

    return phi, L_ref


def probe_points(spec: DomainSpec, margin: Optional[float] = None) -> np.ndarray:
    """Fixed probe compact: a lattice of pitch PROBE_PITCH diameter
    restricted to points at least `margin` (default 0.1 diameter) from the
    boundary."""
    diam = spec.boundary.diameter()
    if margin is None:
        margin = 0.1 * diam
    pitch = diam * PROBE_PITCH
    v = spec.boundary.vertices
    x0, y0 = v[:, 0].min(), v[:, 1].min()
    x1, y1 = v[:, 0].max(), v[:, 1].max()
    xs = np.arange(x0 + pitch / 2, x1, pitch)
    ys = np.arange(y0 + pitch / 2, y1, pitch)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], 1)
    on_boundary, inside = geom.polygon_masks(spec.boundary, pts, 1e-12 * diam)
    ring = np.vstack([v, v[:1]])
    d = geom.points_to_segments_distance(pts, ring[:-1], ring[1:])
    return pts[inside & ~on_boundary & (d >= margin)]


# -- gradient statistics ----------------------------------------------------------


@dataclass
class ModulusProfile:
    chi: float           # max primal-edge increment of h
    chi_dual: float      # max dual-edge increment of htilde
    K_hat: float         # chi * log(d_hat_prime / mesh_eps)
    d_hat: float         # distance proxy between the A..B and C..D chains
    d_hat_prime: float   # distance proxy between the B..C and D..A chains
    eps: float


def modulus_profile(m: MarkedRectangleMap, h: harmonic.HarmonicField,
                    h_tilde: harmonic.HarmonicField) -> ModulusProfile:
    """Gradient statistics of a tiled map and the empirical constant
    K_hat = chi log(d_hat' / eps); the arc-distance proxies are lower
    bounds for the crossing diameters, so K_hat over-estimates soundly."""
    gp = m.map.extract_primal()
    gd = m.map.extract_dual()
    hv, tv = h.values, h_tilde.values
    chi = float(np.abs(hv[gp.edge_v] - hv[gp.edge_u]).max()) if gp.m else 0.0
    chi_dual = float(np.abs(tv[gd.edge_v] - tv[gd.edge_u]).max()) if gd.m else 0.0
    chains = m.arc_chains()
    d_hat = geom.polyline_min_distance(chains[0], chains[2])
    d_hat_p = geom.polyline_min_distance(chains[1], chains[3])
    eps = m.map.mesh_eps
    K_hat = chi * math.log(d_hat_p / eps) if d_hat_p > eps else math.inf
    return ModulusProfile(chi, chi_dual, K_hat, d_hat, d_hat_p, eps)


@dataclass
class PointwiseEntry:
    x: int
    y: int
    separation: float
    increment: float
    product: float       # |h(y)-h(x)| * log(d_hat' / (|y-x| v eps))


@dataclass
class PointwiseReport:
    entries: list[PointwiseEntry] = field(default_factory=list)
    skipped: list[tuple[int, int, str]] = field(default_factory=list)
    K_cal: float = math.inf

    @property
    def max_product(self) -> float:
        return max((e.product for e in self.entries), default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_product <= self.K_cal


def modulus_pointwise_check(m: MarkedRectangleMap, h: harmonic.HarmonicField,
                            pairs, K_cal: float, profile: ModulusProfile) -> PointwiseReport:
    """Bulk modulus-of-continuity check: for vertex pairs with
    |x - y| <= dist to the mesh boundary on both sides, record
    |h(y) - h(x)| log(d_hat' / (|y - x| v eps)) and compare the maximum
    against the calibrated constant, with d_hat' and eps from the map's
    modulus_profile.  Non-bulk pairs are skipped with a note."""
    rep = PointwiseReport(K_cal=K_cal)
    ring = m.map.boundary_polyline()
    pos = m.map.positions
    eps = profile.eps
    for x, y in pairs:
        x, y = int(x), int(y)
        if x == y:
            rep.entries.append(PointwiseEntry(x, y, 0.0, 0.0, 0.0))
            continue
        px, py = pos[x], pos[y]
        r = float(np.hypot(*(px - py)))
        dx, dy = geom.points_to_segments_distance(np.array([px, py]), ring[:-1], ring[1:])
        if r > min(dx, dy):
            rep.skipped.append((x, y, "not in the bulk"))
            continue
        denom = max(r, eps)
        if denom >= profile.d_hat_prime:
            rep.skipped.append((x, y, "separation beyond the bound's range"))
            continue
        inc = abs(h.values[x] - h.values[y])
        rep.entries.append(PointwiseEntry(
            x, y, r, inc, inc * math.log(profile.d_hat_prime / denom)))
    return rep


# -- square symmetry ---------------------------------------------------------------


def _nearest_vertex(pos: np.ndarray, pts: np.ndarray, tol: float) -> np.ndarray:
    """Index of the nearest row of pos within tol of each point (ties to the
    lowest index), else -1.  Exact: each point's box padded by 2 tol meets
    every row within tol in a geom.BoxIndex of the rows as points, whose
    cells of side 16 tol are wide enough that most such boxes meet one."""

    def dist(q, v):
        return np.sqrt((pts[q, 0] - pos[v, 0]) ** 2 + (pts[q, 1] - pos[v, 1]) ** 2)

    qi, vi = geom.BoxIndex(pos, pos, 16.0 * tol).pairs(pts - 2.0 * tol, pts + 2.0 * tol,
                                                       lambda q, v: dist(q, v) <= tol)
    order = np.lexsort((vi, dist(qi, vi), qi))
    return first_per_point(len(pts), qi[order], vi[order], -1)


def rotation_color_swap_symmetric(m: MarkedRectangleMap) -> bool:
    """True when a quarter rotation about the bounding-box center maps the
    map onto itself with the two color classes swapped and carries the
    primal Dirichlet arcs onto the dual arcs (which forces the extremal
    length to be exactly 1 by duality).  Rotated vertices match the nearest
    vertex within tol, ties to the lowest id: the only one if vertices lie
    over 2 tol apart.  A bounding box whose sides differ by more than 2 tol
    answers False at once: a quarter turn carries a vertex on its longer
    side more than tol outside the box, where no vertex lies."""
    mp = m.map
    pos = mp.positions
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    c = (lo + hi) / 2.0
    tol = 1e-9 * max(float(np.hypot(*(hi - lo))), 1.0)
    w, h = hi - lo
    if abs(w - h) > 2.0 * tol:
        return False
    for sgn in (1.0, -1.0):
        rel = pos - c
        rot = np.stack([-sgn * rel[:, 1], sgn * rel[:, 0]], 1) + c
        idx = _nearest_vertex(pos, rot, tol)
        if idx.min() < 0 or len(np.unique(idx)) != mp.n_vertices:
            continue
        if not np.all(mp.colors[idx] == 1 - mp.colors):
            continue
        img_ab, img_cd = np.unique(idx[m.arc_ab]), np.unique(idx[m.arc_cd])
        for x, y in ((m.arc_bc, m.arc_da), (m.arc_da, m.arc_bc)):
            if np.array_equal(img_ab, np.unique(x)) and np.array_equal(img_cd, np.unique(y)):
                return True
    return False


# -- the harness --------------------------------------------------------------------


@dataclass
class LevelRecord:
    eps: float
    error: Optional[str] = None
    delta: float = math.nan
    L_n: float = math.nan
    face_count: int = 0
    sup_dev_vs_reference: Optional[float] = None
    sup_dev_vs_next_level: Optional[float] = None
    chi: float = math.nan
    chi_dual: float = math.nan
    K_hat: float = math.nan
    d_hat: float = math.nan
    d_hat_prime: float = math.nan
    mesh_eps: float = math.nan
    duality_defect: float = math.nan
    cr_residual: float = math.nan
    phi_gap_bound: float = math.nan
    area_defect: float = math.nan
    overlap_count: int = 0            # every overlapping pair of live tiles
    containment_count: int = 0
    symmetric_square: bool = False
    runtime_s: float = math.nan

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class ConvergenceReport:
    spec: DomainSpec
    eps0: float
    probe_margin: float
    levels: list[LevelRecord]
    L_ref: Optional[float] = None
    C_sup_dev: Optional[float] = None
    K_hat_coarsest: Optional[float] = None
    probe_count: int = 0

    def to_json_dict(self) -> dict:
        return {"schema": SCHEMA,
                "spec": self.spec.to_json_dict(),
                "eps0": self.eps0,
                "probe_margin": self.probe_margin,
                "probe_count": self.probe_count,
                "L_ref": self.L_ref,
                "C_sup_dev": self.C_sup_dev,
                "K_hat_coarsest": self.K_hat_coarsest,
                "calibration_policy": ("C_sup_dev and K_hat_coarsest are fixed at "
                                       "the coarsest level; calibrated gradient "
                                       "constants use 4x K_hat_coarsest"),
                "levels": [lv.to_json_dict() for lv in self.levels]}


def save_report(path: str, rep: ConvergenceReport) -> None:
    save_json(path, rep.to_json_dict())


def _run_level(spec: DomainSpec, eps: float, probes: np.ndarray,
               solver_tol: float, verify_tol: float,
               save_dir: Optional[str] = None, level: int = 0):
    rec = LevelRecord(eps=eps)
    t0 = time.perf_counter()
    try:
        mm, cert = gridgen.grid_approximation(spec, eps)
    except GenerationError as exc:
        rec.error = str(exc)
        rec.runtime_s = time.perf_counter() - t0
        return rec, None
    rec.delta = cert.delta
    rec.face_count = mm.map.n_faces
    rec.mesh_eps = mm.map.mesh_eps
    t, h, ht = tiling.build_tiling(mm, tol=solver_tol)
    rec.L_n = t.L
    vrep = tiling.verify_tiling(t, tol=verify_tol)
    rec.area_defect = vrep.area_defect
    rec.overlap_count = len(vrep.overlaps)
    rec.containment_count = len(vrep.containment)
    # t.L is the primal extremal length, so only the dual system is solved,
    # started from the normalized conjugate
    rec.duality_defect = abs(t.L * extremal_length(mm, "dual", solver_tol, ht.values).lam - 1.0)
    F = holo.assemble(mm, h, ht)
    rec.cr_residual = F.max_cr_residual
    prof = modulus_profile(mm, h, ht)
    rec.chi = prof.chi
    rec.chi_dual = prof.chi_dual
    rec.K_hat = prof.K_hat
    rec.d_hat = prof.d_hat
    rec.d_hat_prime = prof.d_hat_prime
    # per-face tiling map vs interpolated extension: both land in the same
    # tile rectangle up to one gradient step, bounded by the modulus shape
    dmin = min(prof.d_hat, prof.d_hat_prime)
    if dmin > prof.eps and math.isfinite(prof.K_hat):
        rec.phi_gap_bound = (prof.K_hat * max(t.L, 1.0)
                             / math.log(dmin / prof.eps))
    rec.symmetric_square = rotation_color_swap_symmetric(mm)
    if save_dir is not None:
        base = os.path.join(save_dir, f"level{level:02d}")
        save_map(base + ".map.json", mm.map, mm.marked)
        save_json(base + ".cert.json", cert.to_json_dict())
        tiling.save_tiling(base + ".tiling.json", t)
    vals = tiling.InterpolatedMap(mm, h, ht).evaluate_many(probes)
    rec.runtime_s = time.perf_counter() - t0
    return rec, vals


def convergence_run(spec: DomainSpec, eps0: float, levels: int,
                    probe_margin: Optional[float] = None,
                    solver_tol: float = harmonic.DEFAULT_TOL,
                    verify_tol: float = tiling.VERIFY_TOL,
                    save_dir: Optional[str] = None) -> ConvergenceReport:
    """Generate, tile, verify and probe `levels` refinements with
    eps = eps0 / 2^k.  Per-level generation errors are recorded and the
    run continues.  Deviations are measured against the affine reference
    when one exists, and against the next level always.  With save_dir the
    per-level map, certificate and tiling files are persisted for
    re-verification."""
    if levels < 2:
        raise ValueError("need at least 2 levels")
    diam = spec.boundary.diameter()
    if probe_margin is None:
        probe_margin = 0.1 * diam
    if save_dir is not None:
        os.makedirs(save_dir, exist_ok=True)
    probes = probe_points(spec, probe_margin)
    probes_c = probes[:, 0] + 1j * probes[:, 1]

    ref = reference_map(spec)
    eps_list = [eps0 * 2.0 ** (-k) for k in range(levels)]
    results = [_run_level(spec, e, probes, solver_tol, verify_tol, save_dir, k)
               for k, e in enumerate(eps_list)]

    recs = [r for r, _ in results]
    vals = [v for _, v in results]

    if ref is not None:
        phi, L_ref = ref
        phi_vals = np.array([phi(z) for z in probes_c])
    for k, (rec, v) in enumerate(zip(recs, vals)):
        if v is None:
            continue
        good = ~np.isnan(v.real)
        if ref is not None and good.any():
            rec.sup_dev_vs_reference = float(np.abs(v[good] - phi_vals[good]).max())
        if k + 1 < levels and vals[k + 1] is not None:
            both = good & ~np.isnan(vals[k + 1].real)
            if both.any():
                rec.sup_dev_vs_next_level = float(
                    np.abs(v[both] - vals[k + 1][both]).max())

    rep = ConvergenceReport(spec=spec, eps0=eps0, probe_margin=probe_margin,
                            levels=recs, probe_count=len(probes))
    if ref is not None:
        rep.L_ref = ref[1]
    first_ok = next((r for r in recs if r.error is None), None)
    if first_ok is not None:
        rep.K_hat_coarsest = first_ok.K_hat
        if first_ok.sup_dev_vs_reference is not None:
            rep.C_sup_dev = first_ok.sup_dev_vs_reference * math.log(1.0 / first_ok.eps)
    return rep
