"""BSST rectangle tiling of a marked orthodiagonal map, its verification,
the piecewise-linear interpolated map, and SVG rendering.

build_tiling solves the primal boundary value problem (0 on the arc A..B,
L on C..D where L is the effective resistance between them), integrates
the conjugate dual field, normalizes it to [0, 1] boundary values, and
assigns each interior face the axis-aligned rectangle
[h(v1), h(v2)] x [htilde(w1), htilde(w2)].  Tile coordinates reuse the
solved vertex values bitwise, so abutting tiles share exact floats and
overlap detection needs no slack of its own.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field

import numpy as np

from . import harmonic
from .odmap import FaceLocator, MarkedRectangleMap, first_per_point


@dataclass(frozen=True)
class Tile:
    face: int
    edge: tuple[int, int]      # primal diagonal, sorted ids
    x0: float
    x1: float
    y0: float
    y1: float
    degenerate: bool

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass
class Tiling:
    L: float
    tiles: list[Tile]

    @property
    def degenerate_count(self) -> int:
        return sum(1 for t in self.tiles if t.degenerate)

    def total_area(self) -> float:
        return float(sum(t.area for t in self.tiles))

    def to_json_dict(self) -> dict:
        return {"L": self.L,
                "tiles": [{"face": t.face, "edge": list(t.edge),
                           "x0": t.x0, "x1": t.x1, "y0": t.y0, "y1": t.y1}
                          for t in self.tiles]}

    @staticmethod
    def from_json_dict(d: dict, degenerate_tol: float = 1e-9) -> "Tiling":
        L = float(d["L"])
        s = max(L, 1.0)
        tiles = []
        for rec in d["tiles"]:
            x0, x1, y0, y1 = (float(rec[k]) for k in ("x0", "x1", "y0", "y1"))
            deg = (x1 - x0) <= degenerate_tol * s or (y1 - y0) <= degenerate_tol
            tiles.append(Tile(int(rec["face"]), tuple(rec["edge"]), x0, x1, y0, y1, deg))
        return Tiling(L, tiles)


def save_tiling(path: str, t: Tiling) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(t.to_json_dict(), fh, indent=1)
        fh.write("\n")


def load_tiling(path: str) -> Tiling:
    with open(path, encoding="utf-8") as fh:
        return Tiling.from_json_dict(json.load(fh))


def build_tiling(m: MarkedRectangleMap, tol: float = 1e-12,
                 degenerate_tol: float = 1e-9, aspect_tol: float = 1e-8,
                 ) -> tuple[Tiling, harmonic.HarmonicField, harmonic.HarmonicField]:
    """Solve the conjugate pair and assemble one tile per interior face.

    tol is the solver's relative residual.  A tile is flagged degenerate
    when its width or height cannot be certified nonzero: below
    degenerate_tol * max(L, 1), or below the conjugacy cycle residual
    divided by aspect_tol (the width at which the height/width ratio stops
    being meaningful at aspect_tol accuracy).  Degenerate tiles keep their
    (vanishing) area in all accounting.
    """
    gp = m.map.extract_primal()
    pinned01 = {int(v): 0.0 for v in m.arc_ab}
    pinned01.update({int(v): 1.0 for v in m.arc_cd})
    if set(m.arc_ab) & set(m.arc_cd):
        raise harmonic.SolverError("Dirichlet arcs overlap")
    h01 = harmonic.solve_dirichlet(gp, pinned01, tol)
    L = 1.0 / h01.energy

    pinned = {int(v): 0.0 for v in m.arc_ab}
    pinned.update({int(v): L for v in m.arc_cd})
    h = harmonic.HarmonicField(gp, L * h01.values, pinned, h01.tol * max(L, 1.0))

    conj, max_res = harmonic.harmonic_conjugate(m, h)
    # normalize the conjugate's boundary values onto [0, 1] exactly: shift
    # the low arc to 0 and scale the high arc's max to 1 (the scale differs
    # from 1 by the accumulated cycle residual, well under all tolerances)
    shift = float(conj.values[m.arc_bc].min())
    span = float(conj.values[m.arc_da].max()) - shift
    span = span if span > 0 else 1.0
    t_boundary = {k: (v - shift) / span for k, v in conj.boundary.items()}
    h_tilde = harmonic.HarmonicField(conj.graph, (conj.values - shift) / span,
                                     t_boundary, conj.tol)

    v1, w1, v2, w2 = m.map.faces.T
    xa, xb = h.values[v1], h.values[v2]
    ya, yb = h_tilde.values[w1], h_tilde.values[w2]
    x0, x1 = np.minimum(xa, xb), np.maximum(xa, xb)
    y0, y1 = np.minimum(ya, yb), np.maximum(ya, yb)
    floor = max(degenerate_tol * max(L, 1.0), max_res / aspect_tol)
    deg = (x1 - x0 <= floor) | (y1 - y0 <= floor)
    tiles = [Tile(fi, (a, b), *rect) for fi, (a, b, *rect) in enumerate(zip(
        np.minimum(v1, v2).tolist(), np.maximum(v1, v2).tolist(),
        x0.tolist(), x1.tolist(), y0.tolist(), y1.tolist(), deg.tolist()))]
    return Tiling(L, tiles), h, h_tilde


@dataclass
class TilingReport:
    containment: list[tuple[int, float]] = field(default_factory=list)
    overlaps: list[tuple[int, int, float]] = field(default_factory=list)
    area_defect: float = 0.0
    area_ok: bool = True

    @property
    def ok(self) -> bool:
        return not self.containment and not self.overlaps and self.area_ok


def verify_tiling(t: Tiling, tol: float = 1e-9) -> TilingReport:
    """Check the three BSST facts: tiles inside [0, L] x [0, 1], pairwise
    interior overlap area zero, areas summing to L (all within tol scaled
    by max(L, 1)).  Overlap detection is an x-sweep over y-intervals; the
    report names violating tile pairs."""
    rep = TilingReport()
    s = max(t.L, 1.0)
    slack = tol * s
    for tile in t.tiles:
        excess = max(0.0 - tile.x0, tile.x1 - t.L, 0.0 - tile.y0, tile.y1 - 1.0,
                     tile.x0 - tile.x1, tile.y0 - tile.y1)
        if excess > slack:
            rep.containment.append((tile.face, float(excess)))

    live = [tile for tile in t.tiles if not tile.degenerate
            and tile.width > 0.0 and tile.height > 0.0]
    events = []
    for k, tile in enumerate(live):
        events.append((tile.x0, 1, k))
        events.append((tile.x1, 0, k))
    events.sort(key=lambda e: (e[0], e[1]))
    active_y0: list[float] = []
    active_k: list[int] = []

    def overlap_area(a: Tile, b: Tile) -> float:
        w = min(a.x1, b.x1) - max(a.x0, b.x0)
        hgt = min(a.y1, b.y1) - max(a.y0, b.y0)
        return max(w, 0.0) * max(hgt, 0.0)

    seen_pairs = set()
    for _, typ, k in events:
        tile = live[k]
        if typ == 0:
            i = bisect.bisect_left(active_y0, tile.y0)
            while i < len(active_k) and active_k[i] != k:
                i += 1
            if i < len(active_k):
                del active_y0[i]
                del active_k[i]
            continue
        i = bisect.bisect_left(active_y0, tile.y0)
        for j in (i - 1, i):
            if 0 <= j < len(active_k):
                other = live[active_k[j]]
                area = overlap_area(tile, other)
                if area > slack:
                    key = tuple(sorted((tile.face, other.face)))
                    if key not in seen_pairs:
                        seen_pairs.add(key)
                        rep.overlaps.append((key[0], key[1], float(area)))
        active_y0.insert(i, tile.y0)
        active_k.insert(i, k)

    rep.area_defect = float(abs(t.total_area() - t.L))
    rep.area_ok = rep.area_defect <= slack
    return rep


# -- interpolated map -----------------------------------------------------------


class InterpolatedMap:
    """Continuous piecewise-linear extension of the conjugate pair on the
    four triangles obtained by fanning each face around the midpoint of
    its primal diagonal.

    The real part agrees with h at primal vertices and the imaginary part
    with htilde at dual vertices, exactly; the component the data does not
    pin at a vertex (Im at primal, Re at dual) is filled with the average
    over the vertex's cross-color neighbors, which keeps the extension
    continuous and within one gradient step of the discrete data.  The
    fan midpoint carries (h(v1)+h(v2))/2 + i (ht(w1)+ht(w2))/2.
    Evaluation uses a uniform spatial hash; ties go to the lowest face id.
    """

    def __init__(self, m: MarkedRectangleMap, h: harmonic.HarmonicField,
                 h_tilde: harmonic.HarmonicField):
        self.m = m
        nv = m.map.n_vertices
        hv, tv = h.values, h_tilde.values
        # cross-color neighbor averages along quad sides, each vertex's terms
        # summed in the iteration order of a set of the sides inserted in row
        # order (summing in row order moves the averages by up to 4.4e-16)
        sides = np.array(list({(a, b) for a, b in m.map.side_edges().tolist()}),
                         dtype=np.int64)
        primal_first = (m.map.colors[sides[:, 0]] == 0)[:, None]
        pa, da = np.where(primal_first, sides, sides[:, ::-1]).T
        to = np.stack([pa, da], axis=1).ravel()
        acc = np.zeros(nv)
        np.add.at(acc, to, np.stack([tv[da], hv[pa]], axis=1).ravel())
        cnt = np.bincount(to, minlength=nv).astype(float)
        avg = acc / np.where(cnt == 0, 1.0, cnt)
        re, im = avg.copy(), avg.copy()
        re[h.graph.ids] = hv[h.graph.ids]
        im[h_tilde.graph.ids] = tv[h_tilde.graph.ids]
        self.vertex_values = re + 1j * im
        self.locator = FaceLocator(m.map)

    def evaluate(self, p) -> complex:
        """Interpolated complex value at a point of the mesh support;
        raises ValueError outside."""
        p = np.asarray(p, dtype=float)
        val = self.evaluate_many(p)[0]
        if np.isnan(val.real):
            raise ValueError(f"point {tuple(p)} is outside the mesh support")
        return val

    def evaluate_many(self, pts) -> np.ndarray:
        """Interpolated values at many points, NaN outside the support.

        Each point takes its value from the lowest-id face that contains it
        and whose fan triangles cover it (adjacent fan triangles agree along
        shared edges, so a generous barycentric slack cannot change the
        value discontinuously)."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        pi, fi = self.locator.containing(pts)
        mp = self.m.map
        pos, vv = mp.positions, self.vertex_values
        f = mp.faces[fi]
        v1, w1, v2, w2 = f.T
        aux = (pos[v1] + pos[v2]) / 2.0
        aux_val = (vv[v1].real + vv[v2].real) / 2.0 + 0.5j * (vv[w1].imag + vv[w2].imag)
        # fan triangle k of a face: corners k, k + 1 and the midpoint aux
        pa, pb = pos[f], pos[np.roll(f, -1, axis=1)]
        (ax, ay), (px, py) = aux.T[:, :, None], pts[pi].T[:, :, None]
        xa, ya, xb, yb = pa[..., 0], pa[..., 1], pb[..., 0], pb[..., 1]
        det = (xb - xa) * (ay - ya) - (yb - ya) * (ax - xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            l1 = ((xb - px) * (ay - py) - (yb - py) * (ax - px)) / det
            l2 = ((ax - px) * (ya - py) - (ay - py) * (xa - px)) / det
        l3 = 1.0 - l1 - l2
        eps = 1e-9
        hit = (det != 0.0) & (l1 >= -eps) & (l2 >= -eps) & (l3 >= -eps)
        r, k = np.arange(len(fi)), hit.argmax(axis=1)
        vals = (l1[r, k] * vv[f[r, k]] + l2[r, k] * vv[f[r, (k + 1) % 4]]
                + l3[r, k] * aux_val)
        found = hit.any(axis=1)
        return first_per_point(len(pts), pi[found], vals[found], np.nan + 0j)


# -- SVG ------------------------------------------------------------------------


def _edge_color(edge: tuple[int, int]) -> str:
    u, v = edge
    x = (u * 2654435761 ^ v * 40503) & 0xFFFFFFFF
    hue = (x % 360) / 360.0
    # fixed saturation/lightness; small deterministic HSL -> RGB
    c, m_ = 0.55, 0.35
    hp = hue * 6.0
    xx = c * (1 - abs(hp % 2 - 1))
    r, g, b = [(c, xx, 0), (xx, c, 0), (0, c, xx), (0, xx, c), (xx, 0, c), (c, 0, xx)][int(hp) % 6]
    return "#{:02x}{:02x}{:02x}".format(int((r + m_) * 255), int((g + m_) * 255),
                                        int((b + m_) * 255))


def render_svg(t: Tiling, scale: float = 400.0) -> str:
    """One rect per nondegenerate tile in [0, L] x [0, 1] with the y axis
    flipped for screen coordinates.  Byte-deterministic for fixed input."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             'width="{:.6f}" height="{:.6f}" viewBox="0 0 {:.6f} 1.000000">'.format(
                 scale * t.L, scale, t.L)]
    lines.append("<!-- degenerate tiles omitted: {} -->".format(t.degenerate_count))
    for tile in t.tiles:
        if tile.degenerate:
            continue
        lines.append(
            '<rect x="{:.6f}" y="{:.6f}" width="{:.6f}" height="{:.6f}" '
            'fill="{}" stroke="#000000" stroke-width="0.002"/>'.format(
                tile.x0, 1.0 - tile.y1, tile.width, tile.height,
                _edge_color(tile.edge)))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
