"""BSST rectangle tiling of a marked orthodiagonal map, its verification,
the piecewise-linear interpolated map, and SVG rendering.

build_tiling solves the primal boundary value problem (0 on the arc A..B,
L on C..D where L is the effective resistance between them), integrates
the conjugate dual field with [0, 1] boundary values
(harmonic.harmonic_conjugate), and assigns each interior face the
axis-aligned rectangle [h(v1), h(v2)] x [htilde(w1), htilde(w2)].  Tile
coordinates reuse the solved vertex values bitwise, so abutting tiles share
exact floats and overlap detection needs no slack of its own.  verify_tiling reports every
overlapping pair of live tiles, found with a geom.BoxIndex.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geom, harmonic
from .odmap import (FaceLocator, MarkedRectangleMap, barycentric, first_per_point, id_array,
                    json_floats, load_rows, write_json_rows)

DEGENERATE_TOL = 1e-9      # sides up to this (widths: times max(L, 1)) are degenerate
VERIFY_TOL = 1e-9          # verify_tiling's slack, times max(L, 1), unless a caller passes one
ASPECT_TOL = 1e-8          # build_tiling also flags sides up to cycle residual / ASPECT_TOL
SVG_SCALE = 400.0          # SVG user units per tiling unit


class Tile(NamedTuple):
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


@dataclass(eq=False)
class Tiling:
    """A BSST tiling as parallel columns, one row per tile: face (t,) int64,
    edge (t, 2) int64 sorted primal-diagonal ids, rect (t, 4) float x0, x1,
    y0, y1, degenerate (t,) bool.  After load, degenerate uses the size rule only."""

    L: float
    face: np.ndarray
    edge: np.ndarray
    rect: np.ndarray
    degenerate: np.ndarray

    def __len__(self) -> int:
        return len(self.face)

    @property
    def tiles(self) -> list[Tile]:
        """The rows as Tile tuples, built on each access."""
        return [Tile(f, tuple(e), *r, d) for f, e, r, d in zip(
            self.face.tolist(), self.edge.tolist(), self.rect.tolist(),
            self.degenerate.tolist())]

    @property
    def degenerate_count(self) -> int:
        return int(self.degenerate.sum())

    def total_area(self) -> float:
        # summed left to right from 0.0 in tile order, which fixes
        # area_defect's bits (the builtin sum compensates from Python 3.12)
        x0, x1, y0, y1 = self.rect.T
        return float(np.cumsum(np.append(0.0, (x1 - x0) * (y1 - y0)))[-1])


_TILE = ('  {\n   "face": %d,\n   "edge": [\n    %d,\n    %d\n   ],\n'
         '   "x0": %s,\n   "x1": %s,\n   "y0": %s,\n   "y1": %s\n  }')


def save_tiling(path: str, t: Tiling) -> None:
    """Write {"L", "tiles": [{face, edge, x0, x1, y0, y1}]} in
    json.dump(indent=1) bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n "L": %s,\n' % json_floats(np.array([t.L], dtype=float))[0])
        write_json_rows(fh, "tiles", _TILE, [t.face, *t.edge.T, *t.rect.T])
        fh.write("\n}\n")


def load_tiling(path: str) -> Tiling:
    """Read a save_tiling file, its tile records straight into columns;
    degenerate uses the size rule only.  Tile faces and edge ids follow the
    id rule (odmap.id_array); L must be positive and finite, else ValueError."""
    face, eu, ev, rect = [], [], [], array.array("d")

    def row(r):
        face.append(r["face"])
        e = r["edge"]
        if len(e) != 2:
            raise ValueError("a tile edge must be a pair of vertex ids")
        eu.append(e[0])
        ev.append(e[1])
        rect.extend((float(r["x0"]), float(r["x1"]), float(r["y0"]), float(r["y1"])))

    d = load_rows(path, "tiles", frozenset(("face", "edge", "x0", "x1", "y0", "y1")), row)
    L = float(d["L"])
    if not 0.0 < L < math.inf:
        raise ValueError(f"L must be positive and finite, not {L}")
    face = id_array(face, None, "tile faces must be integers")
    edge = np.stack([id_array(c, None, "tile edges must be integer pairs") for c in (eu, ev)],
                    axis=1).reshape(-1, 2)
    rect = np.frombuffer(rect).reshape(-1, 4)
    x0, x1, y0, y1 = rect.T
    deg = (x1 - x0 <= DEGENERATE_TOL * max(L, 1.0)) | (y1 - y0 <= DEGENERATE_TOL)
    return Tiling(L, face, edge, rect, deg)


def build_tiling(m: MarkedRectangleMap, tol: float = harmonic.DEFAULT_TOL
                 ) -> tuple[Tiling, harmonic.HarmonicField, harmonic.HarmonicField]:
    """Solve the conjugate pair and assemble one tile per interior face.

    tol is the solver's relative residual.  A tile is flagged degenerate
    when its width or height cannot be certified nonzero: below
    DEGENERATE_TOL * max(L, 1), or below the conjugacy cycle residual
    divided by ASPECT_TOL.  Degenerate tiles keep their (vanishing) area
    in all accounting.
    """
    gp = m.map.extract_primal()
    h01 = harmonic.solve_dirichlet(gp, *harmonic.unit_pins(m.arc_ab, m.arc_cd), tol)
    L = 1.0 / h01.energy
    # L * 0.0 and L * 1.0 are the pinned values 0 and L exactly
    h = harmonic.HarmonicField(gp, L * h01.values, h01.boundary, h01.tol * max(L, 1.0),
                               h01.iterations)

    h_tilde, max_res = harmonic.harmonic_conjugate(m, h)

    v1, w1, v2, w2 = m.map.faces.T
    xa, xb = h.values[v1], h.values[v2]
    ya, yb = h_tilde.values[w1], h_tilde.values[w2]
    x0, x1 = np.minimum(xa, xb), np.maximum(xa, xb)
    y0, y1 = np.minimum(ya, yb), np.maximum(ya, yb)
    floor = max(DEGENERATE_TOL * max(L, 1.0), max_res / ASPECT_TOL)
    deg = (x1 - x0 <= floor) | (y1 - y0 <= floor)
    return Tiling(L, np.arange(len(v1), dtype=np.int64),
                  np.stack([np.minimum(v1, v2), np.maximum(v1, v2)], axis=1),
                  np.stack([x0, x1, y0, y1], axis=1), deg), h, h_tilde


@dataclass
class TilingReport:
    """verify_tiling's findings; overlaps holds every overlapping live pair."""
    containment: list[tuple[int, float]] = field(default_factory=list)
    overlaps: list[tuple[int, int, float]] = field(default_factory=list)
    area_defect: float = 0.0
    area_ok: bool = True

    @property
    def ok(self) -> bool:
        return not self.containment and not self.overlaps and self.area_ok


def verify_tiling(t: Tiling, tol: float = VERIFY_TOL) -> TilingReport:
    """Check the three BSST facts: tiles inside [0, L] x [0, 1], pairwise
    interior overlap area zero, areas summing to L (all within tol scaled
    by max(L, 1)).  A tile with a NaN bound fails containment.  Every pair
    of live tiles (nondegenerate, positive width and height) overlapping by
    more than the slack is reported once, as (face a, face b, area), a <= b,
    sorted.  A geom.BoxIndex of the live tiles clamped to the target (a
    monotone clamp keeps every meeting pair), in cells of side sqrt(L / live
    tiles), finds them; L is taken as 1 where not positive and finite."""
    rep = TilingReport()
    slack = tol * max(t.L, 1.0)
    x0, x1, y0, y1 = t.rect.T
    excess = np.max([0.0 - x0, x1 - t.L, 0.0 - y0, y1 - 1.0, x0 - x1, y0 - y1], axis=0)
    out = ~(excess <= slack)
    rep.containment = list(zip(t.face[out].tolist(), excess[out].tolist()))

    live = ~t.degenerate & (x1 - x0 > 0.0) & (y1 - y0 > 0.0)
    if live.any():
        face, (lx0, lx1, ly0, ly1) = t.face[live], t.rect[live].T

        def area(i, j):
            return (np.maximum(np.minimum(lx1[i], lx1[j]) - np.maximum(lx0[i], lx0[j]), 0.0)
                    * np.maximum(np.minimum(ly1[i], ly1[j]) - np.maximum(ly0[i], ly0[j]), 0.0))

        width = t.L if 0.0 < t.L < math.inf else 1.0
        box = np.clip(np.stack([lx0, ly0, lx1, ly1], axis=1), 0.0, [width, 1.0, width, 1.0])
        lo, hi = box[:, :2], box[:, 2:]
        index = geom.BoxIndex(lo, hi, math.sqrt(width / len(face)))
        i, j = index.pairs(lo, hi, lambda i, j: (i < j) & (area(i, j) > slack))
        a, b = np.minimum(face[i], face[j]), np.maximum(face[i], face[j])
        order = np.lexsort((b, a))
        rep.overlaps = list(zip(a[order].tolist(), b[order].tolist(),
                                area(i, j)[order].tolist()))

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
    over the vertex's cross-color neighbors (summed in the row order of
    the map's side_edges()), which keeps the extension
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
        # summed from 0.0 in the row order of side_edges()
        sides = m.map.side_edges()
        primal_first = (m.map.colors[sides[:, 0]] == 0)[:, None]
        pa, da = np.where(primal_first, sides, sides[:, ::-1]).T
        to = np.stack([pa, da], axis=1).ravel()
        acc = np.bincount(to, np.stack([tv[da], hv[pa]], axis=1).ravel(), minlength=nv)
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
        det, l1, l2, l3 = barycentric(pos[f], pos[np.roll(f, -1, axis=1)], aux[:, None],
                                      pts[pi][:, None])
        eps = 1e-9
        hit = (det != 0.0) & (l1 >= -eps) & (l2 >= -eps) & (l3 >= -eps)
        r, k = np.arange(len(fi)), hit.argmax(axis=1)
        vals = (l1[r, k] * vv[f[r, k]] + l2[r, k] * vv[f[r, (k + 1) % 4]]
                + l3[r, k] * aux_val)
        found = hit.any(axis=1)
        return first_per_point(len(pts), pi[found], vals[found], np.nan + 0j)


# -- SVG ------------------------------------------------------------------------


_RECT = ('<rect x="%.6f" y="%.6f" width="%.6f" height="%.6f" '
         'fill="#%02x%02x%02x" stroke="#000000" stroke-width="0.002"/>')


def _edge_rgb(edge: np.ndarray) -> np.ndarray:
    """(t, 3) 0-255 channels per primal diagonal (u, v): a hue hashed from
    the ids at fixed saturation and lightness (a small HSL -> RGB)."""
    u, v = edge.T
    # int64 products may wrap, which keeps their low 32 bits
    x = (u * 2654435761 ^ v * 40503) & 0xFFFFFFFF
    hp = (x % 360) / 360.0 * 6.0
    c, m_ = 0.55, 0.35
    xx = c * (1 - np.abs(hp % 2 - 1))
    sector = hp.astype(np.int64) % 6
    rgb = [np.choose(sector, ch) for ch in ((c, xx, 0, 0, xx, c), (xx, c, c, xx, 0, 0),
                                             (0, 0, xx, c, c, xx))]
    return ((np.stack(rgb, axis=1) + m_) * 255).astype(np.int64)


def render_svg(t: Tiling) -> str:
    """One rect per nondegenerate tile in [0, L] x [0, 1] with the y axis
    flipped for screen coordinates.  Byte-deterministic for fixed input."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             'width="{:.6f}" height="{:.6f}" viewBox="0 0 {:.6f} 1.000000">'.format(
                 SVG_SCALE * t.L, SVG_SCALE, t.L)]
    lines.append("<!-- degenerate tiles omitted: {} -->".format(t.degenerate_count))
    live = ~t.degenerate
    x0, x1, y0, y1 = t.rect[live].T
    cols = [x0, 1.0 - y1, x1 - x0, y1 - y0, *_edge_rgb(t.edge[live]).T]
    lines += [_RECT % row for row in zip(*(c.tolist() for c in cols))]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
