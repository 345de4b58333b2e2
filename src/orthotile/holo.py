"""Discrete holomorphicity diagnostics: per-face Cauchy-Riemann residuals,
discrete contour integrals, and the discrete Green identity.

A discrete holomorphic function carries its real part on primal vertices
and its imaginary part on dual vertices; on each face (v1, w1, v2, w2) the
difference quotients along the two diagonals agree:
(F(v2) - F(v1)) / (z(v2) - z(v1)) = (F(w2) - F(w1)) / (z(w2) - z(w1)).

Contours are simple closed walks in the quadrangulation, alternating
primal/dual vertices.  Admissibility (the walk encloses only faces of the
map) is checked by comparing the walk polygon's area with the total area
of the enclosed faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import geom, harmonic
from .odmap import (PRIMAL, ContourError, MapError, MarkedRectangleMap, OrthodiagonalMap,
                    side_keys, trace_boundary)


@dataclass
class DiscreteHolomorphic:
    """F as one complex array over map vertex ids, Re at primal vertices
    and Im at dual ones, plus the per-face CR residuals of the pair."""

    m: OrthodiagonalMap
    values: np.ndarray

    def __post_init__(self):
        self.z = self.m.positions[:, 0] + 1j * self.m.positions[:, 1]
        vals = self.values
        f = self.m.faces
        dz_p = self.z[f[:, 2]] - self.z[f[:, 0]]
        dz_d = self.z[f[:, 3]] - self.z[f[:, 1]]
        dF_p = vals[f[:, 2]] - vals[f[:, 0]]
        dF_d = vals[f[:, 3]] - vals[f[:, 1]]
        self.face_residuals = np.abs(dF_p / dz_p - dF_d / dz_d)

    @property
    def max_cr_residual(self) -> float:
        return float(self.face_residuals.max()) if len(self.face_residuals) else 0.0


def assemble(m: MarkedRectangleMap, h: harmonic.HarmonicField,
             h_tilde: harmonic.HarmonicField) -> DiscreteHolomorphic:
    """Bundle a conjugate tiling pair as F = h + i htilde."""
    vals = np.zeros(m.map.n_vertices, dtype=complex)
    p, d = h.graph.ids, h_tilde.graph.ids
    vals[p] = h.values[p]
    vals[d] = 1j * h_tilde.values[d]
    return DiscreteHolomorphic(m.map, vals)


def from_function(m: OrthodiagonalMap, fn: Callable[[complex], complex]
                  ) -> DiscreteHolomorphic:
    """Sample a complex function: Re(fn) on primal vertices, Im(fn) on dual."""
    vals = np.zeros(m.n_vertices, dtype=complex)
    for v in range(m.n_vertices):
        w = fn(complex(m.positions[v, 0], m.positions[v, 1]))
        vals[v] = w.real if m.colors[v] == PRIMAL else 1j * w.imag
    return DiscreteHolomorphic(m, vals)


# -- contours ---------------------------------------------------------------------


def _normalize_walk(m: OrthodiagonalMap, walk: Sequence[int]) -> list[int]:
    w = [int(x) for x in walk]
    if len(w) >= 2 and w[0] == w[-1]:
        w = w[:-1]
    if len(w) < 4:
        raise ContourError("walk too short")
    a = np.array(w, dtype=np.int64)
    if len(np.unique(a)) != len(a):
        raise ContourError("walk is not simple")
    b = np.roll(a, -1)
    is_side = np.isin(side_keys(a, b), m.sorted_side_keys())
    bad = ~is_side | (m.colors[a] == m.colors[b])
    if bad.any():
        i = int(np.argmax(bad))
        if not is_side[i]:
            raise ContourError(f"walk step {a[i]}->{b[i]} is not an edge of the map")
        raise ContourError("walk does not alternate colors")
    return w


def enclosed_faces(m: OrthodiagonalMap, walk: Sequence[int]) -> np.ndarray:
    """Face ids whose centroid lies inside the walk polygon (even-odd)."""
    w = _normalize_walk(m, walk)
    poly = m.positions[np.array(w, dtype=np.int64)]
    return np.flatnonzero(geom.points_in_ring(m.face_centroids(), poly))


def _check_admissible(m: OrthodiagonalMap, walk: list[int]) -> np.ndarray:
    """Enclosed interior faces must tile the walk polygon exactly."""
    poly = m.positions[np.array(walk, dtype=np.int64)]
    area = geom.signed_area(poly)
    inside = enclosed_faces(m, walk)
    face_area = float(m.face_areas()[inside].sum())
    if abs(abs(area) - face_area) > 1e-9 * max(abs(area), 1e-12):
        raise ContourError("walk encloses a region not tiled by interior faces")
    return inside


def _closed_sum(F: DiscreteHolomorphic, walk: Sequence[int]) -> complex:
    """sum (F(e-) + F(e+)) (z(e+) - z(e-)) over the steps e of the closed
    walk through the vertex ids walk."""
    idx = np.append(walk, walk[0])
    fv = F.values[idx]
    zv = F.z[idx]
    return complex(np.sum((fv[:-1] + fv[1:]) * (zv[1:] - zv[:-1])))


def contour_integral(F: DiscreteHolomorphic, contour: Sequence[int]) -> complex:
    """Discrete contour integral sum (F(e-) + F(e+)) (z(e+) - z(e-)) over
    the directed walk; vanishes for discrete holomorphic F on admissible
    contours."""
    w = _normalize_walk(F.m, contour)
    _check_admissible(F.m, w)
    return _closed_sum(F, w)


def face_integral(F: DiscreteHolomorphic, fi: int) -> complex:
    """Single-face contour integral; equals
    (dF_primal)(dz_dual) - (dF_dual)(dz_primal), i.e. the CR defect."""
    return _closed_sum(F, F.m.faces[fi])


def _paired_sum(F: DiscreteHolomorphic, walk: list[int]) -> complex:
    """sum_i F(w_i) (z(x_i) - z(x_{i-1})) over primal w_i with flanking
    dual walk vertices x_{i-1}, x_i."""
    w = list(walk)
    if F.m.colors[w[0]] != PRIMAL:
        w = w[1:] + w[:1]
    total = 0j
    n = len(w)
    for i in range(0, n, 2):
        wp = w[i]
        x_prev = w[(i - 1) % n]
        x_next = w[(i + 1) % n]
        total += F.values[wp].real * (F.z[x_next] - F.z[x_prev])
    return complex(total)


def green_residual(F: DiscreteHolomorphic, outer: Sequence[int],
                   inner: Sequence[int]) -> complex:
    """Defect of the discrete Green identity on the annulus between two
    counterclockwise contours:

        P(outer) - P(inner) - sum_{faces in annulus} (F(u2)-F(u1))(z(v2)-z(v1))

    where P pairs the real part at primal walk vertices with the flanking
    dual position increments.  Zero (to rounding) for any real primal data.
    """
    wo = _normalize_walk(F.m, outer)
    wi = _normalize_walk(F.m, inner)
    if geom.signed_area(F.m.positions[np.array(wo)]) <= 0:
        raise ContourError("outer walk must be counterclockwise")
    if geom.signed_area(F.m.positions[np.array(wi)]) <= 0:
        raise ContourError("inner walk must be counterclockwise")
    fo, fi_ = _check_admissible(F.m, wo), _check_admissible(F.m, wi)
    if not np.isin(fi_, fo).all():
        raise ContourError("inner walk is not nested inside the outer walk")
    f = F.m.faces[np.setdiff1d(fo, fi_)]
    dF_p = F.values[f[:, 2]].real - F.values[f[:, 0]].real
    dz_d = F.z[f[:, 3]] - F.z[f[:, 1]]
    face_sum = complex(np.sum(dF_p * dz_d))
    return _paired_sum(F, wo) - _paired_sum(F, wi) - face_sum


def boundary_walk_of_faces(m: OrthodiagonalMap, face_ids: Sequence[int]) -> list[int]:
    """Counterclockwise boundary walk of a simply-connected union of faces
    (the standard way to build an admissible contour)."""
    faces = m.faces[np.unique(np.asarray(face_ids, dtype=np.int64))]
    try:
        return trace_boundary(faces)
    except MapError as exc:
        raise ContourError(f"face set: {exc}") from exc
