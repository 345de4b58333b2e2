"""Discrete potential theory on weighted graphs.

Dirichlet solves use conjugate gradient on the reduced SPD system (free
vertices in ascending-id order), preconditioned by an aggregation-multigrid
V-cycle.  No solve step calls BLAS or LAPACK (products go through
SlotMatrix, sums through np.add.reduce), so a solve's bits do not depend
on the BLAS thread count.  The conjugate's breadth-first search has
scipy.sparse.csgraph's order; no scipy module is imported.  The search and
the random walk read WeightedGraph.adjacency's arrays.  A dense direct
solve is an independent oracle, and a random-walk estimator gives a third
route to the same values.

Solves take the pinned set as parallel arrays of ids and values; a solved
field keeps the ids in that order, and a flow its ends, as int64 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .odmap import MarkedRectangleMap, WeightedGraph, component_labels

#: the solver's relative residual, unless a caller passes its own
DEFAULT_TOL = 1e-12
#: harmonic_conjugate's bound on the non-tree CR residual, relative to max(gap, 1)
CYCLE_TOL_REL = 1e-8
#: random_walk_oracle's bound on the steps of all its walks together
MAX_WALK_STEPS = 10 ** 8
#: the CG step cap; the L-shape's primal solve takes 59 steps at eps 2^-7
MAX_STEPS = 1000
#: _multigrid's damped-Jacobi weight, its finest level's over-correction,
#: in (1, 2), and the most unknowns of a level it inverts directly
OMEGA, ALPHA, COARSEST = 2.0 / 3.0, 1.8, 64


class SolverError(RuntimeError):
    """Dirichlet solve failed (disconnected free region, no convergence)."""

    def __init__(self, message: str, residual: Optional[float] = None):
        super().__init__(message)
        self.residual = residual


class ConjugacyError(RuntimeError):
    """Cycle residuals of the integrated conjugate exceed tolerance."""


def dirichlet_energy(g: WeightedGraph, values: np.ndarray) -> float:
    """sum over edges of c(e) (f(e+) - f(e-))^2, for values indexed by
    vertex id."""
    d = values[g.edge_v] - values[g.edge_u]
    return float(np.sum(g.edge_c * d * d))


@dataclass
class HarmonicField:
    """Vertex potential on one color class with its boundary record.

    values is a float array indexed by vertex id, NaN at ids outside the
    graph; boundary is the int64 array of pinned ids, in the caller's
    order, and values holds their pinned values.  residual is max
    |Laplacian| over free vertices, checked against tol at construction,
    and energy is sum_e c(e) (df(e))^2.  The maximum principle is enforced
    up to tol * gap slack.  iterations is the number of CG steps that
    solved it (0 for a dense solve, no free vertices, a start that met tol,
    or a field that no solve produced).
    """

    graph: WeightedGraph
    values: np.ndarray
    boundary: np.ndarray
    tol: float
    iterations: int = 0
    residual: float = field(init=False)
    energy: float = field(init=False)

    def __post_init__(self):
        g = self.graph
        self.boundary = np.asarray(self.boundary, dtype=np.int64)
        iu, iv = g.edge_index
        flux = g.edge_c * (self.values[g.edge_v] - self.values[g.edge_u])
        lap = np.zeros(g.n)
        np.add.at(lap, iu, flux)
        np.add.at(lap, iv, -flux)
        free = ~np.isin(g.ids, self.boundary)
        self.residual = float(np.abs(lap[free]).max()) if free.any() else 0.0
        self.energy = dirichlet_energy(g, self.values)
        bvals = self.values[self.boundary]
        lo, hi = float(bvals.min()), float(bvals.max())
        if self.residual > self.tol * max(-lo, hi, 1.0):
            raise SolverError(
                f"free-vertex residual {self.residual:.3e} exceeds tol {self.tol:.3e}",
                residual=self.residual)
        slack = max(self.tol, 1e-12) * max(hi - lo, 1.0)
        varr = self.values[g.ids]
        if varr.min() < lo - slack or varr.max() > hi + slack:
            raise SolverError("maximum principle violated by solved field")

    def gap(self) -> float:
        return float(np.ptp(self.values[self.boundary]))


class SlotMatrix:
    """A square sparse matrix whose product sums each row's entries in
    ascending column order from 0.0, as scipy's csr_matvec does, with no
    BLAS call.  A repeated entry is kept as given, next to its twin.

    The entries are stored slot-major: cols and vals are (width, n) tables
    whose slot k holds each row's k-th entry.  The width is the largest
    whose padding stays at most n / 2 entries.  A pad has column -1 and
    value 0.0: it adds a zero, which leaves a row sum as it is (for finite x,
    since the sum is never -0.0).  Rows longer than the width carry on
    their sums in extra slots over those rows only: long_rows lists them
    longest first, so extra slot k, a (cols, vals) pair, covers a prefix of
    it.  All arrays together hold at most 2 nnz + 2 n entries.
    """

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
        order = np.argsort(rows * n + cols, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        length = np.bincount(rows, minlength=n)
        slot = np.arange(len(rows)) - (np.cumsum(length) - length)[rows]
        # padding at width k is sum over j < k of #{rows of length <= j}
        pad = np.cumsum(np.cumsum(np.bincount(length)))
        width = int(np.count_nonzero(pad <= n / 2))
        self.n = n
        self.cols = np.full((width, n), -1, dtype=np.int64)
        self.vals = np.zeros((width, n))
        table = slot < width
        self.cols[slot[table], rows[table]] = cols[table]
        self.vals[slot[table], rows[table]] = vals[table]
        long_rows = np.flatnonzero(length > width)
        self.long_rows = long_rows[np.argsort(-length[long_rows], kind="stable")]
        rank = np.empty(n, dtype=np.int64)
        rank[self.long_rows] = np.arange(len(self.long_rows))
        extra = ~table
        order = np.lexsort((rank[rows[extra]], slot[extra]))
        cols, vals = cols[extra][order], vals[extra][order]
        ends = np.cumsum(np.bincount(slot[extra] - width))
        self.extra = [(cols[a:b], vals[a:b]) for a, b in zip(np.r_[0, ends[:-1]], ends)]

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of the stored entries, row by row, columns
        ascending."""
        r, k = np.nonzero((self.cols >= 0).T)
        rows = [r] + [self.long_rows[:len(c)] for c, _ in self.extra]
        cols = [self.cols[k, r]] + [c for c, _ in self.extra]
        vals = [self.vals[k, r]] + [v for _, v in self.extra]
        rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], vals[order]

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        rows, cols, vals = self.entries()
        np.add.at(out, (rows, cols), vals)
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        terms = np.take(x, self.cols)
        terms *= self.vals
        y = np.zeros(self.n)
        for t in terms:
            y += t
        for c, v in self.extra:
            y[self.long_rows[:len(c)]] += v * x[c]
        return y


def _reduced_system(g: WeightedGraph, ids, values):
    """Check the pinned ids, each pinned once, and restrict the Laplacian to
    the free vertices (ascending id).  Returns the pinned ids in the given
    order, the values array (pinned values by vertex id, NaN elsewhere), the
    free ids, the matrix entries (rows, cols, vals), the rhs and the diagonal."""
    keys = np.asarray(ids, dtype=np.int64)
    if not keys.size:
        raise SolverError("pinned set is empty")
    pidx = np.minimum(np.searchsorted(g.ids, keys), g.n - 1)
    if np.any(g.ids[pidx] != keys):
        raise SolverError("a pinned vertex is not in the graph")
    pin_mask = np.zeros(g.n, dtype=bool)
    pin_mask[pidx] = True
    if np.count_nonzero(pin_mask) != len(keys):
        raise SolverError("a vertex is pinned twice")
    _check_connectivity(g, pidx)
    pin_val = np.zeros(g.n)
    pin_val[pidx] = values
    field_values = np.full(int(g.ids[-1]) + 1, np.nan)
    field_values[keys] = pin_val[pidx]

    free_ids = g.ids[~pin_mask]
    fidx = np.full(g.n, -1, dtype=np.int64)
    fidx[~pin_mask] = np.arange(len(free_ids))
    nf = len(free_ids)

    iu, iv = g.edge_index
    c = g.edge_c
    diag = np.zeros(g.n)
    np.add.at(diag, iu, c)
    np.add.at(diag, iv, c)

    both = (~pin_mask[iu]) & (~pin_mask[iv])
    rows = np.concatenate([fidx[iu[both]], fidx[iv[both]], np.arange(nf)])
    cols = np.concatenate([fidx[iv[both]], fidx[iu[both]], np.arange(nf)])
    data = np.concatenate([-c[both], -c[both], diag[~pin_mask]])

    b = np.zeros(nf)
    u_free = (~pin_mask[iu]) & pin_mask[iv]
    v_free = pin_mask[iu] & (~pin_mask[iv])
    np.add.at(b, fidx[iu[u_free]], c[u_free] * pin_val[iv[u_free]])
    np.add.at(b, fidx[iv[v_free]], c[v_free] * pin_val[iu[v_free]])
    return keys, field_values, free_ids, (rows, cols, data), b, diag[~pin_mask]


def _check_connectivity(g: WeightedGraph, pidx: np.ndarray) -> None:
    """Every vertex must share a component with a pinned index."""
    labels = component_labels(g.n, *g.edge_index)
    bad = np.flatnonzero(~np.isin(labels, labels[pidx]))
    if bad.size:
        raise SolverError(f"{bad.size} free vertices unreachable from the pinned set "
                          f"(first: {int(g.ids[bad[0]])})")


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b by numpy's pairwise sum, which, unlike np.dot, calls no BLAS."""
    return float(np.add.reduce(a * b))


def _gauss_jordan_inverse(n: int, rows, cols, vals) -> np.ndarray:
    """The inverse of the n x n SPD matrix of the entries (rows, cols, vals),
    by Gauss-Jordan elimination without pivoting, in ufuncs: LAPACK's inv
    and cholesky round differently at different BLAS thread counts."""
    a = np.zeros((n, n))
    np.add.at(a, (rows, cols), vals)
    for k in range(n):
        t, f = 1.0 / a[k, k], a[:, k].copy()
        f[k] = a[:, k] = 0.0
        a[k, k] = 1.0
        a[k] *= t
        a -= np.multiply.outer(f, a[k])
    return a


def _multigrid(g: WeightedGraph, free_ids: np.ndarray, A: SlotMatrix, entries,
               diag: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The preconditioner r -> z of _pcg for the reduced system A of g's
    free vertices free_ids (entries and diagonal from _reduced_system): one
    V-cycle of plain-aggregation multigrid with over-correction (Braess
    1995, Computing 55).  Aggregates bin the vertices by position into
    squares of side twice g's median edge length, doubling per level (if
    that merges nothing, there is no level) down to at most COARSEST
    unknowns, which are inverted.  A coarse matrix is P^T A P for the
    piecewise constant P, its entries relabelled by aggregate and summed
    after one sort; P^T r is np.bincount(agg, r), P e is e[agg].  A Jacobi
    sweep damped by OMEGA goes on each side of the coarse correction, which
    the finest level scales by ALPHA.

    SPD: each level is a weakly diagonally dominant M-matrix, so D^-1 A has
    eigenvalues in (0, 2], and a sweep's error operator M has A-norm below
    1.  The cycle's error operator is E = M (I - a P B_c P^T A) M for the
    coarse cycle B_c and scale a.  If B_c A_c has eigenvalues in (0, 1], the
    middle factor's lie in [1 - a, 1]: in [0, 1] for a = 1, so B A's lie in
    (0, 1] again, the induction from the exact coarsest level; in (-1, 1]
    for a = ALPHA, so E's A-norm is below 1 and B is SPD.  Over-correcting
    every level would break the induction."""
    pos = g.positions[np.searchsorted(g.ids, free_ids)]
    side = 2.0 * float(np.median(g.edge_len)) or 1.0
    cell = ((pos - pos.min(axis=0)) / side).astype(np.int64)
    rows, cols, vals = entries
    mat, levels = A, []
    while len(diag) > COARSEST:
        cells, first, agg = np.unique(cell[:, 0] * (cell[:, 1].max() + 1) + cell[:, 1],
                                      return_index=True, return_inverse=True)
        if len(cells) < len(diag):
            nc = len(cells)
            levels.append((mat, OMEGA / diag, agg))
            pairs, at = np.unique(agg[rows] * nc + agg[cols], return_inverse=True)
            rows, cols, vals = pairs // nc, pairs % nc, np.bincount(at, vals)
            diag, cell = vals[rows == cols], cell[first]
            mat = SlotMatrix(nc, rows, cols, vals) if nc > COARSEST else None
        cell >>= 1
    return partial(_vcycle, levels, _gauss_jordan_inverse(len(diag), rows, cols, vals))


def _vcycle(levels: list, inverse: np.ndarray, r: np.ndarray, level: int = 0) -> np.ndarray:
    """The V-cycle of _multigrid on r from the given level down."""
    if level == len(levels):
        return np.add.reduce(inverse * r, axis=1)
    mat, sweep, agg = levels[level]
    x = sweep * r
    e = _vcycle(levels, inverse, np.bincount(agg, r - mat @ x), level + 1)
    x += (ALPHA if level == 0 else 1.0) * e[agg]
    x += sweep * (r - mat @ x)
    return x


def _pcg(A: SlotMatrix, b: np.ndarray, x: np.ndarray, tol: float,
         setup: Callable[[], Callable[[np.ndarray], np.ndarray]]) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradient (Hestenes & Stiefel 1952) from x,
    in place, until |r| < tol |b|: zeros when b is 0, else x, and the steps
    taken.  setup() builds the preconditioner once x misses tol.  SolverError,
    with x's relative residual, when r . z <= 0 or after MAX_STEPS steps."""
    bnorm = math.sqrt(_dot(b, b))
    if bnorm == 0:
        return np.zeros_like(b), 0
    atol = tol * bnorm
    r = b - A @ x
    if math.sqrt(_dot(r, r)) < atol:
        return x, 0
    precondition = setup()
    message = f"CG did not converge in {MAX_STEPS} steps"
    for step in range(1, MAX_STEPS + 1):
        z = precondition(r)
        rho = _dot(r, z)
        if not rho > 0:
            message = f"CG step {step} has r.z = {rho:.3e}, not positive"
            break
        if step > 1:
            z += (rho / rho_prev) * p
        p = z
        q = A @ p
        alpha = rho / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if math.sqrt(_dot(r, r)) < atol:
            return x, step
    res = b - A @ x
    raise SolverError(message, residual=math.sqrt(_dot(res, res)) / bnorm)


def solve_dirichlet(g: WeightedGraph, ids, values, tol: float = DEFAULT_TOL,
                    start: Optional[np.ndarray] = None) -> HarmonicField:
    """Solve the Dirichlet problem: values[k] at vertex ids[k], zero
    Laplacian everywhere else.

    Conjugate gradient on the reduced system (_pcg), preconditioned by a
    multigrid V-cycle (_multigrid), to relative residual < tol, with no BLAS
    call.  It starts from start (finite values indexed by vertex id, read
    only at the free vertices) when given, else from the mean pinned value;
    the start changes the steps taken, not the residual reached.  Raises
    SolverError for an empty pinned set, a repeated pinned id, a free
    component with no pinned neighbor, or non-convergence.
    """
    keys, values, free_ids, entries, b, diag = _reduced_system(g, ids, values)
    steps = 0
    if len(free_ids):
        A = SlotMatrix(len(free_ids), *entries)
        x0 = (np.full(len(free_ids), float(np.mean(values[keys]))) if start is None
              else np.asarray(start, dtype=float)[free_ids])
        values[free_ids], steps = _pcg(A, b, x0, tol,
                                       lambda: _multigrid(g, free_ids, A, entries, diag))
    # the l2 residual bound controls the vertexwise Laplacian only up to a
    # norm factor; the field check keeps a safety margin
    field_tol = max(tol * 1e4, 1e-13)
    return HarmonicField(g, values, keys, field_tol, steps)


def solve_dirichlet_dense(g: WeightedGraph, ids, values) -> HarmonicField:
    """Independent oracle: direct dense solve of the reduced system."""
    keys, values, free_ids, entries, b, _ = _reduced_system(g, ids, values)
    if len(free_ids):
        values[free_ids] = np.linalg.solve(SlotMatrix(len(free_ids), *entries).toarray(), b)
    return HarmonicField(g, values, keys, 1e-8)


@dataclass
class Flow:
    """Antisymmetric edge function, stored once per undirected edge in the
    graph's edge order, oriented edge_u -> edge_v, from the ids sources to
    the ids sinks (sums over them by math.fsum).  tol is check()'s default."""

    graph: WeightedGraph
    theta: np.ndarray
    sources: np.ndarray
    sinks: np.ndarray
    tol: float = 1e-10

    def divergence(self) -> np.ndarray:
        """Net outflow at each vertex, as an array indexed by vertex id
        (NaN at ids outside the graph)."""
        g = self.graph
        div = np.full(int(g.ids[-1]) + 1, np.nan)
        div[g.ids] = 0.0
        np.add.at(div, g.edge_u, self.theta)
        np.add.at(div, g.edge_v, -self.theta)
        return div

    @property
    def strength(self) -> float:
        return math.fsum(self.divergence()[self.sources].tolist())

    def energy(self) -> float:
        return float(np.sum(self.theta * self.theta / self.graph.edge_c))

    def scaled(self, s: float) -> "Flow":
        return Flow(self.graph, self.theta * s, self.sources, self.sinks, self.tol)

    def check(self, rel: Optional[float] = None) -> None:
        """Raise ValueError at the lowest-id free vertex with nonzero
        divergence, or when source and sink strengths do not balance."""
        rel = self.tol if rel is None else rel
        ids = self.graph.ids
        div = self.divergence()
        s = math.fsum(div[self.sources].tolist())
        scale = max(abs(s), float(np.abs(div[ids]).max()), 1e-300)
        free = ids[~np.isin(ids, np.concatenate([self.sources, self.sinks]))]
        bad = free[np.abs(div[free]) > rel * scale]
        if bad.size:
            v = int(bad[0])
            raise ValueError(f"nonzero divergence {div[v]:.3e} at free vertex {v}")
        if abs(s + math.fsum(div[self.sinks].tolist())) > rel * scale:
            raise ValueError("source and sink strengths do not balance")


def gradient_flow(f: HarmonicField) -> Flow:
    """Current flow c * df of a solved field, with its tol; sources are the
    pinned vertices at the minimum value, sinks at the maximum, so the
    strength is positive and E(flow) = E(f)."""
    g = f.graph
    theta = g.edge_c * (f.values[g.edge_v] - f.values[g.edge_u])
    b = f.values[f.boundary]
    return Flow(g, theta, f.boundary[b == b.min()], f.boundary[b == b.max()], f.tol)


def unit_pins(S, T) -> tuple[np.ndarray, np.ndarray]:
    """The pinned ids, S then T in their order, and their values, 0.0 on S
    and 1.0 on T."""
    S, T = (np.asarray(X, dtype=np.int64) for X in (S, T))
    return np.concatenate([S, T]), np.repeat([0.0, 1.0], [len(S), len(T)])


def effective_resistance(g: WeightedGraph, S, T, tol: float = DEFAULT_TOL) -> float:
    """R_eff(S <-> T) = 1 / E(h) for h pinned 0 on S, 1 on T.

    Pinning both whole sets is the vertex identification of the set
    version of effective resistance.
    """
    if not len(S) or not len(T):
        raise SolverError("S and T must be nonempty")
    return 1.0 / solve_dirichlet(g, *unit_pins(S, T), tol).energy


def breadth_first_levels(indptr: np.ndarray, indices: np.ndarray,
                         root: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Breadth-first search from root along the arcs u -> indices[indptr[u]:
    indptr[u + 1]], each row ascending, one level at a time: the frontier in
    queue order, each vertex's targets in row order, the first discovery
    wins.  That is the FIFO order and tree of
    scipy.sparse.csgraph.breadth_first_order(..., directed=True).  Returns
    the levels, root's first, and each vertex's predecessor and the arc (its
    index into indices) that discovered it, both -1 at the root and at
    unreached vertices."""
    degs = np.diff(indptr)
    pred, arc = np.full((2, len(degs)), -1, dtype=np.int64)
    unseen = np.ones(len(degs), dtype=bool)
    unseen[root] = False
    # a vertex's first position among the candidates of the level that
    # discovers it; no other level lists it unseen
    first = np.full(len(degs), len(indices))
    levels = [np.array([root], dtype=np.int64)]
    while True:
        front = levels[-1]
        deg = degs[front]
        ends = deg.cumsum()
        pos = np.arange(ends[-1]) + (indptr[front] - ends + deg).repeat(deg)
        cand = indices[pos]
        at = unseen[cand].nonzero()[0]
        new = cand[at]
        np.minimum.at(first, new, at)
        keep = first[new] == at
        if not keep.any():
            return levels, pred, arc
        new, at = new[keep], at[keep]
        pred[new] = front[ends.searchsorted(at, side="right")]
        arc[new] = pos[at]
        unseen[new] = False
        levels.append(new)


def _integrate_conjugate(m: MarkedRectangleMap, h: HarmonicField):
    """The conjugate increments of h integrated over a breadth-first
    spanning tree of the dual graph; never raises.

    Across each face (v1, w1, v2, w2) the increment is
    htilde(w2) - htilde(w1) = c(v1, v2) (h(v2) - h(v1)).  The tree is rooted
    at the smallest-id vertex of the arc [D, A], the search visits
    neighbours in ascending index order, and a tree edge crosses the
    lowest-id face between its two ends.  Returns the values indexed by
    dual vertex id (0 at the root and wherever the search does not reach,
    NaN at other ids), whether it reached every vertex, and the largest CR
    residual on a non-tree face."""
    g_dual = m.map.extract_dual()
    f = m.map.faces
    gp_c = m.map.extract_primal().edge_c
    inc = gp_c * (h.values[f[:, 2]] - h.values[f[:, 0]])
    w1 = np.searchsorted(g_dual.ids, f[:, 1])
    w2 = np.searchsorted(g_dual.ids, f[:, 3])

    # the tree edge into a child is the arc that discovered it, the first to
    # it in its parent's row: the lowest face between the two
    n, nf = g_dual.n, len(f)
    indptr, nbr, edge = g_dual.adjacency()
    root = int(np.searchsorted(g_dual.ids, m.arc_da.min()))
    levels, pred, arc = breadth_first_levels(indptr, nbr, root)
    child = np.concatenate(levels)[1:]
    tree = edge[arc[child]]
    tree_face = np.zeros(nf, dtype=bool)
    tree_face[tree] = True
    step = np.zeros(n)
    step[child] = np.where(w1[tree] == pred[child], 1.0, -1.0) * inc[tree]
    vals = np.zeros(n)
    for front in levels[1:]:
        vals[front] = vals[pred[front]] + step[front]
    res = np.abs(vals[w2] - vals[w1] - inc)
    max_res = float(res[~tree_face].max()) if (~tree_face).any() else 0.0
    values = np.full(int(g_dual.ids[-1]) + 1, np.nan)
    values[g_dual.ids] = vals
    return values, len(child) == n - 1, max_res


def normalize_conjugate(m: MarkedRectangleMap, values: np.ndarray) -> np.ndarray:
    """Conjugate values (indexed by dual vertex id) put onto [0, 1] at the
    boundary: shifted so the arc [B, C] has minimum 0 and scaled so the arc
    [D, A] has maximum 1, or left unscaled when that span is not positive.
    The scale differs from 1 by the accumulated cycle residual."""
    shift = float(values[m.arc_bc].min())
    span = float(values[m.arc_da].max()) - shift
    return (values - shift) / (span if span > 0 else 1.0)


def conjugate_start(m: MarkedRectangleMap, h: HarmonicField) -> np.ndarray:
    """The normalized conjugate of the primal field h, indexed by dual
    vertex id: on an orthodiagonal map it solves the dual Dirichlet problem
    (0 on [B, C], 1 on [D, A]) up to h's residual, so it starts that solve.
    It skips harmonic_conjugate's checks and never raises."""
    return normalize_conjugate(m, _integrate_conjugate(m, h)[0])


def harmonic_conjugate(m: MarkedRectangleMap, h: HarmonicField) -> tuple[HarmonicField, float]:
    """Integrate the conjugate dual field of a primal tiling solution.

    The increments are integrated over a breadth-first spanning tree of the
    dual graph (_integrate_conjugate), and the result is shifted so the
    minimum over the arc [D, A] is 0.  The maximum leftover CR residual on
    non-tree dual edges is checked against CYCLE_TOL_REL * max(gap, 1) and
    returned alongside the field, whose pinned ids are arc_bc then arc_da.
    """
    values, connected, max_res = _integrate_conjugate(m, h)
    if not connected:
        raise ConjugacyError("dual graph is not connected")
    scale = max(h.gap(), 1.0)
    if max_res > CYCLE_TOL_REL * scale:
        raise ConjugacyError(
            f"max non-tree CR residual {max_res:.3e} exceeds {CYCLE_TOL_REL:.1e} * {scale:.3g}; "
            "the primal field is not harmonic enough")

    values -= values[m.arc_da].min()
    conj = HarmonicField(m.map.extract_dual(), values, np.concatenate([m.arc_bc, m.arc_da]),
                         max(CYCLE_TOL_REL * 10.0, 1e-12))
    return conj, max_res


def random_walk_oracle(g: WeightedGraph, ids, values, v: int,
                       n_walks: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the harmonic value at v: expected value at the
    first hit of the pinned ids, walking with transition probabilities
    c(x, y) / pi_x.  Deterministic for a fixed seed."""
    ids = np.asarray(ids, dtype=np.int64)
    if np.isin(v, ids):
        raise SolverError("probe vertex is pinned")
    if n_walks < 100:
        raise SolverError("need at least 100 walks")
    if not np.isin(ids, g.ids).all():
        raise SolverError("a pinned vertex is not in the graph")
    value = np.zeros(g.n)
    value[np.searchsorted(g.ids, ids)] = values
    pinned, value = np.isin(g.ids, ids).tolist(), value.tolist()
    start = g.ids.tolist().index(int(v))
    indptr, nbr, edge = g.adjacency()
    neigh = np.split(nbr, indptr[1:-1])
    cdf = [np.cumsum(ws) / ws.sum() for ws in np.split(g.edge_c[edge], indptr[1:-1])]
    rng = np.random.default_rng(seed)
    hits = np.empty(n_walks)
    total = 0
    for k in range(n_walks):
        cur = start
        while not pinned[cur]:
            r = rng.random()
            cur = int(neigh[cur][np.searchsorted(cdf[cur], r)])
            total += 1
            if total > MAX_WALK_STEPS:
                raise SolverError(f"random walk exceeded {MAX_WALK_STEPS} total steps")
        hits[k] = value[cur]
    est = float(hits.mean())
    stderr = float(hits.std(ddof=1) / math.sqrt(n_walks)) if n_walks > 1 else 0.0
    return est, stderr
