import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (oracle_nearest_segments, oracle_points_at,
                      oracle_points_to_segments_distance, oracle_sampled_hausdorff,
                      oracle_segment_distances, polyline_distances)
from orthotile import geom, gridgen


def test_polygon_normalizes_orientation():
    ccw = geom.Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    cw = geom.Polygon([[0, 0], [0, 1], [1, 1], [1, 0]])
    # same cycle up to rotation, both counterclockwise
    assert ccw.area() > 0 and cw.area() > 0
    rows = {tuple(r) for r in cw.vertices}
    assert rows == {tuple(r) for r in ccw.vertices}
    k = int(np.flatnonzero((cw.vertices == ccw.vertices[0]).all(axis=1))[0])
    assert np.allclose(np.roll(cw.vertices, -k, axis=0), ccw.vertices)


def test_polygon_rejects_bad_input():
    with pytest.raises(geom.GeometryError):
        geom.Polygon([[0, 0], [1, 0]])
    with pytest.raises(geom.GeometryError):
        geom.Polygon([[0, 0], [1, 1], [1, 0], [0, 1]])  # bowtie
    with pytest.raises(geom.GeometryError):
        geom.Polygon([[0, 0], [1, float("nan")], [1, 1]])


def test_polygon_contains_classes():
    sq = geom.Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert geom.polygon_contains(sq, (0.5, 0.5), 1e-12) == geom.INSIDE
    assert geom.polygon_contains(sq, (0.0, 0.5), 1e-12) == geom.BOUNDARY
    assert geom.polygon_contains(sq, (2.0, 2.0), 1e-12) == geom.OUTSIDE


def test_polygon_contains_matches_winding_on_random_convex():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = rng.integers(3, 9)
        ang = np.sort(rng.uniform(0, 2 * math.pi, n))
        if len(np.unique(ang)) < 3:
            continue
        rad = rng.uniform(0.5, 1.5)
        pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], 1)
        try:
            poly = geom.Polygon(pts)
        except geom.GeometryError:
            continue
        probe = rng.uniform(-2, 2, 2)
        got = geom.polygon_contains(poly, probe, 1e-12)
        # winding for a convex ccw polygon: all cross products positive
        v = poly.vertices
        cross = [(v[(i + 1) % len(v)][0] - v[i][0]) * (probe[1] - v[i][1])
                 - (v[(i + 1) % len(v)][1] - v[i][1]) * (probe[0] - v[i][0])
                 for i in range(len(v))]
        if got == geom.BOUNDARY:
            assert min(cross) > -1e-9
        elif got == geom.INSIDE:
            assert min(cross) > 0
        else:
            assert min(cross) < 0


def test_hausdorff_identity_and_translation():
    a = [[0, 0], [1, 0], [1, 1]]
    # the bound is exact here; the result is the rounding margin alone
    assert geom._directed_hausdorff(np.array(a, float), np.array(a, float), 0.0) == (0.0, 0.0)
    assert geom.hausdorff_distance(a, a) == geom.HAUSDORFF_MARGIN * 1.0
    b = [[0, 1], [1, 1]]
    assert abs(geom.hausdorff_distance([[0, 0], [1, 0]], b) - 1.0) < 1e-12


def test_hausdorff_segment_vs_point():
    # max over the segment of the distance to the point is at an endpoint
    d = geom.hausdorff_distance([[0, 0], [1, 0]], [[0.5, 0.3]])
    assert abs(d - math.sqrt(0.34)) < 1e-10


def test_hausdorff_brute_force_oracle():
    # independent oracle: dense sampling of both polylines
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.uniform(0, 1, (4, 2))
        b = rng.uniform(0, 1, (3, 2))

        def sample(poly, n=4000):
            seg = poly[1:] - poly[:-1]
            ln = np.sqrt((seg ** 2).sum(-1))
            cum = np.concatenate([[0], np.cumsum(ln)])
            t = np.linspace(0, cum[-1], n)
            idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(ln) - 1)
            frac = (t - cum[idx]) / np.where(ln[idx] == 0, 1, ln[idx])
            return poly[idx] + frac[:, None] * seg[idx]

        pa, pb = sample(a), sample(b)
        directed_ab = geom.points_to_segments_distance(pa, b[:-1], b[1:]).max()
        directed_ba = geom.points_to_segments_distance(pb, a[:-1], a[1:]).max()
        brute = max(directed_ab, directed_ba)
        exact = geom.hausdorff_distance(a, b)
        assert exact >= brute - 1e-12
        assert exact <= brute + 1e-3  # sampling oracle underestimates


def test_hausdorff_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(0, 1, (3, 2))
        b = rng.uniform(0, 1, (4, 2))
        c = rng.uniform(0, 1, (3, 2))
        dab = geom.hausdorff_distance(a, b)
        dba = geom.hausdorff_distance(b, a)
        assert abs(dab - dba) < 1e-9
        dac = geom.hausdorff_distance(a, c)
        dcb = geom.hausdorff_distance(c, b)
        assert dab <= dac + dcb + 1e-9


def test_hausdorff_empty_input_errors():
    with pytest.raises(geom.GeometryError):
        geom.hausdorff_distance([], [[0, 0]])


# (a, b, sup over a of the distance to b, and back): parallel segments, an
# L-corner, a point against a segment, a zigzag against a subset of its own
# vertices, two single points, zero-length segments and identical polylines.
# The L-corner's and the zigzag's way back peak inside a segment, where two
# segments of the other polyline are nearest.
ZIGZAG = [[0, 0], [1, 1], [2, 0], [3, 1], [4, 0]]
EXACT_HAUSDORFF = [
    ([[0, 0], [3, 0]], [[1, 1], [2, 1]], math.sqrt(2), 1.0),
    ([[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1]], math.sqrt(0.5), 0.5),
    ([[0, 0], [1, 0]], [[0.5, 0.3]], math.sqrt(0.5 ** 2 + 0.3 ** 2), 0.3),
    (ZIGZAG, ZIGZAG[::2], 1.0, math.sqrt(0.5)),
    ([[3, 4]], [[0, 0]], 5.0, 5.0),
    ([[0, 0], [0, 0], [2, 0], [2, 0]], [[0, 1], [2, 1], [2, 1]], 1.0, 1.0),
    (ZIGZAG, ZIGZAG, 0.0, 0.0),
]


@pytest.mark.parametrize("a,b,ab,ba", EXACT_HAUSDORFF)
def test_hausdorff_bounds_bracket_exact_answers(a, b, ab, ba):
    a, b = np.array(a, float), np.array(b, float)
    s = max(np.abs(a).max(), np.abs(b).max())
    for src, dst, truth in ((a, b, ab), (b, a, ba)):
        lo, hi = geom._directed_hausdorff(src, dst, geom.DEFAULT_REL_TOL * s)
        assert lo <= truth <= hi
        assert hi - lo <= geom.DEFAULT_REL_TOL * s
    d = geom.hausdorff_distance(a, b)
    assert max(ab, ba) < d <= max(ab, ba) + (geom.DEFAULT_REL_TOL + geom.HAUSDORFF_MARGIN) * s


def _dense(poly, n):
    """n points per segment, ends included."""
    if len(poly) == 1:
        return poly
    t = np.linspace(0.0, 1.0, n)[:, None, None]
    return (poly[:-1] * (1.0 - t) + poly[1:] * t).reshape(-1, 2)


@st.composite
def polyline_pairs(draw):
    """Two polylines of 1-8 vertices on half-integer and free coordinates,
    one segment of each zero-length when drawn, scaled by 1e-3 ... 1e3."""
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    out = []
    for _ in range(2):
        pts = _xy(draw, draw(st.integers(1, 8)))
        if len(pts) > 1 and draw(st.booleans()):
            k = draw(st.integers(1, len(pts) - 1))
            pts[k] = pts[k - 1]
        out.append(pts * scale)
    return out


@settings(max_examples=100, deadline=None)
@given(case=polyline_pairs())
def test_hausdorff_bound_is_sound_and_tight(case):
    a, b = case
    s = max(np.abs(a).max(), np.abs(b).max())
    tol, few_ulps = geom.DEFAULT_REL_TOL * s, 4 * 2.0 ** -52 * s
    samples = []
    for src, dst in ((a, b), (b, a)):
        got = []
        for block_pairs in (1, 3, 1 << 16):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(geom, "_BLOCK_PAIRS", block_pairs)     # 1 and 3: many row blocks
                got.append(geom._directed_hausdorff(src, dst, tol))
        assert got[0] == got[1] == got[2]
        lo, hi = got[0]
        assert hi - lo <= tol
        dense = float(polyline_distances(_dense(src, 257), dst).max())
        sampled = oracle_sampled_hausdorff(src, dst)
        assert hi >= max(dense, sampled) - few_ulps
        samples += [dense, sampled]
    assert geom.hausdorff_distance(a, b) >= max(samples)


def test_polyline_min_distance():
    d = geom.polyline_min_distance([[0, 0], [1, 0]], [[0, 1], [1, 1]])
    assert abs(d - 1.0) < 1e-12
    # crossing polylines have distance zero
    d = geom.polyline_min_distance([[0, 0], [1, 1]], [[0, 1], [1, 0]])
    assert d == 0.0


def test_centroid():
    sq = geom.Polygon([[0, 0], [2, 0], [2, 2], [0, 2]])
    c = sq.centroid()
    assert abs(c.x - 1) < 1e-12 and abs(c.y - 1) < 1e-12


# -- scalar reference oracles --------------------------------------------------
#
# The loops below are the scalar implementations the vectorized kernels
# replaced.  The kernels perform the same floating-point operations in the
# same order, so their results must be bitwise equal, not merely close.


def _oracle_segments_properly_intersect(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0


def _oracle_any_segment_crossing(a1, a2, segs) -> bool:
    for b1, b2 in segs:
        if _oracle_segments_properly_intersect(a1, a2, b1, b2):
            return True
    return False


def _oracle_polyline_min_distance(a, b) -> float:
    pa, pb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if len(pa) == 1 or len(pb) == 1:
        # a one-vertex polyline is its point p: the least of the distances
        # from p to the other's segments and from the other's vertices to p
        (p,), q = (pa, pb) if len(pa) == 1 else (pb, pa)
        best = min(math.sqrt((x - p[0]) * (x - p[0]) + (y - p[1]) * (y - p[1])) for x, y in q)
        if len(q) == 1:
            return best
        return min(best, float(oracle_points_to_segments_distance(p[None], q[:-1], q[1:])[0]))
    best = math.inf
    ea, eb = np.stack([pa[:-1], pa[1:]], 1), np.stack([pb[:-1], pb[1:]], 1)
    for a1, a2 in ea:
        if _oracle_any_segment_crossing(a1, a2, eb):
            return 0.0
        d1 = oracle_points_to_segments_distance(np.array([a1, a2]), eb[:, 0], eb[:, 1]).min()
        best = min(best, float(d1))
    d2 = oracle_points_to_segments_distance(pb, ea[:, 0], ea[:, 1]).min()
    return min(best, float(d2))


def _oracle_polygon_error(pts):
    """The message Polygon's scalar edge loop raised, or None."""
    n = pts.shape[0]
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if np.hypot(*(b - a)) == 0.0:
            return "polygon has a zero-length edge"
        for j in range(i + 1, n):
            c, d = pts[j], pts[(j + 1) % n]
            if _oracle_segments_properly_intersect(a, b, c, d):
                return "polygon is self-intersecting"
    return None


def _random_polyline(rng, n, repeat=False):
    pts = rng.uniform(-1, 1, (n, 2)) * rng.uniform(0.1, 10)
    if repeat and n > 2:
        k = int(rng.integers(1, n))
        pts[k] = pts[k - 1]                       # a zero-length segment
    return pts


def test_polyline_min_distance_matches_scalar_oracle():
    rng = np.random.default_rng(21)
    crossings = 0
    for k in range(200):
        a = _random_polyline(rng, int(rng.integers(1, 9)), repeat=k % 5 == 0)
        b = _random_polyline(rng, int(rng.integers(1, 9)))
        want = _oracle_polyline_min_distance(a, b)
        assert geom.polyline_min_distance(a, b) == want
        crossings += want == 0.0
    assert 0 < crossings < 200


def test_polyline_min_distance_blocked_long_inputs(monkeypatch):
    rng = np.random.default_rng(22)
    a = np.cumsum(rng.normal(size=(300, 2)), axis=0)
    b = np.cumsum(rng.normal(size=(250, 2)), axis=0) + 40.0
    want = _oracle_polyline_min_distance(a, b)
    monkeypatch.setattr(geom, "_BLOCK_PAIRS", 1000)   # many row blocks
    assert geom.polyline_min_distance(a, b) == want
    assert geom.polyline_min_distance(a, a[::-1] + [0.0, 1e-3]) == \
        _oracle_polyline_min_distance(a, a[::-1] + [0.0, 1e-3])


def test_polyline_min_distance_exact_cases():
    # touching endpoints: distance 0 without a proper crossing
    assert geom.polyline_min_distance([[0, 0], [1, 0]], [[1, 0], [2, 1]]) == 0.0
    # collinear overlap: a vertex of one lies on the other
    assert geom.polyline_min_distance([[0, 0], [2, 0]], [[1, 0], [3, 0]]) == 0.0
    # proper crossing between vertices that are all sqrt(2) away
    assert geom.polyline_min_distance([[0, 0], [2, 2]], [[0, 2], [2, 0]]) == 0.0
    assert _oracle_polyline_min_distance([[0, 0], [2, 2]], [[0, 2], [2, 0]]) == 0.0
    # disjoint: attained at a vertex
    assert geom.polyline_min_distance([[0, 0], [1, 0], [2, 0]], [[1, 0.5], [3, 3]]) == 0.5


def test_polygon_validation_matches_scalar_oracle():
    rng = np.random.default_rng(23)
    kinds = {None: 0, "polygon has a zero-length edge": 0, "polygon is self-intersecting": 0}
    for k in range(300):
        n = int(rng.integers(3, 9))
        pts = rng.integers(0, 4, (n, 2)).astype(float)    # coarse: ties and repeats
        if geom.signed_area(pts) == 0.0:
            continue
        ccw = pts if geom.signed_area(pts) > 0 else pts[::-1].copy()
        want = _oracle_polygon_error(ccw)
        kinds[want] += 1
        if want is None:
            assert np.array_equal(geom.Polygon(pts).vertices, ccw)
        else:
            with pytest.raises(geom.GeometryError, match=want):
                geom.Polygon(pts)
    assert all(kinds.values())


def test_polygon_contains_many_labels():
    poly = geom.Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    pts = np.array([[0.5, 0.5], [1.5, 1.5], [1.0, 1.5], [2.0, 0.5], [3.0, 0.0]])
    got = geom.polygon_contains_many(poly, pts, 1e-12)
    assert got == [geom.INSIDE, geom.OUTSIDE, geom.BOUNDARY, geom.BOUNDARY, geom.OUTSIDE]
    assert all(type(c) is str for c in got)


# -- coordinate-plane kernels against the (n, m, 2) oracles -----------------------

SCALES = [1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300]
# half-integer lattice coordinates make shared vertices, zero-length
# segments and points on segments common; free floats fill the rest
COORD = st.one_of(st.integers(-6, 6).map(lambda k: k / 2.0), st.floats(-3.0, 3.0))


def _xy(draw, n):
    return np.array(draw(st.lists(st.tuples(COORD, COORD), min_size=n, max_size=n)))


@st.composite
def distance_cases(draw):
    """(points, segment starts, segment ends) scaled by 1e-300 ... 1e300,
    with zero-length segments, points on vertices and inside segments, and
    NaN coordinates."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    a, b, pts = _xy(draw, m), _xy(draw, m), _xy(draw, n)
    zero = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    b[zero] = a[zero]
    for i in range(draw(st.integers(0, n))):
        j = draw(st.integers(0, m - 1))
        pts[i] = a[j] + draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) * (b[j] - a[j])
    where = draw(st.sampled_from([None, pts, a, b]))
    if where is not None:
        where[draw(st.integers(0, len(where) - 1)), draw(st.integers(0, 1))] = math.nan
    scale = draw(st.sampled_from(SCALES))
    return pts * scale, a * scale, b * scale


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # overflow and NaN
@settings(max_examples=400, deadline=None)
@given(case=distance_cases(), block_pairs=st.sampled_from([1, 3, 1 << 16]))
def test_points_to_segments_distance_matches_oracle(case, block_pairs):
    pts, a, b = case
    want = oracle_points_to_segments_distance(pts, a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "_BLOCK_PAIRS", block_pairs)     # 1 and 3: many row blocks
        got = geom.points_to_segments_distance(pts, a, b)
        nearest = geom._nearest_segments(pts, a, b)
    assert got.tobytes() == want.tobytes()
    assert [v.tobytes() for v in nearest] == [v.tobytes() for v in oracle_nearest_segments(pts, a, b)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # overflow and NaN
@settings(max_examples=200, deadline=None)
@given(case=distance_cases())
def test_segment_distances_matches_oracle(case):
    # FaceLocator's layout: (k, 1, 2) points against (k, m, 2) rings
    pts, a, _ = case
    ring = np.broadcast_to(a, (len(pts), *a.shape))
    p, nxt = pts[:, None, :], np.roll(ring, -1, axis=1)
    got = geom.segment_distances(p, ring, nxt)
    assert got.tobytes() == oracle_segment_distances(p, ring, nxt).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # overflow and NaN
@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 8), repeat=st.booleans(), scale=st.sampled_from(SCALES),
       frac=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20), data=st.data())
def test_points_at_matches_oracle(n, repeat, scale, frac, data):
    poly = _xy(data.draw, n) * scale
    if repeat:
        poly[1] = poly[0]                                   # a zero-length segment
    seg, seg_len, cum = geom._arclength(poly)
    t = np.concatenate([np.array(frac) * cum[-1], cum])
    got = geom._points_at(poly, seg, seg_len, cum, t)
    assert got.tobytes() == oracle_points_at(poly, seg, seg_len, cum, t).tobytes()


# far coordinates reach 1e6; the others are as in distance_cases
L1_COORD = st.one_of(COORD, st.floats(-1e6, 1e6))
L1_SAMPLES = 64


@st.composite
def l1_cases(draw):
    """(points, segment starts, segment ends, indices of points on a
    segment): axis-parallel and zero-length segments, points on segments
    and far points."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    xy = lambda k: np.array(draw(st.lists(st.tuples(L1_COORD, L1_COORD), min_size=k, max_size=k)))
    a, b, pts = xy(m), xy(m), xy(n)
    for j in range(m):
        # 0: general, 1: dx = 0, 2: dy = 0, 3: zero length
        kind = draw(st.integers(0, 3))
        if kind & 1:
            b[j, 0] = a[j, 0]
        if kind & 2:
            b[j, 1] = a[j, 1]
    on = []
    for i in range(draw(st.integers(0, n))):
        j = draw(st.integers(0, m - 1))
        frac = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        pts[i] = a[j] + frac * (b[j] - a[j])
        on.append(i)
    return pts, a, b, on


@settings(max_examples=400, deadline=None)
@given(case=l1_cases(), block_pairs=st.sampled_from([1, 3]))
def test_points_to_segments_l1_brackets_sampled_minimum(case, block_pairs):
    # f(t) = |x(t) - px| + |y(t) - py| is convex and (|dx| + |dy|)-Lipschitz
    # in t, so its minimum over [0, 1] lies within (|dx| + |dy|) / 2N below
    # the least of N + 1 equally spaced samples
    pts, a, b, on = case
    got = geom.points_to_segments_l1(pts, a, b)
    t = np.arange(L1_SAMPLES + 1)[:, None] / L1_SAMPLES
    at = a[:, None] + t * (b - a)[:, None]                    # (m, N + 1, 2)
    s = np.abs(at[None] - pts[:, None, None]).sum(-1).min(-1)  # (n, m)
    lip = np.abs(b - a).sum(-1) / (2 * L1_SAMPLES)
    rounding = 64 * 2.0 ** -52 * max(np.abs(pts).max(), np.abs(a).max(), np.abs(b).max())
    assert np.all(got <= s.min(1) + rounding)
    assert np.all(got >= (s - lip).min(1) - rounding)
    assert np.all(got[on] <= rounding)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "_BLOCK_PAIRS", block_pairs)     # many row blocks
        assert geom.points_to_segments_l1(pts, a, b).tobytes() == got.tobytes()


def _ulps_around(v, ks=(0, 1, 2, 16, 64)):
    """v and the floats k ulps either side of it."""
    out = []
    for k in ks:
        lo = hi = v
        for _ in range(k):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


@st.composite
def ring_cases(draw):
    """A closed ring of 3 to 9 vertices (not necessarily simple), scaled and
    shifted up to 1e6, and points on a grid of x and y values: its box
    edges, its vertices' coordinates, values 1 to 64 ulps either side of
    them, free values and NaN."""
    ring = (_xy(draw, draw(st.integers(3, 9))) * draw(st.sampled_from([1e-3, 1.0, 7.0]))
            + np.array(draw(st.sampled_from([[0.0, 0.0], [1e6, -1e6], [-1e6, 3.25]]))))
    axes = []
    for k in (0, 1):
        c = ring[:, k]
        near = [c.min(), c.max(), draw(st.sampled_from(c.tolist()))]
        free = draw(st.lists(st.floats(c.min() - 1.0, c.max() + 1.0), max_size=4))
        axes.append(np.array([u for v in near for u in _ulps_around(v)] + free + [math.nan]))
    x, y = np.meshgrid(*axes, indexing="ij")
    return ring, np.stack([x.ravel(), y.ravel()], axis=1)


def test_ray_parity_quotient_may_overflow():
    # the crossing x is formed for every edge, also for the first edge of
    # this triangle, which does not straddle y = 0.5: 0.5 / 5e-324
    # overflows there, which decides nothing and raises no RuntimeWarning
    a = np.array([[0.0, 0.0], [1.0, 5e-324], [0.0, 1.0]])
    b = np.roll(a, -1, axis=0)
    assert geom.ray_parity(np.array([[0.25, 0.5], [0.75, 0.5]])[:, None], a, b).tolist() \
        == [True, False]


@settings(max_examples=300, deadline=None)
@given(case=ring_cases(), block_pairs=st.sampled_from([1, 5, 1 << 16]))
def test_points_in_ring_matches_unfiltered_parity(case, block_pairs):
    # skipping the points outside the ring's widened box keeps every parity
    ring, pts = case
    want = geom.ray_parity(pts[:, None, :], ring[None], np.roll(ring, -1, axis=0)[None])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "_BLOCK_PAIRS", block_pairs)
        got = geom.points_in_ring(pts, ring)
    assert np.array_equal(got, want)


def test_points_in_ring_matches_parity_under_underflow():
    # (y - y1) * (x2 - x1) underflows to a subnormal with few bits, which
    # put the crossing of the edge to (5e-4, 2.2e-316) past its x-range;
    # clamped to the edge, the points 64 ulps past the ring have even parity
    ring = np.array([[0.0, 0.0], [0.0, 0.0], [5e-4, 2.22507384e-316]])
    x = 5e-4
    for _ in range(64):
        x = np.nextafter(x, np.inf)
    pts = np.stack([np.full(200, x), ring[2, 1] - np.arange(1, 201) * 5e-324], axis=1)
    want = geom.ray_parity(pts[:, None, :], ring[None], np.roll(ring, -1, axis=0)[None])
    assert not want.any()
    assert np.array_equal(geom.points_in_ring(pts, ring), want)


#: offsets in cells: on the half-cell lattice (sides on cell boundaries) or free
HALF_CELLS = st.one_of(st.integers(-4, 12).map(lambda j: j / 2), st.floats(-4.0, 12.0))


def _box_side(draw, shifts, cell):
    """An interval [lo, hi] with ends at s + cell * u, s one of shifts and
    u from HALF_CELLS; of zero length at times."""
    ends = [shifts[draw(st.integers(0, 4)) % len(shifts)] + cell * draw(HALF_CELLS)
            for _ in range(2)]
    if draw(st.booleans()):
        ends[1] = ends[0]
    return min(ends), max(ends)


@st.composite
def box_index_cases(draw):
    """Boxes and query boxes for geom.BoxIndex: cells of 1 or 1e-12, boxes
    near the origin or 1e7 and more away (where a 1e-12 cell collapses
    them to points), and queries whose x-ends may lie far off the grid, on
    either side or both."""
    cell = draw(st.sampled_from([1.0, 0.5, 1e-12]))
    shift = draw(st.sampled_from([0.0, -3.0, 1e7, 3e7]))
    far = [shift, shift - 1e7, shift + 3e7, -1e19, 1e19]

    def boxes(n, xshifts):
        b = np.array([[_box_side(draw, xshifts, cell), _box_side(draw, [shift], cell)]
                      for _ in range(n)]).reshape(n, 2, 2)     # (n, axis, lo/hi)
        return b[:, :, 0].copy(), b[:, :, 1].copy()

    lo, hi = boxes(draw(st.integers(1, 10)), [shift])
    qlo, qhi = boxes(draw(st.integers(0, 10)), draw(st.sampled_from([[shift], far])))
    return lo, hi, cell, qlo, qhi


@settings(max_examples=200, deadline=None)
@given(case=box_index_cases(), block_pairs=st.sampled_from([24, 64]))
def test_box_index_reports_every_meeting_pair_once(case, block_pairs):
    lo, hi, cell, qlo, qhi = case
    meets = [(q, b) for q in range(len(qlo)) for b in range(len(lo))
             if np.all(qlo[q] <= hi[b]) and np.all(lo[b] <= qhi[q])]
    index = geom.BoxIndex(lo, hi, cell)
    qi, bi = index.pairs(qlo, qhi)
    assert sorted(zip(qi.tolist(), bi.tolist())) == meets
    assert np.all(np.diff(qi) >= 0)
    odd = index.pairs(qlo, qhi, lambda q, b: (q + b) % 2 == 1)
    assert sorted(zip(*(v.tolist() for v in odd))) == [m for m in meets if sum(m) % 2]
    # batches of _BLOCK_PAIRS // 8 = 3 or 8 rows and candidates
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "_BLOCK_PAIRS", block_pairs)
        batched = geom.BoxIndex(lo, hi, cell).pairs(qlo, qhi)
    assert all(np.array_equal(a, b) for a, b in zip(batched, (qi, bi)))


@pytest.mark.parametrize("domain,eps", [("rect", 1 / 4), ("rect", 1 / 8), ("rect", 1 / 16),
                                        ("rect", 1 / 32), ("L", 2.0 ** -6)])
def test_certificate_bits_match_oracle_kernels(rect_spec, l_spec, domain, eps):
    spec = rect_spec if domain == "rect" else l_spec
    mm, cert = gridgen.grid_approximation(spec, eps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "points_to_segments_distance", oracle_points_to_segments_distance)
        mp.setattr(geom, "_nearest_segments", oracle_nearest_segments)
        mp.setattr(geom, "segment_distances", oracle_segment_distances)
        mp.setattr(geom, "_points_at", oracle_points_at)
        mm_o, cert_o = gridgen.grid_approximation(spec, eps)
    assert np.array_equal(mm.map.faces, mm_o.map.faces)
    bits = [np.array([c.delta, *c.per_arc_hausdorff]).tobytes() for c in (cert, cert_o)]
    assert bits[0] == bits[1]


def test_hausdorff_bound_holds_below_and_above_the_square_range():
    # at 1e-160 the squares are subnormal and at 1e160 they overflow; the
    # search runs on polylines scaled into [1/2, 1), so the bound stays an
    # upper bound, and a power-of-two scaling of the input scales the result
    a, b = [[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0]]
    unit = geom.hausdorff_distance(a, b)
    for s in (1e-160, 1e160):
        d = geom.hausdorff_distance(np.multiply(a, s), np.multiply(b, s))
        assert math.hypot(s, s) <= d <= math.hypot(s, s) * (1 + 1e-8)
    for e in (-600, -520, 520, 600):
        assert geom.hausdorff_distance(np.ldexp(a, e), np.ldexp(b, e)) == math.ldexp(unit, e)


def _unscaled_hausdorff(a, b):
    """hausdorff_distance before it scaled its input."""
    s = max(np.abs(a).max(), np.abs(b).max())
    tol = geom.DEFAULT_REL_TOL * s
    hi = max(geom._directed_hausdorff(a, b, tol)[1], geom._directed_hausdorff(b, a, tol)[1])
    return hi + geom.HAUSDORFF_MARGIN * s


@settings(max_examples=60, deadline=None)
@given(case=polyline_pairs())
def test_hausdorff_scaling_keeps_in_range_bits(case):
    a, b = case
    # in-range squares: a coordinate such as 5.5e-214 has a subnormal square,
    # while every nonzero difference of coordinates of at least 1e-100 in
    # magnitude squares to a normal number
    xy = np.concatenate([a.ravel(), b.ravel()])
    assume(np.all((xy == 0.0) | (np.abs(xy) >= 1e-100)))
    assert geom.hausdorff_distance(a, b) == _unscaled_hausdorff(a, b)

