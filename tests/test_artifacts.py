"""The column-fed map and tiling writers against the dict-list json.dump
writers they replaced: equal bytes on the fixture maps, on empty maps and
tilings, and on float columns with every spelling json has."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_map_bytes, oracle_tiling_bytes, plus_map, star_map, strip_map
from orthotile import gridgen, odmap, tiling

# -0.0, the smallest subnormal and another, a float whose repr is in
# exponent form, the largest float, and the non-finite values
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 1e16, -1e16, 1e-05, 0.1,
           1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())


@pytest.fixture(scope="module")
def artifact_maps(rect_map16, l_spec):
    return {"star": star_map(), "strip": strip_map(), "plus": plus_map(),
            "rect16": rect_map16[0], "L32": gridgen.grid_approximation(l_spec, 1 / 32)[0]}


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts")


def _map_bytes(out_dir, m, marked=None) -> bytes:
    p = out_dir / "map.json"
    odmap.save_map(str(p), m, marked)
    return p.read_bytes()


def _tiling_bytes(out_dir, t) -> bytes:
    p = out_dir / "tiling.json"
    tiling.save_tiling(str(p), t)
    return p.read_bytes()


def _tiling(L, rect, edge=None) -> tiling.Tiling:
    rect = np.asarray(rect, dtype=float).reshape(-1, 4)
    n = len(rect)
    edge = np.arange(2 * n, dtype=np.int64).reshape(-1, 2) if edge is None else edge
    return tiling.Tiling(L, np.arange(n, dtype=np.int64), edge, rect, np.zeros(n, bool))


def test_written_bytes_match_oracle(artifact_maps, out_dir):
    # L32's vertices and tiles each take more than one write
    assert artifact_maps["L32"].map.n_faces > odmap._ROWS_PER_WRITE
    for name, mm in artifact_maps.items():
        for marked in (None, [], mm.marked):
            assert _map_bytes(out_dir, mm.map, marked) == oracle_map_bytes(mm.map, marked), name
        t, _, _ = tiling.build_tiling(mm)
        assert _tiling_bytes(out_dir, t) == oracle_tiling_bytes(t), name
        reloaded = tiling.load_tiling(str(out_dir / "tiling.json"))
        assert _tiling_bytes(out_dir, reloaded) == oracle_tiling_bytes(t), name


def test_empty_map_and_tiling(out_dir):
    m = odmap.OrthodiagonalMap(np.zeros((0, 2)), np.zeros(0, np.int64),
                               np.zeros((0, 4), np.int64), [])
    for marked in (None, []):
        assert _map_bytes(out_dir, m, marked) == oracle_map_bytes(m, marked)
    t = _tiling(0.0, np.zeros((0, 4)))
    assert _tiling_bytes(out_dir, t) == oracle_tiling_bytes(t) == b'{\n "L": 0.0,\n "tiles": []\n}\n'


@settings(max_examples=200, deadline=None)
@given(L=FLOATS, rect=st.lists(st.tuples(FLOATS, FLOATS, FLOATS, FLOATS), max_size=12),
       big_edge=st.integers(0, 2 ** 62))
def test_tiling_float_spellings(out_dir, L, rect, big_edge):
    edge = np.arange(2 * len(rect), dtype=np.int64).reshape(-1, 2)
    edge[:, 1] += big_edge
    t = _tiling(L, rect, edge)
    assert _tiling_bytes(out_dir, t) == oracle_tiling_bytes(t)


@settings(max_examples=100, deadline=None)
@given(xy=st.lists(st.tuples(FLOATS, FLOATS), min_size=9, max_size=9),
       marked=st.one_of(st.none(), st.lists(st.integers(0, 8), max_size=4)))
def test_map_float_spellings(out_dir, xy, marked):
    # the star map's topology with arbitrary coordinates
    s = star_map().map
    m = odmap.OrthodiagonalMap(np.array(xy), s.colors, s.faces, s.boundary)
    assert _map_bytes(out_dir, m, marked) == oracle_map_bytes(m, marked)
