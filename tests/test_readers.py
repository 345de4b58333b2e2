"""load_map and load_tiling, which decode rows straight into columns,
against the dict-tree readers they replaced: equal columns bit for bit on
the fixture maps and on files spelled other ways, exit 1 on files whose
rows are not exactly the entries of their member, and a lower read peak."""

import gc
import json
import math
import tracemalloc

import pytest

from conftest import (map_bits, oracle_load, oracle_map_from_json_dict,
                      oracle_tiling_from_json_dict, plus_map, star_map, strip_map, tiling_bits)
from orthotile import cli, geom, gridgen, odmap, tiling

MEMBER = {"map": "vertices", "tiling": "tiles"}


@pytest.fixture(scope="module")
def artifact_files(rect_map16, l_spec, tmp_path_factory):
    """{name: (map path, tiling path)} for the fixture maps and L at 1/32."""
    d = tmp_path_factory.mktemp("readers")
    maps = {"star": star_map(), "strip": strip_map(), "plus": plus_map(),
            "rect16": rect_map16[0], "L32": gridgen.grid_approximation(l_spec, 1 / 32)[0]}
    files = {}
    for name, mm in maps.items():
        mp, tp = d / f"{name}.json", d / f"{name}.tiling.json"
        odmap.save_map(str(mp), mm.map, mm.marked)
        tiling.save_tiling(str(tp), tiling.build_tiling(mm)[0])
        files[name] = mp, tp
    return files


def _compact(d, kind):
    return d


def _keys_reversed(d, kind):
    for rec in d[MEMBER[kind]]:
        items = list(rec.items())[::-1]
        rec.clear()
        rec.update(items)
    return dict(list(d.items())[::-1])


def _extra_key(d, kind):
    # a nested object and a list of objects that are not rows
    for i, rec in enumerate(d[MEMBER[kind]]):
        rec["note"] = {"i": i, "seen": [{"id": i}, None]}
    return d


def _nonfinite_bounds(d, kind):
    if kind == "tiling":
        for rec, k, v in zip(d["tiles"][1::3], ("x0", "x1", "y1"),
                             (math.nan, math.inf, -math.inf)):
            rec[k] = v
    return d


@pytest.mark.parametrize("variant", [None, _compact, _keys_reversed, _extra_key,
                                     _nonfinite_bounds])
def test_loaded_columns_match_oracle(tmp_path, artifact_files, variant):
    # the written files, and the same content re-dumped by json.dumps
    # without indent after a change to every record
    for name, (mp, tp) in artifact_files.items():
        for kind, path in (("map", mp), ("tiling", tp)):
            if variant is not None:
                d = variant(json.loads(path.read_text()), kind)
                path = tmp_path / f"{name}.{kind}.json"
                path.write_text(json.dumps(d))
            if kind == "map":
                got, want = odmap.load_map(str(path)), oracle_load(path, oracle_map_from_json_dict)
                assert map_bits(*got) == map_bits(*want), name
            else:
                got = tiling.load_tiling(str(path))
                want = oracle_load(path, oracle_tiling_from_json_dict)
                assert tiling_bits(got) == tiling_bits(want), name


def _row_outside(d, kind):
    d["extra"] = dict(d[MEMBER[kind]][0])
    return d


def _row_in_a_row(d, kind):
    rows = d[MEMBER[kind]]
    rows[1]["twin"] = dict(rows[0])
    return d


def _null_entry(d, kind):
    d[MEMBER[kind]][2] = None
    return d


def _list_entry(d, kind):
    d[MEMBER[kind]][2] = list(d[MEMBER[kind]][2].values())
    return d


def _missing_key(d, kind):
    del d[MEMBER[kind]][2]["color" if kind == "map" else "y1"]
    return d


def _null_and_row_outside(d, kind):
    # as many stray rows as null entries
    return _row_outside(_null_entry(d, kind), kind)


def _member_not_a_list(d, kind):
    d[MEMBER[kind]] = {"0": d[MEMBER[kind]][0]}
    return d


# ids and colors outside the id rule, each of which the readers once took
# for another value: a repeated vertex id left a vertex at (0, 0), an
# unknown color read as dual, and floats and strings were cast to integers


def _repeated_vertex_id(d, kind):
    d["vertices"][7]["id"] = d["vertices"][6]["id"]
    return d


def _capitalised_color(d, kind):
    v = next(r for r in d["vertices"] if r["color"] == "primal" and r["id"] not in d["boundary"])
    v["color"] = "Primal"
    return d


def _float_face_id(d, kind):
    d["faces"][0][0] += 0.4
    return d


def _string_face_id(d, kind):
    d["faces"][0][0] = str(d["faces"][0][0])
    return d


def _float_mark(d, kind):
    d["marked"][0] += 0.4
    return d


def _string_mark(d, kind):
    d["marked"][0] = str(d["marked"][0])
    return d


def _float_tile_face(d, kind):
    d["tiles"][0]["face"] += 0.7
    return d


def _string_and_float_edge(d, kind):
    e = d["tiles"][0]["edge"]
    d["tiles"][0]["edge"] = [str(e[0]), e[1] + 0.9]
    return d


DAMAGE = ([(kind, damage) for damage in (_row_outside, _row_in_a_row, _null_entry, _list_entry,
                                        _missing_key, _null_and_row_outside, _member_not_a_list)
           for kind in ("map", "tiling")]
          + [("map", damage) for damage in (_repeated_vertex_id, _capitalised_color,
                                            _float_face_id, _string_face_id, _float_mark,
                                            _string_mark)]
          + [("tiling", _float_tile_face), ("tiling", _string_and_float_edge)])


@pytest.mark.parametrize("kind,damage", DAMAGE,
                         ids=[f"{kind}-{damage.__name__}" for kind, damage in DAMAGE])
def test_rows_not_exactly_the_member_exit_1(capsys, tmp_path, artifact_files, kind, damage):
    mp, tp = artifact_files["strip"]
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(damage(json.loads((mp if kind == "map" else tp).read_text()),
                                      kind)))
    runs = ([["tile", "--map", str(path), "--out", str(tmp_path / "t.json")],
             ["duality", "--map", str(path)]] if kind == "map"
            else [["verify", "--tiling", str(path)]])
    for argv in runs:
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("cannot read")


@pytest.mark.parametrize("boundary", [5, [[0, 1], [2, 3]], [[0, 1], [2]], [0.0, 1.0, 2.0],
                                      ["0", "1"]])
def test_boundary_not_a_flat_list_of_ids_exit_1(capsys, tmp_path, artifact_files, boundary):
    mp, _ = artifact_files["strip"]
    d = json.loads(mp.read_text())
    d["boundary"] = boundary
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    for argv in (["tile", "--map", str(path), "--out", str(tmp_path / "t.json")],
                 ["duality", "--map", str(path)]):
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("cannot read map")


def test_boundary_repeating_a_marked_vertex_exit_1(capsys, tmp_path, artifact_files):
    mp, _ = artifact_files["strip"]
    d = json.loads(mp.read_text())
    d["boundary"].append(d["marked"][1])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    for argv in (["tile", "--map", str(path), "--out", str(tmp_path / "t.json")],
                 ["duality", "--map", str(path)]):
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("bad marking")


def _marks_only(d):
    return d["marked"]


def _marks_and_the_next_vertex(d):
    b = d["boundary"]
    return [v for m in d["marked"] for v in (m, b[(b.index(m) + 1) % len(b)])]


# cut to the marks alone, the cycle also has no dual vertex between B and C
# or between D and A, and the marking check reports that first
@pytest.mark.parametrize("cut,err", [
    (_marks_only, "bad marking in {}: the boundary has no dual vertex"),
    (_marks_and_the_next_vertex, "bad map {}: stored boundary cycle")],
    ids=["_marks_only", "_marks_and_the_next_vertex"])
def test_boundary_not_the_faces_boundary_exit_1(capsys, tmp_path, artifact_files, cut, err):
    # the cycle is not the faces' boundary
    mp, _ = artifact_files["strip"]
    d = json.loads(mp.read_text())
    d["boundary"] = cut(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    m, _ = odmap.load_map(str(path))
    assert "boundary-mismatch" in {v.kind for v in odmap.validate(m).violations}
    for argv in (["tile", "--map", str(path), "--out", str(tmp_path / "t.json")],
                 ["duality", "--map", str(path)]):
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(err.format(path))


def _read_peak(load, path) -> int:
    """tracemalloc's peak over load(path), above what was allocated before."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        load(str(path))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


#: highest allowed read peak of each column reader over its dict-tree
#: oracle's, at L 1/32: measured 0.61 (map) and 0.50 (tiling), against 1.0
#: when the readers walked json.load's tree
PEAK_RATIO = {"load_map": 0.7, "load_tiling": 0.6}


def test_column_readers_lower_the_read_peak(artifact_files):
    # L at 1/32, 6,016 faces
    mp, tp = artifact_files["L32"]
    for load, oracle, path in (
            (odmap.load_map, oracle_map_from_json_dict, mp),
            (tiling.load_tiling, oracle_tiling_from_json_dict, tp)):
        ratio = _read_peak(load, path) / _read_peak(lambda p: oracle_load(p, oracle), path)
        assert ratio <= PEAK_RATIO[load.__name__], (load.__name__, ratio)


#: tracemalloc peak of verify_tiling on the reloaded L tiling at 2^-6 with
#: the bisect sweep that found only witness pairs, measured 7.77 MB
VERIFY_PEAK = 7.8e6


def test_verify_peak_stays_within_the_sweep(l_spec, tmp_path):
    # verify_tiling's box index walks its candidates in bounded batches:
    # 24,132 live tiles, no overlap
    tp = tmp_path / "L6.tiling.json"
    mm = gridgen.grid_approximation(l_spec, 2.0 ** -6)[0]
    tiling.save_tiling(str(tp), tiling.build_tiling(mm)[0])
    t = tiling.load_tiling(str(tp))
    assert len(t) - t.degenerate_count == 24132
    peak = _read_peak(lambda p: tiling.verify_tiling(t), tp)
    assert peak <= VERIFY_PEAK, peak


#: tracemalloc peak of trace_boundary on the L at 2^-6 from one sort of the
#: side keys: measured 3.89 MB, against 7.51 MB with np.unique's inverse
#: over all 4f sides
TRACE_PEAK = 4.2e6


def test_trace_boundary_peak_stays_within_one_sort(l_spec):
    faces = gridgen.grid_approximation(l_spec, 2.0 ** -6)[0].map.faces
    peak = _read_peak(lambda _: odmap.trace_boundary(faces), "")
    assert peak <= TRACE_PEAK, peak


#: tracemalloc peaks of generation on the L at 2^-6 when a diamond was kept
#: by three tests (a center mask, a corner-lattice mask and a clip of each
#: polygon edge), measured 13.57 and 6.18 MB
GENERATION_PEAK = {"grid_approximation": 13.6e6, "_kept_faces": 6.2e6}


def test_generation_peak_stays_within_the_three_tests(l_spec):
    eps = 2.0 ** -6
    tol = geom.DEFAULT_REL_TOL * l_spec.boundary.diameter()
    for name, run in (("grid_approximation", lambda _: gridgen.grid_approximation(l_spec, eps)),
                      ("_kept_faces", lambda _: gridgen._kept_faces(l_spec.boundary, eps, tol))):
        peak = _read_peak(run, "")
        assert peak <= GENERATION_PEAK[name], (name, peak)
