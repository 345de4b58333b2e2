import json
import math
import os
import subprocess
import sys

import pytest

from conftest import RECT_MARKS, RECT_POLY, strip_map
from orthotile import cli, odmap


def run_cli(*args):
    # the subprocess imports the same orthotile as this process
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "orthotile.cli", *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


@pytest.fixture()
def domain_file(tmp_path):
    p = tmp_path / "dom.json"
    p.write_text(json.dumps({"polygon": RECT_POLY, "marked": RECT_MARKS}))
    return str(p)


def test_pipeline_generate_tile_verify_duality(tmp_path, domain_file):
    mp = str(tmp_path / "map.json")
    tp = str(tmp_path / "t.json")
    sp = str(tmp_path / "t.svg")
    assert cli.main(["generate", "--domain", domain_file, "--mesh", "0.25",
                     "--out", mp]) == 0
    assert (tmp_path / "map.cert.json").exists()
    assert cli.main(["tile", "--map", mp, "--out", tp, "--svg", sp]) == 0
    assert cli.main(["verify", "--tiling", tp]) == 0
    assert cli.main(["duality", "--map", mp]) == 0


def test_exit_codes(tmp_path, domain_file):
    mp = str(tmp_path / "map.json")
    # input error: missing file
    assert cli.main(["generate", "--domain", str(tmp_path / "nope.json"),
                     "--mesh", "0.25", "--out", mp]) == 1
    # generation error: mesh coarser than the domain
    assert cli.main(["generate", "--domain", domain_file, "--mesh", "50",
                     "--out", mp]) == 2
    # malformed spec
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["generate", "--domain", str(bad), "--mesh", "0.25",
                     "--out", mp]) == 1


def test_verify_tampered_tiling_exit_4(tmp_path, domain_file):
    mp = str(tmp_path / "map.json")
    tp = tmp_path / "t.json"
    cli.main(["generate", "--domain", domain_file, "--mesh", "0.25", "--out", mp])
    cli.main(["tile", "--map", mp, "--out", str(tp)])
    payload = json.loads(tp.read_text())
    payload["tiles"][0]["x1"] += 1e-3
    tp.write_text(json.dumps(payload))
    assert cli.main(["verify", "--tiling", str(tp)]) == 4


@pytest.fixture()
def strip_files(tmp_path):
    """The strip fixture's map and tiling files."""
    mm = strip_map()
    mp, tp = tmp_path / "strip.json", tmp_path / "strip.tiling.json"
    odmap.save_map(str(mp), mm.map, mm.marked)
    assert cli.main(["tile", "--map", str(mp), "--out", str(tp)]) == 0
    return mp, tp


def _set(path, *keys_and_value):
    *keys, last, value = keys_and_value
    d = json.loads(path.read_text())
    node = d
    for k in keys:
        node = node[k]
    node[last] = value
    path.write_text(json.dumps(d))


@pytest.mark.parametrize("commands,artifact,where", [
    (["verify"], "tiling", ("tiles", 0, "x1")),
    (["verify"], "tiling", ("L",)),
    (["verify"], "tiling", ("tiles", 0, "face")),
    (["tile", "duality"], "map", ("vertices", 3, "x")),
    (["tile", "duality"], "map", ("faces", 0, 0)),
])
def test_null_in_artifact_exits_1(capsys, tmp_path, strip_files, commands, artifact, where):
    mp, tp = strip_files
    _set(mp if artifact == "map" else tp, *where, None)
    for cmd in commands:
        args = ["--tiling", str(tp)] if cmd == "verify" else ["--map", str(mp)]
        out = ["--out", str(tmp_path / "t2.json")] if cmd == "tile" else []
        assert cli.main([cmd, *args, *out]) == 1
        assert capsys.readouterr().err.startswith("cannot read")


@pytest.mark.parametrize("commands,artifact,where", [
    (["tile", "duality"], "map", ("vertices", 3, "id")),
    (["tile", "duality"], "map", ("faces", 0, 0)),
    (["verify"], "tiling", ("tiles", 0, "face")),
    (["verify"], "tiling", ("tiles", 0, "edge", 1)),
    (["verify"], "tiling", ("tiles", 0, "x1")),
])
def test_integer_beyond_int64_exits_1(capsys, tmp_path, strip_files, commands, artifact, where):
    mp, tp = strip_files
    _set(mp if artifact == "map" else tp, *where, 2 ** 64 * 10 ** 300)
    for cmd in commands:
        args = ["--tiling", str(tp)] if cmd == "verify" else ["--map", str(mp)]
        out = ["--out", str(tmp_path / "t2.json")] if cmd == "tile" else []
        capsys.readouterr()
        assert cli.main([cmd, *args, *out]) == 1
        assert capsys.readouterr().err.startswith("cannot read")


@pytest.mark.parametrize("command", ["tile", "duality"])
def test_zero_diagonal_map_exits_1(capsys, tmp_path, strip_files, command):
    # the map loads, but extracting its graphs fails on face 4
    mp, _ = strip_files
    v1, _, v2, _ = strip_map().map.faces[4].tolist()
    d = json.loads(mp.read_text())
    for k in ("x", "y"):
        d["vertices"][v2][k] = d["vertices"][v1][k]
    mp.write_text(json.dumps(d))
    out = ["--out", str(tmp_path / "t2.json")] if command == "tile" else []
    capsys.readouterr()
    assert cli.main([command, "--map", str(mp), *out]) == 1
    assert "zero-length diagonal" in capsys.readouterr().err


@pytest.mark.parametrize("edge", [[7], [1, 2, 7]])
def test_edge_not_a_pair_exits_1(capsys, strip_files, edge):
    _, tp = strip_files
    _set(tp, "tiles", 2, "edge", edge)
    assert cli.main(["verify", "--tiling", str(tp)]) == 1
    assert "pair" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["x0", "x1", "y0", "y1"])
def test_nan_tile_named_in_containment(capsys, strip_files, bound):
    _, tp = strip_files
    face = json.loads(tp.read_text())["tiles"][5]["face"]
    _set(tp, "tiles", 5, bound, math.nan)
    capsys.readouterr()
    assert cli.main(["verify", "--tiling", str(tp)]) == 4
    assert f"containment {face} nan" in capsys.readouterr().out.splitlines()


def test_usage_errors_exit_64():
    r = run_cli("frobnicate")
    assert r.returncode == 64
    r = run_cli("tile", "--bogus")
    assert r.returncode == 64


def test_help_available():
    for cmd in ("generate", "tile", "verify", "duality", "converge"):
        r = run_cli(cmd, "--help")
        assert r.returncode == 0
        assert "usage" in r.stdout.lower()


def test_duality_product_printed(capsys, tmp_path, domain_file):
    mp = str(tmp_path / "map.json")
    cli.main(["generate", "--domain", domain_file, "--mesh", "0.125", "--out", mp])
    capsys.readouterr()
    assert cli.main(["duality", "--map", mp]) == 0
    out = capsys.readouterr().out
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert abs(float(lines["product"]) - 1.0) <= 1e-8


def test_idempotent_byte_identical_outputs(tmp_path, domain_file):
    m1, m2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    cli.main(["generate", "--domain", domain_file, "--mesh", "0.125", "--out", m1])
    cli.main(["generate", "--domain", domain_file, "--mesh", "0.125", "--out", m2])
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
    t1, t2 = str(tmp_path / "t1.json"), str(tmp_path / "t2.json")
    s1, s2 = str(tmp_path / "s1.svg"), str(tmp_path / "s2.svg")
    cli.main(["tile", "--map", m1, "--out", t1, "--svg", s1])
    cli.main(["tile", "--map", m1, "--out", t2, "--svg", s2])
    assert (tmp_path / "t1.json").read_bytes() == (tmp_path / "t2.json").read_bytes()
    assert (tmp_path / "s1.svg").read_bytes() == (tmp_path / "s2.svg").read_bytes()


def test_converge_writes_report(tmp_path, domain_file):
    rp = tmp_path / "rep.json"
    assert cli.main(["converge", "--domain", domain_file, "--mesh0", "0.25",
                     "--levels", "2", "--report", str(rp)]) == 0
    payload = json.loads(rp.read_text())
    assert payload["schema"].startswith("orthotile.convergence@")
    assert len(payload["levels"]) == 2


def test_runconfig_validation():
    with pytest.raises(ValueError):
        cli.RunConfig(solver_tol=0.5)
    with pytest.raises(ValueError):
        cli.RunConfig(verify_tol=0.0)
    cfg = cli.RunConfig()
    assert 0 < cfg.solver_tol <= 1e-2
