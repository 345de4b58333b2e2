import ast
import hashlib
import json
import math
import subprocess
import sys

import pytest

from conftest import L_MARKS, L_POLY, RECT_MARKS, RECT_POLY, src_env, strip_map
from orthotile import cli, odmap


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "orthotile.cli", *args],
                          capture_output=True, text=True, env=src_env())


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


def test_self_touching_domain_exits_1(capsys, tmp_path):
    # a vertex on an edge pinches the ring into two lobes: the domain is
    # rejected as input instead of meshed one lobe at a time
    dom = tmp_path / "dom.json"
    dom.write_text(json.dumps({"polygon": [[0, 0], [2, 0], [2, 2], [1, 0], [0, 2]],
                               "marked": [[0, 0], [1, 0], [2, 2], [0, 2]]}))
    assert cli.main(["generate", "--domain", str(dom), "--mesh", "0.0625",
                     "--out", str(tmp_path / "map.json")]) == 1
    assert "polygon is self-intersecting" in capsys.readouterr().err
    assert not (tmp_path / "map.json").exists()


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


@pytest.fixture(scope="module")
def rect_tiling_text(tmp_path_factory):
    """The rectangle's tiling file at 2^-5, as text."""
    d = tmp_path_factory.mktemp("rect5")
    dom, mp, tp = d / "dom.json", str(d / "map.json"), d / "t.json"
    dom.write_text(json.dumps({"polygon": RECT_POLY, "marked": RECT_MARKS}))
    assert cli.main(["generate", "--domain", str(dom), "--mesh", str(2.0 ** -5), "--out", mp]) == 0
    assert cli.main(["tile", "--map", mp, "--out", str(tp)]) == 0
    return tp.read_text()


@pytest.mark.parametrize("L", [math.inf, math.nan, 0.0, -2.0])
def test_tiling_with_bad_L_exits_1(capsys, tmp_path, rect_tiling_text, L):
    # an infinite L once made every slack infinite, so verify passed
    d = json.loads(rect_tiling_text)
    d["L"] = L
    tp = tmp_path / "t.json"
    tp.write_text(json.dumps(d))
    capsys.readouterr()
    assert cli.main(["verify", "--tiling", str(tp)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot read tiling {tp}") and captured.out == ""


def test_usage_errors_exit_64():
    r = run_cli("frobnicate")
    assert r.returncode == 64
    r = run_cli("tile", "--bogus")
    assert r.returncode == 64


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "0.5", "inf"])
@pytest.mark.parametrize("command", ["tile", "verify", "duality"])
def test_out_of_range_tol_is_a_usage_error(capsys, strip_files, command, tol):
    mp, tp = strip_files
    files = {"tile": ["--map", str(mp), "--out", str(tp)],
             "verify": ["--tiling", str(tp)],
             "duality": ["--map", str(mp)]}[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *files, "--tol", tol])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "_tol must be in (0, 1e-2]" in err
    assert cli.main([command, *files, "--tol", "1e-2"]) == 0


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-0.5", "abc"])
@pytest.mark.parametrize("command", ["generate", "converge"])
def test_bad_mesh_is_a_usage_error(capsys, tmp_path, domain_file, command, value):
    args = {"generate": [f"--mesh={value}", "--out", str(tmp_path / "m.json")],
            "converge": [f"--mesh0={value}", "--levels", "2",
                         "--report", str(tmp_path / "r.json")]}[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--domain", domain_file, *args])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "must be finite and > 0" in err or "invalid number value" in err
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("margin", ["nan", "inf", "-1", "-1e-300"])
def test_bad_probe_margin_is_a_usage_error(capsys, tmp_path, domain_file, margin):
    rp = tmp_path / "r.json"
    argv = ["converge", "--domain", domain_file, "--mesh0", "0.25", "--levels", "2",
            "--report", str(rp)]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, f"--probe-margin={margin}"])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "probe margin must be finite and >= 0" in err
    assert not rp.exists()
    assert cli.main([*argv, "--probe-margin=0"]) == 0
    assert json.loads(rp.read_text())["probe_margin"] == 0.0


@pytest.mark.parametrize("levels", ["1", "0", "-1", "2.5", "abc"])
def test_bad_levels_is_a_usage_error(capsys, tmp_path, domain_file, levels):
    rp = tmp_path / "r.json"
    argv = ["converge", "--domain", domain_file, "--mesh0", "0.25", "--report", str(rp)]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, f"--levels={levels}"])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "levels must be an integer >= 2" in err
    assert not rp.exists()


# one CLI command in a fresh interpreter; the last stdout line lists the
# scipy modules it loaded
FRESH_CLI = ("import sys\nfrom orthotile import cli\nrc = cli.main(sys.argv[1:])\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
             "sys.exit(rc)")


def run_fresh(*args, **env):
    r = subprocess.run([sys.executable, "-c", FRESH_CLI, *args], capture_output=True,
                       text=True, env={**src_env(), **env})
    return r.returncode, ast.literal_eval(r.stdout.splitlines()[-1])


def test_no_process_loads_scipy_spatial():
    # importing the package loads no scipy module at all; only the tests'
    # k-d tree oracles use scipy.spatial
    code = ("import sys, orthotile, orthotile.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=src_env(), check=True)
    assert r.stdout.strip() == "[]"


def test_no_command_loads_scipy(tmp_path, domain_file):
    # generate labels components, tile, duality and converge solve with the
    # package's own numpy matrix, multigrid CG loop and search, and verify
    # sweeps the tiling with numpy, so no command loads any scipy module;
    # the three artifacts keep their pinned bytes
    mp, tp, svg = (str(tmp_path / n) for n in ("map.json", "t.json", "t.svg"))
    for argv in (["generate", "--domain", domain_file, "--mesh", "0.25", "--out", mp],
                 ["tile", "--map", mp, "--out", tp, "--svg", svg], ["duality", "--map", mp],
                 ["converge", "--domain", domain_file, "--mesh0", "0.25", "--levels", "2",
                  "--report", str(tmp_path / "r.json")]):
        assert run_fresh(*argv) == (0, []), argv[0]
    assert run_fresh("verify", "--tiling", tp) == (0, [])
    digest = {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()
              for n in ("map.json", "t.json", "t.svg")}
    assert digest == {
        "map.json": "6a8450201551500961ea55307c0d051e765ccebc3695d3d8793e53cd4099f58e",
        "t.json": "14ddc713a8cfb38e360360ad2760c1d34a008ce0e19ff11bd424b096b67b0545",
        "t.svg": "47f5b47605c10314c3d6e97cb0511d3d4eac58a522f2e2f12d899822499fe45b"}


def test_tile_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # no solve step calls BLAS, so tile writes the same tiling and SVG on
    # the L-shape at 2^-6 with one and with two BLAS threads
    dom = tmp_path / "L.json"
    dom.write_text(json.dumps({"polygon": L_POLY, "marked": L_MARKS}))
    mp = str(tmp_path / "map.json")
    assert run_fresh("generate", "--domain", str(dom), "--mesh", str(2.0 ** -6),
                     "--out", mp) == (0, [])
    written = []
    for threads in ("1", "2"):
        tp, sp = tmp_path / f"t{threads}.json", tmp_path / f"t{threads}.svg"
        assert run_fresh("tile", "--map", mp, "--out", str(tp), "--svg", str(sp),
                         OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads) == (0, [])
        written.append((tp.read_bytes(), sp.read_bytes()))
    assert written[0] == written[1]


def test_chain_never_reads_mesh_eps(tmp_path, monkeypatch):
    # generate, tile, verify and duality read no mesh_eps, so no command of
    # the chain pays for its (f, 4, 2) side lengths
    def unread(m):
        raise AssertionError("mesh_eps was read")

    monkeypatch.setattr(odmap.OrthodiagonalMap, "mesh_eps", property(unread))
    dom = tmp_path / "L.json"
    dom.write_text(json.dumps({"polygon": L_POLY, "marked": L_MARKS}))
    mp, tp, sp = (str(tmp_path / n) for n in ("map.json", "t.json", "t.svg"))
    for argv in (["generate", "--domain", str(dom), "--mesh", "0.125", "--out", mp],
                 ["tile", "--map", mp, "--out", tp, "--svg", sp],
                 ["verify", "--tiling", tp], ["duality", "--map", mp]):
        assert cli.main(argv) == 0, argv[0]


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
