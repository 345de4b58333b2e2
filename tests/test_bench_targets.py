"""The benchmark's span recorder (perfbench/layers.py) patches orthotile
functions and methods by name, and its hooks read attributes of their
results.  Installing it over a small pipeline run proves that every traced
attribute still exists; uninstalling must restore the originals."""

import importlib
import importlib.util
import os

from conftest import star_map, strip_map
from orthotile import experiments, holo, odmap, tiling

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(ROOT, "perfbench", "layers.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(path):
    parts = path.split(".")
    obj = importlib.import_module("orthotile." + parts[0])
    for p in parts[1:]:
        obj = getattr(obj, p)
    return obj


def test_bench_tracer_targets_exist_and_hooks_read(tmp_path):
    layers = _load_layers()
    before = {tg.path: _resolve(tg.path) for tg in layers.TARGETS}
    # the file and tiling hooks run on a tiling with degenerate tiles
    strip = strip_map()
    strip_t = tiling.build_tiling(strip)[0]
    mp, tp = str(tmp_path / "strip.json"), str(tmp_path / "strip.tiling.json")
    tracer = layers.Tracer(layers.TARGETS).install()
    try:
        patched = {attr for _, attr, _ in tracer._patches}
        for tg in layers.TARGETS:
            assert tg.path.split(".")[-1] in patched, tg.path
            assert _resolve(tg.path).__wrapped__ is before[tg.path]
        mm = star_map()
        t, h, ht = tiling.build_tiling(mm)
        holo.assemble(mm, h, ht)
        mm.map.side_edges()
        tiling.InterpolatedMap(mm, h, ht).evaluate(mm.map.positions[4])
        odmap.save_map(mp, strip.map, strip.marked)
        odmap.load_map(mp)
        tiling.save_tiling(tp, strip_t)
        loaded = tiling.load_tiling(tp)
        tiling.verify_tiling(loaded)
        svg = tiling.render_svg(loaded)
    finally:
        tracer.uninstall()
    for tg in layers.TARGETS:
        assert _resolve(tg.path) is before[tg.path], tg.path
    table = tracer.table()
    for name in ("tiling.build_tiling", "harmonic.solve_dirichlet",
                 "harmonic.harmonic_conjugate", "holo.assemble",
                 "odmap.OrthodiagonalMap.side_edges", "tiling.InterpolatedMap.__init__"):
        assert table[name]["calls"] >= 1, name
    # the solve hook reads HarmonicField.graph, .boundary and .residual
    assert tracer.counts["harmonic.solve_dirichlet.free_vertices"] == h.graph.n - len(h.boundary)
    assert tracer.counts["harmonic.solve_dirichlet.residual_max"] >= 0.0
    assert tracer.counts["tiling.build_tiling.degenerate_tiles"] == t.degenerate_count
    assert tracer.counts["tiling.InterpolatedMap.evaluate.calls"] == 1
    for name in ("odmap.save_map", "odmap.load_map", "tiling.save_tiling",
                 "tiling.load_tiling", "tiling.verify_tiling", "tiling.render_svg"):
        assert table[name]["calls"] == 1, name
    live = len(loaded) - loaded.degenerate_count
    assert 0 < live < len(loaded)
    assert tracer.counts["tiling.verify_tiling.live_tiles"] == live
    assert tracer.counts["odmap.save_map.bytes"] == os.path.getsize(mp)
    assert tracer.counts["tiling.save_tiling.bytes"] == os.path.getsize(tp)
    assert tracer.counts["tiling.render_svg.bytes"] == len(svg.encode())


def test_one_solve_per_system_per_ladder_level(rect_spec):
    # each level solves the primal system once (in build_tiling, shared by
    # the duality defect) and the dual system once; its certificate bounds
    # the four arcs through the traced geom.hausdorff_distance, which keeps
    # that kernel visible to the per-layer metrics
    layers = _load_layers()
    tracer = layers.Tracer(layers.TARGETS).install()
    try:
        rep = experiments.convergence_run(rect_spec, 0.25, 2)
    finally:
        tracer.uninstall()
    assert all(lv.error is None for lv in rep.levels)
    table = tracer.table()
    assert table["harmonic.solve_dirichlet"]["calls"] == 2 * len(rep.levels)
    assert table["geom.hausdorff_distance"]["calls"] == 4 * len(rep.levels)
