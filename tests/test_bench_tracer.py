"""The benchmark's tracer installs on the package and reports every layer.

``perfbench/tracing.py`` finds what it times by name: it wraps public
functions at every module attribute bound to them, patches
``Nest.contains`` as a class attribute and takes ``len()`` of the
census's result.  The benchmark runs untraced by default, so a rename in
``skelex`` that breaks the tracer would show nowhere else.  Names the
tracer no longer finds are reported as gone and read 0.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from skelex import cli
from skelex.generators import gen_cube
from skelex.graph import serialize

from conftest import gale_facets

ROOT = Path(__file__).resolve().parent.parent
# the worker adds these from its pass times; summarize() sees spans only
FROM_THE_WORKER = {"trace.pass_s", "trace.overhead_s"}


def _tracing_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pipelines_report_every_benchmark_layer(tmp_path):
    poset, dual, cube = tmp_path / "c64.json", tmp_path / "dual.json", tmp_path / "cube.json"
    poset.write_text(json.dumps({"simplices": gale_facets(6)}), encoding="utf-8")
    cube.write_text(serialize(gen_cube(2)), encoding="utf-8")
    calls = [
        ["dualize", str(poset), "--out", str(dual)],
        ["classify", str(dual), "--out", str(tmp_path / "classify.txt")],
        ["census", str(cube), "--out", str(tmp_path / "census.txt")],
    ]
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        for item, argv in enumerate(calls):
            tracer.begin_item(item)
            assert cli.run(argv) == cli.EXIT_OK  # looked up as the tracer patched it
    finally:
        tracer.uninstall()
    metrics = tracer.take().summarize()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {layer["name"] for layer in benchmark["per_layer"]} - FROM_THE_WORKER
    assert sorted(names - set(metrics)) == []
    assert metrics["cli.run.calls"] == len(calls)
    assert metrics["cli.census.classes"] > 0
    assert metrics["classify.homology_mod2.calls"] == 1
