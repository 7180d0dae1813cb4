"""Scale guards and a closed stdout, through the real command line.

Each case runs ``python -m skelex.cli`` in a child process whose address
space is capped (set in the child only), and may close the child's stdout
after a few bytes.  Whatever happens, the child must end with exit code
0, 1 or 2 and a typed message: no traceback, and no "Exception ignored"
from a flush at interpreter exit.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from skelex.census import MAX_CENSUS_CLASSES
from skelex.cli import EXIT_INPUT, EXIT_OK, EXIT_REFUSED, MAX_LISTED_NEST_IDS
from skelex.duality import MAX_FULL_FLAGS, sphere_poset
from skelex.errors import GeneratorLimit
from skelex.generators import (
    MAX_GENERATED_EDGES,
    MAX_GENERATED_VERTICES,
    gen_cube,
    gen_nonorientable_surface,
    gen_orientable_surface,
)
from skelex.graph import serialize

from conftest import poset_document, simplex_boundary_text

ADDRESS_SPACE = 1 << 30  # bytes; far below what an unguarded generator asks for
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cap_address_space(limit: int) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_child(
    args: list[str],
    keep_bytes: int | None = None,
    address_space: int = ADDRESS_SPACE,
    timeout: float = 120,
) -> tuple[int, str]:
    """Run the CLI capped at ``address_space`` bytes; read ``keep_bytes`` of
    stdout and close it, or read it all when None.  Returns the exit code
    and stderr; a child still running after ``timeout`` seconds is killed
    and the call raises ``subprocess.TimeoutExpired``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)  # a buffered stdout, flushed at exit
    proc = subprocess.Popen(
        [sys.executable, "-m", "skelex.cli", *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        preexec_fn=lambda: _cap_address_space(address_space),
    )
    try:
        if keep_bytes is None:
            _, err_bytes = proc.communicate(timeout=timeout)
        else:
            proc.stdout.read(keep_bytes)
            proc.stdout.close()
            err_bytes = proc.stderr.read()
        code = proc.wait(timeout=timeout)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    err = err_bytes.decode("utf-8", "replace")
    assert code in (EXIT_OK, EXIT_REFUSED, EXIT_INPUT), err
    assert "Traceback" not in err, err
    assert "Exception ignored" not in err, err
    return code, err


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    """Input files by the placeholder that stands for them in argument lists."""
    folder = tmp_path_factory.mktemp("inputs")
    texts = {
        "GRAPH": serialize(gen_orientable_surface(40)),
        "CUBE": serialize(gen_cube(2)),
        "CUBE11": serialize(gen_cube(11)),
        "CUBE12": serialize(gen_cube(12)),
        "SPHERE6": simplex_boundary_text(7),  # 40,320 full flags
        "SPHERE7": simplex_boundary_text(8),  # 362,880 full flags
        # K8 and K10 are 7- and 9-valent, inside the census's vertex guard
        **{
            f"K{m}": json.dumps(
                {"vertices": m, "edges": [[u, v] for u in range(m) for v in range(u + 1, m)]}
            )
            for m in (8, 10)
        },
    }
    paths = {}
    for name, text in texts.items():
        path = folder / f"{name.lower()}.json"
        path.write_text(text + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


LIMIT = f"generating is limited to {MAX_GENERATED_VERTICES} vertices"


@pytest.mark.parametrize(
    "args, count",
    [
        (["cube", "--n", "40"], "2^41"),
        (["cube", "--n", "16"], "2^17"),
        (["surface", "--genus", "100000000"], "800000000"),
        (["surface", "--genus", "12501"], "100008"),
        (["surface", "--genus", "100000000", "--non-orientable"], "400000000"),
    ],
)
def test_generate_refuses_beyond_the_guard(args, count):
    code, err = run_child(["generate", *args])
    assert code == EXIT_REFUSED
    assert err == f"refused: {LIMIT}, got {count}\n"


@pytest.mark.parametrize("n, edges", [(14, 245760), (15, 524288)])
def test_generate_cube_refuses_beyond_the_edge_guard(n, edges):
    # 2^(n+1) vertices pass the vertex guard; unguarded, n=15 peaks near
    # 445 MB and fails under this cap with a MemoryError traceback
    code, err = run_child(["generate", "cube", "--n", str(n)], address_space=400_000_000)
    assert code == EXIT_REFUSED
    assert err == (
        f"refused: generating is limited to {MAX_GENERATED_EDGES} edges, got {edges}\n"
    )


@pytest.mark.parametrize("keep_bytes", [None, 0, 100])
def test_genus_1500_still_generates(keep_bytes):
    code, err = run_child(["generate", "surface", "--genus", "1500"], keep_bytes)
    if keep_bytes is None:
        assert (code, err) == (EXIT_OK, "")
    else:
        assert code == EXIT_INPUT
        assert err == "error: output closed before it was fully written\n"


@pytest.mark.parametrize("keep_bytes", [0, 10])
@pytest.mark.parametrize(
    "args",
    [
        ["generate", "cube", "--n", "12"],
        ["nests", "GRAPH"],
        ["expand", "--dump", "--format", "json", "GRAPH"],
        ["realize", "--table", "GRAPH"],
        ["validate", "GRAPH"],
        ["dualize", "SPHERE6"],
        ["classify", "CUBE"],
        ["census", "CUBE"],
    ],
)
def test_closed_stdout_ends_in_one_error_line(args, keep_bytes, inputs):
    args = [inputs.get(a, a) for a in args]
    code, err = run_child(args, keep_bytes)
    # with 0 bytes kept the pipe closes while the interpreter starts; a
    # short output can reach the pipe whole before 10 bytes are read back
    if code == EXIT_OK and keep_bytes:
        assert err == ""
    else:
        assert code == EXIT_INPUT
        assert err == "error: output closed before it was fully written\n"


def test_dualize_refuses_beyond_the_flag_guard(inputs):
    # the 8-simplex boundary's face poset has 510 cells; its full flags are
    # counted, never listed
    code, err = run_child(["dualize", inputs["SPHERE7"]], address_space=200_000_000)
    assert code == EXIT_REFUSED
    assert err == f"refused: dualizing is limited to {MAX_FULL_FLAGS} full flags, got 362880\n"


@pytest.mark.parametrize(
    "options", [[], ["--format", "json"], ["--dim", "0"], ["--dim", "0", "--format", "json"]]
)
@pytest.mark.parametrize("n, ids", [(11, 67108864), (12, 285212672)])
def test_nests_refuses_beyond_the_listing_guard(n, ids, options, inputs):
    # all nests of a valid graph list V·2^(n+1) + E·2^n vertex and edge ids,
    # counted before any nest is enumerated; unguarded, both cubes end in
    # MemoryError under this cap, n=12 after about two minutes, whatever --dim
    code, err = run_child(["nests", *options, inputs[f"CUBE{n}"]])
    assert code == EXIT_REFUSED
    assert err == (
        f"refused: listing nests is limited to {MAX_LISTED_NEST_IDS} vertex and"
        f" edge ids, got {ids}\n"
    )


def _oversized(field: str, value: int) -> str:
    """The 3-cube's graph file with one declared count or endpoint replaced."""
    data = json.loads(serialize(gen_cube(2)))
    if field == "endpoint":
        data["edges"][0][1] = value
    else:
        data[field] = value
    return json.dumps(data)


OVERSIZED = {
    "vertices 10^12": _oversized("vertices", 10**12),
    "vertices -5": _oversized("vertices", -5),
    "n 10^9": _oversized("n", 10**9),
    "endpoint 10^15": _oversized("endpoint", 10**15),
    "endpoint -10^15": _oversized("endpoint", -(10**15)),
}


@pytest.mark.parametrize(
    "args",
    [
        ["validate"],
        ["nests"],
        ["expand"],
        ["classify"],
        ["realize"],
        ["realize", "--table"],
        ["census"],
    ],
)
@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_declarations_are_refused(args, name, tmp_path):
    # declared counts are checked before anything is sized by them; under
    # the cap an allocation of 10^12 vertices would end in MemoryError
    path = tmp_path / "graph.json"
    path.write_text(OVERSIZED[name], encoding="utf-8")
    code, err = run_child([*args, str(path)])
    assert code in (EXIT_REFUSED, EXIT_INPUT)
    if args == ["validate"] and code == EXIT_REFUSED:
        assert err == ""  # the report goes to stdout
    else:
        assert err.startswith(("error: ", "refused: ")) and err.count("\n") == 1, err


def test_census_refuses_beyond_the_class_guard(inputs):
    # K10 at n=8 has 1,225,566,720 classes; the enumeration stops one past
    # the guard, before any class is expanded, where unguarded it runs on
    code, err = run_child(["census", "--n", "8", inputs["K10"]], timeout=30)
    assert code == EXIT_REFUSED
    assert err == f"refused: census is limited to {MAX_CENSUS_CLASSES} classes, got more\n"


def test_census_refuses_every_class_above_dimension_3(inputs, tmp_path):
    # K8 at n=6 has 6,240 classes, inside the class guard; each stops at
    # the 2-skeleton, where building an index per class took seconds
    out = tmp_path / "census.json"
    code, err = run_child(
        ["census", "--n", "6", "--format", "json", "--out", str(out), inputs["K8"]],
        timeout=60,
    )
    assert (code, err) == (EXIT_OK, "")
    entries = json.loads(out.read_text(encoding="utf-8"))
    assert len(entries) == 6240
    refusal = "sphere recognition above dimension 2 is unsupported (n=6)"
    assert all(entry.keys() == {"coloring", "refused"} for entry in entries)
    assert {entry["refused"] for entry in entries} == {refusal}


def test_census_refuses_an_oversized_n(inputs):
    code, err = run_child(["census", "--n", str(10**9), inputs["CUBE"]])
    assert code == EXIT_INPUT
    assert err.startswith("error: underlying graph is not 1000000001-valent")


@pytest.mark.parametrize(
    "top_dim, extra, message",
    [
        (10**12, [], "stated top_dim 1000000000000 but cells reach 3"),
        (
            10**12,
            [["big", 10**12, ["c3_1"]]],
            "cell 'big': faces cover dims [0, 1, 2, 3], expected 0..999999999999",
        ),
    ],
)
def test_dualize_refuses_an_oversized_dimension(top_dim, extra, message, tmp_path):
    document = poset_document(sphere_poset(3))
    document = {"top_dim": top_dim, "cells": document["cells"] + extra}
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, err = run_child(["dualize", str(path)])
    assert (code, err) == (EXIT_INPUT, f"error: {message}\n")


def test_generators_refuse_before_building():
    with pytest.raises(GeneratorLimit, match=r"got 2\^1000001$"):
        gen_cube(10**6)
    with pytest.raises(GeneratorLimit, match="150000 edges, got 524288$"):
        gen_cube(15)
    with pytest.raises(GeneratorLimit, match="got 100008$"):
        gen_orientable_surface(12501)
    with pytest.raises(GeneratorLimit, match="got 100004$"):
        gen_nonorientable_surface(25001)
    # below the guard the argument checks still come first
    with pytest.raises(ValueError):
        gen_cube(0)
    with pytest.raises(ValueError):
        gen_orientable_surface(0)

