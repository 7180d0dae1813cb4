"""Fuzzing the CLI: any stdin ends in exit code 0, 1 or 2, never a traceback.

Inputs are arbitrary JSON, and near misses of valid graph, poset and
census files: one value somewhere in a valid document replaced, deleted
or duplicated.  Every stdin subcommand reads each input.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from datetime import timedelta
from itertools import combinations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from skelex.cli import run
from skelex.duality import sphere_poset
from skelex.generators import gen_cube, gen_nonorientable_surface, gen_orientable_surface
from skelex.graph import serialize

from conftest import (
    GAP_CELL,
    K4_EDGES,
    THIRD_CELL,
    edited,
    poset_document,
    simplex_boundary_text,
)

COMMANDS = [
    ["validate"], ["nests"], ["expand"], ["classify"], ["dualize"],
    ["census"], ["realize", "--table"],
]

SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 20) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _graph(g) -> dict:
    return json.loads(serialize(g))


SEEDS = {
    "graph": [
        _graph(gen_cube(2)),
        _graph(gen_nonorientable_surface(1)),
        _graph(gen_orientable_surface(1)),
    ],
    "poset": [
        {"simplices": [list(s) for s in combinations(range(4), 3)]},
        {"simplices": [list(s) for s in combinations(range(5), 4)]},
        {"top_dim": 2, "cells": (
            [[f"v{s}", 0, []] for s in (1, 2)]
            + [[f"e{s}", 1, ["v1", "v2"]] for s in (1, 2)]
            + [[f"f{s}", 2, ["e1", "e2"]] for s in (1, 2)]
        )},
    ],
    "census": [
        {"n": 2, "vertices": 4, "edges": [list(e) for e in K4_EDGES]},
        {"n": 2, "vertices": 6, "edges": [
            [0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [0, 3], [1, 4], [2, 5],
        ]},
        # n+1 parallel edges: (n+1)! colorings, all in one color orbit
        *({"n": n, "vertices": 2, "edges": [[0, 1]] * (n + 1)} for n in range(2, 10)),
    ],
}


def _paths(doc, prefix=()):
    """Every position in a document, as a tuple of keys and indices."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


@st.composite
def near_miss(draw, kind: str) -> str:
    doc = json.loads(json.dumps(draw(st.sampled_from(SEEDS[kind]))))
    path = draw(st.sampled_from([p for p in _paths(doc) if p]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if action == "replace":
        parent[last] = draw(JSON)
    elif action == "delete":
        del parent[last]
    elif isinstance(parent, list):
        parent.insert(last, parent[last])
    else:
        parent[last] = [parent[last], parent[last]]
    return json.dumps(doc)


def run_all(text: str) -> None:
    stdin = sys.stdin
    for argv in COMMANDS:
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
        finally:
            sys.stdin = stdin
        assert code in (0, 1, 2), (argv, text)


FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@FUZZ
@given(JSON.map(json.dumps) | st.text(max_size=20))
@example("[" * 100_000)
def test_arbitrary_json(text):
    run_all(text)


@FUZZ
@given(near_miss("graph"))
def test_near_miss_graphs(text):
    run_all(text)


# closed simplex boundaries with (k+1)! full flags are refused before any
# flag is listed; listing the 8-simplex boundary's would take a minute
@settings(FUZZ, deadline=timedelta(seconds=2))
@given(near_miss("poset"))
@example(simplex_boundary_text(8))
@example(simplex_boundary_text(9))
@example(json.dumps(poset_document(edited(sphere_poset(4), add=GAP_CELL))))
@example(json.dumps(poset_document(edited(sphere_poset(4), add=THIRD_CELL))))
@example('{"top_dim": 1, "cells": 5}')
@example('{"top_dim": 0, "cells": [[["a"], 0, []]]}')
@example('{"top_dim": 1, "cells": [["a", 0, []], ["b", 0, []], ["e", 1, ["a", {"b": 1}]]]}')
@example('{"top_dim": 1, "cells": [["a", -1, []], ["b", 0, []], ["e", 1, ["a", "b"]]]}')
def test_near_miss_posets(text):
    run_all(text)


# a census that enumerates every coloring of a seed with many parallel
# edges runs for seconds per example; one coloring per orbit takes well
# under one
@settings(FUZZ, deadline=timedelta(seconds=2))
@given(near_miss("census"))
@example('{"n": 2, "vertices": 0, "edges": []}')
@example(json.dumps({"n": 9, "vertices": 2, "edges": [[0, 1]] * 10}))
def test_near_miss_census_files(text):
    run_all(text)
