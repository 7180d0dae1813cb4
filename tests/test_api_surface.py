"""The package surface: ``skelex.__all__`` and what left it.

A change that adds or removes a public name updates ``PUBLIC`` here and
records the change in CHANGES.md.  Reference code that only tests call
lives in the ``tests/*_oracle.py`` modules and ``tests/graph_helpers.py``,
not in the package: every public name is used by the package itself, or
is one of the few ``ENTRY_POINTS`` that only README and tests call.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import skelex
from skelex.census import census
from skelex.graph import canonicalize

from conftest import CUBE_EDGES, K4_EDGES

PUBLIC = [
    "CellComplex",
    "CensusLimit",
    "ColoredGraph",
    "DimensionMismatch",
    "ExpansionOutcome",
    "ExpansionRefused",
    "FacePoset",
    "FlagLimit",
    "FormatError",
    "GeneratorLimit",
    "HomologyReport",
    "InvalidGraph",
    "IsotropyRecord",
    "Nest",
    "NestIndex",
    "NestLimit",
    "NotCombinatorialManifold",
    "NotGoodColoring",
    "SkelexError",
    "Subspace",
    "SurfaceReport",
    "UnsupportedDimension",
    "classify_surface",
    "criterion_3d",
    "dual_colored_graph",
    "expand2",
    "full_expand",
    "gen_cube",
    "gen_nonorientable_surface",
    "gen_orientable_surface",
    "homology_mod2",
    "intersect",
    "isotropy_report",
    "nest_label",
    "parse",
    "parse_poset",
    "predicted_complex",
    "rank_masks",
    "read_graph",
    "realizability_summary",
    "serialize",
    "span",
    "sphere_poset",
    "validate",
]

# (module, owner class or None, attribute): moved to a tests/ oracle or deleted
GONE = [
    ("graph", None, "check_good"),
    ("graph", None, "GoodnessReport"),
    ("graph", None, "Connection"),
    ("graph", None, "connection"),
    ("graph", None, "is_good"),
    ("gf2", None, "congruent_mod"),
    ("gf2", None, "rank_gf2"),
    ("gf2", None, "contains"),
    ("errors", None, "InvalidModulus"),
    ("nests", None, "regularity_check"),
    ("nests", None, "RegularityReport"),
    ("realize", None, "fixed_circle_check"),
    ("realize", None, "FixedCircleReport"),
    ("expansion", "CellComplex", "boundary_matrix"),
    ("graph", "ColoredGraph", "_incidence"),
    ("graph", "ColoredGraph", "edges_at"),
    ("graph", "ColoredGraph", "neighbors"),
    ("graph", "ColoredGraph", "other_end"),
    ("graph", "ColoredGraph", "is_connected"),
    ("graph", None, "is_pure"),
    ("graph", None, "connected_sum"),
    ("graph", None, "color_isomorphic"),
    ("graph", None, "_color_stars"),
    ("graph", None, "_propagate"),
    ("graph", None, "cycle_fault"),
    ("graph", "ColoredGraph", "color_image"),
    ("classify", None, "manifold_local_check"),
    ("classify", None, "LocalCheckReport"),
    ("duality", None, "_link_graph"),
    ("duality", "FacePoset", "cell_count"),
    ("gf2", None, "ColorVector"),
    ("gf2", "Subspace", "vectors"),
    ("expansion", None, "Cell"),
    ("expansion", "CellComplex", "cells_by_dim"),
]

# public names that no module of the package uses, each with its reason
ENTRY_POINTS = {
    "parse": "README's reader of a graph file with the validity gate",
    "predicted_complex": "the flag census the north star checks against NestIndex.counts",
    "sphere_poset": "README's Python example dualizes it",
}


def test_all_is_the_written_list():
    assert sorted(skelex.__all__) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_imports(name):
    assert getattr(skelex, name) is not None


@pytest.mark.parametrize("module, owner, name", GONE)
def test_moved_and_deleted_names_are_gone(module, owner, name):
    home = importlib.import_module(f"skelex.{module}")
    if owner is not None:
        home = getattr(home, owner)
    assert not hasattr(home, name)
    assert not hasattr(skelex, name)


def _names_used_in_package() -> set[str]:
    """Every name and attribute read anywhere in ``skelex`` outside ``__init__``."""
    used: set[str] = set()
    for path in Path(skelex.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_is_used_by_the_package():
    # a name only tests call belongs in a tests/ module
    unused = set(skelex.__all__) - _names_used_in_package()
    assert unused == set(ENTRY_POINTS)


def test_nest_contains_stays_for_the_benchmark_tracer():
    # perfbench/tracing.py patches Nest.contains without a guard
    assert callable(skelex.Nest.contains)


def test_only_validation_and_the_census_build_arcs():
    # a NestIndex keeps the arcs its graph's validation built, and every
    # walk and valence count reads those; the census validates only the
    # classes that close, through the NestIndex their expansion builds, so
    # it builds the arcs for the labellings it lacks
    callers = set()
    for path in Path(skelex.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "arcs"
            ):
                callers.add(path.name)
    assert callers == {"graph.py", "census.py"}


def test_every_edge_producer_yields_int_rows():
    # an edge is a (u, v, mask) row of exact ints; the width is the graph's
    graphs = [
        skelex.read_graph(skelex.serialize(skelex.gen_cube(2))),
        canonicalize(skelex.ColoredGraph(2, 2, ((1, 0, 1), (0, 1, 4), (0, 1, 2)))),
        skelex.gen_cube(3),
        skelex.gen_orientable_surface(2),
        skelex.gen_nonorientable_surface(3),
        skelex.dual_colored_graph(skelex.sphere_poset(2)),
        *(entry.graph for entry in census(K4_EDGES, 4, 2)),
        *(entry.graph for entry in census(CUBE_EDGES, 8, 2)),
    ]
    for g in graphs:
        assert g.edges
        assert {len(edge) for edge in g.edges} == {3}
        assert {type(x) for edge in g.edges for x in edge} == {int}
