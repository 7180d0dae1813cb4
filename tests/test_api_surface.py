"""The package surface: ``skelex.__all__`` and what left it.

A change that adds or removes a public name updates ``PUBLIC`` here and
records the change in CHANGES.md.  Reference code that only tests call
lives in the ``tests/*_oracle.py`` modules, not in the package.
"""

from __future__ import annotations

import importlib

import pytest

import skelex

PUBLIC = [
    "CellComplex",
    "CensusLimit",
    "ColorVector",
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
    "color_isomorphic",
    "connected_sum",
    "criterion_3d",
    "dual_colored_graph",
    "expand2",
    "full_expand",
    "gen_cube",
    "gen_nonorientable_surface",
    "gen_orientable_surface",
    "homology_mod2",
    "intersect",
    "is_pure",
    "isotropy_report",
    "manifold_local_check",
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
]


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


def test_nest_contains_stays_for_the_benchmark_tracer():
    # perfbench/tracing.py patches Nest.contains without a guard
    assert callable(skelex.Nest.contains)
