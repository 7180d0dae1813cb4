"""Isotropy bookkeeping, fixed circles, and the realizability summary."""

from __future__ import annotations

import io
import json
import sys

import pytest

from skelex import graph as graph_mod
from skelex import realize as realize_mod
from skelex.cli import run
from skelex.duality import FacePoset, dual_colored_graph
from skelex.errors import ExpansionRefused
from skelex.gf2 import color_text, parse_color
from skelex.graph import serialize
from skelex.nests import NestIndex
from skelex.generators import gen_cube, gen_nonorientable_surface, gen_orientable_surface
from skelex.realize import isotropy_report, realizability_summary, render_t_vector

from conftest import edges_at, gale_facets, six_colored_k4, sphere_times_circle
from isotropy_oracle import _kernel_of_nest, fixed_circle_check


def rows(g, table, index=None):
    """(nest, kernel, corank, copies) per nest of every dimension, in nest order."""
    index = NestIndex(g) if index is None else index
    return [(nest, *table[nest.color]) for k in range(g.n + 1) for nest in index.nests(k)]


def tangent_weights(g) -> list[tuple[str, ...]]:
    """Per vertex, the sorted weights of the fixed circles through it, read
    off the isotropy table: the one nonzero color the kernel of a circle's
    edge annihilates."""
    index = NestIndex(g)
    table = isotropy_report(g, index)
    at: list[list[str]] = [[] for _ in range(g.vertex_count)]
    for nest in index.nests(1):
        kernel = table[nest.color][0]
        (weight,) = [
            x for x in range(1, 1 << g.width)
            if all(bin(x & k).count("1") % 2 == 0 for k in kernel)
        ]
        for v in nest.vertex_ids:
            at[v].append(color_text(weight, g.width))
    return [tuple(sorted(weights)) for weights in at]


class TestIsotropy:
    def test_corank_equals_dimension(self, cube2, cube3):
        for g in (cube2, cube3, gen_orientable_surface(2)):
            for nest, kernel, corank, copies in rows(g, isotropy_report(g)):
                assert corank == nest.dim
                assert len(kernel) + nest.dim == g.width
                assert copies == 1 << nest.dim
                # copies x |subgroup| = full group order
                assert copies * (1 << len(kernel)) == 1 << g.width

    def test_vertex_record_is_full_group(self, cube2):
        records = [r for r in rows(cube2, isotropy_report(cube2)) if r[0].dim == 0]
        assert len(records) == 8
        for _, kernel, _, copies in records:
            assert copies == 1
            assert len(kernel) == 3

    def test_edge_kernel(self, cube2):
        records = [r for r in rows(cube2, isotropy_report(cube2)) if r[0].dim == 1]
        for nest, kernel, _, copies in records:
            e = nest.edge_ids[0]
            color = cube2.color(e)
            assert copies == 2
            for k in kernel:
                assert bin(k & color).count("1") % 2 == 0

    def test_top_nest_cube(self, cube2):
        records = [r for r in rows(cube2, isotropy_report(cube2)) if r[0].dim == 2]
        assert len(records) == 6
        for _, kernel, _, copies in records:
            assert len(kernel) == 1
            assert copies == 4


class TestFixedCircles:
    def test_every_cube_edge(self, cube2):
        for e in range(cube2.edge_count):
            report = fixed_circle_check(cube2, e)
            assert report.ok
            assert report.arc_copies == 2
            assert report.fixed_points == cube2.ends(e)
            assert len(report.subgroup_basis) == 2

    def test_kernel_of_axis_edge(self, cube2):
        e = next(i for i in range(cube2.edge_count) if cube2.color(i) == parse_color("100"))
        report = fixed_circle_check(cube2, e)
        # kernel of x0 is spanned by t1, t2
        assert report.subgroup_basis == (0b010, 0b100)
        assert [render_t_vector(m, 3) for m in report.subgroup_basis] == ["t1", "t2"]


class TestSummary:
    def test_odd_euler_needs_doubling(self):
        summary = realizability_summary(gen_nonorientable_surface(1))
        assert summary.euler == 1
        assert summary.doubling_required
        assert not summary.bounds_directly

    def test_even_euler_bounds_directly(self):
        summary = realizability_summary(gen_orientable_surface(1))
        assert summary.euler == 0
        assert summary.bounds_directly

    def test_three_manifolds_always_bound(self, cube3):
        summary = realizability_summary(cube3)
        assert summary.bounds_directly
        assert not summary.doubling_required

    def test_moment_graph_identity(self, cube2):
        # the fixed points are the vertices, and the tangent weights at each
        # are the colors of its edges: the fixed circle over an edge has the
        # kernel of its color, whose only nonzero annihilating color it is
        summary = realizability_summary(cube2)
        assert summary.fixed_point_count == cube2.vertex_count
        assert tangent_weights(cube2) == [
            tuple(sorted(color_text(cube2.color(e), 3) for e in edges_at(cube2, v)))
            for v in range(cube2.vertex_count)
        ]

    @pytest.mark.parametrize(
        "g",
        [gen_orientable_surface(g) for g in range(1, 9)]
        + [gen_nonorientable_surface(g) for g in range(1, 9)]
        + [gen_cube(n) for n in range(2, 5)],
        ids=[f"gT2({g})" for g in range(1, 9)] + [f"kP2({g})" for g in range(1, 9)]
        + [f"cube{n}" for n in range(2, 5)],
    )
    def test_tangent_colors_are_the_colors_at_each_vertex(self, g):
        weights = tangent_weights(g)
        assert len(weights) == g.vertex_count
        for v in range(g.vertex_count):
            assert weights[v] == tuple(sorted(color_text(g.color(e), g.width) for e in edges_at(g, v)))
        if g.n <= 3:  # the expansion closes, so the summary counts the fixed points
            assert realizability_summary(g).fixed_point_count == g.vertex_count
        else:
            with pytest.raises(ExpansionRefused):
                realizability_summary(g)

    def test_refusal_propagates(self, counterexample):
        with pytest.raises(ExpansionRefused):
            realizability_summary(counterexample)


class TestSharedIndex:
    def test_table_reads_the_given_index(self, cube3):
        index = NestIndex(cube3)
        assert isotropy_report(cube3, index) == isotropy_report(cube3)
        assert realizability_summary(cube3, index) == realizability_summary(cube3)

    def test_realize_table_validates_once(self, monkeypatch, capsys):
        # the one nest index; reading the file and the goodness test do not
        calls = []
        original = graph_mod.validate
        monkeypatch.setattr(graph_mod, "validate", lambda g: calls.append(g) or original(g))
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize(gen_orientable_surface(2))))
        assert run(["realize", "--table", "--format", "json"]) == 0
        assert len(calls) == 1
        assert len(json.loads(capsys.readouterr().out)["isotropy"]) == 22 * 2 + 2


ORACLE_CORPUS = {
    **{f"cube{n}": (lambda n=n: gen_cube(n)) for n in (2, 3, 4, 5)},
    **{f"gT2({g})": (lambda g=g: gen_orientable_surface(g)) for g in range(1, 9)},
    **{f"kP2({g})": (lambda g=g: gen_nonorientable_surface(g)) for g in range(1, 9)},
    "six-colored K4": six_colored_k4,
    **{
        f"C({m},4) dual": (
            lambda m=m: dual_colored_graph(FacePoset.from_simplices(gale_facets(m)))
        )
        for m in (6, 7, 8)
    },
    "S2 x S1 dual": lambda: dual_colored_graph(sphere_times_circle()),
}


class TestKernelsPerSubspace:
    """One kernel per color subspace against the per-nest null space."""

    @pytest.mark.parametrize("name", list(ORACLE_CORPUS))
    def test_matches_per_nest_oracle(self, name):
        g = ORACLE_CORPUS[name]()
        index = NestIndex(g)
        table = isotropy_report(g, index)
        nests = [nest for k in range(g.n + 1) for nest in index.nests(k)]
        # one row per subspace, in the order of its first nest
        assert list(table) == list(dict.fromkeys(nest.color for nest in nests))
        for nest, kernel, _, _ in rows(g, table, index):
            assert kernel == _kernel_of_nest(g, nest)

    def test_k4_nests_have_more_edge_colors_than_dimensions(self):
        # each triangle of the six-colored K4 carries three distinct colors
        # a, b, a+b: the oracle reduces a dependent row the subspace basis lacks
        g = six_colored_k4()
        top = NestIndex(g).nests(2)
        assert top and all(
            len({g.color(e) for e in nest.edge_ids}) == 3 for nest in top
        )

    def test_one_null_space_per_distinct_subspace(self, monkeypatch):
        g = gen_orientable_surface(512)
        index = NestIndex(g)
        subspaces = {nest.color for k in range(g.n + 1) for nest in index.nests(k)}
        calls = []
        original = realize_mod.null_space
        monkeypatch.setattr(
            realize_mod, "null_space",
            lambda rows, width: calls.append(tuple(rows)) or original(rows, width),
        )
        table = isotropy_report(g, index)
        assert sum(len(index.nests(k)) for k in range(g.n + 1)) == 4096 + 6144 + 1026
        assert len(subspaces) == len(table) == 7
        assert sorted(calls) == sorted(space.basis for space in subspaces)

    def test_wrong_kernel_names_the_first_nest(self, monkeypatch, cube3):
        # a kernel that is wrong on lines only: the first 1-nest is named
        original = realize_mod.null_space
        monkeypatch.setattr(
            realize_mod, "null_space",
            lambda rows, width: () if len(rows) == 1 else original(rows, width),
        )
        first = NestIndex(cube3).nests(1)[0]
        with pytest.raises(AssertionError) as info:
            isotropy_report(cube3)
        assert str(info.value) == (
            f"nest {first.edge_ids}: kernel co-rank 4 differs from nest dimension 1"
        )

    def test_table_renders_each_kernel_once(self, monkeypatch, capsys):
        calls = []
        original = realize_mod.render_t_vector
        monkeypatch.setattr(
            realize_mod, "render_t_vector",
            lambda mask, width: calls.append(mask) or original(mask, width),
        )
        text = serialize(gen_orientable_surface(2))
        kernels = {kernel for kernel, _, _ in isotropy_report(graph_mod.parse(text)).values()}
        for fmt in ("text", "json"):
            calls.clear()
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert run(["realize", "--table", "--format", fmt]) == 0
            capsys.readouterr()
            assert sorted(calls) == sorted(m for basis in kernels for m in basis)
