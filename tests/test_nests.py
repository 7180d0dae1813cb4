"""Nest growth, enumeration, counts, labels, regularity, face relation."""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest

from skelex.duality import FacePoset, dual_colored_graph
from skelex.errors import UnsupportedDimension
from skelex.expansion import full_expand
from skelex.gf2 import Subspace, span
from skelex.generators import (
    gen_cube,
    gen_nonorientable_surface,
    gen_orientable_surface,
)
from skelex.graph import ColoredGraph
from skelex.nests import ColorComponents, NestIndex, nest_label

from conftest import CUBE_EDGES, edges_at, gale_facets, random_valid_coloring, six_colored_k4
from goodness_oracle import is_good
from nest_oracle import grow_nest, regularity_check


class TestGrowNest:
    def test_zero_nest_is_the_vertex(self, cube2):
        nest = grow_nest(cube2, (), vertex=3)
        assert nest.dim == 0
        assert nest.vertex_ids == (3,)
        assert nest.edge_ids == ()

    def test_full_span_grows_whole_graph(self, cube2):
        seeds = edges_at(cube2, 0)
        nest = grow_nest(cube2, seeds)
        assert nest.dim == 3
        assert len(nest.vertex_ids) == cube2.vertex_count
        assert len(nest.edge_ids) == cube2.edge_count

    def test_cube_corner_grows_square(self, cube2):
        # seeds: the x0 and x1 edges at vertex 0; the nest is the 4-cycle
        # around the corresponding square face
        at0 = edges_at(cube2, 0)
        seeds = [e for e in at0 if str(cube2.color(e)) in ("100", "010")]
        nest = grow_nest(cube2, seeds)
        assert nest.dim == 2
        assert nest.vertex_ids == (0, 1, 2, 3)
        assert len(nest.edge_ids) == 4

    def test_disjoint_seeds_rejected(self, cube2):
        # opposite edges of the cube share no vertex
        e1 = next(e for e in range(cube2.edge_count) if cube2.ends(e) == (0, 1))
        e2 = next(e for e in range(cube2.edge_count) if cube2.ends(e) == (6, 7))
        with pytest.raises(ValueError):
            grow_nest(cube2, (e1, e2))

    def test_empty_seed_needs_vertex(self, cube2):
        with pytest.raises(ValueError):
            grow_nest(cube2, ())

    def test_duplicate_seeds_rejected(self, cube2):
        with pytest.raises(ValueError):
            grow_nest(cube2, (0, 0))


class TestEnumerate:
    def test_cube_two_nests(self, cube2):
        # the 3-cube has C(3,2) * 2 = 6 square faces
        assert len(NestIndex(cube2).nests(2)) == 6

    def test_orientable_family_counts(self):
        for g in (1, 2, 3):
            graph = gen_orientable_surface(g)
            assert len(NestIndex(graph).nests(2)) == 2 * g + 2

    def test_nonorientable_family_counts(self):
        for k in (1, 2, 3):
            graph = gen_nonorientable_surface(k)
            assert len(NestIndex(graph).nests(2)) == k + 2

    def test_out_of_range(self, cube2):
        with pytest.raises(UnsupportedDimension):
            NestIndex(cube2).nests(3)
        with pytest.raises(UnsupportedDimension):
            NestIndex(cube2).nests(-1)

    def test_hypercube_counts(self, cube3):
        # faces of the 4-cube: C(4,k) * 2^(4-k)
        expected = tuple(comb(4, k) * 2 ** (4 - k) for k in range(4))
        assert NestIndex(cube3).counts() == expected == (16, 32, 24, 8)

    @pytest.mark.parametrize(
        "graph_factory",
        [lambda: gen_cube(3), lambda: gen_orientable_surface(2),
         lambda: gen_nonorientable_surface(3)],
    )
    def test_span_exactness(self, graph_factory):
        g = graph_factory()
        for k in range(g.n + 1):
            for nest in NestIndex(g).nests(k):
                colors = [g.color(e) for e in nest.edge_ids]
                assert span(colors, width=g.width).dim == k == nest.dim

    @pytest.mark.parametrize(
        "graph_factory",
        [lambda: gen_cube(3), lambda: gen_orientable_surface(2),
         lambda: gen_nonorientable_surface(3)],
    )
    def test_seed_subset_uniqueness(self, graph_factory):
        # every k-subset of edges at every vertex lies in exactly one k-nest
        g = graph_factory()
        for k in range(1, g.n + 1):
            nests = NestIndex(g).nests(k)
            for v in range(g.vertex_count):
                star = edges_at(g, v)
                through = [n for n in nests if v in n.vertex_ids]
                assert len(through) == comb(g.width, k)
                for seeds in combinations(star, k):
                    holders = [
                        n for n in through if set(seeds) <= set(n.edge_ids)
                    ]
                    assert len(holders) == 1


class TestLabels:
    def test_single_color(self, cube2):
        nest = next(
            n for n in NestIndex(cube2).nests(1)
            if str(cube2.color(n.edge_ids[0])) == "001"
        )
        assert nest_label(nest) == "x2"

    def test_canonicalized_label(self):
        from skelex.gf2 import ColorVector
        from skelex.nests import Nest

        color = span([ColorVector.from_string("100"), ColorVector.from_string("110")])
        nest = Nest((0, 1), (0, 1, 2), color)
        assert nest_label(nest) == "x0·x1"

    def test_three_nest_label(self, cube3):
        labels = {nest_label(n) for n in NestIndex(cube3).nests(3)}
        assert labels == {"x0·x1·x2", "x0·x1·x3", "x0·x2·x3", "x1·x2·x3"}


class TestRegularity:
    def test_pure_graphs_pass(self, cube2, cube3):
        assert regularity_check(cube2).ok
        assert regularity_check(cube3).ok

    def test_nongood_fails_on_a_two_nest(self, nongood):
        report = regularity_check(nongood)
        assert not report.ok
        assert any(dim == 2 for dim, _, _, _ in report.failures)

    def test_equivalence_with_goodness(self):
        rng = random.Random(99173)
        seen_nongood = False
        for _ in range(30):
            g = random_valid_coloring(CUBE_EDGES, 8, 3, rng)
            good = is_good(g)
            seen_nongood |= not good
            assert good == regularity_check(g).ok
            # given validity, the 2-nests alone decide goodness
            assert good == (next(NestIndex(g).valence_faults(2), None) is None)
        assert seen_nongood, "corpus never hit a non-good coloring"

    def test_growth_independent_of_seed_choice(self, nongood):
        # regrowing a nest from any of its own vertex-local edge subsets
        # returns the same nest, even on a non-good coloring
        for nest in NestIndex(nongood).nests(2):
            edge_set = set(nest.edge_ids)
            for v in nest.vertex_ids:
                local = [e for e in edges_at(nongood, v) if e in edge_set]
                for seeds in combinations(local, 2):
                    colors = [nongood.color(e) for e in seeds]
                    if span(colors).dim != 2:
                        continue
                    regrown = grow_nest(nongood, seeds)
                    if regrown.color == nest.color:
                        assert regrown.edge_ids == nest.edge_ids


class TestFaceRelation:
    def test_faces_mirror_inclusion(self, cube2):
        index = NestIndex(cube2)
        for k in range(1, 3):
            for nest in index.nests(k):
                listed = set(index.within(nest, k - 1))
                for j, lower in enumerate(index.nests(k - 1)):
                    expected = nest.contains(lower)
                    assert (j in listed) == expected
                    if expected and k >= 1:
                        assert lower.color <= nest.color

    def test_square_has_four_edges_four_vertices(self, cube2):
        index = NestIndex(cube2)
        for nest in index.nests(2):
            assert len(index.within(nest, 1)) == 4
            assert len(index.within(nest, 0)) == 4

    def test_containment_is_decided_once_per_nest_subspace(self, monkeypatch):
        # every 3-cell reads its faces through within(nest, 2), when the
        # complex's 3-face lists are first asked for; which 2-layers lie in
        # a 3-nest depends only on the nest's subspace, so it is asked once
        # per distinct subspace (24 times here, where asking per (layer,
        # 3-nest) pair made 1,440)
        g = dual_colored_graph(FacePoset.from_simplices(gale_facets(12)))
        index = NestIndex(g)
        bound = len({nest.color for nest in index.nests(3)}) * len(index.layers(2))
        asked = []
        real = Subspace.__le__
        monkeypatch.setattr(Subspace, "__le__", lambda a, b: asked.append(b) or real(a, b))
        outcome = full_expand(g, index)
        assert outcome.completed
        assert len(outcome.complex.faces(3)) == len(index.nests(3))
        assert 0 < len(asked) <= bound == 24


class TestReadOffTheGraph:
    """The 0- and 1-nests are the vertices and edges, with no component walk."""

    @pytest.mark.parametrize("make", [
        lambda: gen_orientable_surface(3), lambda: gen_cube(3), six_colored_k4,
    ], ids=["gT2(3)", "cube3", "six-colored K4"])
    def test_no_walk_and_no_arcs(self, make, monkeypatch):
        g = make()
        calls = {"label": 0, "arcs": 0}
        walked_on = set()  # ids of the arcs the walks were given
        real_label, real_arcs = ColorComponents.label, ColoredGraph.arcs

        def label(self, v, arcs):
            calls["label"] += 1
            walked_on.add(id(arcs))
            return real_label(self, v, arcs)

        def arcs(self):
            calls["arcs"] += 1
            return real_arcs(self)

        monkeypatch.setattr(ColorComponents, "label", label)
        monkeypatch.setattr(ColoredGraph, "arcs", arcs)
        index = NestIndex(g)  # validation builds arcs once, and the index keeps them
        assert calls == {"label": 0, "arcs": 1}
        assert len(index.nests(0)) == g.vertex_count
        assert len(index.nests(1)) == g.edge_count
        assert calls == {"label": 0, "arcs": 1}
        assert index.layers(0) == index.layers(1) == ()
        index.nests(2)  # the walk starts at k = 2, on the kept arcs
        list(index.valence_faults(2))  # and the valence count reads them too
        assert calls["label"] > 0 and calls["arcs"] == 1
        assert walked_on == {id(index.arcs)}
