"""Colored-graph validity, purity, goodness, connected sums, file format."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from skelex.errors import DimensionMismatch, FormatError, InvalidGraph
from skelex import graph as graph_mod
from skelex.gf2 import color_text, parse_color, span
from skelex.graph import (
    MAX_LISTED_PROBLEMS,
    ColoredGraph,
    canonicalize,
    parse,
    read_graph,
    serialize,
    validate,
)
from skelex.generators import gen_cube, gen_nonorientable_surface, gen_orientable_surface
from skelex.nests import NestIndex, nest_label

from conftest import CUBE_EDGES, edges_at, other_end, random_valid_coloring
from goodness_oracle import check_good, congruent_mod, connection, is_good
from graph_helpers import color_isomorphic, connected_sum, is_pure


def cv(text):
    return parse_color(text)


class TestValidate:
    def test_cube_is_valid(self, cube2):
        assert validate(cube2).ok

    def test_k4_projective_plane_is_valid(self):
        assert validate(gen_nonorientable_surface(1)).ok

    def test_repeated_color_at_vertex(self):
        g = ColoredGraph(
            2,
            4,
            (
                (0, 1, cv("100")),
                (0, 2, cv("100")),
                (0, 3, cv("010")),
                (1, 2, cv("010")),
                (1, 3, cv("001")),
                (2, 3, cv("001")),
            ),
        )
        report = validate(g)
        assert not report.ok
        assert any("dependent" in p for p in report.problems)

    def test_loop_rejected(self):
        g = ColoredGraph(2, 2, ((0, 0, cv("100")), (0, 1, cv("010")), (0, 1, cv("001")), (1, 1, cv("100"))))
        report = validate(g)
        assert not report.ok
        assert any("loop" in p for p in report.problems)

    def test_disconnected_rejected(self):
        half = gen_nonorientable_surface(1)
        doubled = ColoredGraph(
            2,
            8,
            half.edges + tuple((u + 4, v + 4, c) for u, v, c in half.edges),
        )
        report = validate(doubled)
        assert not report.ok
        assert any("connected" in p for p in report.problems)

    def test_wrong_valence(self):
        g = ColoredGraph(2, 2, ((0, 1, cv("100")), (0, 1, cv("010"))))
        assert not validate(g).ok

    def test_edge_count_mismatch_is_one_problem(self):
        # a huge declared vertex count is refused before any per-vertex work
        report = validate(ColoredGraph(2, 3_000_000, ()))
        assert not report.ok
        assert len(report.problems) == 1
        assert "0 edges" in report.problems[0]
        assert "9000000" in report.problems[0]

    def test_problem_list_is_capped(self):
        # genus 500 has 4,000 vertices; one color on every edge makes each
        # vertex's colors dependent, and zero on every edge makes 6,000 bad edges
        g = gen_orientable_surface(500)
        for color, bad, first in [
            (cv("100"), 4000, "vertex 0: incident colors ['100', '100', '100'] are linearly dependent"),
            (cv("000"), 6000, "edge 0: zero color"),
        ]:
            report = validate(ColoredGraph(2, g.vertex_count, tuple((u, v, color) for u, v, _ in g.edges)))
            assert not report.ok
            assert len(report.problems) == MAX_LISTED_PROBLEMS + 1
            assert report.problems[0] == first
            assert report.problems[-1] == f"and {bad - MAX_LISTED_PROBLEMS} more problems"


class TestPurity:
    def test_cube_is_pure(self, cube2):
        assert is_pure(cube2)

    def test_families_are_pure(self):
        assert is_pure(gen_orientable_surface(2))
        assert is_pure(gen_nonorientable_surface(2))

    def test_mixed_color_not_pure(self, nongood):
        assert not is_pure(nongood)

    def test_invalid_graph_rejected(self):
        g = ColoredGraph(2, 2, ((0, 1, cv("100")), (0, 1, cv("010"))))
        with pytest.raises(InvalidGraph):
            is_pure(g)


def _definitional_goodness(g: ColoredGraph):
    """Independent oracle: the unique-partner condition checked span-by-span."""
    for e1, (u1, v1, c1) in enumerate(g.edges):
        for tail, head in ((u1, v1), (v1, u1)):
            for e0 in edges_at(g, tail):
                target = span([g.color(e0), c1], g.width)
                count = sum(
                    1
                    for e2 in edges_at(g, head)
                    if span([c1, g.color(e2)], g.width) == target
                )
                if count != 1:
                    return False
    return True


class TestGoodness:
    def test_pure_graphs_are_good(self, cube2):
        assert is_good(cube2)
        assert is_good(gen_orientable_surface(1))
        assert is_good(gen_nonorientable_surface(1))

    def test_frozen_nongood_example(self, nongood):
        assert validate(nongood).ok
        report = check_good(nongood)
        assert not report.good
        assert report.witness is not None
        assert not _definitional_goodness(nongood)

    def test_matches_definition_on_random_colorings(self):
        rng = random.Random(20260810)
        for _ in range(40):
            g = random_valid_coloring(CUBE_EDGES, 8, 3, rng)
            assert g is not None
            assert is_good(g) == _definitional_goodness(g)

    def test_connection_congruence(self, cube2):
        for g in (cube2, gen_nonorientable_surface(1)):
            theta = connection(g)
            for e1, (u1, v1, c1) in enumerate(g.edges):
                for tail in (u1, v1):
                    table = theta.across(e1, tail)
                    assert table[e1] == e1
                    assert sorted(table.keys()) == sorted(edges_at(g, tail))
                    head = other_end(g, e1, tail)
                    assert sorted(table.values()) == sorted(edges_at(g, head))
                    for e0, e2 in table.items():
                        assert congruent_mod(g.color(e0), g.color(e2), c1)


class TestConnectedSum:
    @staticmethod
    def _edge_with_color(g, text):
        return next(i for i in range(g.edge_count) if color_text(g.color(i), g.width) == text)

    def test_torus_sum_counts(self):
        a, b = gen_orientable_surface(1), gen_orientable_surface(1)
        s = connected_sum(a, self._edge_with_color(a, "100"), b, self._edge_with_color(b, "100"))
        assert (s.vertex_count, s.edge_count) == (16, 24)
        assert validate(s).ok and is_pure(s) and is_good(s)

    def test_projective_sum_counts(self):
        a, b = gen_nonorientable_surface(1), gen_nonorientable_surface(1)
        s = connected_sum(a, self._edge_with_color(a, "100"), b, self._edge_with_color(b, "100"))
        assert (s.vertex_count, s.edge_count) == (8, 12)
        assert NestIndex(s).counts()[2] == 4

    def test_crossed_pattern_also_valid(self):
        a, b = gen_orientable_surface(1), gen_orientable_surface(1)
        s = connected_sum(
            a, self._edge_with_color(a, "100"),
            b, self._edge_with_color(b, "100"),
            crossing="crossed",
        )
        assert validate(s).ok

    def test_same_instance_rejected(self):
        a = gen_orientable_surface(1)
        with pytest.raises(ValueError):
            connected_sum(a, 0, a, 0)

    def test_color_mismatch_rejected(self):
        a, b = gen_orientable_surface(1), gen_orientable_surface(1)
        e_a = self._edge_with_color(a, "100")
        e_b = self._edge_with_color(b, "010")
        with pytest.raises(ValueError):
            connected_sum(a, e_a, b, e_b)

    def test_n_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            connected_sum(gen_cube(2), 0, gen_cube(3), 0)


class TestFileFormat:
    def test_roundtrip_is_canonical(self, cube2):
        text = serialize(cube2)
        again = parse(text)
        assert again == canonicalize(cube2)
        assert serialize(again) == text

    def test_parallel_edges_sort_by_color_string(self):
        # x0 is "100" and x2 is "001", so the string order is the reverse of
        # the mask order
        g = ColoredGraph(2, 2, ((1, 0, cv("100")), (0, 1, cv("001")), (0, 1, cv("010"))))
        edges = [[0, 1, "001"], [0, 1, "010"], [0, 1, "100"]]
        assert json.loads(serialize(g)) == {"n": 2, "vertices": 2, "edges": edges}

    @given(
        ends=st.lists(st.tuples(st.integers(-3, 9), st.integers(-3, 9)), max_size=30),
        data=st.data(),
    )
    def test_canonical_order_is_ends_then_color_string(self, ends, data):
        # the reference sorts (min end, max end, color string) tuples; the
        # sort is stable, so copies of one edge keep their relative order
        colors = data.draw(st.lists(
            st.integers(1, 7),
            min_size=len(ends), max_size=len(ends),
        ))
        g = ColoredGraph(2, 10, tuple((u, v, c) for (u, v), c in zip(ends, colors)))
        expected = sorted(
            ((min(u, v), max(u, v), c) for u, v, c in g.edges),
            key=lambda e: (e[0], e[1], color_text(e[2], 3)),
        )
        assert canonicalize(g).edges == tuple(expected)

    def test_k4_golden_file(self):
        golden = serialize(gen_nonorientable_surface(1))
        g = parse(golden)
        assert (g.vertex_count, g.edge_count) == (4, 6)
        expected = {
            (0, 1): "001",
            (0, 2): "100",
            (0, 3): "010",
            (1, 2): "010",
            (1, 3): "100",
            (2, 3): "001",
        }
        assert {(u, v): color_text(c, g.width) for u, v, c in g.edges} == expected

    def test_wrong_color_length(self):
        with pytest.raises(FormatError):
            parse('{"n": 2, "vertices": 2, "edges": [[0, 1, "1000"]]}')

    def test_not_json(self):
        with pytest.raises(FormatError):
            parse("this is not json")

    def test_missing_field(self):
        with pytest.raises(FormatError):
            parse('{"n": 2, "edges": []}')

    def test_invalid_graph_raises(self):
        text = '{"n": 2, "vertices": 2, "edges": [[0, 1, "100"], [0, 1, "100"], [0, 1, "010"], [0, 1, "001"]]}'
        with pytest.raises(InvalidGraph):
            parse(text)


class TestReadGraphColors:
    """Each distinct color string is parsed once, diagnostics unchanged."""

    @staticmethod
    def document(colors) -> str:
        edges = [[i, i + 1, c] for i, c in enumerate(colors)]
        return json.dumps({"n": 2, "vertices": len(colors) + 1, "edges": edges})

    def test_repeated_bad_string_named_at_its_first_edge(self):
        colors = ["100", "010", "100", "1x0", "001", "010", "100", "1x0"]
        with pytest.raises(FormatError) as info:
            read_graph(self.document(colors))
        assert str(info.value) == (
            "edges[3]: color literal must be a nonempty 0/1 string, got '1x0'"
        )

    def test_wrong_width_named_at_its_first_edge(self):
        colors = ["100", "010", "001", "100", "1000", "010", "1000"]
        with pytest.raises(FormatError) as info:
            read_graph(self.document(colors))
        assert str(info.value) == "edges[4]: color string length 4, expected n+1 = 3"

    def test_one_parse_per_distinct_string(self, monkeypatch):
        text = serialize(gen_orientable_surface(8))
        strings = [c for _, _, c in json.loads(text)["edges"]]
        calls = []
        original = parse_color
        monkeypatch.setattr(graph_mod, "parse_color", lambda s: calls.append(s) or original(s))
        g = read_graph(text)
        assert len(strings) == g.edge_count == 96
        assert sorted(calls) == sorted(set(strings))
        assert [color_text(c, g.width) for _, _, c in g.edges] == strings


class TestIsomorphism:
    def test_cube_self(self, cube2):
        assert color_isomorphic(cube2, cube2)

    def test_relabelled_cube(self, cube2):
        relabel = [3, 5, 0, 7, 2, 1, 6, 4]
        edges = tuple((relabel[u], relabel[v], c) for u, v, c in cube2.edges)
        assert color_isomorphic(cube2, ColoredGraph(2, 8, edges))

    def test_different_colorings_distinguished(self, cube2, nongood):
        assert not color_isomorphic(cube2, nongood)


class TestIsomorphismAtScale:
    """Propagation from vertex 0's image: no recursion per vertex."""

    @pytest.fixture(scope="class")
    def genus200(self):
        return gen_orientable_surface(200)

    def relabelled(self, g, seed):
        perm = list(range(g.vertex_count))
        random.Random(seed).shuffle(perm)
        return ColoredGraph(g.n, g.vertex_count, tuple(
            (perm[u], perm[v], c) for u, v, c in g.edges
        ))

    def test_relabelled_copy(self, genus200):
        assert genus200.vertex_count == 1600
        assert color_isomorphic(genus200, self.relabelled(genus200, 7))

    def test_recoloured_copy(self, genus200):
        # swap the colors x0 and x1 everywhere: the {x0, x2} and {x1, x2}
        # circles trade places, and their counts differ, so no
        # color-preserving bijection exists
        swap = {cv("100"): cv("010"), cv("010"): cv("100")}
        recoloured = ColoredGraph(genus200.n, genus200.vertex_count, tuple(
            (u, v, swap.get(c, c)) for u, v, c in self.relabelled(genus200, 7).edges
        ))
        labels = Counter(nest_label(n) for n in NestIndex(genus200).nests(2))
        assert labels["x0·x2"] != labels["x1·x2"]
        assert not color_isomorphic(genus200, recoloured)

    def test_invalid_graph_rejected(self, cube2):
        broken = ColoredGraph(2, 8, cube2.edges[:-1] + ((0, 0, cv("100")),))
        with pytest.raises(InvalidGraph):
            color_isomorphic(cube2, broken)
