"""Graph families: counts, colors, and reproduction of the circle tables."""

from __future__ import annotations

import pytest

from skelex import generators as generators_mod
from skelex.gf2 import color_text, span
from skelex.graph import validate
from skelex.generators import (
    CycleTable,
    cycle_table_nonorientable,
    cycle_table_orientable,
    gen_cube,
    gen_nonorientable_surface,
    gen_orientable_surface,
    graph_from_cycle_table,
)
from skelex.nests import NestIndex

from goodness_oracle import is_good
from graph_helpers import is_pure


class TestCube:
    def test_small_counts(self):
        g = gen_cube(2)
        assert (g.vertex_count, g.edge_count) == (8, 12)
        h = gen_cube(3)
        assert (h.vertex_count, h.edge_count) == (16, 32)

    def test_n1_is_alternating_square(self):
        g = gen_cube(1)
        assert (g.vertex_count, g.edge_count) == (4, 4)
        colors = sorted(color_text(c, g.width) for _, _, c in g.edges)
        assert colors == ["01", "01", "10", "10"]
        assert validate(g).ok

    def test_all_pure_and_good(self):
        for n in (1, 2, 3):
            g = gen_cube(n)
            assert validate(g).ok
            assert is_pure(g)
            assert is_good(g)

    def test_axis_coloring(self):
        g = gen_cube(2)
        for u, v, c in g.edges:
            axis = (u ^ v).bit_length() - 1
            assert u ^ v == 1 << axis
            assert c == 1 << axis


class TestOrientableFamily:
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
    def test_counts(self, g):
        graph = gen_orientable_surface(g)
        assert (graph.vertex_count, graph.edge_count) == (8 * g, 12 * g)
        assert validate(graph).ok
        assert is_pure(graph)
        assert is_good(graph)

    def test_cycle_lengths_double_count(self):
        for g in (1, 2, 5):
            table = cycle_table_orientable(g)
            assert table.total_length() == 24 * g == 2 * 12 * g

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_two_nests_reproduce_table(self, g):
        graph = gen_orientable_surface(g)
        table = cycle_table_orientable(g)
        expected = set()
        for _, cycle in table.entries:
            pairs = frozenset(
                tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)])))
                for i in range(len(cycle))
            )
            expected.add(pairs)
        found = set()
        for nest in NestIndex(graph).nests(2):
            found.add(
                frozenset(tuple(sorted(graph.ends(e))) for e in nest.edge_ids)
            )
        assert found == expected


class TestNonorientableFamily:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_counts(self, k):
        graph = gen_nonorientable_surface(k)
        assert (graph.vertex_count, graph.edge_count) == (4 * k, 6 * k)
        assert validate(graph).ok
        assert is_pure(graph)
        assert is_good(graph)

    def test_k1_is_complete_graph_with_forced_colors(self):
        g = gen_nonorientable_surface(1)
        edges = {(u, v): color_text(c, g.width) for u, v, c in g.edges}
        assert edges == {
            (0, 1): "001",
            (0, 2): "100",
            (0, 3): "010",
            (1, 2): "010",
            (1, 3): "100",
            (2, 3): "001",
        }

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_two_nests_reproduce_table(self, k):
        graph = gen_nonorientable_surface(k)
        table = cycle_table_nonorientable(k)
        expected = set()
        for _, cycle in table.entries:
            pairs = frozenset(
                tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)])))
                for i in range(len(cycle))
            )
            expected.add(pairs)
        found = set()
        for nest in NestIndex(graph).nests(2):
            found.add(
                frozenset(tuple(sorted(graph.ends(e))) for e in nest.edge_ids)
            )
        assert found == expected


class TestReconstruction:
    def test_pair_seen_once_fails(self):
        plane01 = span([1 << 0, 1 << 1], 3)
        table = CycleTable(((plane01, (0, 1, 2, 3)),))
        with pytest.raises(AssertionError):
            graph_from_cycle_table(2, 4, table)

    def test_bad_genus_rejected(self):
        with pytest.raises(ValueError):
            gen_orientable_surface(0)
        with pytest.raises(ValueError):
            gen_nonorientable_surface(-1)
        with pytest.raises(ValueError):
            gen_cube(0)


def _circle_color_pairs(table: CycleTable) -> set:
    """The distinct (circle color, circle color) pairs over the table's edges."""
    hits: dict = {}
    for color, cycle in table.entries:
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            hits.setdefault((min(u, v), max(u, v)), []).append(color)
    return {tuple(colors) for colors in hits.values()}


class TestOneIntersectionPerColorPair:
    @pytest.mark.parametrize(
        "table",
        [cycle_table_orientable(16), cycle_table_nonorientable(16)],
        ids=["gT2(16)", "kP2(16)"],
    )
    def test_intersect_once_per_distinct_pair(self, monkeypatch, table):
        calls = []
        original = generators_mod.intersect
        monkeypatch.setattr(
            generators_mod, "intersect",
            lambda a, b: calls.append((a, b)) or original(a, b),
        )
        vertices = 1 + max(v for _, cycle in table.entries for v in cycle)
        g = graph_from_cycle_table(2, vertices, table)
        assert g.edge_count == table.total_length() // 2
        assert sorted(calls, key=str) == sorted(_circle_color_pairs(table), key=str)

    def test_plane_intersection_named_at_first_pair(self):
        # the long x0x2 circle of kP2(2) recolored x0x1: it then meets the
        # x0x1 circle in a plane, first at pair (0, 6), then at (1, 3),
        # (2, 4) and (5, 7)
        table = cycle_table_nonorientable(2)
        plane01 = span([1 << 0, 1 << 1], 3)
        entries = list(table.entries)
        entries[1] = (plane01, entries[1][1])
        with pytest.raises(AssertionError) as info:
            graph_from_cycle_table(2, 8, CycleTable(tuple(entries)))
        assert str(info.value) == "circle colors at pair (0, 6) intersect in dim 2"
