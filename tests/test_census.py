"""The census against its slow oracle, and the 4-cube census."""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelex import census as census_mod
from skelex import expansion
from skelex import graph as graph_mod
from skelex import nests as nests_mod
from skelex.census import census, class_criterion, enumerate_proper_colorings
from skelex.classify import classify_surface
from skelex.generators import gen_cube
from skelex.gf2 import Subspace, span
from skelex.graph import validate
from skelex.nests import ColorComponents, NestIndex

from census_oracle import all_proper_colorings, canonical_coloring, reference_census
from conftest import CUBE_EDGES, K4_EDGES, colored_from_indices
from goodness_oracle import is_good


def _prism(rungs: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(rungs):
        j = (i + 1) % rungs
        edges += [(i, j), (rungs + i, rungs + j), (i, rungs + i)]
    return edges


_PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)

# name -> (edges, vertex count, n)
GRAPHS = {
    "K4": (K4_EDGES, 4, 2),
    "3-cube": (CUBE_EDGES, 8, 2),
    "K3,3": ([(i, 3 + j) for i in range(3) for j in range(3)], 6, 2),
    **{f"prism{r}": (_prism(r), 2 * r, 2) for r in range(3, 9)},
    "Petersen": (_PETERSEN, 10, 2),
    "theta4": ([(0, 1)] * 4, 2, 3),
    "doubled C4": ([(i, (i + 1) % 4) for i in range(4)] * 2, 4, 3),
    # 24 classes, 6 closing with betti_mod2 (1, 1, 1, 1)
    "K4,4": ([(i, 4 + j) for i in range(4) for j in range(4)], 8, 3),
    "K5": (list(itertools.combinations(range(5), 2)), 5, 3),  # no class
    "K6": (list(itertools.combinations(range(6), 2)), 6, 4),  # 6 classes, all refused
}


def _observed(entries) -> list[tuple]:
    return [(e.coloring, e.refusal, e.report) for e in entries]


def _first_occurrence(coloring) -> tuple[int, ...]:
    names: dict[int, int] = {}
    return tuple(names.setdefault(c, len(names)) for c in coloring)


class TestAgainstOracle:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_same_classes_refusals_and_reports(self, name):
        edges, vertices, n = GRAPHS[name]
        entries = census(edges, vertices, n)
        assert _observed(entries) == reference_census(edges, vertices, n)
        for e in entries:
            assert e.graph == colored_from_indices(edges, vertices, n, e.coloring)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_enumerator_yields_each_orbit_once_in_order(self, name):
        edges, vertices, n = GRAPHS[name]
        reps = {canonical_coloring(c, n + 1) for c in all_proper_colorings(edges, vertices, n + 1)}
        assert list(enumerate_proper_colorings(edges, vertices, n + 1)) == sorted(reps)

    def test_petersen_is_empty(self):
        assert census(*GRAPHS["Petersen"]) == []

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_relabelings_and_edge_reorderings(self, data):
        edges, vertices, n = GRAPHS[data.draw(st.sampled_from(sorted(GRAPHS)))]
        perm = data.draw(st.permutations(range(vertices)))
        order = data.draw(st.permutations(range(len(edges))))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        moved = []
        for i in order:
            u, v = perm[edges[i][0]], perm[edges[i][1]]
            moved.append((v, u) if flips[i] else (u, v))
        assert _observed(census(moved, vertices, n)) == reference_census(moved, vertices, n)


def _cubic_multigraph(vertices: int, rng: random.Random) -> list[tuple[int, int]]:
    """A connected, loopless 3-regular multigraph by random stub pairing."""
    while True:
        stubs = [v for v in range(vertices) for _ in range(3)]
        rng.shuffle(stubs)
        edges = list(zip(stubs[::2], stubs[1::2]))
        if any(u == v for u, v in edges):
            continue
        neighbors: list[set[int]] = [set() for _ in range(vertices)]
        for u, v in edges:
            neighbors[u].add(v)
            neighbors[v].add(u)
        if sum(1 for _ in graph_mod.reach(0, neighbors.__getitem__)) == vertices:
            return edges


class TestSurfacesFromCounts:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([4, 6, 8, 10, 12, 14]), st.integers(0, 2**32 - 1))
    def test_bipartite_rule_matches_the_orientation_pass(self, vertices, seed):
        # an n=2 class is named from V - E + #2-nests and the bipartiteness
        # of the underlying graph, never from a complex
        edges = _cubic_multigraph(vertices, random.Random(seed))
        for entry in census(edges, vertices, 2):
            assert entry.report == classify_surface(expansion.full_expand(entry.graph).complex)

    @pytest.mark.parametrize("name", ["prism4", "prism8", "3-cube", "K3,3", "K6"])
    def test_no_class_is_indexed_or_expanded(self, name, monkeypatch):
        # n=2 classes are decided from counts, n>=4 classes get the
        # 2-skeleton refusal directly
        indexed, expanded = [], []
        real_init, real_expand = nests_mod.NestIndex.__init__, expansion.full_expand

        def counted_init(index, g):
            indexed.append(g)
            real_init(index, g)

        def counted_expand(g, index=None):
            expanded.append(g)
            return real_expand(g, index)

        monkeypatch.setattr(nests_mod.NestIndex, "__init__", counted_init)
        monkeypatch.setattr(expansion, "full_expand", counted_expand)
        entries = census(*GRAPHS[name])
        assert entries
        assert indexed == expanded == []


def test_parallel_edges_need_one_coloring():
    # ten parallel edges take 10! colorings in one orbit; only its least
    # member is ever built (the census entry is checked in test_cli.py)
    assert list(enumerate_proper_colorings([(0, 1)] * 10, 2, 10)) == [tuple(range(10))]


class TestFourCube:
    AXES = gen_cube(3)  # the 4-cube, n = 3, each edge colored by its axis
    EDGES = [(u, v) for u, v, _ in AXES.edges]

    def test_census_refuses_by_counting_before_any_skeleton(self, monkeypatch):
        skeleta = []
        real_expand2 = expansion.expand2

        def counted(g, index=None):
            skeleta.append(g)
            return real_expand2(g, index)

        monkeypatch.setattr(expansion, "expand2", counted)
        entries = census(self.EDGES, 16, 3)
        assert len(entries) == 1840
        refused = [e for e in entries if e.refusal is not None]
        assert len(refused) == 1839
        assert all(e.refusal.startswith("counting criterion fails: ") for e in refused)
        (closed,) = [e for e in entries if e.refusal is None]
        axis = _first_occurrence([c.bit_length() - 1 for _, _, c in self.AXES.edges])
        assert closed.coloring == axis
        assert closed.report.betti_mod2 == (1, 0, 0, 1)
        assert skeleta == [closed.graph]

    def test_refused_classes_are_neither_validated_nor_grown(self, monkeypatch):
        # every class is valid and good by construction, and a refused
        # class is decided from component labels without a nest index
        validated, indexed = [], []
        real_validate, real_init = graph_mod.validate, nests_mod.NestIndex.__init__

        def counted_validate(g):
            validated.append(g)
            return real_validate(g)

        def counted_init(index, g):
            indexed.append(g)
            real_init(index, g)

        monkeypatch.setattr(graph_mod, "validate", counted_validate)
        monkeypatch.setattr(nests_mod.NestIndex, "__init__", counted_init)
        entries = census(self.EDGES, 16, 3)
        assert validated == [e.graph for e in entries if e.refusal is None]
        (closed,) = [e for e in entries if e.refusal is None]
        assert indexed == [closed.graph]  # one index, for the closing class

    @pytest.mark.parametrize("shuffle", [None, 4])
    def test_classes_share_labellings(self, shuffle, monkeypatch):
        # a labelling depends only on the subspace and the edges colored
        # inside it, so a census labels each such pair once, for every class
        edges = self.EDGES[:]
        if shuffle is not None:
            random.Random(shuffle).shuffle(edges)
        labelled, decided = [], []
        real_label_all, real_criterion = ColorComponents.label_all, census_mod.class_criterion

        def counted_label_all(layer, arcs):
            labelled.append(layer.space)
            return real_label_all(layer, arcs)

        def recorded_criterion(g, seen=None, held=None):
            crit = real_criterion(g, seen, held)
            decided.append((g, crit))
            return crit

        monkeypatch.setattr(ColorComponents, "label_all", counted_label_all)
        monkeypatch.setattr(census_mod, "class_criterion", recorded_criterion)
        entries = census(edges, 16, 3)
        keys = {
            (s, frozenset(e for e, c in enumerate(entry.coloring) if c in s))
            for entry in entries
            for k in (2, 3)
            for s in itertools.combinations(range(4), k)
        }
        assert len(labelled) == len(keys)  # 18,400 unshared, 10 per class
        if shuffle is None:
            assert len(labelled) <= 3242
        assert [g for g, _ in decided] == [entry.graph for entry in entries]
        for entry, (g, crit) in zip(entries, decided):
            alone = class_criterion(g)  # a fresh dict: nothing shared
            assert crit == alone  # witness and its euler characteristic included
            assert entry.refusal == alone.refusal

    def test_containment_is_decided_once_per_census(self, monkeypatch):
        # every class's 2-nest layers list the same six subspaces in the
        # same order, so whether each lies in a 3-nest subspace is asked
        # once per census: at most 4 subspaces x 6 layers, where asking per
        # (layer, 3-nest) pair in every refused class made 11,000 and more
        asked = []
        real = Subspace.__le__
        monkeypatch.setattr(Subspace, "__le__", lambda a, b: asked.append(b) or real(a, b))
        decided = []
        real_decide = expansion.Criterion3.decide.__func__

        def recorded_decide(cls, vertex_count, pairs, three, held=None):
            before = len(asked)
            crit = real_decide(cls, vertex_count, pairs, three, held)
            decided.append(len(asked) - before)
            return crit

        monkeypatch.setattr(expansion.Criterion3, "decide", classmethod(recorded_decide))
        entries = census(self.EDGES, 16, 3)
        assert len(entries) == 1840
        assert len(decided) == 1841  # the closing class decides again as it expands
        assert 0 < sum(decided) <= 4 * 6
        assert len(set(asked)) <= 4

    def test_labellings_read_membership_off_the_colors(self, monkeypatch):
        # each color is a unit vector, so no labelling asks a subspace
        # whether a color lies in it; what is left is the containment of
        # 2-nest layers in 3-nest subspaces and the closing class's index,
        # where asking per labelling made 13,116 calls
        asked = []
        real = Subspace.contains_mask
        monkeypatch.setattr(
            Subspace, "contains_mask", lambda space, mask: asked.append(mask) or real(space, mask)
        )
        assert len(census(self.EDGES, 16, 3)) == 1840
        assert len(asked) <= 300

    def test_entries_share_edge_rows(self):
        # each class's edges are (u, v, unit) rows built once per census;
        # with a fresh 3-tuple per edge and class the entries held 5.7 MB.
        # A first census, whose entries are dropped at once, fills the
        # interpreter's free lists before tracing starts, so the reading
        # counts what the entries hold and not the free lists (the first
        # census in a process read 3.16 MB, later ones 2.29-2.41 MB)
        census(self.EDGES, 16, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            entries = census(self.EDGES, 16, 3)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(entries) == 1840
        assert held < 3_000_000

    def test_shuffled_edge_order(self):
        edges = self.EDGES[:]
        random.Random(4).shuffle(edges)
        began = time.perf_counter()
        found = list(enumerate_proper_colorings(edges, 16, 4))
        # plain backtracking along this order takes minutes
        assert time.perf_counter() - began < 30
        assert len(set(found)) == len(found) == 1840
        for coloring in found:
            assert coloring == _first_occurrence(coloring)
            for v in range(16):
                assert sorted(c for c, e in zip(coloring, edges) if v in e) == [0, 1, 2, 3]


def check_counting_path(edges, vertices, n) -> int:
    """Every class of a census against the nest index; returns the count.

    Each class graph is valid and good, which is why the census checks
    neither; nu_k from component labels per k-subset of colors equals the
    index's count, and for n=3 the criterion from labels equals
    ``criterion_3d``'s, witness and euler characteristic included.
    """
    classes = 0
    for coloring in enumerate_proper_colorings(edges, vertices, n + 1):
        g = colored_from_indices(edges, vertices, n, coloring)
        assert validate(g).ok and is_good(g)
        index = NestIndex(g)
        counts = index.counts()
        arcs = g.arcs()
        for k in range(2, n + 1):
            assert counts[k] == sum(
                len(ColorComponents(span([1 << i for i in s], n + 1), vertices).label_all(arcs).parts)
                for s in itertools.combinations(range(n + 1), k)
            )
        if n == 3:
            crit = class_criterion(g)
            reference = expansion.criterion_3d(g, index)
            assert crit == reference
            assert crit.counts() == (counts[0], counts[2], counts[3])
            assert crit.refusal == reference.refusal
        classes += 1
    return classes


class TestCountingPath:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_graphs(self, name):
        check_counting_path(*GRAPHS[name])

    def test_four_cube_classes(self):
        assert check_counting_path(TestFourCube.EDGES, 16, 3) == 1840
