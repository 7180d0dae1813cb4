"""Surface classification against the disc walk of the orientation oracle,
mod-2 homology, and the local manifold check."""

from __future__ import annotations

import functools
import random
from itertools import islice, permutations

import pytest

from skelex.census import enumerate_proper_colorings
from skelex.classify import classify_surface, homology_mod2, surface_report
from skelex.errors import NotGoodColoring, SkelexError
from skelex.expansion import CellComplex, check_circles, expand2, full_expand
from skelex.generators import gen_cube, gen_nonorientable_surface, gen_orientable_surface
from skelex.gf2 import parse_color, rank_masks
from skelex.graph import ColoredGraph
from skelex.nests import NestIndex

from cell_oracle import cells_by_dim, cofaces
from conftest import (
    banana,
    colored_from_indices,
    edges_at,
    random_valid_coloring,
    six_colored_k4,
)
from graph_helpers import connected_sum, cubic_multigraph
from local_check_oracle import manifold_local_check
from orientation_oracle import orientable
from rank_oracle import boundary_matrix, rank_gf2


# the 168 invertible linear maps of GF(2)^3, each as the images of x0, x1, x2
GL32 = [images for images in permutations(range(1, 8), 3) if rank_masks(images) == 3]


def recolored(g: ColoredGraph, images: tuple[int, ...]) -> ColoredGraph:
    """``g`` with every color sent through the linear map x_i -> images[i]."""

    def image(mask: int) -> int:
        out = 0
        for i, x in enumerate(images):
            if mask >> i & 1:
                out ^= x
        return out

    return ColoredGraph(g.n, g.vertex_count, tuple((u, v, image(c)) for u, v, c in g.edges))


def closes(g: ColoredGraph) -> bool:
    """Does the valid graph ``g`` pass the circle check?"""
    try:
        check_circles(NestIndex(g))
    except NotGoodColoring:
        return False
    return True


@functools.lru_cache(maxsize=1)
def surface_corpus() -> tuple[ColoredGraph, ...]:
    """Closed surfaces for n=2 whose vertex stars vary.

    The surface families and census classes of random cubic multigraphs;
    random valid colorings of them that pass the circle check, whose
    stars differ from vertex to vertex; a GL(3,2) recoloring of each of
    these; and chains of straight or crossed connected sums of all of
    them.  A recoloring, or a sum of recolored pieces, keeps one star per
    piece, which would hide a rule that confuses the two discs through an
    edge; the random colorings show it.
    """
    rng = random.Random(1986)
    singles = [gen_orientable_surface(g) for g in (1, 2, 3)]
    singles += [gen_nonorientable_surface(k) for k in (1, 2, 3)]
    singles += [gen_cube(2), six_colored_k4(), banana(2)]
    for _ in range(20):
        vertices = rng.choice((4, 6, 8, 10))
        edges = cubic_multigraph(vertices, rng)
        for coloring in islice(enumerate_proper_colorings(edges, vertices, 3), 3):
            singles.append(colored_from_indices(edges, vertices, 2, coloring))
    mixed = 0
    while mixed < 200:
        vertices = rng.choice((4, 4, 6))
        g = random_valid_coloring(cubic_multigraph(vertices, rng), vertices, 3, rng)
        if g is not None and closes(g):
            singles.append(g)
            mixed += 1
    singles += [recolored(g, rng.choice(GL32)) for g in singles]
    sums = []
    while len(sums) < 300:
        chain = rng.choice(singles)
        for _ in range(rng.randint(1, 3)):
            other = rng.choice(singles)
            other = ColoredGraph(other.n, other.vertex_count, other.edges)  # never ``chain``
            e = rng.randrange(chain.edge_count)
            same = [f for f in range(other.edge_count) if other.color(f) == chain.color(e)]
            if same:
                crossing = rng.choice(("straight", "crossed"))
                summed = connected_sum(chain, e, other, rng.choice(same), crossing)
                if closes(summed):
                    chain = summed
        sums.append(chain)
    return tuple(singles + sums)


class TestClassifySurface:
    def test_cube_is_sphere(self, cube2):
        report = classify_surface(full_expand(cube2).complex)
        assert (report.orientable, report.genus, report.name) == (True, 0, "S2")
        assert report.euler == 2

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_orientable_family(self, g):
        report = classify_surface(full_expand(gen_orientable_surface(g)).complex)
        assert report.orientable
        assert report.euler == 2 - 2 * g
        assert report.genus == g
        assert report.name == f"gT2({g})"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nonorientable_family(self, k):
        report = classify_surface(full_expand(gen_nonorientable_surface(k)).complex)
        assert not report.orientable
        assert report.euler == 2 - k
        assert report.genus == k
        assert report.name == f"kP2({k})"

    def test_open_complex_rejected(self, cube2):
        c = full_expand(cube2).complex
        broken = CellComplex(
            c.graph,
            [c.nests[0], c.nests[1], c.nests[2][:-1]],
            [c.faces(0), c.faces(1), c.faces(2)[:-1]],
        )
        # a hand-built complex has no vertex stars to read
        with pytest.raises(SkelexError) as refused:
            classify_surface(broken)
        assert str(refused.value) == (
            "surface classification reads the vertex stars of a nest index;"
            " this complex has none"
        )
        # the disc walk refuses it for the edges the dropped disc leaves open
        with pytest.raises(SkelexError) as refused:
            orientable(broken)
        assert str(refused.value).startswith("not a closed surface complex: edge ")
        assert str(refused.value).endswith(" lies in 1 discs")

    def test_refuses_other_dimensions(self, cube3):
        with pytest.raises(SkelexError) as refused:
            classify_surface(expand2(cube3))
        assert str(refused.value) == (
            "surface classification needs the 2-complex of a graph with n=2,"
            " got dim 2 and n=3"
        )

    def test_matches_the_disc_walk(self):
        verdicts, varied = set(), 0
        for g in surface_corpus():
            c = full_expand(g).complex
            expected = surface_report(c.euler(), orientable(c))
            assert classify_surface(c) == expected, g
            verdicts.add(expected.orientable)
            varied += len({frozenset(mask for _, _, mask in at) for at in c.index.arcs}) > 1
        assert verdicts == {True, False}
        assert varied  # some graph's stars differ from vertex to vertex

    def test_label_invariance(self):
        # relabelling the vertices and reordering the edges changes the
        # cyclic order every vertex stores, never the verdict
        rng = random.Random(7)
        for g in surface_corpus()[::40]:
            expected = classify_surface(full_expand(g).complex)
            for _ in range(3):
                ids = list(range(g.vertex_count))
                rng.shuffle(ids)
                edges = [(ids[u], ids[v], c) for u, v, c in g.edges]
                rng.shuffle(edges)
                relabelled = ColoredGraph(g.n, g.vertex_count, tuple(edges))
                assert classify_surface(full_expand(relabelled).complex) == expected

    @pytest.mark.parametrize("ends, boundaries, message", [
        # three edges between two vertices: the walk meets all three at vertex 1
        ([(0, 1)] * 3, [(0, 1, 2)] * 2,
         "nest (0, 1, 2) is not an embedded circle at vertex 1"),
        # a path: vertex 2 meets one edge
        ([(0, 1), (1, 2)], [(0, 1)] * 2, "nest (0, 1) is not an embedded circle at vertex 2"),
        # one disc whose boundary lists its one edge twice
        ([(0, 1)], [(0, 0)], "nest (0, 0) is not an embedded circle at vertex 1"),
        # two disjoint bigons: the walk closes after the first
        ([(0, 1), (0, 1), (2, 3), (2, 3)], [(0, 1, 2, 3)] * 2,
         "nest (0, 1, 2, 3) walk missed edges"),
    ], ids=["theta", "path", "repeated edge", "two circles"])
    def test_disc_boundary_that_is_not_one_circle_is_refused(self, ends, boundaries, message):
        # the disc walk the orientation oracle keeps reads face lists alone;
        # each edge lies in exactly two discs, so the refusal comes from
        # the walk around the first boundary
        vertices = 1 + max(max(pair) for pair in ends)
        c = CellComplex(
            None,
            [[None] * vertices, [None] * len(ends), [None] * len(boundaries)],
            [((),) * vertices, ends, boundaries],
        )
        with pytest.raises(SkelexError) as refused:
            orientable(c)
        assert str(refused.value) == message

    def test_genus_1500_without_recursion(self):
        # the orientation walk over the vertices reaches paths about as
        # long as the vertex count, far past the interpreter's recursion limit
        report = classify_surface(full_expand(gen_orientable_surface(1500)).complex)
        assert report.orientable
        assert (report.genus, report.euler, report.name) == (1500, -2998, "gT2(1500)")


class TestHomology:
    def test_hypercube_is_homology_sphere(self, cube3):
        report = homology_mod2(full_expand(cube3).complex)
        assert report.betti_mod2 == (1, 0, 0, 1)
        assert report.euler == 0
        assert "homeomorphism" in report.note

    def test_projective_plane(self):
        c = full_expand(gen_nonorientable_surface(1)).complex
        # underlying ranks frozen from hand reduction: rank d1 = 3, rank d2 = 2
        assert rank_gf2(boundary_matrix(c, 1)) == 3
        assert rank_gf2(boundary_matrix(c, 2)) == 2
        assert homology_mod2(c).betti_mod2 == (1, 1, 1)

    def test_torus(self):
        c = full_expand(gen_orientable_surface(1)).complex
        assert homology_mod2(c).betti_mod2 == (1, 2, 1)

    def test_genus_two(self):
        c = full_expand(gen_orientable_surface(2)).complex
        assert homology_mod2(c).betti_mod2 == (1, 4, 1)

    def test_poincare_duality(self, cube3):
        for complex_ in (
            full_expand(cube3).complex,
            full_expand(gen_orientable_surface(2)).complex,
            full_expand(gen_nonorientable_surface(3)).complex,
        ):
            betti = homology_mod2(complex_).betti_mod2
            assert betti == tuple(reversed(betti))

    def test_mod2_homology_cannot_separate_klein_from_torus(self):
        a, b = gen_nonorientable_surface(1), gen_nonorientable_surface(1)
        pick = lambda g: next(
            i for i in range(g.edge_count) if g.color(i) == parse_color("100")
        )
        klein = full_expand(connected_sum(a, pick(a), b, pick(b))).complex
        torus = full_expand(gen_orientable_surface(1)).complex
        assert homology_mod2(klein).betti_mod2 == homology_mod2(torus).betti_mod2
        assert not classify_surface(klein).orientable
        assert classify_surface(torus).orientable

    def test_b1_matches_genus_formulas(self):
        for g in (1, 2, 3):
            c = full_expand(gen_orientable_surface(g)).complex
            report = classify_surface(c)
            assert homology_mod2(c).betti_mod2[1] == 2 * report.genus
        for k in (1, 2, 3):
            c = full_expand(gen_nonorientable_surface(k)).complex
            report = classify_surface(c)
            assert homology_mod2(c).betti_mod2[1] == report.genus


class TestLocalCheck:
    def test_hypercube_local_picture(self, cube3):
        c = full_expand(cube3).complex
        report = manifold_local_check(c)
        assert report.ok
        # around every vertex: 4 edges, 6 discs, 4 chambers
        cells = cells_by_dim(c)
        for v in range(c.graph.vertex_count):
            assert len(edges_at(c.graph, v)) == 4
            assert sum(1 for cell in cells[2] if v in cell.nest.vertex_ids) == 6
            assert sum(1 for cell in cells[3] if v in cell.nest.vertex_ids) == 4

    def test_surface_edges_in_two_discs(self, cube2):
        c = full_expand(cube2).complex
        assert manifold_local_check(c).ok
        for uses in cofaces(c, 1):
            assert len(uses) == 2

    def test_broken_complex_detected(self, cube3):
        c = full_expand(cube3).complex
        broken = CellComplex(
            c.graph,
            [*c.nests[:3], c.nests[3][:-1]],
            [c.faces(0), c.faces(1), c.faces(2), c.faces(3)[:-1]],
        )
        report = manifold_local_check(broken)
        assert not report.ok
        assert any("2-cell" in p for p in report.problems)
