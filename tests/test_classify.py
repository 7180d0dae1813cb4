"""Surface classification, mod-2 homology, and the local manifold check."""

from __future__ import annotations

import pytest

from skelex.classify import classify_surface, homology_mod2
from skelex.errors import SkelexError
from skelex.expansion import CellComplex, full_expand
from skelex.generators import gen_nonorientable_surface, gen_orientable_surface
from skelex.gf2 import parse_color

from cell_oracle import cells_by_dim
from conftest import edges_at
from graph_helpers import connected_sum
from local_check_oracle import manifold_local_check
from rank_oracle import boundary_matrix, rank_gf2


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
        with pytest.raises(SkelexError):
            classify_surface(broken)

    def test_label_invariance(self):
        # permuting the disc order never changes the verdict
        c = full_expand(gen_nonorientable_surface(2)).complex
        c2 = CellComplex(
            c.graph,
            [c.nests[0], c.nests[1], c.nests[2][::-1]],
            [c.faces(0), c.faces(1), c.faces(2)[::-1]],
        )
        a = classify_surface(c)
        b = classify_surface(c2)
        assert (a.orientable, a.genus) == (b.orientable, b.genus)

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
        # each edge lies in exactly two discs, so the refusal comes from the
        # walk around the first boundary
        vertices = 1 + max(max(pair) for pair in ends)
        c = CellComplex(
            None,
            [[None] * vertices, [None] * len(ends), [None] * len(boundaries)],
            [((),) * vertices, ends, boundaries],
        )
        with pytest.raises(SkelexError) as refused:
            classify_surface(c)
        assert str(refused.value) == message

    def test_genus_1500_without_recursion(self):
        # the orientation walk over the discs reaches paths about as long
        # as the disc count, far past the interpreter's recursion limit
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
        for uses in c.cofaces(1):
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
