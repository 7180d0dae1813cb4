"""Skeletal expansion: 2-skeletons, the n=3 criterion and its witness, and
the boundary-sphere oracle."""

from __future__ import annotations

import json
import os

import pytest

from skelex import cli
from skelex.errors import NotGoodColoring, UnsupportedDimension
from skelex.expansion import (
    CellComplex,
    check_circles,
    criterion_3d,
    expand2,
    full_expand,
)
from skelex.generators import gen_cube, gen_nonorientable_surface, gen_orientable_surface
from skelex.gf2 import span
from skelex.graph import serialize
from skelex.nests import Nest, NestIndex, nest_label

from cell_oracle import cells_by_dim
from sphere_oracle import (
    SphereCheck,
    _subcomplex,
    _vertex_link_failures,
    boundary_sphere_complex,
    sphere_check,
)


class TestExpand2:
    def test_k4_cells(self):
        c = expand2(gen_nonorientable_surface(1))
        assert c.counts() == (4, 6, 3)

    def test_cube_cells(self, cube2):
        c = expand2(cube2)
        assert c.counts() == (8, 12, 6)
        assert c.euler() == 2

    def test_torus_cells(self):
        c = expand2(gen_orientable_surface(1))
        assert c.counts() == (8, 12, 4)

    def test_nongood_refused(self, nongood):
        with pytest.raises(NotGoodColoring):
            expand2(nongood)

    def test_circle_check_is_expand2s_refusal(self, nongood, cube2):
        with pytest.raises(NotGoodColoring) as direct:
            check_circles(NestIndex(nongood))
        with pytest.raises(NotGoodColoring) as through:
            expand2(nongood)
        assert str(direct.value) == str(through.value)
        assert "is not a circle" in str(direct.value)
        assert check_circles(NestIndex(cube2)) is None

    def test_low_dimension_refused(self):
        with pytest.raises(UnsupportedDimension):
            expand2(gen_cube(1))

    def test_boundary_condition(self, cube2, cube3):
        assert expand2(cube2).boundary_condition_holds()
        assert full_expand(cube3).complex.boundary_condition_holds()

    def test_face_incidence_mirrors_nests(self, cube2):
        _, edges, discs = cells_by_dim(expand2(cube2))
        for disc in discs:
            assert set(disc.faces) == set(disc.nest.edge_ids)
            for e in disc.faces:
                edge_cell = edges[e]
                assert disc.nest.contains(edge_cell.nest)


class TestBoundarySphere:
    def test_hypercube_three_nest_boundary(self, cube3):
        skeleton = expand2(cube3)
        nest = NestIndex(cube3).nests(3)[0]
        F = boundary_sphere_complex(skeleton, nest)
        assert F.counts() == (8, 12, 6)
        assert F.euler() == 2
        assert sphere_check(F, 2).ok

    def test_counterexample_nest_types(self, counterexample):
        skeleton = expand2(counterexample)
        eulers = {}
        for nest in NestIndex(counterexample).nests(3):
            F = boundary_sphere_complex(skeleton, nest)
            label = nest_label(nest)
            eulers.setdefault(label, []).append(
                (F.euler(), sphere_check(F, 2).ok)
            )
        # two projective planes on the x1x2x3 side, three spheres elsewhere
        assert eulers["x1·x2·x3"] == [(1, False), (1, False)]
        for label in ("x0·x1·x2", "x0·x1·x3", "x0·x2·x3"):
            assert eulers[label] == [(2, True)]

    def test_dim_mismatch(self, cube3):
        skeleton = expand2(cube3)
        with pytest.raises(ValueError):
            boundary_sphere_complex(skeleton, NestIndex(cube3).nests(2)[0])


class TestSphereCheck:
    def test_circle(self, cube2):
        skeleton = expand2(cube2)
        nest = NestIndex(cube2).nests(2)[0]
        keep = [
            {c.index for c in cells if nest.contains(c.nest)}
            for cells in cells_by_dim(skeleton)[:2]
        ]
        F = _subcomplex(skeleton, keep)
        assert sphere_check(F, 1).ok

    def test_two_disjoint_circles_fail(self, cube2):
        skeleton = expand2(cube2)
        nests = NestIndex(cube2).nests(2)
        # two vertex-disjoint squares of the cube
        a = next(n for n in nests if n.vertex_ids == (0, 1, 2, 3))
        b = next(n for n in nests if n.vertex_ids == (4, 5, 6, 7))
        keep = [
            {
                c.index
                for c in cells
                if a.contains(c.nest) or b.contains(c.nest)
            }
            for cells in cells_by_dim(skeleton)[:2]
        ]
        F = _subcomplex(skeleton, keep)
        verdict = sphere_check(F, 1)
        assert not verdict.ok
        assert "connected" in verdict.reason

    def test_projective_plane_is_not_sphere(self):
        c = expand2(gen_nonorientable_surface(1))
        verdict = sphere_check(c, 2)
        assert not verdict.ok
        assert "euler characteristic 1" in verdict.reason

    def test_cube_surface_is_sphere(self, cube2):
        assert sphere_check(expand2(cube2), 2).ok

    def test_unsupported_dimension(self, cube2):
        with pytest.raises(UnsupportedDimension):
            sphere_check(expand2(cube2), 3)


class TestCriterion:
    def test_hypercube_satisfies(self, cube3):
        crit = criterion_3d(cube3)
        assert crit.holds
        assert crit.counts() == (16, 24, 8)
        assert crit.three_nests == crit.two_nests - crit.vertex_count

    def test_counterexample_fails_with_exact_counts(self, counterexample):
        crit = criterion_3d(counterexample)
        assert not crit.holds
        assert crit.counts() == (8, 12, 5)

    def test_wrong_n(self, cube2):
        with pytest.raises(UnsupportedDimension):
            criterion_3d(cube2)

    def test_refusal_is_full_expands_obstruction(self, cube3, counterexample):
        assert criterion_3d(cube3).refusal is None
        assert criterion_3d(counterexample).refusal == (
            "counting criterion fails: 5 3-nests != 12 2-nests - 8 vertices;"
            " 3-nest x1·x2·x3 with edges (0, 2, 4, 6, 8, 10) has boundary"
            " euler characteristic 1"
        )
        assert full_expand(counterexample).obstruction.reason == (
            criterion_3d(counterexample).refusal
        )


class TestFullExpand:
    def test_surface_always_completes(self, cube2):
        out = full_expand(cube2)
        assert out.completed and out.reached_dim == 2
        assert out.complex.euler() == 2

    def test_hypercube_completes(self, cube3):
        out = full_expand(cube3)
        assert out.completed and out.reached_dim == 3
        assert out.complex.counts() == (16, 32, 24, 8)
        assert out.complex.euler() == 0

    def test_counterexample_obstructed(self, counterexample):
        out = full_expand(counterexample)
        assert not out.completed
        assert out.reached_dim == 2
        assert out.obstruction.counts == (8, 12, 5)
        assert out.obstruction.nest == criterion_3d(counterexample).witness

    def test_each_two_cell_in_two_three_cells(self, cube3):
        c = full_expand(cube3).complex
        for uses in c.cofaces(2):
            assert len(uses) == 2

    def test_n4_stops_at_two_skeleton(self):
        out = full_expand(gen_cube(4))
        assert not out.completed
        assert out.reached_dim == 2
        assert "unsupported" in out.obstruction.reason

    def test_n1_rejected(self):
        with pytest.raises(UnsupportedDimension):
            full_expand(gen_cube(1))


def hand_complex(vertex_count, edges, discs) -> CellComplex:
    """A 2-complex given by edge endpoints and disc edge lists.

    Nests carry the vertex and edge ids; their colors play no part in the
    local checks.
    """
    width = 3
    zero = [Nest((), (v,), span([], width)) for v in range(vertex_count)]
    one = [
        Nest((i,), tuple(sorted(ends)), span([1], width))
        for i, ends in enumerate(edges)
    ]
    two = [
        Nest(tuple(sorted(faces)),
             tuple(sorted({v for e in faces for v in edges[e]})),
             span([1, 2], width))
        for faces in discs
    ]
    faces = [[()] * vertex_count, [tuple(sorted(ends)) for ends in edges], list(map(tuple, discs))]
    return CellComplex(None, [zero, one, two], faces)


def triangle_complex(triangles) -> CellComplex:
    """The 2-complex of a list of vertex triples."""
    edge_ids: dict[tuple[int, int], int] = {}
    discs = []
    for tri in triangles:
        a, b, c = sorted(tri)
        discs.append(tuple(
            edge_ids.setdefault(pair, len(edge_ids)) for pair in ((a, b), (a, c), (b, c))
        ))
    edges = sorted(edge_ids, key=edge_ids.get)
    return hand_complex(1 + max(max(t) for t in triangles), edges, discs)


TETRA = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


class TestVertexLinks:
    """Each diagnosis of the vertex-link check, on hand-built complexes."""

    def test_sphere_passes(self):
        assert _vertex_link_failures(triangle_complex(TETRA)) is None

    def test_wedge_link_disconnected(self):
        # two tetrahedron boundaries sharing vertex 0
        F = triangle_complex(TETRA + [(0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)])
        assert _vertex_link_failures(F) == "link of vertex 0 is disconnected"
        verdict = sphere_check(F, 2)
        assert verdict == SphereCheck(False, "link of vertex 0 is disconnected")

    def test_fin_link_not_two_regular(self):
        # three triangles on the edge (0, 1), which is edge 0
        F = triangle_complex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        assert _vertex_link_failures(F) == "link of vertex 0 is not 2-regular at edge 0"
        # the whole check stops earlier, at the edge in three discs
        assert sphere_check(F, 2) == SphereCheck(False, "edge 0 lies in 3 discs")

    def test_disc_through_one_edge(self):
        # two discs bounded by the same single edge
        F = hand_complex(2, [(0, 1)], [(0,), (0,)])
        assert _vertex_link_failures(F) == "disc 0 passes vertex 0 through 1 edges"
        assert sphere_check(F, 2) == SphereCheck(
            False, "disc 0 passes vertex 0 through 1 edges"
        )

    def test_circle_diagnoses(self):
        F = hand_complex(3, [(0, 1), (1, 2), (0, 2)], [])
        assert sphere_check(F, 1) == SphereCheck(True, "circle")
        path = hand_complex(3, [(0, 1), (1, 2)], [])
        assert sphere_check(path, 1) == SphereCheck(False, "vertex 0 lies in 1 edges")


class TestCofaces:
    def test_built_once_and_kept(self, cube2):
        c = expand2(cube2)
        assert c.cofaces(1) is c.cofaces(1)
        vertices, edges, discs = cells_by_dim(c)
        assert c.cofaces(0) == tuple(
            tuple(e.index for e in edges if v in e.faces) for v in range(len(vertices))
        )
        assert c.cofaces(2) == ((),) * len(discs)


class TestFacesOnDemand:
    """A complex builds no per-cell object, and reads a face list only where
    a command needs one: ``realize`` and ``expand`` read none,
    classification reads the dimensions it walks or ranks, and
    ``expand --dump`` writes each cell from its nest and face list."""

    GRAPHS = {
        "gT2(2)": lambda: gen_orientable_surface(2),
        "kP2(3)": lambda: gen_nonorientable_surface(3),
        "cube3": lambda: gen_cube(3),
        "cube4": lambda: gen_cube(4),
    }
    # cube4 stops at its 2-skeleton, so it is refused; the rest close
    CLASSIFY_READS = {"gT2(2)": {1, 2}, "kP2(3)": {1, 2}, "cube3": {1, 2, 3}, "cube4": set()}

    @pytest.fixture
    def read(self, monkeypatch):
        dims = []
        real = CellComplex.faces

        def counted(c, k):
            dims.append(k)
            return real(c, k)

        monkeypatch.setattr(CellComplex, "faces", counted)
        return dims

    def run(self, tmp_path, name, argv):
        source = tmp_path / "graph.json"
        source.write_text(serialize(self.GRAPHS[name]()))
        code = cli.run([*argv, str(source), "--out", os.devnull])
        assert code == (cli.EXIT_REFUSED if name == "cube4" else cli.EXIT_OK)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("argv", [
        ["realize"], ["realize", "--table", "--format", "json"],
        ["expand"], ["expand", "--format", "json"],
    ], ids=" ".join)
    def test_no_face_list_without_dump(self, tmp_path, read, name, argv):
        self.run(tmp_path, name, argv)
        assert read == []

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_classify_reads_only_the_faces_it_uses(self, tmp_path, read, name, fmt):
        self.run(tmp_path, name, ["classify", "--format", fmt])
        assert set(read) == self.CLASSIFY_READS[name]

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_dump_writes_every_cell(self, tmp_path, name):
        g = self.GRAPHS[name]()
        source, dump = tmp_path / "graph.json", tmp_path / "dump.json"
        source.write_text(serialize(g))
        cli.run(["expand", "--format", "json", "--dump", str(source), "--out", str(dump)])
        payload = json.loads(dump.read_text())
        cells = cells_by_dim(full_expand(g).complex)
        assert payload["cells"] == [len(level) for level in cells]
        assert payload["complex"] == [
            {
                "dim": cell.dim,
                "index": cell.index,
                "faces": list(cell.faces),
                "nest_edges": list(cell.nest.edge_ids),
                "nest_vertices": list(cell.nest.vertex_ids),
            }
            for level in cells
            for cell in level
        ]
