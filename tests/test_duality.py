"""Flags, dual colored graphs, and the predicted-vs-actual nest census."""

from __future__ import annotations

import json
from itertools import combinations
from math import factorial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skelex.classify import classify_surface, homology_mod2
from skelex.duality import (
    FacePoset,
    _chain_counts,
    dual_colored_graph,
    parse_poset,
    predicted_complex,
    sphere_poset,
)
from skelex.errors import FormatError, NotCombinatorialManifold
from skelex.expansion import full_expand
from skelex.generators import gen_cube
from skelex.graph import validate
from skelex.nests import NestIndex

from conftest import (
    GAP_CELL,
    LONE_VERTEX_2,
    LONE_VERTEX_3,
    THIRD_CELL,
    edited,
    gale_facets,
    sphere_times_circle,
    torus7_simplices,
)
from flag_oracle import _chains_of_length, flags, listed_complex, one_short_dual
from goodness_oracle import is_good
from graph_helpers import cell_count, color_isomorphic, connected_sum, is_pure
from local_check_oracle import manifold_local_check


def delta3() -> FacePoset:
    return FacePoset.from_simplices([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def simplex_boundary(k: int) -> FacePoset:
    """The boundary of the k-simplex, a (k-1)-sphere."""
    return FacePoset.from_simplices([list(s) for s in combinations(range(k + 1), k)])


# the 6-vertex minimal triangulation of the projective plane (antipodal
# icosahedron quotient): every pair of vertices is an edge, ten triangles
RP2 = [
    [1, 2, 5], [1, 2, 6], [1, 3, 4], [1, 3, 6], [1, 4, 5],
    [2, 3, 4], [2, 3, 5], [2, 4, 6], [3, 5, 6], [4, 5, 6],
]


class TestFlags:
    """The listing in ``flag_oracle`` against the chain counter."""

    def test_simplex_boundary_full_flags(self):
        # 4 triangles x 3 edges x 2 vertices orderings = 24 maximal chains
        assert len(flags(delta3()).full) == 24
        assert _chain_counts(delta3())[2] == 24

    def test_two_cell_sphere_flag_count(self):
        for n in (1, 2, 3):
            assert len(flags(sphere_poset(n)).full) == 2 ** (n + 1)
            assert _chain_counts(sphere_poset(n))[n] == 2 ** (n + 1)

    @pytest.mark.parametrize("poset_factory", [
        lambda: sphere_poset(1),
        lambda: sphere_poset(3),
        delta3,
        lambda: FacePoset.from_simplices(torus7_simplices()),
        lambda: simplex_boundary(5),
    ])
    def test_full_flag_count_matches_the_listing(self, poset_factory):
        poset = poset_factory()
        counts = _chain_counts(poset)
        assert counts[poset.top_dim] == len(flags(poset).full)
        assert counts == [
            len(_chains_of_length(poset, length)) for length in range(1, poset.top_dim + 2)
        ]

    def test_single_vertex_has_no_long_chains(self):
        # a lone 0-cell supports no chain of two or more cells, so a poset
        # missing its higher cells can never produce full flags
        p = FacePoset({"v": 0}, {"v": set()})
        assert _chains_of_length(p, 2) == []
        assert _chains_of_length(p, 1) == [(0,)]
        assert _chain_counts(p) == [1]

    def test_simplex_boundary_one_short_count(self):
        # chains of two cells in the tetrahedron boundary: 12 vertex-edge,
        # 12 vertex-triangle, 12 edge-triangle
        p = delta3()
        assert len(flags(p).one_short) == 36
        assert _chain_counts(p)[1] == 36

    def test_one_short_flags_miss_one_dimension(self):
        p = delta3()
        for chain in flags(p).one_short:
            dims = sorted(p.dim[c] for c in chain)
            assert len(dims) == 2
            assert dims in ([0, 1], [0, 2], [1, 2])


ORACLE_POSETS = {
    **{f"sphere_poset({n})": (lambda n=n: sphere_poset(n)) for n in range(1, 6)},
    "delta3": delta3,
    "torus7": lambda: FacePoset.from_simplices(torus7_simplices()),
    "RP2": lambda: FacePoset.from_simplices(RP2),
    "S2 x S1": sphere_times_circle,
    **{f"C({m},4)": (lambda m=m: FacePoset.from_simplices(gale_facets(m))) for m in range(6, 15)},
    "6-simplex boundary": lambda: simplex_boundary(6),
}


@pytest.mark.parametrize("name", list(ORACLE_POSETS))
def test_exchange_matches_the_one_short_listing(name):
    poset = ORACLE_POSETS[name]()
    assert dual_colored_graph(poset) == one_short_dual(poset)
    assert predicted_complex(poset) == listed_complex(poset)


class TestDualGraph:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sphere_dual_is_cube(self, n):
        dual = dual_colored_graph(sphere_poset(n))
        assert color_isomorphic(dual, gen_cube(n))

    def test_dual_is_pure_and_good(self):
        dual = dual_colored_graph(delta3())
        assert validate(dual).ok
        assert is_pure(dual)
        assert is_good(dual)

    def test_simplex_boundary_expands_to_sphere(self):
        dual = dual_colored_graph(delta3())
        assert (dual.vertex_count, dual.edge_count) == (24, 36)
        report = classify_surface(full_expand(dual).complex)
        assert report.name == "S2"

    def test_torus_triangulation(self):
        poset = FacePoset.from_simplices(torus7_simplices())
        assert poset.euler() == 0
        dual = dual_colored_graph(poset)
        report = classify_surface(full_expand(dual).complex)
        assert report.orientable and report.genus == 1

    def test_projective_plane_triangulation(self):
        poset = FacePoset.from_simplices(RP2)
        assert poset.euler() == 1
        dual = dual_colored_graph(poset)
        assert NestIndex(dual).counts() == predicted_complex(poset)
        report = classify_surface(full_expand(dual).complex)
        assert not report.orientable and report.genus == 1
        assert report.euler == poset.euler()

    def test_four_simplex_boundary_is_homology_three_sphere(self):
        # duality in dimension three: the 5-vertex 3-sphere triangulation
        from itertools import combinations

        from skelex.expansion import criterion_3d

        poset = FacePoset.from_simplices(
            [list(s) for s in combinations(range(5), 4)]
        )
        dual = dual_colored_graph(poset)
        assert (dual.vertex_count, dual.edge_count) == (120, 240)
        assert is_pure(dual)
        assert NestIndex(dual).counts() == predicted_complex(poset) == (120, 240, 150, 30)
        assert criterion_3d(dual).holds
        outcome = full_expand(dual)
        assert outcome.completed
        assert homology_mod2(outcome.complex).betti_mod2 == (1, 0, 0, 1)
        assert manifold_local_check(outcome.complex).ok

    def test_product_of_sphere_and_circle(self):
        # a non-sphere 3-manifold through the duality path: the product of
        # the minimal sphere and circle decompositions has mod-2 homology
        # (1, 1, 1, 1), distinguishing it from every homology sphere
        from skelex.classify import homology_mod2
        from skelex.expansion import criterion_3d

        poset = sphere_times_circle()
        dual = dual_colored_graph(poset)
        assert is_pure(dual)
        assert NestIndex(dual).counts() == predicted_complex(poset) == (96, 192, 120, 24)
        assert criterion_3d(dual).holds
        outcome = full_expand(dual)
        assert outcome.completed
        assert homology_mod2(outcome.complex).betti_mod2 == (1, 1, 1, 1)

    def test_open_manifold_rejected(self):
        # drop one triangle from the tetrahedron boundary: vertex links
        # become paths
        p = FacePoset.from_simplices([[0, 1, 2], [0, 1, 3], [0, 2, 3]])
        with pytest.raises(NotCombinatorialManifold):
            dual_colored_graph(p)


class TestPredictedCensus:
    @pytest.mark.parametrize(
        "poset_factory",
        [
            lambda: sphere_poset(1),
            lambda: sphere_poset(2),
            lambda: sphere_poset(3),
            delta3,
            lambda: FacePoset.from_simplices(torus7_simplices()),
        ],
    )
    def test_nest_census_equals_flag_census(self, poset_factory):
        poset = poset_factory()
        dual = dual_colored_graph(poset)
        assert NestIndex(dual).counts() == predicted_complex(poset)

    def test_sphere2_prediction_matches_cube(self):
        assert predicted_complex(sphere_poset(2)) == (8, 12, 6)

    def test_classification_consistency(self):
        # expanded dual has the source's Euler characteristic
        poset = FacePoset.from_simplices(torus7_simplices())
        dual = dual_colored_graph(poset)
        assert full_expand(dual).complex.euler() == poset.euler()


class TestPosetValidation:
    def test_dim_inconsistency(self):
        with pytest.raises(FormatError):
            FacePoset.from_cells([("a", 0, []), ("b", 1, ["a"]), ("c", 1, ["b"])])

    def test_unknown_face(self):
        with pytest.raises(FormatError):
            FacePoset.from_cells([("a", 1, ["ghost"])])

    def test_missing_dimension_in_faces(self):
        # a 2-cell listing only 1-dimensional faces is not closed
        with pytest.raises(FormatError):
            FacePoset.from_cells(
                [("e", 1, []), ("f", 2, ["e"])]
            )

    def test_transitive_closure_applied(self):
        p = FacePoset.from_cells(
            [
                ("v1", 0, []),
                ("v2", 0, []),
                ("e1", 1, ["v1", "v2"]),
                ("e2", 1, ["v1", "v2"]),
                ("f1", 2, ["e1", "e2"]),
                ("f2", 2, ["e1", "e2"]),
            ]
        )
        fi = p.index["f1"]
        assert {p.order[c] for c in p.faces[fi]} == {"v1", "v2", "e1", "e2"}


class TestParsePoset:
    def test_simplicial_shortcut(self):
        text = '{"simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}'
        p = parse_poset(text)
        assert p.top_dim == 2
        assert cell_count(p) == 14

    def test_explicit_cells(self):
        text = (
            '{"top_dim": 1, "cells": ['
            '["v1", 0, []], ["v2", 0, []],'
            '["e1", 1, ["v1", "v2"]], ["e2", 1, ["v1", "v2"]]]}'
        )
        p = parse_poset(text)
        dual = dual_colored_graph(p)
        assert color_isomorphic(dual, gen_cube(1))

    def test_integer_cell_ids(self):
        text = (
            '{"top_dim": 1, "cells": ['
            '[10, 0, []], [11, 0, []],'
            '[20, 1, [10, 11]], [21, 1, [10, 11]]]}'
        )
        dual = dual_colored_graph(parse_poset(text))
        assert color_isomorphic(dual, gen_cube(1))

    def test_top_dim_mismatch(self):
        text = '{"top_dim": 5, "cells": [["v", 0, []]]}'
        with pytest.raises(FormatError):
            parse_poset(text)

    def test_not_json(self):
        with pytest.raises(FormatError):
            parse_poset("nope")


TETRA = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]

# posets with a vertex or edge link that is neither a circle nor a 2-sphere
LINK_FAILURES = {
    "surface wedge": lambda: FacePoset.from_simplices(
        TETRA + [[0, 4, 5], [0, 4, 6], [0, 5, 6], [4, 5, 6]]
    ),
    "surface fin": lambda: FacePoset.from_simplices([[0, 1, 2], [0, 1, 3], [0, 1, 4]]),
    # two boundaries of the 4-simplex joined at vertex 0: the link there is
    # two 2-spheres
    "3-sphere wedge": lambda: FacePoset.from_simplices(
        [list(s) for s in combinations(range(5), 4)]
        + [list(s) for s in combinations((0, 5, 6, 7, 8), 4)]
    ),
    # three tetrahedra on the triangle (0, 1, 2)
    "three-fin": lambda: FacePoset.from_simplices(
        [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]]
    ),
    # a pseudomanifold: the two cone points have torus links
    "suspended torus": lambda: FacePoset.from_simplices(
        [t + [apex] for t in torus7_simplices() for apex in (7, 8)]
    ),
    # z lies in a 3-cell and in no edge: every ridge and interval is sound,
    # and its link has no nodes at all
    "lone vertex, n=3": lambda: edited(sphere_poset(3), add=LONE_VERTEX_3),
    "lone vertex, n=2": lambda: edited(sphere_poset(2), add=LONE_VERTEX_2),
}


def _refusal(name: str) -> str:
    with pytest.raises(NotCombinatorialManifold) as info:
        dual_colored_graph(LINK_FAILURES[name]())
    return str(info.value)


class TestVertexLinks:
    """Each link diagnosis of dual_colored_graph, for n=2 and n=3.

    The ridge count and the diamond pass run first, so a link that is not
    2-regular is refused by one of them, naming a ridge or an interval.
    """

    def test_surface_wedge_link_disconnected(self):
        assert _refusal("surface wedge") == "link of vertex 's0' is disconnected"

    def test_surface_fin_link_not_two_regular(self):
        assert _refusal("surface fin") == "1-cell 's0_1' lies in 3 of the 2-cells, expected 2"

    def test_two_cell_through_one_edge(self):
        # two 2-cells bounded by the same single edge
        p = FacePoset.from_cells([
            ("a", 0, []), ("b", 0, []), ("e", 1, ["a", "b"]),
            ("f", 2, ["e"]), ("g", 2, ["e"]),
        ])
        with pytest.raises(NotCombinatorialManifold) as info:
            dual_colored_graph(p)
        assert str(info.value) == "between 0-cell 'a' and 2-cell 'f' lie 1 1-cells, expected 2"

    def test_wedge_of_3_spheres_refused(self):
        assert _refusal("3-sphere wedge") == "link of vertex 's0' is disconnected"

    def test_suspended_torus_refused(self):
        assert _refusal("suspended torus") == (
            "link of vertex 's7' is a closed surface with euler characteristic 0,"
            " not a 2-sphere"
        )

    def test_three_fin_edge_link_not_two_regular(self):
        assert _refusal("three-fin") == "2-cell 's0_1_2' lies in 3 of the 3-cells, expected 2"

    def test_empty_vertex_link_is_disconnected(self):
        assert _refusal("lone vertex, n=3") == "link of vertex 'z' is disconnected"

    def test_lone_vertex_of_a_surface_is_an_interval_refusal(self):
        assert _refusal("lone vertex, n=2") == (
            "between 0-cell 'z' and 2-cell 'c2_1' lie 0 1-cells, expected 2"
        )

    @pytest.mark.parametrize("name", list(LINK_FAILURES))
    def test_both_dualizations_refuse(self, name):
        poset = LINK_FAILURES[name]()
        for dualize in (dual_colored_graph, one_short_dual):
            with pytest.raises(NotCombinatorialManifold):
                dualize(poset)


class TestPosetRobustness:
    def test_long_chain_refused_without_recursion(self):
        # c_i has c_(i-1) as its only listed face, listed top-down
        cells = [(f"c{i}", i, [f"c{i - 1}"] if i else []) for i in reversed(range(3000))]
        with pytest.raises(FormatError, match="1-cell 'c1' has 1 vertices"):
            FacePoset.from_cells(cells)

    @pytest.mark.parametrize("cells", [
        5,
        "cells",
        [[["a"], 0, []]],
        [["a", 0, []], [{"b": 1}, 0, []]],
        [["a", 0, []], ["b", 0, []], ["e", 1, ["a", ["b"]]]],
        [["a", 0, []], ["b", 0, []], ["e", 1, ["a", 1.5]]],
    ])
    def test_malformed_cells_are_format_errors(self, cells):
        with pytest.raises(FormatError):
            parse_poset(json.dumps({"top_dim": 1, "cells": cells}))

    def test_negative_and_huge_dims_are_format_errors(self):
        with pytest.raises(FormatError, match="negative dim"):
            FacePoset.from_cells([("a", -1, []), ("b", 0, [])])
        with pytest.raises(FormatError, match="expected 0..999999999999"):
            FacePoset.from_cells([("a", 0, []), ("b", 10**12, ["a"])])


class TestOpenSimplices:
    """A ridge outside two top simplices is refused before flags are listed."""

    def test_open_13_simplex_refused_while_parsing(self):
        # its face poset alone would take seconds to build
        text = json.dumps({"simplices": [list(range(14))]})
        with pytest.raises(NotCombinatorialManifold) as info:
            parse_poset(text)
        assert str(info.value) == (
            f"ridge {list(range(13))} lies in 1 of the simplices, expected 2"
        )

    def test_ridge_in_three_simplices_refused_while_parsing(self):
        text = json.dumps({"simplices": [[0, 1, 2], [0, 1, 3], [0, 1, 4]]})
        with pytest.raises(NotCombinatorialManifold, match=r"ridge \[0, 1\] lies in 3"):
            parse_poset(text)

    def test_format_errors_come_first(self):
        with pytest.raises(FormatError, match="degenerate"):
            parse_poset(json.dumps({"simplices": [[0, 0, 1]]}))

    def test_open_8_simplex_refused_before_flags(self):
        # its ridges are refused before its 9! full flags are counted or listed
        poset = FacePoset.from_simplices([list(range(9))])
        with pytest.raises(NotCombinatorialManifold) as info:
            dual_colored_graph(poset)
        assert str(info.value) == (
            "7-cell 's0_1_2_3_4_5_6_7' lies in 1 of the 8-cells, expected 2"
        )


class TestIntervals:
    """Every interval from a (k-1)-cell to a (k+1)-cell holds two k-cells."""

    def test_cell_outside_every_full_flag_refused(self):
        p = edited(sphere_poset(4), add=GAP_CELL)
        with pytest.raises(NotCombinatorialManifold) as info:
            dual_colored_graph(p)
        assert str(info.value) == (
            "between 1-cell 'c1_3' and 3-cell 'c3_1' lie 0 2-cells, expected 2"
        )
        with pytest.raises(NotCombinatorialManifold, match="extends to 0 full flags"):
            one_short_dual(p)

    def test_third_cell_in_an_interval_refused(self):
        p = edited(sphere_poset(4), add=THIRD_CELL)
        with pytest.raises(NotCombinatorialManifold) as info:
            dual_colored_graph(p)
        assert str(info.value) == (
            "between 1-cell 'c1_1' and 3-cell 'c3_1' lie 3 2-cells, expected 2"
        )
        with pytest.raises(NotCombinatorialManifold, match="extends to 3 full flags"):
            one_short_dual(p)

    def test_cell_outside_every_one_short_flag_refused(self):
        # a 2-cell bounded by one 1-cell and lying only in the 5-cells: no
        # one-short flag passes through it, so the listing accepted the
        # poset and dualized it to the 6-cube
        p = edited(sphere_poset(5), add=("c2_3", 2, ["c1_1"], ["c5_1"]))
        assert one_short_dual(p) == dual_colored_graph(sphere_poset(5))
        with pytest.raises(NotCombinatorialManifold) as info:
            dual_colored_graph(p)
        assert str(info.value) == (
            "between 0-cell 'c0_1' and 2-cell 'c2_3' lie 1 1-cells, expected 2"
        )


def _subset(draw, cells: list[str]) -> list[str]:
    return draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))


@st.composite
def perturbed_spheres(draw) -> FacePoset:
    """sphere_poset(3..5) with one cell of dimension 1..n-1 dropped or added."""
    n = draw(st.integers(3, 5))
    d = draw(st.integers(1, n - 1))
    if draw(st.booleans()):
        return edited(sphere_poset(n), drop=f"c{d}_{draw(st.sampled_from((1, 2)))}")
    below = [
        c for dd in range(d)
        for c in (["c0_1", "c0_2"] if d == 1 else _subset(draw, [f"c{dd}_1", f"c{dd}_2"]))
    ]
    above = _subset(draw, [f"c{dd}_{s}" for dd in range(d + 1, n + 1) for s in (1, 2)])
    return edited(sphere_poset(n), add=(f"c{d}_3", d, below, above))


def _refused_or_dual(dualize, poset: FacePoset):
    try:
        return dualize(poset)
    except NotCombinatorialManifold as exc:
        return exc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(perturbed_spheres())
def test_perturbed_spheres_match_the_oracle(poset):
    oracle = _refused_or_dual(one_short_dual, poset)
    dual = _refused_or_dual(dual_colored_graph, poset)
    if isinstance(oracle, NotCombinatorialManifold):
        assert isinstance(dual, NotCombinatorialManifold)
    elif not isinstance(dual, NotCombinatorialManifold):
        assert dual == oracle


def _stirling2(n: int, k: int) -> int:
    """Partitions of n labelled items into k nonempty blocks."""
    row = [1] + [0] * k  # S(0, j)
    for i in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


class TestLargeFamilies:
    @pytest.mark.parametrize("k", [9, 10])
    def test_simplex_boundary_chain_census(self, k):
        # chains of j proper faces of the k-simplex are ordered partitions of
        # its n+2 vertices into j+1 blocks; listing them runs out of memory
        n = k - 1
        assert predicted_complex(simplex_boundary(k)) == tuple(
            factorial(n - m + 2) * _stirling2(n + 2, n - m + 2) for m in range(n + 1)
        )

    @pytest.mark.parametrize("k", [5, 6])
    def test_simplex_boundary_nest_census(self, k):
        poset = simplex_boundary(k)
        assert predicted_complex(poset) == NestIndex(dual_colored_graph(poset)).counts()


def check_nests_are_chains(poset: FacePoset) -> None:
    """The dual's nests against the poset's chains, with no nest index.

    Vertex i of the dual is the i-th sorted full flag.  A k-nest colored by
    the k units x_d, d in S, must be exactly the flags that agree outside
    S, so nests map one to one onto chains of n-k+1 cells (a flag without
    its cells of dimension in S).  A nest lies in another exactly when its
    chain holds the other's chain.
    """
    n = poset.top_dim
    full = flags(poset).full
    index = NestIndex(dual_colored_graph(poset))
    chains = []
    for k in range(n + 1):
        grouped: dict[tuple[int, ...], list[int]] = {}
        for unit_set in combinations(range(n + 1), k):
            for i, flag in enumerate(full):
                kept = tuple(c for d, c in enumerate(flag) if d not in unit_set)
                grouped.setdefault(kept, []).append(i)
        found = {}
        for nest in index.nests(k):
            units = [d for d in range(n + 1) if nest.color.contains_mask(1 << d)]
            assert len(units) == k
            kept = tuple(c for d, c in enumerate(full[nest.vertex_ids[0]]) if d not in units)
            assert kept not in found
            assert list(nest.vertex_ids) == grouped[kept]
            found[kept] = nest
        assert sorted(found) == _chains_of_length(poset, n - k + 1)
        chains.append([frozenset(kept) for kept in found])
    for k in range(n + 1):
        for nest, chain in zip(index.nests(k), chains[k]):
            for j in range(k):
                assert index.within(nest, j) == tuple(
                    i for i, lower in enumerate(chains[j]) if chain < lower
                )


@pytest.mark.parametrize(
    "poset_factory",
    [
        *(lambda m=m: FacePoset.from_simplices(gale_facets(m)) for m in (6, 7, 8)),
        *(lambda k=k: simplex_boundary(k) for k in (2, 3, 4, 5)),
        lambda: FacePoset.from_simplices(torus7_simplices()),
        sphere_times_circle,
    ],
    ids=["C(6,4)", "C(7,4)", "C(8,4)", "S1", "S2", "S3", "S4", "torus7", "S2 x S1"],
)
def test_nests_of_the_dual_are_chains(poset_factory):
    check_nests_are_chains(poset_factory())


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_connected_sums_of_sphere_times_circle(k):
    # each summand adds one handle: b1 = b2 = k on 96k flags
    total = dual_colored_graph(sphere_times_circle())
    for _ in range(k - 1):
        piece = dual_colored_graph(sphere_times_circle())
        edge = next(e for e in range(piece.edge_count) if piece.color(e) == total.color(0))
        total = connected_sum(total, 0, piece, edge)
    assert total.vertex_count == 96 * k
    outcome = full_expand(total)
    assert outcome.completed
    assert homology_mod2(outcome.complex).betti_mod2 == (1, k, k, 1)
