"""Error surfaces and small edge cases across the modules."""

from __future__ import annotations

import pytest

from skelex.classify import classify_surface, homology_mod2
from skelex.duality import FacePoset, parse_poset
from skelex.errors import DimensionMismatch, FormatError, SkelexError
from skelex.expansion import CellComplex, expand2, full_expand
from skelex.generators import gen_cube
from skelex.gf2 import ColorVector, intersect, span
from skelex.graph import ColoredGraph, parse, validate
from skelex.nests import Nest, NestIndex, nest_label

from graph_helpers import color_isomorphic, connected_sum
from rank_oracle import boundary_matrix, rank_gf2


class TestVectorConstruction:
    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            ColorVector(0, 0)

    def test_mask_overflow_rejected(self):
        with pytest.raises(ValueError):
            ColorVector(0b1000, 3)

    def test_unit_out_of_range(self):
        with pytest.raises(ValueError):
            ColorVector.unit(3, 3)

    def test_span_width_conflicts_with_vectors(self):
        with pytest.raises(DimensionMismatch):
            span([ColorVector.from_string("100")], width=4)

    def test_subspace_comparison_needs_equal_width(self):
        with pytest.raises(DimensionMismatch):
            span([], width=3) <= span([], width=4)

    def test_intersect_width_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect(span([], width=3), span([], width=4))

    def test_rank_rejects_non_binary(self):
        with pytest.raises(ValueError):
            rank_gf2([[0, 2]])


class TestGraphEdges:
    def test_n_zero_reported(self):
        g = ColoredGraph(0, 1, ((0, 0, ColorVector.from_string("1")),))
        report = validate(g)
        assert not report.ok
        assert any("n must be" in p for p in report.problems)

    def test_endpoint_out_of_range_reported(self):
        g = ColoredGraph(2, 2, ((0, 5, ColorVector.from_string("100")),))
        assert any("out of range" in p for p in validate(g).problems)

    def test_unknown_crossing(self):
        a, b = gen_cube(2), gen_cube(2)
        with pytest.raises(ValueError):
            connected_sum(a, 0, b, 0, crossing="sideways")

    def test_isomorphism_size_mismatch(self):
        assert not color_isomorphic(gen_cube(2), gen_cube(3))

    def test_parse_type_errors(self):
        with pytest.raises(FormatError):
            parse('{"n": "2", "vertices": 8, "edges": []}')
        with pytest.raises(FormatError):
            parse('{"n": 2, "vertices": 8, "edges": {}}')
        with pytest.raises(FormatError):
            parse('{"n": 2, "vertices": 8, "edges": [[0, 1]]}')
        with pytest.raises(FormatError):
            parse('[1, 2, 3]')


class TestNestEdges:
    def test_vertex_nest_label(self, cube2):
        nest = NestIndex(cube2).nests(0)[0]
        assert nest_label(nest) == "1"

    def test_mixed_basis_factor_label(self):
        color = span([ColorVector.from_string("110")])
        nest = Nest((0,), (0, 1), color)
        assert nest_label(nest) == "(x0+x1)"


class TestComplexEdges:
    def test_boundary_matrix_range(self, cube2):
        c = expand2(cube2)
        with pytest.raises(ValueError):
            boundary_matrix(c, 0)
        with pytest.raises(ValueError):
            boundary_matrix(c, 3)

    def test_classify_needs_two_complex(self, cube3):
        with pytest.raises(SkelexError):
            classify_surface(full_expand(cube3).complex)

    def test_homology_rejects_broken_boundaries(self, cube2):
        c = expand2(cube2)
        # corrupt one disc's face list so the composite map misses an edge
        discs = list(c.faces(2))
        discs[0] = discs[0][:-1]
        broken = CellComplex(c.graph, c.nests, [c.faces(0), c.faces(1), discs])
        assert not broken.boundary_condition_holds()
        with pytest.raises(SkelexError):
            homology_mod2(broken)


class TestPosetEdges:
    def test_cycle_detected(self):
        with pytest.raises(FormatError):
            FacePoset({"a": 0, "b": 1}, {"a": {"b"}, "b": {"a"}})

    def test_empty_simplices(self):
        with pytest.raises(FormatError):
            FacePoset.from_simplices([])

    def test_mixed_simplex_sizes(self):
        with pytest.raises(FormatError):
            FacePoset.from_simplices([[0, 1, 2], [3, 4]])

    def test_degenerate_simplex(self):
        with pytest.raises(FormatError):
            FacePoset.from_simplices([[0, 0, 1]])

    def test_impure_poset(self):
        with pytest.raises(FormatError):
            FacePoset(
                {"v": 0, "w": 0, "e": 1},
                {"v": set(), "w": set(), "e": {"v"}},
            )

    def test_malformed_cells_entry(self):
        with pytest.raises(FormatError):
            parse_poset('{"top_dim": 0, "cells": [["v", 0]]}')
        with pytest.raises(FormatError):
            parse_poset('{"simplices": [[0, "x"]]}')
