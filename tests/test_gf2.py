"""GF(2) primitives: color strings, spans, membership, congruence, intersection, rank."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from skelex.errors import DimensionMismatch
from skelex.gf2 import color_text, intersect, null_space, parse_color, span

from goodness_oracle import InvalidModulus, congruent_mod
from rank_oracle import contains, rank_gf2


def v(text: str) -> int:
    return parse_color(text)


class TestColorVector:
    """A color is an int mask; its string is written with x0 leftmost."""

    def test_string_roundtrip(self):
        assert color_text(v("0110"), 4) == "0110"
        assert v("100") == 0b001  # leftmost char is the x0 coefficient
        assert v("001") == 0b100
        for width in range(1, 11):
            for mask in range(1 << width):
                text = "".join("1" if (mask >> i) & 1 else "0" for i in range(width))
                assert color_text(mask, width) == text
                assert parse_color(text) == mask

    def test_addition_is_xor(self):
        assert v("110") ^ v("011") == v("101")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_color("01x")
        with pytest.raises(ValueError):
            parse_color("")


class TestSpan:
    def test_independent_unit_vectors(self):
        s = span([v("1000"), v("0100")], 4)
        assert s.dim == 2
        assert s.basis == (0b0001, 0b0010)

    def test_dependent_triple(self):
        assert span([v("110"), v("011"), v("101")], 3).dim == 2

    def test_empty_span(self):
        assert span([], 3).dim == 0

    def test_empty_span_needs_width(self):
        with pytest.raises(TypeError):
            span([])

    def test_canonical_equality(self):
        # Span(x0, x0+x1) == Span(x0, x1) as sequences of canonical rows
        assert span([v("100"), v("110")], 3) == span([v("100"), v("010")], 3)


class TestContains:
    def test_member(self):
        assert contains(span([v("100"), v("010")], 3), v("110"))

    def test_non_member(self):
        assert not contains(span([v("100"), v("010")], 3), v("001"))

    def test_zero_in_trivial_space(self):
        assert contains(span([], 3), v("000"))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(span([v("100")], 3), v("0001"))  # needs a fourth bit


class TestCongruence:
    def test_difference_is_modulus(self):
        assert congruent_mod(v("100"), v("110"), v("010"))

    def test_unrelated(self):
        assert not congruent_mod(v("100"), v("001"), v("010"))

    def test_identity(self):
        assert congruent_mod(v("100"), v("100"), v("010"))

    def test_zero_modulus_rejected(self):
        with pytest.raises(InvalidModulus):
            congruent_mod(v("100"), v("100"), v("000"))


class TestIntersect:
    def test_planes_meet_in_line(self):
        s = intersect(span([v("100"), v("010")], 3), span([v("010"), v("001")], 3))
        assert s == span([v("010")], 3)

    def test_idempotent(self):
        s = span([v("100"), v("010")], 3)
        assert intersect(s, s) == s

    def test_skew_lines(self):
        assert intersect(span([v("100")], 3), span([v("010")], 3)).dim == 0

    def test_dimension_formula(self):
        s1 = span([v("1000"), v("0110")], 4)
        s2 = span([v("0110"), v("0001")], 4)
        total = span(s1.basis + s2.basis, 4)
        inter = intersect(s1, s2)
        assert inter.dim == s1.dim + s2.dim - total.dim


class TestRank:
    def test_identity(self):
        assert rank_gf2([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_zero(self):
        assert rank_gf2([[0, 0], [0, 0]]) == 0

    def test_empty(self):
        assert rank_gf2([]) == 0

    def test_k4_disc_boundary_matrix(self):
        # edge-by-disc matrix of the complete-graph projective plane; each
        # edge lies on exactly two of the three circles, so the columns sum
        # to zero and the rank is 2 (checked by hand row reduction)
        matrix = [
            [0, 1, 1],
            [1, 1, 0],
            [1, 0, 1],
            [1, 0, 1],
            [1, 1, 0],
            [0, 1, 1],
        ]
        assert rank_gf2(matrix) == 2

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            rank_gf2([[1, 0], [1]])


class TestNullSpace:
    def test_coordinate_functional(self):
        # kernel of x0 on GF(2)^3 is spanned by t1, t2
        assert null_space([0b001], 3) == (0b010, 0b100)

    def test_full_kernel(self):
        assert null_space([], 3) == (0b001, 0b010, 0b100)

    def test_orthogonality(self):
        rows = [0b011, 0b110]
        for k in null_space(rows, 3):
            for r in rows:
                assert bin(k & r).count("1") % 2 == 0


binary_matrix = st.integers(1, 5).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
        min_size=1,
        max_size=5,
    )
)

vectors_3 = st.lists(st.integers(0, 7), max_size=5)


@given(binary_matrix)
def test_rank_equals_transpose_rank(matrix):
    transpose = [list(col) for col in zip(*matrix)]
    assert rank_gf2(matrix) == rank_gf2(transpose)


@given(vectors_3)
def test_span_idempotent(vs):
    s = span(vs, 3)
    assert span(s.basis, 3) == s


@given(vectors_3)
def test_span_contains_generators(vs):
    s = span(vs, 3)
    assert all(contains(s, x) for x in vs)


@given(vectors_3, vectors_3)
def test_intersect_commutes_with_dimension_formula(a, b):
    s1, s2 = span(a, 3), span(b, 3)
    left = intersect(s1, s2)
    assert left == intersect(s2, s1)
    total = span(s1.basis + s2.basis, 3)
    assert left.dim == s1.dim + s2.dim - total.dim
