"""Exact linear algebra over GF(2) for edge colors, spans and ranks.

A color is a vector with coordinates over the basis x0..xn, held as a
plain integer bit mask whose bit i is the coefficient of x_i; its width
n+1 is kept by the graph or subspace it belongs to.  Color strings are
written with x0 leftmost, so "0110" means x1 + x2; ``parse_color`` and
``color_text`` are the only converters between the two.  Subspaces keep
a canonical reduced row echelon basis (pivot columns ascending), making
subspace equality plain sequence equality.

All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatch


def parse_color(text: str) -> int:
    """The mask of a '0'/'1' color string, leftmost character = x0 coefficient."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"color literal must be a nonempty 0/1 string, got {text!r}")
    return int(text[::-1], 2)


def color_text(mask: int, width: int) -> str:
    """The '0'/'1' string of a color of GF(2)^width, x0 coefficient leftmost."""
    if width < 1 or not 0 <= mask < 1 << width:
        raise ValueError(f"mask {mask:#b} does not fit width {width}")
    return format(mask, f"0{width}b")[::-1]


def _pivot(mask: int) -> int:
    """Lowest set bit; the pivot column of a reduced row."""
    return mask & -mask


def _reduce_mask(mask: int, basis: Sequence[int]) -> int:
    """Reduce ``mask`` against a reduced-echelon basis (pivots ascending)."""
    for row in basis:
        if mask & _pivot(row):
            mask ^= row
    return mask


def _rref(masks: Iterable[int]) -> tuple[int, ...]:
    """Canonical reduced row echelon basis of the span of ``masks``."""
    basis: list[int] = []
    for mask in masks:
        reduced = _reduce_mask(mask, basis)
        if reduced == 0:
            continue
        piv = _pivot(reduced)
        basis = [row ^ reduced if row & piv else row for row in basis]
        basis.append(reduced)
        basis.sort(key=_pivot)
    return tuple(basis)


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(2)^width with its canonical reduced basis.

    Two Subspaces are equal iff their canonical bases are identical, so the
    dataclass equality/hash is the subspace equality.
    """

    basis: tuple[int, ...]
    width: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_mask(self, mask: int) -> bool:
        return _reduce_mask(mask, self.basis) == 0

    def __le__(self, other: "Subspace") -> bool:
        if self.width != other.width:
            raise DimensionMismatch(
                f"cannot compare subspaces of widths {self.width} and {other.width}"
            )
        return all(other.contains_mask(m) for m in self.basis)

    def __str__(self) -> str:
        if not self.basis:
            return "Span()"
        return "Span(" + ", ".join(color_text(m, self.width) for m in self.basis) + ")"


def span(masks: Iterable[int], width: int) -> Subspace:
    """Canonical subspace of GF(2)^width spanned by the color ``masks``."""
    return Subspace(_rref(masks), width)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Canonical basis of s1 and s2's intersection (Zassenhaus over GF(2)).

    Rows [a | a] for a in s1 and [b | 0] for b in s2 are reduced together;
    rows whose left block vanished carry the intersection in the right block.
    """
    if s1.width != s2.width:
        raise DimensionMismatch(
            f"cannot intersect subspaces of widths {s1.width} and {s2.width}"
        )
    w = s1.width
    combined = [m | (m << w) for m in s1.basis] + list(s2.basis)
    low = (1 << w) - 1
    inter = [row >> w for row in _rref(combined) if (row & low) == 0]
    return Subspace(_rref(inter), w)


def rank_masks(columns: Iterable[int]) -> int:
    """Rank over GF(2) of vectors given as bit masks, e.g. boundary columns.

    Each kept vector is filed under its highest set bit; a new vector is
    reduced against the filed ones until it vanishes or lands on a free bit.
    Unlike ``_rref`` nothing is back-substituted or re-sorted, so the cost
    stays near the fill of the matrix on chain complexes with many rows.
    """
    pivots: dict[int, int] = {}
    for mask in columns:
        while mask:
            top = mask.bit_length() - 1
            row = pivots.get(top)
            if row is None:
                pivots[top] = mask
                break
            mask ^= row
    return len(pivots)


def null_space(row_masks: Sequence[int], width: int) -> tuple[int, ...]:
    """Canonical basis of {t : every row has even overlap with t}.

    Rows are functionals over the dual pairing x_i(t_j) = delta_ij, so a
    vector t is in the kernel iff popcount(row & t) is even for every row.
    """
    basis = _rref(row_masks)
    pivots = [_pivot(row).bit_length() - 1 for row in basis]
    pivot_set = set(pivots)
    kernel = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = 1 << free
        for p, row in zip(pivots, basis):
            if (row >> free) & 1:
                vec |= 1 << p
        kernel.append(vec)
    return _rref(kernel)
