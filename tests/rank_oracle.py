"""The reference ranks: dense 0/1 boundary matrices and their GF(2) rank.

``homology_mod2`` ranks each boundary map from bit-mask columns of the
cells' face lists with ``gf2.rank_masks``; tests compare it with
``rank_gf2`` on ``boundary_matrix``.  ``contains`` is the width-checked
membership test that ``Subspace.contains_mask`` answers in the package.
"""

from __future__ import annotations

from typing import Sequence

from skelex.errors import DimensionMismatch
from skelex.expansion import CellComplex
from skelex.gf2 import Subspace, _rref


def rank_gf2(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over GF(2) of a rectangular 0/1 matrix (0 for an empty one)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows: all matrix rows must have equal length")
    if any(e not in (0, 1) for r in rows for e in r):
        raise ValueError("matrix entries must be 0 or 1")
    masks = (sum(bit << i for i, bit in enumerate(r)) for r in rows)
    return len(_rref(masks))


def contains(s: Subspace, mask: int) -> bool:
    """Membership test: does ``mask`` reduce to zero against the basis of ``s``?"""
    if not 0 <= mask < 1 << s.width:
        raise DimensionMismatch(f"mask {mask:#b} does not fit subspace width {s.width}")
    return s.contains_mask(mask)


def boundary_matrix(c: CellComplex, k: int) -> list[list[int]]:
    """The matrix of the boundary map from k-cells to (k-1)-cells.

    Rows are (k-1)-cells, columns k-cells, entries in {0, 1}.
    """
    if not 1 <= k <= c.top_dim:
        raise ValueError(f"boundary matrix index {k} outside 1..{c.top_dim}")
    matrix = [[0] * len(c.nests[k]) for _ in c.nests[k - 1]]
    for i, faces in enumerate(c.faces(k)):
        for f in faces:
            matrix[f][i] = 1
    return matrix
