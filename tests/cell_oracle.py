"""A complex read cell by cell, for the test oracles.

``CellComplex`` holds nests and face lists per dimension and builds no
per-cell object; the oracles read it as one ``Cell`` row per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from skelex.expansion import CellComplex
from skelex.nests import Nest


@dataclass(frozen=True, slots=True)
class Cell:
    dim: int
    index: int
    nest: Nest
    faces: tuple[int, ...]  # indices of (dim-1)-cells in this cell's boundary


def cells_by_dim(c: CellComplex) -> list[list[Cell]]:
    """One ``Cell`` per cell of ``c``, per dimension."""
    return [
        [Cell(k, i, nest, faces) for i, (nest, faces) in enumerate(zip(nests, c.faces(k)))]
        for k, nests in enumerate(c.nests)
    ]
