"""A complex read cell by cell, and its coface relation, for the test oracles.

``CellComplex`` holds nests and face lists per dimension and builds no
per-cell object; the oracles read it as one ``Cell`` row per cell, and
read each cell's cofaces off the face lists one dimension up.
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


def cofaces(c: CellComplex, k: int) -> tuple[tuple[int, ...], ...]:
    """For each k-cell of ``c``, the (k+1)-cells having it as a face, ascending."""
    out: list[list[int]] = [[] for _ in c.nests[k]]
    if k + 1 <= c.top_dim:
        for i, faces in enumerate(c.faces(k + 1)):
            for f in faces:
                out[f].append(i)
    return tuple(map(tuple, out))
