"""The local manifold check of a completed expansion, kept as a test oracle.

``manifold_local_check`` reads a cell complex's coface relation and its
nests: every (top-1)-cell in two top cells, and around every vertex one
k-cell per k-subset of its edges.  No pipeline step needs it, since the
expansion builds cells that satisfy it, so tests run it on the families
the library generates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from skelex.expansion import CellComplex

from cell_oracle import Cell, cells_by_dim, cofaces


@dataclass(frozen=True)
class LocalCheckReport:
    ok: bool
    problems: tuple[str, ...]


def manifold_local_check(c: CellComplex) -> LocalCheckReport:
    """Combinatorial local conditions of a completed expansion.

    Every (top-1)-cell must lie in exactly two top cells, and around every
    vertex the incident cells must pair off with the subsets of its edges:
    one k-cell per k-subset of the n+1 edges at the vertex.
    """
    problems: list[str] = []
    top = c.top_dim
    for i, tops in enumerate(cofaces(c, top - 1)):
        if len(tops) != 2:
            problems.append(
                f"{top - 1}-cell {i} lies in {len(tops)} top cells (expected 2)"
            )

    g = c.graph
    # the k-cells at each vertex, gathered in one pass per dimension
    cells = cells_by_dim(c)
    at_vertex: list[list[list[Cell]]] = [[]]
    for k in range(1, top + 1):
        at_vertex.append([[] for _ in range(g.vertex_count)])
        for cell in cells[k]:
            for v in cell.nest.vertex_ids:
                at_vertex[k][v].append(cell)
    for v, at in enumerate(g.arcs()):
        star = {e for e, _, _ in at}
        for k in range(1, top + 1):
            incident = at_vertex[k][v]
            expected = comb(len(star), k)
            if len(incident) != expected:
                problems.append(
                    f"vertex {v}: {len(incident)} incident {k}-cells,"
                    f" expected {expected}"
                )
                continue
            seen_subsets = set()
            for cell in incident:
                subset = frozenset(cell.nest.edge_ids) & frozenset(star)
                if len(subset) != k:
                    problems.append(
                        f"vertex {v}: {k}-cell {cell.index} meets it in"
                        f" {len(subset)} edges"
                    )
                seen_subsets.add(subset)
            if len(seen_subsets) != expected:
                problems.append(
                    f"vertex {v}: edge subsets of {k}-cells not distinct"
                )
    return LocalCheckReport(not problems, tuple(problems))
