"""The per-nest sphere check kept as a test oracle.

Before the counting criterion was known to decide n=3 on its own, every
3-nest's boundary subcomplex was built and checked to be a 2-sphere: a
closed surface (every edge in two discs, every vertex link a circle) with
Euler characteristic 2, cross-checked by surface classification.  The
tests compare ``criterion_3d`` and its witness with this check.
"""

from __future__ import annotations

from dataclasses import dataclass

from skelex.classify import classify_surface
from skelex.errors import UnsupportedDimension
from skelex.expansion import Cell, CellComplex
from skelex.graph import reach
from skelex.nests import Nest

from graph_helpers import cycle_fault


def _subcomplex(complex: CellComplex, keep: list[set[int]]) -> CellComplex:
    """The subcomplex on the selected cell indices, reindexed per dimension."""
    top = max((k for k, s in enumerate(keep) if s), default=0)
    remap: list[dict[int, int]] = []
    new_cells: list[list[Cell]] = []
    for k in range(top + 1):
        indices = sorted(keep[k]) if k < len(keep) else []
        remap.append({old: new for new, old in enumerate(indices)})
        cells = []
        for new, old in enumerate(indices):
            cell = complex.cells_by_dim[k][old]
            faces = tuple(remap[k - 1][f] for f in cell.faces) if k else ()
            cells.append(Cell(k, new, cell.nest, faces))
        new_cells.append(cells)
    return CellComplex(complex.graph, new_cells)


def boundary_sphere_complex(complex: CellComplex, nest: Nest) -> CellComplex:
    """The union of all cells whose nest is a subgraph of the given nest.

    ``complex`` must be the (k)-skeleton read from a nest index (as
    ``expand2`` builds it) and ``nest`` a (k+1)-nest; the result is the
    candidate boundary sphere for the cell the nest defines.
    """
    if nest.dim != complex.top_dim + 1:
        raise ValueError(
            f"nest dimension {nest.dim} does not extend a"
            f" {complex.top_dim}-skeleton"
        )
    if complex.index is None:
        raise ValueError("boundary complexes need a skeleton read from a nest index")
    keep = [set(complex.index.within(nest, k)) for k in range(complex.top_dim + 1)]
    return _subcomplex(complex, keep)


@dataclass(frozen=True)
class SphereCheck:
    ok: bool
    reason: str


def sphere_check(F: CellComplex, k: int) -> SphereCheck:
    """Recognize circles (k=1) and 2-spheres (k=2); nothing higher.

    k=1: connected with every vertex in exactly two edges.  k=2: a closed
    surface (every edge in exactly two discs, every vertex link a circle)
    whose Euler characteristic is 2; by surface classification that pins
    the 2-sphere.
    """
    if k not in (1, 2):
        raise UnsupportedDimension(
            f"sphere recognition supports k in {{1, 2}}, got {k}"
        )
    if F.top_dim < k:
        return SphereCheck(False, f"complex has no {k}-cells")
    vertices = range(len(F.cells_by_dim[0]))
    edges_at = F.cofaces(0)
    edges = F.cells_by_dim[1]
    arcs = [[w for e in edges_at[v] for w in edges[e].faces if w != v] for v in vertices]
    if not vertices or sum(1 for _ in reach(0, arcs.__getitem__)) != len(vertices):
        return SphereCheck(False, "not connected")
    if k == 1:
        fault = cycle_fault(vertices, arcs)
        if fault is not None:
            v = fault[1]
            return SphereCheck(False, f"vertex {v} lies in {len(edges_at[v])} edges")
        return SphereCheck(True, "circle")

    discs_at = F.cofaces(1)
    for i, discs in enumerate(discs_at):
        if len(discs) != 2:
            return SphereCheck(False, f"edge {i} lies in {len(discs)} discs")
    link_bad = _vertex_link_failures(F)
    if link_bad is not None:
        return SphereCheck(False, link_bad)
    chi = F.euler()
    if chi != 2:
        return SphereCheck(False, f"closed surface with euler characteristic {chi}")
    # cross-check: a closed connected surface with this characteristic must
    # pass the orientation pass; classify_surface asserts fatally otherwise
    classify_surface(F)
    return SphereCheck(True, "2-sphere")


def _vertex_link_failures(F: CellComplex) -> str | None:
    """Check each vertex link is a single circle; return a diagnosis or None.

    The link graph at v has a node per edge at v and an arc per disc at v
    joining the two boundary edges of that disc through v.  The discs at v
    are the cofaces of its edges.
    """
    edges_at, discs_at = F.cofaces(0), F.cofaces(1)
    edges, discs = F.cells_by_dim[1], F.cells_by_dim[2]
    for vcell in F.cells_by_dim[0]:
        v = vcell.nest.vertex_ids[0]
        local_edges = edges_at[vcell.index]
        arcs: dict[int, list[int]] = {e: [] for e in local_edges}
        for d in sorted({d for e in local_edges for d in discs_at[e]}):
            through = [e for e in discs[d].faces if vcell.index in edges[e].faces]
            if len(through) != 2:
                return f"disc {d} passes vertex {v} through {len(through)} edges"
            a, b = through
            arcs[a].append(b)
            arcs[b].append(a)
        # the link must be one closed cycle through all local edges
        fault = cycle_fault(local_edges, arcs)
        if fault is None:
            continue
        why, e = fault
        if why == "empty":
            return f"vertex {v} has no incident edges in the subcomplex"
        if why == "degree":
            return f"link of vertex {v} is not 2-regular at edge {e}"
        return f"link of vertex {v} is disconnected"
    return None
