"""Identify the manifold an expansion produced.

Surfaces are classified exactly: orientability is decided by searching a
disc-orientation assignment in which the two traversals of every shared
edge disagree (a parity walk on ``graph.reach`` over the discs and their
two sides), and the genus falls out of the Euler characteristic.  For
3-complexes only mod-2 homology is computed; homology alone cannot name a
3-manifold and the report says so.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SkelexError
from .expansion import CellComplex
from .gf2 import rank_masks
from .graph import ColoredGraph, reach
from .nests import Nest


@dataclass(frozen=True)
class SurfaceReport:
    orientable: bool
    euler: int
    genus: int
    name: str


@dataclass(frozen=True)
class HomologyReport:
    betti_mod2: tuple[int, ...]
    euler: int
    note: str = ""


def _circle_traversal(graph: ColoredGraph, nest: Nest) -> list[tuple[int, bool]]:
    """Walk the circle nest once; True means the edge is crossed u -> v.

    The nest must be an embedded circle (each of its vertices meets exactly
    two of its edges); double edges between two vertices are handled by
    tracking edge ids rather than endpoints.
    """
    by_vertex: dict[int, list[int]] = {v: [] for v in nest.vertex_ids}
    for e in nest.edge_ids:
        for v in graph.ends(e):
            by_vertex[v].append(e)
    start_vertex = nest.vertex_ids[0]
    first = min(by_vertex[start_vertex])
    walk: list[tuple[int, bool]] = []
    vertex, edge = start_vertex, first
    while True:
        u, v = graph.ends(edge)
        forward = vertex == u
        walk.append((edge, forward))
        vertex = v if forward else u
        nxt = [e for e in by_vertex[vertex] if e != edge]
        if len(nxt) != 1:
            raise SkelexError(
                f"nest {nest.edge_ids} is not an embedded circle at vertex {vertex}"
            )
        edge = nxt[0]
        if vertex == start_vertex and edge == first:
            break
    if len(walk) != len(nest.edge_ids):
        raise SkelexError(f"nest {nest.edge_ids} walk missed edges")
    return walk


def classify_surface(c: CellComplex) -> SurfaceReport:
    """Exact classification of a closed surface complex.

    Requires a 2-dimensional complex in which every edge lies in exactly
    two discs.  A connected closed surface with Euler characteristic 2 must
    be orientable; hitting the opposite would be an internal inconsistency
    and is asserted fatally.
    """
    if c.top_dim != 2:
        raise SkelexError(f"surface classification needs a 2-complex, got dim {c.top_dim}")
    discs_at = c.cofaces(1)
    for i, discs in enumerate(discs_at):
        if len(discs) != 2:
            raise SkelexError(
                f"not a closed surface complex: edge {i} lies in {len(discs)} discs"
            )

    # orientation: two discs sharing edge e must traverse it oppositely, so
    # their sides differ across e by 1 ^ t_a[e] ^ t_b[e], t being their
    # traversal directions.  A walk over (disc, side) from one side of each
    # component reaches each of its discs once exactly when consistent
    # sides exist, and twice otherwise.
    cells = c.cells_by_dim
    traversals = [dict(_circle_traversal(c.graph, disc.nest)) for disc in cells[2]]

    def sides(x: tuple[int, int]) -> list[tuple[int, int]]:
        d, side = x
        return [
            (b, side ^ 1 ^ traversals[d][e] ^ traversals[b][e])
            for i in cells[2][d].faces
            for e in cells[1][i].nest.edge_ids
            for b in discs_at[i] if b != d
        ]

    sided: set[tuple[int, int]] = set()
    for d in range(len(cells[2])):
        if (d, 0) not in sided and (d, 1) not in sided:
            sided.update(reach((d, 0), sides))
    orientable = len(sided) == len(cells[2])

    return surface_report(c.euler(), orientable)


def surface_report(chi: int, orientable: bool) -> SurfaceReport:
    """Genus and name of the closed connected surface with this Euler
    characteristic and orientability.

    An orientable surface has even Euler characteristic, and a surface
    with Euler characteristic 2 is the orientable sphere; a caller that
    found otherwise counted wrong, and this refuses or asserts fatally.
    """
    if orientable:
        if (2 - chi) % 2:
            raise SkelexError(f"orientable surface with odd 2-chi: {chi}")
        genus = (2 - chi) // 2
    else:
        genus = 2 - chi
    assert not (chi == 2 and not orientable), (
        "a closed connected surface with euler characteristic 2 failed the"
        " orientation pass; internal inconsistency"
    )
    if genus == 0:
        name = "S2"
    elif orientable:
        name = f"gT2({genus})"
    else:
        name = f"kP2({genus})"
    return SurfaceReport(orientable, chi, genus, name)


def _boundary_column(faces: tuple[int, ...]) -> int:
    mask = 0
    for f in faces:
        mask |= 1 << f
    return mask


def homology_mod2(c: CellComplex) -> HomologyReport:
    """Mod-2 Betti numbers from the ranks of the boundary maps.

    Column k of the boundary map is a bit mask of the cell's face list.
    """
    if not c.boundary_condition_holds():
        raise SkelexError("boundary condition violated: composite maps not zero")
    top = c.top_dim
    counts = c.counts()
    ranks = [0] * (top + 2)  # ranks[k] = rank of the k-th boundary map
    for k in range(1, top + 1):
        ranks[k] = rank_masks(_boundary_column(cell.faces) for cell in c.cells_by_dim[k])
    betti = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(top + 1))
    chi = c.euler()
    alt = sum((-1) ** i * b for i, b in enumerate(betti))
    if alt != chi:
        raise SkelexError(
            f"euler characteristic {chi} disagrees with betti alternating sum {alt}"
        )
    note = ""
    if top == 3:
        note = (
            "mod-2 homology does not determine a 3-manifold up to"
            " homeomorphism; no finer classification is attempted"
        )
    return HomologyReport(betti, chi, note)
