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
from typing import Sequence

from .errors import SkelexError
from .expansion import CellComplex
from .gf2 import rank_masks
from .graph import reach


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


def _circle_traversal(
    ends: Sequence[tuple[int, ...]], edges: tuple[int, ...]
) -> dict[int, bool]:
    """Walk the circle on ``edges`` once; True means edge e is crossed from
    ``ends[e][0]`` to ``ends[e][1]``.

    The edges must form an embedded circle (each of their ends meets
    exactly two of them); double edges between two vertices are handled by
    tracking edge ids rather than endpoints.
    """
    by_vertex: dict[int, list[int]] = {}
    for e in edges:
        for v in ends[e]:
            by_vertex.setdefault(v, []).append(e)
    start_vertex = min(by_vertex)
    first = min(by_vertex[start_vertex])
    walk: dict[int, bool] = {}
    vertex, edge = start_vertex, first
    while True:
        u, v = ends[edge]
        forward = vertex == u
        walk[edge] = forward
        vertex = v if forward else u
        nxt = [e for e in by_vertex[vertex] if e != edge]
        if len(nxt) != 1:
            raise SkelexError(
                f"nest {edges} is not an embedded circle at vertex {vertex}"
            )
        edge = nxt[0]
        if vertex == start_vertex and edge == first:
            break
    if len(walk) != len(edges):
        raise SkelexError(f"nest {edges} walk missed edges")
    return walk


def classify_surface(c: CellComplex) -> SurfaceReport:
    """Exact classification of a closed surface complex.

    Requires a 2-dimensional complex in which every edge lies in exactly
    two discs.  A connected closed surface with Euler characteristic 2 must
    be orientable; hitting the opposite would be an internal inconsistency
    and is asserted fatally.  Only the face lists are read: each disc's
    boundary circle is walked over the ends of its edges.
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
    ends, boundaries = c.faces(1), c.faces(2)
    traversals = [_circle_traversal(ends, edges) for edges in boundaries]

    def sides(x: tuple[int, int]) -> list[tuple[int, int]]:
        d, side = x
        return [
            (b, side ^ 1 ^ traversals[d][e] ^ traversals[b][e])
            for e in boundaries[d]
            for b in discs_at[e] if b != d
        ]

    sided: set[tuple[int, int]] = set()
    for d in range(len(boundaries)):
        if (d, 0) not in sided and (d, 1) not in sided:
            sided.update(reach((d, 0), sides))
    orientable = len(sided) == len(boundaries)

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
        ranks[k] = rank_masks(map(_boundary_column, c.faces(k)))
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
