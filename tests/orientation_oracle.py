"""Surface orientability from face lists alone, kept as a test oracle.

Before orientability was read off the vertex stars, surfaces were
classified by walking each disc's boundary circle and then the (disc,
side) pairs.  ``orientable`` keeps that walk: it reads only a 2-complex's
face lists, so it also serves hand-built complexes with no nest index,
such as the candidate 2-spheres of ``sphere_oracle``.  Tests compare
``classify.classify_surface`` with it.
"""

from __future__ import annotations

from typing import Sequence

from skelex.errors import SkelexError
from skelex.expansion import CellComplex
from skelex.graph import reach

from cell_oracle import cofaces


def _circle_traversal(
    ends: Sequence[tuple[int, ...]], edges: tuple[int, ...]
) -> dict[int, bool]:
    """Walk the circle on ``edges`` once; True means edge e is crossed from
    ``ends[e][0]`` to ``ends[e][1]``.

    The edges must form an embedded circle (each of their ends meets
    exactly two of them); double edges between two vertices are handled by
    tracking edge ids rather than endpoints.  From a vertex of two edges
    the walk leaves by the position in ``edges`` that is the xor of both
    positions with the one it came in by.  The walk's keys are the ids in
    ``edges``.
    """
    # per vertex, span times the number of its edge ends plus the xor of
    # their positions, which is below span; a vertex of two ends reads
    # from 2·span up to 3·span
    span = 1 << len(edges).bit_length()
    ends_at: dict[int, int] = {}
    for i, e in enumerate(edges):
        u, v = ends[e]
        ends_at[u] = (ends_at.get(u, 0) ^ i) + span
        ends_at[v] = (ends_at.get(v, 0) ^ i) + span
    start_vertex = vertex = min(ends_at)
    first = edge = min(e for e in edges if start_vertex in ends[e])
    at = edges.index(first)
    walk: dict[int, bool] = {}
    while True:
        u, v = ends[edge]
        forward = walk[edge] = vertex == u
        vertex = v if forward else u
        pair = ends_at[vertex] - 2 * span  # the xor of its two positions, if it has two
        # fewer or more than two ends, or a loop or a repeated id
        if not 0 <= pair < span or edges[at ^ pair] == edge:
            raise SkelexError(
                f"nest {edges} is not an embedded circle at vertex {vertex}"
            )
        at ^= pair
        edge = edges[at]
        if vertex == start_vertex and edge == first:
            break
    if len(walk) != len(edges):
        raise SkelexError(f"nest {edges} walk missed edges")
    return walk


def orientable(c: CellComplex) -> bool:
    """Can the discs of a closed surface complex be oriented consistently?

    Requires a 2-dimensional complex in which every edge lies in exactly
    two discs.  Two discs sharing edge e must traverse it oppositely, so
    their sides differ across e by 1 ^ t_a[e] ^ t_b[e], t being their
    traversal directions.  A walk over (disc, side) from one side of each
    component reaches each of its discs once exactly when consistent sides
    exist, and twice otherwise.
    """
    if c.top_dim != 2:
        raise SkelexError(f"surface classification needs a 2-complex, got dim {c.top_dim}")
    discs_at = cofaces(c, 1)
    for i, discs in enumerate(discs_at):
        if len(discs) != 2:
            raise SkelexError(
                f"not a closed surface complex: edge {i} lies in {len(discs)} discs"
            )
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
    return len(sided) == len(boundaries)
