"""Graph and poset helpers that only tests call.

``is_pure`` and ``color_isomorphic`` compare colorings, ``connected_sum``
builds larger manifolds from smaller ones, ``cycle_fault`` diagnoses a
link that is not one circle for the reference checks, and ``cell_count``
sizes a face poset.  The package calls none of them.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from skelex.duality import FacePoset
from skelex.errors import DimensionMismatch
from skelex.gf2 import color_text
from skelex.graph import ColoredGraph, Edge, canonicalize, reach, require_valid, validate


def cell_count(p: FacePoset) -> int:
    return len(p.order)


def cycle_fault(
    nodes: Sequence[Hashable], arcs: Mapping | Sequence
) -> tuple[str, Hashable] | None:
    """Why the multigraph ``arcs`` on ``nodes`` is not one cycle, or None.

    ``arcs[x]`` lists the nodes joined to x, once per arc.  The first fault
    found wins: ("empty", None) without nodes, ("degree", x) for the first
    node x not on exactly two arcs, ("disconnected", x) for the first node
    x the walk from ``nodes[0]`` misses.
    """
    if not nodes:
        return "empty", None
    for x in nodes:
        if len(arcs[x]) != 2:
            return "degree", x
    seen = set(reach(nodes[0], arcs.__getitem__))
    for x in nodes:
        if x not in seen:
            return "disconnected", x
    return None


def is_pure(g: ColoredGraph) -> bool:
    """True iff the coloring uses exactly n+1 distinct vectors."""
    require_valid(g)
    return len({c for _, _, c in g.edges}) == g.width


def connected_sum(
    g1: ColoredGraph,
    e1: int,
    g2: ColoredGraph,
    e2: int,
    crossing: str = "straight",
) -> ColoredGraph:
    """Cut e1 and e2 open and reconnect the four ends across the graphs.

    ``crossing`` picks the reconnection pattern: "straight" joins
    u1-u2 and v1-v2, "crossed" joins u1-v2 and v1-u2.  Both edges must
    carry the same color and the graphs the same n.
    """
    if g1 is g2:
        raise ValueError("connected sum needs two distinct graph instances")
    if crossing not in ("straight", "crossed"):
        raise ValueError(f"unknown crossing pattern {crossing!r}")
    require_valid(g1)
    require_valid(g2)
    if g1.n != g2.n:
        raise DimensionMismatch(f"cannot sum graphs with n={g1.n} and n={g2.n}")
    u1, v1, c1 = g1.edges[e1]
    u2, v2, c2 = g2.edges[e2]
    if c1 != c2:
        raise ValueError(
            f"edge colors differ: {color_text(c1, g1.width)} vs {color_text(c2, g2.width)};"
            " connected sum needs equal colors"
        )
    shift = g1.vertex_count
    edges: list[Edge] = [e for i, e in enumerate(g1.edges) if i != e1]
    edges += [
        (u + shift, v + shift, c) for i, (u, v, c) in enumerate(g2.edges) if i != e2
    ]
    if crossing == "straight":
        edges.append((u1, u2 + shift, c1))
        edges.append((v1, v2 + shift, c1))
    else:
        edges.append((u1, v2 + shift, c1))
        edges.append((v1, u2 + shift, c1))
    out = ColoredGraph(g1.n, g1.vertex_count + g2.vertex_count, tuple(edges))
    report = validate(out)
    assert report.ok, f"connected sum produced an invalid graph: {report.problems}"
    return canonicalize(out)


def color_isomorphic(g1: ColoredGraph, g2: ColoredGraph) -> bool:
    """Is there a vertex bijection matching all edges color-for-color?

    Colors are compared as-is (no basis permutation).  Both graphs must be
    valid, so the colors at each vertex are distinct and a color-preserving
    map is forced once the image of vertex 0 is chosen; each candidate
    image with vertex 0's colors is propagated along one walk of ``g1``.
    """
    if (g1.n, g1.vertex_count, g1.edge_count) != (g2.n, g2.vertex_count, g2.edge_count):
        return False
    require_valid(g1)
    require_valid(g2)
    stars1, stars2 = _color_stars(g1), _color_stars(g2)
    return any(
        _propagate(stars1, stars2, start)
        for start in range(g2.vertex_count)
        if stars2[start].keys() == stars1[0].keys()
    )


def _color_stars(g: ColoredGraph) -> list[dict[int, int]]:
    """Per vertex: the far end of the edge at it of each color mask."""
    return [{mask: x for _, x, mask in at} for at in g.arcs()]


def _propagate(stars1, stars2, start: int) -> bool:
    """Does sending vertex 0 of g1 to ``start`` extend to an isomorphism?"""
    image = {0: start}

    def extends(v: int) -> bool:
        # each edge at v goes to the same-colored edge at v's image
        w = image[v]
        for mask, u in stars1[v].items():
            x = stars2[w].get(mask)
            if x is None:
                return False
            if image.setdefault(u, x) != x:
                return False
        return True

    return all(extends(v) for v in reach(0, lambda v: stars1[v].values())) and (
        len(set(image.values())) == len(stars1)
    )
