"""The reference nest growth and the reference regularity check.

``grow_nest`` grows the unique nest through a set of edges sharing a
vertex, or the 0-nest at a vertex, with one ``span`` of the seed colors.
Tests regrow every nest from each of its seeds with it and compare the
result with ``NestIndex``, which labels components per color subspace.
``regularity_check`` reports every nest of every dimension that is not
regular of its dimension; tests compare it with the goodness references.
"""

from __future__ import annotations

from dataclasses import dataclass

from skelex.gf2 import span
from skelex.graph import ColoredGraph
from skelex.nests import Nest, NestIndex

from conftest import edges_at, other_end


def grow_nest(
    g: ColoredGraph,
    seed_edges: tuple[int, ...] | list[int],
    vertex: int | None = None,
) -> Nest:
    """The unique nest containing the seed edges (or the vertex, if none).

    Seeds must share a common vertex; an empty seed list with ``vertex``
    grows the 0-nest at that vertex.
    """
    seeds = tuple(seed_edges)
    if not seeds:
        if vertex is None:
            raise ValueError("empty seed needs an explicit vertex for the 0-nest")
        return Nest((), (vertex,), span([], g.width))
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seed edges {seeds} contain duplicates")
    shared = set(g.ends(seeds[0]))
    for e in seeds[1:]:
        shared &= set(g.ends(e))
    if not shared:
        raise ValueError(f"seed edges {seeds} do not share a common vertex")

    target = span([g.color(e) for e in seeds], g.width)
    # breadth-first closure over edges whose color stays inside the span
    edge_set = set(seeds)
    vertex_set: set[int] = set()
    frontier: list[int] = []
    for e in seeds:
        for v in g.ends(e):
            if v not in vertex_set:
                vertex_set.add(v)
                frontier.append(v)
    while frontier:
        v = frontier.pop()
        for e in edges_at(g, v):
            if e in edge_set or not target.contains_mask(g.color(e)):
                continue
            edge_set.add(e)
            w = other_end(g, e, v)
            if w not in vertex_set:
                vertex_set.add(w)
                frontier.append(w)
    return Nest(tuple(sorted(edge_set)), tuple(sorted(vertex_set)), target)


@dataclass(frozen=True)
class RegularityReport:
    ok: bool
    failures: tuple[tuple[int, tuple[int, ...], int, int], ...]
    # entries: (nest dim, nest edge ids, vertex, valence found)


def regularity_check(g: ColoredGraph) -> RegularityReport:
    """Verify every k-nest is a connected regular k-valent subgraph.

    Passes for every nest exactly when the coloring is good; on failure
    each offending (nest, vertex) pair is reported with the valence seen.
    """
    index = NestIndex(g)
    failures = tuple(
        (k, nest.edge_ids, v, valence)
        for k in range(g.n + 1)
        for nest, v, valence in index.valence_faults(k)
    )
    return RegularityReport(not failures, failures)
