"""The pure-coloring census: one entry per class of colorings.

Two pure colorings of one underlying graph are the same class when a
permutation of the n+1 colors carries one to the other.  Each class is
named by its first-occurrence form (colors numbered in the order they
first appear along the edge list), which is its lexicographically least
member, and only that form is ever enumerated.

Every class is valid and good by construction: the underlying graph is
checked once to be loopless, connected and (n+1)-valent, so a proper
coloring puts all n+1 unit colors at every vertex.  No class is validated
again.  For n=3 the counting criterion is decided from component labels
alone (``class_criterion``); only the classes where it holds, and every
class for other n, build a nest index and expand.  Every class colors the
same edges, so one ``census`` call labels each colored subgraph once and
shares that labelling with every class that colors the same edges inside
the same subspace, as it shares which 2-nest layers lie in each 3-nest
subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator, Sequence

from . import classify as classify_mod
from . import expansion
from .errors import CensusLimit, FormatError, InvalidGraph, UnsupportedDimension
from .gf2 import ColorVector, Subspace
from .graph import ColoredGraph, reach
from .nests import ColorComponents, NestIndex, Within, order_nests, star_spaces

DEFAULT_CENSUS_LIMIT = 16
MAX_CENSUS_CLASSES = 10_000  # the 4-cube has 1,840 classes, K8 at n=6 has 6,240

# (subspace, bit mask of the edges colored inside it) -> its labelling
Layers = dict[tuple[Subspace, int], ColorComponents]


@dataclass(frozen=True)
class CensusEntry:
    coloring: tuple[int, ...]  # color index per canonical edge
    graph: ColoredGraph
    report: classify_mod.SurfaceReport | classify_mod.HomologyReport | None
    refusal: str | None = None

    @property
    def coloring_id(self) -> str:
        return ",".join(str(c) for c in self.coloring)


def enumerate_proper_colorings(
    edges: Sequence[tuple[int, int]], vertex_count: int, n_colors: int
) -> Iterator[tuple[int, ...]]:
    """Proper edge colorings with ``n_colors`` colors, one per orbit.

    Yields one coloring per orbit of the color-permutation action: its
    first-occurrence form, where edge e takes a color at most one above
    the largest color on the edges before it.  That form is the orbit's
    lexicographically least member, and the colorings come in ascending
    order.  The search is iterative backtracking with forward checking:
    each vertex keeps a bitmask of its used colors, and a branch is cut as
    soon as some later edge at the edge just colored has no free color.
    """
    m = len(edges)
    if m == 0:
        yield ()
        return
    full = (1 << n_colors) - 1
    used = [0] * vertex_count
    incident: list[list[int]] = [[] for _ in range(vertex_count)]
    for idx, (u, v) in enumerate(edges):
        incident[u].append(idx)
        incident[v].append(idx)
    later = [
        [edges[f] for f in sorted({f for w in edge for f in incident[w] if f > e})]
        for e, edge in enumerate(edges)
    ]
    assignment = [-1] * m
    top = [-1] * m  # largest color on the edges before e
    todo = [0] * m  # colors still to try at e, as a bitmask

    def choices(e: int) -> int:
        u, v = edges[e]
        return ((1 << min(n_colors, top[e] + 2)) - 1) & ~(used[u] | used[v])

    e = 0
    todo[0] = choices(0)
    while e >= 0:
        u, v = edges[e]
        if assignment[e] >= 0:
            bit = 1 << assignment[e]
            used[u] &= ~bit
            used[v] &= ~bit
            assignment[e] = -1
        if not todo[e]:
            e -= 1
            continue
        bit = todo[e] & -todo[e]
        todo[e] ^= bit
        used[u] |= bit
        used[v] |= bit
        assignment[e] = bit.bit_length() - 1
        if any(not full & ~(used[a] | used[b]) for a, b in later[e]):
            continue
        if e + 1 == m:
            yield tuple(assignment)
            continue
        top[e + 1] = max(top[e], assignment[e])
        e += 1
        todo[e] = choices(e)


def class_criterion(
    g: ColoredGraph, seen: Layers | None = None, held: Within | None = None
) -> expansion.Criterion3:
    """The n=3 counting criterion of a census class, from component labels.

    Each vertex carries all four unit colors, so the k-nests are exactly
    the components of the subgraphs colored inside the k-subsets of colors.
    ``Criterion3.decide`` applies ``criterion_3d``'s witness rule, so a
    failing class names the same witness.

    ``seen`` holds the labellings of earlier classes of the same underlying
    graph, keyed by subspace and the bit mask of the edges colored inside
    it.  Edge ids and the edges at each vertex do not depend on the
    coloring, so a labelling depends only on which edges lie inside, and a
    class reuses any labelling an earlier class made of the same edges.
    The 2-nest layers of every class span the same subspaces in the same
    order, so ``held``, which says which of them lie in each 3-nest
    subspace, is shared by every class of one census too.
    """
    if seen is None:
        seen = {}
    units = tuple(1 << i for i in range(g.width))
    colored = [0] * g.width  # per unit color, the bit mask of its edges
    for e, (_, _, c) in enumerate(g.edges):
        colored[c.mask.bit_length() - 1] |= 1 << e
    arcs = None  # built only when a labelling is missing
    pairs, triples = [], []
    for k, layers in ((2, pairs), (3, triples)):
        for space, masks in zip(star_spaces(units, g.width, k), combinations(colored, k)):
            key = (space, sum(masks))  # the masks are disjoint
            layer = seen.get(key)
            if layer is None:
                if arcs is None:
                    arcs = g.arcs()
                layer = seen[key] = ColorComponents(space, g.vertex_count).label_all(arcs)
            layers.append(layer)
    three, _ = order_nests(triples)
    return expansion.Criterion3.decide(g.vertex_count, pairs, three, held)


def _entry(
    coloring: tuple[int, ...], g: ColoredGraph, seen: Layers, held: Within
) -> CensusEntry:
    """Expand and classify one class, deciding the n=3 criterion first."""
    if g.n == 3:
        crit = class_criterion(g, seen, held)
        if not crit.holds:
            return CensusEntry(coloring, g, None, crit.refusal)
    outcome = expansion.full_expand(g, NestIndex(g))
    if not outcome.completed:
        return CensusEntry(coloring, g, None, outcome.obstruction.reason)
    if g.n == 2:
        return CensusEntry(coloring, g, classify_mod.classify_surface(outcome.complex))
    return CensusEntry(coloring, g, classify_mod.homology_mod2(outcome.complex))


def census(
    edges: Sequence[tuple[int, int]], vertex_count: int, n: int
) -> list[CensusEntry]:
    """Classify every pure coloring of an underlying regular graph.

    One entry per class of colorings up to permutation of the n+1 colors,
    named by its lexicographically least member, in ascending order.
    Refuses graphs beyond the scale guard, and n < 2 before enumerating.
    """
    if vertex_count > DEFAULT_CENSUS_LIMIT:
        raise CensusLimit(
            f"census is limited to {DEFAULT_CENSUS_LIMIT} vertices, got {vertex_count}"
        )
    if vertex_count < 1:
        raise FormatError(f"underlying graph needs a vertex, got {vertex_count}")
    valences = [0] * vertex_count
    neighbors: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count) or u == v:
            raise FormatError(f"bad edge ({u}, {v}) in underlying graph")
        valences[u] += 1
        valences[v] += 1
        neighbors[u].add(v)
        neighbors[v].add(u)
    if any(d != n + 1 for d in valences):
        raise FormatError(
            f"underlying graph is not {n + 1}-valent: valences {valences}"
        )
    if sum(1 for _ in reach(0, neighbors.__getitem__)) != vertex_count:
        raise FormatError("underlying graph is not connected")
    if n < 1:
        raise InvalidGraph([f"n must be >= 1, got {n}"])
    if n < 2:
        raise UnsupportedDimension(f"expansion needs n >= 2, got n={n}")
    colorings = list(
        islice(enumerate_proper_colorings(edges, vertex_count, n + 1), MAX_CENSUS_CLASSES + 1)
    )
    if len(colorings) > MAX_CENSUS_CLASSES:
        raise CensusLimit(
            f"census is limited to {MAX_CENSUS_CLASSES} classes, got more"
        )
    units = [ColorVector.unit(i, n + 1) for i in range(n + 1)]
    rows = [[(u, v, unit) for unit in units] for u, v in edges]  # shared by every class
    seen: Layers = {}
    held: Within = {}
    return [
        _entry(
            coloring,
            ColoredGraph(n, vertex_count, tuple(row[c] for row, c in zip(rows, coloring))),
            seen,
            held,
        )
        for coloring in colorings
    ]
