"""The pure-coloring census: one entry per class of colorings.

Two pure colorings of one underlying graph are the same class when a
permutation of the n+1 colors carries one to the other.  Each class is
named by its first-occurrence form (colors numbered in the order they
first appear along the edge list), which is its lexicographically least
member, and only that form is ever enumerated.

Every class is valid and good by construction: the underlying graph is
checked once to be loopless, connected and (n+1)-valent, so a proper
coloring puts all n+1 unit colors at every vertex.  Only the classes that
close in dimension 3 build a nest index and expand, and that index
validates them again (1 of the 4-cube's 1,840 classes); no other class
is validated:

- n=2: every class closes into a surface, with Euler characteristic
  #vertices - #edges + #2-nests.  It is orientable exactly when the
  underlying graph is bipartite (Ferri, Gagliardi and Grasselli, "A
  graph-theoretical representation of PL-manifolds", 1986), which one walk
  decides for the whole census.
- n=3: the counting criterion is decided from component labels alone
  (``class_criterion``); a class where it holds expands and reports its
  mod-2 homology.
- n>=4: every class stops at the 2-skeleton, with ``full_expand``'s
  reason.

Every class colors the same edges, so one ``census`` call labels each
colored subgraph once and shares that labelling with every class that
colors the same edges inside the same subspace, as it shares which 2-nest
layers lie in each 3-nest subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator, Sequence

from . import classify as classify_mod
from . import expansion
from .errors import CensusLimit, FormatError, InvalidGraph, UnsupportedDimension
from .graph import ColoredGraph, reach
from .nests import ColorComponents, Within, order_nests, star_spaces

DEFAULT_CENSUS_LIMIT = 16
MAX_CENSUS_CLASSES = 10_000  # the 4-cube has 1,840 classes, K8 at n=6 has 6,240

# (bit mask of a subset of unit colors, bit mask of the edges colored inside
# its span) -> its labelling
Layers = dict[tuple[int, int], ColorComponents]


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
        tuple(edges[f] for f in sorted({f for w in edge for f in incident[w] if f > e}))
        for e, edge in enumerate(edges)
    ]
    assignment = [-1] * m
    top = [-1] * m  # largest color on the edges before e
    todo = [0] * m  # colors still to try at e, as a bitmask
    e = 0
    todo[0] = (1 << min(n_colors, 1)) - 1  # the first edge takes color 0
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
        for a, b in later[e]:
            if not full & ~(used[a] | used[b]):
                break
        else:
            if e + 1 == m:
                yield tuple(assignment)
                continue
            top[e + 1] = t = max(top[e], assignment[e])
            e += 1
            u, v = edges[e]
            todo[e] = ((1 << min(n_colors, t + 2)) - 1) & ~(used[u] | used[v])


def _labellings(g: ColoredGraph, seen: Layers, *ks: int) -> list[list[ColorComponents]]:
    """Per k in ``ks``, the labelling of each k-subset of colors, in
    ``star_spaces`` order.

    Edge ids and the edges at each vertex do not depend on the coloring,
    so a labelling depends only on the subset and on which edges are
    colored inside it: a class reuses any labelling in ``seen`` that an
    earlier class of the same underlying graph made of the same edges.
    Each color is a unit vector, so whether it lies in a subset's span is
    read off the subset, and no walk asks the subspace.
    """
    colored = [0] * g.width  # per unit color, the bit mask of its edges
    for e, (_, _, c) in enumerate(g.edges):
        colored[c.bit_length() - 1] |= 1 << e
    units = tuple(1 << i for i in range(g.width))
    arcs = None  # built only when a labelling is missing
    out = []
    for k in ks:
        layers = []
        for space, subset, masks in zip(
            star_spaces(units, g.width, k), combinations(units, k), combinations(colored, k)
        ):
            key = (sum(subset), sum(masks))  # both are sums of disjoint masks
            layer = seen.get(key)
            if layer is None:
                if arcs is None:
                    arcs = g.arcs()
                inside = {unit: unit in subset for unit in units}
                layer = seen[key] = ColorComponents(space, g.vertex_count, inside).label_all(arcs)
            layers.append(layer)
        out.append(layers)
    return out


def class_criterion(
    g: ColoredGraph, seen: Layers | None = None, held: Within | None = None
) -> expansion.Criterion3:
    """The n=3 counting criterion of a census class, from component labels.

    Each vertex carries all four unit colors, so the k-nests are exactly
    the components of the subgraphs colored inside the k-subsets of colors.
    ``Criterion3.decide`` applies ``criterion_3d``'s witness rule, so a
    failing class names the same witness.

    ``seen`` holds the labellings of earlier classes of the same underlying
    graph (``_labellings``).  The 2-nest layers of every class span the
    same subspaces in the same order, so ``held``, which says which of
    them lie in each 3-nest subspace, is shared by every class of one
    census too.
    """
    pairs, triples = _labellings(g, {} if seen is None else seen, 2, 3)
    three, _ = order_nests(triples)
    return expansion.Criterion3.decide(g.vertex_count, pairs, three, held)


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
    # one walk over (vertex, side) pairs: a vertex reached on both sides
    # closes an odd cycle
    sided = set(reach((0, 0), lambda x: [(w, x[1] ^ 1) for w in neighbors[x[0]]]))
    if len({v for v, _ in sided}) != vertex_count:
        raise FormatError("underlying graph is not connected")
    bipartite = len(sided) == vertex_count
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
    rows = [[(u, v, 1 << i) for i in range(n + 1)] for u, v in edges]  # shared by every class
    seen: Layers = {}
    held: Within = {}
    skeleton_only = expansion.skeleton_refusal(n)
    entries = []
    for coloring in colorings:
        g = ColoredGraph(n, vertex_count, tuple(row[c] for row, c in zip(rows, coloring)))
        if n == 2:
            (pairs,) = _labellings(g, seen, 2)
            euler = vertex_count - len(edges) + sum(len(layer.parts) for layer in pairs)
            entries.append(CensusEntry(coloring, g, classify_mod.surface_report(euler, bipartite)))
        elif n >= 4:
            entries.append(CensusEntry(coloring, g, None, skeleton_only))
        else:
            crit = class_criterion(g, seen, held)
            if crit.holds:
                closed = expansion.full_expand(g).complex
                entries.append(CensusEntry(coloring, g, classify_mod.homology_mod2(closed)))
            else:
                entries.append(CensusEntry(coloring, g, None, crit.refusal))
    return entries
