"""Colored nests: components per color subspace, enumeration, counts and labels.

A k-nest is a maximal connected subgraph whose edge colors span a
k-dimensional subspace.  Any k edges sharing a vertex have independent
colors (validity), so they seed a unique nest: the component through
their common vertex of the subgraph of edges colored inside the seed
span.  A k-nest is therefore a (subspace, component) pair.  For k >= 2
each seed is keyed by its sorted color masks, the keys map to their
subspaces, and the subgraph colored inside each distinct subspace is
labelled by component once, each component's vertices and edges being
gathered by the walk that labels it (``ColorComponents``).

The face relation is read from the same labels.  A component colored
inside a subspace of a nest's colors lies in the nest exactly when it
meets it, so the k-nests inside a nest are the components labelled on
its vertices in the k-layers (one labelling per k-dimensional subspace)
whose subspace lies in the nest's (``components_within``).
``NestIndex`` and the census both read faces this way.

Nests are identified by their canonical edge set, never by color, since
distinct nests may share a color subspace.  ``grow_nest`` grows one nest
from its seeds; it builds the 0-nests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .errors import UnsupportedDimension
from .gf2 import Subspace, span
from .graph import Arcs, ColoredGraph, require_valid


@dataclass(frozen=True)
class Nest:
    edge_ids: tuple[int, ...]
    vertex_ids: tuple[int, ...]
    color: Subspace

    @property
    def dim(self) -> int:
        return self.color.dim

    def key(self) -> tuple:
        return (self.edge_ids, self.vertex_ids)

    def contains(self, other: "Nest") -> bool:
        """Subgraph inclusion: the face relation between nests."""
        if other.dim == 0:
            return other.vertex_ids[0] in self.vertex_ids
        return set(other.edge_ids) <= set(self.edge_ids)


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
        return Nest((), (vertex,), span([], width=g.width))
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seed edges {seeds} contain duplicates")
    shared = set(g.ends(seeds[0]))
    for e in seeds[1:]:
        shared &= set(g.ends(e))
    if not shared:
        raise ValueError(f"seed edges {seeds} do not share a common vertex")

    target = span([g.color(e) for e in seeds])
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
        for e in g.edges_at(v):
            if e in edge_set or not target.contains_mask(g.color(e).mask):
                continue
            edge_set.add(e)
            w = g.other_end(e, v)
            if w not in vertex_set:
                vertex_set.add(w)
                frontier.append(w)
    return Nest(tuple(sorted(edge_set)), tuple(sorted(vertex_set)), target)


class ColorComponents:
    """The components of the subgraph colored inside one subspace.

    ``labels[v]`` is the index in ``parts`` of the component through vertex
    v, or -1 until ``label(v, arcs)`` walks it.  ``arcs`` is the graph's
    ``ColoredGraph.arcs()``, which the labellings of one graph share; it is
    passed to each walk and never kept.  The walk gathers the component's
    sorted edge and vertex ids into ``parts`` as it labels.
    """

    def __init__(self, space: Subspace, vertex_count: int):
        self.space = space
        self.labels = [-1] * vertex_count
        self.parts: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self._inside: dict[int, bool] = {}  # color mask -> lies in the space

    def label(self, v: int, arcs: Arcs) -> int:
        """The label of the component through ``v``, walked on first use."""
        found = self.labels[v]
        if found >= 0:
            return found
        labels, inside = self.labels, self._inside
        found = len(self.parts)
        labels[v] = found
        vertices: list[int] = [v]
        edges: list[int] = []
        for w in vertices:  # breadth first: the list grows as the walk goes
            for e, x, mask in arcs[w]:
                try:
                    holds = inside[mask]
                except KeyError:
                    holds = inside[mask] = self.space.contains_mask(mask)
                if not holds:
                    continue
                if w < x:  # each edge once, from its lower end
                    edges.append(e)
                if labels[x] < 0:
                    labels[x] = found
                    vertices.append(x)
        self.parts.append((tuple(sorted(edges)), tuple(sorted(vertices))))
        return found

    def label_all(self, arcs: Arcs) -> "ColorComponents":
        """Walk every component; returns self."""
        for v, found in enumerate(self.labels):
            if found < 0:
                self.label(v, arcs)
        return self


def components_within(
    layers: Sequence[ColorComponents], nest: Nest
) -> Iterator[tuple[int, int]]:
    """(layer position, label) of each walked component inside ``nest``.

    A component colored inside a subspace of ``nest.color`` lies in
    ``nest`` exactly when it meets it, so the components inside are read
    off the labels on the nest's vertices.  Label -1 is skipped: no walk
    reached that vertex in that layer, and on a coloring that is not good
    such an unwalked component need not be a nest.
    """
    for i, layer in enumerate(layers):
        if layer.space <= nest.color:
            labels = layer.labels
            for found in {labels[v] for v in nest.vertex_ids}:
                if found >= 0:
                    yield i, found


def enumerate_nests(g: ColoredGraph, k: int) -> list[Nest]:
    """All distinct k-nests, grown from every k-subset of edges at every vertex.

    Requires 0 <= k <= n.  On good colorings every k-nest arises this way
    exactly once per (vertex, seed subset) it contains.
    """
    return list(NestIndex(g).nests(k))


class NestIndex:
    """The nests of one graph, validated once and enumerated once per dimension.

    Each dimension is enumerated on first use.  Nest ``i`` of dimension k is
    ``nests(k)[i]``; in particular the 0-nest at vertex v has index v and
    the 1-nest of edge e has index e.  For k >= 2 the component layers that
    enumerate the k-nests are kept, with each component's index, and the
    face relation is read from their labels.
    """

    def __init__(self, g: ColoredGraph):
        require_valid(g)
        self.graph = g
        self._nests: dict[int, tuple[Nest, ...]] = {}
        self._layers: dict[int, tuple[ColorComponents, ...]] = {}
        self._positions: dict[int, tuple[tuple[int, ...], ...]] = {}  # per layer, per label

    def nests(self, k: int) -> tuple[Nest, ...]:
        """All k-nests in canonical order; raises outside 0..n."""
        if k not in self._nests:
            if not 0 <= k <= self.graph.n:
                raise UnsupportedDimension(f"nest dimension {k} outside 0..{self.graph.n}")
            self._nests[k] = self._enumerate(k)
        return self._nests[k]

    def _enumerate(self, k: int) -> tuple[Nest, ...]:
        g = self.graph
        if k == 0:
            return tuple(grow_nest(g, (), vertex=v) for v in range(g.vertex_count))
        if k == 1:
            return tuple(
                Nest((e,), tuple(sorted(g.ends(e))), span([g.color(e)]))
                for e in range(g.edge_count)
            )
        # seeds {a, b} and {a, a+b} span one subspace, so components are
        # labelled per subspace, never per seed key; only components that a
        # seed reaches are walked, and each of them is a nest
        arcs = g.arcs()
        spaces: dict[tuple[int, ...], Subspace] = {}
        by_space: dict[Subspace, ColorComponents] = {}
        for v in range(g.vertex_count):
            for seeds in combinations(g.edges_at(v), k):
                key = tuple(sorted(g.color(e).mask for e in seeds))
                space = spaces.get(key)
                if space is None:
                    space = spaces[key] = span([g.color(e) for e in seeds])
                layer = by_space.get(space)
                if layer is None:
                    layer = by_space[space] = ColorComponents(space, g.vertex_count)
                layer.label(v, arcs)
        layers = self._layers[k] = tuple(by_space.values())
        # distinct k-nests have distinct edge sets, so this is Nest.key order
        parts = sorted(
            (edges, vertices, i, found)
            for i, layer in enumerate(layers)
            for found, (edges, vertices) in enumerate(layer.parts)
        )
        positions = [[0] * len(layer.parts) for layer in layers]
        for j, (_, _, i, found) in enumerate(parts):
            positions[i][found] = j
        self._positions[k] = tuple(map(tuple, positions))
        return tuple(Nest(edges, vertices, layers[i].space) for edges, vertices, i, _ in parts)

    def layers(self, k: int) -> tuple[ColorComponents, ...]:
        """The labellings whose components are the k-nests; none for k < 2."""
        self.nests(k)
        return self._layers.get(k, ())

    def counts(self) -> tuple[int, ...]:
        """(nu_0, ..., nu_n): the number of k-nests for each dimension."""
        return tuple(len(self.nests(k)) for k in range(self.graph.n + 1))

    def valence_faults(self, k: int) -> Iterator[tuple[Nest, int, int]]:
        """(nest, vertex, valence) wherever a k-nest is not k-valent, in nest order.

        The valence at v counts the arcs at v colored inside the nest's subspace.
        """
        arcs = self.graph.arcs()
        held: dict[Subspace, dict[int, bool]] = {}  # space -> mask -> lies in it
        for nest in self.nests(k):
            inside = held.setdefault(nest.color, {})
            for v in nest.vertex_ids:
                valence = 0
                for _, _, mask in arcs[v]:
                    if mask not in inside:
                        inside[mask] = nest.color.contains_mask(mask)
                    valence += inside[mask]
                if valence != k:
                    yield nest, v, valence

    def within(self, nest: Nest, k: int) -> tuple[int, ...]:
        """Sorted indices of the k-nests that are subgraphs of ``nest``.

        With k = nest.dim - 1 these are the nest's faces.  The 0- and
        1-nests inside are its vertices and edges, by their indices; the
        k-nests inside for k >= 2 are the components ``components_within``
        finds among the k-layers.
        """
        if k == 0:
            return nest.vertex_ids
        if k == 1:
            return nest.edge_ids
        inside = components_within(self.layers(k), nest)
        positions = self._positions[k]
        return tuple(sorted(positions[i][found] for i, found in inside))


def nest_counts(g: ColoredGraph) -> tuple[int, ...]:
    """(nu_0, ..., nu_n): the number of k-nests for each dimension."""
    return NestIndex(g).counts()


def _factor(mask: int, width: int) -> str:
    terms = [f"x{i}" for i in range(width) if (mask >> i) & 1]
    if len(terms) == 1:
        return terms[0]
    return "(" + "+".join(terms) + ")"


def nest_label(nest: Nest) -> str:
    """Square-free monomial label of the nest's color subspace.

    Canonical-basis factors joined by a middle dot, e.g. "x0·x1·x2"; the
    label depends only on the subspace, never on the spanning set used.
    """
    if nest.dim == 0:
        return "1"
    return "·".join(_factor(m, nest.color.width) for m in nest.color.basis)


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
