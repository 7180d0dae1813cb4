"""Colored nests: components per color subspace, enumeration, counts and labels.

A k-nest is a maximal connected subgraph whose edge colors span a
k-dimensional subspace.  On a valid graph the colors at a vertex, its
star, are a basis, so the k-nests through a vertex are the components
through it of the subgraphs colored inside the spans of the k-subsets of
its star (``star_spaces``).  A k-nest is therefore a (subspace,
component) pair.  The subgraph colored inside each distinct subspace is
labelled by component once, each component's vertices and edges being
gathered by the walk that labels it (``ColorComponents``).  The walk
starts at k = 2: the zero subspace holds no edge, and a line's one
nonzero vector is its color, which occurs once at each vertex, so the
0-nests are read off the graph as its vertices and the 1-nests as its
edges.  ``order_nests`` puts the components of one dimension in
canonical nest order.

The face relation is read from the same labels.  A component colored
inside a subspace of a nest's colors lies in the nest exactly when it
meets it, so the k-nests inside a nest are the components labelled on
its vertices in the k-layers (one labelling per k-dimensional subspace)
whose subspace lies in the nest's (``components_within``).
``NestIndex`` and the census both read faces this way for k >= 2; the
0- and 1-nests inside a nest are its vertices and edges.

Nests are identified by their canonical edge and vertex sets, never by
color, since distinct nests may share a color subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from .errors import UnsupportedDimension
from .gf2 import Subspace, span
from .graph import Arcs, ColoredGraph, require_valid


@dataclass(frozen=True, slots=True)
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


@lru_cache(maxsize=128)
def star_spaces(star: tuple[int, ...], width: int, k: int) -> tuple[Subspace, ...]:
    """The spans of the k-subsets of ``star``, color masks forming a basis.

    Distinct subsets of a basis span distinct subspaces, so this lists the
    C(len(star), k) k-subspaces a vertex with this star seeds.
    """
    return tuple(span(subset, width) for subset in combinations(star, k))


class ColorComponents:
    """The components of the subgraph colored inside one subspace.

    ``labels[v]`` is the index in ``parts`` of the component through vertex
    v, or -1 until ``label(v, arcs)`` walks it; callers walk from
    unlabelled vertices only.  ``arcs`` is the graph's ``ColoredGraph.arcs()``,
    which the labellings of one graph share; it is passed to each walk and
    never kept by a labelling.  The walk gathers the component's sorted
    edge and vertex ids into ``parts`` as it labels.  ``inside`` maps a
    color mask to whether it lies in the space; the walks add the masks it
    lacks, so a caller that already knows may pass it filled.
    """

    def __init__(
        self, space: Subspace, vertex_count: int, inside: dict[int, bool] | None = None
    ):
        self.space = space
        self.labels = [-1] * vertex_count
        self.parts: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self._inside = {} if inside is None else inside

    def label(self, v: int, arcs: Arcs) -> int:
        """Walk the component through the unlabelled vertex ``v``; its label."""
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


# a nest subspace -> the positions of the layers inside it (components_within)
Within = dict[Subspace, tuple[int, ...]]


def components_within(
    layers: Sequence[ColorComponents], nest: Nest, held: Within | None = None
) -> Iterator[tuple[int, int]]:
    """(layer position, label) of each walked component inside ``nest``.

    A component colored inside a subspace of ``nest.color`` lies in
    ``nest`` exactly when it meets it, so the components inside are read
    off the labels on the nest's vertices.  Label -1 is skipped: no walk
    reached that vertex in that layer, and on a coloring that is not good
    such an unwalked component need not be a nest.  ``held`` maps a
    subspace to the positions of the layers inside it; a caller that reads
    many nests against the same layers passes one dict to every call, so
    containment is decided once per distinct nest subspace.
    """
    inside = None if held is None else held.get(nest.color)
    if inside is None:
        inside = tuple(i for i, layer in enumerate(layers) if layer.space <= nest.color)
        if held is not None:
            held[nest.color] = inside
    for i in inside:
        labels = layers[i].labels
        for found in {labels[v] for v in nest.vertex_ids}:
            if found >= 0:
                yield i, found


def order_nests(
    layers: Sequence[ColorComponents],
) -> tuple[tuple[Nest, ...], tuple[tuple[int, ...], ...]]:
    """The layers' components as nests in ``Nest.key`` order, and where each went.

    ``positions[i][found]`` is the index among the nests of component
    ``found`` of ``layers[i]``.  The layers must hold distinct nests of one
    dimension, so no two components share a key.
    """
    parts = sorted(
        (edges, vertices, i, found)
        for i, layer in enumerate(layers)
        for found, (edges, vertices) in enumerate(layer.parts)
    )
    positions = [[0] * len(layer.parts) for layer in layers]
    for j, (_, _, i, found) in enumerate(parts):
        positions[i][found] = j
    nests = tuple(Nest(edges, vertices, layers[i].space) for edges, vertices, i, _ in parts)
    return nests, tuple(map(tuple, positions))


def check_dimension(k: int, n: int) -> None:
    """Refuse a nest dimension outside 0..n."""
    if not 0 <= k <= n:
        raise UnsupportedDimension(f"nest dimension {k} outside 0..{n}")


class NestIndex:
    """The nests of one graph, validated once and enumerated once per dimension.

    Each dimension is enumerated on first use.  Nest ``i`` of dimension k is
    ``nests(k)[i]``; since keys sort by their ids, the 0-nest at vertex v
    has index v and the 1-nest of edge e has index e.  These two dimensions
    are read off the graph's vertices and edges.  For k >= 2 the component
    layers that enumerate the k-nests are kept, with each component's index
    and the layers inside each nest subspace, and the face relation is read
    from their labels.  ``drop(k)`` lets a caller that reads one dimension
    at a time free each when done.  ``arcs`` are the ones the graph's
    validation built, kept for every walk and valence count of the index.
    """

    def __init__(self, g: ColoredGraph):
        self.arcs = require_valid(g)
        self.graph = g
        self._nests: dict[int, tuple[Nest, ...]] = {}
        self._layers: dict[int, tuple[ColorComponents, ...]] = {}
        self._positions: dict[int, tuple[tuple[int, ...], ...]] = {}  # per layer, per label
        self._held: dict[int, Within] = {}  # components_within's dict per k

    def nests(self, k: int) -> tuple[Nest, ...]:
        """All k-nests in canonical order; raises outside 0..n."""
        if k not in self._nests:
            check_dimension(k, self.graph.n)
            self._nests[k] = self._enumerate(k)
        return self._nests[k]

    def drop(self, k: int) -> None:
        """Forget the k-nests and their layers; a later use enumerates them again."""
        self._nests.pop(k, None)
        self._layers.pop(k, None)
        self._positions.pop(k, None)
        self._held.pop(k, None)

    def _enumerate(self, k: int) -> tuple[Nest, ...]:
        # a star is a basis, so the components inside the zero subspace are
        # the vertices and those inside a color's line are its edges
        g = self.graph
        if k == 0:
            zero = Subspace((), g.width)
            return tuple(Nest((), (v,), zero) for v in range(g.vertex_count))
        if k == 1:
            lines: dict[int, Subspace] = {}  # color mask -> its line
            nests = []
            for e, (u, v, c) in enumerate(g.edges):
                line = lines.get(c)
                if line is None:
                    line = lines[c] = Subspace((c,), g.width)
                nests.append(Nest((e,), (u, v) if u < v else (v, u), line))
            return tuple(nests)
        # layers are keyed by subspace, never by star subset: the subsets
        # {a, b} and {a, a+b} of two stars share one; only components that a
        # star reaches are walked, and each of them is a nest
        arcs = self.arcs
        by_space: dict[Subspace, ColorComponents] = {}
        by_star: dict[tuple[int, ...], list[ColorComponents]] = {}
        for v, at in enumerate(arcs):
            star = tuple(sorted([mask for _, _, mask in at]))
            seeded = by_star.get(star)
            if seeded is None:
                seeded = by_star[star] = []
                for space in star_spaces(star, g.width, k):
                    if space not in by_space:
                        by_space[space] = ColorComponents(space, g.vertex_count)
                    seeded.append(by_space[space])
            for layer in seeded:
                if layer.labels[v] < 0:
                    layer.label(v, arcs)
        layers = self._layers[k] = tuple(by_space.values())
        nests, self._positions[k] = order_nests(layers)
        self._held[k] = {}
        return nests

    def layers(self, k: int) -> tuple[ColorComponents, ...]:
        """The labellings whose components are the k-nests; () for k < 2,
        whose nests are read off the graph without one."""
        self.nests(k)
        return self._layers.get(k, ())

    def counts(self) -> tuple[int, ...]:
        """(nu_0, ..., nu_n): the number of k-nests for each dimension."""
        return tuple(len(self.nests(k)) for k in range(self.graph.n + 1))

    def valence_faults(self, k: int) -> Iterator[tuple[Nest, int, int]]:
        """(nest, vertex, valence) wherever a k-nest is not k-valent, in nest order.

        The valence at v counts the arcs at v colored inside the nest's subspace.
        """
        arcs = self.arcs
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
        finds among the k-layers, deciding which layers lie in a subspace
        once per distinct nest subspace.
        """
        if k == 0:
            return nest.vertex_ids
        if k == 1:
            return nest.edge_ids
        inside = components_within(self.layers(k), nest, self._held[k])
        positions = self._positions[k]
        return tuple(sorted(positions[i][found] for i, found in inside))


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
