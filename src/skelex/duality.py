"""From a combinatorial manifold's face poset back to a colored graph.

Chains of cells with strictly increasing dimension ("flags") are the
simplices of the barycentric subdivision.  Full flags (one cell per
dimension 0..n) become the vertices of the dual graph.  Two full flags that
differ only in dimension k are joined by an edge colored x_k: the neighbour
of f swaps f[k] for the other k-cell between f[k-1] and f[k+1].  That cell
is unique because in a closed combinatorial manifold every interval from a
(k-1)-cell to a (k+1)-cell holds exactly two k-cells (the diamond
property); an interval holding any other number witnesses that the input is
not one.  The checks run in one order: every ridge in two top cells, then
the diamond pass, then, for n=2 and n=3, the links of (n-2)-cells and of
vertices.  The arcs of a link are pairs the diamond pass found, so only
connectivity and the Euler characteristic of n=3 vertex links are left to
check.  ``predicted_complex``
counts the chains of each length in one pass up the cells, and the
full-flag count of the same pass bounds the listing.

Face-poset file format (JSON)::

    {"top_dim": 2, "cells": [["v0", 0, []], ["e01", 1, ["v0", "v1"]], ...]}

Simplicial shortcut::

    {"simplices": [[0, 1, 2], [0, 1, 3], ...]}

Cell ids may be strings or integers; face lists may name any proper faces
(the transitive closure is taken automatically).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .errors import FlagLimit, FormatError, NotCombinatorialManifold
from .graph import ColoredGraph, canonicalize, is_integer, reach, read_object

CellId = int | str

# the most full flags (dual vertices) listed: the 7-simplex boundary's
# 40,320 take about a second, and time and memory grow with the count
MAX_FULL_FLAGS = 100_000


class FacePoset:
    """A regular cell decomposition given by its face relation.

    Cells are stored densely ordered by (dimension, original id); ``faces``
    holds the transitively closed set of proper faces of each cell.  Every
    listed face must have a lower dimension than its cell, so the face
    relation has no cycles and closes in one pass upwards by dimension.
    Every 1-cell must have two vertices, checked as the pass reaches it.
    """

    def __init__(self, dims: dict[CellId, int], faces: dict[CellId, set[CellId]]):
        self.order = sorted(dims, key=lambda c: (dims[c], str(c)))
        self.index = {c: i for i, c in enumerate(self.order)}
        self.dim = [dims[c] for c in self.order]
        self.top_dim = max(self.dim) if self.dim else 0
        self.faces: list[frozenset[int]] = []
        for c, cid in enumerate(self.order):
            if self.dim[c] < 0:
                raise FormatError(f"cell {cid!r} has negative dim {self.dim[c]}")
            listed = [self.index[f] for f in faces.get(cid, ())]
            closed = set(listed)
            for f in listed:
                if self.dim[f] >= self.dim[c]:
                    raise FormatError(
                        f"cell {cid!r} (dim {self.dim[c]}) lists"
                        f" {self.order[f]!r} (dim {self.dim[f]}) as a face"
                    )
                closed |= self.faces[f]
            if self.dim[c] == 1 and len(closed) != 2:
                raise FormatError(f"1-cell {cid!r} has {len(closed)} vertices, expected 2")
            self.faces.append(frozenset(closed))
        self._validate()
        self.cofaces: list[set[int]] = [set() for _ in self.order]
        for c, fs in enumerate(self.faces):
            for f in fs:
                self.cofaces[f].add(c)

    def _validate(self) -> None:
        for c, fs in enumerate(self.faces):
            # face dims lie in 0..dim-1, so covering them is a count
            got_dims = {self.dim[f] for f in fs}
            if len(got_dims) != self.dim[c]:
                raise FormatError(
                    f"cell {self.order[c]!r}: faces cover dims"
                    f" {sorted(got_dims)}, expected 0..{self.dim[c] - 1}"
                )
        top = [c for c in range(len(self.order)) if self.dim[c] == self.top_dim]
        under_top: set[int] = set(top)
        for c in top:
            under_top |= self.faces[c]
        if len(under_top) != len(self.order):
            raise FormatError("poset is not pure: some cell lies under no top cell")

    def cells_of_dim(self, d: int) -> list[int]:
        return [c for c in range(len(self.order)) if self.dim[c] == d]

    def euler(self) -> int:
        return sum((-1) ** d for d in self.dim)

    @classmethod
    def from_cells(
        cls, cells: list[tuple[CellId, int, list[CellId]]]
    ) -> "FacePoset":
        dims: dict[CellId, int] = {}
        faces: dict[CellId, set[CellId]] = {}
        for cid, dim, fs in cells:
            if cid in dims:
                raise FormatError(f"duplicate cell id {cid!r}")
            dims[cid] = dim
            faces[cid] = set(fs)
        for cid, fs in faces.items():
            for f in fs:
                if f not in dims:
                    raise FormatError(f"cell {cid!r} lists unknown face {f!r}")
        return cls(dims, faces)

    @classmethod
    def from_simplices(cls, simplices: list[list[int]]) -> "FacePoset":
        """Generate the full poset of a pure simplicial complex.

        Each face is listed once, with its codimension-1 faces; the poset
        takes the transitive closure.
        """
        dims: dict[CellId, int] = {}
        faces: dict[CellId, set[CellId]] = {}

        def key(vs: tuple[int, ...]) -> str:
            return "s" + "_".join(str(v) for v in vs)

        for vs in _vertex_tuples(simplices):
            for size in range(1, len(vs) + 1):
                for sub in combinations(vs, size):
                    cid = key(sub)
                    if cid not in dims:
                        dims[cid] = size - 1
                        faces[cid] = {key(s) for s in combinations(sub, size - 1) if s}
        return cls(dims, faces)


def _vertex_tuples(simplices: list[list[int]]) -> list[tuple[int, ...]]:
    """Each simplex as its sorted vertices; refuses empty, mixed or degenerate lists."""
    if not simplices:
        raise FormatError("empty simplex list")
    if len({len(s) for s in simplices}) != 1:
        raise FormatError("maximal simplices must all have the same size")
    out = []
    for simplex in simplices:
        vs = tuple(sorted(simplex))
        if len(set(vs)) != len(vs):
            raise FormatError(f"degenerate simplex {simplex}")
        out.append(vs)
    return out


def _check_ridges(simplices: list[tuple[int, ...]]) -> None:
    """Refuse unless every ridge lies in exactly two of the simplices.

    A ridge is a simplex minus one vertex.  This runs before the face poset
    is built, which costs about s·2^s steps for an s-simplex.
    """
    if len(simplices[0]) < 2:
        return  # points: ``dual_colored_graph`` refuses dimension 0
    users = Counter(r for vs in simplices for r in combinations(vs, len(vs) - 1))
    for ridge, count in users.items():
        if count != 2:
            raise NotCombinatorialManifold(
                f"ridge {list(ridge)} lies in {count} of the simplices, expected 2"
            )


def _chain_counts(p: FacePoset) -> list[int]:
    """The number of chains of 1, 2, ..., n+1 cells, counted in one pass up the cells.

    A chain is a set of cells totally ordered by the face relation.  A chain
    of n+1 cells holds one cell of each dimension 0..n: it is a full flag.
    """
    width = p.top_dim + 1
    ending: list[list[int]] = []  # chains of each length ending at each cell; cells ascend by dim
    for fs in p.faces:
        below = [sum(column) for column in zip(*(ending[f] for f in fs))] or [0] * width
        ending.append([1, *below[:-1]])
    return [sum(column) for column in zip(*ending)]


_NAMES = ("vertex", "edge")


def _check_links(p: FacePoset, between: dict[tuple[int, int], list[int]]) -> None:
    """Vertex links must be circles (n=2) or 2-spheres (n=3).

    Runs after the ridge count and the diamond pass.  The nodes of the link
    of a cell x are the cells one dimension above it, and each cell t two
    dimensions above x joins the pair ``between[x, t]``.  The nodes of an
    (n-2)-cell's link are ridges, each on two arcs, so that link is a union
    of circles, and for n=3 each vertex link is a closed surface.  What is
    left is connectivity (an empty link has none) and, for n=3, Euler
    characteristic 2 at each vertex: a 2-sphere, by the classification of
    surfaces.
    """
    n = p.top_dim
    for d in (1, 0) if n == 3 else (0,):
        for x in p.cells_of_dim(d):
            arcs: dict[int, list[int]] = {c: [] for c in p.cofaces[x] if p.dim[c] == d + 1}
            for t in p.cofaces[x]:
                if p.dim[t] == d + 2:
                    a, b = between[x, t]
                    arcs[a].append(b)
                    arcs[b].append(a)
            start = next(iter(arcs), None)
            if start is None or sum(1 for _ in reach(start, arcs.__getitem__)) != len(arcs):
                raise NotCombinatorialManifold(
                    f"link of {_NAMES[d]} {p.order[x]!r} is disconnected"
                )
            if n == 3 and d == 0:
                chi = sum((-1) ** (p.dim[c] - 1) for c in p.cofaces[x])
                if chi != 2:
                    raise NotCombinatorialManifold(
                        f"link of vertex {p.order[x]!r} is a closed surface with"
                        f" euler characteristic {chi}, not a 2-sphere"
                    )


BOTTOM, TOP = -1, -2  # below the 0-cells and above the n-cells; no cell has these indices


def _diamonds(p: FacePoset, facets: list[list[int]]) -> dict[tuple[int, int], list[int]]:
    """The two k-cells strictly between each (k-1)-cell and (k+1)-cell over it.

    Every such interval in a closed manifold's poset holds exactly two cells
    (the diamond property).  Flag exchange reads only the intervals that
    full flags pass through, so every interval is checked here, and one
    holding any other number of cells is refused.  Pairs keyed by ``BOTTOM``
    hold the two vertices of each 1-cell and pairs keyed by ``TOP`` the two
    n-cells over each (n-1)-cell; both counts were checked before.
    """
    n = p.top_dim
    between: dict[tuple[int, int], list[int]] = {}
    for b, d in enumerate(p.dim):
        if d == 1:
            between[BOTTOM, b] = facets[b]
        if d == n - 1:
            between[b, TOP] = sorted(p.cofaces[b])
        if d < 2:
            continue
        for c in facets[b]:
            for a in facets[c]:
                between.setdefault((a, b), []).append(c)
        for a in sorted(a for a in p.faces[b] if p.dim[a] == d - 2):
            if (count := len(between.get((a, b), ()))) != 2:
                raise NotCombinatorialManifold(
                    f"between {d - 2}-cell {p.order[a]!r} and {d}-cell {p.order[b]!r}"
                    f" lie {count} {d - 1}-cells, expected 2"
                )
    return between


def dual_colored_graph(p: FacePoset) -> ColoredGraph:
    """The dual graph: full flags as vertices, joined by flag exchange.

    The neighbour of full flag f across color x_k swaps f[k] for the other
    k-cell between f[k-1] and f[k+1].  The result is a valid, connected,
    pure (n+1)-valent graph whose vertices are the full flags in sorted
    order.  More than ``MAX_FULL_FLAGS`` full flags, counted before any is
    listed, are refused with ``FlagLimit``.
    """
    n = p.top_dim
    if n < 1:
        raise NotCombinatorialManifold("top dimension must be >= 1")
    # refuse a ridge outside two top cells before anything is counted
    for r in p.cells_of_dim(n - 1):
        if len(p.cofaces[r]) != 2:
            raise NotCombinatorialManifold(
                f"{n - 1}-cell {p.order[r]!r} lies in {len(p.cofaces[r])}"
                f" of the {n}-cells, expected 2"
            )
    facets = [sorted(f for f in fs if p.dim[f] == p.dim[c] - 1) for c, fs in enumerate(p.faces)]
    between = _diamonds(p, facets)
    if n in (2, 3):
        _check_links(p, between)
    if (count := _chain_counts(p)[n]) > MAX_FULL_FLAGS:
        raise FlagLimit(f"dualizing is limited to {MAX_FULL_FLAGS} full flags, got {count}")
    up: list[list[int]] = [[] for _ in p.dim]
    for c, fs in enumerate(facets):
        for f in fs:
            up[f].append(c)
    full: list[tuple[int, ...]] = [(c,) for c in p.cells_of_dim(0)]
    for _ in range(n):
        full = [f + (c,) for f in full for c in up[f[-1]]]
    index = {f: i for i, f in enumerate(full)}
    edges = []
    for i, f in enumerate(full):
        ends = (BOTTOM, *f, TOP)
        for k in range(n + 1):
            a, b = between[ends[k], ends[k + 2]]
            other = a if b == f[k] else b
            if other > f[k]:  # each edge once, from its smaller flag
                edges.append((i, index[f[:k] + (other,) + f[k + 1:]], 1 << k))
    return canonicalize(ColoredGraph(n, len(full), tuple(edges)))


def predicted_complex(p: FacePoset) -> tuple[int, ...]:
    """Expected nest census of the dual graph, by flag counting.

    The m-cells of the dual decomposition correspond to chains of
    n - m + 1 cells, so the returned tuple (nu_0, ..., nu_n) must equal the
    nest counts of ``dual_colored_graph(p)`` when the input is a closed
    combinatorial manifold.
    """
    return tuple(reversed(_chain_counts(p)))


def sphere_poset(n: int) -> FacePoset:
    """The minimal sphere decomposition: two cells in every dimension 0..n.

    Every cell of dimension i is a face of every cell of dimension j > i;
    its dual graph is the axis-colored (n+1)-cube 1-skeleton.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dims: dict[CellId, int] = {}
    faces: dict[CellId, set[CellId]] = {}
    for d in range(n + 1):
        for side in (1, 2):
            cid = f"c{d}_{side}"
            dims[cid] = d
            faces[cid] = {
                f"c{dd}_{ss}" for dd in range(d) for ss in (1, 2)
            }
    return FacePoset(dims, faces)


def parse_poset(text: str) -> FacePoset:
    """Parse either the explicit poset format or the simplicial shortcut."""
    data = read_object(text)
    if "simplices" in data:
        simplices = data["simplices"]
        if not isinstance(simplices, list) or not all(
            isinstance(s, list) and all(is_integer(v) for v in s)
            for s in simplices
        ):
            raise FormatError("'simplices' must be an array of integer arrays")
        _check_ridges(_vertex_tuples(simplices))
        return FacePoset.from_simplices(simplices)
    if "cells" not in data or "top_dim" not in data:
        raise FormatError("expected fields 'top_dim' and 'cells' (or 'simplices')")
    if not isinstance(data["cells"], list):
        raise FormatError("'cells' must be an array")
    cells = []
    for i, item in enumerate(data["cells"]):
        if not (isinstance(item, list) and len(item) == 3):
            raise FormatError(f"cells[{i}]: expected [id, dim, [face ids]]")
        cid, dim, fs = item
        if not is_integer(dim) or not isinstance(fs, list):
            raise FormatError(f"cells[{i}]: expected [id, int, list]")
        if not all(isinstance(c, str) or is_integer(c) for c in [cid, *fs]):
            raise FormatError(f"cells[{i}]: cell ids must be strings or integers")
        cells.append((cid, dim, fs))
    if not is_integer(data["top_dim"]):
        raise FormatError("'top_dim' must be an integer")
    poset = FacePoset.from_cells(cells)
    if poset.top_dim != data["top_dim"]:
        raise FormatError(
            f"stated top_dim {data['top_dim']} but cells reach {poset.top_dim}"
        )
    return poset
