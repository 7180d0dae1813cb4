"""From a combinatorial manifold's face poset back to a colored graph.

Chains of cells with strictly increasing dimension ("flags") are the
simplices of the barycentric subdivision.  Full flags (one cell per
dimension 0..n) become the vertices of the dual graph; flags missing
exactly one dimension k become its edges, colored by the basis vector x_k,
joining the two full flags that extend them.  A one-short flag extending to
anything other than two full flags witnesses that the input is not a
closed combinatorial manifold.

Face-poset file format (JSON)::

    {"top_dim": 2, "cells": [["v0", 0, []], ["e01", 1, ["v0", "v1"]], ...]}

Simplicial shortcut::

    {"simplices": [[0, 1, 2], [0, 1, 3], ...]}

Cell ids may be strings or integers; face lists may name any proper faces
(the transitive closure is taken automatically).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .errors import FlagLimit, FormatError, NotCombinatorialManifold
from .gf2 import ColorVector
from .graph import ColoredGraph, canonicalize, cycle_fault, reach

CellId = int | str

# the most full flags (dual vertices) listed: the 7-simplex boundary's
# 40,320 take seconds, and time grows with the count
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

    def cell_count(self) -> int:
        return len(self.order)

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


Flag = tuple[int, ...]


@dataclass(frozen=True)
class FlagSets:
    full: tuple[Flag, ...]
    one_short: tuple[Flag, ...]


def _chains_of_length(p: FacePoset, length: int) -> list[Flag]:
    """All strictly increasing-by-face chains of exactly ``length`` cells."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    chains: list[Flag] = [(c,) for c in range(p.cell_count())]
    for _ in range(length - 1):
        chains = [
            chain + (c,)
            for chain in chains
            for c in sorted(p.cofaces[chain[-1]])
        ]
    return sorted(chains)


def flags(p: FacePoset) -> FlagSets:
    """Full flags (dual-graph vertices) and one-short flags (its edges)."""
    n = p.top_dim
    return FlagSets(
        tuple(_chains_of_length(p, n + 1)),
        tuple(_chains_of_length(p, n)) if n >= 1 else (),
    )


def _full_flag_count(p: FacePoset) -> int:
    """The number of full flags, counted up the dimensions without listing any."""
    ending_at: list[int] = []  # flags of dims 0..d ending at each cell; cells ascend by dim
    for c, d in enumerate(p.dim):
        below = [ending_at[f] for f in p.faces[c] if p.dim[f] == d - 1]
        ending_at.append(sum(below) if d else 1)
    return sum(ending_at[c] for c in p.cells_of_dim(p.top_dim))


def _missing_dim(p: FacePoset, chain: Flag) -> int:
    present = {p.dim[c] for c in chain}
    missing = set(range(p.top_dim + 1)) - present
    assert len(missing) == 1, f"chain {chain} misses dims {missing}"
    return missing.pop()


def _extensions(p: FacePoset, chain: Flag, k: int) -> list[Flag]:
    """Full flags obtained by inserting a dim-k cell into the chain."""
    below = None
    above = None
    for c in chain:
        if p.dim[c] == k - 1:
            below = c
        if p.dim[c] == k + 1:
            above = c
    candidates = []
    for c in p.cells_of_dim(k):
        if below is not None and below not in p.faces[c]:
            continue
        if above is not None and c not in p.faces[above]:
            continue
        candidates.append(c)
    position = sum(1 for c in chain if p.dim[c] < k)
    return [chain[:position] + (c,) + chain[position:] for c in candidates]


def _describe_flag(p: FacePoset, chain: Flag) -> str:
    return "[" + " < ".join(repr(p.order[c]) for c in chain) + "]"


_NAMES = ("vertex", "edge", "2-cell")


def _link_graph(p: FacePoset, x: int) -> tuple[list[int], dict[int, list[int]]]:
    """The graph of the link of cell x, one dimension down.

    Its nodes are the cells one dimension above x that contain it; each
    cell two dimensions above x joins the two nodes inside it.
    """
    d = p.dim[x]
    nodes = sorted(c for c in p.cofaces[x] if p.dim[c] == d + 1)
    arcs: dict[int, list[int]] = {c: [] for c in nodes}
    for t in sorted(c for c in p.cofaces[x] if p.dim[c] == d + 2):
        through = [c for c in nodes if c in p.faces[t]]
        if len(through) != 2:
            raise NotCombinatorialManifold(
                f"{d + 2}-cell {p.order[t]!r} meets {_NAMES[d]} {p.order[x]!r}"
                f" through {len(through)} {_NAMES[d + 1]}s"
            )
        a, b = through
        arcs[a].append(b)
        arcs[b].append(a)
    return nodes, arcs


def _check_links(p: FacePoset) -> None:
    """Vertex links must be circles (n=2) or 2-spheres (n=3).

    In both cases the link of every (n-2)-cell must be one circle.  For
    n=3 that makes each vertex link a closed surface, whose vertices are
    the edges at the vertex; it is a 2-sphere when it is also connected
    with Euler characteristic 2, by the classification of surfaces.
    """
    n = p.top_dim
    for x in p.cells_of_dim(n - 2):
        fault = cycle_fault(*_link_graph(p, x))
        if fault is not None:
            cell = f"{_NAMES[n - 2]} {p.order[x]!r}"
            raise NotCombinatorialManifold({
                "empty": f"{cell} has no incident {_NAMES[n - 1]}s",
                "degree": f"link of {cell} is not 2-regular",
                "disconnected": f"link of {cell} is disconnected",
            }[fault[0]])
    if n != 3:
        return
    for v in p.cells_of_dim(0):
        nodes, arcs = _link_graph(p, v)
        if not nodes or sum(1 for _ in reach(nodes[0], arcs.__getitem__)) != len(nodes):
            raise NotCombinatorialManifold(f"link of vertex {p.order[v]!r} is disconnected")
        chi = sum((-1) ** (p.dim[c] - 1) for c in p.cofaces[v])
        if chi != 2:
            raise NotCombinatorialManifold(
                f"link of vertex {p.order[v]!r} is a closed surface with"
                f" euler characteristic {chi}, not a 2-sphere"
            )


def dual_colored_graph(p: FacePoset) -> ColoredGraph:
    """The dual graph: full flags as vertices, one-short flags as edges.

    Each one-short flag missing dimension k must extend to exactly two full
    flags; the edge joining them is colored x_k.  The result is a valid,
    connected, pure (n+1)-valent graph.  More than ``MAX_FULL_FLAGS`` full
    flags, counted before any is listed, are refused with ``FlagLimit``.
    """
    n = p.top_dim
    if n < 1:
        raise NotCombinatorialManifold("top dimension must be >= 1")
    if n in (2, 3):
        _check_links(p)
    # a ridge outside two top cells leaves a one-short flag with one
    # extension; refuse it before the flags, (n+1)! per simplex, are listed
    for r in p.cells_of_dim(n - 1):
        if len(p.cofaces[r]) != 2:
            raise NotCombinatorialManifold(
                f"{n - 1}-cell {p.order[r]!r} lies in {len(p.cofaces[r])}"
                f" of the {n}-cells, expected 2"
            )
    if (count := _full_flag_count(p)) > MAX_FULL_FLAGS:
        raise FlagLimit(f"dualizing is limited to {MAX_FULL_FLAGS} full flags, got {count}")
    fl = flags(p)
    vertex_index = {flag: i for i, flag in enumerate(fl.full)}
    edges = []
    for chain in fl.one_short:
        k = _missing_dim(p, chain)
        extensions = _extensions(p, chain, k)
        if len(extensions) != 2:
            raise NotCombinatorialManifold(
                f"flag {_describe_flag(p, chain)} (missing dim {k}) extends to"
                f" {len(extensions)} full flags, expected 2"
            )
        a, b = (vertex_index[f] for f in extensions)
        edges.append((a, b, ColorVector.unit(k, n + 1)))
    return canonicalize(ColoredGraph(n, len(fl.full), tuple(edges)))


def predicted_complex(p: FacePoset) -> tuple[int, ...]:
    """Expected nest census of the dual graph, by flag counting.

    The m-cells of the dual decomposition correspond to chains of
    n - m + 1 cells, so the returned tuple (nu_0, ..., nu_n) must equal the
    nest counts of ``dual_colored_graph(p)`` when the input is a closed
    combinatorial manifold.
    """
    n = p.top_dim
    return tuple(len(_chains_of_length(p, n - m + 1)) for m in range(n + 1))


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
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting recurses
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    if "simplices" in data:
        simplices = data["simplices"]
        if not isinstance(simplices, list) or not all(
            isinstance(s, list) and all(isinstance(v, int) for v in s)
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
        if not isinstance(dim, int) or not isinstance(fs, list):
            raise FormatError(f"cells[{i}]: expected [id, int, list]")
        if not all(isinstance(c, (str, int)) for c in [cid, *fs]):
            raise FormatError(f"cells[{i}]: cell ids must be strings or integers")
        cells.append((cid, dim, fs))
    poset = FacePoset.from_cells(cells)
    if poset.top_dim != data["top_dim"]:
        raise FormatError(
            f"stated top_dim {data['top_dim']} but cells reach {poset.top_dim}"
        )
    return poset
