"""The reference dualization: every flag listed, every edge found by a scan.

``one_short_dual`` builds the dual graph the slow way.  It lists every full
flag (a vertex) and every one-short flag (an edge missing one dimension k),
and scans all k-cells for the two full flags that extend each one-short
flag.  ``listed_complex`` counts the dual's cells by listing every chain.
Tests compare ``skelex.duality``'s flag exchange and chain counter against
both.  Neither applies the ``FlagLimit`` guard: they serve small inputs.
``check_links`` is the reference vertex-link check: it rebuilds every link
from the cofaces, with no diamond pass, and tests each (n-2)-cell link to
be one circle before the ridge count runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from skelex.duality import FacePoset
from skelex.errors import NotCombinatorialManifold
from skelex.graph import ColoredGraph, canonicalize, reach

from graph_helpers import cell_count, cycle_fault

Flag = tuple[int, ...]


@dataclass(frozen=True)
class FlagSets:
    full: tuple[Flag, ...]
    one_short: tuple[Flag, ...]


def _chains_of_length(p: FacePoset, length: int) -> list[Flag]:
    """All strictly increasing-by-face chains of exactly ``length`` cells."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    chains: list[Flag] = [(c,) for c in range(cell_count(p))]
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


def check_links(p: FacePoset) -> None:
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


def _describe_flag(p: FacePoset, chain: Flag) -> str:
    return "[" + " < ".join(repr(p.order[c]) for c in chain) + "]"


def one_short_dual(p: FacePoset) -> ColoredGraph:
    """The dual graph: full flags as vertices, one-short flags as edges.

    Each one-short flag missing dimension k must extend to exactly two full
    flags; the edge joining them is colored x_k.
    """
    n = p.top_dim
    if n < 1:
        raise NotCombinatorialManifold("top dimension must be >= 1")
    if n in (2, 3):
        check_links(p)
    for r in p.cells_of_dim(n - 1):
        if len(p.cofaces[r]) != 2:
            raise NotCombinatorialManifold(
                f"{n - 1}-cell {p.order[r]!r} lies in {len(p.cofaces[r])}"
                f" of the {n}-cells, expected 2"
            )
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
        edges.append((a, b, 1 << k))
    return canonicalize(ColoredGraph(n, len(fl.full), tuple(edges)))


def listed_complex(p: FacePoset) -> tuple[int, ...]:
    """(nu_0, ..., nu_n): the chains of n - m + 1 cells, each one listed."""
    n = p.top_dim
    return tuple(len(_chains_of_length(p, n - m + 1)) for m in range(n + 1))
