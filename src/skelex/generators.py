"""Concrete graph families: cubes and the two closed-surface series.

The surface families are not hard-coded edge lists.  They are rebuilt from
embedded tables of bi-colored circles (color subspace + vertex cycle): every
unordered consecutive pair must occur in exactly two circles, and the edge
joining the pair gets the one-dimensional intersection of the two circle
colors.  The rebuild doubles as a consistency proof of the tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GeneratorLimit
from .gf2 import Subspace, intersect, span
from .graph import ColoredGraph, canonicalize, validate

WIDTH = 3  # surface families live over GF(2)^3
MAX_GENERATED_VERTICES = 100_000  # the scale guards, checked before any edge
MAX_GENERATED_EDGES = 150_000  # the largest surface the vertex guard admits


def _over_limit(
    count: object, limit: int = MAX_GENERATED_VERTICES, what: str = "vertices"
) -> GeneratorLimit:
    return GeneratorLimit(f"generating is limited to {limit} {what}, got {count}")


@dataclass(frozen=True)
class CycleTable:
    """Bi-colored circles given as (color subspace, cyclic vertex sequence)."""

    entries: tuple[tuple[Subspace, tuple[int, ...]], ...]

    def total_length(self) -> int:
        return sum(len(cycle) for _, cycle in self.entries)


def _pair_span(i: int, j: int) -> Subspace:
    return span([1 << i, 1 << j], WIDTH)


def graph_from_cycle_table(
    n: int, vertex_count: int, table: CycleTable
) -> ColoredGraph:
    """Rebuild the colored graph whose bi-colored circles are the table rows.

    Consecutive cycle members become edges; the color of an edge is forced
    as the intersection of the two circle colors it lies on.  Any pair
    occurring other than exactly twice, or an intersection that is not a
    line, aborts loudly; the tables never need parallel-edge resolution.
    """
    pair_hits: dict[tuple[int, int], list[Subspace]] = {}
    for color, cycle in table.entries:
        for idx in range(len(cycle)):
            u, v = cycle[idx], cycle[(idx + 1) % len(cycle)]
            if u == v:
                raise AssertionError(f"cycle stalls at vertex {u}")
            pair_hits.setdefault((min(u, v), max(u, v)), []).append(color)
    lines: dict[tuple[Subspace, ...], int] = {}  # one color per circle color pair
    edges = []
    for (u, v), colors in sorted(pair_hits.items()):
        if len(colors) != 2:
            raise AssertionError(
                f"vertex pair ({u}, {v}) occurs in {len(colors)} circles,"
                " expected exactly 2"
            )
        pair = tuple(colors)
        color = lines.get(pair)
        if color is None:
            line = intersect(colors[0], colors[1])
            if line.dim != 1:
                raise AssertionError(
                    f"circle colors at pair ({u}, {v}) intersect in dim {line.dim}"
                )
            color = lines[pair] = line.basis[0]
        edges.append((u, v, color))
    if table.total_length() != 2 * len(edges):
        raise AssertionError(
            f"cycle lengths sum to {table.total_length()}, expected"
            f" {2 * len(edges)} (twice the edge count)"
        )
    g = canonicalize(ColoredGraph(n, vertex_count, tuple(edges)))
    report = validate(g)
    if not report.ok:
        raise AssertionError(f"table rebuild produced an invalid graph: {report.problems}")
    return g


def gen_cube(n: int) -> ColoredGraph:
    """The (n+1)-cube 1-skeleton with axis coloring.

    Vertices are the 0/1-vectors of length n+1; two differing in coordinate
    i are joined by an edge colored x_i.  Valid, pure and good for every n.
    More than ``MAX_GENERATED_VERTICES`` vertices or ``MAX_GENERATED_EDGES``
    edges are refused.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n + 1 >= MAX_GENERATED_VERTICES.bit_length():  # 2^(n+1) > the limit
        raise _over_limit(f"2^{n + 1}")
    width = n + 1
    if width << n > MAX_GENERATED_EDGES:  # (n+1)·2^n edges
        raise _over_limit(width << n, MAX_GENERATED_EDGES, "edges")
    edges = []
    for v in range(1 << width):
        for i in range(width):
            w = v ^ (1 << i)
            if v < w:
                edges.append((v, w, 1 << i))
    return canonicalize(ColoredGraph(n, 1 << width, tuple(edges)))


def _vertex(group: int, j: int, group_size: int) -> int:
    """Dense id of the j-th vertex (1-based) of the given group (1-based)."""
    return (group - 1) * group_size + (j - 1)


def cycle_table_orientable(g: int) -> CycleTable:
    """Circle table of the genus-g orientable family (8g vertices).

    Colors pair off as: the two Span(x0,x1) families beta and gamma_i, the
    single long Span(x0,x2) circle xi, and one Span(x1,x2) circle eta_i per
    group.
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    V = lambda i, j: _vertex(i, j, 8)
    entries: list[tuple[Subspace, tuple[int, ...]]] = []
    beta = []
    for i in range(1, g + 1):
        beta += [V(i, 1), V(i, 2), V(i, 5), V(i, 6)]
    entries.append((_pair_span(0, 1), tuple(beta)))
    for i in range(1, g + 1):
        entries.append(
            (_pair_span(0, 1), (V(i, 3), V(i, 4), V(i, 7), V(i, 8)))
        )
    xi = []
    for i in range(1, g + 1):
        xi += [V(i, 1), V(i, 8), V(i, 3), V(i, 2), V(i, 5), V(i, 4), V(i, 7), V(i, 6)]
    entries.append((_pair_span(0, 2), tuple(xi)))
    for i in range(1, g + 1):
        entries.append(
            (_pair_span(1, 2), tuple(V(i, j) for j in range(1, 9)))
        )
    return CycleTable(tuple(entries))


def cycle_table_nonorientable(k: int) -> CycleTable:
    """Circle table of the genus-k non-orientable family (4k vertices)."""
    if k < 1:
        raise ValueError(f"genus must be >= 1, got {k}")
    V = lambda i, j: _vertex(i, j, 4)
    entries: list[tuple[Subspace, tuple[int, ...]]] = []
    beta = []
    for i in range(1, k + 1):
        beta += [V(i, 1), V(i, 4), V(i, 2), V(i, 3)]
    entries.append((_pair_span(0, 1), tuple(beta)))
    xi = []
    for i in range(1, k + 1):
        xi += [V(i, 1), V(i, 2), V(i, 4), V(i, 3)]
    entries.append((_pair_span(0, 2), tuple(xi)))
    for i in range(1, k + 1):
        entries.append(
            (_pair_span(1, 2), tuple(V(i, j) for j in range(1, 5)))
        )
    return CycleTable(tuple(entries))


def gen_orientable_surface(g: int) -> ColoredGraph:
    """The genus-g orientable family: 8g vertices, 12g edges, 2g+2 circles."""
    if 8 * g > MAX_GENERATED_VERTICES:
        raise _over_limit(8 * g)
    return graph_from_cycle_table(2, 8 * g, cycle_table_orientable(g))


def gen_nonorientable_surface(k: int) -> ColoredGraph:
    """The genus-k non-orientable family: 4k vertices, 6k edges, k+2 circles."""
    if 4 * k > MAX_GENERATED_VERTICES:
        raise _over_limit(4 * k)
    return graph_from_cycle_table(2, 4 * k, cycle_table_nonorientable(k))
