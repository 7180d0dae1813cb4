"""Inputs for the benchmark and the answers they must produce.

Everything here is written from the mathematics, not from skelex: the
cyclic-polytope facets come from Gale's evenness condition, the census
classes from a symmetry-broken edge-coloring enumerator, and the expected
verdicts from closed formulas or from nest counts taken as connected
components of color-restricted subgraphs.  The seed only relabels.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from math import comb


class CorpusError(Exception):
    """A generated input failed its own self-check."""


# ------------------------------------------------------- cyclic 4-polytopes


def cyclic_polytope_facets(m: int) -> list[tuple[int, ...]]:
    """Facets of the cyclic polytope C(m, 4) by Gale's evenness condition.

    A 4-subset S of the points 0..m-1 on the moment curve is a facet iff
    every two points outside S are separated by an even number of points
    of S.  Self-checks the facet count m(m-3)/2 and that every ridge lies
    in exactly two facets, so the boundary is a closed pseudomanifold.
    """
    facets = []
    for subset in combinations(range(m), 4):
        outside = [i for i in range(m) if i not in subset]
        if all(
            sum(1 for x in subset if i < x < j) % 2 == 0
            for i, j in combinations(outside, 2)
        ):
            facets.append(subset)
    if len(facets) != m * (m - 3) // 2:
        raise CorpusError(
            f"C({m},4): {len(facets)} facets, expected {m * (m - 3) // 2}"
        )
    ridges: dict[tuple[int, ...], int] = {}
    for facet in facets:
        for ridge in combinations(facet, 3):
            ridges[ridge] = ridges.get(ridge, 0) + 1
    bad = [r for r, count in ridges.items() if count != 2]
    if bad:
        raise CorpusError(f"C({m},4): ridge {bad[0]} lies in {ridges[bad[0]]} facets")
    return facets


def relabel_facets(
    facets: list[tuple[int, ...]], m: int, rng: random.Random
) -> list[list[int]]:
    perm = list(range(m))
    rng.shuffle(perm)
    return [sorted(perm[v] for v in facet) for facet in facets]


# ------------------------------------------------------ underlying graphs


def prism_edges(rungs: int) -> list[tuple[int, int]]:
    """The prism over a ``rungs``-gon: two cycles joined by rungs (3-valent)."""
    edges = []
    for i in range(rungs):
        j = (i + 1) % rungs
        edges += [(i, j), (rungs + i, rungs + j), (i, rungs + i)]
    return edges


def hypercube_edges(dim: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges of the ``dim``-cube and the axis (coordinate) of each edge."""
    edges, axes = [], []
    for v in range(1 << dim):
        for i in range(dim):
            w = v ^ (1 << i)
            if v < w:
                edges.append((v, w))
                axes.append(i)
    return edges, axes


def shuffle_graph(
    edges: list[tuple[int, int]], vertex_count: int, rng: random.Random
) -> tuple[list[tuple[int, int]], list[int]]:
    """Permute vertex ids and edge order; return new edges and the edge order.

    Edges are listed in a seeded breadth-first order (random root, random
    order at each vertex).  A uniformly shuffled edge list is not used:
    the census enumerates colorings by plain backtracking along the edge
    list, and on a shuffled 4-cube that found only 2,245 to 12,347 of the
    44,160 colorings in 20 s, against 1.4 s in breadth-first order.
    """
    perm = list(range(vertex_count))
    rng.shuffle(perm)
    incident: list[list[int]] = [[] for _ in range(vertex_count)]
    for idx, (u, v) in enumerate(edges):
        incident[u].append(idx)
        incident[v].append(idx)
    root = rng.randrange(vertex_count)
    queue, seen, order, listed = [root], {root}, [], set()
    for u in queue:
        around = incident[u][:]
        rng.shuffle(around)
        for idx in around:
            if idx in listed:
                continue
            listed.add(idx)
            order.append(idx)
            a, b = edges[idx]
            w = b if a == u else a
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return [(perm[edges[i][0]], perm[edges[i][1]]) for i in order], order


def vertex_permutation(vertex_count: int, rng: random.Random) -> list[int]:
    perm = list(range(vertex_count))
    rng.shuffle(perm)
    return perm


# ------------------------------------------------------- census answers


def canonical_colorings(
    edges: list[tuple[int, int]], vertex_count: int, colors: int
) -> list[tuple[int, ...]]:
    """One proper edge coloring per orbit of the color permutations.

    The representative is the lexicographically least coloring of its
    orbit: colors appear in first-occurrence order along the edge list, so
    each new edge may take a used color or the next unused one.  Every
    proper coloring of a regular graph uses all colors at each vertex, so
    the color action is free and each orbit has colors! members.
    """
    incident: list[list[int]] = [[] for _ in range(vertex_count)]
    for idx, (u, v) in enumerate(edges):
        incident[u].append(idx)
        incident[v].append(idx)
    assignment = [-1] * len(edges)
    out: list[tuple[int, ...]] = []

    def extend(e: int, top: int) -> None:
        if e == len(edges):
            out.append(tuple(assignment))
            return
        u, v = edges[e]
        taken = {assignment[f] for f in incident[u] + incident[v] if f < e}
        for color in range(min(top + 2, colors)):
            if color not in taken:
                assignment[e] = color
                extend(e + 1, max(top, color))

    extend(0, -1)
    return out


def component_count(
    edges: list[tuple[int, int]], vertex_count: int, coloring, palette
) -> int:
    """Connected components of the subgraph on edges colored in ``palette``."""
    parent = list(range(vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = vertex_count
    for (u, v), c in zip(edges, coloring):
        if c in palette:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                components -= 1
    return components


def nest_counts(edges, vertex_count: int, coloring, n: int) -> list[int]:
    """nu_k of a pure coloring: components over every k-subset of colors."""
    return [
        sum(
            component_count(edges, vertex_count, coloring, set(palette))
            for palette in combinations(range(n + 1), k)
        )
        for k in range(n + 1)
    ]


def is_bipartite(edges: list[tuple[int, int]], vertex_count: int) -> bool:
    adjacent: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    side = [-1] * vertex_count
    for start in range(vertex_count):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adjacent[u]:
                if side[w] < 0:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def least_in_orbit(coloring: tuple[int, ...], colors: int) -> tuple[int, ...]:
    return min(tuple(p[c] for c in coloring) for p in permutations(range(colors)))


def surface_name(euler: int, orientable: bool) -> str:
    if orientable:
        return "S2" if euler == 2 else f"gT2({(2 - euler) // 2})"
    return f"kP2({2 - euler})"


def cube_nest_counts(n: int) -> list[int]:
    """nu_k of the axis-colored (n+1)-cube: C(n+1, k) * 2^(n+1-k)."""
    return [comb(n + 1, k) * 2 ** (n + 1 - k) for k in range(n + 1)]
