"""Shared fixtures: graph corpora, the frozen non-good coloring, and the
criterion counterexample."""

from __future__ import annotations

import json
import random
from itertools import combinations

import pytest

from skelex.duality import FacePoset
from skelex.gf2 import parse_color, span
from skelex.graph import ColoredGraph
from skelex.generators import gen_cube

CUBE_EDGES = [(u, v) for u, v, _ in gen_cube(2).edges]
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


_held_arcs: dict[int, tuple[ColoredGraph, tuple]] = {}  # id -> (graph, g.arcs())


def edges_at(g: ColoredGraph, v: int) -> tuple[int, ...]:
    """Ids of the edges at vertex v, ascending, read from ``g.arcs()``.

    The arcs of the last graph asked about are held, so a loop over one
    graph's vertices builds them once, not once per vertex.
    """
    held = _held_arcs.get(id(g))
    if held is None:
        _held_arcs.clear()
        held = _held_arcs[id(g)] = (g, g.arcs())
    return tuple(e for e, _, _ in held[1][v])


def other_end(g: ColoredGraph, e: int, v: int) -> int:
    u, w = g.ends(e)
    return w if v == u else u


def colored_from_indices(edges, vertex_count, n, coloring) -> ColoredGraph:
    return ColoredGraph(
        n, vertex_count, tuple((u, v, 1 << coloring[i]) for i, (u, v) in enumerate(edges))
    )


def random_proper_coloring(edges, vertex_count, n_colors, rng: random.Random):
    """One uniformly-wandering proper edge coloring via shuffled backtracking."""
    incident = [[] for _ in range(vertex_count)]
    for idx, (u, v) in enumerate(edges):
        incident[u].append(idx)
        incident[v].append(idx)
    assignment = [-1] * len(edges)

    def backtrack(e):
        if e == len(edges):
            return True
        colors = list(range(n_colors))
        rng.shuffle(colors)
        for color in colors:
            u, v = edges[e]
            if any(
                assignment[f] == color
                for w in (u, v)
                for f in incident[w]
                if f != e
            ):
                continue
            assignment[e] = color
            if backtrack(e + 1):
                return True
            assignment[e] = -1
        return False

    if not backtrack(0):
        return None
    return tuple(assignment)


def random_valid_coloring(edges, vertex_count, width, rng: random.Random):
    """A random coloring by nonzero vectors, independent at every vertex."""
    incident = [[] for _ in range(vertex_count)]
    for idx, (u, v) in enumerate(edges):
        incident[u].append(idx)
        incident[v].append(idx)
    assignment: list[int | None] = [None] * len(edges)
    nonzero = list(range(1, 1 << width))

    def independent_at(w):
        colors = [assignment[f] for f in incident[w] if assignment[f] is not None]
        return span(colors, width).dim == len(colors)

    def backtrack(e):
        if e == len(edges):
            return True
        u, v = edges[e]
        choices = nonzero[:]
        rng.shuffle(choices)
        for c in choices:
            assignment[e] = c
            if independent_at(u) and independent_at(v):
                if backtrack(e + 1):
                    return True
            assignment[e] = None
        return False

    if not backtrack(0):
        return None
    return ColoredGraph(
        width - 1,
        vertex_count,
        tuple((u, v, assignment[i]) for i, (u, v) in enumerate(edges)),
    )


def nongood_cube() -> ColoredGraph:
    """The cube graph with one axis edge recolored to a mixed vector.

    Recoloring the (0, 1) edge from x0 to x0+x2 keeps every vertex star
    independent but breaks the unique-partner condition; frozen here after
    an exhaustive definitional check found the witness.
    """
    base = gen_cube(2)
    edges = []
    for u, v, c in base.edges:
        if (u, v) == (0, 1):
            edges.append((u, v, parse_color("101")))
        else:
            edges.append((u, v, c))
    return ColoredGraph(2, 8, tuple(edges))


def criterion_counterexample() -> ColoredGraph:
    """Two projective-plane-colored tetrahedral graphs joined by a matching.

    Each half is the 4-vertex complete graph carrying the non-orientable
    genus-1 coloring shifted into colors {x1, x2, x3}; an x0-colored
    perfect matching ties the halves together.  Nest counts come out as
    (8, 16, 12, 5), so the 3-dimensional closing criterion fails by one.
    """
    half = {
        (0, 1): "0001",
        (0, 2): "0100",
        (0, 3): "0010",
        (1, 2): "0010",
        (1, 3): "0100",
        (2, 3): "0001",
    }
    edges = []
    for (u, v), c in sorted(half.items()):
        edges.append((u, v, parse_color(c)))
        edges.append((u + 4, v + 4, parse_color(c)))
    for i in range(4):
        edges.append((i, i + 4, parse_color("1000")))
    return ColoredGraph(3, 8, tuple(edges))


def torus7_simplices() -> list[list[int]]:
    """The 7-vertex triangulated torus: triangles {i, i+1, i+3} and
    {i, i+2, i+3} mod 7 (14 triangles, 21 edges)."""
    return [[i % 7, (i + 1) % 7, (i + 3) % 7] for i in range(7)] + [
        [i % 7, (i + 2) % 7, (i + 3) % 7] for i in range(7)
    ]


def banana(n: int) -> ColoredGraph:
    """Two vertices, n+1 parallel edges, one per basis color."""
    return ColoredGraph(
        n, 2, tuple((0, 1, 1 << i) for i in range(n + 1))
    )


def six_colored_k4() -> ColoredGraph:
    """The tetrahedron colored by all six vectors of weight 1 and 2.

    Each triangle is a 2-nest colored a, b and a+b, so the seed keys
    {a, b}, {a, a+b} and {b, a+b} span one subspace.  Valid and good.
    """
    colors = ["100", "010", "001", "110", "101", "011"]
    return ColoredGraph(
        2,
        4,
        tuple(
            (u, v, parse_color(c)) for (u, v), c in zip(K4_EDGES, colors)
        ),
    )


def sphere_times_circle() -> FacePoset:
    """The product of the minimal 2-sphere and circle decompositions."""
    sphere = {f"s{d}{s}": d for d in range(3) for s in (1, 2)}
    circle = {f"c{d}{s}": d for d in range(2) for s in (1, 2)}

    def lower(cid):
        d = int(cid[1])
        kind = cid[0]
        return {f"{kind}{dd}{ss}" for dd in range(d) for ss in (1, 2)}

    dims: dict = {}
    faces: dict = {}
    for a, da in sphere.items():
        for b, db in circle.items():
            cid = a + "x" + b
            dims[cid] = da + db
            closure_a = lower(a) | {a}
            closure_b = lower(b) | {b}
            faces[cid] = {
                aa + "x" + bb for aa in closure_a for bb in closure_b
            } - {cid}
    return FacePoset(dims, faces)


def gale_facets(m: int) -> list[list[int]]:
    """Facets of the cyclic polytope C(m,4) by Gale's evenness condition:
    a 4-set is a facet when every two vertices outside it are separated by
    an even number of its members."""
    facets = []
    for subset in combinations(range(m), 4):
        outside = [v for v in range(m) if v not in subset]
        if all(
            sum(1 for x in subset if i < x < j) % 2 == 0
            for i, j in combinations(outside, 2)
        ):
            facets.append(list(subset))
    assert len(facets) == m * (m - 3) // 2
    return facets


def simplex_boundary_text(k: int) -> str:
    """The boundary of the k-simplex in the simplicial poset format."""
    return json.dumps({"simplices": [list(s) for s in combinations(range(k + 1), k)]})


def edited(p: FacePoset, drop=None, add=None) -> FacePoset:
    """``p`` with one cell id dropped, or one cell added as
    (id, dim, its faces, the cells it is a face of)."""
    dims = {cid: p.dim[c] for c, cid in enumerate(p.order)}
    faces = {cid: {p.order[f] for f in p.faces[c]} for c, cid in enumerate(p.order)}
    if drop is not None:
        del dims[drop], faces[drop]
        for fs in faces.values():
            fs.discard(drop)
    if add is not None:
        cid, dim, below, above = add
        dims[cid] = dim
        faces[cid] = set(below)
        for c in above:
            faces[c].add(cid)
    return FacePoset(dims, faces)


# a 1-cell in both 3-cells of sphere_poset(4) and in no 2-cell: no full
# flag passes through it
GAP_CELL = ("c1_3", 1, ["c0_1", "c0_2"], ["c3_1", "c3_2"])
# a third 2-cell between the 1-cells and both 3-cells of sphere_poset(4)
THIRD_CELL = ("c2_3", 2, ["c1_1", "c1_2"], ["c3_1", "c3_2"])
# a vertex listed only as a face of one top cell: in sphere_poset(3) its
# link is empty, in sphere_poset(2) the interval up to c2_1 holds no edge
LONE_VERTEX_3 = ("z", 0, [], ["c3_1"])
LONE_VERTEX_2 = ("z", 0, [], ["c2_1"])


def poset_document(p: FacePoset) -> dict:
    """``p`` in the face-poset file format, every face listed."""
    return {"top_dim": p.top_dim, "cells": [
        [cid, p.dim[c], sorted(p.order[f] for f in p.faces[c])]
        for c, cid in enumerate(p.order)
    ]}


@pytest.fixture(scope="session")
def cube2():
    return gen_cube(2)


@pytest.fixture(scope="session")
def cube3():
    return gen_cube(3)


@pytest.fixture(scope="session")
def nongood():
    return nongood_cube()


@pytest.fixture(scope="session")
def counterexample():
    return criterion_counterexample()
