"""The slow census kept as a test oracle: every proper coloring by plain
backtracking, each canonicalized over all color permutations, and the full
expansion run on every class."""

from __future__ import annotations

from itertools import permutations

from skelex.classify import classify_surface, homology_mod2
from skelex.expansion import full_expand

from conftest import colored_from_indices


def all_proper_colorings(edges, vertex_count, n_colors):
    """Every proper edge coloring with ``n_colors`` colors, by backtracking."""
    incident = [[] for _ in range(vertex_count)]
    for idx, (u, v) in enumerate(edges):
        incident[u].append(idx)
        incident[v].append(idx)
    assignment = [-1] * len(edges)

    def conflicts(e, color):
        u, v = edges[e]
        return any(
            f != e and assignment[f] == color for w in (u, v) for f in incident[w]
        )

    def backtrack(e):
        if e == len(edges):
            yield tuple(assignment)
            return
        for color in range(n_colors):
            if conflicts(e, color):
                continue
            assignment[e] = color
            yield from backtrack(e + 1)
            assignment[e] = -1

    yield from backtrack(0)


def canonical_coloring(coloring, n_colors):
    """The lexicographically least recoloring over all color permutations."""
    return min(
        tuple(perm[c] for c in coloring) for perm in permutations(range(n_colors))
    )


def reference_census(edges, vertex_count, n):
    """(coloring, refusal, report) per class, in ascending coloring order."""
    classes = sorted(
        {canonical_coloring(c, n + 1) for c in all_proper_colorings(edges, vertex_count, n + 1)}
    )
    out = []
    for coloring in classes:
        outcome = full_expand(colored_from_indices(edges, vertex_count, n, coloring))
        if not outcome.completed:
            out.append((coloring, outcome.obstruction.reason, None))
        elif n == 2:
            out.append((coloring, None, classify_surface(outcome.complex)))
        else:
            out.append((coloring, None, homology_mod2(outcome.complex)))
    return out
