"""Discrete shadow of the realization construction.

For each nest the joint kernel of its edge colors is a subgroup of the
acting group whose co-rank equals the nest dimension; the quotient carries
2^dim copies of the nest's cell.  Subgroup bases are reported in the dual
basis t0..tn of the group (x_i(t_j) is 1 exactly when i == j), so kernels
are plain GF(2) null spaces of the color rows.  The edge colors of a nest
span its color subspace, so the kernel depends on that subspace alone and
is computed once per distinct subspace; the per-nest null space of the
edge colors is kept in ``tests/`` as the oracle.  The quotient space itself
is never built; only its isotropy bookkeeping is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExpansionRefused
from .expansion import full_expand
from .gf2 import Subspace, color_text, null_space
from .graph import ColoredGraph
from .nests import Nest, NestIndex


@dataclass(frozen=True, slots=True)
class IsotropyRecord:
    nest: Nest
    subgroup_basis: tuple[int, ...]  # kernel vectors over the t-basis
    corank: int
    copies: int


def isotropy_report(g: ColoredGraph, index: NestIndex | None = None) -> list[IsotropyRecord]:
    """One record per nest of every dimension, in canonical nest order.

    Nests with one color subspace share one kernel tuple, and its co-rank
    and copies are decided once for them all.  ``index`` is the graph's
    nest index when the caller already holds one.
    """
    if index is None:
        index = NestIndex(g)
    # a subspace's kernel, co-rank and copies; the check passes or fails for
    # every nest of a subspace alike, so the first nest of the first failing
    # subspace is the first failing nest
    shared: dict[Subspace, tuple[tuple[int, ...], int, int]] = {}
    records: list[IsotropyRecord] = []
    for k in range(g.n + 1):
        for nest in index.nests(k):
            found = shared.get(nest.color)
            if found is None:
                kernel = null_space(nest.color.basis, g.width)
                corank = g.width - len(kernel)
                if corank != nest.dim:
                    raise AssertionError(
                        f"nest {nest.edge_ids}: kernel co-rank {corank} differs"
                        f" from nest dimension {nest.dim}"
                    )
                found = shared[nest.color] = (kernel, corank, 1 << corank)
            records.append(IsotropyRecord(nest, *found))
    return records


def render_t_vector(mask: int, width: int) -> str:
    terms = [f"t{i}" for i in range(width) if (mask >> i) & 1]
    return "+".join(terms) if terms else "0"


@dataclass(frozen=True)
class RealizabilitySummary:
    n: int
    euler: int
    bounds_directly: bool
    doubling_required: bool
    fixed_point_count: int
    tangent_colors: tuple[tuple[str, ...], ...]
    # per-vertex incident colors; the moment-graph identity says these are
    # exactly the tangent weights at the corresponding fixed point


def realizability_summary(
    g: ColoredGraph, index: NestIndex | None = None
) -> RealizabilitySummary:
    """Expansion-backed realizability report.

    Surfaces bound a 3-manifold exactly when their Euler characteristic is
    even; an odd characteristic invokes the doubling trick.  Every closed
    3-manifold bounds, reported unconditionally.  A coloring that is not
    good raises ``NotGoodColoring`` from the expansion's circle check;
    other expansion failures propagate as refusals.  ``index`` is the
    graph's nest index when the caller already holds one.
    """
    outcome = full_expand(g, index)
    if not outcome.completed:
        raise ExpansionRefused(outcome.obstruction.reason)
    chi = outcome.complex.euler()
    del outcome  # frees the nest index this call built before the tangent colors
    if g.n == 2:
        bounds = chi % 2 == 0
    else:
        bounds = True
    return RealizabilitySummary(
        n=g.n,
        euler=chi,
        bounds_directly=bounds,
        doubling_required=not bounds,
        fixed_point_count=g.vertex_count,
        tangent_colors=tangent_colors(g),
    )


def tangent_colors(g: ColoredGraph) -> tuple[tuple[str, ...], ...]:
    """Per vertex, the strings of its incident colors, sorted.

    Each distinct color is rendered once, and its one string is shared by
    every edge that carries it; each distinct sorted tuple is likewise
    shared by every vertex that has it.
    """
    names: dict[int, str] = {}  # color mask -> its string
    at: list[list[str]] = [[] for _ in range(g.vertex_count)]
    for u, v, c in g.edges:
        name = names.get(c)
        if name is None:
            name = names[c] = color_text(c, g.width)
        at[u].append(name)
        at[v].append(name)
    shared: dict[tuple[str, ...], tuple[str, ...]] = {}  # one per distinct tuple
    out = []
    for colors in at:
        star = tuple(sorted(colors))
        out.append(shared.setdefault(star, star))
    return tuple(out)
