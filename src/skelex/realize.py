"""Discrete shadow of the realization construction.

For each nest the joint kernel of its edge colors is a subgroup of the
acting group whose co-rank equals the nest dimension; the quotient carries
2^dim copies of the nest's cell.  Subgroup bases are reported in the dual
basis t0..tn of the group (x_i(t_j) is 1 exactly when i == j), so kernels
are plain GF(2) null spaces of the color rows.  The edge colors of a nest
span its color subspace, so the kernel depends on that subspace alone:
the isotropy table has one row per distinct nest subspace, and a nest
reads its row as ``table[nest.color]``.  The per-nest null space of the
edge colors is kept in ``tests/`` as the oracle.  The quotient space
itself is never built; only its isotropy bookkeeping is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExpansionRefused
from .expansion import full_expand
from .gf2 import Subspace, null_space
from .graph import ColoredGraph
from .nests import NestIndex

# a nest subspace -> (its kernel over the t-basis, co-rank, copies)
IsotropyTable = dict[Subspace, tuple[tuple[int, ...], int, int]]


def isotropy_report(g: ColoredGraph, index: NestIndex | None = None) -> IsotropyTable:
    """The kernel, co-rank and copies of every nest subspace of the graph.

    The subspaces come in the order of their first nest in canonical nest
    order, over every dimension.  The co-rank check passes or fails for
    every nest of a subspace alike, so a failure names the first nest of
    the first failing subspace, which is the first failing nest.
    ``index`` is the graph's nest index when the caller already holds one.
    """
    if index is None:
        index = NestIndex(g)
    table: IsotropyTable = {}
    for k in range(g.n + 1):
        for nest in index.nests(k):
            if nest.color not in table:
                kernel = null_space(nest.color.basis, g.width)
                corank = g.width - len(kernel)
                if corank != nest.dim:
                    raise AssertionError(
                        f"nest {nest.edge_ids}: kernel co-rank {corank} differs"
                        f" from nest dimension {nest.dim}"
                    )
                table[nest.color] = (kernel, corank, 1 << corank)
    return table


def render_t_vector(mask: int, width: int) -> str:
    terms = [f"t{i}" for i in range(width) if (mask >> i) & 1]
    return "+".join(terms) if terms else "0"


@dataclass(frozen=True)
class RealizabilitySummary:
    euler: int
    bounds_directly: bool
    doubling_required: bool
    fixed_point_count: int  # the vertices, fixed by the whole group


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
    if g.n == 2:
        bounds = chi % 2 == 0
    else:
        bounds = True
    return RealizabilitySummary(
        euler=chi,
        bounds_directly=bounds,
        doubling_required=not bounds,
        fixed_point_count=g.vertex_count,
    )
