"""The reference isotropy kernel and the fixed circle over an edge.

``_kernel_of_nest`` takes the null space of a nest's own edge colors.
``realize.isotropy_report`` computes one kernel per distinct color
subspace instead; tests compare the two on every nest.
``fixed_circle_check`` spells out the invariant circle over one edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from skelex.gf2 import null_space
from skelex.graph import ColoredGraph, require_valid
from skelex.nests import Nest


def _kernel_of_nest(g: ColoredGraph, nest: Nest) -> tuple[int, ...]:
    rows = [g.color(e) for e in nest.edge_ids]
    return null_space(rows, g.width)


@dataclass(frozen=True)
class FixedCircleReport:
    edge: int
    endpoints: tuple[int, int]
    arc_copies: int
    fixed_points: tuple[int, int]
    subgroup_basis: tuple[int, ...]
    ok: bool


def fixed_circle_check(g: ColoredGraph, e: int) -> FixedCircleReport:
    """The invariant circle over an edge: two arc copies closed by two
    fixed points, one per endpoint.  The structure is forced for any valid
    good coloring; the report carries the edge's kernel subgroup."""
    require_valid(g)
    u, v, color = g.edges[e]
    kernel = null_space([color], g.width)
    arc_copies = 2  # = 2^(dim of a 1-nest)
    ok = len(kernel) == g.width - 1 and u != v
    return FixedCircleReport(e, (u, v), arc_copies, (u, v), kernel, ok)
