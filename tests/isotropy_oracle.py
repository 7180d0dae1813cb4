"""The reference isotropy kernel: one null space per nest.

``_kernel_of_nest`` takes the null space of a nest's own edge colors.
``realize.isotropy_report`` computes one kernel per distinct color
subspace instead; tests compare the two on every nest.
"""

from __future__ import annotations

from skelex.gf2 import null_space
from skelex.graph import ColoredGraph
from skelex.nests import Nest


def _kernel_of_nest(g: ColoredGraph, nest: Nest) -> tuple[int, ...]:
    rows = [g.color(e).mask for e in nest.edge_ids]
    return null_space(rows, g.width)
