"""Identify the manifold an expansion produced.

Surfaces are classified exactly, from the vertex stars of their nest
index.  For n=2 the discs are the 2-nests, and on a valid graph the
2-nests through a vertex are the spans of the pairs of colors in its
star, so a cyclic order of each vertex's three arcs is a rotation
system: the dart that enters a vertex along color a leaves into the disc
spanned by a and the next color.  An orientation sends the two darts of
every edge into different discs, which is one parity condition per edge
(a rotation system with edge signatures, as in Mohar and Thomassen,
*Graphs on Surfaces*), and one walk on ``graph.reach`` over (vertex,
side) decides whether all of them hold.  The genus falls out of the
Euler characteristic.  For 3-complexes only mod-2 homology is computed;
homology alone cannot name a 3-manifold and the report says so.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SkelexError
from .expansion import CellComplex
from .gf2 import rank_masks
from .graph import reach


@dataclass(frozen=True)
class SurfaceReport:
    orientable: bool
    euler: int
    genus: int
    name: str


@dataclass(frozen=True)
class HomologyReport:
    betti_mod2: tuple[int, ...]
    euler: int
    note: str = ""


def classify_surface(c: CellComplex) -> SurfaceReport:
    """Exact classification of the closed surface of a nest index.

    Reads the index's ``arcs`` and the complex's Euler characteristic, and
    no face list.  Each vertex takes its three arcs, in the order they are
    stored, as its cyclic order (a, b, c).  The disc through the arcs
    colored a and b is spanned by {a, b, a+b}, so ``min(b, a^b)`` names it
    among the two discs through a, whichever end of the edge computes it,
    and t_v(a) = min(b, a^b) < min(c, a^c) says which of the two the dart
    entering v along a leaves into.  Sides of the vertices are consistent
    across an edge of color a from v to w exactly when side_v ^ side_w =
    1 ^ t_v(a) ^ t_w(a).  For a pure coloring every star is the same three
    colors, and t_v(a) ^ t_w(a) only says whether v and w store them in
    the same cyclic order, so the rule is then bipartiteness.

    Refuses a complex that was not read from a nest index, or that is not
    the 2-complex of a graph with n=2.  A connected closed surface with
    Euler characteristic 2 must be orientable; hitting the opposite would
    be an internal inconsistency and is asserted fatally.
    """
    if c.index is None:
        raise SkelexError(
            "surface classification reads the vertex stars of a nest index;"
            " this complex has none"
        )
    arcs = c.index.arcs
    n = len(arcs[0]) - 1  # a valid graph has n+1 arcs at every vertex
    if n != 2 or c.top_dim != 2:
        raise SkelexError(
            "surface classification needs the 2-complex of a graph with n=2,"
            f" got dim {c.top_dim} and n={n}"
        )
    flips = [1] * (3 * len(arcs) // 2)  # per edge, 1 ^ t_v ^ t_w
    for at in arcs:
        for i, (e, _, a) in enumerate(at):
            after, last = at[i - 2][2], at[i - 1][2]  # the next two colors in the order
            flips[e] ^= min(after, a ^ after) < min(last, a ^ last)
    # the graph is connected: the walk reaches every vertex on one side
    # when consistent sides exist, and on both otherwise
    sided = set(reach((0, 0), lambda x: [(w, x[1] ^ flips[e]) for e, w, _ in arcs[x[0]]]))
    return surface_report(c.euler(), len(sided) == len(arcs))


def surface_report(chi: int, orientable: bool) -> SurfaceReport:
    """Genus and name of the closed connected surface with this Euler
    characteristic and orientability.

    An orientable surface has even Euler characteristic, and a surface
    with Euler characteristic 2 is the orientable sphere; a caller that
    found otherwise counted wrong, and this refuses or asserts fatally.
    """
    if orientable:
        if (2 - chi) % 2:
            raise SkelexError(f"orientable surface with odd 2-chi: {chi}")
        genus = (2 - chi) // 2
    else:
        genus = 2 - chi
    assert not (chi == 2 and not orientable), (
        "a closed connected surface with euler characteristic 2 failed the"
        " orientation pass; internal inconsistency"
    )
    if genus == 0:
        name = "S2"
    elif orientable:
        name = f"gT2({genus})"
    else:
        name = f"kP2({genus})"
    return SurfaceReport(orientable, chi, genus, name)


def _boundary_column(faces: tuple[int, ...]) -> int:
    mask = 0
    for f in faces:
        mask |= 1 << f
    return mask


def homology_mod2(c: CellComplex) -> HomologyReport:
    """Mod-2 Betti numbers from the ranks of the boundary maps.

    Column k of the boundary map is a bit mask of the cell's face list.
    """
    if not c.boundary_condition_holds():
        raise SkelexError("boundary condition violated: composite maps not zero")
    top = c.top_dim
    counts = c.counts()
    ranks = [0] * (top + 2)  # ranks[k] = rank of the k-th boundary map
    for k in range(1, top + 1):
        ranks[k] = rank_masks(map(_boundary_column, c.faces(k)))
    betti = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(top + 1))
    chi = c.euler()
    alt = sum((-1) ** i * b for i, b in enumerate(betti))
    if alt != chi:
        raise SkelexError(
            f"euler characteristic {chi} disagrees with betti alternating sum {alt}"
        )
    note = ""
    if top == 3:
        note = (
            "mod-2 homology does not determine a 3-manifold up to"
            " homeomorphism; no finer classification is attempted"
        )
    return HomologyReport(betti, chi, note)
