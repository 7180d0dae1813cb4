"""Skeletal expansion: attach one k-cell per k-nest, inductively.

The 2-skeleton always exists for good colorings (2-nests are embedded
circles).  For n = 3 the counting criterion nu_3 = nu_2 - nu_0 decides
whether the expansion closes up: the boundary of each 3-nest is a
connected closed surface, and the Euler characteristics of these
boundaries sum to 2 nu_2 - 2 nu_0, so the criterion holds exactly when
every boundary is a 2-sphere.  No boundary is checked one by one; a
failing criterion names a 3-nest whose boundary is not a sphere.  Graphs
with n >= 4 expand only to their 2-skeleton.

Cells keep a reference to their defining nest; the dimension- and
face-preserving correspondence between cells and nests is this link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NotGoodColoring, UnsupportedDimension
from .graph import ColoredGraph
from .nests import ColorComponents, Nest, NestIndex, Within, components_within, nest_label


@dataclass(frozen=True, slots=True)
class Cell:
    dim: int
    index: int
    nest: Nest
    faces: tuple[int, ...]  # indices of (dim-1)-cells in this cell's boundary


class CellComplex:
    """A regular cell complex with GF(2) boundary data.

    Mod-2 incidence between a k-cell and a (k-1)-cell is 1 exactly when the
    latter is a face of the former (the regular-complex rule), so boundary
    matrices are read straight off the face lists.  ``index`` is the nest
    index the cells were read from, cell i of dimension k standing for
    ``index.nests(k)[i]``; hand-built complexes have none.  The cells must not
    change once the complex is built: the coface relation is kept.
    """

    def __init__(
        self,
        graph: ColoredGraph,
        cells_by_dim: list[list[Cell]],
        index: NestIndex | None = None,
    ):
        self.graph = graph
        self.cells_by_dim = cells_by_dim
        self.index = index
        self._cofaces: dict[int, tuple[tuple[int, ...], ...]] = {}

    @property
    def top_dim(self) -> int:
        return len(self.cells_by_dim) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(cells) for cells in self.cells_by_dim)

    def euler(self) -> int:
        return sum((-1) ** k * len(cells) for k, cells in enumerate(self.cells_by_dim))

    def boundary_condition_holds(self) -> bool:
        """Does the composite of consecutive boundary maps vanish mod 2?"""
        for k in range(2, self.top_dim + 1):
            lower = self.cells_by_dim[k - 1]
            for cell in self.cells_by_dim[k]:
                acc: set[int] = set()
                for f in cell.faces:
                    acc ^= set(lower[f].faces)
                if acc:
                    return False
        return True

    def cofaces(self, k: int) -> tuple[tuple[int, ...], ...]:
        """For each k-cell, the (k+1)-cells having it as a face, ascending.

        Built on first use for each k and kept.
        """
        if k not in self._cofaces:
            out: list[list[int]] = [[] for _ in self.cells_by_dim[k]]
            if k + 1 <= self.top_dim:
                for cell in self.cells_by_dim[k + 1]:
                    for f in cell.faces:
                        out[f].append(cell.index)
            self._cofaces[k] = tuple(map(tuple, out))
        return self._cofaces[k]


def expand2(g: ColoredGraph, index: NestIndex | None = None) -> CellComplex:
    """The 2-skeleton: vertices, edges, and one disc per 2-nest circle.

    Every 2-nest must be an embedded circle (connected, regular 2-valent);
    a violation witnesses a non-good coloring and is refused.  ``index`` is
    the graph's nest index when the caller already holds one.
    """
    if index is None:
        index = NestIndex(g)
    if g.n < 2:
        raise UnsupportedDimension(f"2-skeletal expansion needs n >= 2, got n={g.n}")
    check_circles(index)
    zero_cells = [Cell(0, i, nest, ()) for i, nest in enumerate(index.nests(0))]
    one_cells = [
        Cell(1, i, nest, index.within(nest, 0))
        for i, nest in enumerate(index.nests(1))
    ]
    two_cells = [
        Cell(2, i, nest, index.within(nest, 1))
        for i, nest in enumerate(index.nests(2))
    ]
    return CellComplex(g, [zero_cells, one_cells, two_cells], index)


def check_circles(index: NestIndex) -> None:
    """Refuse unless every 2-nest is 2-valent: the pipeline's goodness test.

    On a valid graph the 2-nest through e0 and e1 = (v, w) meets w in e1
    and in the one edge colored c0 or c0+c1 that goodness asks for, if any.
    """
    fault = next(index.valence_faults(2), None)
    if fault is not None:
        nest, v, valence = fault
        raise NotGoodColoring(
            f"2-nest {nest.edge_ids} is not a circle: vertex {v} has"
            f" valence {valence}; the coloring is not good"
        )


@dataclass(frozen=True)
class Criterion3:
    holds: bool
    vertex_count: int
    two_nests: int
    three_nests: int
    witness: Nest | None = None  # a 3-nest whose boundary is not a 2-sphere
    witness_euler: int | None = None

    def counts(self) -> tuple[int, int, int]:
        return (self.vertex_count, self.two_nests, self.three_nests)

    @classmethod
    def decide(
        cls,
        vertex_count: int,
        pairs: Sequence[ColorComponents],
        three: Sequence[Nest],
        held: Within | None = None,
    ) -> "Criterion3":
        """The criterion from the counts, with a witness when it fails.

        ``pairs`` are the component layers whose parts are the 2-nests and
        ``three`` lists the 3-nests in canonical order; the witness is the
        first 3-nest whose boundary euler characteristic |V| - |E| + #faces
        is not 2, its faces being the 2-nests ``components_within`` finds.
        ``held`` is the ``components_within`` dict every 3-nest reads, so
        the layers inside each distinct 3-nest subspace are found once.
        Calls whose ``pairs`` list the same subspaces in the same order
        may share one; by default it lives for this call.
        """
        two_nests = sum(len(layer.parts) for layer in pairs)
        counts = (vertex_count, two_nests, len(three))
        if len(three) == two_nests - vertex_count:
            return cls(True, *counts)
        if held is None:
            held = {}
        for nest in three:
            faces = sum(1 for _ in components_within(pairs, nest, held))
            chi = len(nest.vertex_ids) - len(nest.edge_ids) + faces
            if chi != 2:
                return cls(False, *counts, nest, chi)
        return cls(False, *counts)  # not good: the sum need not hold

    @property
    def refusal(self) -> str | None:
        """Why the expansion cannot close, or None when the criterion holds."""
        if self.holds:
            return None
        text = (
            f"counting criterion fails: {self.three_nests} 3-nests !="
            f" {self.two_nests} 2-nests - {self.vertex_count} vertices"
        )
        if self.witness is not None:
            text += (
                f"; 3-nest {nest_label(self.witness)} with edges"
                f" {self.witness.edge_ids} has boundary euler characteristic"
                f" {self.witness_euler}"
            )
        return text


def criterion_3d(g: ColoredGraph, index: NestIndex | None = None) -> Criterion3:
    """The n=3 closing condition: #3-nests == #2-nests - #vertices.

    On a good coloring each vertex lies in four 3-nests, each edge in three
    and each 2-nest in two, so the Euler characteristics chi(N) of the
    3-nest boundaries sum to 2 #2-nests - 2 #vertices.  The criterion then
    fails exactly when some chi(N) != 2, and the first such 3-nest is the
    witness; only a failing criterion looks for one.  ``index`` is the
    graph's nest index when the caller already holds one.
    """
    if g.n != 3:
        raise UnsupportedDimension(f"criterion applies to n=3 only, got n={g.n}")
    if index is None:
        index = NestIndex(g)
    return Criterion3.decide(g.vertex_count, index.layers(2), index.nests(3))


@dataclass(frozen=True)
class Obstruction:
    nest: Nest | None
    reason: str
    counts: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class ExpansionOutcome:
    complex: CellComplex
    reached_dim: int
    obstruction: Obstruction | None

    @property
    def completed(self) -> bool:
        return self.obstruction is None


def skeleton_refusal(n: int) -> str:
    """Why an expansion with n >= 4 stops at its 2-skeleton."""
    return f"sphere recognition above dimension 2 is unsupported (n={n})"


def full_expand(g: ColoredGraph, index: NestIndex | None = None) -> ExpansionOutcome:
    """Run the expansion as far as it goes and report how far that was.

    n=2 always completes into a closed surface.  n=3 completes exactly when
    the counting criterion holds, and then every 3-nest boundary is a
    2-sphere, so the 3-cells are attached without further checks; a failing
    criterion's obstruction names its witness 3-nest.  n >= 4 stops after
    the 2-skeleton with an explicit unsupported marker.  ``index`` is the
    graph's nest index when the caller already holds one.
    """
    if index is None:
        index = NestIndex(g)
    if g.n < 2:
        raise UnsupportedDimension(f"expansion needs n >= 2, got n={g.n}")
    skeleton = expand2(g, index)
    if g.n == 2:
        return ExpansionOutcome(skeleton, 2, None)
    if g.n >= 4:
        return ExpansionOutcome(skeleton, 2, Obstruction(None, skeleton_refusal(g.n)))

    crit = criterion_3d(g, index)
    if not crit.holds:
        return ExpansionOutcome(
            skeleton,
            2,
            Obstruction(crit.witness, crit.refusal, crit.counts()),
        )
    three_cells = [
        Cell(3, i, nest, index.within(nest, 2)) for i, nest in enumerate(index.nests(3))
    ]
    full = CellComplex(g, skeleton.cells_by_dim + [three_cells], index)
    return ExpansionOutcome(full, 3, None)
