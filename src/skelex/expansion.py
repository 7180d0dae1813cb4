"""Skeletal expansion: attach one k-cell per k-nest, inductively.

The 2-skeleton always exists for good colorings (2-nests are embedded
circles).  For n = 3 the counting criterion nu_3 = nu_2 - nu_0 decides
whether the expansion closes up: the boundary of each 3-nest is a
connected closed surface, and the Euler characteristics of these
boundaries sum to 2 nu_2 - 2 nu_0, so the criterion holds exactly when
every boundary is a 2-sphere.  No boundary is checked one by one; a
failing criterion names a 3-nest whose boundary is not a sphere.  Graphs
with n >= 4 expand only to their 2-skeleton.

A complex is a view over the graph's nest index: k-cell i is the k-nest
i, the dimension- and face-preserving correspondence between cells and
nests, and face lists are read off the index only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .errors import NotGoodColoring, UnsupportedDimension
from .graph import ColoredGraph
from .nests import ColorComponents, Nest, NestIndex, Within, components_within, nest_label


class CellComplex:
    """A regular cell complex held as face lists, with GF(2) boundary data.

    k-cell i stands for the nest ``nests[k][i]``, and ``faces(k)[i]`` lists
    the (k-1)-cells in its boundary.  Mod-2 incidence is 1 exactly on a
    face (the regular-complex rule), so boundary matrices are read straight
    off the face lists.  A complex ``of_index`` is a view over that index:
    its nests and counts are the index's, and each dimension's face lists
    are read off ``NestIndex.within`` on first use.  A hand-built complex
    passes its face lists.  Nothing may change once the complex is built:
    face lists are kept.
    """

    def __init__(
        self,
        graph: ColoredGraph | None,
        nests: Sequence[Sequence[Nest]],
        faces: Sequence[Sequence[tuple[int, ...]]] | None = None,
        index: NestIndex | None = None,
    ):
        self.graph = graph
        self.nests = nests
        self.index = index
        self._faces = {} if faces is None else dict(enumerate(faces))

    @classmethod
    def of_index(cls, index: NestIndex, top_dim: int) -> "CellComplex":
        """The complex of one cell per k-nest of ``index``, for k <= top_dim."""
        nests = [index.nests(k) for k in range(top_dim + 1)]
        return cls(index.graph, nests, index=index)

    @property
    def top_dim(self) -> int:
        return len(self.nests) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(nests) for nests in self.nests)

    def euler(self) -> int:
        return sum((-1) ** k * len(nests) for k, nests in enumerate(self.nests))

    def faces(self, k: int) -> Sequence[tuple[int, ...]]:
        """Per k-cell, its boundary's (k-1)-cells; read off the index once."""
        if k not in self._faces:
            if k == 0:
                self._faces[0] = ((),) * len(self.nests[0])
            else:
                within = self.index.within
                self._faces[k] = tuple([within(nest, k - 1) for nest in self.nests[k]])
        return self._faces[k]

    def boundary_condition_holds(self) -> bool:
        """Does the composite of consecutive boundary maps vanish mod 2?"""
        for k in range(2, self.top_dim + 1):
            lower = self.faces(k - 1)
            for faces in self.faces(k):
                acc: set[int] = set()
                for f in faces:
                    acc ^= set(lower[f])
                if acc:
                    return False
        return True


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
    return CellComplex.of_index(index, 2)


def check_circles(index: NestIndex) -> None:
    """Refuse unless every 2-nest is 2-valent: the pipeline's goodness test.

    On a valid graph the 2-nest through e0 and e1 = (v, w) meets w in e1
    and in the one edge colored c0 or c0+c1 that goodness asks for, if any.
    A vertex is 2-valent in the C(n+1, 2) 2-nests its star seeds and, its
    star being a basis, 1-valent in any other 2-nest through it.  So the
    2-nests' vertices add up to V·C(n+1, 2) plus the faults, and only a
    larger sum scans for the first fault, which the refusal names.
    """
    g = index.graph
    labelled = sum(len(vertices) for layer in index.layers(2) for _, vertices in layer.parts)
    if labelled == g.vertex_count * comb(g.width, 2):
        return
    nest, v, valence = next(index.valence_faults(2))
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
    obstruction: Obstruction | None

    @property
    def reached_dim(self) -> int:
        return self.complex.top_dim

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
        return ExpansionOutcome(skeleton, None)
    if g.n >= 4:
        return ExpansionOutcome(skeleton, Obstruction(None, skeleton_refusal(g.n)))

    crit = criterion_3d(g, index)
    if not crit.holds:
        return ExpansionOutcome(
            skeleton,
            Obstruction(crit.witness, crit.refusal, crit.counts()),
        )
    return ExpansionOutcome(CellComplex.of_index(index, 3), None)
