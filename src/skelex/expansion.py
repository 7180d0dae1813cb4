"""Skeletal expansion: attach one k-cell per k-nest, inductively.

The 2-skeleton always exists for good colorings (2-nests are embedded
circles).  For n = 3 the counting criterion nu_3 = nu_2 - nu_0 decides
whether the expansion closes up; each candidate 3-cell's boundary
subcomplex is verified to be a 2-sphere before attaching.  Sphere
recognition stops at dimension 2, so graphs with n >= 4 expand only to
their 2-skeleton.

Cells keep a reference to their defining nest; the dimension- and
face-preserving correspondence between cells and nests is this link.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotGoodColoring, UnsupportedDimension
from .graph import ColoredGraph, cycle_fault, reach
from .nests import Nest, NestIndex, nest_label


@dataclass(frozen=True)
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
    ``index.nests(k)[i]``; subcomplexes have none.  The cells must not
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

    def boundary_matrix(self, k: int) -> list[list[int]]:
        """The matrix of the boundary map from k-cells to (k-1)-cells.

        Rows are (k-1)-cells, columns k-cells, entries in {0, 1}.
        """
        if not 1 <= k <= self.top_dim:
            raise ValueError(f"boundary matrix index {k} outside 1..{self.top_dim}")
        rows = len(self.cells_by_dim[k - 1])
        matrix = [[0] * len(self.cells_by_dim[k]) for _ in range(rows)]
        for cell in self.cells_by_dim[k]:
            for f in cell.faces:
                matrix[f][cell.index] = 1
        return matrix

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


def _subcomplex(complex: CellComplex, keep: list[set[int]]) -> CellComplex:
    """The subcomplex on the selected cell indices, reindexed per dimension."""
    top = max((k for k, s in enumerate(keep) if s), default=0)
    remap: list[dict[int, int]] = []
    new_cells: list[list[Cell]] = []
    for k in range(top + 1):
        indices = sorted(keep[k]) if k < len(keep) else []
        remap.append({old: new for new, old in enumerate(indices)})
        cells = []
        for new, old in enumerate(indices):
            cell = complex.cells_by_dim[k][old]
            faces = tuple(remap[k - 1][f] for f in cell.faces) if k else ()
            cells.append(Cell(k, new, cell.nest, faces))
        new_cells.append(cells)
    return CellComplex(complex.graph, new_cells)


def boundary_sphere_complex(complex: CellComplex, nest: Nest) -> CellComplex:
    """The union of all cells whose nest is a subgraph of the given nest.

    ``complex`` must be the (k)-skeleton read from a nest index (as
    ``expand2`` builds it) and ``nest`` a (k+1)-nest; the result is the
    candidate boundary sphere for the cell the nest defines.
    """
    if nest.dim != complex.top_dim + 1:
        raise ValueError(
            f"nest dimension {nest.dim} does not extend a"
            f" {complex.top_dim}-skeleton"
        )
    if complex.index is None:
        raise ValueError("boundary complexes need a skeleton read from a nest index")
    keep = [set(complex.index.within(nest, k)) for k in range(complex.top_dim + 1)]
    return _subcomplex(complex, keep)


@dataclass(frozen=True)
class SphereCheck:
    ok: bool
    reason: str


def sphere_check(F: CellComplex, k: int) -> SphereCheck:
    """Recognize circles (k=1) and 2-spheres (k=2); nothing higher.

    k=1: connected with every vertex in exactly two edges.  k=2: a closed
    surface (every edge in exactly two discs, every vertex link a circle)
    whose Euler characteristic is 2; by surface classification that pins
    the 2-sphere.
    """
    if k not in (1, 2):
        raise UnsupportedDimension(
            f"sphere recognition supports k in {{1, 2}}, got {k}"
        )
    if F.top_dim < k:
        return SphereCheck(False, f"complex has no {k}-cells")
    vertices = range(len(F.cells_by_dim[0]))
    edges_at = F.cofaces(0)
    edges = F.cells_by_dim[1]
    arcs = [[w for e in edges_at[v] for w in edges[e].faces if w != v] for v in vertices]
    if not vertices or sum(1 for _ in reach(0, arcs.__getitem__)) != len(vertices):
        return SphereCheck(False, "not connected")
    if k == 1:
        fault = cycle_fault(vertices, arcs)
        if fault is not None:
            v = fault[1]
            return SphereCheck(False, f"vertex {v} lies in {len(edges_at[v])} edges")
        return SphereCheck(True, "circle")

    discs_at = F.cofaces(1)
    for i, discs in enumerate(discs_at):
        if len(discs) != 2:
            return SphereCheck(False, f"edge {i} lies in {len(discs)} discs")
    link_bad = _vertex_link_failures(F)
    if link_bad is not None:
        return SphereCheck(False, link_bad)
    chi = F.euler()
    if chi != 2:
        return SphereCheck(False, f"closed surface with euler characteristic {chi}")
    # cross-check: a closed connected surface with this characteristic must
    # pass the orientation pass; classify_surface asserts fatally otherwise
    from .classify import classify_surface

    classify_surface(F)
    return SphereCheck(True, "2-sphere")


def _vertex_link_failures(F: CellComplex) -> str | None:
    """Check each vertex link is a single circle; return a diagnosis or None.

    The link graph at v has a node per edge at v and an arc per disc at v
    joining the two boundary edges of that disc through v.  The discs at v
    are the cofaces of its edges.
    """
    edges_at, discs_at = F.cofaces(0), F.cofaces(1)
    edges, discs = F.cells_by_dim[1], F.cells_by_dim[2]
    for vcell in F.cells_by_dim[0]:
        v = vcell.nest.vertex_ids[0]
        local_edges = edges_at[vcell.index]
        arcs: dict[int, list[int]] = {e: [] for e in local_edges}
        for d in sorted({d for e in local_edges for d in discs_at[e]}):
            through = [e for e in discs[d].faces if vcell.index in edges[e].faces]
            if len(through) != 2:
                return f"disc {d} passes vertex {v} through {len(through)} edges"
            a, b = through
            arcs[a].append(b)
            arcs[b].append(a)
        # the link must be one closed cycle through all local edges
        fault = cycle_fault(local_edges, arcs)
        if fault is None:
            continue
        why, e = fault
        if why == "empty":
            return f"vertex {v} has no incident edges in the subcomplex"
        if why == "degree":
            return f"link of vertex {v} is not 2-regular at edge {e}"
        return f"link of vertex {v} is disconnected"
    return None


@dataclass(frozen=True)
class Criterion3:
    holds: bool
    vertex_count: int
    two_nests: int
    three_nests: int

    def counts(self) -> tuple[int, int, int]:
        return (self.vertex_count, self.two_nests, self.three_nests)

    @property
    def refusal(self) -> str | None:
        """Why the expansion cannot close, or None when the criterion holds."""
        if self.holds:
            return None
        return (
            f"counting criterion fails: {self.three_nests} 3-nests !="
            f" {self.two_nests} 2-nests - {self.vertex_count} vertices"
        )


def criterion_3d(g: ColoredGraph, index: NestIndex | None = None) -> Criterion3:
    """The n=3 closing condition: #3-nests == #2-nests - #vertices.

    ``index`` is the graph's nest index when the caller already holds one.
    """
    if g.n != 3:
        raise UnsupportedDimension(f"criterion applies to n=3 only, got n={g.n}")
    if index is None:
        index = NestIndex(g)
    v0 = g.vertex_count
    v2 = len(index.nests(2))
    v3 = len(index.nests(3))
    return Criterion3(v3 == v2 - v0, v0, v2, v3)


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


def full_expand(g: ColoredGraph, index: NestIndex | None = None) -> ExpansionOutcome:
    """Run the expansion as far as it goes and report how far that was.

    n=2 always completes into a closed surface.  n=3 completes exactly when
    the counting criterion holds; the criterion is checked first (cheap),
    then every candidate boundary is verified to be a 2-sphere.  n >= 4
    stops after the 2-skeleton with an explicit unsupported marker.
    ``index`` is the graph's nest index when the caller already holds one.
    """
    if index is None:
        index = NestIndex(g)
    if g.n < 2:
        raise UnsupportedDimension(f"expansion needs n >= 2, got n={g.n}")
    skeleton = expand2(g, index)
    if g.n == 2:
        return ExpansionOutcome(skeleton, 2, None)
    if g.n >= 4:
        return ExpansionOutcome(
            skeleton,
            2,
            Obstruction(
                None,
                f"sphere recognition above dimension 2 is unsupported (n={g.n})",
            ),
        )

    crit = criterion_3d(g, index)
    if not crit.holds:
        return ExpansionOutcome(
            skeleton,
            2,
            Obstruction(None, crit.refusal, crit.counts()),
        )
    three_cells: list[Cell] = []
    for i, nest in enumerate(index.nests(3)):
        boundary = boundary_sphere_complex(skeleton, nest)
        verdict = sphere_check(boundary, 2)
        if not verdict.ok:
            return ExpansionOutcome(
                skeleton,
                2,
                Obstruction(
                    nest,
                    f"boundary of 3-nest {nest_label(nest)} is not a 2-sphere:"
                    f" {verdict.reason}",
                ),
            )
        three_cells.append(Cell(3, i, nest, index.within(nest, 2)))
    full = CellComplex(g, skeleton.cells_by_dim + [three_cells], index)
    return ExpansionOutcome(full, 3, None)
