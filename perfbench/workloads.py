"""The benchmark's three workloads as lists of CLI calls with their checks.

One pass runs every call of a workload in order.  A call is one item: it
is timed alone, and then its exit code and output files are checked
against answers from ``corpus`` (never from skelex).  Later calls read the
files earlier ones wrote, so a failed call usually fails its successors
too; each failure is counted, none stops the pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpus


class CheckFailed(Exception):
    """An output disagrees with the known answer."""


@dataclass
class Call:
    item: str
    argv: list[str]
    expect_rc: int
    outputs: list[Path]  # removed before the call, so no stale file passes
    check: Callable[[], None]  # raises on a wrong answer; runs untimed


def build(name: str, seed: int, workdir: Path) -> list[Call]:
    """Write the workload's input files for ``seed`` and return its calls."""
    return BUILDERS[name](random.Random(seed), workdir)


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _check_graph_file(data, n: int, vertices: int) -> None:
    _expect("n", data["n"], n)
    _expect("vertex count", data["vertices"], vertices)
    _expect("edge count", len(data["edges"]), vertices * (n + 1) // 2)
    valence = [0] * vertices
    for u, v, _ in data["edges"]:
        valence[u] += 1
        valence[v] += 1
    _expect("valences", set(valence), {n + 1})


# ------------------------------------------------------------ threefold


def _threefold(rng: random.Random, wd: Path) -> list[Call]:
    """C(m,4) boundaries, dualized and classified: closed 3-spheres."""
    calls = []
    for m in (8, 10, 12):
        facets = corpus.cyclic_polytope_facets(m)
        poset = wd / f"c{m}-4.json"
        _write(poset, {"simplices": corpus.relabel_facets(facets, m, rng)})
        dual = wd / f"c{m}-4-dual.json"
        report = wd / f"c{m}-4-classify.json"
        # a full flag of a simplicial 3-sphere is a facet with an ordering
        # of its 4 vertices, so the dual has 24 vertices per facet
        vertices = 24 * len(facets)

        def check_dual(dual=dual, vertices=vertices):
            _check_graph_file(_load(dual), 3, vertices)

        def check_classify(report=report):
            data = _load(report)
            _expect("betti_mod2", data["betti_mod2"], [1, 0, 0, 1])
            _expect("euler", data["euler"], 0)

        calls += [
            Call(f"C({m},4) dualize", ["dualize", str(poset), "--out", str(dual)],
                 0, [dual], check_dual),
            Call(f"C({m},4) classify",
                 ["classify", str(dual), "--format", "json", "--out", str(report)],
                 0, [report], check_classify),
        ]
    return calls


# -------------------------------------------------------------- skeleta


def _relabel_generated(generated: Path, relabelled: Path, n: int, perm: list[int]):
    """Check a generated graph's shape, then write it with vertex ids permuted."""

    def check():
        data = _load(generated)
        _check_graph_file(data, n, len(perm))
        data["edges"] = [[perm[u], perm[v], c] for u, v, c in data["edges"]]
        _write(relabelled, data)

    return check


def _skeleta(rng: random.Random, wd: Path) -> list[Call]:
    """Surface families through classify and realize; cubes through nests
    and expand, which stops at the 2-skeleton for n >= 4."""
    calls = []
    for orientable, genus in ((True, 128), (True, 512), (False, 128), (False, 512)):
        if orientable:
            name, flags, vertices = f"gT2({genus})", [], 8 * genus
            euler, isotropy_rows = 2 - 2 * genus, 22 * genus + 2
        else:
            name, flags, vertices = f"kP2({genus})", ["--non-orientable"], 4 * genus
            euler, isotropy_rows = 2 - genus, 11 * genus + 2
        generated = wd / f"{name}.json"
        graph = wd / f"{name}-relabelled.json"
        classified = wd / f"{name}-classify.json"
        realized = wd / f"{name}-realize.json"
        perm = corpus.vertex_permutation(vertices, rng)

        def check_classify(classified=classified, name=name, orientable=orientable,
                           euler=euler, genus=genus):
            data = _load(classified)
            _expect("name", data["name"], name)
            _expect("orientable", data["orientable"], orientable)
            _expect("euler", data["euler"], euler)
            _expect("genus", data["genus"], genus)

        def check_realize(realized=realized, euler=euler, vertices=vertices,
                          isotropy_rows=isotropy_rows):
            data = _load(realized)
            _expect("euler", data["euler"], euler)
            _expect("bounds_directly", data["bounds_directly"], euler % 2 == 0)
            _expect("doubling_required", data["doubling_required"], euler % 2 == 1)
            _expect("fixed_points", data["fixed_points"], vertices)
            _expect("isotropy rows", len(data["isotropy"]), isotropy_rows)
            for row in data["isotropy"]:
                _expect("corank", row["corank"], row["dim"])
                _expect("copies", row["copies"], 2 ** row["dim"])

        calls += [
            Call(f"{name} generate",
                 ["generate", "surface", "--genus", str(genus), *flags,
                  "--out", str(generated)],
                 0, [generated, graph], _relabel_generated(generated, graph, 2, perm)),
            Call(f"{name} classify",
                 ["classify", str(graph), "--format", "json", "--out", str(classified)],
                 0, [classified], check_classify),
            Call(f"{name} realize",
                 ["realize", str(graph), "--table", "--format", "json",
                  "--out", str(realized)],
                 0, [realized], check_realize),
        ]
    for n in (5, 6):
        nu = corpus.cube_nest_counts(n)
        generated = wd / f"cube{n}.json"
        graph = wd / f"cube{n}-relabelled.json"
        nests = wd / f"cube{n}-nests.json"
        expanded = wd / f"cube{n}-expand.json"
        perm = corpus.vertex_permutation(nu[0], rng)

        def check_nests(nests=nests, nu=nu):
            data = _load(nests)
            _expect("nu", data["nu"], nu)
            per_dim = [0] * len(nu)
            for nest in data["nests"]:
                per_dim[nest["dim"]] += 1
            _expect("nests listed per dimension", per_dim, nu)

        def check_expand(expanded=expanded, nu=nu):
            data = _load(expanded)
            _expect("cells", data["cells"], nu[:3])
            _expect("completed", data["completed"], False)
            _expect("reached_dim", data["reached_dim"], 2)

        calls += [
            Call(f"cube{n} generate",
                 ["generate", "cube", "--n", str(n), "--out", str(generated)],
                 0, [generated, graph], _relabel_generated(generated, graph, n, perm)),
            Call(f"cube{n} nests",
                 ["nests", str(graph), "--format", "json", "--out", str(nests)],
                 0, [nests], check_nests),
            Call(f"cube{n} expand",
                 ["expand", str(graph), "--format", "json", "--out", str(expanded)],
                 1, [expanded], check_expand),
        ]
    return calls


# --------------------------------------------------------------- census


class _CensusAnswer:
    """Expected census of one underlying graph, computed on first use."""

    def __init__(self, edges, vertices: int, n: int, axes: list[int] | None):
        self.edges, self.vertices, self.n, self.axes = edges, vertices, n, axes
        self.expected: dict[tuple[int, ...], object] | None = None

    def _solve(self) -> dict[tuple[int, ...], object]:
        """Per class: (euler, orientable) for n=2, criterion verdict for n=3.

        A pure 3-colored cubic graph spans an orientable surface exactly
        when it is bipartite; its faces are the bicolored cycles.
        """
        edges, vertices, n = self.edges, self.vertices, self.n
        orientable = corpus.is_bipartite(edges, vertices)
        expected = {}
        for coloring in corpus.canonical_colorings(edges, vertices, n + 1):
            nu = corpus.nest_counts(edges, vertices, coloring, n)
            if n == 2:
                expected[coloring] = (nu[0] - nu[1] + nu[2], orientable)
            else:
                expected[coloring] = nu[3] == nu[2] - nu[0]
        return expected

    def check(self, path: Path) -> None:
        if self.expected is None:
            self.expected = self._solve()
        entries = _load(path)
        got = [tuple(entry["coloring"]) for entry in entries]
        _expect("class count", len(got), len(self.expected))
        if set(got) != set(self.expected):
            stray = sorted(set(got) ^ set(self.expected))[0]
            raise CheckFailed(f"coloring {stray} is in one of output/expected only")
        for entry, coloring in zip(entries, got):
            if self.n == 2:
                euler, orientable = self.expected[coloring]
                _expect(f"{coloring} euler", entry["euler"], euler)
                _expect(f"{coloring} orientable", entry["orientable"], orientable)
                _expect(f"{coloring} surface", entry["surface"],
                        corpus.surface_name(euler, orientable))
            elif self.expected[coloring]:
                betti = entry.get("betti_mod2")
                if betti is None or betti[0] != 1 or betti != betti[::-1]:
                    raise CheckFailed(
                        f"{coloring}: betti {betti} breaks mod-2 Poincare duality"
                    )
            else:
                _expect(f"{coloring} refused", "refused" in entry, True)
        if self.axes is not None:
            axis = corpus.least_in_orbit(tuple(self.axes), self.n + 1)
            betti = next(e.get("betti_mod2") for e, c in zip(entries, got) if c == axis)
            _expect("axis coloring betti", betti, [1, 0, 0, 1])


def _census(rng: random.Random, wd: Path) -> list[Call]:
    """Every pure coloring of prisms (n=2) and of the 4-cube (n=3)."""
    cube_edges, cube_axes = corpus.hypercube_edges(4)
    graphs = [(f"prism{r}", corpus.prism_edges(r), 2 * r, 2, None) for r in (4, 6, 8)]
    graphs.append(("4-cube", cube_edges, 16, 3, cube_axes))
    calls = []
    for name, edges, vertices, n, axes in graphs:
        edges, order = corpus.shuffle_graph(edges, vertices, rng)
        if axes is not None:
            axes = [axes[i] for i in order]
        source = wd / f"{name}.json"
        _write(source, {"n": n, "vertices": vertices, "edges": [list(e) for e in edges]})
        out = wd / f"{name}-census.json"
        answer = _CensusAnswer(edges, vertices, n, axes)
        calls.append(
            Call(f"{name} census",
                 ["census", str(source), "--format", "json", "--out", str(out)],
                 0, [out], lambda answer=answer, out=out: answer.check(out))
        )
    return calls


BUILDERS = {"threefold": _threefold, "skeleta": _skeleta, "census": _census}
