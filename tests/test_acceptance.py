"""Acceptance suite: every criterion as one test, one printed verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
All quantities are exact integers; every comparison is exact equality.
"""

from __future__ import annotations

import functools
import random
from itertools import combinations

from skelex.classify import classify_surface, homology_mod2
from skelex.duality import (
    FacePoset,
    dual_colored_graph,
    predicted_complex,
    sphere_poset,
)
from skelex.expansion import criterion_3d, full_expand
from skelex.generators import (
    gen_cube,
    gen_nonorientable_surface,
    gen_orientable_surface,
)
from skelex.gf2 import parse_color
from skelex.graph import validate
from skelex.nests import NestIndex
from skelex.realize import isotropy_report, realizability_summary

from conftest import (
    CUBE_EDGES,
    K4_EDGES,
    colored_from_indices,
    criterion_counterexample,
    nongood_cube,
    random_proper_coloring,
    random_valid_coloring,
    torus7_simplices,
)
from goodness_oracle import is_good
from graph_helpers import color_isomorphic, connected_sum, is_pure
from nest_oracle import regularity_check


def criterion(num: int, desc: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} FAIL: {desc}")
                raise
            print(f"ACCEPTANCE {num} PASS: {desc}")

        return inner

    return wrap


# ------------------------------------------------------------- corpora


def _expandable_corpus():
    """Families, duality outputs, and 200 seeded random pure colorings."""
    graphs = []
    for g in range(1, 7):
        graphs.append(("orientable", g, gen_orientable_surface(g)))
    for k in range(1, 7):
        graphs.append(("nonorientable", k, gen_nonorientable_surface(k)))
    graphs.append(("cube", 2, gen_cube(2)))
    graphs.append(("cube", 3, gen_cube(3)))
    for n in (2, 3):
        graphs.append(("dual-sphere", n, dual_colored_graph(sphere_poset(n))))
    graphs.append(
        (
            "dual-simplex",
            2,
            dual_colored_graph(
                FacePoset.from_simplices([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
            ),
        )
    )
    graphs.append(
        ("dual-torus", 2, dual_colored_graph(FacePoset.from_simplices(torus7_simplices())))
    )
    rng = random.Random(186282)
    for i in range(100):
        coloring = random_proper_coloring(CUBE_EDGES, 8, 3, rng)
        graphs.append(("census-cube", i, colored_from_indices(CUBE_EDGES, 8, 2, coloring)))
    for i in range(100):
        coloring = random_proper_coloring(K4_EDGES, 4, 3, rng)
        graphs.append(("census-k4", i, colored_from_indices(K4_EDGES, 4, 2, coloring)))
    return graphs


_CORPUS = None


def expandable_corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = _expandable_corpus()
    return _CORPUS


def random_valid_corpus():
    """200 seeded random valid colorings (pure or not) of the small graphs."""
    rng = random.Random(299792458)
    out = []
    for _ in range(100):
        out.append(random_valid_coloring(CUBE_EDGES, 8, 3, rng))
    for _ in range(100):
        out.append(random_valid_coloring(K4_EDGES, 4, 3, rng))
    out.append(nongood_cube())
    return out


# ------------------------------------------------------------ criteria


@criterion(1, "surface families: counts, flags, classification for g,k=1..6")
def test_criterion_1_surface_families():
    for g in range(1, 7):
        graph = gen_orientable_surface(g)
        assert validate(graph).ok and is_pure(graph) and is_good(graph)
        assert (graph.vertex_count, graph.edge_count) == (8 * g, 12 * g)
        assert NestIndex(graph).counts() == (8 * g, 12 * g, 2 * g + 2)
        report = classify_surface(full_expand(graph).complex)
        assert report.orientable and report.euler == 2 - 2 * g
    for k in range(1, 7):
        graph = gen_nonorientable_surface(k)
        assert validate(graph).ok and is_pure(graph) and is_good(graph)
        assert (graph.vertex_count, graph.edge_count) == (4 * k, 6 * k)
        assert NestIndex(graph).counts() == (4 * k, 6 * k, k + 2)
        report = classify_surface(full_expand(graph).complex)
        assert not report.orientable and report.euler == 2 - k


@criterion(2, "cube graph is a 2-sphere; the k=1 family is the projective K4")
def test_criterion_2_figure_one():
    cube = gen_cube(2)
    assert classify_surface(full_expand(cube).complex).name == "S2"
    k4 = gen_nonorientable_surface(1)
    assert k4.vertex_count == 4 and k4.edge_count == 6
    pairs = sorted(tuple(sorted(k4.ends(e))) for e in range(6))
    assert pairs == sorted(combinations(range(4), 2))  # complete graph
    assert classify_surface(full_expand(k4).complex).name == "kP2(1)"


@criterion(3, "n=3 criterion: hypercube passes with homology (1,0,0,1); the"
              " (8,12,5) reconstruction is refused with exactly those counts")
def test_criterion_3_three_manifolds():
    hypercube = gen_cube(3)
    crit = criterion_3d(hypercube)
    assert crit.holds and crit.counts() == (16, 24, 8)
    assert crit.three_nests == crit.two_nests - crit.vertex_count == 8
    outcome = full_expand(hypercube)
    assert outcome.completed
    assert homology_mod2(outcome.complex).betti_mod2 == (1, 0, 0, 1)

    bad = criterion_counterexample()
    assert validate(bad).ok and is_good(bad)
    crit = criterion_3d(bad)
    assert not crit.holds and crit.counts() == (8, 12, 5)
    refused = full_expand(bad)
    assert not refused.completed
    assert refused.obstruction.counts == (8, 12, 5)


@criterion(4, "duality roundtrips: cubes, the simplex boundary, the 7-vertex"
              " torus; nest census equals flag census everywhere")
def test_criterion_4_duality():
    for n in (1, 2, 3):
        poset = sphere_poset(n)
        dual = dual_colored_graph(poset)
        assert color_isomorphic(dual, gen_cube(n))
        assert NestIndex(dual).counts() == predicted_complex(poset)

    delta = FacePoset.from_simplices([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    dual = dual_colored_graph(delta)
    assert NestIndex(dual).counts() == predicted_complex(delta)
    assert classify_surface(full_expand(dual).complex).name == "S2"

    torus = FacePoset.from_simplices(torus7_simplices())
    dual = dual_colored_graph(torus)
    assert NestIndex(dual).counts() == predicted_complex(torus)
    report = classify_surface(full_expand(dual).complex)
    assert report.orientable and report.genus == 1


@criterion(5, "corpus properties: boundary condition, euler sums, b0, mod-2"
              " duality, two top cells per ridge")
def test_criterion_5_property_suite():
    for name, tag, graph in expandable_corpus():
        outcome = full_expand(graph)
        assert outcome.completed, (name, tag)
        complex_ = outcome.complex
        assert complex_.boundary_condition_holds(), (name, tag)
        counts = NestIndex(graph).counts()
        chi = complex_.euler()
        assert sum((-1) ** k * c for k, c in enumerate(counts)) == chi, (name, tag)
        assert complex_.counts() == counts, (name, tag)
        betti = homology_mod2(complex_).betti_mod2
        assert betti[0] == 1, (name, tag)
        assert betti == tuple(reversed(betti)), (name, tag)
        for uses in complex_.cofaces(complex_.top_dim - 1):
            assert len(uses) == 2, (name, tag)


@criterion(6, "goodness is equivalent to nest regularity on the randomized"
              " corpus, with zero discrepancies")
def test_criterion_6_goodness_regularity_equivalence():
    mismatches = []
    seen_nongood = 0
    for i, graph in enumerate(random_valid_corpus()):
        assert graph is not None, f"sampler failed at {i}"
        good = is_good(graph)
        regular = regularity_check(graph).ok
        if good != regular:
            mismatches.append(i)
        seen_nongood += not good
    assert mismatches == []
    assert seen_nongood > 0, "corpus exercised only good colorings"


@criterion(7, "connected sums: two tori make genus 2, two projective planes"
              " make the Klein bottle")
def test_criterion_7_connected_sums():
    def edge_colored(g, text):
        return next(i for i in range(g.edge_count) if g.color(i) == parse_color(text))

    a, b = gen_orientable_surface(1), gen_orientable_surface(1)
    s = connected_sum(a, edge_colored(a, "100"), b, edge_colored(b, "100"))
    report = classify_surface(full_expand(s).complex)
    assert report.orientable and report.genus == 2 and report.euler == -2

    a, b = gen_nonorientable_surface(1), gen_nonorientable_surface(1)
    s = connected_sum(a, edge_colored(a, "100"), b, edge_colored(b, "100"))
    report = classify_surface(full_expand(s).complex)
    assert not report.orientable and report.euler == 0 and report.genus == 2


@criterion(8, "realization shadow: isotropy co-rank equals nest dimension;"
              " doubling exactly for odd-euler surfaces")
def test_criterion_8_realization():
    for name, tag, graph in expandable_corpus():
        for record in isotropy_report(graph):
            assert len(record.subgroup_basis) + record.nest.dim == graph.width, (
                name,
                tag,
            )
        summary = realizability_summary(graph)
        chi = full_expand(graph).complex.euler()
        if graph.n == 2:
            assert summary.doubling_required == (chi % 2 == 1), (name, tag)
        else:
            assert not summary.doubling_required, (name, tag)
