"""The goodness count against the valence scan it stands in for.

``check_circles`` decides goodness by counting the vertices of all
2-nests: each vertex is 2-valent in the C(n+1, 2) 2-nests its star seeds,
and a 2-nest through it that its star does not seed meets it in one edge.
Only a count above V·C(n+1, 2) scans ``NestIndex.valence_faults(2)``, for
the witness the refusal names.  These tests take the scan as the
reference, on mutated colorings of the generated families and on random
recolorings: the excess of the count is the number of faults, the verdict
and the refusal text are the scan's, and both agree with the edge-by-edge
goodness oracle.
"""

from __future__ import annotations

import random
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skelex.errors import NotGoodColoring
from skelex.expansion import check_circles
from skelex.generators import gen_cube, gen_nonorientable_surface, gen_orientable_surface
from skelex.gf2 import ColorVector
from skelex.graph import ColoredGraph, validate
from skelex.nests import NestIndex

from conftest import criterion_counterexample, nongood_cube, six_colored_k4
from goodness_oracle import is_good

BASES = {
    "cube2": lambda: gen_cube(2),
    "cube3": lambda: gen_cube(3),
    "cube4": lambda: gen_cube(4),
    "gT2(2)": lambda: gen_orientable_surface(2),
    "kP2(3)": lambda: gen_nonorientable_surface(3),
    "six-colored K4": six_colored_k4,
    "criterion_counterexample": criterion_counterexample,
}


def scan_refusal(g: ColoredGraph) -> str | None:
    """The refusal the first fault of the valence scan gives, or None."""
    fault = next(NestIndex(g).valence_faults(2), None)
    if fault is None:
        return None
    nest, v, valence = fault
    return (
        f"2-nest {nest.edge_ids} is not a circle: vertex {v} has"
        f" valence {valence}; the coloring is not good"
    )


def count_refusal(g: ColoredGraph) -> str | None:
    try:
        check_circles(NestIndex(g))
    except NotGoodColoring as exc:
        return str(exc)
    return None


def check_agrees(g: ColoredGraph) -> bool:
    """The count against the scan and the oracle; returns whether g is good."""
    index = NestIndex(g)
    faults = list(index.valence_faults(2))
    labelled = sum(len(vertices) for layer in index.layers(2) for _, vertices in layer.parts)
    assert labelled - g.vertex_count * comb(g.width, 2) == len(faults)
    assert count_refusal(g) == scan_refusal(g)
    assert is_good(g) == (not faults)
    return not faults


def recolored(g: ColoredGraph, rng: random.Random, edits: int) -> ColoredGraph | None:
    """``g`` with ``edits`` random edges given random nonzero colors, if valid."""
    edges = list(g.edges)
    for _ in range(edits):
        e = rng.randrange(len(edges))
        u, v, _ = edges[e]
        edges[e] = (u, v, ColorVector(rng.randrange(1, 1 << g.width), g.width))
    out = ColoredGraph(g.n, g.vertex_count, tuple(edges))
    return out if validate(out).ok else None


def mutation_corpus(per_base: int = 60) -> list[tuple[str, ColoredGraph]]:
    corpus = [("nongood", nongood_cube())]
    for name, make in BASES.items():
        base = make()
        corpus.append((name, base))
        rng = random.Random(name)
        made = 0
        while made < per_base:
            g = recolored(base, rng, 1 + made % 3)
            if g is not None:
                corpus.append((f"{name} #{made}", g))
                made += 1
    return corpus


def test_count_and_scan_agree_on_the_mutation_corpus():
    verdicts = [check_agrees(g) for _, g in mutation_corpus()]
    # both verdicts are exercised, on every base
    assert 0 < sum(verdicts) < len(verdicts)
    assert sum(verdicts) > 2 * len(BASES)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(BASES)), seed=st.integers(0, 2**32 - 1),
       edits=st.integers(1, 4))
def test_count_and_scan_agree_on_random_recolorings(name, seed, edits):
    g = recolored(BASES[name](), random.Random(seed), edits)
    if g is not None:
        check_agrees(g)


@pytest.mark.parametrize("name", sorted(BASES))
def test_good_colorings_are_never_scanned(name, monkeypatch):
    # a count that matches ends the test: the scan is never started
    started = []
    real = NestIndex.valence_faults
    monkeypatch.setattr(
        NestIndex, "valence_faults", lambda index, k: started.append(k) or real(index, k)
    )
    index = NestIndex(BASES[name]())
    check_circles(index)
    assert started == []
    with pytest.raises(NotGoodColoring):
        check_circles(NestIndex(nongood_cube()))
    assert started == [2]
