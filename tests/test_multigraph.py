"""Parallel-edge graphs through the whole pipeline.

Two vertices joined by n+1 parallel edges in distinct basis colors make the
smallest valid graphs; every nest is a bundle of parallel edges and every
disc is a bigon, which exercises the edge-id-based circle walking and the
vertex-link logic where endpoint pairs alone would be ambiguous.
"""

from __future__ import annotations

import pytest

from skelex.classify import classify_surface, homology_mod2
from skelex.expansion import criterion_3d, full_expand
from skelex.graph import validate
from skelex.nests import NestIndex

from conftest import banana
from goodness_oracle import is_good
from graph_helpers import is_pure
from local_check_oracle import manifold_local_check


class TestSurfaceBanana:
    def test_validity(self):
        g = banana(2)
        assert validate(g).ok and is_pure(g) and is_good(g)

    def test_nests_are_bigons(self):
        assert NestIndex(banana(2)).counts() == (2, 3, 3)

    def test_expands_to_sphere(self):
        out = full_expand(banana(2))
        assert out.completed
        assert out.complex.counts() == (2, 3, 3)
        report = classify_surface(out.complex)
        assert report.name == "S2"
        assert manifold_local_check(out.complex).ok


class TestPillow:
    def test_criterion(self):
        crit = criterion_3d(banana(3))
        assert crit.holds
        assert crit.counts() == (2, 6, 4)

    def test_expands_to_homology_sphere(self):
        out = full_expand(banana(3))
        assert out.completed
        assert out.complex.counts() == (2, 4, 6, 4)
        assert out.complex.euler() == 0
        assert homology_mod2(out.complex).betti_mod2 == (1, 0, 0, 1)
        assert manifold_local_check(out.complex).ok


@pytest.mark.parametrize("n", [2, 3])
def test_boundary_condition(n):
    assert full_expand(banana(n)).complex.boundary_condition_holds()
