"""The reference goodness test: the unique-partner condition, edge by edge.

``check_good`` looks, for every edge e1 = (v, w) and every e0 at v, for
the one e2 at w whose color is congruent to e0's modulo e1's, and gathers
the partner maps into the connection.  The pipeline decides goodness by
its 2-nests alone (``expansion.check_circles``); tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from skelex.errors import NotGoodColoring, SkelexError
from skelex.graph import ColoredGraph, require_valid

from conftest import edges_at


class InvalidModulus(SkelexError):
    """Congruence modulus must be a nonzero vector."""


def congruent_mod(a: int, b: int, m: int) -> bool:
    """True iff the color masks satisfy a + b in {0, m}."""
    if m == 0:
        raise InvalidModulus("congruence modulus must be nonzero")
    return (a ^ b) in (0, m)


@dataclass(frozen=True)
class Connection:
    """Per-edge bijections between the edge stars of its two endpoints.

    ``maps[(e, v)]`` sends each edge at v to its partner at the other end
    of e; colors of partners are congruent modulo the color of e.
    """

    maps: dict[tuple[int, int], dict[int, int]]

    def across(self, e: int, tail: int) -> dict[int, int]:
        return self.maps[(e, tail)]


@dataclass(frozen=True)
class GoodnessReport:
    good: bool
    connection: Connection | None
    witness: tuple[int, int, int] | None  # (edge e1, vertex v, edge e0 at v)


def check_good(g: ColoredGraph) -> GoodnessReport:
    """Decide goodness and build the connection when it exists.

    For every edge e1 = (v, w) and every e0 at v there must be exactly one
    e2 at w whose color is congruent to e0's modulo e1's; the collected
    partner maps form the connection.
    """
    require_valid(g)
    maps: dict[tuple[int, int], dict[int, int]] = {}
    for e1, (u1, v1, c1) in enumerate(g.edges):
        for tail, head in ((u1, v1), (v1, u1)):
            table: dict[int, int] = {}
            for e0 in edges_at(g, tail):
                c0 = g.color(e0)
                partners = [
                    e2 for e2 in edges_at(g, head)
                    if congruent_mod(c0, g.color(e2), c1)
                ]
                if len(partners) != 1:
                    return GoodnessReport(False, None, (e1, tail, e0))
                table[e0] = partners[0]
            maps[(e1, tail)] = table
    return GoodnessReport(True, Connection(maps), None)


def is_good(g: ColoredGraph) -> bool:
    return check_good(g).good


def connection(g: ColoredGraph) -> Connection:
    report = check_good(g)
    if not report.good:
        raise NotGoodColoring(f"coloring is not good, witness {report.witness}")
    assert report.connection is not None
    return report.connection
