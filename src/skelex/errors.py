"""Exception hierarchy shared by all modules.

Input problems (bad files, malformed values, invariant violations in user
data) and domain refusals (structurally sound input that the mathematics
or a scale guard rejects) are kept distinct: every refusal is a
``Refusal``, on which the CLI exits with 1, and any other error exits
with 2.
"""

from __future__ import annotations


class SkelexError(Exception):
    """Base class for all library errors."""


class Refusal(SkelexError):
    """Sound input that the mathematics or a scale guard turns down."""


class DimensionMismatch(SkelexError):
    """Vectors or subspaces of different ambient dimension were combined."""


class InvalidGraph(SkelexError):
    """A colored-graph invariant is violated (reported problems attached)."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


class NotGoodColoring(Refusal):
    """An operation requiring a good coloring was given one that is not."""


class UnsupportedDimension(SkelexError):
    """The requested dimension is outside what the construction supports."""


class ExpansionRefused(Refusal):
    """The expansion cannot be completed; details carried by the outcome."""


class NotCombinatorialManifold(Refusal):
    """A face poset fails the combinatorial-manifold conditions."""


class FormatError(SkelexError):
    """A file or stream does not follow the documented format."""


class CensusLimit(Refusal):
    """The census scale guard was exceeded."""


class FlagLimit(Refusal):
    """The dualization scale guard (the number of full flags) was exceeded."""


class GeneratorLimit(Refusal):
    """The generator scale guard (the number of vertices) was exceeded."""


class NestLimit(Refusal):
    """The nest listing scale guard (the ids all nests list) was exceeded."""
