"""Exception hierarchy shared by all modules.

Input problems (bad files, malformed values, invariant violations in user
data) and domain refusals (structurally sound input that the mathematics
rejects) are kept distinct so the CLI can map them to different exit codes.
"""

from __future__ import annotations


class SkelexError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SkelexError):
    """Vectors or subspaces of different ambient dimension were combined."""


class InvalidGraph(SkelexError):
    """A colored-graph invariant is violated (reported problems attached)."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


class NotGoodColoring(SkelexError):
    """An operation requiring a good coloring was given one that is not."""


class UnsupportedDimension(SkelexError):
    """The requested dimension is outside what the construction supports."""


class ExpansionRefused(SkelexError):
    """The expansion cannot be completed; details carried by the outcome."""


class NotCombinatorialManifold(SkelexError):
    """A face poset fails the combinatorial-manifold conditions."""


class FormatError(SkelexError):
    """A file or stream does not follow the documented format."""


class CensusLimit(SkelexError):
    """The census scale guard was exceeded."""


class FlagLimit(SkelexError):
    """The dualization scale guard (the number of full flags) was exceeded."""


class GeneratorLimit(SkelexError):
    """The generator scale guard (the number of vertices) was exceeded."""


class NestLimit(SkelexError):
    """The nest listing scale guard (the ids all nests list) was exceeded."""
