"""Colored regular graphs, their skeletal expansions, and the way back.

The pipeline: a regular (n+1)-valent graph whose edges carry independent
GF(2)^(n+1) colors at every vertex grows a cell complex (one k-cell per
k-nest); when the expansion closes up, the result is a closed n-manifold,
classified exactly for surfaces and by mod-2 homology for 3-manifolds.
Conversely, any combinatorial manifold's face poset dualizes back to such
a colored graph.
"""

from .classify import (
    HomologyReport,
    SurfaceReport,
    classify_surface,
    homology_mod2,
)
from .duality import (
    FacePoset,
    dual_colored_graph,
    parse_poset,
    predicted_complex,
    sphere_poset,
)
from .errors import (
    CensusLimit,
    DimensionMismatch,
    ExpansionRefused,
    FlagLimit,
    FormatError,
    GeneratorLimit,
    InvalidGraph,
    NestLimit,
    NotCombinatorialManifold,
    NotGoodColoring,
    SkelexError,
    UnsupportedDimension,
)
from .expansion import (
    CellComplex,
    ExpansionOutcome,
    criterion_3d,
    expand2,
    full_expand,
)
from .generators import (
    gen_cube,
    gen_nonorientable_surface,
    gen_orientable_surface,
)
from .gf2 import (
    Subspace,
    intersect,
    rank_masks,
    span,
)
from .graph import (
    ColoredGraph,
    parse,
    read_graph,
    serialize,
    validate,
)
from .nests import (
    Nest,
    NestIndex,
    nest_label,
)
from .realize import (
    isotropy_report,
    realizability_summary,
)

__all__ = [
    "CellComplex",
    "CensusLimit",
    "ColoredGraph",
    "DimensionMismatch",
    "ExpansionOutcome",
    "ExpansionRefused",
    "FacePoset",
    "FlagLimit",
    "FormatError",
    "GeneratorLimit",
    "HomologyReport",
    "InvalidGraph",
    "Nest",
    "NestIndex",
    "NestLimit",
    "NotCombinatorialManifold",
    "NotGoodColoring",
    "SkelexError",
    "Subspace",
    "SurfaceReport",
    "UnsupportedDimension",
    "classify_surface",
    "criterion_3d",
    "dual_colored_graph",
    "expand2",
    "full_expand",
    "gen_cube",
    "gen_nonorientable_surface",
    "gen_orientable_surface",
    "homology_mod2",
    "intersect",
    "isotropy_report",
    "nest_label",
    "parse",
    "parse_poset",
    "predicted_complex",
    "rank_masks",
    "read_graph",
    "realizability_summary",
    "serialize",
    "span",
    "sphere_poset",
    "validate",
]
