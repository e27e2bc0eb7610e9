"""turantools: edge-extremal and spectral-extremal forbidden-subgraph
computations at desk scale.

The package enumerates graphs up to isomorphism, tests subgraph
containment, computes exact and floating spectral data, and assembles
per-n extremal reports with certified argmax sets.
"""

__version__ = "0.1.0"

from ._kernels import BACKEND as KERNEL_BACKEND
from .enumeration import generate
from .extremal import (
    ExtremalReport,
    build_report,
    turan_edges,
    verify_containment,
)
from .graphs import (
    CanonicalForm,
    Graph,
    canonical_form,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_graph6,
    path_graph,
    to_graph6,
    turan_graph,
    turan_parts,
)
from .patterns import (
    ForbiddenSpec,
    chromatic_number,
    contains_subgraph,
    friendship_graph,
    intersecting_cliques,
    is_free,
    parse_forbidden,
)
from .spectral import (
    EQUAL,
    GREATER,
    LESS,
    SpectralResult,
    char_poly_exact,
    compare_exact,
    multipartite_char_poly,
    secular_lambda,
    spectral_radius,
    turan_perron_closed,
)
from .structure import (
    CheckResult,
    DegreeClassReport,
    PartitionReport,
    degree_class_report,
    inclusion_exclusion_bound,
    max_cut_partition,
    structural_checks,
)

__all__ = [
    "CanonicalForm",
    "CheckResult",
    "DegreeClassReport",
    "EQUAL",
    "ExtremalReport",
    "ForbiddenSpec",
    "GREATER",
    "Graph",
    "KERNEL_BACKEND",
    "LESS",
    "PartitionReport",
    "SpectralResult",
    "build_report",
    "canonical_form",
    "char_poly_exact",
    "chromatic_number",
    "compare_exact",
    "complete_graph",
    "complete_multipartite",
    "contains_subgraph",
    "cycle_graph",
    "degree_class_report",
    "disjoint_union",
    "empty_graph",
    "friendship_graph",
    "from_graph6",
    "generate",
    "inclusion_exclusion_bound",
    "intersecting_cliques",
    "is_free",
    "max_cut_partition",
    "multipartite_char_poly",
    "parse_forbidden",
    "path_graph",
    "secular_lambda",
    "spectral_radius",
    "structural_checks",
    "to_graph6",
    "turan_edges",
    "turan_graph",
    "turan_parts",
    "turan_perron_closed",
    "verify_containment",
]
