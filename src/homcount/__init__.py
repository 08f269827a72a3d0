"""Exact counting of graph homomorphisms, vertex-surjective homomorphisms,
and compactions between small graphs with loops.

The package keeps every count exact: the kernels run a dynamic program
over the source's vertices with integer arithmetic, the inversion and
recovery layers work over the integers, and the closed-form counters for
the tractable target families are plain integer formulas.
"""

from .canonical import (
    GraphKey,
    are_isomorphic,
    canonical_form,
    canonical_key,
    enumerate_graphs,
    graph_from_key,
)
from .counting import aut_count, hom_count, vesurj_count, vsurj_count
from .errors import (
    BudgetExceededError,
    GraphParseError,
    InternalCheckError,
    OracleMismatchError,
    SingularSystemError,
    SizeLimitError,
)
from .families import (
    classification_json,
    classify_C,
    classify_F,
    find_hard_edge,
    hom_polytime,
    vesurj_polytime,
    vsurj_polytime,
)
from .graphs import (
    Graph,
    biclique,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    load_graph,
    parse_graph,
    path_graph,
    quotient,
    reflexive_clique,
    to_text,
)
from .interpolation import (
    CountingOracle,
    ExternalCommandOracle,
    LovaszSystem,
    alpha_for_vesurj,
    alpha_for_vsurj,
    build_system,
    closed_set,
    homomorphic_images,
    lovasz_matrix,
    recover_hom,
    reduction_demo,
)
from .inversion import (
    CoeffVector,
    dsub_count,
    dsub_downset,
    dsub_inverse_column,
    ind_count,
    verify_expansions,
    vesurj_via_inversion,
    vsurj_via_inversion,
)
from .kernels import backend_name

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphKey",
    "CoeffVector",
    "LovaszSystem",
    "CountingOracle",
    "ExternalCommandOracle",
    "hom_count",
    "vsurj_count",
    "vesurj_count",
    "aut_count",
    "ind_count",
    "dsub_count",
    "dsub_downset",
    "dsub_inverse_column",
    "vsurj_via_inversion",
    "vesurj_via_inversion",
    "verify_expansions",
    "classify_F",
    "classify_C",
    "find_hard_edge",
    "hom_polytime",
    "vsurj_polytime",
    "vesurj_polytime",
    "classification_json",
    "homomorphic_images",
    "closed_set",
    "lovasz_matrix",
    "alpha_for_vsurj",
    "alpha_for_vesurj",
    "build_system",
    "recover_hom",
    "reduction_demo",
    "canonical_form",
    "canonical_key",
    "graph_from_key",
    "are_isomorphic",
    "enumerate_graphs",
    "parse_graph",
    "load_graph",
    "to_text",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "biclique",
    "reflexive_clique",
    "disjoint_union",
    "induced_subgraph",
    "quotient",
    "connected_components",
    "backend_name",
    "GraphParseError",
    "SizeLimitError",
    "BudgetExceededError",
    "InternalCheckError",
    "SingularSystemError",
    "OracleMismatchError",
    "__version__",
]
