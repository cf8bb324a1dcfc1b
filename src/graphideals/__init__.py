"""Edge ideals of edge-weighted graphs.

Monomial ideal arithmetic, irredundant m-irreducible decompositions by
two independent routes (minimal weighted vertex covers and generator
splitting), and unmixedness / Cohen-Macaulayness classification for
cycles, complete graphs, suspensions and trees (paths among them).
"""

__version__ = "0.1.0"

from .monomials import (
    ContextMismatchError,
    Monomial,
    MonomialIdeal,
    VariableContext,
    bracket_power,
    depolarize,
    divides,
    ideal_eq,
    ideal_leq,
    intersect,
    m_radical,
    member,
    polarize,
)
from .decompose import (
    DEFAULT_COMPONENT_CAP,
    Decomposition,
    DecompositionLimitError,
    IrreducibleComponent,
    is_m_unmixed_ideal,
    split_decompose,
)
from .graphs import (
    Edge,
    GraphValidationError,
    UnmixednessResult,
    WeightedGraph,
    associated_primes,
    complete_graph,
    cover_decomposition,
    cover_leq,
    cycle_graph,
    edge_ideal,
    enumerate_minimal_covers,
    is_unmixed,
    is_weighted_cover,
    minimal_primes,
    minimal_vertex_covers,
    minimize_cover,
    path_graph,
    suspend,
    validate_graph,
    weighted_edge_ideal,
)
from .classify import (
    CM_NO,
    CM_UNKNOWN,
    CM_YES,
    FamilyMismatchError,
    SuspensionDecomposition,
    Verdict,
    classify_auto,
    classify_complete,
    classify_cycle,
    classify_suspension,
    classify_tree,
    cycle_weight_sequence,
    recognize_suspensions,
)
