"""semlab: decide super edge-magicness of small graphs with certificates.

Combines analytic non-existence obstructions with a pruned exhaustive
search over vertex labelings, and computes the valence interval and the
set of realized valences of a graph.
"""

from .graphs import (
    CactusSpec,
    Graph,
    GraphError,
    degree_sequence,
    degseq_4_2_realizations,
    disjoint_union,
    make_cactus,
    make_cycle,
    make_two_cycle,
    parse_graph,
    serialize_graph,
)
from .labeling import (
    LabelingError,
    SemLabeling,
    ValenceInterval,
    VerifyResult,
    complement_labeling,
    dual_valence,
    edge_sums,
    extend_to_sem,
    is_extendable,
    rearrangement_extremes,
    sem_interval,
    valence_of,
    verify_sem,
)
from .obstructions import (
    DEGSEQ_4_2_EVEN_ORDER,
    EVEN_DEG_Q_MOD4,
    VALENCE_INTEGRALITY,
    ObstructionVerdict,
    check_all,
    check_degseq_4_2_even_order,
    check_even_degree_parity,
    check_valence_integrality,
    theorem_valence_gap,
)
from .solver import (
    DEFAULT_BUDGET,
    NOT_PERFECT,
    PERFECT,
    STATUS_NOT_SEM_EXHAUSTED,
    STATUS_NOT_SEM_OBSTRUCTION,
    STATUS_SEM,
    STATUS_TRIVIAL_EDGELESS,
    STATUS_UNKNOWN_BUDGET_EXCEEDED,
    UNKNOWN,
    VACUOUS_NOT_SEM,
    SearchConfig,
    SearchOutcome,
    SearchStats,
    ValenceSet,
    assignment_order,
    is_perfect_sem,
    oracle_search,
    search_sem,
    sem_set,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
