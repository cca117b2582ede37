"""Round-synchronous gossip discovery processes on dynamic graphs:
simulator, exact small-instance oracle, and experiment harness."""

from .graph import (
    DirectedGraph,
    EdgeListFormatError,
    GraphError,
    InvalidNodeError,
    IsolatedNodeError,
    SelfLoopError,
    UndirectedGraph,
    is_strongly_connected,
    is_weakly_connected,
    read_edge_list,
    transitive_closure,
    write_edge_list,
)
from .generators import (
    FAMILIES,
    FamilyConstraintError,
    complete_graph,
    cycle_graph,
    directed_strong_lb,
    directed_weak_lb,
    generate,
    lollipop_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from .process import (
    DEFAULT_MAX_ROUNDS,
    DisconnectedGraphError,
    ProcessConfig,
    ProcessGraphMismatchError,
    ProcessKind,
    RoundOutcome,
    directed_twohop_round,
    mix64,
    run_to_convergence,
    trial_seed,
    triangulation_round,
    twohop_round,
)
from .analysis import (
    PhTable,
    RoundTrace,
    TraceCollector,
    ph_bound_check,
    ph_recurrence,
    smallest_untouched_cut,
    traces_to_csv,
)
from .oracle import (
    NonmonotonePair,
    OracleIntractableError,
    empirical_vs_exact,
    expected_rounds,
    nonmonotone_search,
    single_round_distribution,
)
from .harness import ExperimentSpec, TrialRow, aggregate_rows, run_sweep, scaling_report

__version__ = "0.1.0"
