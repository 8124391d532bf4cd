"""Coalition partitions, singleton-coalition graphs, and chain verification
for small graphs.

The package computes exact coalition numbers, recognizes the constructive
families characterizing singleton-partition graphs of minimum degree at
most two, iterates singleton-coalition chains, and exhaustively verifies
the claim catalog over all small isomorphism classes.
"""

from .canon import (
    BACKEND_NAME,
    IS_COMPILED,
    are_isomorphic,
    canonical_form,
    class_count,
    enumerate_graphs,
)
from .chains import (
    ChainResult,
    ChainTemplate,
    LsccValue,
    classify_chain,
    l_scc,
    sc_chain,
)
from .coalition_graph import NotSingletonPartitionGraph, coalition_graph, sc_graph
from .domination import (
    CoalitionNumberResult,
    Partition,
    PartitionVerdict,
    SpVerdict,
    closed_neighborhood,
    coalition_number_exact,
    forms_coalition,
    is_coalition_partition,
    is_dominating,
    singleton_partition,
    sp_check,
)
from .families import (
    FamilySpec,
    generate_family,
    parse_family_spec,
    recognize_f1,
    recognize_f2,
    recognize_h1,
    recognize_h2,
)
from .graphs import (
    DegreeStats,
    Graph,
    Graph6Error,
    build_named,
    degree_stats,
    emit_graph6,
    parse_graph6,
    read_graph6_file,
)
from .verify import (
    TheoremReport,
    all_theorem_ids,
    sweep_chains,
    verify_claims,
    verify_theorem,
)

__all__ = [
    "BACKEND_NAME",
    "IS_COMPILED",
    "ChainResult",
    "ChainTemplate",
    "CoalitionNumberResult",
    "DegreeStats",
    "FamilySpec",
    "Graph",
    "Graph6Error",
    "LsccValue",
    "NotSingletonPartitionGraph",
    "Partition",
    "PartitionVerdict",
    "SpVerdict",
    "TheoremReport",
    "all_theorem_ids",
    "are_isomorphic",
    "build_named",
    "canonical_form",
    "class_count",
    "classify_chain",
    "closed_neighborhood",
    "coalition_graph",
    "coalition_number_exact",
    "degree_stats",
    "emit_graph6",
    "enumerate_graphs",
    "forms_coalition",
    "generate_family",
    "is_coalition_partition",
    "is_dominating",
    "l_scc",
    "parse_family_spec",
    "parse_graph6",
    "read_graph6_file",
    "recognize_f1",
    "recognize_f2",
    "recognize_h1",
    "recognize_h2",
    "sc_chain",
    "sc_graph",
    "singleton_partition",
    "sp_check",
    "sweep_chains",
    "verify_claims",
    "verify_theorem",
]
