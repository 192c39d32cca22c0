"""Exact Schur expansions of chromatic symmetric functions.

The package builds incomparability graphs (complete multipartite graphs in
particular), computes Schur coefficients of their chromatic symmetric
functions by several independent routes, and classifies the Schur-positivity
of complete multipartite graphs with machine-checkable certificates.
"""

from .classifier import (
    ClassificationReport,
    classify,
    verify_classification,
    witness_for,
)
from .errors import (
    BadShapeError,
    CapExceededError,
    ChromsymError,
    CycleError,
    EmptyPartitionError,
    LengthOneError,
    NoAscentError,
    OrderIncompatibleError,
    PositiveFamilyError,
    SizeMismatchError,
    UnequalWeightError,
)
from .oracle import (
    SSYT,
    KostkaMatrix,
    coloring_count,
    enumerate_ssyt,
    kostka,
    monomial_to_schur,
    schur_to_monomial,
    specialize_ones,
    x_in_monomial,
)
from .partitions import (
    Composition,
    Diagram,
    Partition,
    aspartition,
    dominates,
    is_balanced,
    partitions_of,
    sort_to_partition,
)
from .posets import (
    Graph,
    Poset,
    has_stable_partition,
    incomparability_graph,
    multipartite,
    multipartite_has_stable_partition,
    multipartite_stable_partition_count,
    niceness_violation,
    semi_ordered_count,
    stable_partition_count,
    stable_partition_count_backtracking,
    stable_sets,
)
from .schur import (
    CoeffReport,
    ScanResult,
    coeff_closed_2beta,
    coeff_closed_32beta,
    coeff_report,
    expand_schur,
    positivity_scan,
)
from .sequences import is_nonincreasing, nsp_bruteforce, nsp_chain_union
from .symfunc import SymFunc
from .tabloids import (
    RimHook,
    SRHGTabloid,
    SRHTabloid,
    check_srh_g_tabloid,
    count_srh_tabloids,
    enumerate_srh_g_tabloids,
    enumerate_srh_tabloids,
    psi_involution,
    render_ascii,
    signed_content_census,
    signed_g_tabloid_counts,
    tail_head_split,
)

__version__ = "0.1.0"
