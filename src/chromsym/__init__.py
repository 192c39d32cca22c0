"""Exact Schur expansions of chromatic symmetric functions.

The package builds incomparability graphs (complete multipartite graphs in
particular), computes Schur coefficients of their chromatic symmetric
functions by several independent routes, and classifies the Schur-positivity
of complete multipartite graphs with machine-checkable certificates.

The referees of :mod:`chromsym.reference` are resolved on first use, so
``from chromsym import enumerate_ssyt`` works and only ``oracle-check`` compiles them.
"""

from .classifier import ClassificationReport, classify, verify_classification
from .errors import (
    BadShapeError,
    CapExceededError,
    ChromsymError,
    CycleError,
    EmptyPartitionError,
    LengthOneError,
    NoAscentError,
    OrderIncompatibleError,
    SizeMismatchError,
    UnequalWeightError,
)
from .oracle import kostka, monomial_to_schur, x_in_monomial
from .partitions import Partition, aspartition, dominates, partitions_of
from .posets import (
    Graph,
    Poset,
    has_stable_partition,
    incomparability_graph,
    multipartite,
    multipartite_has_stable_partition,
    multipartite_stable_partition_count,
    semi_ordered_count,
    stable_partition_count,
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
from .sequences import nsp_chain_union
from .symfunc import SymFunc
from .tabloids import (
    RimHook,
    SRHTabloid,
    enumerate_srh_tabloids,
    render_ascii,
    signed_g_tabloid_counts,
)

__version__ = "0.1.0"

_REFERENCE = frozenset(
    "SSYT KostkaMatrix coloring_count enumerate_ssyt schur_to_monomial specialize_ones"
    " niceness_violation stable_partition_count_backtracking stable_sets is_nonincreasing"
    " nsp_bruteforce SRHGTabloid check_srh_g_tabloid enumerate_srh_g_tabloids"
    " psi_involution tail_head_split".split()
)


def __getattr__(name):
    if name in _REFERENCE:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
