"""Schur-positivity classification of complete multipartite graphs.

K_lambda (at least two sides) is Schur-positive exactly when every side has
size 1 or 2, or the sides are one 3 and at least one 2. Every other type gets
a machine-checkable certificate: a dominated partition type that admits no
stable partition, built from one of three explicit constructions, or found by
search for the two-sided (m, m-1) family, which the constructions do not
cover.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import LengthOneError, PositiveFamilyError
from .partitions import Partition, aspartition, dominates, partitions_of
from .posets import (
    multipartite,
    multipartite_has_stable_partition,
)
from .schur import (
    _closed_family,
    coeff_closed_32beta,
    expand_schur,
    positivity_scan,
)

SCHUR_POSITIVE = "SchurPositive"
NOT_SCHUR_POSITIVE = "NotSchurPositive"

REASON_ALL_PARTS_LE2 = "AllPartsLe2"
REASON_THREE_TWO_POWER = "ThreeTwoPower"
REASON_UNBALANCED = "Unbalanced"
REASON_SQUARE_CASE = "SquareCase"
REASON_TAIL_CASE = "TailCase"
REASON_BIPARTITE_SMALL = "BipartiteSmall"

WITNESS_SEARCH_CAP = 30


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict, the case that decided it, and the certificate if negative."""

    type: Partition
    verdict: str
    reason: str
    witness: Partition | None = None
    verified: bool = False

    def to_json(self) -> dict:
        return {
            "lambda": self.type.to_json(),
            "verdict": self.verdict,
            "reason": self.reason,
            "witness": self.witness.to_json() if self.witness else None,
            "verified": self.verified,
        }


def _positive_reason(lam: Partition) -> str | None:
    if lam[0] <= 2:
        return REASON_ALL_PARTS_LE2
    if lam[0] == 3 and set(lam[1:]) == {2}:
        return REASON_THREE_TWO_POWER
    return None


def _negative_case(lam: Partition) -> tuple[str, Partition | None]:
    """Reason and witness for a type outside the positive family."""
    k = len(lam)
    if lam[0] > lam[-1] + 1:
        # lower the last largest part, raise the first smallest part
        j = max(i for i in range(k) if lam[i] == lam[0])
        i = min(i for i in range(k) if lam[i] == lam[-1])
        witness = list(lam)
        witness[j] -= 1
        witness[i] += 1
        return REASON_UNBALANCED, Partition(sorted(witness, reverse=True))
    m = lam[0]
    alpha = lam.count(m)
    beta = k - alpha
    if alpha >= 2:
        witness = (m,) * (alpha - 2) + (m - 1,) * (beta + 2) + (2,)
        return REASON_SQUARE_CASE, Partition(witness)
    if beta >= 2:
        witness = (m,) + (m - 1,) * (beta - 2) + (m - 2,) * 2 + (2,)
        return REASON_TAIL_CASE, Partition(witness)
    # lam == (m, m-1), m >= 4: no construction; search the dominated types
    return REASON_BIPARTITE_SMALL, _searched_witness(lam)


def _searched_witness(lam: Partition) -> Partition | None:
    if lam.n > WITNESS_SEARCH_CAP:
        return None
    for mu in partitions_of(lam.n):
        if mu == lam or not dominates(lam, mu):
            continue
        if not multipartite_has_stable_partition(lam, mu):
            return mu
    return None


def classify(lam) -> ClassificationReport:
    """Decide Schur-positivity of K_lam and attach the certificate."""
    lam = aspartition(lam)
    if len(lam) < 2:
        raise LengthOneError("classification needs at least two sides")
    reason = _positive_reason(lam)
    if reason:
        return ClassificationReport(lam, SCHUR_POSITIVE, reason)
    reason, witness = _negative_case(lam)
    return ClassificationReport(lam, NOT_SCHUR_POSITIVE, reason, witness)


def witness_for(lam) -> Partition | None:
    """A dominated type with no stable partition in K_lam.

    Raises PositiveFamilyError on Schur-positive types. None only for the
    (m, m-1) family when the search finds nothing (some of those graphs
    admit every dominated type).
    """
    lam = aspartition(lam)
    if len(lam) < 2:
        raise LengthOneError("witnesses need at least two sides")
    if _positive_reason(lam):
        raise PositiveFamilyError(f"K_{tuple(lam)} is Schur-positive")
    _, witness = _negative_case(lam)
    return witness


def _verify_witness(report: ClassificationReport) -> bool:
    lam = report.type
    if report.verdict == NOT_SCHUR_POSITIVE:
        mu = report.witness
        return (
            mu is not None
            and dominates(lam, mu)
            and not multipartite_has_stable_partition(lam, mu)
        )
    if report.reason == REASON_THREE_TWO_POWER:
        # the closed form is 0 on every shape with a row longer than 3
        beta = len(lam) - 1
        return all(
            coeff_closed_32beta(beta, mu) >= 0
            for mu in partitions_of(lam.n, max_part=3)
        )
    # sides of size <= 2 bound every stable set by 2; no finite witness to check
    return False


def _verify_scan(report: ClassificationReport) -> bool:
    graph, poset = multipartite(report.type)
    scan = positivity_scan(graph, poset)
    ok = scan.all_nonnegative == (report.verdict == SCHUR_POSITIVE)
    if ok and _closed_family(graph):
        # the scan read the closed forms; they must match the count table
        # weighted by the signed tabloid census, which shares no code with them
        ok = expand_schur(graph, poset, "ww") == expand_schur(graph, poset, "closed")
    return ok


def verify_classification(lam, mode: str = "witness") -> ClassificationReport:
    """Re-derive the verdict's evidence and set the `verified` flag.

    ``witness`` mode checks the dominance certificate (or, for the 3-and-2s
    family, that every closed-form coefficient is nonnegative). ``full_scan``
    mode recomputes the whole expansion, however many vertices K_lam has;
    bounding that work is the caller's decision (the CLI's ``--max-vertices``).
    """
    if mode not in ("witness", "full_scan"):
        raise ValueError(f"mode must be 'witness' or 'full_scan', got {mode!r}")
    report = classify(lam)
    if mode == "witness":
        return replace(report, verified=_verify_witness(report))
    return replace(report, verified=_verify_scan(report))
