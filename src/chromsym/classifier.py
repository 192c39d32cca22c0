"""Schur-positivity classification of complete multipartite graphs.

K_lambda (at least two sides) is Schur-positive exactly when every side has
size 1 or 2, or the sides are one 3 and at least one 2. Every other type gets
a machine-checkable certificate: a dominated partition type that admits no
stable partition, built from one of four explicit constructions. The one for
the two-sided family (m, m-1) needs m >= 5, and K_(4,3) has no such type.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import LengthOneError
from .partitions import Partition, aspartition, dominates
from .posets import multipartite, multipartite_has_stable_partition
from .schur import _closed_family, expand_schur, positivity_scan

SCHUR_POSITIVE = "SchurPositive"
NOT_SCHUR_POSITIVE = "NotSchurPositive"

REASON_ALL_PARTS_LE2 = "AllPartsLe2"
REASON_THREE_TWO_POWER = "ThreeTwoPower"
REASON_UNBALANCED = "Unbalanced"
REASON_SQUARE_CASE = "SquareCase"
REASON_TAIL_CASE = "TailCase"
REASON_BIPARTITE_SMALL = "BipartiteSmall"


class ClassificationReport(
    namedtuple(
        "ClassificationReport", "type verdict reason witness verified", defaults=(None, False)
    )
):
    """Verdict on K_type, the case that decided it, the certificate (a
    dominated type, or None) if negative, and whether it was verified."""

    __slots__ = ()

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
    # lam == (m, m-1), m >= 4. A largest part of m or m - 1 goes into the
    # side of that size and the rest fills the other side, so the first
    # dominated type with no stable partition starts with m - 2. The first
    # such type is (m-2, m-2, 3): the parts m - 2 need both sides once m >= 5,
    # leaving room 2 and 1 for the 3. For m = 4 it is no partition, and
    # K_(4,3) has every dominated type.
    return REASON_BIPARTITE_SMALL, Partition((m - 2, m - 2, 3)) if m >= 5 else None


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
        # auto takes the closed forms here, over the shapes with rows of at most 3
        return positivity_scan(multipartite(lam)).all_nonnegative
    # sides of size <= 2 bound every stable set by 2; no finite witness to check
    return False


def _verify_scan(report: ClassificationReport) -> bool:
    graph = multipartite(report.type)
    positive = report.verdict == SCHUR_POSITIVE
    if not _closed_family(graph):
        return positivity_scan(graph).all_nonnegative == positive
    # the closed forms give the sign; they must match the count table
    # weighted by the signed tabloid census, which shares no code with them.
    # ww goes first: past the census code's bound it refuses at once
    ww = expand_schur(graph, route="ww")
    closed = expand_schur(graph, route="closed")
    nonnegative = all(value >= 0 for _, value in closed)
    return nonnegative == positive and closed == ww


def verify_classification(lam, mode: str = "witness") -> ClassificationReport:
    """Re-derive the verdict's evidence and set the `verified` flag.

    ``witness`` mode checks the dominance certificate (or, for the 3-and-2s
    family, that every closed-form coefficient is nonnegative). ``full``
    mode recomputes the whole expansion, however many vertices K_lam has;
    bounding that work is the caller's decision (the CLI's ``--max-vertices``).
    """
    if mode not in ("witness", "full"):
        raise ValueError(f"mode must be 'witness' or 'full', got {mode!r}")
    report = classify(lam)
    if mode == "witness":
        return report._replace(verified=_verify_witness(report))
    return report._replace(verified=_verify_scan(report))
