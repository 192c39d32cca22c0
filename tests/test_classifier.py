import pytest

import chromsym.schur as schur
from chromsym import (
    LengthOneError,
    Partition,
    classify,
    dominates,
    multipartite_has_stable_partition,
    partitions_of,
    verify_classification,
)
from chromsym.posets import _count_table, multipartite


def test_positive_verdicts():
    report = classify((3, 2, 2, 2))
    assert report.verdict == "SchurPositive"
    assert report.reason == "ThreeTwoPower"
    assert report.witness is None

    report = classify((2, 2, 1))
    assert report.verdict == "SchurPositive"
    assert report.reason == "AllPartsLe2"


def test_negative_verdicts_with_witnesses():
    report = classify((3, 3))
    assert report.verdict == "NotSchurPositive"
    assert report.reason == "SquareCase"
    assert report.witness == (2, 2, 2)

    report = classify((5, 5, 5, 4, 3, 3))
    assert report.reason == "Unbalanced"
    assert report.witness == (5, 5, 4, 4, 4, 3)

    report = classify((6, 6, 5, 5, 5))
    assert report.reason == "SquareCase"
    assert report.witness == (5, 5, 5, 5, 5, 2)

    report = classify((5, 4, 4, 4))
    assert report.reason == "TailCase"
    assert report.witness == (5, 4, 3, 3, 2)


def test_single_block_is_rejected():
    with pytest.raises(LengthOneError):
        classify((7,))
    with pytest.raises(LengthOneError):
        classify(())
    with pytest.raises(LengthOneError):
        classify((7,)).witness


def test_bipartite_list():
    positive = {(1, 1), (2, 1), (2, 2), (3, 2)}
    for a in range(1, 7):
        for b in range(1, a + 1):
            verdict = classify((a, b)).verdict
            assert (verdict == "SchurPositive") == ((a, b) in positive), (a, b)


def test_tripartite_list():
    positive = {(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2)}
    for a in range(1, 6):
        for b in range(1, a + 1):
            for c in range(1, b + 1):
                verdict = classify((a, b, c)).verdict
                assert (verdict == "SchurPositive") == ((a, b, c) in positive), (a, b, c)


def test_witness_for_matches_worked_examples():
    assert classify((5, 5, 5, 4, 3, 3)).witness == (5, 5, 4, 4, 4, 3)
    assert classify((6, 6, 5, 5, 5)).witness == (5, 5, 5, 5, 5, 2)
    assert classify((5, 4, 4, 4)).witness == (5, 4, 3, 3, 2)
    assert classify((7, 7, 7, 6, 6)).witness == (7, 6, 6, 6, 6, 2)
    # a Schur-positive type has no witness
    assert classify((2, 2)).witness is None
    assert classify((3, 2, 2)).witness is None


def test_bipartite_small_family():
    # (5, 4) has the witness (3, 3, 3); (4, 3) admits none at all
    report = classify((5, 4))
    assert report.reason == "BipartiteSmall"
    assert report.witness == (3, 3, 3)
    assert not multipartite_has_stable_partition((5, 4), (3, 3, 3))
    assert classify((4, 3)).witness is None
    # the closed-form witness is the reverse-lexicographic first dominated
    # type without a stable partition, found by brute force over the types
    # in K_lam's count table
    for m in range(4, 16):
        lam = Partition((m, m - 1))
        types = _count_table(multipartite(lam))
        searched = next(
            (mu for mu in partitions_of(lam.n) if dominates(lam, mu) and mu not in types),
            None,
        )
        assert classify(lam).witness == searched, m
    for m in (16, 40):
        report = verify_classification((m, m - 1), "witness")
        assert report.verified and report.witness == (m - 2, m - 2, 3)


def test_witness_validity_sweep():
    for n in range(2, 16):
        for lam in partitions_of(n):
            if len(lam) < 2:
                continue
            report = classify(lam)
            if report.verdict != "NotSchurPositive":
                continue
            if report.witness is None:
                assert report.reason == "BipartiteSmall"
                continue
            assert dominates(lam, report.witness)
            assert not multipartite_has_stable_partition(lam, report.witness)


def test_verify_witness_mode():
    assert verify_classification((3, 3), "witness").verified
    assert verify_classification((5, 4, 4, 4), "witness").verified
    assert verify_classification((7, 7, 7, 6, 6), "witness").verified
    # the 3-and-2s family gets its closed forms rechecked
    assert verify_classification((3, 2, 2), "witness").verified
    # all-small sides have no finite witness-style certificate
    assert not verify_classification((2, 2), "witness").verified
    # a nice but non-positive graph has no witness to check
    assert not verify_classification((4, 3), "witness").verified


def test_verify_full_scan_mode():
    assert verify_classification((3, 2, 2), "full").verified
    assert verify_classification((3, 3), "full").verified
    assert verify_classification((2, 2), "full").verified
    assert verify_classification((4, 3), "full").verified
    assert verify_classification((8, 8), "full").verified
    with pytest.raises(ValueError):
        verify_classification((3, 3), "bogus")
    # the library takes the command line's mode words only
    with pytest.raises(ValueError, match="'witness' or 'full'"):
        verify_classification((3, 3), "full_scan")


def test_full_scan_cross_checks_closed_forms(monkeypatch):
    exact = schur.coeff_closed_32beta
    monkeypatch.setattr(
        schur, "coeff_closed_32beta", lambda beta, lam: exact(beta, lam) + 1
    )
    # off by one upward keeps every coefficient nonnegative, so only the
    # comparison with the ww route (count table times tabloid census) can
    # catch it
    assert classify((3, 2, 2)).verdict == "SchurPositive"
    assert not verify_classification((3, 2, 2), "full").verified


def test_full_scan_agrees_with_classify_up_to_seven():
    for n in range(2, 8):
        for lam in partitions_of(n):
            if len(lam) < 2:
                continue
            assert verify_classification(lam, "full").verified, lam


def test_report_json():
    data = classify((5, 4, 4, 4)).to_json()
    assert data == {
        "lambda": [5, 4, 4, 4],
        "verdict": "NotSchurPositive",
        "reason": "TailCase",
        "witness": [5, 4, 3, 3, 2],
        "verified": False,
    }
    data = classify((2, 1)).to_json()
    assert data["witness"] is None and data["verdict"] == "SchurPositive"


def multipartite_types(max_n, min_n=2):
    """Every type with at least two sides and min_n..max_n vertices."""
    return [
        lam for n in range(min_n, max_n + 1) for lam in partitions_of(n) if len(lam) >= 2
    ]


def theorem_mismatches(types):
    """Types whose verdict the library's full scan does not confirm."""
    return [lam for lam in types if not verify_classification(lam, "full").verified]


def test_theorem_matches_ww_scans_up_to_12_vertices():
    assert len(multipartite_types(12)) == 259
    assert theorem_mismatches(multipartite_types(12)) == []


def test_theorem_check_rejects_a_wrong_verdict(monkeypatch):
    import chromsym.classifier as classifier

    reason = classifier._positive_reason
    monkeypatch.setattr(
        classifier,
        "_positive_reason",
        lambda lam: "AllPartsLe2" if lam == (4, 4) else reason(lam),
    )
    assert classify((4, 4)).verdict == "SchurPositive"
    assert theorem_mismatches(multipartite_types(8, min_n=8)) == [(4, 4)]
