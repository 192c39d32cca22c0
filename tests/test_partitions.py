import pytest
from hypothesis import given, strategies as st

from chromsym import (
    Composition,
    Diagram,
    EmptyPartitionError,
    Partition,
    UnequalWeightError,
    dominates,
    is_balanced,
    partitions_of,
    sort_to_partition,
)
from chromsym.cli import main


def test_partition_validation():
    assert tuple(Partition((3, 2, 2))) == (3, 2, 2)
    assert tuple(Partition()) == ()
    assert Partition().n == 0
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((3, 0))


def test_partition_validation_messages():
    with pytest.raises(ValueError, match=r"^partition parts must be weakly decreasing, got \(2, 3\)$"):
        Partition((2, 3))
    with pytest.raises(ValueError, match=r"^partition parts must be >= 1, got 0$"):
        Partition((3, 0))
    with pytest.raises(ValueError, match=r"^composition parts must be >= 1, got -1$"):
        Composition((2, -1))
    assert repr(Partition((3, 2))) == "Partition(3, 2)"
    assert repr(Partition((3,))) == "Partition(3,)"
    assert repr(Composition((2, 3))) == "Composition(2, 3)"



def test_command_line_validation_messages(capsys):
    # the sides are sorted first, so only a part below 1 is left to refuse
    assert main(["expand", "--multipartite", "2,3,0"]) == 2
    assert capsys.readouterr().err == (
        "chromsym: error: --multipartite: partition parts must be >= 1, got 0\n"
    )
    assert main(["nsp", "--lambda", "2,0"]) == 2
    assert capsys.readouterr().err == (
        "chromsym: error: --lambda: partition parts must be >= 1, got 0\n"
    )


def test_partition_is_a_tuple():
    lam = Partition((2, 1))
    assert isinstance(lam, tuple)
    assert isinstance(Composition((1, 2)), tuple)
    assert lam == (2, 1) and (2, 1) == lam
    assert hash(lam) == hash((2, 1))
    assert {lam: "x"}[(2, 1)] == "x"
    assert {(2, 1): "y"}[lam] == "y"
    assert type(lam[:1]) is tuple and lam[:1] == (2,)
    assert type(lam + (1,)) is tuple
    assert lam != [2, 1]
    assert Composition((2, 3)) != [2, 3]
    assert Partition((3, 1)) > Partition((2, 2))
    assert not Partition() and Partition((1,))


def test_partition_accessors():
    lam = Partition((5, 5, 3, 3, 1))
    assert lam.n == 17
    assert len(lam) == 5
    assert lam.count(5) == 2
    assert lam.count(2) == 0
    assert lam.multiplicities() == {5: 2, 3: 2, 1: 1}
    assert lam == (5, 5, 3, 3, 1)
    assert {lam: "x"}[(5, 5, 3, 3, 1)] == "x"


def test_partition_json_round_trip():
    lam = Partition((3, 2, 2))
    assert lam.to_json() == [3, 2, 2]
    assert Partition([3, 2, 2]) == lam
    assert Partition([]) == Partition()


def test_composition():
    kappa = Composition((2, 3, 2))
    assert kappa.n == 7
    assert len(kappa) == 3
    assert kappa == (2, 3, 2)
    with pytest.raises(ValueError):
        Composition((1, 0))


def test_diagram_cells():
    d = Diagram((3, 1))
    assert (1, 3) in d
    assert (2, 1) in d
    assert (2, 2) not in d
    assert len(d) == 4
    assert len(Diagram(())) == 0


def test_sort_to_partition():
    assert sort_to_partition([2, 3, 2]) == (3, 2, 2)
    assert sort_to_partition([]) == Partition()
    assert sort_to_partition([1, 4, 1, 4]) == (4, 4, 1, 1)
    assert sort_to_partition(Composition((2, 3))) == (3, 2)


@given(st.lists(st.integers(min_value=1, max_value=12), max_size=8))
def test_sort_to_partition_is_order_free_and_idempotent(parts):
    sorted_once = sort_to_partition(parts)
    assert sort_to_partition(reversed(parts)) == sorted_once
    assert sort_to_partition(sorted_once) == sorted_once


def test_dominates_examples():
    assert dominates((5, 5, 5, 4, 3, 3), (5, 5, 4, 4, 4, 3))
    assert not dominates((2, 2), (3, 1))
    assert dominates((3, 1), (2, 2))
    with pytest.raises(UnequalWeightError):
        dominates((2, 1), (2, 2))


def test_dominates_is_a_partial_order():
    for n in range(11):
        parts = list(partitions_of(n))
        rel = {(a, b): dominates(a, b) for a in parts for b in parts}
        for a in parts:
            assert rel[(a, a)]
            for b in parts:
                if rel[(a, b)] and rel[(b, a)]:
                    assert a == b
                for c in parts:
                    if rel[(a, b)] and rel[(b, c)]:
                        assert rel[(a, c)], (a, b, c)


def test_is_balanced():
    assert is_balanced((5, 5, 5, 4))
    assert is_balanced((2, 1, 1, 1))
    assert not is_balanced((3, 2, 1))
    assert not is_balanced((5, 5, 2, 2))
    assert is_balanced((7,))
    with pytest.raises(EmptyPartitionError):
        is_balanced(())


def test_partitions_of_small_cases():
    assert [tuple(p) for p in partitions_of(0)] == [()]
    assert [tuple(p) for p in partitions_of(4, max_part=2)] == [
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert len(list(partitions_of(5))) == 7
    assert [tuple(p) for p in partitions_of(3, max_length=2)] == [(3,), (2, 1)]


def test_partitions_of_reverse_lexicographic_order():
    for n in range(9):
        seq = list(partitions_of(n))
        assert seq == sorted(seq, reverse=True)
        assert len(set(seq)) == len(seq)


def _partition_count(n, cache={0: 1}):
    """Classical recurrence with generalized pentagonal numbers."""
    if n in cache:
        return cache[n]
    total = 0
    k = 1
    while True:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g > n:
                break
            total += (-1) ** (k + 1) * _partition_count(n - g)
        if k * (3 * k - 1) // 2 > n:
            break
        k += 1
    cache[n] = total
    return total


def test_partition_counts_match_recurrence():
    for n in range(31):
        assert sum(1 for _ in partitions_of(n)) == _partition_count(n)
