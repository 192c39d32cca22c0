import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from chromsym import (
    EmptyPartitionError,
    Partition,
    UnequalWeightError,
    dominates,
    is_balanced,
    multipartite,
    partitions_of,
    sort_to_partition,
)
from chromsym import schur
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
    assert repr(Partition((3, 2))) == "Partition(3, 2)"
    assert repr(Partition((3,))) == "Partition(3,)"



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
    assert lam == (2, 1) and (2, 1) == lam
    assert hash(lam) == hash((2, 1))
    assert {lam: "x"}[(2, 1)] == "x"
    assert {(2, 1): "y"}[lam] == "y"
    assert type(lam[:1]) is tuple and lam[:1] == (2,)
    assert type(lam + (1,)) is tuple
    assert lam != [2, 1]
    assert (2, 3) != [2, 3]
    assert Partition((3, 1)) > Partition((2, 2))
    assert not Partition() and Partition((1,))


def test_partition_accessors():
    lam = Partition((5, 5, 3, 3, 1))
    assert lam.n == 17
    assert len(lam) == 5
    assert lam.count(5) == 2
    assert lam.count(2) == 0
    assert Counter(lam) == {5: 2, 3: 2, 1: 1}
    assert lam == (5, 5, 3, 3, 1)
    assert {lam: "x"}[(5, 5, 3, 3, 1)] == "x"


def test_partition_json_round_trip():
    lam = Partition((3, 2, 2))
    assert lam.to_json() == [3, 2, 2]
    assert Partition([3, 2, 2]) == lam
    assert Partition([]) == Partition()


def test_sort_to_partition():
    assert sort_to_partition([2, 3, 2]) == (3, 2, 2)
    assert sort_to_partition([]) == Partition()
    assert sort_to_partition([1, 4, 1, 4]) == (4, 4, 1, 1)
    assert sort_to_partition((2, 3)) == (3, 2)


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


def _descending_sorted_compositions(n):
    """The partitions of n found apart from the walk: every composition of n
    (a choice of cuts among the n - 1 gaps) sorted into a partition,
    deduplicated and listed in descending order."""
    shapes = {()} if n == 0 else set()
    for k in range(n):
        for cuts in itertools.combinations(range(1, n), k):
            bounds = (0, *cuts, n)
            shapes.add(tuple(sorted((b - a for a, b in zip(bounds, bounds[1:])), reverse=True)))
    return sorted(shapes, reverse=True)


def test_partitions_of_equals_an_independent_enumeration():
    for n in range(15):
        every = _descending_sorted_compositions(n)
        for max_part in [None, *range(-1, n + 2)]:
            cap = n if max_part is None else max_part
            walked = list(partitions_of(n, max_part=max_part))
            assert all(type(p) is Partition for p in walked)
            assert walked == [p for p in every if not p or p[0] <= cap], (n, max_part)


def test_partitions_of_walks_past_the_recursion_limit():
    twos = list(partitions_of(1200, max_part=2))
    assert len(twos) == 601
    assert twos[0] == (2,) * 600 and twos[-1] == (1,) * 1200
    assert list(itertools.islice(partitions_of(4003, max_part=3), 3)) == [
        (3,) * 1334 + (1,),
        (3,) * 1333 + (2, 2),
        (3,) * 1333 + (2, 1, 1),
    ]


def test_closed_coefficients_of_a_thousand_sides_of_two():
    # c_(2^beta) of K_(2^beta) is beta!; the walk reaches it without recursing
    graph = multipartite((2,) * 1000)
    first = list(itertools.islice(schur._coefficients(graph, None, "closed"), 3))
    assert [lam for lam, _ in first] == [
        (2,) * 1000,
        (2,) * 999 + (1, 1),
        (2,) * 998 + (1,) * 4,
    ]
    assert all(type(value) is int and value > 0 for _, value in first)
    assert first[0][1] == math.factorial(1000)


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
