"""Integer partitions, compositions, diagrams, and the dominance order."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import zip_longest

from .errors import EmptyPartitionError, UnequalWeightError


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    The empty partition (of 0) is allowed everywhere. A Partition is a tuple:
    it hashes, compares, slices and keys dicts exactly as its parts do, so a
    dict keyed by Partition can be probed with plain tuples and vice versa.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        self = super().__new__(cls, map(int, parts))
        for i, x in enumerate(self):
            if x < 1:
                raise ValueError(f"partition parts must be >= 1, got {x}")
            if i and self[i - 1] < x:
                raise ValueError(
                    f"partition parts must be weakly decreasing, got {tuple(self)}"
                )
        return self

    @property
    def n(self) -> int:
        """The weight, i.e. the sum of the parts."""
        return sum(self)

    def multiplicities(self) -> Counter:
        """Counter mapping each part size to its multiplicity."""
        return Counter(self)

    def to_json(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"Partition{tuple(self)}"


class Composition(tuple):
    """A finite sequence of positive integers where order matters."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        self = super().__new__(cls, map(int, parts))
        for x in self:
            if x < 1:
                raise ValueError(f"composition parts must be >= 1, got {x}")
        return self

    @property
    def n(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Composition{tuple(self)}"


class Diagram:
    """The cells of a partition shape.

    Cells are (row, column) pairs, 1-indexed, rows numbered from the top and
    columns from the left. Cell (r, c) is present iff c <= shape[r - 1].
    """

    __slots__ = ("shape", "cells")

    def __init__(self, shape):
        self.shape = aspartition(shape)
        self.cells = frozenset(
            (r, c)
            for r, row_len in enumerate(self.shape, start=1)
            for c in range(1, row_len + 1)
        )

    def __contains__(self, cell) -> bool:
        return cell in self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return f"Diagram({self.shape!r})"


def aspartition(parts) -> Partition:
    """Coerce a Partition, tuple, or other iterable of ints to a Partition."""
    if isinstance(parts, Partition):
        return parts
    return Partition(parts)


def sort_to_partition(kappa) -> Partition:
    """Rearrange the parts of a composition into weakly decreasing order."""
    return Partition(sorted(kappa, reverse=True))


def dominates(lam, mu) -> bool:
    """True iff every prefix sum of `lam` is >= the matching prefix sum of `mu`.

    Both arguments must be partitions of the same weight; shorter ones are
    padded with zeros.
    """
    lam = aspartition(lam)
    mu = aspartition(mu)
    if lam.n != mu.n:
        raise UnequalWeightError(
            f"dominance compares partitions of equal weight, got {lam.n} and {mu.n}"
        )
    ahead = 0
    for a, b in zip_longest(lam, mu, fillvalue=0):
        ahead += a - b
        if ahead < 0:
            return False
    return True


def is_balanced(lam) -> bool:
    """True iff the largest part exceeds the smallest by at most one."""
    lam = aspartition(lam)
    if not lam:
        raise EmptyPartitionError("balancedness is undefined for the empty partition")
    return lam[0] <= lam[-1] + 1


def partitions_of(
    n: int, max_part: int | None = None, max_length: int | None = None
) -> Iterator[Partition]:
    """Yield the partitions of n in reverse-lexicographic (descending) order.

    Optional `max_part` and `max_length` restrict the largest part and the
    number of parts. The descending order makes triangular solves against the
    dominance order a forward substitution.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cap = n if max_part is None else min(max_part, n)
    slots = n if max_length is None else max_length

    def rec(remaining, largest, room):
        if remaining == 0:
            yield ()
            return
        if room == 0 or largest == 0:
            return
        for first in range(min(largest, remaining), 0, -1):
            # once the tail cannot absorb the rest, smaller first parts cannot either
            if remaining - first > first * (room - 1):
                break
            for rest in rec(remaining - first, first, room - 1):
                yield (first, *rest)

    # parts built here are valid, so skip the validating constructor
    for parts in rec(n, cap, slots):
        yield tuple.__new__(Partition, parts)
