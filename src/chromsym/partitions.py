"""Integer partitions, their reverse-lexicographic walk, and the dominance order."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import zip_longest

from .errors import UnequalWeightError


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

    def to_json(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"Partition{tuple(self)}"


def aspartition(parts) -> Partition:
    """Coerce a Partition, tuple, or other iterable of ints to a Partition."""
    if isinstance(parts, Partition):
        return parts
    return Partition(parts)


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


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Yield the partitions of n in reverse-lexicographic (descending) order.

    An optional `max_part` bounds the largest part. The walk is one loop over
    a list of parts (Knuth, TAOCP 4A, 7.2.1.4, Algorithm P): fill greedily,
    each part as large as the previous part, `max_part` and the cells left
    allow; yield; then drop the trailing 1s, take one from the last part
    above 1 and fill again. The descending order makes triangular solves
    against the dominance order a forward substitution.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cap = n if max_part is None else max_part
    parts, left = [], n
    while True:
        part = parts[-1] if parts else cap
        while left and part > 0:
            part = min(part, left)
            parts.append(part)
            left -= part
        if not left:
            # parts built here are valid, so skip the validating constructor
            yield tuple.__new__(Partition, parts)
        while parts and parts[-1] == 1:
            left += parts.pop()
        if not parts:
            return
        parts[-1] -= 1
        left += 1
