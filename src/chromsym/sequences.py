"""Non-increasing vertex sequences and the spanning count N_sp.

A sequence v_1, ..., v_k in the incomparability graph of a poset is
non-increasing when v_i <= v_{i+1} fails at every step. The spanning count
N_sp is the number of such sequences through all vertices; the empty graph
contributes 1 for the empty sequence.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .posets import Poset


def is_nonincreasing(seq, poset: Poset) -> bool:
    """True iff no consecutive pair of the sequence ascends in the poset."""
    seq = tuple(seq)
    return all(not poset.leq(u, v) for u, v in zip(seq, seq[1:]))


def nsp_bruteforce(poset: Poset) -> int:
    """Count spanning non-increasing sequences by dynamic programming
    over (visited set, last vertex) states; exact for any poset.
    """
    n = poset.size
    if n == 0:
        return 1
    full = (1 << n) - 1
    # allowed_next[v] = vertices w with v <= w false
    allowed_next = tuple(full & ~poset.above_mask(v) for v in range(n))

    @cache
    def walk(visited: int, last: int) -> int:
        if visited == full:
            return 1
        total = 0
        todo = allowed_next[last] & ~visited
        while todo:
            low = todo & -todo
            todo ^= low
            total += walk(visited | low, low.bit_length() - 1)
        return total

    return sum(walk(1 << v, v) for v in range(n))


def _surjections(n: int, m: int) -> int:
    """Number of surjections from an n-set onto m ordered blocks."""
    return sum((-1) ** j * comb(m, j) * (m - j) ** n for j in range(m + 1))


@cache
def _no_repeat_arrangements(counts: tuple[int, ...], last: int) -> int:
    """Multiset arrangements of `counts` with no two equal letters adjacent."""
    if not any(counts):
        return 1
    total = 0
    for i, c in enumerate(counts):
        if c and i != last:
            dec = counts[:i] + (c - 1,) + counts[i + 1 :]
            total += _no_repeat_arrangements(dec, i)
    return total


def nsp_chain_union(lam) -> int:
    """N_sp for the incomparability graph of disjoint chains of lengths `lam`.

    Consecutive vertices of different chains are always incomparable, and a
    maximal run within one chain must descend, so it is determined by its
    element set. Grouping the label words by per-chain block counts turns the
    interleaving sum into: over block-count vectors m, the number of no-equal-
    adjacent arrangements of the blocks times, per chain, the surjection count
    distributing its elements onto its ordered blocks.
    """
    lengths = tuple(int(x) for x in lam)
    if any(x < 1 for x in lengths):
        raise ValueError("chain lengths must be positive")
    if not lengths:
        return 1

    def rec(i, blocks_so_far, weight):
        if i == len(lengths):
            yield tuple(blocks_so_far), weight
            return
        for m in range(1, lengths[i] + 1):
            blocks_so_far.append(m)
            yield from rec(i + 1, blocks_so_far, weight * _surjections(lengths[i], m))
            blocks_so_far.pop()

    total = 0
    for counts, weight in rec(0, [], 1):
        total += weight * _no_repeat_arrangements(counts, -1)
    return total
