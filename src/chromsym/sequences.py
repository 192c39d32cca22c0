"""Non-increasing vertex sequences and the spanning count N_sp.

A sequence v_1, ..., v_k in the incomparability graph of a poset is
non-increasing when v_i <= v_{i+1} fails at every step. The spanning count
N_sp is the number of such sequences through all vertices; the empty graph
contributes 1 for the empty sequence. On disjoint chains of lengths lam,

    N_sp(lam) = sum_J J! [t^J] prod_i sum_{j=1..lam_i} (-1)^(lam_i-j) S(lam_i, j) t^j

with S the Stirling numbers of the second kind (see `nsp_chain_union`).
"""

from __future__ import annotations

from functools import cache
from math import factorial


@cache
def _signed_stirling_row(length: int) -> tuple[int, ...]:
    """(-1)^(length-j) S(length, j) for j = 0..length.

    S(n, m) = m S(n-1, m) + S(n-1, m-1) with the signs folded in.
    """
    row = [1]
    for _ in range(length):
        row = [0] + [row[m - 1] - m * row[m] for m in range(1, len(row))] + row[-1:]
    return tuple(row)


def nsp_chain_union(lam) -> int:
    """N_sp for the incomparability graph of disjoint chains of lengths `lam`.

    A maximal run of one chain's vertices must descend, so it is fixed by its
    element set, and vertices of different chains are incomparable: N_sp
    counts arrangements of blocks with no two blocks of one chain adjacent.
    Inclusion-exclusion over glued runs of one chain's blocks, then summing
    out each chain's block count with sum_k (-1)^(k-1) k! S(s, k) = (-1)^(s-1),
    leaves each chain's signed Stirling row; the runs of all chains are then
    arranged freely, J! ways for J runs. O(n^2) big-integer operations.
    """
    lengths = tuple(int(x) for x in lam)
    if any(x < 1 for x in lengths):
        raise ValueError("chain lengths must be positive")
    poly = [1]
    for length in lengths:
        row = _signed_stirling_row(length)
        product = [0] * (len(poly) + length)
        for i, a in enumerate(poly):
            for j, b in enumerate(row):
                product[i + j] += a * b
        poly = product
    return sum(factorial(runs) * coeff for runs, coeff in enumerate(poly))
