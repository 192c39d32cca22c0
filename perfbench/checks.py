"""Independent checks of chromsym's command-line outputs.

Nothing here imports chromsym: every expected value is derived from the
graph itself or from the paper's theorem, so a wrong answer from the program
cannot also make its check pass. Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import factorial


def canonical_problems(text: str) -> list[str]:
    """The CLI's JSON must survive parse + canonical re-serialization byte for byte."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    again = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    return [] if again == text else ["JSON does not round-trip byte-identically"]


def partitions_of(n: int, largest: int | None = None):
    """Partitions of n as weakly decreasing tuples, largest first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def dominates(lam, mu) -> bool:
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def _hooks(shape):
    conj = [sum(1 for r in shape if r > c) for c in range(shape[0])] if shape else []
    return [
        shape[i] - j + conj[j] - i - 1 for i in range(len(shape)) for j in range(shape[i])
    ]


def standard_tableaux(shape) -> int:
    """f^lambda by the hook length formula."""
    prod = 1
    for h in _hooks(shape):
        prod *= h
    return factorial(sum(shape)) // prod


def schur_at_ones(shape, q: int) -> int:
    """s_lambda(1^q) by the hook-content formula."""
    num = 1
    for i, row in enumerate(shape):
        for j in range(row):
            num *= q + j - i
    den = 1
    for h in _hooks(shape):
        den *= h
    return num // den


def multipartite_adj(sides) -> list[int]:
    """Adjacency masks of K_sides with each side numbered consecutively."""
    owner = [i for i, s in enumerate(sides) for _ in range(s)]
    n = len(owner)
    return [
        sum(1 << v for v in range(n) if owner[v] != owner[u]) for u in range(n)
    ]


def uio_adj(reach) -> list[int]:
    """Incomparability graph of the natural unit interval order in which
    i and j > i are incomparable exactly when j <= reach[i]."""
    n = len(reach)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, reach[i] + 1):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def chromatic_values(adj, qs) -> dict[int, int]:
    """chi_G(q) for each q, from the number a_k of partitions of the vertex set
    into k stable blocks, found by a subset DP that always places the lowest
    uncovered vertex: chi_G(q) = sum_k a_k q(q-1)...(q-k+1)."""
    n = len(adj)
    size = 1 << n
    stable = [True] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        stable[mask] = stable[rest] and not (adj[low.bit_length() - 1] & rest)
    by_blocks = [None] * size
    by_blocks[0] = {0: 1}
    for mask in range(1, size):
        low = mask & -mask
        v = low.bit_length() - 1
        free = (mask ^ low) & ~adj[v]
        acc: dict[int, int] = {}
        sub = free
        while True:
            block = sub | low
            if stable[block]:
                for k, c in by_blocks[mask ^ block].items():
                    acc[k + 1] = acc.get(k + 1, 0) + c
            if sub == 0:
                break
            sub = (sub - 1) & free
        by_blocks[mask] = acc
    out = {}
    for q in qs:
        total = 0
        for k, a in by_blocks[size - 1].items():
            falling = 1
            for i in range(k):
                falling *= q - i
            total += a * falling
        out[q] = total
    return out


def parse_expansion(text: str) -> dict[tuple, int]:
    data = json.loads(text)
    if data.get("basis") != "schur":
        raise ValueError("expansion is not in the Schur basis")
    return {tuple(e["partition"]): int(e["value"]) for e in data["coeffs"]}


def expansion_problems(coeffs: dict[tuple, int], adj) -> list[str]:
    """Sum c_lam f^lam = n!, and Sum c_lam s_lam(1^q) = chi_G(q) for q = 1..n."""
    n = len(adj)
    bad = [lam for lam in coeffs if sum(lam) != n or list(lam) != sorted(lam, reverse=True)]
    if bad:
        return [f"{bad[0]} is not a partition of {n}"]
    problems = []
    if sum(c * standard_tableaux(lam) for lam, c in coeffs.items()) != factorial(n):
        problems.append("sum of c_lambda f^lambda differs from n!")
    chi = _chromatic_cached(tuple(adj))
    for q in range(1, n + 1):
        if sum(c * schur_at_ones(lam, q) for lam, c in coeffs.items()) != chi[q]:
            problems.append(f"principal specialization at q={q} differs from chi_G")
            break
    return problems


@lru_cache(maxsize=64)
def _chromatic_cached(adj: tuple) -> dict[int, int]:
    return chromatic_values(list(adj), range(1, len(adj) + 1))


def positive_by_theorem(sides) -> bool:
    """The classification: K_sides (two or more sides) is Schur-positive iff
    every side has size 1 or 2, or the sides are one 3 and at least one 2."""
    sides = sorted(sides, reverse=True)
    if sides[0] <= 2:
        return True
    return sides[0] == 3 and len(sides) >= 2 and all(s == 2 for s in sides[1:])


def sign_problems(coeffs: dict[tuple, int], sides) -> list[str]:
    """The sign pattern of K_sides must match the theorem; sides None means a
    unit interval order, which is (3+1)-free and so Schur-positive."""
    negative = any(c < 0 for c in coeffs.values())
    if sides is None:
        return ["negative coefficient on a unit interval order"] if negative else []
    if positive_by_theorem(sides) == negative:
        return [f"sign pattern of K_{tuple(sides)} contradicts the classification"]
    return []


def admits_stable_partition(sides, mu) -> bool:
    """Can the parts of mu be assigned to sides, each side filled exactly?

    A stable set of K_sides lies inside one side, so this is exactly the
    question whether K_sides has a stable partition of type mu.
    """

    @lru_cache(maxsize=None)
    def fill(i: int, room: tuple) -> bool:
        if i == len(mu):
            return not any(room)
        tried = set()
        for s, r in enumerate(room):
            if r >= mu[i] and r not in tried:
                tried.add(r)
                left = tuple(sorted(room[:s] + (r - mu[i],) + room[s + 1 :]))
                if fill(i + 1, left):
                    return True
        return False

    return sum(sides) == sum(mu) and fill(0, tuple(sorted(sides)))


def verdict_problems(text: str, sides) -> list[str]:
    """A classify/verify report must state the theorem's verdict, be verified,
    and carry a valid certificate when negative."""
    data = json.loads(text)
    problems = []
    positive = positive_by_theorem(sides)
    if tuple(data["lambda"]) != tuple(sides):
        problems.append("report is about another type")
    if data["verdict"] != ("SchurPositive" if positive else "NotSchurPositive"):
        problems.append(f"verdict {data['verdict']} contradicts the classification")
    if data["verified"] is not True:
        problems.append("report is not verified")
    witness = data["witness"]
    if positive:
        if witness is not None:
            problems.append("a Schur-positive type carries a witness")
        return problems
    if witness is None:
        problems.append("a negative verdict has no witness")
        return problems
    mu = tuple(witness)
    if sum(mu) != sum(sides) or not dominates(sides, mu):
        problems.append(f"witness {mu} is not dominated by {tuple(sides)}")
    elif admits_stable_partition(sides, mu):
        problems.append(f"K_{tuple(sides)} has a stable partition of type {mu}")
    return problems
