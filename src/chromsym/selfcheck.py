"""The cross-validation battery behind ``chromsym oracle-check``.

Each check takes the largest n to sweep and returns True when it holds. The
route and coloring checks run on fixed small graphs and ignore ``max_n``; the
closed-form check reads it as the number b of sides of size 2, up to 30; the
count-table check stops at five vertices, where there are already 1,024
graphs, and the chain DP check at eight (1,430 orders).
``CHECKS`` lists them in the order the command prints them.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .oracle import (
    KostkaMatrix,
    coloring_count,
    enumerate_ssyt,
    kostka,
    monomial_to_schur,
    schur_to_monomial,
    specialize_ones,
    x_in_monomial,
)
from .partitions import dominates, partitions_of, sort_to_partition
from .posets import (
    Graph,
    Poset,
    _count_table,
    _sweep_counts,
    incomparability_graph,
    multipartite,
    stable_partition_count,
    stable_partition_count_backtracking,
)
from .schur import coeff_report, expand_schur
from .sequences import nsp_bruteforce, nsp_chain_union
from .symfunc import SymFunc
from .tabloids import _content_parts, _peel, enumerate_srh_tabloids


def kostka_unitriangular(max_n: int) -> bool:
    for n in range(max_n + 1):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                k = kostka(lam, mu)
                if lam == mu and k != 1:
                    return False
                if k and not dominates(lam, mu):
                    return False
    return True


def kostka_matches_enumeration(max_n: int) -> bool:
    for n in range(max_n + 1):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if kostka(lam, mu) != sum(1 for _ in enumerate_ssyt(lam, mu)):
                    return False
    return True


def inverse_kostka_census(max_n: int) -> bool:
    for n in range(1, max_n + 1):
        inv = KostkaMatrix(n).inverse()
        census = {}
        for lam in partitions_of(n):
            for t in enumerate_srh_tabloids(lam):
                key = (sort_to_partition(t.content), lam)
                census[key] = census.get(key, 0) + t.sign
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if inv.get((mu, lam), 0) != census.get((mu, lam), 0):
                    return False
    return True


def peeled_census_by_hook_bound(max_n: int) -> bool:
    for n in range(max_n + 1):
        for lam in partitions_of(n):
            tabloids = enumerate_srh_tabloids(lam)
            for cap in range(n + 1):
                census = {}
                for t in tabloids:
                    if max(t.content, default=0) <= cap:
                        key = sort_to_partition(t.content)
                        census[key] = census.get(key, 0) + t.sign
                peeled = {_content_parts(code): s for code, s in _peel(lam, cap).items()}
                if peeled != {mu: s for mu, s in census.items() if s}:
                    return False
    return True


def round_trip(max_n: int) -> bool:
    for n in range(max_n + 1):
        for lam in partitions_of(n):
            f = SymFunc("schur", n, {lam: 1})
            if monomial_to_schur(schur_to_monomial(f)) != f:
                return False
    return True


def route_agreement(max_n: int) -> bool:
    targets = [(2, 2), (3, 1), (3, 2)]
    for parts in targets:
        graph, poset = multipartite(parts)
        truth = monomial_to_schur(x_in_monomial(graph))
        for mu in partitions_of(graph.size):
            reports = [
                coeff_report(graph, poset, mu, route).value
                for route in ("auto", "ww", "tabloid", "tail")
            ]
            if any(v != truth[mu] for v in reports):
                return False
    poset = Poset(6, [(0, 1), (1, 5), (0, 2), (2, 4), (3, 2), (1, 4)], list("abcdef"))
    graph = incomparability_graph(poset)
    truth = monomial_to_schur(x_in_monomial(graph))
    for mu in partitions_of(6):
        for route in ("auto", "tail"):
            if coeff_report(graph, poset, mu, route).value != truth[mu]:
                return False
    return True


def coloring_specialization(max_n: int) -> bool:
    for parts in [(2, 1), (2, 2), (3, 1), (2, 2, 1)]:
        graph, poset = multipartite(parts)
        func = expand_schur(graph, poset)
        for q in range(4):
            if specialize_ones(func, q) != coloring_count(graph, q):
                return False
    return True


def closed_forms_match_ww(max_n: int) -> bool:
    for beta in range(1, max_n + 1):
        for sides in ((2,) * beta, (3,) + (2,) * beta):
            graph, poset = multipartite(sides)
            if expand_schur(graph, poset, "closed") != expand_schur(graph, poset, "ww"):
                return False
    return True


def count_table_agreement(max_n: int) -> bool:
    for n in range(min(max_n, 5) + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for chosen in range(1 << len(pairs)):
            graph = Graph(n, [e for i, e in enumerate(pairs) if (chosen >> i) & 1])
            for mu in partitions_of(n):
                if stable_partition_count(graph, mu) != (
                    stable_partition_count_backtracking(graph, mu)
                ):
                    return False
    return True


def chain_counts_match_sweep(max_n: int) -> bool:
    for n in range(min(max_n, 8) + 1):
        # every weakly increasing reach with reach[x] >= x: each order once
        for reach in combinations_with_replacement(range(n), n):
            if all(r >= x for x, r in enumerate(reach)):
                poset = Poset(n, [(x, y) for x, r in enumerate(reach) for y in range(r + 1, n)])
                graph = incomparability_graph(poset)
                if graph.reach != reach or _count_table(graph) != _sweep_counts(graph):
                    return False
    return True


def nsp_agreement(max_n: int) -> bool:
    return all(
        nsp_chain_union(lam) == nsp_bruteforce(Poset.chain_union(lam))
        for n in range(max_n + 1)
        for lam in partitions_of(n)
    )


CHECKS = (
    ("kostka unitriangular", kostka_unitriangular),
    ("kostka matches tableau enumeration", kostka_matches_enumeration),
    ("inverse kostka matches signed tabloid census", inverse_kostka_census),
    ("peeled census matches enumeration at every hook bound", peeled_census_by_hook_bound),
    ("schur/monomial round trip", round_trip),
    ("coefficient routes agree", route_agreement),
    ("closed forms match ww on K_(2^b) and K_(3,2^b) for b <= max-n", closed_forms_match_ww),
    ("expansion counts proper colorings", coloring_specialization),
    ("chain-union sequence count matches brute force", nsp_agreement),
    ("count table agrees with backtracking", count_table_agreement),
    (
        "chain DP count table matches the sweep on every natural unit interval order"
        " with n <= max-n",
        chain_counts_match_sweep,
    ),
)
