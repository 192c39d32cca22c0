"""The cross-validation battery behind ``chromsym oracle-check``.

Each check takes the largest n to sweep and returns True when it holds. The
route and coloring checks run on fixed small graphs and ignore ``max_n``; the
closed-form check reads it as the number b of sides of size 2; the
count-table check stops at five vertices, where there are already 1,024
graphs, and the frontier DP check at eight (1,430 natural orders).
``CHECKS`` lists them in the order the command prints them.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .oracle import kostka, monomial_to_schur, x_in_monomial
from .partitions import dominates, partitions_of
from .posets import (
    Graph,
    Poset,
    _frontier_counts,
    _index_order,
    _sweep_counts,
    incomparability_graph,
    multipartite,
    stable_partition_count,
)
from .reference import (
    KostkaMatrix,
    coloring_count,
    enumerate_ssyt,
    nsp_bruteforce,
    schur_to_monomial,
    specialize_ones,
    stable_partition_count_backtracking,
)
from .schur import coeff_report, expand_schur
from .sequences import nsp_chain_union
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
                key = (tuple(sorted(t.content, reverse=True)), lam)
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
                        key = tuple(sorted(t.content, reverse=True))
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
        graph = multipartite(parts)
        truth = monomial_to_schur(x_in_monomial(graph))
        for mu in partitions_of(graph.size):
            reports = [
                coeff_report(graph, mu, route).value
                for route in ("auto", "ww", "tabloid", "tail")
            ]
            if any(v != truth[mu] for v in reports):
                return False
    poset = Poset(6, [(0, 1), (1, 5), (0, 2), (2, 4), (3, 2), (1, 4)], list("abcdef"))
    graph = incomparability_graph(poset)
    truth = monomial_to_schur(x_in_monomial(graph))
    for mu in partitions_of(6):
        for route in ("auto", "tail"):
            if coeff_report(graph, mu, route).value != truth[mu]:
                return False
    return True


def coloring_specialization(max_n: int) -> bool:
    for parts in [(2, 1), (2, 2), (3, 1), (2, 2, 1)]:
        graph = multipartite(parts)
        func = expand_schur(graph)
        for q in range(4):
            if specialize_ones(func, q) != coloring_count(graph, q):
                return False
    return True


def closed_forms_match_ww(max_n: int) -> bool:
    for beta in range(1, max_n + 1):
        for sides in ((2,) * beta, (3,) + (2,) * beta):
            graph = multipartite(sides)
            if expand_schur(graph, route="closed") != expand_schur(graph, route="ww"):
                return False
    return True


def _labelled_graphs(max_n: int):
    """Every labelled graph on n <= max_n vertices, n by n, one per edge
    subset."""
    for n in range(max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for chosen in range(1 << len(pairs)):
            yield Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])


def count_table_agreement(max_n: int) -> bool:
    return all(
        stable_partition_count(graph, mu) == stable_partition_count_backtracking(graph, mu)
        for graph in _labelled_graphs(min(max_n, 5))
        for mu in partitions_of(graph.size)
    )


def frontier_counts_match_sweep(max_n: int) -> bool:
    graphs = [  # each natural order once, by its weakly increasing reach[x] >= x
        Graph(n, [(x, y) for x, r in enumerate(reach) for y in range(x + 1, r + 1)])
        for n in range(min(max_n, 8) + 1)
        for reach in combinations_with_replacement(range(n), n)
        if all(r >= x for x, r in enumerate(reach))
    ]
    # the naturally labelled posets, picked out of every graph: 1, 1, 2, 7,
    # 40 and 357 of them for n = 0..5 (OEIS A006455)
    top = min(max_n, 5)
    labelled = [g for g in _labelled_graphs(top) if _index_order(g) is not None]
    sizes = [g.size for g in labelled]
    if any(sizes.count(n) != k for n, k in zip(range(top + 1), (1, 1, 2, 7, 40, 357))):
        return False
    graphs += labelled
    tables = ((_index_order(graph), _sweep_counts(graph)) for graph in graphs)
    return all(later is not None and _frontier_counts(later) == swept for later, swept in tables)


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
        "frontier DP count table matches the sweep on every natural unit interval order"
        " with n <= min(max-n, 8) and every naturally labelled poset with n <= min(max-n, 5)",
        frontier_counts_match_sweep,
    ),
)
