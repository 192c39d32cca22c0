import pytest
from hypothesis import example, given, settings

from chromsym import (
    BadShapeError,
    Partition,
    Poset,
    coeff_closed_2beta,
    coeff_closed_32beta,
    coeff_report,
    coloring_count,
    expand_schur,
    incomparability_graph,
    monomial_to_schur,
    multipartite,
    partitions_of,
    positivity_scan,
    specialize_ones,
    stable_partition_count,
    stable_partition_count_backtracking,
    x_in_monomial,
)
from chromsym import Graph, stable_sets
import chromsym.schur as schur
from chromsym.schur import ROUTES, CoeffReport
from test_posets import general_graphs, unit_interval_orders


def test_coeff_ww_values():
    c4, _ = multipartite((2, 2))
    assert coeff_report(c4, None, (1, 1, 1, 1), "ww").value == 14
    claw, _ = multipartite((3, 1))
    assert coeff_report(claw, None, (2, 2), "ww").value == -1
    assert coeff_report(c4, None, (5,), "ww").value == 0  # weight mismatch


def test_coeff_tabloids_values():
    g32, p32 = multipartite((3, 2))
    assert coeff_report(g32, p32, (3, 2), "tabloid").value == 1
    c4, p4 = multipartite((2, 2))
    assert coeff_report(c4, p4, (2, 1, 1), "tabloid").value == 2
    assert coeff_report(c4, p4, (5,), "tabloid").value == 0


def test_coeff_tail_values():
    g32, p32 = multipartite((3, 2))
    assert coeff_report(g32, p32, (1, 1, 1, 1, 1), "tail").value == 46
    c4, p4 = multipartite((2, 2))
    assert coeff_report(c4, p4, (2, 2), "tail").value == 2
    assert coeff_report(c4, p4, (2, 2, 1), "tail").value == 0


def test_tail_counts_are_all_positive_for_single_column():
    g32, p32 = multipartite((3, 2))
    report = coeff_report(g32, p32, (1, 1, 1, 1, 1), "tail")
    assert report.value == 46
    assert report.tabloid_counts == (46, 0)


def test_coeff_closed_2beta():
    assert coeff_closed_2beta(2, 2, 0) == 2
    assert coeff_closed_2beta(2, 0, 4) == 14
    assert coeff_closed_2beta(1, 1, 0) == 1
    with pytest.raises(BadShapeError):
        coeff_closed_2beta(2, 1, 1)
    with pytest.raises(BadShapeError):
        coeff_closed_2beta(0, 0, 0)


def test_coeff_closed_32beta():
    assert coeff_closed_32beta(1, (2, 1, 1, 1)) == 12
    assert coeff_closed_32beta(1, (2, 2, 1)) == 3
    assert coeff_closed_32beta(1, (1, 1, 1, 1, 1)) == 46
    assert coeff_closed_32beta(1, (3, 2)) == 1
    assert coeff_closed_32beta(1, (3, 1, 1)) == 1
    # shapes no tabloid can have
    assert coeff_closed_32beta(1, (4, 1)) == 0
    assert coeff_closed_32beta(2, (3, 3, 1)) == 0
    with pytest.raises(BadShapeError):
        coeff_closed_32beta(1, (2, 2))
    with pytest.raises(BadShapeError):
        coeff_closed_32beta(0, (3,))


def test_route_equivalence_small():
    for n in range(1, 6):
        for lam in partitions_of(n):
            graph, poset = multipartite(lam)
            oracle = monomial_to_schur(x_in_monomial(graph))
            for mu in partitions_of(n):
                expected = oracle[mu]
                for order, route in ((None, "ww"), (poset, "tabloid"), (poset, "tail")):
                    value = coeff_report(graph, order, mu, route).value
                    assert value == expected, (lam, mu, route)


def test_expand_schur_known_expansions():
    c4, p4 = multipartite((2, 2))
    assert dict(expand_schur(c4, p4).items()) == {
        Partition((2, 2)): 2,
        Partition((2, 1, 1)): 2,
        Partition((1, 1, 1, 1)): 14,
    }
    g32, p32 = multipartite((3, 2))
    assert dict(expand_schur(g32, p32).items()) == {
        Partition((3, 2)): 1,
        Partition((3, 1, 1)): 1,
        Partition((2, 2, 1)): 3,
        Partition((2, 1, 1, 1)): 12,
        Partition((1, 1, 1, 1, 1)): 46,
    }


def test_expand_schur_claw_has_negative_coefficient():
    claw, pc = multipartite((3, 1))
    func = expand_schur(claw, pc)
    assert func[(2, 2)] == -1
    # the zero coefficient at (4) is not stored
    assert func[(4,)] == 0
    assert Partition((4,)) not in func.coeffs


def test_expand_routes_agree():
    g, p = multipartite((2, 2, 1))
    expansions = [expand_schur(g, p, route) for route in ("ww", "tabloid", "tail", "oracle")]
    assert all(e == expansions[0] for e in expansions)


def test_closed_route_on_non_closed_graph():
    claw, _ = multipartite((3, 1))
    with pytest.raises(BadShapeError):
        coeff_report(claw, None, (2, 2), "closed")


def test_positivity_scan():
    g322, p322 = multipartite((3, 2, 2))
    assert positivity_scan(g322, p322).all_nonnegative
    g33, p33 = multipartite((3, 3))
    scan = positivity_scan(g33, p33)
    assert not scan.all_nonnegative
    lam, value = scan.first_negative
    assert lam == (2, 2, 2) and value == -10
    c4, p4 = multipartite((2, 2))
    assert positivity_scan(c4, p4).all_nonnegative
    claw, pc = multipartite((3, 1))
    assert positivity_scan(claw, pc).first_negative == (Partition((2, 2)), -1)


def test_scan_uses_first_negative_in_reverse_lex_order():
    g33, p33 = multipartite((3, 3))
    scan = positivity_scan(g33, p33)
    seen = []
    for lam in partitions_of(6):
        value = coeff_report(g33, p33, lam, "auto").value
        seen.append((lam, value))
        if value < 0:
            break
    assert scan.first_negative == seen[-1]


def test_tabloid_route_on_non_incomparability_graph():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    oracle = monomial_to_schur(x_in_monomial(c5))
    for mu in partitions_of(5):
        assert coeff_report(c5, None, mu, "tabloid").value == oracle[mu], mu
        assert coeff_report(c5, None, mu, "ww").value == oracle[mu], mu


def test_tail_route_needs_a_poset():
    from chromsym import OrderIncompatibleError

    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    with pytest.raises(OrderIncompatibleError):
        coeff_report(c5, None, (2, 2, 1), "tail")
    # auto mode needs no order: it answers such graphs by ww
    assert coeff_report(c5, None, (2, 2, 1)).route == "ww"


WEIGHT_CASES = [
    ("K_(2,2)", *multipartite((2, 2))),
    ("claw", *multipartite((3, 1))),
    ("C5", Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), None),
    ("n=0", Graph(0, []), None),
]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name, graph, order", WEIGHT_CASES, ids=[c[0] for c in WEIGHT_CASES])
def test_coeff_report_wrong_weight_is_zero(name, graph, order, route):
    # the route is resolved and checked against the graph before the weight:
    # closed refuses a graph outside its two families whatever the shape,
    # while tail answers a shape of the wrong weight without asking for a poset
    wrong = [(graph.size + 1,), (1,) * (graph.size + 2)]
    if route == "closed" and name != "K_(2,2)":
        for lam in wrong + [(1,) * graph.size]:
            with pytest.raises(BadShapeError):
                coeff_report(graph, order, lam, route)
        return
    resolved = {"auto": "closed" if name == "K_(2,2)" else "ww"}.get(route, route)
    for lam in wrong:
        assert coeff_report(graph, order, lam, route) == CoeffReport(Partition(lam), 0, resolved)


def independence_number(graph):
    return max(k for k in range(graph.size + 1) if next(stable_sets(graph, k), None) is not None)


def test_ww_census_skips_shapes_wider_than_alpha(monkeypatch):
    # a shape whose first row is longer than alpha has no tiling with every
    # hook inside a stable set, so ww never asks the census for it
    asked = []
    peel = schur._peel

    def spy(lam, cap):
        asked.append(tuple(lam))
        return peel(lam, cap)

    monkeypatch.setattr(schur, "_peel", spy)
    sparse = Poset(10, [(i, j) for i in range(10) for j in range(i + 4, 10)])
    graphs = [
        multipartite((4, 4, 2))[0],
        incomparability_graph(sparse),
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    ]
    for graph in graphs:
        asked.clear()
        alpha = independence_number(graph)
        fresh = Graph(graph.size, graph.edges())
        assert expand_schur(graph, route="ww") == expand_schur(fresh, route="oracle")
        assert asked == list(partitions_of(graph.size, max_part=alpha)), alpha


def test_every_route_on_k_lambda_skips_shapes_wider_than_its_largest_side(monkeypatch):
    # every stable set of K_lambda lies in one side, so every route on it asks
    # only for the shapes whose first row fits in the largest side; on a graph
    # without sides, tabloid, tail and oracle ask for every shape
    asked = []
    setup = schur._setup_route

    def spy(graph, order, route):
        resolved, bound, coeff = setup(graph, order, route)

        def spied(lam):
            asked.append(tuple(lam))
            return coeff(lam)

        return resolved, bound, spied

    monkeypatch.setattr(schur, "_setup_route", spy)
    for sides in [(3, 2, 2), (2, 2, 2), (4, 2, 1), (3, 3, 1)]:
        graph, poset = multipartite(sides)
        bare = Graph(graph.size, graph.edges())
        everything = list(partitions_of(graph.size))
        within = list(partitions_of(graph.size, max_part=max(sides)))
        for route in ("oracle", "tabloid", "tail"):
            asked.clear()
            if route == "oracle":
                truth = expand_schur(bare, poset, route)
            else:
                assert expand_schur(bare, poset, route) == truth
            assert asked == everything, route
        for route in ROUTES:
            if route == "closed" and not schur._closed_family(graph):
                continue
            asked.clear()
            assert expand_schur(graph, poset, route) == truth
            assert asked == within, (sides, route)
        asked.clear()
        positivity_scan(graph, poset)
        assert asked and asked == within[: len(asked)]


def test_closed_forms_match_ww_up_to_beta_20():
    # both routes walk the shapes within the largest side, and the wider
    # shapes are 0 on both, which the small graphs check shape by shape
    for beta in range(1, 21):
        for sides in ((2,) * beta, (3,) + (2,) * beta):
            graph, poset = multipartite(sides)
            closed = expand_schur(graph, poset, "closed")
            assert closed == expand_schur(graph, poset, "ww"), sides
            if graph.size <= 11:
                for lam in partitions_of(graph.size):
                    assert closed[lam] == coeff_report(graph, poset, lam, "ww").value


def test_tail_expansion_builds_the_chain_union_once(monkeypatch):
    graph, _ = multipartite((3, 2, 2))
    expected = expand_schur(graph, None, "oracle")
    built = []
    chain_union = Poset.chain_union

    def spy(cls, lengths):
        built.append(tuple(lengths))
        return chain_union(lengths)

    monkeypatch.setattr(Poset, "chain_union", classmethod(spy))
    assert expand_schur(graph, None, "tail") == expected
    assert built == [(3, 2, 2)]


def test_specialization_referee_on_engine_output():
    for lam in [(2, 2), (3, 2), (2, 1, 1)]:
        graph, poset = multipartite(lam)
        func = expand_schur(graph, poset)
        for q in range(5):
            assert specialize_ones(func, q) == coloring_count(graph, q)


def test_single_column_coefficient_counts_sequences():
    from chromsym import nsp_bruteforce

    for n in range(1, 7):
        for lam in partitions_of(n):
            poset = Poset.chain_union(lam)
            report = coeff_report(incomparability_graph(poset), poset, (1,) * n, "tail")
            assert report.value == nsp_bruteforce(poset), lam
    example = Poset(
        6, [(0, 1), (1, 5), (0, 2), (2, 4), (3, 2), (1, 4)]
    )
    report = coeff_report(incomparability_graph(example), example, (1,) * 6, "tail")
    assert report.value == nsp_bruteforce(example)


def test_coeff_report_routes_and_counts():
    c4, p4 = multipartite((2, 2))
    auto = coeff_report(c4, p4, (2, 2))
    assert auto.route == "closed" and auto.value == 2
    tab = coeff_report(c4, p4, (2, 2), "tabloid")
    assert tab.tabloid_counts is not None
    pos, neg = tab.tabloid_counts
    assert pos - neg == tab.value
    claw, pc = multipartite((3, 1))
    assert coeff_report(claw, pc, (2, 2)).route == "ww"


@settings(max_examples=100, deadline=None)
@given(general_graphs(max_n=8))
@example(Graph(0, []))
@example(Graph(8, []))
@example(Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)]))
def test_ww_matches_oracle_on_random_graphs(graph):
    # the empty, edgeless and complete graphs put the census's hook bound at
    # 0, at n and at 1
    fresh = Graph(graph.size, graph.edges())
    assert expand_schur(graph, route="ww") == expand_schur(fresh, route="oracle")


@settings(max_examples=100, deadline=None)
@given(unit_interval_orders())
def test_routes_agree_on_random_unit_interval_orders(poset):
    graph = incomparability_graph(poset)
    expansions = [
        expand_schur(graph, poset, route) for route in ("ww", "tabloid", "tail", "oracle")
    ]
    assert all(e == expansions[0] for e in expansions)
    # ww and oracle filled the graph's count table; tabloid and tail never read it
    fresh = Graph(graph.size, graph.edges())
    for mu in partitions_of(graph.size):
        assert stable_partition_count(graph, mu) == stable_partition_count_backtracking(
            fresh, mu
        )
