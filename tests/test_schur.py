import ast
import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
import chromsym.posets as posets
import chromsym.schur as schur
import chromsym.tabloids as tabloids
from chromsym.schur import ROUTES, CoeffReport
from test_posets import general_graphs, relabelled_posets, unit_interval_orders


def test_coeff_ww_values():
    c4 = multipartite((2, 2))
    assert coeff_report(c4, (1, 1, 1, 1), "ww").value == 14
    claw = multipartite((3, 1))
    assert coeff_report(claw, (2, 2), "ww").value == -1
    assert coeff_report(c4, (5,), "ww").value == 0  # weight mismatch


def test_coeff_tabloids_values():
    g32 = multipartite((3, 2))
    assert coeff_report(g32, (3, 2), "tabloid").value == 1
    c4 = multipartite((2, 2))
    assert coeff_report(c4, (2, 1, 1), "tabloid").value == 2
    assert coeff_report(c4, (5,), "tabloid").value == 0


def test_coeff_tail_values():
    g32 = multipartite((3, 2))
    assert coeff_report(g32, (1, 1, 1, 1, 1), "tail").value == 46
    c4 = multipartite((2, 2))
    assert coeff_report(c4, (2, 2), "tail").value == 2
    assert coeff_report(c4, (2, 2, 1), "tail").value == 0


def test_tail_counts_are_all_positive_for_single_column():
    g32 = multipartite((3, 2))
    report = coeff_report(g32, (1, 1, 1, 1, 1), "tail")
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
            graph = multipartite(lam)
            oracle = monomial_to_schur(x_in_monomial(graph))
            for mu in partitions_of(n):
                expected = oracle[mu]
                for route in ("ww", "tabloid", "tail"):
                    value = coeff_report(graph, mu, route).value
                    assert value == expected, (lam, mu, route)


def test_expand_schur_known_expansions():
    c4 = multipartite((2, 2))
    assert dict(expand_schur(c4).items()) == {
        Partition((2, 2)): 2,
        Partition((2, 1, 1)): 2,
        Partition((1, 1, 1, 1)): 14,
    }
    g32 = multipartite((3, 2))
    assert dict(expand_schur(g32).items()) == {
        Partition((3, 2)): 1,
        Partition((3, 1, 1)): 1,
        Partition((2, 2, 1)): 3,
        Partition((2, 1, 1, 1)): 12,
        Partition((1, 1, 1, 1, 1)): 46,
    }


def test_expand_schur_claw_has_negative_coefficient():
    claw = multipartite((3, 1))
    func = expand_schur(claw)
    assert func[(2, 2)] == -1
    # the zero coefficient at (4) is not stored
    assert func[(4,)] == 0
    assert Partition((4,)) not in func.coeffs


def test_expand_routes_agree():
    g = multipartite((2, 2, 1))
    expansions = [expand_schur(g, route) for route in ("ww", "tabloid", "tail", "oracle")]
    assert all(e == expansions[0] for e in expansions)


def test_closed_route_on_non_closed_graph():
    claw = multipartite((3, 1))
    with pytest.raises(BadShapeError):
        coeff_report(claw, (2, 2), "closed")


def test_coeff_report_refuses_an_unknown_route():
    with pytest.raises(ValueError, match="^route must be one of .*, got 'full'$"):
        coeff_report(multipartite((2, 2)), (2, 2), "full")


def test_positivity_scan():
    assert positivity_scan(multipartite((3, 2, 2))).all_nonnegative
    scan = positivity_scan(multipartite((3, 3)))
    assert not scan.all_nonnegative
    lam, value = scan.first_negative
    assert lam == (2, 2, 2) and value == -10
    assert positivity_scan(multipartite((2, 2))).all_nonnegative
    assert positivity_scan(multipartite((3, 1))).first_negative == (Partition((2, 2)), -1)


def test_scan_uses_first_negative_in_reverse_lex_order():
    g33 = multipartite((3, 3))
    scan = positivity_scan(g33)
    seen = []
    for lam in partitions_of(6):
        value = coeff_report(g33, lam, "auto").value
        seen.append((lam, value))
        if value < 0:
            break
    assert scan.first_negative == seen[-1]


def test_tabloid_route_on_non_incomparability_graph():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    oracle = monomial_to_schur(x_in_monomial(c5))
    for mu in partitions_of(5):
        assert coeff_report(c5, mu, "tabloid").value == oracle[mu], mu
        assert coeff_report(c5, mu, "ww").value == oracle[mu], mu


def test_tail_route_needs_a_poset():
    from chromsym import OrderIncompatibleError

    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    with pytest.raises(OrderIncompatibleError):
        coeff_report(c5, (2, 2, 1), "tail")
    # auto mode needs no order: it answers such graphs by ww
    assert coeff_report(c5, (2, 2, 1)).route == "ww"


def test_tail_refuses_an_order_whose_incomparability_graph_is_not_the_graph():
    from chromsym import OrderIncompatibleError

    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    # N, a < c > b < d, numbered a, d, b, c: the non-edges oriented by index
    # run d -> b -> c, but d and c are adjacent, so that is no order
    n_shuffled = Graph(4, [(0, 1), (0, 2), (1, 3)])
    for graph in (c5, n_shuffled):
        # tabloid reads the index order as it is, but it presents no inc(P)
        ones = (1,) * graph.size
        ww = coeff_report(graph, ones, "ww").value
        assert coeff_report(graph, ones, "tabloid").value == ww
        with pytest.raises(OrderIncompatibleError):
            coeff_report(graph, ones, "tail")
        assert coeff_report(graph, (1,), "tail").value == 0  # weight mismatch
    # K_3's non-edges, none, order it as the antichain
    assert coeff_report(k3, (1, 1, 1), "tail").value == 6


def test_tail_orders_k_lambda_by_its_non_edges_in_any_labelling():
    graph = multipartite((3, 2, 2))
    for name in [(0, 3, 5, 1, 4, 2, 6), (6, 5, 4, 3, 2, 1, 0), (2, 0, 4, 6, 1, 3, 5)]:
        renamed = Graph(7, [(name[u], name[v]) for u, v in graph.edges()])
        assert renamed.sides == (3, 2, 2)
        assert expand_schur(renamed, "tail") == expand_schur(renamed, "ww")


@st.composite
def naturally_labelled_posets(draw, max_n=7):
    """Random posets on up to `max_n` elements whose covers all go up in
    index, so that the index order extends each of them."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Poset(n, [pair for pair, k in zip(pairs, keep) if k])


@settings(max_examples=40, deadline=None)
@given(naturally_labelled_posets())
def test_tail_takes_its_order_from_the_non_edges(poset):
    # the graph alone, its edges copied into a bare graph, names the same
    # order as inc(P), so tail agrees tabloid count for tabloid
    inc = incomparability_graph(poset)
    graph = Graph(poset.size, inc.edges())
    for mu in partitions_of(poset.size):
        assert coeff_report(graph, mu, "tail") == coeff_report(inc, mu, "tail")


WEIGHT_CASES = [
    ("K_(2,2)", multipartite((2, 2))),
    ("claw", multipartite((3, 1))),
    ("C5", Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])),
    ("n=0", Graph(0, [])),
]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name, graph", WEIGHT_CASES, ids=[c[0] for c in WEIGHT_CASES])
def test_coeff_report_wrong_weight_is_zero(name, graph, route):
    # the route is resolved and checked against the graph before the weight:
    # closed refuses a graph outside its two families whatever the shape,
    # while tail answers a shape of the wrong weight without reading the order
    wrong = [(graph.size + 1,), (1,) * (graph.size + 2)]
    if route == "closed" and name != "K_(2,2)":
        for lam in wrong + [(1,) * graph.size]:
            with pytest.raises(BadShapeError):
                coeff_report(graph, lam, route)
        return
    resolved = {"auto": "closed" if name == "K_(2,2)" else "ww"}.get(route, route)
    for lam in wrong:
        assert coeff_report(graph, lam, route) == CoeffReport(Partition(lam), 0, resolved)


def independence_number(graph):
    return max(k for k in range(graph.size + 1) if next(stable_sets(graph, k), None) is not None)


def test_ww_census_skips_shapes_wider_than_alpha(monkeypatch):
    # a shape whose first row is longer than alpha has no tiling with every
    # hook inside a stable set, so ww never asks the census for it
    asked = []
    depth = [0]
    peel = tabloids._peel

    def spy(lam, cap):
        # the peeling recurses through this spy too; only the census's own asks count
        if not depth[0]:
            asked.append(tuple(lam))
        depth[0] += 1
        try:
            return peel(lam, cap)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(tabloids, "_peel", spy)
    sparse = Poset(10, [(i, j) for i in range(10) for j in range(i + 4, 10)])
    graphs = [
        multipartite((4, 4, 2)),
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
    # every stable set of K_lambda lies in one side, so every route on it,
    # however it was built, asks only for the shapes whose first row fits in
    # the largest side; on a graph without sides, tabloid and oracle ask for
    # every shape
    asked = []
    setup = schur._setup_route

    def spy(graph, route):
        resolved, bound, coeff = setup(graph, route)

        def spied(lam):
            asked.append(tuple(lam))
            return coeff(lam)

        return resolved, bound, spied

    monkeypatch.setattr(schur, "_setup_route", spy)
    for sides in [(3, 2, 2), (2, 2, 2), (4, 2, 1), (3, 3, 1)]:
        graph = multipartite(sides)
        bare = Graph(graph.size, graph.edges())
        # one edge between two sides taken away: no longer multipartite
        missing = Graph(graph.size, graph.edges()[1:])
        assert bare.sides == graph.sides and missing.sides is None
        everything = list(partitions_of(graph.size))
        within = list(partitions_of(graph.size, max_part=max(sides)))
        for route in ("oracle", "tabloid", "tail"):
            asked.clear()
            if route == "oracle":
                truth = expand_schur(bare, route)
            else:
                assert expand_schur(bare, route) == truth
            assert asked == within, route
            if route != "tail":
                asked.clear()
                expand_schur(missing, route)
                assert asked == everything, route
        for route in ROUTES:
            if route == "closed" and not schur._closed_family(graph):
                continue
            asked.clear()
            assert expand_schur(graph, route) == truth
            assert asked == within, (sides, route)
        asked.clear()
        positivity_scan(graph)
        assert asked and asked == within[: len(asked)]


@pytest.mark.parametrize(
    "sides", [(2,) * beta for beta in (1, 2, 3)] + [(3,) + (2,) * beta for beta in (1, 2, 3)]
)
def test_closed_family_coefficients_are_ints_on_every_route(sides):
    # a value that only equals 0, such as False, prints "False"; every
    # route must answer an int, on every shape and on a wrong weight
    graph = multipartite(sides)
    shapes = list(partitions_of(graph.size)) + [Partition((graph.size + 1,))]
    for route in ROUTES:
        for lam in shapes:
            value = coeff_report(graph, lam, route).value
            assert type(value) is int, (sides, route, lam, value)


def test_closed_forms_match_ww_up_to_beta_20():
    # both routes walk the shapes within the largest side, and the wider
    # shapes are 0 on both, which the small graphs check shape by shape
    for beta in range(1, 21):
        for sides in ((2,) * beta, (3,) + (2,) * beta):
            graph = multipartite(sides)
            closed = expand_schur(graph, "closed")
            assert closed == expand_schur(graph, "ww"), sides
            if graph.size <= 11:
                for lam in partitions_of(graph.size):
                    assert closed[lam] == coeff_report(graph, lam, "ww").value


def test_tabloid_routes_build_no_poset_and_read_the_chain_masks(monkeypatch):
    # tabloid and tail read the index order on the non-edges, which on
    # K_lambda is its chain union, as masks: no Poset is built
    import chromsym.tabloids as tabloids

    graph = multipartite((3, 2, 2))
    expected = expand_schur(graph, "oracle")
    chains = Poset.chain_union((3, 2, 2))
    strict = tuple(chains.above_mask(x) & ~(1 << x) for x in range(7))
    built, masks = [], set()
    init, fillings = Poset.__init__, tabloids._fillings

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def spy_fillings(graph, above, *args):
        masks.add(above)
        return fillings(graph, above, *args)

    monkeypatch.setattr(Poset, "__init__", spy)
    monkeypatch.setattr(tabloids, "_fillings", spy_fillings)
    for route in ("tail", "tabloid"):
        assert expand_schur(graph, route) == expected
    assert built == [] and masks == {strict}


def test_tabloid_routes_on_k_lambda_need_no_poset():
    # both read the index order on the non-edges: K_lambda built from its
    # sides counts as inc of the chain union does
    for n in range(1, 8):
        for lam in partitions_of(n):
            graph = multipartite(lam)
            chains = incomparability_graph(Poset.chain_union(lam))
            for mu in partitions_of(n):
                for route in ("tabloid", "tail"):
                    given = coeff_report(chains, mu, route)
                    assert coeff_report(graph, mu, route) == given, (lam, mu, route)


def test_specialization_referee_on_engine_output():
    for lam in [(2, 2), (3, 2), (2, 1, 1)]:
        graph = multipartite(lam)
        func = expand_schur(graph)
        for q in range(5):
            assert specialize_ones(func, q) == coloring_count(graph, q)


def test_single_column_coefficient_counts_sequences():
    from chromsym import nsp_bruteforce

    for n in range(1, 7):
        for lam in partitions_of(n):
            poset = Poset.chain_union(lam)
            report = coeff_report(incomparability_graph(poset), (1,) * n, "tail")
            assert report.value == nsp_bruteforce(poset), lam
    example = Poset(
        6, [(0, 1), (1, 5), (0, 2), (2, 4), (3, 2), (1, 4)]
    )
    # its numbers do not extend it (d < c), so its graph is renumbered
    report = coeff_report(incomparability_graph(example), (1,) * 6, "tail")
    assert report.value == nsp_bruteforce(example)


def test_coeff_report_routes_and_counts():
    c4 = multipartite((2, 2))
    auto = coeff_report(c4, (2, 2))
    assert auto.route == "closed" and auto.value == 2
    tab = coeff_report(c4, (2, 2), "tabloid")
    assert tab.tabloid_counts is not None
    pos, neg = tab.tabloid_counts
    assert pos - neg == tab.value
    claw = multipartite((3, 1))
    assert coeff_report(claw, (2, 2)).route == "ww"


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
        expand_schur(graph, route) for route in ("ww", "tabloid", "tail", "oracle")
    ]
    assert all(e == expansions[0] for e in expansions)
    # ww and oracle filled the graph's count table; tabloid and tail never read it
    fresh = Graph(graph.size, graph.edges())
    for mu in partitions_of(graph.size):
        assert stable_partition_count(graph, mu) == stable_partition_count_backtracking(
            fresh, mu
        )


@settings(max_examples=100, deadline=None)
@given(relabelled_posets())
@example(Poset(0, []))
@example(Poset(4, [(0, 1), (1, 2)]))  # 3+1: the claw, with a negative coefficient
@example(Poset(4, [(0, 1), (2, 3)]))  # 2+2
def test_routes_agree_on_random_relabelled_posets(poset):
    # inc(P) is numbered by a linear extension of P whatever P's own
    # numbers, so its index order is P, tail answers, and ww and oracle read
    # a table filled by the frontier DP, which tabloid and tail never read
    graph = incomparability_graph(poset)
    assert posets._index_order(graph) is not None
    expansions = [
        expand_schur(graph, route) for route in ("ww", "oracle", "tabloid", "tail")
    ]
    assert all(e == expansions[0] for e in expansions)


def test_tabloid_and_tail_on_k_lambda_read_neither_the_table_nor_the_census(monkeypatch):
    # their agreement with ww and oracle checks the count table and the
    # census only while they read neither
    expected = {
        lam: expand_schur(multipartite(lam), route="ww")
        for n in range(1, 8)
        for lam in partitions_of(n)
    }

    def refuse(*args):
        raise AssertionError("an enumerating route read the count table or the census")

    for name, module in list(sys.modules.items()):
        if name.startswith("chromsym."):
            for helper in ("_count_table", "_weighed_census", "_peel"):
                if hasattr(module, helper):
                    monkeypatch.setattr(module, helper, refuse)
    for lam, ww in expected.items():
        for route in ("tabloid", "tail"):
            assert expand_schur(multipartite(lam), route=route) == ww, (lam, route)


def _imports_the_referees(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "chromsym.reference" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = node.module or ""
    if node.level == 0:
        if module == "chromsym.reference":
            return True
        if module != "chromsym":
            return False
    elif module:
        return module == "reference"
    return any(alias.name == "reference" for alias in node.names)


def test_only_selfcheck_imports_the_referees():
    # a route that reached into the referees would check itself; the
    # package's lazy __getattr__ is the one other place that loads them
    found = []
    for path in sorted(Path(schur.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lazy = {
            id(node)
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__getattr__"
            for node in ast.walk(fn)
        }
        found += [
            (path.stem, id(node) in lazy) for node in ast.walk(tree) if _imports_the_referees(node)
        ]
    assert ("selfcheck", False) in found
    assert {entry for entry in found} <= {("selfcheck", False), ("__init__", True)}


def test_only_the_tabloid_layer_and_its_referees_name_the_census_code():
    # schur weighs the census through tabloids._weighed_census; the content
    # code and the peeling are the tabloid layer's own, read by the referees
    private = {"_peel", "_content_code", "_content_parts"}
    found = set()
    for path in sorted(Path(schur.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            if names & private:
                found.add(path.stem)
    assert "schur" not in found
    assert found <= {"tabloids", "reference", "selfcheck"}


def test_the_package_resolves_every_public_referee():
    import chromsym
    import chromsym.reference as reference

    public = {
        name
        for name, obj in vars(reference).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == reference.__name__
    }
    assert public == chromsym._REFERENCE

