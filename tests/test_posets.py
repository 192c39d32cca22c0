import itertools
import sys
import threading
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import chromsym.posets as posets
from chromsym._util import iter_bits
from chromsym import (
    CycleError,
    EmptyPartitionError,
    Graph,
    Poset,
    has_stable_partition,
    incomparability_graph,
    multipartite,
    multipartite_has_stable_partition,
    multipartite_stable_partition_count,
    niceness_violation,
    partitions_of,
    semi_ordered_count,
    stable_partition_count,
    stable_partition_count_backtracking,
    stable_sets,
)


def example_poset():
    """Six elements a..f with covers a<b<f, a<c<e, d<c, b<e."""
    return Poset(
        6, [(0, 1), (1, 5), (0, 2), (2, 4), (3, 2), (1, 4)], labels=list("abcdef")
    )


def test_poset_from_covers_closure():
    p = example_poset()
    a, b, c, d, e, f = (p.element(x) for x in "abcdef")
    assert p.leq(a, f)  # through b
    assert p.leq(d, e)  # through c
    assert not p.leq(d, a)
    assert p.comparable(b, e)
    assert not p.comparable(c, f)


def test_poset_cycle_detection():
    with pytest.raises(CycleError):
        Poset(2, [(0, 1), (1, 0)])
    with pytest.raises(CycleError):
        Poset(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleError):
        Poset(1, [(0, 0)])


def test_poset_antichain_and_chain():
    antichain = Poset(4, [])
    assert incomparability_graph(antichain).edges() == [
        (u, v) for u in range(4) for v in range(u + 1, 4)
    ]
    chain = Poset.chain(3)
    assert incomparability_graph(chain).edges() == []


def test_incomparability_graph_of_example():
    p = example_poset()
    g = incomparability_graph(p)
    names = {i: p.label(i) for i in range(6)}
    got = sorted("".join(sorted((names[u], names[v]))) for u, v in g.edges())
    assert got == ["ad", "bc", "bd", "cf", "df", "ef"]


def test_poset_json_round_trip():
    p = example_poset()
    q = Poset.from_json(p.to_json())
    assert q.size == p.size and q.covers == p.covers and q.labels == p.labels


def test_graph_json_round_trip():
    g = Graph(4, [(0, 2), (1, 3)])
    assert Graph.from_json(g.to_json()).edges() == g.edges()


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    # masks are ints of any width, so there is no vertex limit
    g = Graph(100, [(0, 99), (64, 70)])
    assert g.size == 100 and g.edges() == [(0, 99), (64, 70)]
    assert g.adjacent(99, 0) and g.adjacent(70, 64) and not g.adjacent(0, 64)
    edgeless = Graph(100)
    assert edgeless.edges() == [] and not edgeless.adjacent(63, 64)


def test_multipartite_shapes():
    claw, claw_poset = multipartite((3, 1))
    assert claw.edges() == [(0, 3), (1, 3), (2, 3)]
    assert claw.sides == ((0, 1, 2), (3,))
    assert claw_poset.leq(0, 1) and claw_poset.leq(1, 2) and not claw_poset.comparable(2, 3)

    c4, poset = multipartite((2, 2))
    assert c4.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert poset.leq(0, 1) and not poset.leq(0, 2)

    edgeless, _ = multipartite((5,))
    assert edgeless.edges() == []

    with pytest.raises(EmptyPartitionError):
        multipartite(())


def test_stable_sets():
    g32, _ = multipartite((3, 2))
    assert list(stable_sets(g32, 3)) == [frozenset({0, 1, 2})]
    assert list(stable_sets(g32, 0)) == [frozenset()]
    c4, _ = multipartite((2, 2))
    assert sorted(stable_sets(c4, 2)) == [frozenset({0, 1}), frozenset({2, 3})]


def test_stable_sets_of_multipartite_live_in_one_side():
    for n in range(1, 11):
        for lam in partitions_of(n):
            g, _ = multipartite(lam)
            side_of = {v: i for i, side in enumerate(g.sides) for v in side}
            total = 0
            for size in range(1, g.size + 1):
                for s in stable_sets(g, size):
                    total += 1
                    assert len({side_of[v] for v in s}) == 1
            # conversely, every nonempty subset of a side is stable
            assert total == sum(2**part - 1 for part in lam)


def test_stable_partition_counts():
    c4, _ = multipartite((2, 2))
    assert stable_partition_count(c4, (2, 2)) == 1
    g32, _ = multipartite((3, 2))
    assert stable_partition_count(g32, (2, 2, 1)) == 3
    for lam in [(3, 2), (2, 2, 2), (4, 1)]:
        g, _ = multipartite(lam)
        assert stable_partition_count(g, lam) == 1
    # weight mismatch returns zero instead of raising
    assert stable_partition_count(c4, (2, 2, 2)) == 0


def test_multipartite_count_reads_a_type_in_any_order():
    assert multipartite_stable_partition_count((2, 1), (1, 2)) == 1
    assert multipartite_stable_partition_count((1, 2), (1, 2)) == 1
    assert multipartite_has_stable_partition((2, 1), (1, 2))
    for mu in itertools.permutations((2, 2, 1, 1)):
        assert multipartite_stable_partition_count((3, 3), mu) == 9


def test_fast_path_agrees_with_backtracking():
    for n in range(1, 11):
        for lam in partitions_of(n):
            g, _ = multipartite(lam)
            bare = Graph(g.size, g.edges())
            for mu in partitions_of(n):
                fast = multipartite_stable_partition_count(lam, mu)
                slow = stable_partition_count_backtracking(bare, mu)
                assert fast == slow, (lam, mu)
                assert multipartite_has_stable_partition(lam, mu) == (
                    slow > 0
                )
    # past backtracking's reach, placing parts agrees with the side product
    # on every pair of types up to n = 14
    for n in range(11, 15):
        for lam in partitions_of(n):
            g, _ = multipartite(lam)
            for mu in partitions_of(n):
                assert multipartite_has_stable_partition(lam, mu) == (
                    stable_partition_count(g, mu) > 0
                ), (lam, mu)


def semi_ordered_by_backtracking(graph):
    """{type: backtracked count times its multiplicity factorials} over the
    types the graph has: X_G's monomial coefficients, counted slowly."""
    table = {}
    for mu in partitions_of(graph.size):
        count = stable_partition_count_backtracking(graph, mu)
        if count:
            for m in mu.multiplicities().values():
                count *= factorial(m)
            table[mu] = count
    return table


def test_multipartite_count_table_is_whole_after_one_read():
    for n in range(1, 9):
        for lam in partitions_of(n):
            g, _ = multipartite(lam)
            assert stable_partition_count(g, lam) == 1, lam
            bare = Graph(g.size, g.edges())
            assert g._counts == semi_ordered_by_backtracking(bare), lam


def test_multipartite_edges_match_the_chain_union():
    for n in range(1, 9):
        for lam in partitions_of(n):
            g, _ = multipartite(lam)
            assert g.edges() == incomparability_graph(Poset.chain_union(lam)).edges()


def test_chain_union_masks_match_the_closure_of_its_covers():
    # chain_union writes its reachability masks; Poset closes the covers
    for lengths in [(), (1,), (3, 2), (2, 0, 3), (1, 1, 1), (4, 4, 2, 1), (40, 25)]:
        chains = Poset.chain_union(lengths)
        closed = Poset(chains.size, chains.covers)
        assert chains.size == sum(lengths)
        assert [chains.above_mask(x) for x in range(chains.size)] == [
            closed.above_mask(x) for x in range(closed.size)
        ]
    with pytest.raises(ValueError):
        Poset.chain_union((2, -1))
    # past 64 elements: the first chain is 0..39, the second 40..64
    chains = Poset.chain_union((40, 25))
    assert chains.above_mask(0) == (1 << 40) - 1
    assert chains.above_mask(40) == (1 << 65) - (1 << 40)
    assert chains.leq(40, 64) and not chains.comparable(39, 40)


def test_graph_given_by_sides_takes_no_edges():
    g = Graph(3, sides=((0, 1), (2,)))
    assert g.edges() == [(0, 2), (1, 2)] and g.side_sizes() == (2, 1)
    with pytest.raises(ValueError):
        Graph(3, [(0, 1)], sides=((0, 1), (2,)))


def test_stable_partitions_enumerator_matches_count():
    graphs = [multipartite(lam)[0] for lam in [(2, 2), (3, 2), (2, 2, 1)]]
    graphs.append(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
    for g in graphs:
        full = (1 << g.size) - 1
        for mu in partitions_of(g.size):
            found = list(posets._partition_blocks(g, mu))
            assert len(found) == stable_partition_count(g, mu)
            # one unordered partition each: as sets of blocks they differ
            assert len({frozenset(blocks) for blocks in found}) == len(found)
            for blocks in found:
                assert sorted(m.bit_count() for m in blocks) == sorted(mu)
                covered = 0
                for m in blocks:
                    assert not covered & m
                    covered |= m
                    pairs = itertools.combinations(iter_bits(m), 2)
                    assert not any(g.adjacent(u, v) for u, v in pairs)
                assert covered == full


def test_semi_ordered_counts():
    c4, _ = multipartite((2, 2))
    assert semi_ordered_count(c4, (2, 2)) == 2
    g32, _ = multipartite((3, 2))
    assert semi_ordered_count(g32, (1, 1, 1, 1, 1)) == 120
    # distinct part sizes leave the count unchanged
    assert semi_ordered_count(g32, (3, 2)) == stable_partition_count(g32, (3, 2))


def test_semi_ordered_divisible_by_plain_count():
    for lam in [(2, 2), (3, 2), (2, 2, 1), (3, 1)]:
        g, _ = multipartite(lam)
        for mu in partitions_of(g.size):
            plain = stable_partition_count(g, mu)
            if plain:
                assert semi_ordered_count(g, mu) % plain == 0


def test_count_table_counts_each_type_once_per_graph(monkeypatch):
    def refuse(graph, mu):
        raise AssertionError("the count table backtracked")

    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    expected = semi_ordered_by_backtracking(Graph(5, c5.edges()))
    sweeps = []
    sweep = posets._sweep_counts

    def recording_sweep(graph):
        sweeps.append(graph)
        return sweep(graph)

    monkeypatch.setattr(posets, "stable_partition_count_backtracking", refuse)
    monkeypatch.setattr(posets, "_sweep_counts", recording_sweep)
    assert stable_partition_count(c5, (2, 2, 1)) == 5
    assert semi_ordered_count(c5, (2, 2, 1)) == 10
    # the first read fills every type; later reads and existence checks hit it
    assert c5._counts == expected
    assert stable_partition_count(c5, (1, 1, 1, 1, 1)) == 1
    assert has_stable_partition(c5, (2, 2, 1)) and not has_stable_partition(c5, (3, 2))
    assert sweeps == [c5]
    # another graph on the same edges keeps its own table
    assert stable_partition_count(Graph(5, c5.edges()), (2, 2, 1)) == 5
    assert len(sweeps) == 2
    # multipartite graphs fill their table by the side product, no sweep
    g32, _ = multipartite((3, 2))
    assert stable_partition_count(g32, (2, 2, 1)) == 3
    assert has_stable_partition(g32, (3, 2))
    assert len(sweeps) == 2


@st.composite
def general_graphs(draw, max_n=9):
    """Random graphs on up to `max_n` vertices, edgeless and complete ones
    drawn on purpose."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    kind = draw(st.sampled_from(["random", "edgeless", "complete"]))
    if kind == "edgeless":
        return Graph(n, [])
    if kind == "complete":
        return Graph(n, pairs)
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def unit_interval_orders(draw, max_n=7):
    """Natural unit interval orders on 0..n-1: i < j iff j > reach[i], where
    reach is weakly increasing with reach[i] >= i."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    reach = []
    for i in range(n):
        low = max(i, reach[-1] if reach else 0)
        reach.append(draw(st.integers(min_value=low, max_value=n - 1)))
    covers = [(i, j) for i in range(n) for j in range(reach[i] + 1, n)]
    return Poset(n, covers)


def natural_order(reach):
    """The natural unit interval order where x < y iff y > reach[x]."""
    n = len(reach)
    return Poset(n, [(x, y) for x, r in enumerate(reach) for y in range(r + 1, n)])


def natural_reaches(n):
    """Every weakly increasing reach on 0..n-1 with reach[x] >= x."""
    return [
        reach
        for reach in itertools.combinations_with_replacement(range(n), n)
        if all(r >= x for x, r in enumerate(reach))
    ]


def test_chain_counts_match_the_sweep_on_every_natural_order_up_to_eight():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for n in range(9):
        reaches = natural_reaches(n)
        assert len(reaches) == catalan[n]
        for reach in reaches:
            graph = incomparability_graph(natural_order(reach))
            assert graph.reach == reach
            assert posets._chain_counts(reach) == posets._sweep_counts(graph), reach
    # no elements, one chain, one antichain
    assert posets._chain_counts(()) == {(): 1}
    assert posets._chain_counts((0, 1, 2, 3)) == {
        (4,): 1,
        (3, 1): 4,
        (2, 2): 6,
        (2, 1, 1): 12,
        (1, 1, 1, 1): 24,
    }
    chain = incomparability_graph(Poset.chain(5))
    assert chain.reach == (0, 1, 2, 3, 4)
    assert posets._chain_counts(chain.reach) == posets._sweep_counts(chain)
    antichain = incomparability_graph(Poset(5, []))
    assert antichain.reach == (4,) * 5
    assert posets._chain_counts(antichain.reach) == {(1, 1, 1, 1, 1): 120}


@settings(max_examples=60, deadline=None)
@given(unit_interval_orders(max_n=12))
def test_chain_counts_match_the_sweep_on_random_natural_orders(poset):
    graph = incomparability_graph(poset)
    assert graph.reach is not None
    assert posets._count_table(graph) == posets._sweep_counts(Graph(graph.size, graph.edges()))


def relabelled(poset, perm):
    """`poset` with element x renamed perm[x]."""
    return Poset(poset.size, [(perm[lo], perm[hi]) for lo, hi in poset.covers])


def test_natural_orders_count_by_chains_and_never_sweep(monkeypatch):
    sweeps = []
    sweep = posets._sweep_counts

    def recording_sweep(graph):
        sweeps.append(graph)
        return sweep(graph)

    monkeypatch.setattr(posets, "_sweep_counts", recording_sweep)
    order = natural_order((2, 3, 4, 5, 5, 5))
    natural = incomparability_graph(order)
    assert natural.reach == (2, 3, 4, 5, 5, 5)
    expected = semi_ordered_by_backtracking(Graph(6, natural.edges()))
    assert stable_partition_count(natural, (2, 2, 2)) == expected[(2, 2, 2)] // 6
    assert has_stable_partition(natural, (3, 3)) == ((3, 3) in expected)
    assert natural._counts == expected and sweeps == []
    # orders that are not natural unit interval orders as labelled sweep
    others = [
        relabelled(order, (5, 4, 3, 2, 1, 0)),
        Poset.chain_union((2, 2)),
        Poset.chain_union((3, 1)),
        # every up-set is a suffix here, but reach (3, 1, 2, 3) decreases
        relabelled(Poset.chain_union((3, 1)), (1, 2, 3, 0)),
    ]
    for poset in others:
        graph = incomparability_graph(poset)
        assert graph.reach is None
        expected = semi_ordered_by_backtracking(Graph(graph.size, graph.edges()))
        assert stable_partition_count(graph, (1,) * graph.size) == 1
        assert graph._counts == expected and sweeps[-1] is graph
    assert len(sweeps) == len(others)


@settings(max_examples=80, deadline=None)
@given(general_graphs())
def test_count_table_sweep_matches_backtracking(graph):
    fresh = Graph(graph.size, graph.edges())
    expected = {
        mu: stable_partition_count_backtracking(fresh, mu)
        for mu in partitions_of(graph.size)
    }
    assert {mu: stable_partition_count(graph, mu) for mu in expected} == expected
    assert graph._counts == semi_ordered_by_backtracking(fresh)
    for mu, count in expected.items():
        assert has_stable_partition(graph, mu) == (count > 0)


@pytest.mark.parametrize(
    "perm, natural", [(range(8), True), (range(7, -1, -1), False)], ids=["chains", "sweep"]
)
def test_count_table_shared_across_threads(perm, natural):
    # as labelled the order is natural, so its table is counted by chains;
    # relabelled in reverse it is not, and the table is swept
    poset = relabelled(Poset(8, [(i, j) for i in range(8) for j in range(i + 3, 8)]), perm)
    graph = incomparability_graph(poset)
    assert (graph.reach is not None) == natural
    fresh = Graph(graph.size, graph.edges())
    expected = {mu: stable_partition_count_backtracking(fresh, mu) for mu in partitions_of(8)}
    results = []

    def worker():
        results.append({mu: stable_partition_count(graph, mu) for mu in partitions_of(8)})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 8


def test_has_stable_partition():
    g, _ = multipartite((5, 5, 5, 4, 3, 3))
    assert has_stable_partition(g, (5, 5, 5, 4, 3, 3))
    assert not has_stable_partition(g, (5, 5, 4, 4, 4, 3))
    g2, _ = multipartite((6, 6, 5, 5, 5))
    assert not has_stable_partition(g2, (5, 5, 5, 5, 5, 2))
    anything, _ = multipartite((4, 3))
    assert has_stable_partition(anything, (1,) * 7)


def test_has_stable_partition_generic_graph():
    # 5-cycle: stable pairs are the non-adjacent ones
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert has_stable_partition(c5, (2, 2, 1))
    assert not has_stable_partition(c5, (3, 2))


def test_niceness_violation():
    g33, _ = multipartite((3, 3))
    assert niceness_violation(g33, (3, 3)) == (2, 2, 2)
    g, _ = multipartite((5, 4, 4, 4))
    assert niceness_violation(g, (5, 4, 4, 4)) == (5, 4, 3, 3, 2)
    edgeless, _ = multipartite((5,))
    assert niceness_violation(edgeless, (5,)) is None
    with pytest.raises(ValueError):
        niceness_violation(g33, (4, 2))


def test_niceness_violation_length_bound():
    g33, _ = multipartite((3, 3))
    # no dominated type of length <= 2 is missing, the violation needs 3 blocks
    assert niceness_violation(g33, (3, 3), max_length=2) is None
    assert niceness_violation(g33, (3, 3), max_length=3) == (2, 2, 2)


def test_stable_sets_count_complete_graph():
    # antichain poset gives the complete graph: only singletons are stable
    g = incomparability_graph(Poset(5, []))
    assert sum(1 for _ in stable_sets(g, 1)) == 5
    assert list(stable_sets(g, 2)) == []
    assert list(itertools.islice(stable_sets(g, 0), 5)) == [frozenset()]
