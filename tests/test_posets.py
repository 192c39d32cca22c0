import itertools
import sys
import threading
import time
from collections import Counter
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

import chromsym.posets as posets
import chromsym.reference as reference
from chromsym._util import iter_bits
from chromsym import (
    CycleError,
    EmptyPartitionError,
    Graph,
    Partition,
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
    assert p.leq(b, e) or p.leq(e, b)
    assert not (p.leq(c, f) or p.leq(f, c))


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
    chain = Poset.chain_union((3,))
    assert incomparability_graph(chain).edges() == []


def test_incomparability_graph_of_example():
    p = example_poset()
    g = incomparability_graph(p)
    # d < c, so the vertices follow the least linear extension a, b, d, c, e, f
    names = dict(enumerate("abdcef"))
    got = sorted("".join(sorted((names[u], names[v]))) for u, v in g.edges())
    assert got == ["ad", "bc", "bd", "cf", "df", "ef"]


def test_poset_json_round_trip():
    p = example_poset()
    q = Poset.from_json(p.to_json())
    assert q.size == p.size and q.covers == p.covers and q.labels == p.labels


def test_repeated_labels_are_refused():
    with pytest.raises(ValueError, match="label 'a' names more than one element"):
        Poset(3, [(0, 1)], ["a", "a", "b"])
    with pytest.raises(ValueError, match="label 'b' names more than one element"):
        Poset.from_json({"n": 3, "covers": [], "labels": ["b", "c", "b"]})
    assert Poset(3, [(0, 1)], ["a", "c", "b"]).element("b") == 2


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


def test_poset_and_graph_input_checks():
    with pytest.raises(ValueError, match="^size must be nonnegative$"):
        Graph(-1)
    with pytest.raises(ValueError, match=r"^cover \(0, 3\) out of range for size 3$"):
        Poset(3, [(0, 3)])
    with pytest.raises(ValueError, match="^labels must name every element$"):
        Poset(3, [(0, 1)], ["a", "b"])
    with pytest.raises(TypeError, match="^labels must be strings$"):
        Poset.from_json({"n": 2, "labels": ["a", 1]})
    with pytest.raises(ValueError, match="^poset has no labels$"):
        Poset(2, [(0, 1)]).element("0")
    with pytest.raises(ValueError, match="^no element carries the label 'c'$"):
        Poset(2, [], ["a", "b"]).element("c")


def test_multipartite_shapes():
    claw, claw_poset = multipartite((3, 1)), Poset.chain_union((3, 1))
    assert claw.edges() == [(0, 3), (1, 3), (2, 3)]
    assert claw.sides == (3, 1)
    assert claw_poset.leq(0, 1) and claw_poset.leq(1, 2)
    assert not (claw_poset.leq(2, 3) or claw_poset.leq(3, 2))

    c4, poset = multipartite((2, 2)), Poset.chain_union((2, 2))
    assert c4.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert poset.leq(0, 1) and not poset.leq(0, 2)

    edgeless = multipartite((5,))
    assert edgeless.edges() == []

    with pytest.raises(EmptyPartitionError):
        multipartite(())


def test_stable_sets():
    g32 = multipartite((3, 2))
    assert list(stable_sets(g32, 3)) == [frozenset({0, 1, 2})]
    assert list(stable_sets(g32, 0)) == [frozenset()]
    c4 = multipartite((2, 2))
    assert sorted(stable_sets(c4, 2)) == [frozenset({0, 1}), frozenset({2, 3})]


def test_stable_sets_of_multipartite_live_in_one_side():
    for n in range(1, 11):
        for lam in partitions_of(n):
            g = multipartite(lam)
            side_of = [i for i, size in enumerate(g.sides) for _ in range(size)]
            total = 0
            for size in range(1, g.size + 1):
                for s in stable_sets(g, size):
                    total += 1
                    assert len({side_of[v] for v in s}) == 1
            # conversely, every nonempty subset of a side is stable
            assert total == sum(2**part - 1 for part in lam)


def test_stable_partition_counts():
    c4 = multipartite((2, 2))
    assert stable_partition_count(c4, (2, 2)) == 1
    g32 = multipartite((3, 2))
    assert stable_partition_count(g32, (2, 2, 1)) == 3
    for lam in [(3, 2), (2, 2, 2), (4, 1)]:
        g = multipartite(lam)
        assert stable_partition_count(g, lam) == 1
    # weight mismatch returns zero instead of raising
    assert stable_partition_count(c4, (2, 2, 2)) == 0


def test_multipartite_count_reads_a_type_in_any_order():
    assert multipartite_stable_partition_count((2, 1), (1, 2)) == 1
    assert multipartite_stable_partition_count((1, 2), (1, 2)) == 1
    assert multipartite_has_stable_partition((2, 1), (1, 2))
    for mu in itertools.permutations((2, 2, 1, 1)):
        assert multipartite_stable_partition_count((3, 3), mu) == 9
    # the sides in any order too, as K_sides's table reads them
    for sides in set(itertools.permutations((3, 2, 1))):
        assert multipartite_stable_partition_count(sides, (1, 2, 2, 1)) == 3
    # sides that build no K_sides are refused, as multipartite refuses them
    with pytest.raises(EmptyPartitionError):
        multipartite_stable_partition_count((), ())
    with pytest.raises(ValueError, match="^partition parts must be >= 1, got 0$"):
        multipartite_stable_partition_count((2, 0), (1, 1))


def test_fast_path_agrees_with_backtracking():
    for n in range(1, 11):
        for lam in partitions_of(n):
            g = multipartite(lam)
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
            g = multipartite(lam)
            for mu in partitions_of(n):
                assert multipartite_has_stable_partition(lam, mu) == (
                    stable_partition_count(g, mu) > 0
                ), (lam, mu)


def _fills_by_assignment(sides, mu) -> bool:
    """Whether some assignment of the parts of mu to the sides sums to each
    side's size, tried assignment by assignment; a side is never overfilled."""
    loads = [0] * len(sides)

    def assign(i):
        if i == len(mu):
            return loads == list(sides)
        for s, size in enumerate(sides):
            if loads[s] + mu[i] <= size:
                loads[s] += mu[i]
                found = assign(i + 1)
                loads[s] -= mu[i]
                if found:
                    return True
        return False

    return assign(0)


def test_placement_equals_every_assignment_of_parts_to_sides():
    for n in range(9):
        for sides in partitions_of(n):
            for mu in partitions_of(n):
                for parts in {tuple(mu), tuple(mu)[::-1]}:
                    assert multipartite_has_stable_partition(sides, parts) == (
                        _fills_by_assignment(sides, parts)
                    ), (sides, parts)
    assert not multipartite_has_stable_partition((2, 2), (3,))


def test_placement_goes_depth_first():
    # the smallest room first fills one side after another; a search that
    # widened level by level would visit every way to spread the parts, over
    # 10^5 states for 96 parts on 8 sides
    for sides, parts in [((10,) * 6, (1,) * 60), ((12,) * 8, (1,) * 96)]:
        start = time.perf_counter()
        assert multipartite_has_stable_partition(sides, parts)
        assert time.perf_counter() - start < 0.1, sides


def semi_ordered_by_backtracking(graph):
    """{type: backtracked count times its multiplicity factorials} over the
    types the graph has: X_G's monomial coefficients, counted slowly."""
    table = {}
    for mu in partitions_of(graph.size):
        count = stable_partition_count_backtracking(graph, mu)
        if count:
            for m in Counter(mu).values():
                count *= factorial(m)
            table[mu] = count
    return table


def test_multipartite_count_table_is_whole_after_one_read():
    for n in range(1, 9):
        for lam in partitions_of(n):
            g = multipartite(lam)
            assert stable_partition_count(g, lam) == 1, lam
            bare = Graph(g.size, g.edges())
            assert g._counts == semi_ordered_by_backtracking(bare), lam


def test_multipartite_edges_match_the_chain_union():
    for n in range(1, 9):
        for lam in partitions_of(n):
            g = multipartite(lam)
            assert g.edges() == incomparability_graph(Poset.chain_union(lam)).edges()


def test_chain_union_masks_match_the_closure_of_its_covers():
    # x lies below every later element of its own chain, which ends at `end`
    for lengths in [(), (1,), (3, 2), (2, 0, 3), (1, 1, 1), (4, 4, 2, 1), (40, 25)]:
        chains = Poset.chain_union(lengths)
        closed = Poset(chains.size, chains.covers)
        assert chains.size == sum(lengths)
        ends = list(itertools.accumulate(lengths))
        expected = [
            (1 << end) - (1 << x)
            for start, end in zip([0] + ends, ends)
            for x in range(start, end)
        ]
        assert [chains.above_mask(x) for x in range(chains.size)] == expected
        assert [closed.above_mask(x) for x in range(closed.size)] == expected
    with pytest.raises(ValueError):
        Poset.chain_union((2, -1))
    # past 64 elements: the first chain is 0..39, the second 40..64
    chains = Poset.chain_union((40, 25))
    assert chains.above_mask(0) == (1 << 40) - 1
    assert chains.above_mask(40) == (1 << 65) - (1 << 40)
    assert chains.leq(40, 64) and not (chains.leq(39, 40) or chains.leq(40, 39))


def brute_force_reach(n, covers):
    """reach[x]: the y with a path of covers from x to y, x itself included."""
    reach = [{x} for x in range(n)]
    for _ in range(n):
        for lo, hi in covers:
            reach[lo] |= reach[hi]
    return reach


@st.composite
def cover_lists(draw, max_n=8):
    """(n, covers): any covers on n elements, cycles and self-loops
    included."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if not n:
        return 0, []
    element = st.integers(min_value=0, max_value=n - 1)
    return n, draw(st.lists(st.tuples(element, element), max_size=2 * n))


def least_linear_extension(n, reach):
    """The elements in order, each step taking the smallest one that nothing
    unplaced lies below, by a scan of `reach` (:func:`brute_force_reach`)."""
    placed = []
    while len(placed) < n:
        placed.append(
            min(
                y
                for y in range(n)
                if y not in placed and all(x in placed or x == y for x in range(n) if y in reach[x])
            )
        )
    return placed


@settings(max_examples=300, deadline=None)
@given(cover_lists())
@example((0, []))
@example((4, [(0, 1), (1, 2), (2, 3)]))  # a chain
@example((4, []))  # an antichain
@example((4, [(0, 1), (2, 3)]))  # 2+2
@example((4, [(1, 0), (1, 2), (3, 2)]))  # N, numbered so that the numbers do not extend it
def test_poset_masks_match_brute_force_reachability(case):
    n, covers = case
    reach = brute_force_reach(n, covers)
    if any(x in reach[y] for x in range(n) for y in reach[x] if y != x) or any(
        lo == hi for lo, hi in covers
    ):
        with pytest.raises(CycleError):
            Poset(n, covers)
        return
    poset = Poset(n, covers)
    assert [[poset.leq(x, y) for y in range(n)] for x in range(n)] == [
        [y in reach[x] for y in range(n)] for x in range(n)
    ]
    apart = [
        (x, y)
        for x, y in itertools.combinations(range(n), 2)
        if y not in reach[x] and x not in reach[y]
    ]
    # inc(P) numbers each element by its place in the least linear
    # extension, which keeps numbers that already extend P
    extension = least_linear_extension(n, reach)
    if all(lo < hi for lo, hi in covers):
        assert extension == list(range(n))
    vertex = {x: i for i, x in enumerate(extension)}
    renumbered = sorted(tuple(sorted((vertex[x], vertex[y]))) for x, y in apart)
    assert incomparability_graph(poset).edges() == renumbered


def test_sides_are_read_off_the_adjacency():
    assert Graph(3, [(0, 1), (1, 2)]).sides == (2, 1)  # P3
    assert Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).sides == (2, 2)  # C4
    assert Graph(4, [(0, 1), (1, 2), (2, 3)]).sides is None  # P4
    assert Graph(5).sides == (5,)
    assert Graph(4, list(itertools.combinations(range(4), 2))).sides == (1, 1, 1, 1)
    assert Graph(0).sides == ()
    # K_(3,2) with the sides {1, 3, 4} and {0, 2}
    graph = Graph(5, [(u, v) for u in (1, 3, 4) for v in (0, 2)])
    assert graph.sides == (3, 2) and isinstance(graph.sides, Partition)


def test_sides_recognise_exactly_the_set_partitions_up_to_five():
    # non-adjacency is an equivalence relation on exactly the K_lambda, one
    # graph per set partition of the vertices: the Bell numbers
    bell = [1, 1, 2, 5, 15, 52]
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        accepted = 0
        for chosen in range(1 << len(pairs)):
            graph = Graph(n, [e for i, e in enumerate(pairs) if (chosen >> i) & 1])
            apart = [[not graph.adjacent(u, v) for v in range(n)] for u in range(n)]
            equivalence = all(
                apart[u][w] for u, v, w in itertools.permutations(range(n), 3)
                if apart[u][v] and apart[v][w]
            )
            assert (graph.sides is not None) == equivalence, graph
            if equivalence:
                accepted += 1
                assert posets._count_table(graph) == posets._sweep_counts(graph), graph
        assert accepted == bell[n]


def test_graph_given_by_sides_takes_no_edges():
    g = Graph(3, sides=(2, 1))
    assert g.edges() == [(0, 2), (1, 2)] and g.sides == (2, 1)
    assert g.edges() == multipartite((2, 1)).edges()
    with pytest.raises(ValueError):
        Graph(3, [(0, 1)], sides=(2, 1))
    # sides are the sizes of a partition of the size, in vertex order
    for size, sides in [(3, (1,)), (5, (2, 3)), (2, (2, 0))]:
        with pytest.raises(ValueError):
            Graph(size, sides=sides)
    with pytest.raises(TypeError):
        Graph(3, sides=((0,),))


def test_stable_partitions_enumerator_matches_count():
    graphs = [multipartite(lam) for lam in [(2, 2), (3, 2), (2, 2, 1)]]
    graphs.append(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
    for g in graphs:
        full = (1 << g.size) - 1
        for mu in partitions_of(g.size):
            found = list(reference._partition_blocks(g, mu))
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
    c4 = multipartite((2, 2))
    assert semi_ordered_count(c4, (2, 2)) == 2
    g32 = multipartite((3, 2))
    assert semi_ordered_count(g32, (1, 1, 1, 1, 1)) == 120
    # distinct part sizes leave the count unchanged
    assert semi_ordered_count(g32, (3, 2)) == stable_partition_count(g32, (3, 2))


def test_semi_ordered_divisible_by_plain_count():
    for lam in [(2, 2), (3, 2), (2, 2, 1), (3, 1)]:
        g = multipartite(lam)
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

    monkeypatch.setattr(reference, "stable_partition_count_backtracking", refuse)
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
    g32 = multipartite((3, 2))
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


@st.composite
def relabelled_posets(draw, max_n=7):
    """Random posets on up to `max_n` elements, 3+1 and 2+2 allowed: a
    relation drawn on 0..n-1 ascending, closed transitively, with the
    elements then renamed by a random permutation."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    name = draw(st.permutations(range(n)))
    return Poset(n, [(name[i], name[j]) for (i, j), k in zip(pairs, keep) if k])


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


def later_masks(reach):
    """Each x's mask of the y > reach[x]: the later elements above x in the
    natural order where x < y iff y > reach[x]."""
    n = len(reach)
    return tuple(((1 << n) - 1) & -(2 << r) for r in reach)


def test_frontier_counts_match_the_sweep_on_every_natural_order_up_to_eight():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for n in range(9):
        reaches = natural_reaches(n)
        assert len(reaches) == catalan[n]
        for reach in reaches:
            graph = incomparability_graph(natural_order(reach))
            assert posets._index_order(graph) == later_masks(reach)
            assert posets._frontier_counts(later_masks(reach)) == posets._sweep_counts(graph), reach
    # no elements, one chain, one antichain
    assert posets._frontier_counts(()) == {(): 1}
    assert posets._frontier_counts(later_masks((0, 1, 2, 3))) == {
        (4,): 1,
        (3, 1): 4,
        (2, 2): 6,
        (2, 1, 1): 12,
        (1, 1, 1, 1): 24,
    }
    chain = incomparability_graph(Poset.chain_union((5,)))
    assert posets._index_order(chain) == later_masks((0, 1, 2, 3, 4))
    assert posets._frontier_counts(later_masks((0, 1, 2, 3, 4))) == posets._sweep_counts(chain)
    antichain = incomparability_graph(Poset(5, []))
    assert posets._index_order(antichain) == (0,) * 5
    assert posets._frontier_counts((0,) * 5) == {(1, 1, 1, 1, 1): 120}


def index_oriented_transitive(graph):
    """Whether x < y < z with xy and yz non-edges always has xz a non-edge,
    by brute force over the triples."""
    n = graph.size
    return all(
        not graph.adjacent(x, z)
        for x, y, z in itertools.combinations(range(n), 3)
        if not graph.adjacent(x, y) and not graph.adjacent(y, z)
    )


def test_index_order_accepts_exactly_the_transitive_labellings_up_to_five():
    # every labelled graph on n <= 5 vertices, 1,100 of them; the accepted
    # ones are the naturally labelled posets (A006455)
    accepted = [0] * 6
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        full = (1 << n) - 1
        for chosen in range(1 << len(pairs)):
            graph = Graph(n, [e for i, e in enumerate(pairs) if (chosen >> i) & 1])
            later = posets._index_order(graph)
            assert (later is not None) == index_oriented_transitive(graph), graph
            if later is not None:
                accepted[n] += 1
                assert later == tuple(
                    full & ~graph._adj[x] & ~((2 << x) - 1) for x in range(n)
                )
                assert posets._frontier_counts(later) == posets._sweep_counts(graph), graph
        # every natural unit interval order is among them, read back alike
        for reach in natural_reaches(n):
            graph = incomparability_graph(natural_order(reach))
            assert posets._index_order(graph) == later_masks(reach)
    assert accepted == [1, 1, 2, 7, 40, 357]


@settings(max_examples=60, deadline=None)
@given(unit_interval_orders(max_n=12))
def test_frontier_counts_match_the_sweep_on_random_natural_orders(poset):
    graph = incomparability_graph(poset)
    assert posets._index_order(graph) is not None
    assert posets._count_table(graph) == posets._sweep_counts(Graph(graph.size, graph.edges()))


@st.composite
def linearly_extended_posets(draw, max_n=10):
    """Random posets on up to `max_n` elements (as :func:`relabelled_posets`
    draws them), renamed by the positions of a random linear extension."""
    poset = draw(relabelled_posets(max_n=max_n))
    left = list(range(poset.size))
    position = [0] * poset.size
    for i in range(poset.size):
        # the minimal elements of what is left may come next
        ready = [x for x in left if not any(poset.leq(y, x) for y in left if y != x)]
        x = draw(st.sampled_from(ready))
        left.remove(x)
        position[x] = i
    return relabelled(poset, position)


@settings(max_examples=100, deadline=None)
@given(linearly_extended_posets())
@example(Poset(0, []))
def test_frontier_counts_match_the_sweep_on_random_linear_extensions(poset):
    graph = incomparability_graph(poset)
    later = posets._index_order(graph)
    assert later is not None
    assert all(poset.leq(x, y) for x, up in enumerate(later) for y in iter_bits(up))
    swept = posets._sweep_counts(Graph(graph.size, graph.edges()))
    assert posets._frontier_counts(later) == swept
    assert posets._count_table(graph) == swept


def relabelled(poset, perm):
    """`poset` with element x renamed perm[x]."""
    return Poset(poset.size, [(perm[lo], perm[hi]) for lo, hi in poset.covers])


def inc_as_numbered(poset):
    """inc(P) on P's own element numbers, whether or not they extend P."""
    pairs = itertools.combinations(range(poset.size), 2)
    return Graph(poset.size, [(x, y) for x, y in pairs if not (poset.leq(x, y) or poset.leq(y, x))])


def test_natural_orders_count_by_chains_and_never_sweep(monkeypatch):
    sweeps = []
    frontiers = []
    sweep = posets._sweep_counts
    frontier = posets._frontier_counts

    def recording_sweep(graph):
        sweeps.append(graph)
        return sweep(graph)

    def recording_frontier(later):
        frontiers.append(later)
        return frontier(later)

    monkeypatch.setattr(posets, "_sweep_counts", recording_sweep)
    monkeypatch.setattr(posets, "_frontier_counts", recording_frontier)
    order = natural_order((2, 3, 4, 5, 5, 5))
    # relabelled in reverse and kept in those numbers, its graph is natural
    # again, here with the same reach
    for natural in (
        incomparability_graph(order),
        inc_as_numbered(relabelled(order, (5, 4, 3, 2, 1, 0))),
    ):
        assert posets._index_order(natural) == later_masks((2, 3, 4, 5, 5, 5))
        expected = semi_ordered_by_backtracking(Graph(6, natural.edges()))
        assert stable_partition_count(natural, (2, 2, 2)) == expected[(2, 2, 2)] // 6
        assert has_stable_partition(natural, (3, 3)) == ((3, 3) in expected)
        assert natural._counts == expected and sweeps == []
        assert frontiers[-1] == later_masks((2, 3, 4, 5, 5, 5))
    # 2+2 and 3+1 are labelled by linear extensions, but their graphs are
    # K_lambda in any labelling, so they count by sides, before the frontier
    chains = [
        Poset.chain_union((2, 2)),
        Poset.chain_union((3, 1)),
        relabelled(Poset.chain_union((3, 1)), (1, 2, 3, 0)),
    ]
    for poset in chains:
        graph = incomparability_graph(poset)
        assert posets._index_order(graph) is not None and graph.sides is not None
        expected = semi_ordered_by_backtracking(Graph(graph.size, graph.edges()))
        assert stable_partition_count(graph, (1,) * graph.size) == 1
        assert graph._counts == expected and sweeps == []
    assert len(frontiers) == 2
    # orders labelled by a linear extension whose graphs are not K_lambda
    # run the frontier DP, and neither is a natural unit interval order
    extended = [
        # N: a < c > b < d
        Poset(4, [(0, 2), (1, 2), (1, 3)]),
        # 2+2 with a top
        Poset(5, [(0, 1), (2, 3), (1, 4), (3, 4)]),
    ]
    for poset in extended:
        graph = incomparability_graph(poset)
        assert posets._index_order(graph) is not None and graph.sides is None
        expected = semi_ordered_by_backtracking(Graph(graph.size, graph.edges()))
        assert stable_partition_count(graph, (1,) * graph.size) == 1
        assert graph._counts == expected and sweeps == []
        assert frontiers[-1] == posets._index_order(graph)
    # graphs whose non-edges are not transitive by index sweep
    others = [
        # the natural order above, kept in numbers that do not extend it
        inc_as_numbered(relabelled(order, (1, 2, 3, 0, 4, 5))),
        # C5
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    ]
    for graph in others:
        assert posets._index_order(graph) is None and graph.sides is None
        expected = semi_ordered_by_backtracking(Graph(graph.size, graph.edges()))
        assert stable_partition_count(graph, (1,) * graph.size) == 1
        assert graph._counts == expected and sweeps[-1] is graph
    assert len(sweeps) == len(others)
    assert len(frontiers) == 4


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
    "graph, extended",
    [
        (incomparability_graph(Poset(8, [(i, j) for i in range(8) for j in range(i + 3, 8)])), True),
        # C5 beside a triangle: not inc(P) in this labelling, nor K_lambda
        (Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (5, 7)]), False),
    ],
    ids=["chains", "sweep"],
)
def test_count_table_shared_across_threads(graph, extended):
    # the j - i >= 3 order is labelled by a linear extension, so its table
    # is counted by the frontier DP; the other graph's table is swept
    assert (posets._index_order(graph) is not None) == extended
    assert graph.sides is None
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
    g = multipartite((5, 5, 5, 4, 3, 3))
    assert has_stable_partition(g, (5, 5, 5, 4, 3, 3))
    assert not has_stable_partition(g, (5, 5, 4, 4, 4, 3))
    g2 = multipartite((6, 6, 5, 5, 5))
    assert not has_stable_partition(g2, (5, 5, 5, 5, 5, 2))
    anything = multipartite((4, 3))
    assert has_stable_partition(anything, (1,) * 7)


def test_has_stable_partition_generic_graph():
    # 5-cycle: stable pairs are the non-adjacent ones
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert has_stable_partition(c5, (2, 2, 1))
    assert not has_stable_partition(c5, (3, 2))


def test_a_type_of_the_wrong_weight_has_no_stable_partition():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    for graph in (c5, multipartite((3, 2))):
        for mu in [(2, 2), (2, 2, 2)]:
            assert semi_ordered_count(graph, mu) == 0
            assert has_stable_partition(graph, mu) is False


def test_niceness_violation():
    g33 = multipartite((3, 3))
    assert niceness_violation(g33, (3, 3)) == (2, 2, 2)
    g = multipartite((5, 4, 4, 4))
    assert niceness_violation(g, (5, 4, 4, 4)) == (5, 4, 3, 3, 2)
    edgeless = multipartite((5,))
    assert niceness_violation(edgeless, (5,)) is None
    with pytest.raises(ValueError):
        niceness_violation(g33, (4, 2))


def test_stable_sets_count_complete_graph():
    # antichain poset gives the complete graph: only singletons are stable
    g = incomparability_graph(Poset(5, []))
    assert sum(1 for _ in stable_sets(g, 1)) == 5
    assert list(stable_sets(g, 2)) == []
    assert list(itertools.islice(stable_sets(g, 0), 5)) == [frozenset()]
