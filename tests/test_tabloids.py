import itertools
from collections import defaultdict

import pytest
from hypothesis import example, given, settings, strategies as st

import chromsym.tabloids as tabloids
from chromsym import (
    KostkaMatrix,
    NoAscentError,
    OrderIncompatibleError,
    Partition,
    Poset,
    RimHook,
    SizeMismatchError,
    check_srh_g_tabloid,
    enumerate_srh_g_tabloids,
    enumerate_srh_tabloids,
    incomparability_graph,
    multipartite,
    partitions_of,
    psi_involution,
    render_ascii,
    signed_g_tabloid_counts,
    tail_head_split,
)
from chromsym import Graph, coeff_report
from test_posets import general_graphs, relabelled_posets


def example_poset():
    return Poset(
        6, [(0, 1), (1, 5), (0, 2), (2, 4), (3, 2), (1, 4)], labels=list("abcdef")
    )


# d < c, so inc(example_poset()) numbers the elements by the least linear
# extension: vertex i carries the i-th label here
EXAMPLE_VERTICES = "abdcef"


def test_rim_hook_geometry():
    hook = RimHook([(3, 1), (3, 2), (2, 2), (1, 2), (1, 3)])
    assert hook.steps == "ENNE"
    assert hook.n_steps == 2
    assert hook.length == 5
    with pytest.raises(ValueError):
        RimHook([(1, 2), (1, 3)])  # misses column 1
    with pytest.raises(ValueError):
        RimHook([(1, 1), (3, 1)])  # not a unit step
    with pytest.raises(ValueError):
        RimHook([(1, 1), (2, 1)])  # steps must go north, not south
    with pytest.raises(ValueError, match="^a rim hook has at least one cell$"):
        RimHook([])


def test_census_422():
    tabloids = enumerate_srh_tabloids((4, 2, 2))
    assert len(tabloids) == 6
    assert sum(1 for t in tabloids if t.sign < 0) == 3
    got = sorted((tuple(t.content), t.sign) for t in tabloids)
    assert got == [
        ((2, 2, 4), 1),
        ((2, 5, 1), -1),
        ((3, 1, 4), -1),
        ((3, 5), 1),
        ((6, 1, 1), 1),
        ((6, 2), -1),
    ]
    for t in tabloids:
        t.validate()


def test_census_21():
    tabloids = enumerate_srh_tabloids((2, 1))
    got = sorted((tuple(t.content), t.sign) for t in tabloids)
    assert got == [((1, 2), 1), ((3,), -1)]


def test_single_column_census():
    # single columns tile like compositions: one tabloid per composition of n
    for n in range(1, 7):
        tabloids = enumerate_srh_tabloids((1,) * n)
        assert len(tabloids) == 2 ** (n - 1)
        contents = {tuple(t.content) for t in tabloids}
        assert len(contents) == len(tabloids)
        for t in tabloids:
            t.validate()
            assert t.sign == (-1) ** (n - len(t.content))


def test_every_hook_reaches_column_one_and_tiles_exactly():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for t in enumerate_srh_tabloids(lam):
                cells = [c for h in t.hooks for c in h.cells]
                assert len(cells) == n
                assert set(cells) == {(r, c) for r, row in enumerate(lam, 1) for c in range(1, row + 1)}
                for h in t.hooks:
                    assert h.cells[0][1] == 1
                assert sum(t.content) == n
                bottoms = [h.cells[0][0] for h in t.hooks]
                assert bottoms == sorted(bottoms, reverse=True)


def test_tilings_carry_the_sign_of_their_n_steps():
    # the sign flipped in the recursion is the one the hooks' N-steps give
    for n in range(9):
        for lam in partitions_of(n):
            for sign, tiling in tabloids._tilings(lam):
                tabloid = tabloids.SRHTabloid(lam, [RimHook(cells) for cells in tiling])
                assert sign == tabloid.sign, (lam, tiling)


def test_render_ascii():
    tabloids = enumerate_srh_tabloids((2, 1))
    by_content = {tuple(t.content): t for t in tabloids}
    assert render_ascii(by_content[(1, 2)]) == "bb\na"
    assert render_ascii(by_content[(3,)]) == "aa\na"


def test_validate_rejects_bad_tilings():
    from chromsym import SRHTabloid

    # two hooks covering the same cell
    bad = SRHTabloid((2, 1), [RimHook([(2, 1)]), RimHook([(2, 1), (1, 1), (1, 2)])])
    with pytest.raises(ValueError):
        bad.validate()
    # hooks listed top row first: removing row 1 strands row 2
    bad = SRHTabloid((2, 2), [RimHook([(1, 1), (1, 2)]), RimHook([(2, 1), (2, 2)])])
    with pytest.raises(ValueError):
        bad.validate()
    # hooks that do not cover the shape
    bad = SRHTabloid((2, 1), [RimHook([(2, 1)])])
    with pytest.raises(ValueError):
        bad.validate()
    # a hook off the column-1 requirement cannot even be built
    with pytest.raises(ValueError):
        RimHook([(2, 2)])


def test_validate_names_a_hook_outside_the_shape_and_a_broken_shape():
    from chromsym import SRHTabloid

    # the top row of (2, 1) holds two cells, not three
    bad = SRHTabloid((2, 1), [RimHook([(1, 1), (1, 2), (1, 3)])])
    with pytest.raises(ValueError, match="^hook not contained in the current shape$"):
        bad.validate()
    # (1, 1) lies on the southeast boundary of (2, 1), but removing it
    # first leaves (1, 2) and (2, 1), no partition shape
    bad = SRHTabloid((2, 1), [RimHook([(1, 1)]), RimHook([(2, 1), (1, 1), (1, 2)])])
    with pytest.raises(ValueError, match="^removal does not leave a partition shape$"):
        bad.validate()


def test_checker_rejects_bad_fillings():
    from chromsym import SRHGTabloid, SRHTabloid

    g = multipartite((2, 2))
    tiling = SRHTabloid(
        (2, 2), [RimHook([(2, 1), (2, 2)]), RimHook([(1, 1), (1, 2)])]
    )
    # decreasing along a hook
    bad = SRHGTabloid(tiling, {(2, 1): 1, (2, 2): 0, (1, 1): 2, (1, 2): 3})
    with pytest.raises(ValueError):
        check_srh_g_tabloid(bad, g)
    # adjacent vertices sharing a hook
    bad = SRHGTabloid(tiling, {(2, 1): 0, (2, 2): 2, (1, 1): 1, (1, 2): 3})
    with pytest.raises(ValueError):
        check_srh_g_tabloid(bad, g)
    # not a bijection
    bad = SRHGTabloid(tiling, {(2, 1): 0, (2, 2): 1, (1, 1): 2, (1, 2): 2})
    with pytest.raises(ValueError):
        check_srh_g_tabloid(bad, g)
    # the honest filling passes
    good = SRHGTabloid(tiling, {(2, 1): 0, (2, 2): 1, (1, 1): 2, (1, 2): 3})
    check_srh_g_tabloid(good, g)


def test_checker_refuses_a_tabloid_of_another_size():
    from chromsym import SRHGTabloid, SRHTabloid

    tiling = SRHTabloid((2, 2), [RimHook([(2, 1), (2, 2)]), RimHook([(1, 1), (1, 2)])])
    good = SRHGTabloid(tiling, {(2, 1): 0, (2, 2): 1, (1, 1): 2, (1, 2): 3})
    # the size is refused before the filling is read as a bijection
    for sides in [(2, 2, 1), (2, 1)]:
        with pytest.raises(SizeMismatchError):
            check_srh_g_tabloid(good, multipartite(sides))


def test_tabloid_json():
    t = enumerate_srh_tabloids((2, 1))[0]
    data = t.to_json()
    assert set(data) == {"shape", "hooks", "sign", "content"}
    assert data["shape"] == [2, 1]
    assert data["sign"] in (1, -1)


def test_g_tabloid_size_and_order_errors():
    g = multipartite((2, 2))
    with pytest.raises(SizeMismatchError):
        enumerate_srh_g_tabloids(g, (2, 2, 1))
    # one edge 0 - 2 beside vertex 1: the non-edges oriented by index run
    # 0 -> 1 -> 2, but 0 and 2 are adjacent, so the tail filter refuses
    bent = Graph(3, [(0, 2)])
    with pytest.raises(OrderIncompatibleError):
        enumerate_srh_g_tabloids(bent, (1, 1, 1), tail_filter=True)


def test_g_tabloids_of_example_poset_contain_depicted_ones():
    g = incomparability_graph(example_poset())
    tabs = enumerate_srh_g_tabloids(g, (2, 1, 1, 1, 1))
    for t in tabs:
        check_srh_g_tabloid(t, g)
    e = EXAMPLE_VERTICES.index
    depicted = [
        {(1, 1): e("a"), (1, 2): e("c"), (2, 1): e("d"), (3, 1): e("f"), (4, 1): e("b"), (5, 1): e("e")},
        {(1, 1): e("b"), (1, 2): e("f"), (2, 1): e("d"), (3, 1): e("c"), (4, 1): e("a"), (5, 1): e("e")},
        {(1, 1): e("b"), (1, 2): e("e"), (2, 1): e("a"), (3, 1): e("d"), (4, 1): e("f"), (5, 1): e("c")},
        {(1, 1): e("a"), (1, 2): e("c"), (2, 1): e("f"), (3, 1): e("b"), (4, 1): e("e"), (5, 1): e("d")},
    ]
    fillings = [t.filling for t in tabs]
    for want in depicted:
        assert want in fillings


def test_tail_sequences_of_depicted_tabloids():
    g = incomparability_graph(example_poset())
    tabs = enumerate_srh_g_tabloids(g, (2, 1, 1, 1, 1))
    e = EXAMPLE_VERTICES.index
    first = {(1, 1): e("a"), (1, 2): e("c"), (2, 1): e("d"), (3, 1): e("f"), (4, 1): e("b"), (5, 1): e("e")}
    tails = {
        "".join(EXAMPLE_VERTICES[v] for v in t.tail_sequence())
        for t in tabs
        if t.filling == first
    }
    assert tails == {"ebfd"}


def test_tail_head_split():
    g = incomparability_graph(example_poset())
    tabs = enumerate_srh_g_tabloids(g, (2, 1, 1, 1, 1))
    t = tabs[0]
    head, tail = tail_head_split(t)
    assert set(head) == {(1, 1), (1, 2)}
    assert len(tail) == 4
    # single column: everything is tail
    col = enumerate_srh_g_tabloids(g, (1,) * 6)[0]
    head, tail = tail_head_split(col)
    assert head == {} and len(tail) == 6
    # single row needs a stable increasing 6-chain, which this graph lacks
    assert enumerate_srh_g_tabloids(g, (6,)) == []
    # the edgeless graph has one, and its tail is empty
    row = enumerate_srh_g_tabloids(multipartite((4,)), (4,))
    assert len(row) == 1
    head, tail = tail_head_split(row[0])
    assert tail == () and len(head) == 4


def test_edgeless_chain_order_single_column():
    # one chain: fillings split the column into increasing runs, one set choice
    # per composition, and the signed sum collapses to 1
    from math import factorial

    for n in range(1, 6):
        g = multipartite((n,))
        tabs = enumerate_srh_g_tabloids(g, (1,) * n)

        def comps(total):
            if total == 0:
                yield ()
                return
            for first in range(1, total + 1):
                for rest in comps(total - first):
                    yield (first, *rest)

        expected = 0
        for comp in comps(n):
            ways = factorial(n)
            for part in comp:
                ways //= factorial(part)
            expected += ways
        assert len(tabs) == expected
        assert sum(t.sign for t in tabs) == 1
        filtered = enumerate_srh_g_tabloids(g, (1,) * n, tail_filter=True)
        assert len(filtered) == 1
        assert list(filtered[0].tail_sequence()) == list(range(n - 1, -1, -1))


def test_signed_counts_match_enumeration():
    for lam in [(2, 2), (3, 2), (2, 2, 1)]:
        g, p = multipartite(lam), Poset.chain_union(lam)
        for mu in partitions_of(g.size):
            tabs = enumerate_srh_g_tabloids(g, mu)
            pos = sum(1 for t in tabs if t.sign > 0)
            neg = len(tabs) - pos
            assert signed_g_tabloid_counts(g, mu) == (pos, neg)
            filtered = [
                t
                for t in tabs
                if all(
                    not p.leq(u, v)
                    for u, v in zip(
                        t.tail_sequence(), t.tail_sequence()[1:]
                    )
                )
            ]
            fpos = sum(1 for t in filtered if t.sign > 0)
            assert signed_g_tabloid_counts(g, mu, tail_filter=True) == (
                fpos,
                len(filtered) - fpos,
            )


def test_total_order_fallback():
    # a 5-cycle is not an incomparability graph; the index order still works
    from chromsym import Graph

    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    tabs = enumerate_srh_g_tabloids(c5, (2, 2, 1))
    for t in tabs:
        check_srh_g_tabloid(t, c5)
    pos, neg = signed_g_tabloid_counts(c5, (2, 2, 1))
    assert (pos, neg) == (len([t for t in tabs if t.sign > 0]), len([t for t in tabs if t.sign < 0]))


def test_psi_involution_properties():
    for lam in [(2, 1, 1), (2, 2, 1), (3, 2)]:
        g, p = multipartite(lam), Poset.chain_union(lam)
        for shape in partitions_of(g.size):
            groups = defaultdict(list)
            for t in enumerate_srh_g_tabloids(g, shape):
                groups[t.tail_sequence()].append(t)
            for s, group in groups.items():
                if any(p.leq(u, v) for u, v in zip(s, s[1:])):
                    assert sum(t.sign for t in group) == 0, (lam, shape, s)
                    for t in group:
                        image = psi_involution(t, p)
                        check_srh_g_tabloid(image, g)
                        assert image in group
                        assert image.sign == -t.sign
                        assert image.tail_sequence() == t.tail_sequence()
                        assert psi_involution(image, p) == t
                        assert image != t
                else:
                    for t in group:
                        with pytest.raises(NoAscentError):
                            psi_involution(t, p)


def test_psi_merges_singletons_into_a_hook():
    g, p = multipartite((2, 1)), Poset.chain_union((2, 1))
    tabs = enumerate_srh_g_tabloids(g, (1, 1, 1))
    # tail sequence (0, 1, ...) ascends at the first step for the 2-chain 0<1
    singletons = [
        t
        for t in tabs
        if len(t.tabloid.hooks) == 3 and t.tail_sequence()[:2] == (0, 1)
    ]
    assert singletons
    t = singletons[0]
    image = psi_involution(t, p)
    assert len(image.tabloid.hooks) == 2
    assert image.sign == -t.sign
    assert psi_involution(image, p) == t


def test_psi_toggles_hooks_that_cross_into_the_head():
    # needs a chain of length >= 4: the hook above the ascent climbs out of
    # the tail, and the toggled vertex joins it by transitivity
    g, p = multipartite((4, 2)), Poset.chain_union((4, 2))
    merges = splits = 0
    for shape in partitions_of(6):
        for t in enumerate_srh_g_tabloids(g, shape):
            ts = t.tail_sequence()
            j = next(
                (i for i, (u, v) in enumerate(zip(ts, ts[1:])) if p.leq(u, v)), None
            )
            if j is None:
                continue
            ell = len(t.tabloid.shape)
            upper = next(
                h for h in t.tabloid.hooks if (ell - j - 1, 1) in h.cells
            )
            crosses = any(t.tabloid.shape[r - 1] > 1 for r, _ in upper.cells)
            if not crosses:
                continue
            image = psi_involution(t, p)
            check_srh_g_tabloid(image, g)
            assert psi_involution(image, p) == t and image.sign == -t.sign
            if (ell - j, 1) in upper.cells:
                splits += 1
            else:
                merges += 1
    assert merges == 2 and splits == 2


def test_content_reads_bottom_to_top():
    for t in enumerate_srh_tabloids((3, 3, 1)):
        lengths = [h.length for h in t.hooks]
        assert list(t.content) == lengths
        assert Partition(sorted(t.content, reverse=True)).n == 7


def test_signed_content_census_is_the_inverse_kostka_matrix():
    for n in range(1, 11):
        inverse = KostkaMatrix(n).inverse()
        for lam in partitions_of(n):
            from_objects = defaultdict(int)
            for t in enumerate_srh_tabloids(lam):
                from_objects[tuple(sorted(t.content, reverse=True))] += t.sign
            census = _decoded(lam, n)
            assert census == {mu: s for mu, s in from_objects.items() if s}, lam
            assert census == {
                mu: inverse[(mu, lam)]
                for mu in partitions_of(n)
                if inverse.get((mu, lam))
            }, lam


def test_signed_content_census_lists_no_tilings(monkeypatch):
    def refuse(shape):
        raise AssertionError("the census listed tilings")

    tabloids._peel.cache_clear()
    monkeypatch.setattr(tabloids, "_tilings", refuse)
    assert _decoded((2, 1), 3) == {(2, 1): 1, (3,): -1}
    assert _decoded((), 0) == {(): 1}
    for lam in partitions_of(9):
        census = _decoded(lam, 9)
        assert census[lam] == 1
        assert sum(census.values()) == (1 if lam == (9,) else 0)


def _decoded(shape, cap):
    peeled = tabloids._peel(shape, cap)
    return {tabloids._content_parts(code): sign for code, sign in peeled.items()}


def test_peel_at_a_hook_bound_is_the_census_restricted():
    for n in range(11):
        for lam in partitions_of(n):
            census = _decoded(lam, n)
            for cap in range(n + 1):
                assert _decoded(lam, cap) == {
                    mu: sign for mu, sign in census.items() if max(mu, default=0) <= cap
                }, (lam, cap)


def test_content_code_round_trip():
    codes = set()
    for n in range(13):
        for mu in partitions_of(n):
            code = tabloids._content_code(mu)
            assert tabloids._content_code(reversed(mu)) == code
            assert tabloids._content_parts(code) == mu
            codes.add(code)
    assert len(codes) == sum(1 for n in range(13) for _ in partitions_of(n))


def test_peel_refuses_a_shape_a_slot_cannot_count():
    most = (1 << tabloids._SLOT) - 1
    assert _decoded((1,) * most, 1) == {(1,) * most: 1}
    assert _decoded((most,), most) == {(most,): 1}
    for shape in [(most + 1,), (most, 1)]:
        with pytest.raises(ValueError):
            tabloids._peel(shape, 1)


def test_ww_census_is_capped_at_the_independence_number(monkeypatch):
    from chromsym import schur

    caps = []
    peel = tabloids._peel

    def spy(shape, cap):
        caps.append(cap)
        return peel(shape, cap)

    monkeypatch.setattr(tabloids, "_peel", spy)
    # i < j iff j - i >= 6: the longest chain, a largest stable set of the
    # incomparability graph, has two elements
    poset = Poset(12, [(i, j) for i in range(12) for j in range(i + 6, 12)])
    graph = incomparability_graph(poset)
    ww = schur.expand_schur(graph, "ww")
    assert caps and max(caps) == 2
    assert ww == schur.expand_schur(graph, "oracle")


C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
# the claw with each edge subdivided: its leaves are an asteroidal triple, so
# it is inc(P) in no labelling
NOT_INC = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])


@settings(max_examples=60, deadline=None)
@given(general_graphs(max_n=7), st.integers(min_value=0))
@example(C5, 2)
@example(NOT_INC, 5)
def test_the_index_order_counts_as_the_index_chain(graph, pick):
    # a hook holds pairwise non-adjacent vertices, so the index order, the
    # non-edges oriented by index, fills every hook as the chain 0 < 1 < ...
    # does
    shapes = list(partitions_of(graph.size))
    lam = shapes[pick % len(shapes)]
    chain = tuple(((1 << graph.size) - 1) & -(2 << x) for x in range(graph.size))
    counts = {1: 0, -1: 0}
    for sign, tiling in tabloids._tilings(lam):
        counts[sign] += sum(1 for _ in tabloids._fillings(graph, chain, lam, tiling, False))
    assert signed_g_tabloid_counts(graph, lam) == (counts[1], counts[-1])


def _index_order_is_transitive(graph):
    triples = itertools.combinations(range(graph.size), 3)
    edges = set(graph.edges())
    return all((x, z) not in edges for x, y, z in triples if {(x, y), (y, z)}.isdisjoint(edges))


@settings(max_examples=80, deadline=None)
@given(
    relabelled_posets(max_n=6),
    st.lists(st.booleans(), min_size=15, max_size=15),
    st.integers(min_value=0),
)
@example(Poset.chain_union((3,)), [True] * 15, 0)  # K_3 with the chain
def test_tail_filter_refuses_exactly_where_the_tail_route_does(poset, keep, pick):
    n = poset.size
    inc = incomparability_graph(poset)
    drawn = [e for e, k in zip(itertools.combinations(range(n), 2), keep) if k]
    # the third graph adds edges to inc(P), which it numbers by a linear
    # extension of P
    graphs = (inc, Graph(n, drawn), Graph(n, inc.edges() + drawn))
    shapes = list(partitions_of(n))
    lam = shapes[pick % len(shapes)]
    for graph in graphs:
        if _index_order_is_transitive(graph):
            report = coeff_report(graph, lam, "tail")
            counts = signed_g_tabloid_counts(graph, lam, tail_filter=True)
            assert counts == report.tabloid_counts
            assert report.value == coeff_report(graph, lam, "ww").value
            continue
        for refused in (
            lambda: signed_g_tabloid_counts(graph, lam, tail_filter=True),
            lambda: coeff_report(graph, lam, "tail"),
        ):
            with pytest.raises(OrderIncompatibleError, match="presented as inc"):
                refused()
        # the index order is no inc(P) here: counted without the filter
        report = coeff_report(graph, lam, "tabloid")
        assert signed_g_tabloid_counts(graph, lam) == report.tabloid_counts
        assert report.value == coeff_report(graph, lam, "ww").value
