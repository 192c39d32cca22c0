"""The mutant gate: a known-bad edit to each layer must be caught by a route
that does not share it (mutation testing, DeMillo-Lipton-Sayward 1978).

A mutant is its function's own source with one fragment replaced, compiled
in a copy of its module's namespace. Every binding of the name in chromsym is
patched, since modules import private helpers by name, and the memos are
cleared before and after each mutant, so that no value a mutant cached
outlives it and no value cached before it hides it.
"""

import __future__
import inspect
import sys

import pytest

from chromsym import (
    Graph,
    OrderIncompatibleError,
    Poset,
    coeff_report,
    coloring_count,
    expand_schur,
    multipartite,
    partitions_of,
    specialize_ones,
)
import chromsym.posets as posets
from chromsym import selfcheck
from chromsym.posets import _count_table, _index_order
from chromsym.schur import _closed_family

# (name, module, attribute, (fragment of its source, replacement))
MUTANTS = [
    (
        "every tiling signed +1",
        "tabloids",
        "_tilings",
        ("(-sign if flip else sign, (hook,) + tail)", "(1, (hook,) + tail)"),
    ),
    (
        "the census weighted without its sign",
        "tabloids",
        "_weighed_census",
        ("sign * weights.get(code, 0)", "weights.get(code, 0)"),
    ),
    (
        "the 2^beta function answers a row of 3 with False",
        "schur",
        "_closed_family",
        ("0 if lam[0] > 2 else coeff_closed_2beta", "lam[0] <= 2 and coeff_closed_2beta"),
    ),
    (
        "inc(P) numbered by index, not by a linear extension",
        "posets",
        "incomparability_graph",
        ("(vertex[x], vertex[y])", "(x, y)"),
    ),
    ("the peeling drops its signs", "tabloids", "_peel", ("(-sign if flip else sign)", "sign")),
    (
        "the side product miscounts types with repeated parts",
        "posets",
        "_block_split_ways",
        ("ways = _multiplicity_factorials(block_sizes)", "ways = 1"),
    ),
    (
        "the sweep doubles two-block types",
        "posets",
        "_sweep_counts",
        ("table[mu] = total", "table[mu] = total << (len(mu) == 2)"),
    ),
    ("the frontier DP weighs a join 1", "posets", "_frontier_counts", ("count * ways", "count")),
    (
        "_kostka off by one on two-row shapes",
        "oracle",
        "_kostka",
        ("return sum(", "return (len(shape) == 2) + sum("),
    ),
    (
        "the partition walk skips the shape of all 1s",
        "partitions",
        "partitions_of",
        ("if not left:", "if not left and parts[:1] != [1]:"),
    ),
    (
        "the placement search never fills a room exactly",
        "posets",
        "multipartite_has_stable_partition",
        ("size < part", "size <= part"),
    ),
    (
        "the labelled-graph walk drops the last edge subset",
        "selfcheck",
        "_labelled_graphs",
        ("range(1 << len(pairs))", "range((1 << len(pairs)) - 1)"),
    ),
    (
        "the unordered count keeps the multiplicity factorials",
        "posets",
        "stable_partition_count",
        (" // _multiplicity_factorials(mu)", ""),
    ),
]

C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def _natural(reach) -> Poset:
    """The natural unit interval order in which x < y iff y > reach[x]."""
    n = len(reach)
    return Poset(n, [(x, y) for x in range(n) for y in range(reach[x] + 1, n)])


def _posets() -> list[Poset]:
    """2+2, 3+1, N, two natural orders, and a 6-element order and N numbered
    so that the numbers do not extend them (:func:`_shuffled` in those
    numbers)."""
    return [
        Poset(4, [(0, 1), (2, 3)]),
        Poset(4, [(0, 1), (1, 2)]),
        Poset(4, [(0, 2), (1, 2), (1, 3)]),
        _natural((2, 3, 3, 5, 5, 5)),
        _natural((1, 3, 4, 5, 6, 6, 6)),
        Poset(6, [(0, 1), (1, 5), (0, 2), (2, 4), (3, 2), (1, 4)]),
        Poset(4, [(1, 0), (1, 2), (3, 2)]),
    ]


def _shuffled() -> list[Graph]:
    """The last two orders of :func:`_posets` as plain graphs in their own
    numbers, which the index order does not read as inc(P): the sweep counts
    them, and tail refuses them. Built afresh, so that no count table a
    mutant filled outlives it."""
    return [
        Graph(6, [(0, 3), (1, 2), (1, 3), (2, 5), (3, 5), (4, 5)]),
        Graph(4, [(0, 2), (0, 3), (1, 3)]),
    ]


def _cases():
    """(graph, routes that must agree) for the battery: every K_lambda with
    n <= 6, the orders of :func:`_posets` as inc(P), and C5 and
    :func:`_shuffled`, on which tail refuses."""
    for n in range(1, 7):
        for lam in partitions_of(n):
            graph = multipartite(lam)
            closed = ("auto", "closed") if _closed_family(graph) else ()
            yield graph, ("ww", "oracle", "tabloid", "tail") + closed
    for poset in _posets():
        # read through the module, where a mutant is patched in
        yield posets.incomparability_graph(poset), ("ww", "oracle", "tabloid", "tail")
    for graph in [C5, *_shuffled()]:
        yield graph, ("ww", "oracle", "tabloid")


def _failures():
    """Yield one line per failed check, lazily, so that a mutant stops the
    battery at its first catch."""
    for graph, routes in _cases():
        expansions = {}
        for route in routes:
            try:
                expansions[route] = expand_schur(graph, route)
            except (ArithmeticError, ValueError) as exc:
                yield f"{route} on {graph!r} raised {exc!r}"
        values = list(expansions.values())
        if any(value != values[0] for value in values):
            yield f"routes disagree on {graph!r}: {expansions}"
        truth = expansions.get("oracle")
        if "closed" in routes and truth is not None:
            # every shape, wider than the sides too, answers an int
            for lam in partitions_of(graph.size):
                for route in ("auto", "closed"):
                    value = coeff_report(graph, lam, route).value
                    if type(value) is not int or value != truth[lam]:
                        yield f"{route} answers {value!r} for {lam} on {graph!r}"
        if graph.size <= 5 and truth is not None:
            for q in range(4):
                if specialize_ones(truth, q) != coloring_count(graph, q):
                    yield f"X_G at {q} ones is not the coloring count of {graph!r}"
    # tail needs the index order to present the graph as inc(P)
    for graph in [C5, *_shuffled()]:
        try:
            expand_schur(graph, "tail")
        except OrderIncompatibleError:
            continue
        yield f"tail answered on {graph!r}"
    # placing parts into the sides finds exactly the types in K_sides's table
    for n in range(1, 8):
        for sides in partitions_of(n):
            table = _count_table(multipartite(sides))
            for mu in partitions_of(n):
                if posets.multipartite_has_stable_partition(sides, mu) != (mu in table):
                    yield f"placing {mu} into the sides {sides} disagrees with K_sides's table"
    # the count-table checks of oracle-check: every labelled graph on n <= 4
    # against backtracking, and the frontier DP against the sweep
    for check in (selfcheck.count_table_agreement, selfcheck.frontier_counts_match_sweep):
        if not check(4):
            yield f"{check.__name__}(4) fails"


def _clear_memos():
    for name, module in list(sys.modules.items()):
        if name.startswith("chromsym."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _mutant(module, attribute: str, fragment: str, replacement: str):
    source = inspect.getsource(getattr(module, attribute))
    assert source.count(fragment) == 1, f"{attribute} no longer holds {fragment!r}"
    namespace = dict(vars(module))
    code = compile(
        source.replace(fragment, replacement),
        module.__file__,
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    exec(code, namespace)
    return namespace[attribute]


def test_the_unpatched_battery_passes():
    _clear_memos()
    assert list(_failures()) == []


def test_the_battery_reaches_every_count_table_method():
    # the side product, the frontier DP and the sweep each fill some table
    graphs = [graph for graph, _ in _cases() if graph.sides is None]
    assert any(g.sides is None and _index_order(g) is not None for g in graphs)
    sweep = [g for g in graphs if g.sides is None and _index_order(g) is None]
    # the sweep sees two-block types beside C5, which has none
    assert any(g.size == 4 for g in sweep) and C5 in sweep


@pytest.mark.parametrize("name, module, attribute, patch", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_every_mutant_is_caught(name, module, attribute, patch):
    home = sys.modules[f"chromsym.{module}"]
    original = getattr(home, attribute)
    mutant = _mutant(home, attribute, *patch)
    _clear_memos()
    try:
        with pytest.MonkeyPatch.context() as mp:
            for modname, mod in list(sys.modules.items()):
                if modname.startswith("chromsym."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            mp.setattr(mod, attr, mutant)
            caught = next(_failures(), None)
            if hasattr(mutant, "cache_clear"):
                mutant.cache_clear()
    finally:
        _clear_memos()
    assert caught is not None, f"no check caught: {name}"
