"""Finite posets, incomparability graphs, and stable-partition counting.

Each graph keeps one count table: the semi-ordered stable-partition count
of every type it has, which is the coefficient of m_type in X_G (Stanley
1995). A stable set of a complete multipartite graph, the incomparability
graph of disjoint chains, lies inside one side, so its table is a product
over the sides. A stable set of the graph of a natural unit interval order
is a chain, so its table is counted chain by chain. Any other graph counts
every type at once by inclusion-exclusion over vertex subsets.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial

from ._util import iter_bits, json_array, json_fields, json_int, json_ints
from .errors import CycleError, EmptyPartitionError
from .partitions import Partition, aspartition, partitions_of, dominates


def _check_size(size: int):
    if size < 0:
        raise ValueError("size must be nonnegative")


class Poset:
    """A finite partial order on elements 0..size-1.

    The relation is stored as one reachability bitmask per element:
    ``above[x]`` has bit y set iff x <= y (reflexive); a mask is an int of
    any width. Optional string labels name the elements. Instances are
    immutable after construction.
    """

    __slots__ = ("size", "covers", "labels", "_above")

    def __init__(self, size, covers, labels=None):
        _check_size(size)
        covers = tuple((int(lo), int(hi)) for lo, hi in covers)
        for lo, hi in covers:
            if not (0 <= lo < size and 0 <= hi < size):
                raise ValueError(f"cover ({lo}, {hi}) out of range for size {size}")
            if lo == hi:
                raise CycleError(f"cover ({lo}, {hi}) relates an element to itself")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != size:
                raise ValueError("labels must name every element")
        above = [1 << i for i in range(size)]
        up = [[] for _ in range(size)]
        for lo, hi in covers:
            up[lo].append(hi)
        changed = True
        while changed:
            changed = False
            for lo in range(size):
                m = above[lo]
                for hi in up[lo]:
                    m |= above[hi]
                if m != above[lo]:
                    above[lo] = m
                    changed = True
        for x in range(size):
            for y in iter_bits(above[x] & ~(1 << x)):
                if (above[y] >> x) & 1:
                    raise CycleError(
                        f"elements {x} and {y} are mutually reachable; not a partial order"
                    )
        self.size = size
        self.covers = covers
        self.labels = labels
        self._above = tuple(above)

    @classmethod
    def chain(cls, n: int, labels=None) -> "Poset":
        """The total order 0 < 1 < ... < n-1."""
        return cls(n, [(i, i + 1) for i in range(n - 1)], labels)

    @classmethod
    def chain_union(cls, lengths) -> "Poset":
        """Disjoint chains of the given lengths, numbered consecutively.

        Within each chain the lowest-numbered vertex is the minimum.
        """
        lengths = tuple(int(x) for x in lengths)
        if any(ln < 0 for ln in lengths):
            raise ValueError("chain lengths must be nonnegative")
        size = sum(lengths)
        covers = []
        above = []
        start = 0
        for ln in lengths:
            end = start + ln
            covers.extend((x, x + 1) for x in range(start, end - 1))
            # x lies below every later element of its own chain
            above.extend((1 << end) - (1 << x) for x in range(start, end))
            start = end
        self = cls.__new__(cls)
        self.size = size
        self.covers = tuple(covers)
        self.labels = None
        self._above = tuple(above)
        return self

    def leq(self, x: int, y: int) -> bool:
        return bool((self._above[x] >> y) & 1)

    def comparable(self, x: int, y: int) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def above_mask(self, x: int) -> int:
        """Bitmask of all y with x <= y, including x itself."""
        return self._above[x]

    def strictly_above_mask(self, x: int) -> int:
        return self._above[x] & ~(1 << x)

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)

    def element(self, label: str) -> int:
        """Index of the element carrying `label`."""
        if not self.labels:
            raise ValueError("poset has no labels")
        return self.labels.index(label)

    def to_json(self) -> dict:
        data = {"n": self.size, "covers": [list(c) for c in self.covers]}
        if self.labels:
            data["labels"] = list(self.labels)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Poset":
        """Read {"n": int, "covers": [[low, high], ...], "labels": [str, ...]};
        unknown keys and non-integer numbers raise."""
        json_fields(data, ("n",), ("covers", "labels"))
        n = json_int(data["n"], "n")
        covers = json_array(data.get("covers", []), "covers")
        labels = data.get("labels")
        if labels is not None and not all(
            isinstance(x, str) for x in json_array(labels, "labels")
        ):
            raise TypeError("labels must be strings")
        return cls(n, [json_ints(c, "a cover", 2) for c in covers], labels)

    def __repr__(self) -> str:
        return f"Poset(size={self.size}, covers={list(self.covers)})"


class Graph:
    """A finite simple graph on vertices 0..size-1 with int bitmask adjacency.

    ``sides`` is set only for graphs built by :func:`multipartite`: vertex
    tuples covering every vertex once, which make the graph complete
    multipartite with those stable sides, given with no edges. ``reach`` is
    set only by :func:`incomparability_graph`, for a natural unit interval
    order. Each unlocks a fast path for ``_counts``, the graph's count
    table: X_G's monomial coefficients, zeros left out, filled at the first
    read (see :func:`_count_table`).
    """

    __slots__ = ("size", "_adj", "sides", "reach", "_counts")

    def __init__(self, size, edges=(), sides=None):
        _check_size(size)
        adj = [0] * size
        if sides is not None:
            if edges:
                raise ValueError("a graph given by its sides takes no edges")
            full = (1 << size) - 1
            for side in sides:
                mask = sum(1 << v for v in side)
                for v in side:
                    adj[v] = full ^ mask
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < size and 0 <= v < size):
                raise ValueError(f"edge ({u}, {v}) out of range for size {size}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.size = size
        self._adj = tuple(adj)
        self.sides = sides
        self.reach = None
        self._counts = {}

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self._adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        n = self.size
        return [(u, u + 1 + v) for u in range(n) for v in iter_bits(self._adj[u] >> (u + 1))]

    def side_sizes(self) -> tuple[int, ...] | None:
        return None if self.sides is None else tuple(map(len, self.sides))

    def to_json(self) -> dict:
        return {"n": self.size, "edges": [list(e) for e in self.edges()]}

    @classmethod
    def from_json(cls, data: dict) -> "Graph":
        """Read {"n": int, "edges": [[u, v], ...]}; unknown keys and
        non-integer numbers raise."""
        json_fields(data, ("n",), ("edges",))
        n = json_int(data["n"], "n")
        edges = json_array(data.get("edges", []), "edges")
        return cls(n, [json_ints(e, "an edge", 2) for e in edges])

    def __repr__(self) -> str:
        return f"Graph(size={self.size}, edges={self.edges()})"


def incomparability_graph(poset: Poset) -> Graph:
    """Graph on the poset elements with edges between incomparable pairs. Its
    ``reach`` is set when x < y iff y > reach[x], reach weakly increasing."""
    n = poset.size
    edges = [(x, y) for x in range(n) for y in range(x + 1, n) if not poset.comparable(x, y)]
    graph = Graph(n, edges)
    reach = [n - 1 - poset.strictly_above_mask(x).bit_count() for x in range(n)]
    # x is not above itself, so reach[x] >= x
    if reach == sorted(reach) and all(
        poset.strictly_above_mask(x) == (1 << n) - (2 << r) for x, r in enumerate(reach)
    ):
        graph.reach = tuple(reach)
    return graph


def multipartite(lam) -> tuple[Graph, Poset]:
    """Build K_lambda, the incomparability graph of disjoint chains.

    Side i holds lam[i] vertices, numbered consecutively; the lowest-numbered
    vertex of a side is the minimum of its chain. Every vertex is adjacent to
    every vertex outside its side. Returns the graph and the chain-union
    poset.
    """
    lam = aspartition(lam)
    if not lam:
        raise EmptyPartitionError("a multipartite graph needs at least one side")
    sides = []
    start = 0
    for ln in lam:
        sides.append(tuple(range(start, start + ln)))
        start += ln
    return Graph(start, sides=tuple(sides)), Poset.chain_union(lam)


def _stable_extensions(adj, allowed_mask, base_vertex, size):
    """Yield bitmasks of stable sets of `size` inside allowed_mask containing base_vertex."""

    def rec(mask, candidates, left):
        if left == 0:
            yield mask
            return
        cand = candidates
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            yield from rec(mask | low, cand & ~adj[v], left - 1)

    start = 1 << base_vertex
    candidates = allowed_mask & ~adj[base_vertex] & ~((start << 1) - 1)
    yield from rec(start, candidates, size - 1)


def stable_sets(graph: Graph, size: int):
    """Yield every stable set of exactly `size` vertices once, as a frozenset."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    if size == 0:
        yield frozenset()
        return
    full = (1 << graph.size) - 1
    adj = graph._adj
    for v in range(graph.size):
        for mask in _stable_extensions(adj, full, v, size):
            yield frozenset(iter_bits(mask))


def _partition_blocks(graph: Graph, mu: Partition):
    """Backtracking over blocks; the block of the lowest uncovered vertex first.

    Yields tuples of block bitmasks, one tuple per unordered partition.
    """
    adj = graph._adj
    remaining = Counter(mu)

    def rec(uncovered, acc):
        if uncovered == 0:
            yield tuple(acc)
            return
        v = (uncovered & -uncovered).bit_length() - 1
        for s in sorted((s for s, c in remaining.items() if c), reverse=True):
            remaining[s] -= 1
            for mask in _stable_extensions(adj, uncovered, v, s):
                acc.append(mask)
                yield from rec(uncovered & ~mask, acc)
                acc.pop()
            remaining[s] += 1

    yield from rec((1 << graph.size) - 1, [])


def stable_partition_count_backtracking(graph: Graph, mu) -> int:
    """Count unordered stable partitions of type `mu` by direct backtracking."""
    mu = aspartition(mu)
    if mu.n != graph.size:
        return 0
    return sum(1 for _ in _partition_blocks(graph, mu))


def _block_split_ways(size: int, block_sizes: tuple[int, ...]) -> int:
    """Number of set partitions of a `size`-set into blocks of the given sizes."""
    ways = _multiplicity_factorials(block_sizes)
    for b in block_sizes:
        ways *= factorial(b)
    return factorial(size) // ways


def _multiplicity_factorials(mu) -> int:
    """The product of m! over the multiplicities m of the parts of `mu`, in
    any order: the orderings of same-size blocks that a semi-ordered count
    tells apart. The k-th copy of a part multiplies by k."""
    out = 1
    seen = {}
    for part in mu:
        k = seen[part] = seen.get(part, 0) + 1
        out *= k
    return out


def _side_product_counts(sides: tuple[int, ...]) -> dict:
    """The count table of K_sides.

    Every stable set lives inside one side, so a stable partition is one set
    partition per side: the unordered counts are the product over the sides
    of each side's set-partition types, weighted by
    :func:`_block_split_ways`.
    """
    table = {(): 1}
    for size in sides:
        types = [(mu, _block_split_ways(size, mu)) for mu in partitions_of(size)]
        grown = {}
        for left, count in table.items():
            for right, ways in types:
                key = tuple(sorted(left + right, reverse=True))
                grown[key] = grown.get(key, 0) + count * ways
        table = grown
    return _semi_ordered(table)


def _semi_ordered(table: dict) -> dict:
    """{type: semi-ordered count} from {sorted type: unordered count}; the
    keys are sorted already, so they are wrapped without validation."""
    return {
        tuple.__new__(Partition, mu): count * _multiplicity_factorials(mu)
        for mu, count in table.items()
    }


def multipartite_stable_partition_count(sides: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Stable partitions of K_sides of type mu, its parts in any order, read
    from the side product of :func:`_side_product_counts`; 0 when the weights
    disagree."""
    count = _side_product_counts(tuple(sides)).get(tuple(sorted(mu, reverse=True)), 0)
    return count // _multiplicity_factorials(mu)


@cache
def multipartite_has_stable_partition(sides: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """Whether K_sides has a stable partition of type mu.

    Every block lies inside one side, so this places the parts of mu in
    order into the room each side has left, trying each distinct room once,
    the smallest that fits first, memoized on the sorted room and the parts
    left.
    """
    if sum(mu) != sum(sides):
        return False
    if not mu:
        return True
    part, rest = mu[0], mu[1:]
    for room in sorted(set(sides)):
        if room >= part:
            left = list(sides)
            left.remove(room)
            if room > part:
                left.append(room - part)
            left.sort(reverse=True)
            if multipartite_has_stable_partition(tuple(left), rest):
                return True
    return False


def _sweep_counts(graph: Graph) -> dict:
    """Every type's stable-partition count, by inclusion-exclusion over subsets.

    Ordered tuples of stable sets of sizes mu_1, mu_2, ... covering V number
    sum over X of (-1)^(n-|X|) * prod_i s_(mu_i)(X), where s_j(X) counts the
    stable j-sets inside X (Bjorklund-Husfeldt-Koivisto); with blocks of
    different sizes in the order of their sizes, that is the semi-ordered
    count. Each s_j is one list indexed by mask, grown one vertex v at a time
    through s_j(X + v) = s_j(X) + s_(j-1)(X minus N(v)), up to the
    independence number. Masks sharing a profile (s_1(X), s_2(X), ...) share
    every product, so the sum runs over profiles.
    """
    n = graph.size
    if n == 0:
        return {Partition(): 1}
    full = (1 << n) - 1
    rows = []  # rows[j - 1][X] = s_j(X)
    prev = [1] * (full + 1)
    while True:
        cur = [0]
        for v in range(n):
            h = 1 << v
            m = ~graph._adj[v] & (h - 1)
            cur.extend([a + prev[y & m] for y, a in zip(range(h), cur[:h])])
        if not cur[full]:
            break
        rows.append(cur)
        prev = cur
    # s_1(X) = |X| carries the sign
    terms = [
        (profile, -mult if (n - profile[0]) % 2 else mult)
        for profile, mult in Counter(zip(*rows)).items()
    ]
    table = {}
    for mu in partitions_of(n, max_part=len(rows)):
        picks = [part - 1 for part in mu]
        total = 0
        for profile, term in terms:
            for i in picks:
                term *= profile[i]
            total += term
        if total:
            table[mu] = total
    return table


def _chain_counts(reach) -> dict:
    """The count table of inc(P), P the order where x < y iff y > reach[x].

    A stable set is a chain of P; the elements join chains in order. At step
    i the window keeps, in order, the length of each chain ending at an l
    with reach[l] >= i, which i cannot extend; the other chains take any
    later element, so only the sorted multiset of their lengths is kept.
    """
    states = {((), ()): 1}
    lo = 0  # the window's first element
    for i in range(len(reach)):
        old = lo
        while reach[lo] < i:
            lo += 1
        grown = {}
        for (window, free), count in states.items():
            if lo > old:
                free = tuple(sorted(free + window[: lo - old]))
                window = window[lo - old :]
            # i starts a chain (k = 0) or extends a free one of length k
            for k in {0, *free}:
                rest = list(free)
                if k:
                    rest.remove(k)
                key = (window + (k + 1,), tuple(rest))
                grown[key] = grown.get(key, 0) + count * (free.count(k) or 1)
        states = grown
    table = {}
    for (window, free), count in states.items():
        mu = tuple(sorted(window + free, reverse=True))
        table[mu] = table.get(mu, 0) + count
    return _semi_ordered(table)


def _count_table(graph: Graph) -> dict:
    """The graph's whole count table, filled at the first read.

    It maps each type the graph has to its semi-ordered stable-partition
    count, the coefficient of m_type in X_G. A multipartite graph fills it by
    :func:`_side_product_counts`, a graph with a ``reach`` by
    :func:`_chain_counts`, any other graph by one :func:`_sweep_counts`.
    """
    table = graph._counts
    if not table:
        sizes = graph.side_sizes()
        if sizes is not None:
            table = _side_product_counts(sizes)
        elif graph.reach is not None:
            table = _chain_counts(graph.reach)
        else:
            table = _sweep_counts(graph)
        # another thread may fill too; both publish the same whole table
        graph._counts.update(table)
    return table


def semi_ordered_count(graph: Graph, mu) -> int:
    """Stable partitions of type `mu` with same-size blocks additionally
    ordered, read from the graph's count table; 0 when the weights
    disagree."""
    mu = aspartition(mu)
    if mu.n != graph.size:
        return 0
    return _count_table(graph).get(mu, 0)


def stable_partition_count(graph: Graph, mu) -> int:
    """Number of unordered stable partitions of type `mu`: the semi-ordered
    count divided by the multiplicity factorials."""
    mu = aspartition(mu)
    if mu.n != graph.size:
        return 0
    return _count_table(graph).get(mu, 0) // _multiplicity_factorials(mu)


def has_stable_partition(graph: Graph, mu) -> bool:
    """True iff the graph has at least one stable partition of type `mu`.

    Multipartite graphs answer by placing parts with early exit; any other
    graph looks the type up in its count table.
    """
    mu = aspartition(mu)
    if mu.n != graph.size:
        return False
    sizes = graph.side_sizes()
    if sizes is not None:
        return multipartite_has_stable_partition(sizes, mu)
    return mu in _count_table(graph)


def niceness_violation(graph: Graph, lam_present, max_length=None) -> Partition | None:
    """First dominated type (reverse-lexicographic) with no stable partition.

    `lam_present` must be the type of some stable partition the graph has.
    A returned type certifies, by contraposition, that the graph is not
    Schur-positive. None means every dominated type is achievable, optionally
    only checking types of length at most `max_length`.
    """
    lam_present = aspartition(lam_present)
    if not has_stable_partition(graph, lam_present):
        raise ValueError(f"graph has no stable partition of type {lam_present!r}")
    for mu in partitions_of(lam_present.n, max_length=max_length):
        if not dominates(lam_present, mu):
            continue
        if not has_stable_partition(graph, mu):
            return mu
    return None
