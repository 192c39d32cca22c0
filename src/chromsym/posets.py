"""Finite posets, incomparability graphs, and stable-partition counting.

Each graph keeps one count table: the semi-ordered stable-partition count
of every type it has, which is the coefficient of m_type in X_G (Stanley
1995). A stable set of a complete multipartite graph, the incomparability
graph of disjoint chains, lies inside one side, so its table is a product
over the sides. A stable set of inc(P) is a chain of P, so inc(P) labelled
by a linear extension of P fills chains element by element. Any other graph
counts every type at once by inclusion-exclusion over vertex subsets.
"""

from __future__ import annotations

from collections import Counter
from math import factorial

from ._util import iter_bits, json_array, json_fields, json_int, json_ints
from .errors import CycleError, EmptyPartitionError
from .partitions import Partition, aspartition, partitions_of


def _check_size(size: int):
    if size < 0:
        raise ValueError("size must be nonnegative")


class Poset:
    """A finite partial order on elements 0..size-1.

    The relation is stored as two bitmasks per element: ``_above[x]`` has bit
    y set iff x <= y, ``_below[x]`` iff y <= x (both reflexive); a mask is an
    int of any width. Optional string labels name the elements. Instances
    are immutable after construction.
    """

    __slots__ = ("size", "covers", "labels", "_above", "_below")

    def __init__(self, size, covers, labels=None):
        _check_size(size)
        covers = tuple((int(lo), int(hi)) for lo, hi in covers)
        up = [[] for _ in range(size)]
        waiting = [0] * size  # covers below each element not yet placed
        for lo, hi in covers:
            if not (0 <= lo < size and 0 <= hi < size):
                raise ValueError(f"cover ({lo}, {hi}) out of range for size {size}")
            up[lo].append(hi)
            waiting[hi] += 1
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != size:
                raise ValueError("labels must name every element")
            twice = [x for x, k in Counter(labels).items() if k > 1]
            if twice:
                raise ValueError(f"label {twice[0]!r} names more than one element")
        # Kahn: place an element once everything below it is placed, so that
        # down-masks fill in order and up-masks in reverse order
        below = [1 << x for x in range(size)]
        order = [x for x in range(size) if not waiting[x]]
        for x in order:
            for y in up[x]:
                below[y] |= below[x]
                waiting[y] -= 1
                if not waiting[y]:
                    order.append(y)
        if len(order) < size:
            # what is still waiting lies on or above a cycle
            x = next(x for x, w in enumerate(waiting) if w)
            raise CycleError(f"the covers form a cycle at or below element {x}")
        above = [1 << x for x in range(size)]
        for x in reversed(order):
            for y in up[x]:
                above[x] |= above[y]
        self.size = size
        self.covers = covers
        self.labels = labels
        self._above = tuple(above)
        self._below = tuple(below)

    @classmethod
    def chain_union(cls, lengths) -> "Poset":
        """Disjoint chains of the given lengths, numbered consecutively.

        Within each chain the lowest-numbered vertex is the minimum.
        """
        lengths = tuple(int(x) for x in lengths)
        if any(ln < 0 for ln in lengths):
            raise ValueError("chain lengths must be nonnegative")
        covers = []
        start = 0
        for ln in lengths:
            covers.extend((x, x + 1) for x in range(start, start + ln - 1))
            start += ln
        return cls(start, covers)

    def leq(self, x: int, y: int) -> bool:
        return bool((self._above[x] >> y) & 1)

    def above_mask(self, x: int) -> int:
        """Bitmask of all y with x <= y, including x itself."""
        return self._above[x]

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)

    def element(self, label: str) -> int:
        """Index of the element carrying `label`."""
        if not self.labels:
            raise ValueError("poset has no labels")
        if label not in self.labels:
            raise ValueError(f"no element carries the label {label!r}")
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

    ``sides``, given instead of edges, builds K_sides, side i taking the next
    sides[i] vertices. The attribute ``sides`` is read off the adjacency,
    whatever built it: K_lambda's side sizes lambda in any labelling, else
    None. ``_counts`` is the count table, X_G's monomial coefficients without
    zeros, filled at the first read (:func:`_count_table`).
    """

    __slots__ = ("size", "_adj", "sides", "_counts")

    def __init__(self, size, edges=(), sides=None):
        _check_size(size)
        adj = [0] * size
        full = (1 << size) - 1
        if sides is not None:
            if edges:
                raise ValueError("a graph given by its sides takes no edges")
            sides = aspartition(sides)
            if sides.n != size:
                raise ValueError(f"sides {tuple(sides)} do not sum to the size {size}")
            start = 0
            for ln in sides:
                adj[start : start + ln] = [full ^ ((1 << start + ln) - (1 << start))] * ln
                start += ln
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
        # v's closed non-neighbourhoods partition V iff non-adjacency is an equivalence
        sizes = sorted((b.bit_count() for b in {full & ~a for a in adj}), reverse=True)
        self.sides = Partition(sizes) if sum(sizes) == size else None
        self._counts = {}

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self._adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        n = self.size
        return [(u, u + 1 + v) for u in range(n) for v in iter_bits(self._adj[u] >> (u + 1))]

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
    """inc(P): an edge between each incomparable pair, vertex i being the
    i-th element of P's least linear extension, which each step extends by
    the smallest element whose down-set it holds. So the index order on the
    non-edges is P (:func:`_index_order`), and elements whose numbers
    already extend P keep them."""
    n = poset.size
    waiting = [down.bit_count() - 1 for down in poset._below]  # unplaced below
    ready = sum(1 << x for x, w in enumerate(waiting) if not w)
    vertex = [0] * n
    for i in range(n):
        low = ready & -ready
        ready ^= low
        x = low.bit_length() - 1
        vertex[x] = i
        for y in iter_bits(poset._above[x] ^ low):
            waiting[y] -= 1
            if not waiting[y]:
                ready |= 1 << y
    full = (1 << n) - 1
    edges = [
        (vertex[x], vertex[y])
        for x, (up, down) in enumerate(zip(poset._above, poset._below))
        for y in iter_bits(full & ~(up | down) & -(2 << x))
    ]
    return Graph(n, edges)


def multipartite(lam) -> Graph:
    """Build K_lambda, the incomparability graph of disjoint chains: side i
    holds lam[i] vertices, adjacent to every vertex outside it. Its chain
    order is ``Poset.chain_union(lam)``."""
    lam = aspartition(lam)
    if not lam:
        raise EmptyPartitionError("a multipartite graph needs at least one side")
    return Graph(lam.n, sides=lam)


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
    """Stable partitions of K_sides of type mu, the sides and the parts in
    any order, read from K_sides's count table; 0 when the weights
    disagree."""
    return stable_partition_count(
        multipartite(sorted(sides, reverse=True)), sorted(mu, reverse=True)
    )


def multipartite_has_stable_partition(sides: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """Whether K_sides has a stable partition of type mu.

    Every block lies inside one side, so this places the parts of mu in
    order into the room each side has left. It is a depth-first search over
    the states (sorted room left, parts placed), kept on a list and each
    visited once: a state tries each distinct room once, the smallest that
    fits first, and the search ends at the first full placement.
    """
    if sum(mu) != sum(sides):
        return False
    start = (tuple(sorted(sides)), 0)
    stack, seen = [start], {start}
    while stack:
        room, placed = stack.pop()
        if placed == len(mu):
            return True
        part = mu[placed]
        tried = []
        for i, size in enumerate(room):
            if size < part or (i and room[i - 1] == size):
                continue
            left = room[:i] + room[i + 1 :]
            if size > part:
                left = tuple(sorted(left + (size - part,)))
            state = (left, placed + 1)
            if state not in seen:
                seen.add(state)
                tried.append(state)
        # the smallest room that fits is popped first
        stack.extend(reversed(tried))
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


def _index_masks(graph: Graph) -> tuple[int, ...]:
    """The index order, the non-edges oriented by index: each vertex's mask
    of later non-neighbours."""
    full = (1 << graph.size) - 1
    return tuple(full & ~adj & -(2 << x) for x, adj in enumerate(graph._adj))


def _index_order(graph: Graph):
    """:func:`_index_masks` if transitive (exactly when the labelling is a
    linear extension of an order P with inc(P) = graph), else None."""
    later = _index_masks(graph)
    return later if all(not later[y] & ~up for up in later for y in iter_bits(up)) else None


def _frontier_counts(later) -> dict:
    """The count table of inc(P), 0..n-1 a linear extension of P and later[x]
    the elements above x, by frontier-based search (Kawahara et al. 2017):
    the elements join blocks (chains of P) in order, each block kept as its
    key, the later elements it may still take, and its size. Placing v
    removes v from every key; the block v starts or joins takes later[v].
    Blocks with equal key and size are interchangeable, so a join counts
    their number, and a block whose key is empty is closed."""
    unit = 1 << len(later).bit_length()  # a block is the int key * unit + size
    states = {(): 1}  # sorted blocks -> set partitions
    for v, mine in enumerate(later):
        bit, grown = unit << v, {}
        for blocks, count in states.items():
            stay = [block & ~bit for block in blocks]
            takers = {}  # each block that may take v, as it stays -> its copies
            for block, kept in zip(blocks, stay):
                if block & bit:
                    takers[kept] = takers.get(kept, 0) + 1
            # v starts a block (0 before it) or joins one that may take it
            for kept, ways in [(0, 1), *takers.items()]:
                moved = stay.copy()
                if kept:
                    moved.remove(kept)
                state = tuple(sorted([*moved, mine * unit + kept % unit + 1]))
                grown[state] = grown.get(state, 0) + count * ways
        states = grown
    # every key is empty now, so each block is its size and a state its type
    return _semi_ordered({blocks[::-1]: count for blocks, count in states.items()})


def _count_table(graph: Graph) -> dict:
    """The graph's whole count table, X_G's monomial coefficients (Stanley
    1995), filled at the first read by the method the graph picks: the side
    product if it has sides, else the frontier DP if :func:`_index_order`
    reads it as inc(P) labelled by a linear extension, else the sweep."""
    table = graph._counts
    if not table:
        if graph.sides is not None:
            table = _side_product_counts(graph.sides)
        else:
            later = _index_order(graph)
            table = _sweep_counts(graph) if later is None else _frontier_counts(later)
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
    if graph.sides is not None:
        return multipartite_has_stable_partition(graph.sides, mu)
    return mu in _count_table(graph)
