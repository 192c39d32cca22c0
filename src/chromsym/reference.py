"""The paper's checkable definitions, kept as referees for the routes.

Semistandard tableaux and Kostka matrices by enumeration, direct proper
coloring counts, stable sets and stable partitions by backtracking, spanning
non-increasing sequences by brute force, the special rim hook G-tabloids
with their sign-reversing involution psi, and the classifier's witnesses.
No route calls them and no module that ``chromsym.cli`` imports imports this
one: ``selfcheck`` and the tests hold the routes to them, and ``chromsym``
resolves their names on first use, so a command does not compile them.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial
from types import MappingProxyType

from ._util import iter_bits
from .classifier import _negative_case, _positive_reason
from .errors import EmptyPartitionError, LengthOneError, NoAscentError, PositiveFamilyError
from .oracle import _kostka, kostka
from .partitions import Partition, aspartition, dominates, partitions_of
from .posets import Graph, Poset, has_stable_partition
from .symfunc import SymFunc
from .tabloids import (
    RimHook,
    SRHTabloid,
    _content_parts,
    _fillings,
    _peel,
    _resolve_order,
    _tilings,
)


class SSYT:
    """A semistandard filling: rows weakly increase, columns strictly increase."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        for i, row in enumerate(rows):
            if i and len(rows[i - 1]) < len(row):
                raise ValueError("row lengths must form a partition")
            for j, x in enumerate(row):
                if x < 1:
                    raise ValueError("entries must be positive")
                if j and row[j - 1] > x:
                    raise ValueError(f"row {i + 1} is not weakly increasing")
                if i and rows[i - 1][j] >= x:
                    raise ValueError(f"column {j + 1} is not strictly increasing")
        self.rows = rows

    @property
    def shape(self) -> Partition:
        return Partition(len(row) for row in self.rows)

    def __eq__(self, other):
        if isinstance(other, SSYT):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"SSYT({[list(r) for r in self.rows]})"


def enumerate_ssyt(shape, content):
    """Yield every SSYT of the given shape whose entry i appears content[i-1] times."""
    shape = aspartition(shape)
    content = tuple(content)
    if shape.n != sum(content):
        return
    remaining = list(content)
    rows = [[0] * ln for ln in shape]

    def rec(r, c):
        if r == len(rows):
            yield SSYT([row[:] for row in rows])
            return
        nr, nc = (r, c + 1) if c + 1 < len(rows[r]) else (r + 1, 0)
        lo = rows[r][c - 1] if c else 1
        for value in range(lo, len(remaining) + 1):
            if not remaining[value - 1]:
                continue
            if r and rows[r - 1][c] >= value:
                continue
            remaining[value - 1] -= 1
            rows[r][c] = value
            yield from rec(nr, nc)
            remaining[value - 1] += 1
        rows[r][c] = 0

    if shape.n == 0:
        yield SSYT([])
        return
    yield from rec(0, 0)


class KostkaMatrix:
    """All Kostka numbers of one degree, keyed (shape, content)."""

    def __init__(self, degree: int):
        self.degree = degree
        self.index = list(partitions_of(degree))
        self.entries = {
            (lam, mu): kostka(lam, mu) for lam in self.index for mu in self.index
        }

    def inverse(self) -> dict:
        """Exact inverse as a dict keyed (mu, lam); unitriangular solve."""
        order = self.index  # reverse-lexicographic, refines dominance
        size = len(order)
        inv = {}
        for j in range(size):
            inv[(order[j], order[j])] = 1
            for i in range(j - 1, -1, -1):
                acc = 0
                for k in range(i + 1, j + 1):
                    left = self.entries[(order[i], order[k])]
                    if left:
                        acc += left * inv.get((order[k], order[j]), 0)
                if acc:
                    inv[(order[i], order[j])] = -acc
        return inv


def schur_to_monomial(func: SymFunc) -> SymFunc:
    """Expand each Schur term through its Kostka row, over the contents at
    or after the shape in reverse-lexicographic order."""
    if func.basis != "schur":
        raise ValueError("input must be in the schur basis")
    order = list(partitions_of(func.degree))
    coeffs = {}
    for lam, c in func.coeffs.items():
        for mu in order[order.index(lam) :]:
            k = _kostka(lam, mu)
            if k:
                coeffs[mu] = coeffs.get(mu, 0) + c * k
    return SymFunc("monomial", func.degree, coeffs)


def coloring_count(graph: Graph, q: int) -> int:
    """Number of proper colorings with colors 1..q, by direct enumeration."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    n = graph.size
    colors = [0] * n

    def rec(v):
        if v == n:
            return 1
        total = 0
        for color in range(1, q + 1):
            if all(
                colors[u] != color for u in range(v) if graph.adjacent(u, v)
            ):
                colors[v] = color
                total += rec(v + 1)
        colors[v] = 0
        return total

    return rec(0)


def _ssyt_count_bounded(shape: tuple[int, ...], q: int) -> int:
    """Number of SSYT of `shape` with entries at most q.

    By the hook-content formula this is the product of q + c(u) over the
    cells u, c(u) being column minus row, divided by the product of their
    hook lengths. A shape with more than q rows has a cell of content -q, so
    it counts 0.
    """
    heights = [sum(row > j for row in shape) for j in range(max(shape, default=0))]
    top = bottom = 1
    for i, row in enumerate(shape):
        for j in range(row):
            top *= q + j - i
            bottom *= row - j + heights[j] - i - 1
    return top // bottom


def specialize_ones(func: SymFunc, q: int) -> int:
    """Evaluate at x_1 = ... = x_q = 1 and all other variables 0."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    total = 0
    if func.basis == "monomial":
        for mu, c in func.coeffs.items():
            ell = len(mu)
            if ell > q:
                continue
            ways = 1
            for i in range(ell):
                ways *= q - i
            for m in Counter(mu).values():
                ways //= factorial(m)
            total += c * ways
        return total
    for lam, c in func.coeffs.items():
        total += c * _ssyt_count_bounded(lam, q)
    return total


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
    for mu in partitions_of(lam_present.n):
        if max_length is not None and len(mu) > max_length:
            continue
        if not dominates(lam_present, mu):
            continue
        if not has_stable_partition(graph, mu):
            return mu
    return None


def is_nonincreasing(seq, poset: Poset) -> bool:
    """True iff no consecutive pair of the sequence ascends in the poset."""
    seq = tuple(seq)
    return all(not poset.leq(u, v) for u, v in zip(seq, seq[1:]))


def nsp_bruteforce(poset: Poset) -> int:
    """Count spanning non-increasing sequences by dynamic programming
    over (visited set, last vertex) states; exact for any poset.
    """
    n = poset.size
    if n == 0:
        return 1
    full = (1 << n) - 1
    # allowed_next[v] = vertices w with v <= w false
    allowed_next = tuple(full & ~poset.above_mask(v) for v in range(n))

    @cache
    def walk(visited: int, last: int) -> int:
        if visited == full:
            return 1
        total = 0
        todo = allowed_next[last] & ~visited
        while todo:
            low = todo & -todo
            todo ^= low
            total += walk(visited | low, low.bit_length() - 1)
        return total

    return sum(walk(1 << v, v) for v in range(n))


def sort_to_partition(kappa) -> Partition:
    """Rearrange the parts of a composition into weakly decreasing order."""
    return Partition(sorted(kappa, reverse=True))


def is_balanced(lam) -> bool:
    """True iff the largest part exceeds the smallest by at most one."""
    lam = aspartition(lam)
    if not lam:
        raise EmptyPartitionError("balancedness is undefined for the empty partition")
    return lam[0] <= lam[-1] + 1


class SRHGTabloid:
    """A special rim hook tabloid filled bijectively with graph vertices."""

    __slots__ = ("tabloid", "filling")

    def __init__(self, tabloid: SRHTabloid, filling: dict):
        self.tabloid = tabloid
        self.filling = dict(filling)

    @property
    def shape(self) -> Partition:
        return self.tabloid.shape

    @property
    def sign(self) -> int:
        return self.tabloid.sign

    def tail_sequence(self) -> tuple:
        """Vertices of the length-1 rows, read from the bottom row up."""
        shape = self.tabloid.shape
        rows = [r for r in range(len(shape), 0, -1) if shape[r - 1] == 1]
        return tuple(self.filling[(r, 1)] for r in rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, SRHGTabloid):
            return self.tabloid == other.tabloid and self.filling == other.filling
        return NotImplemented

    def __hash__(self) -> int:
        return hash(
            (
                self.tabloid.shape,
                frozenset(h.cells for h in self.tabloid.hooks),
                tuple(sorted(self.filling.items())),
            )
        )

    def __repr__(self) -> str:
        return f"SRHGTabloid({self.tabloid!r}, filling={self.filling})"


def signed_content_census(lam) -> MappingProxyType:
    """{type: sum of signs} over the special rim hook tabloids of shape `lam`,
    grouped by sorted content; types whose signs cancel are left out.

    By Egecioglu-Remmel this is the column `lam` of the inverse Kostka
    matrix. Decoded from the memoized peeling of the bottom hook
    (:func:`_peel` with no hook bound); its types are plain part tuples.
    """
    lam = aspartition(lam)
    return MappingProxyType(
        {_content_parts(code): sign for code, sign in _peel(lam, lam.n).items()}
    )


def count_srh_tabloids(lam) -> int:
    """Number of special rim hook tabloids of the given shape."""
    return len(_tilings(aspartition(lam)))


def enumerate_srh_g_tabloids(
    graph: Graph, order, lam, tail_filter: bool = False
) -> list[SRHGTabloid]:
    """All filled tabloids of shape `lam` for the graph under the given order.

    `order` is a Poset on the vertices, or None for the graph's index order
    (its non-edges oriented by index). With tail_filter=True only tabloids
    whose tail sequence is non-increasing are produced, and the order must
    present the graph as inc(P).
    """
    lam, above = _resolve_order(graph, order, lam, tail_filter)
    out = []
    for _, tiling in _tilings(lam):
        flat = [cell for cells in tiling for cell in cells]
        tabloid = SRHTabloid(lam, tuple(RimHook(cells) for cells in tiling))
        for assignment in _fillings(graph, above, lam, tiling, tail_filter):
            out.append(SRHGTabloid(tabloid, dict(zip(flat, assignment))))
    return out


def check_srh_g_tabloid(tabloid: SRHGTabloid, graph: Graph, order) -> None:
    """Independent check of a filled tabloid under a compatible order; raises
    on any defect, first on a shape whose size is not the graph's."""
    _, above = _resolve_order(graph, order, tabloid.tabloid.shape, False)
    tabloid.tabloid.validate()
    values = list(tabloid.filling.values())
    cells = {cell for h in tabloid.tabloid.hooks for cell in h.cells}
    if set(tabloid.filling) != cells or sorted(values) != list(range(graph.size)):
        raise ValueError("filling is not a bijection between cells and vertices")
    for hook in tabloid.tabloid.hooks:
        vs = [tabloid.filling[cell] for cell in hook.cells]
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if graph.adjacent(u, v):
                    raise ValueError(f"hook vertices {u} and {v} are adjacent")
        for u, v in zip(vs, vs[1:]):
            if not above[u] >> v & 1:
                raise ValueError(f"hook vertices {u}, {v} do not increase in the order")


def tail_head_split(tabloid: SRHGTabloid) -> tuple[dict, tuple]:
    """Split a filled tabloid into its head cells and its tail sequence.

    The tail collects the length-1 rows bottom to top; the head is the
    cell-to-vertex map of all longer rows.
    """
    shape = tabloid.tabloid.shape
    head = {
        (r, c): v for (r, c), v in tabloid.filling.items() if shape[r - 1] > 1
    }
    return head, tabloid.tail_sequence()


def _hook_with_cell(tabloid: SRHTabloid, cell):
    for i, hook in enumerate(tabloid.hooks):
        if cell in hook.cells:
            return i, hook
    raise ValueError(f"no hook contains {cell}")


def psi_involution(tabloid: SRHGTabloid, poset: Poset) -> SRHGTabloid:
    """Toggle the N-step at the first ascent of the tail sequence.

    For the minimal j with v_j <= v_{j+1} in the tail, the step between their
    cells is removed if the two vertices share a hook and inserted otherwise.
    The result has the same shape, filling, and tail sequence, and opposite
    sign; applying the map twice returns the input. Undefined (NoAscentError)
    when the tail sequence is non-increasing.
    """
    ts = tabloid.tail_sequence()
    j = next(
        (i for i, (u, v) in enumerate(zip(ts, ts[1:])) if poset.leq(u, v)), None
    )
    if j is None:
        raise NoAscentError("tail sequence has no ascent")
    ell = len(tabloid.tabloid.shape)
    lower_cell = (ell - j, 1)
    upper_cell = (ell - j - 1, 1)
    i_low, hook_low = _hook_with_cell(tabloid.tabloid, lower_cell)
    i_up, hook_up = _hook_with_cell(tabloid.tabloid, upper_cell)
    hooks = list(tabloid.tabloid.hooks)
    if i_low == i_up:
        pos = hook_low.cells.index(lower_cell)
        hooks[i_low : i_low + 1] = [
            RimHook(hook_low.cells[: pos + 1]),
            RimHook(hook_low.cells[pos + 1 :]),
        ]
    else:
        if hook_low.cells[-1] != lower_cell or hook_up.cells[0] != upper_cell:
            raise ValueError("hooks at the ascent cannot be joined by an N-step")
        merged = RimHook(hook_low.cells + hook_up.cells)
        hooks = [h for k, h in enumerate(hooks) if k not in (i_low, i_up)]
        hooks.append(merged)
    hooks.sort(key=lambda h: -h.cells[0][0])
    return SRHGTabloid(SRHTabloid(tabloid.tabloid.shape, hooks), tabloid.filling)


def witness_for(lam) -> Partition | None:
    """A dominated type with no stable partition in K_lam.

    Raises PositiveFamilyError on Schur-positive types. None only for
    (4, 3), whose graph admits every dominated type.
    """
    lam = aspartition(lam)
    if len(lam) < 2:
        raise LengthOneError("witnesses need at least two sides")
    if _positive_reason(lam):
        raise PositiveFamilyError(f"K_{tuple(lam)} is Schur-positive")
    _, witness = _negative_case(lam)
    return witness
