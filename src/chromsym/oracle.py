"""Ground-truth machinery independent of the tabloid engine.

The chromatic symmetric function is assembled in the monomial basis from
stable-partition counts, converted to the Schur basis through Kostka numbers
obtained from semistandard tableaux, and cross-checked against direct proper
coloring counts. None of this shares code with the signed tabloid routes, so
agreement between the two is a genuine consistency check.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .errors import UnequalWeightError
from .partitions import Partition, aspartition, partitions_of
from .posets import Graph, _count_table
from .symfunc import SymFunc


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


def _horizontal_strips(shape: tuple[int, ...], size: int) -> list:
    """Shapes nu <= shape with shape/nu a horizontal strip of `size` cells.

    Row i keeps between shape[i + 1] and shape[i] cells; the rows are
    chosen top-down, keeping the number of cells still to remove, which the
    rows below row i can cover only up to shape[i + 1].
    """
    partial = [((), size)]
    for i, row in enumerate(shape):
        lo = shape[i + 1] if i + 1 < len(shape) else 0
        grown = []
        for kept, left in partial:
            for keep in range(min(row, row + lo - left), max(lo, row - left) - 1, -1):
                grown.append((kept + (keep,), left - row + keep))
        partial = grown
    out = []
    for nu, left in partial:
        if not left:
            while nu and nu[-1] == 0:
                nu = nu[:-1]
            out.append(nu)
    return out


@cache
def _kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Count SSYT by stripping the largest entry as a horizontal strip.

    A shape that does not dominate the content has none, so such branches
    are cut before any strip is listed.
    """
    if not content:
        return 1 if not shape else 0
    if sum(shape) != sum(content) or len(shape) > len(content):
        return 0
    ahead = 0
    for a, b in zip(shape, content):
        ahead += a - b
        if ahead < 0:
            return 0
    last = content[-1]
    return sum(
        _kostka(nu, content[:-1]) for nu in _horizontal_strips(shape, last)
    )


def kostka(lam, mu) -> int:
    """Number of SSYT of shape `lam` and content `mu`."""
    lam = aspartition(lam)
    mu = aspartition(mu)
    if lam.n != mu.n:
        raise UnequalWeightError(
            f"shape weight {lam.n} differs from content weight {mu.n}"
        )
    return _kostka(lam, mu)


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


def x_in_monomial(graph: Graph) -> SymFunc:
    """Chromatic symmetric function in the monomial basis.

    The coefficient of m_mu is the semi-ordered stable-partition count of
    type mu: each stable partition contributes one augmented monomial. These
    are the entries of the graph's count table. The coloring specialization
    test pins this bridge down.
    """
    return SymFunc("monomial", graph.size, _count_table(graph))


def monomial_to_schur(func: SymFunc) -> SymFunc:
    """Solve f = sum c_lam s_lam by peeling in reverse-lexicographic order.

    Kostka unitriangularity makes this a forward substitution: when a
    partition is reached, every dominating one has been subtracted already.
    K_lam,mu is 0 unless lam dominates mu, so only the contents mu after lam
    in this order are subtracted.
    """
    if func.basis != "monomial":
        raise ValueError("input must be in the monomial basis")
    order = list(partitions_of(func.degree))
    residual = dict(func.coeffs)
    out = {}
    for i, lam in enumerate(order):
        c = residual.pop(lam, 0)
        if not c:
            continue
        out[lam] = c
        for mu in order[i + 1 :]:
            k = _kostka(lam, mu)
            if k:
                residual[mu] = residual.get(mu, 0) - c * k
    return SymFunc("schur", func.degree, out)


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
            for m in mu.multiplicities().values():
                ways //= factorial(m)
            total += c * ways
        return total
    for lam, c in func.coeffs.items():
        total += c * _ssyt_count_bounded(lam, q)
    return total
