"""Ground-truth machinery independent of the tabloid engine.

The chromatic symmetric function is assembled in the monomial basis from
stable-partition counts and converted to the Schur basis through Kostka
numbers, counted by stripping horizontal strips; ``reference`` holds them to
semistandard tableaux and to direct proper coloring counts. None of this
shares code with the signed tabloid routes, so agreement between the two is
a genuine consistency check.
"""

from __future__ import annotations

from functools import cache

from .errors import UnequalWeightError
from .partitions import aspartition, partitions_of
from .posets import Graph, _count_table
from .symfunc import SymFunc


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
