"""Schur coefficients of chromatic symmetric functions.

Four routes compute the same numbers and check each other:

* ``ww``      - signed content census of the shape's special rim hook
                tabloids with hooks of at most the independence number,
                weighted by the graph's count table, X_G's monomial
                coefficients (semi-ordered stable partition counts);
* ``tabloid`` - signed count of vertex-filled tabloids under the graph's
                index order, its non-edges oriented by index;
* ``tail``    - the tabloid route restricted to tabloids whose tail sequence
                is non-increasing (valid for inc(P) numbered by a linear
                extension of P, where the index order is P);
* ``oracle``  - the same monomial coefficients followed by a Kostka solve.

Closed forms cover the two multipartite families whose sides are all of size
2, or one side of size 3 and the rest of size 2.

``auto`` picks ``closed`` for those two families and ``ww`` otherwise.
``tabloid`` and ``tail`` never read the count table, so their agreement
with ``ww`` and ``oracle`` checks it.

Every entry point sets a route up once per graph (:func:`_setup_route`) and
then asks it for one shape at a time. A shape whose first part exceeds the
independence number alpha has coefficient 0: the last cell of its first row
lies in a special rim hook that starts in column 1, so no tiling has all its
hooks inside stable sets (Egecioglu-Remmel), and X_G has no monomial with a
part over alpha (Stanley).
"""

from __future__ import annotations

from collections import namedtuple
from math import perm

from .errors import BadShapeError
from .oracle import monomial_to_schur, x_in_monomial
from .partitions import aspartition, partitions_of
from .posets import Graph, _count_table
from .sequences import nsp_chain_union
from .symfunc import SymFunc
from .tabloids import _weighed_census, signed_g_tabloid_counts

ROUTES = ("auto", "ww", "tabloid", "tail", "closed", "oracle")


class CoeffReport(namedtuple("CoeffReport", "shape value route tabloid_counts", defaults=(None,))):
    """One Schur coefficient: its shape, value and route, and the (positive,
    negative) tabloid counts where the route enumerates tabloids."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "lambda": self.shape.to_json(),
            "value": str(self.value),
            "route": self.route,
            "tabloid_counts": list(self.tabloid_counts) if self.tabloid_counts else None,
        }


class ScanResult(namedtuple("ScanResult", "all_nonnegative first_negative", defaults=(None,))):
    """Outcome of a full positivity scan: whether every coefficient is
    nonnegative and, if not, the first negative (shape, coefficient)."""

    __slots__ = ()


def coeff_closed_2beta(beta: int, c: int, d: int) -> int:
    """Coefficient of shape (2^c, 1^d) for sides (2^beta).

    Equals the ordered choices of c sides times the spanning non-increasing
    count of what is left.
    """
    if beta < 1 or c < 0 or d < 0 or 2 * c + d != 2 * beta or c > beta:
        raise BadShapeError(
            f"shape (2^{c}, 1^{d}) does not pair with sides (2^{beta})"
        )
    return perm(beta, c) * nsp_chain_union((2,) * (beta - c))


def coeff_closed_32beta(beta: int, lam) -> int:
    """Coefficient of `lam` for sides (3, 2^beta), as a signed combination of
    spanning non-increasing counts; zero on shapes no tabloid can have."""
    if beta < 1:
        raise BadShapeError("the closed family needs beta >= 1")
    lam = aspartition(lam)
    if lam.n != 2 * beta + 3:
        raise BadShapeError(
            f"shape of weight {lam.n} does not pair with sides (3, 2^{beta})"
        )
    threes, c, d = lam.count(3), lam.count(2), lam.count(1)
    if lam[0] > 3 or threes > 1:
        return 0
    if threes == 1:
        return coeff_closed_2beta(beta, c, d)
    if c == 0:
        return nsp_chain_union((3,) + (2,) * beta)
    head = (
        (beta - c + 1) * nsp_chain_union((3,) + (2,) * (beta - c)) if beta >= c else 0
    )
    return perm(beta, c - 1) * (
        head
        - nsp_chain_union((2,) * (beta - c + 1))
        + (c + 2) * nsp_chain_union((2,) * (beta - c + 1) + (1,))
    )


def _closed_family(graph: Graph):
    """The coefficient function, shape -> int, of the closed family the sides
    fall into, (2^beta) (0 on a row of 3 or more) or (3, 2^beta); else None."""
    sizes = graph.sides
    if not sizes or any(s != 2 for s in sizes[1:]):
        return None
    beta = len(sizes)
    if sizes[0] == 2:
        return lambda lam: (
            0 if lam[0] > 2 else coeff_closed_2beta(beta, lam.count(2), lam.count(1))
        )
    if sizes[0] == 3 and beta > 1:
        return lambda lam: coeff_closed_32beta(beta - 1, lam)
    return None


def _setup_route(graph: Graph, route: str):
    """Resolve ``auto`` and plan the route; its once-per-graph work is done
    by the layer that owns it.

    Returns the route; the largest first part a shape with a nonzero
    coefficient can have (the largest side of a multipartite graph, else the
    independence number for ``ww`` and n for the others); and a function
    from a shape of the graph's weight to its coefficient and, for the
    enumerating routes, its (positive, negative) tabloid counts, else None.
    ``ww`` weighs the census by the count table (:func:`_count_table`) in
    :func:`_weighed_census`. ``closed`` takes :func:`_closed_family`'s
    function and refuses a graph outside its families here, whatever the
    shape. ``tabloid`` and ``tail`` call :func:`signed_g_tabloid_counts`
    for each shape: so ``tail`` refuses each shape it is asked for unless
    the index order presents the graph as inc(P), and a shape of the wrong
    weight still answers 0.
    """
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}, got {route!r}")
    closed = _closed_family(graph)
    if route == "auto":
        route = "closed" if closed else "ww"
    sizes = graph.sides
    # every stable set of a multipartite graph lies inside one side
    bound = max(sizes) if sizes else graph.size
    if route == "ww":
        table = _count_table(graph)
        if not sizes:
            # hooks longer than the independence number give contents the table lacks
            bound = max((mu[0] for mu in table if mu), default=0)
        census = _weighed_census(table, bound)
        return route, bound, lambda lam: (census(lam), None)
    if route == "oracle":
        expansion = monomial_to_schur(x_in_monomial(graph))
        return route, bound, lambda lam: (expansion[lam], None)
    if route == "closed":
        if closed is None:
            raise BadShapeError("closed forms only apply to sides (2^b) or (3, 2^b)")
        return route, bound, lambda lam: (closed(lam), None)
    def tabloids(lam):
        pos, neg = signed_g_tabloid_counts(graph, lam, tail_filter=route == "tail")
        return pos - neg, (pos, neg)

    return route, bound, tabloids


def coeff_report(graph: Graph, lam, route: str = "auto") -> CoeffReport:
    """Compute one coefficient, recording the route and, where the route
    enumerates tabloids, the positive and negative counts. A shape of the
    wrong weight has coefficient 0."""
    route, _, coeff = _setup_route(graph, route)
    lam = aspartition(lam)
    if lam.n != graph.size:
        return CoeffReport(lam, 0, route)
    value, counts = coeff(lam)
    return CoeffReport(lam, value, route, counts)


def _coefficients(graph: Graph, route: str):
    """Yield (shape, coefficient) in reverse-lexicographic order over the
    shapes whose first part is within the route's bound; every other shape
    has coefficient 0."""
    _, bound, coeff = _setup_route(graph, route)
    for lam in partitions_of(graph.size, max_part=bound):
        yield lam, coeff(lam)[0]


def expand_schur(graph: Graph, route: str = "auto") -> SymFunc:
    """Full Schur expansion of the chromatic symmetric function of `graph`.

    Zero coefficients are omitted.
    """
    coeffs = {lam: value for lam, value in _coefficients(graph, route) if value}
    return SymFunc("schur", graph.size, coeffs)


def positivity_scan(graph: Graph) -> ScanResult:
    """Scan the shapes in reverse-lexicographic order for the first negative
    coefficient."""
    for lam, value in _coefficients(graph, "auto"):
        if value < 0:
            return ScanResult(False, (lam, value))
    return ScanResult(True, None)
