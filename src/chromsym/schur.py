"""Schur coefficients of chromatic symmetric functions.

Four routes compute the same numbers and check each other:

* ``ww``      - signed content census of the shape's special rim hook
                tabloids with hooks of at most the independence number,
                weighted by the graph's count table, X_G's monomial
                coefficients (semi-ordered stable partition counts);
* ``tabloid`` - signed count of vertex-filled tabloids under a compatible
                vertex order;
* ``tail``    - the tabloid route restricted to tabloids whose tail sequence
                is non-increasing (valid for incomparability graphs);
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

from dataclasses import dataclass
from math import perm

from .errors import BadShapeError, OrderIncompatibleError
from .oracle import monomial_to_schur, x_in_monomial
from .partitions import Partition, aspartition, partitions_of
from .posets import Graph, Poset, _count_table
from .sequences import nsp_chain_union
from .symfunc import SymFunc
from .tabloids import _content_code, _peel, signed_g_tabloid_counts

ROUTES = ("auto", "ww", "tabloid", "tail", "closed", "oracle")


@dataclass(frozen=True)
class CoeffReport:
    """One Schur coefficient with the route that produced it."""

    shape: Partition
    value: int
    route: str
    tabloid_counts: tuple[int, int] | None = None

    def to_json(self) -> dict:
        return {
            "lambda": self.shape.to_json(),
            "value": str(self.value),
            "route": self.route,
            "tabloid_counts": list(self.tabloid_counts) if self.tabloid_counts else None,
        }


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a full positivity scan."""

    all_nonnegative: bool
    first_negative: tuple[Partition, int] | None = None


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


def _shape_rows(lam: Partition) -> tuple[int, int, int] | None:
    """Split a shape into (#rows of 3, #rows of 2, #rows of 1); None if a row exceeds 3."""
    if lam and lam[0] > 3:
        return None
    return lam.count(3), lam.count(2), lam.count(1)


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
    rows = _shape_rows(lam)
    if rows is None or rows[0] > 1:
        return 0
    threes, c, d = rows
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


def _closed_family(graph: Graph) -> tuple[str, int] | None:
    sizes = graph.side_sizes()
    if not sizes:
        return None
    if all(s == 2 for s in sizes):
        return "2beta", len(sizes)
    if len(sizes) >= 2 and sizes[0] == 3 and all(s == 2 for s in sizes[1:]):
        return "32beta", len(sizes) - 1
    return None


def _closed_coeff(family: tuple[str, int], lam: Partition) -> int:
    kind, beta = family
    if kind == "32beta":
        return coeff_closed_32beta(beta, lam)
    rows = _shape_rows(lam)
    if rows is None or rows[0]:
        return 0
    _, c, d = rows
    return coeff_closed_2beta(beta, c, d)


def _needs_poset(lam):
    raise OrderIncompatibleError(
        "the tail route needs the graph presented as inc(P) with its poset"
    )


def _setup_route(graph: Graph, order, route: str):
    """Resolve ``auto`` and do the route's once-per-graph work.

    Returns the route; the largest first part a shape with a nonzero
    coefficient can have (the largest side of a multipartite graph, else the
    independence number for ``ww`` and n for the others); and a function
    from a shape of the graph's weight to its coefficient and, for the
    enumerating routes, its (positive, negative) tabloid counts, else None.
    ``closed`` refuses a graph outside its families here, whatever the
    shape; ``tail`` on a graph given without its poset refuses each shape it
    is asked for, so that a shape of the wrong weight still answers 0.
    """
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}, got {route!r}")
    family = _closed_family(graph)
    if route == "auto":
        route = "closed" if family else "ww"
    sizes = graph.side_sizes()
    # every stable set of a multipartite graph lies inside one side
    bound = max(sizes) if sizes else graph.size
    if route == "ww":
        table = _count_table(graph)
        if not sizes:
            # hooks longer than the independence number give contents the table lacks
            bound = max((mu[0] for mu in table if mu), default=0)
        weights = {_content_code(mu): count for mu, count in table.items()}

        def ww(lam):
            census = _peel(lam, bound)
            return sum(sign * weights.get(code, 0) for code, sign in census.items()), None

        return route, bound, ww
    if route == "oracle":
        expansion = monomial_to_schur(x_in_monomial(graph))
        return route, bound, lambda lam: (expansion[lam], None)
    if route == "closed":
        if family is None:
            raise BadShapeError("closed forms only apply to sides (2^b) or (3, 2^b)")
        return route, bound, lambda lam: (_closed_coeff(family, lam), None)
    tail = route == "tail"
    if tail and not isinstance(order, Poset):
        if graph.sides is None:
            return route, bound, _needs_poset
        # sides hold consecutively numbered vertices, rank 0 the chain minimum
        order = Poset.chain_union(sizes)

    def tabloids(lam):
        pos, neg = signed_g_tabloid_counts(graph, order, lam, tail_filter=tail)
        return pos - neg, (pos, neg)

    return route, bound, tabloids


def coeff_report(graph: Graph, order, lam, route: str = "auto") -> CoeffReport:
    """Compute one coefficient, recording the route and, where the route
    enumerates tabloids, the positive and negative counts. A shape of the
    wrong weight has coefficient 0."""
    route, _, coeff = _setup_route(graph, order, route)
    lam = aspartition(lam)
    if lam.n != graph.size:
        return CoeffReport(lam, 0, route)
    value, counts = coeff(lam)
    return CoeffReport(lam, value, route, counts)


def _coefficients(graph: Graph, order, route: str):
    """Yield (shape, coefficient) in reverse-lexicographic order over the
    shapes whose first part is within the route's bound; every other shape
    has coefficient 0."""
    _, bound, coeff = _setup_route(graph, order, route)
    for lam in partitions_of(graph.size, max_part=bound):
        yield lam, coeff(lam)[0]


def expand_schur(graph: Graph, order=None, route: str = "auto") -> SymFunc:
    """Full Schur expansion of the chromatic symmetric function of `graph`.

    Zero coefficients are omitted.
    """
    coeffs = {lam: value for lam, value in _coefficients(graph, order, route) if value}
    return SymFunc("schur", graph.size, coeffs)


def positivity_scan(graph: Graph, order=None) -> ScanResult:
    """Scan the shapes in reverse-lexicographic order for the first negative
    coefficient."""
    for lam, value in _coefficients(graph, order, "auto"):
        if value < 0:
            return ScanResult(False, (lam, value))
    return ScanResult(True, None)
