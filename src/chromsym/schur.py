"""Schur coefficients of chromatic symmetric functions.

Four routes compute the same numbers and check each other:

* ``ww``      - signed content census of the shape's special rim hook
                tabloids with hooks of at most the independence number,
                weighted by semi-ordered stable partition counts from the
                graph's count table;
* ``tabloid`` - signed count of vertex-filled tabloids under a compatible
                vertex order;
* ``tail``    - the tabloid route restricted to tabloids whose tail sequence
                is non-increasing (valid for incomparability graphs);
* ``oracle``  - monomial expansion from stable-partition counts followed by
                a Kostka solve.

Closed forms cover the two multipartite families whose sides are all of size
2, or one side of size 3 and the rest of size 2.

The ``auto`` route picks ``closed`` for those two families and ``ww`` for
every other graph; ``tabloid`` and ``tail`` enumerate filled tabloids and
stay as explicit cross-check routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm

from .errors import BadShapeError, OrderIncompatibleError
from .oracle import monomial_to_schur, x_in_monomial
from .partitions import Partition, aspartition, partitions_of
from .posets import Graph, Poset, _count_table, _semi_table, incomparability_graph
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
        data = {
            "lambda": self.shape.to_json(),
            "value": str(self.value),
            "route": self.route,
        }
        data["tabloid_counts"] = (
            list(self.tabloid_counts) if self.tabloid_counts else None
        )
        return data


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a full positivity scan."""

    all_nonnegative: bool
    first_negative: tuple[Partition, int] | None = None

    def to_json(self) -> dict:
        data = {"all_nonnegative": self.all_nonnegative}
        if self.first_negative:
            lam, value = self.first_negative
            data["first_negative"] = {"lambda": lam.to_json(), "value": str(value)}
        else:
            data["first_negative"] = None
        return data


def _ww_weights(graph: Graph) -> tuple[dict, int]:
    """The graph's semi-ordered table keyed by content code, and the largest
    part of a type it has: the independence number, 0 for the empty graph.

    A tiling with a hook longer than that has a content whose count is 0,
    so the census of hooks up to that bound gives the same sum.
    """
    semi = _semi_table(graph)
    cap = max((mu[0] for mu in semi if mu), default=0)
    return {_content_code(mu): count for mu, count in semi.items()}, cap


def _ww_sum(weights: dict, cap: int, lam: tuple[int, ...]) -> int:
    # weights and cap come from _ww_weights of a graph of the shape's weight
    return sum(sign * weights.get(code, 0) for code, sign in _peel(lam, cap).items())


def coeff_ww(graph: Graph, lam) -> int:
    """Signed tabloid sum weighted by semi-ordered stable partition counts."""
    lam = aspartition(lam)
    if lam.n != graph.size:
        return 0
    return _ww_sum(*_ww_weights(graph), lam)


def coeff_tabloids(graph: Graph, order, lam) -> int:
    """Signed count of vertex-filled tabloids of shape `lam`."""
    return coeff_report(graph, order, lam, "tabloid").value


def coeff_tail(poset: Poset, lam) -> int:
    """Signed count over tabloids with non-increasing tail sequence.

    The graph is the incomparability graph of `poset`, ordered by the poset.
    """
    return coeff_report(incomparability_graph(poset), poset, lam, "tail").value


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
    threes = twos = ones = 0
    for part in lam:
        if part > 3:
            return None
        if part == 3:
            threes += 1
        elif part == 2:
            twos += 1
        else:
            ones += 1
    return threes, twos, ones


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
        return perm(beta, c) * nsp_chain_union((2,) * (beta - c))
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


def _poset_for_sides(graph: Graph) -> Poset:
    # sides hold consecutively numbered vertices, rank 0 the chain minimum
    return Poset.chain_union([len(s) for s in graph.sides])


def _pick_route(graph: Graph, route: str) -> str:
    """Resolve ``auto``: closed forms where they apply, ``ww`` otherwise."""
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}, got {route!r}")
    if route != "auto":
        return route
    return "closed" if _closed_family(graph) else "ww"


def coeff_report(graph: Graph, order, lam, route: str = "auto") -> CoeffReport:
    """Compute one coefficient, recording the route and, where the route
    enumerates tabloids, the positive and negative counts."""
    route = _pick_route(graph, route)
    lam = aspartition(lam)
    if route == "ww":
        return CoeffReport(lam, coeff_ww(graph, lam), "ww")
    if route == "oracle":
        value = monomial_to_schur(x_in_monomial(graph))[lam]
        return CoeffReport(lam, value, "oracle")
    if route == "closed":
        family = _closed_family(graph)
        if family is None:
            raise BadShapeError("closed forms only apply to sides (2^b) or (3, 2^b)")
        value = _closed_coeff(family, lam) if lam.n == graph.size else 0
        return CoeffReport(lam, value, "closed")
    if lam.n != graph.size:
        return CoeffReport(lam, 0, route)
    if route == "tail":
        if isinstance(order, Poset):
            poset = order
        elif graph.sides is not None:
            poset = _poset_for_sides(graph)
        else:
            raise OrderIncompatibleError(
                "the tail route needs the graph presented as inc(P) with its poset"
            )
        pos, neg = signed_g_tabloid_counts(graph, poset, lam, tail_filter=True)
        return CoeffReport(lam, pos - neg, "tail", (pos, neg))
    pos, neg = signed_g_tabloid_counts(graph, order, lam)
    return CoeffReport(lam, pos - neg, "tabloid", (pos, neg))


def _coefficients(graph: Graph, order, route: str):
    """Yield (shape, coefficient) over every shape in reverse-lexicographic
    order; ``ww`` reads one semi-ordered table for the whole pass and walks
    the shapes that key the graph's count table."""
    if route == "ww":
        weights, cap = _ww_weights(graph)
        for lam in _count_table(graph):
            yield lam, _ww_sum(weights, cap, lam)
        return
    for lam in partitions_of(graph.size):
        yield lam, coeff_report(graph, order, lam, route).value


def expand_schur(graph: Graph, order=None, route: str = "auto") -> SymFunc:
    """Full Schur expansion of the chromatic symmetric function of `graph`.

    Zero coefficients are omitted. The oracle route converts the whole
    monomial expansion in one Kostka solve.
    """
    route = _pick_route(graph, route)
    if route == "oracle":
        return monomial_to_schur(x_in_monomial(graph))
    coeffs = {lam: value for lam, value in _coefficients(graph, order, route) if value}
    return SymFunc("schur", graph.size, coeffs)


def positivity_scan(graph: Graph, order=None) -> ScanResult:
    """Scan all shapes in reverse-lexicographic order for a negative coefficient."""
    for lam, value in _coefficients(graph, order, _pick_route(graph, "auto")):
        if value < 0:
            return ScanResult(False, (lam, value))
    return ScanResult(True, None)
