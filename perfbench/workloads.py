"""Seeded inputs of the four workloads.

Every workload is a fixed list of strata. A stratum names an input family,
a size range and a command; the seed draws its members from a pool. Pools
hold inputs of similar cost today (see README.md), so that passes drawn from
different seeds do comparable work and the run-to-run spread of the metrics
stays small. The benchmark, not chromsym, writes the input files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import checks

NAMES = ("kgraph-expand", "coeff-query", "uio-expand", "classify-verify")


@dataclass(frozen=True)
class GraphInput:
    """K_sides, or the natural unit interval order given by `reach`."""

    name: str
    sides: tuple | None = None
    reach: tuple | None = None
    path: str | None = None

    def flags(self) -> list[str]:
        if self.sides:
            return ["--multipartite", _csv(self.sides)]
        return ["--poset-json", self.path]

    def adj(self) -> list[int]:
        if self.sides:
            return checks.multipartite_adj(self.sides)
        return checks.uio_adj(self.reach)


@dataclass(frozen=True)
class Op:
    """One command-line call and what its output is checked against."""

    label: str
    argv: tuple
    kind: str  # "expand", "coeff" or "verdict"
    graph: GraphInput | None = None
    shape: tuple | None = None  # the coefficient a coeff call asks for
    sides: tuple | None = None  # the type a verdict is about

    def problems(self, text: str, expansions: dict) -> list[str]:
        """Problems with this operation's stdout; `expansions` holds the
        checked oracle expansion of each graph a coeff call is made on."""
        problems = checks.canonical_problems(text)
        if problems:
            return problems
        if self.kind == "expand":
            coeffs = checks.parse_expansion(text)
            return checks.expansion_problems(coeffs, self.graph.adj()) + checks.sign_problems(
                coeffs, self.graph.sides
            )
        if self.kind == "coeff":
            data = json.loads(text)
            if tuple(data["lambda"]) != self.shape:
                return [f"coefficient of {data['lambda']} returned for {self.shape}"]
            want = expansions[self.graph.name].get(self.shape, 0)
            if int(data["value"]) != want:
                return [f"coefficient {data['value']} differs from the oracle's {want}"]
            return []
        return checks.verdict_problems(text, self.sides)


def uio(n: int, width: int, wide: int, rng: random.Random, inputs: Path) -> GraphInput:
    """A natural unit interval order on 0..n-1 in which i is incomparable to
    the next `width` elements, or to `width + 1` for `wide` seeded elements.

    Only elements whose widened reach stays inside 0..n-1 are drawn, so every
    seed widens exactly `wide` elements and the cost of the graph varies
    little from seed to seed.
    """
    return _uio(n, width, set(rng.sample(range(n - width - 1), wide)), inputs)


def _uio(n: int, width: int, chosen: set, inputs: Path) -> GraphInput:
    reach = tuple(min(n - 1, i + width + (i in chosen)) for i in range(n))
    name = f"uio-{n}-" + "".join(str(r - i) for i, r in enumerate(reach))
    path = inputs / f"{name}.json"
    covers = [[i, j] for i in range(n) for j in range(reach[i] + 1, n)]
    path.write_text(json.dumps({"n": n, "covers": covers}) + "\n", encoding="utf-8")
    return GraphInput(name, reach=reach, path=str(path))


def multipartite(sides) -> GraphInput:
    sides = tuple(sides)
    return GraphInput("K_" + _csv(sides), sides=sides)


def _csv(parts) -> str:
    return ",".join(map(str, parts))


def _expand(label: str, graph: GraphInput, *route: str) -> Op:
    return Op(label, ("expand", *graph.flags(), *route), "expand", graph)


def _coeff(label: str, graph: GraphInput, shape: tuple) -> Op:
    argv = ("coeff", *graph.flags(), "--lambda", _csv(shape))
    return Op(label, argv, "coeff", graph, shape=shape)


def _verdict(label: str, sides: tuple, *command: str) -> Op:
    return Op(label, (*command, "--lambda", _csv(sides)), "verdict", sides=sides)


def _shapes(n: int, length: int, largest: int) -> list[tuple]:
    return [p for p in checks.partitions_of(n, largest) if len(p) == length]


# kgraph-expand: closed-form types as the control, beside non-closed types
# that the default route sends to the tail tabloid enumeration
K_CLOSED = [(3, 2, 2), (2, 2, 2, 2), (3, 2, 2, 2)]
K_TAIL_8_LIGHT = [(6, 2), (5, 3), (5, 2, 1), (4, 4)]
K_TAIL_8_HEAVY = [(4, 3, 1), (3, 3, 2), (4, 2, 2), (2, 2, 2, 1, 1)]
K_TAIL_9 = [(3, 3, 3), (4, 3, 2), (3, 3, 2, 1), (4, 2, 2, 1)]

# coeff-query: every pass asks each of these graphs, and the three unit
# interval orders below, for every shape of the middle length (largest part
# at most n - length) and for one seeded shape of each outer length. The
# middle shapes hold the median call, so it does not hang on one draw.
K_COEFF = [(4, 3, 2), (3, 3, 3), (4, 3, 3), (4, 4, 2), (5, 3, 2), (3, 3, 2, 2)]
COEFF_LENGTHS = {9: (5, 6, 7), 10: (4, 5, 6), 11: (4, 5, 6), 12: (4, 5, None)}

# unit interval orders the oracle expands: (n, width, wide elements)
UIO_ORACLE = ((10, 5, 2), (11, 5, 3), (12, 7, 2))
# and those the ww route expands: two seeded (8, 2, 2), and every (9, 3, 1),
# which hold the median call; seeded (9, 3, *) orders differ twofold in cost
UIO_WW_SEEDED = ((8, 2, 2), (8, 2, 2))
UIO_WW_ALL = (9, 3)

# classify-verify pools
BIPARTITE_M = range(5, 16)  # (m, m-1) types; (4, 3) has no witness
THREE_TWO_BETA = range(4, 8)  # (3, 2^beta) closed-form scans, all in every pass
CONSTRUCTED = [  # negative types whose witness comes from a construction
    (4, 4, 4), (5, 5, 5), (6, 4, 4), (5, 3, 3), (7, 7, 6, 6), (6, 5, 5, 5), (9, 9, 9), (12, 5),
]
# full scans, n <= 10, pooled by cost; (2^5) and (2^6) are left out (see CHANGES.md)
FULL_POSITIVE_LONG = [(2, 2, 2, 1, 1), (2, 2, 1, 1, 1, 1), (2, 2, 2, 2)]
FULL_POSITIVE_SHORT = [(2, 2, 2, 1), (3, 2, 2), (2, 2, 1, 1, 1), (2, 1, 1, 1, 1, 1)]
FULL_NEGATIVE_LONG = [(3, 3, 3), (4, 3, 2), (6, 4)]
FULL_NEGATIVE_SHORT = [(5, 4), (3, 3, 2), (3, 2, 2, 1), (4, 4, 1), (5, 2, 2)]


def build(workload: str, seed: int, inputs: Path) -> tuple[list[Op], list[Op]]:
    """The workload's operation list and the reference operations whose
    outputs its checks need, for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    refs: list[Op] = []
    if workload == "kgraph-expand":
        for sides in rng.sample(K_CLOSED, 2):
            ops.append(_expand("expand closed", multipartite(sides)))
        tail = rng.sample(K_TAIL_8_LIGHT, 3) + rng.sample(K_TAIL_8_HEAVY, 2)
        for sides in tail + rng.sample(K_TAIL_9, 1):
            ops.append(_expand("expand tail", multipartite(sides)))
    elif workload == "coeff-query":
        graphs = [multipartite(s) for s in K_COEFF]
        graphs += [uio(*spec, rng, inputs) for spec in UIO_ORACLE]
        for graph in graphs:
            n = len(graph.adj())
            refs.append(_expand("oracle reference", graph, "--route", "oracle"))
            label = "coeff K" if graph.sides else "coeff uio"
            low, middle, high = COEFF_LENGTHS[n]
            shapes = _shapes(n, middle, n - middle) + [rng.choice(_shapes(n, low, n - low))]
            if high:
                shapes.append(rng.choice(_shapes(n, high, n - high)))
            ops.extend(_coeff(label, graph, shape) for shape in shapes)
    elif workload == "uio-expand":
        for spec in UIO_ORACLE:
            ops.append(_expand("expand oracle", uio(*spec, rng, inputs), "--route", "oracle"))
        graphs = [uio(*spec, rng, inputs) for spec in UIO_WW_SEEDED]
        n, width = UIO_WW_ALL
        graphs += [_uio(n, width, {i}, inputs) for i in range(n - width - 1)]
        for graph in graphs:
            ops.append(_expand("expand ww", graph, "--route", "ww"))
    elif workload == "classify-verify":
        for m in rng.sample(BIPARTITE_M, 3):
            ops.append(_verdict("classify witness", (m, m - 1), "classify", "--verify", "witness"))
        witness = [(3,) + (2,) * beta for beta in THREE_TWO_BETA] + rng.sample(CONSTRUCTED, 2)
        for sides in witness:
            ops.append(_verdict("verify witness", sides, "verify", "--mode", "witness"))
        full = rng.sample(FULL_POSITIVE_LONG, 2) + FULL_POSITIVE_SHORT
        full += rng.sample(FULL_NEGATIVE_LONG, 2) + rng.sample(FULL_NEGATIVE_SHORT, 4)
        for sides in full:
            ops.append(_verdict("verify full", sides, "verify", "--mode", "full"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops, refs
