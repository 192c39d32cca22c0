"""Command-line front end.

Subcommands: expand, coeff, classify, verify, tabloids, nsp, oracle-check.
JSON output is canonical (sorted keys, no spaces, decimal-string integers)
so that parsing and re-serializing an emitted document is byte-identical.
Exit codes: 0 success, 1 verification failure, 2 usage error.

The size budget lives here and nowhere else: library functions compute what
they are asked, and every command that does exhaustive work checks its size
against ``--max-vertices`` once, before that work starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from ._util import json_fields, json_ints
from .classifier import classify, verify_classification
from .errors import ChromsymError
from .oracle import (
    KostkaMatrix,
    coloring_count,
    enumerate_ssyt,
    kostka,
    monomial_to_schur,
    specialize_ones,
    x_in_monomial,
)
from .partitions import Partition, partitions_of, sort_to_partition
from .posets import Graph, Poset, incomparability_graph, multipartite
from .schur import ROUTES, coeff_report, expand_schur
from .sequences import nsp_chain_union
from .symfunc import SymFunc
from .tabloids import enumerate_srh_tabloids, render_ascii

DEFAULT_MAX_VERTICES = 12
ENV_MAX_VERTICES = "CHROMSYM_MAX_VERTICES"
ROUTE_HELP = (
    "coefficient route (default auto: closed forms for sides (2^b) and "
    "(3,2^b), ww from the stable-partition count table otherwise; tabloid "
    "and tail enumerate filled tabloids as cross-checks)"
)


class UsageError(Exception):
    """Bad flags or flag combinations; reported with exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, graph source, format, size budget,
    route, output.

    ``max_vertices`` is the one size budget (``--max-vertices``, else
    ``CHROMSYM_MAX_VERTICES``, else ``DEFAULT_MAX_VERTICES``) and must be
    positive. It bounds the vertices of a graph or type and the cells of a
    shape. At most one graph
    source may be given (commands that need a graph require exactly one; the
    loader enforces that part).
    """

    command: str
    graph_source: tuple[str, str] | None
    fmt: str
    max_vertices: int
    route: str
    output: str | None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        for dest, value in vars(args).items():
            # argparse (Python 3.11) reads `--flag=--` as an empty list
            if value == []:
                flag = "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
                raise UsageError(f"{flag}: expected a value, got '--'")
        max_vertices = getattr(args, "max_vertices", None)
        if max_vertices is None:
            max_vertices = _default_max_vertices()
        if max_vertices < 1:
            raise UsageError(f"--max-vertices must be positive, got {max_vertices}")
        sources = [
            (flag, value)
            for flag, value in (
                ("--multipartite", getattr(args, "multipartite", None)),
                ("--poset-json", getattr(args, "poset_json", None)),
                ("--graph-json", getattr(args, "graph_json", None)),
            )
            if value is not None
        ]
        if len(sources) > 1:
            raise UsageError(
                "exactly one of --multipartite, --poset-json, --graph-json is required"
            )
        return cls(
            command=args.command,
            graph_source=sources[0] if sources else None,
            fmt=getattr(args, "format", "json"),
            max_vertices=max_vertices,
            route=getattr(args, "route", "auto"),
            output=getattr(args, "output", None),
        )


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_parts(text: str, flag: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag}: expected comma-separated integers, got {text!r}") from exc


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}") from exc


def _default_max_vertices() -> int:
    raw = os.environ.get(ENV_MAX_VERTICES)
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"{ENV_MAX_VERTICES} must be an integer, got {raw!r}") from exc


def _load_graph(config: RunConfig) -> tuple[Graph, Poset | None, dict]:
    """Resolve the configured graph source."""
    if config.graph_source is None:
        raise UsageError(
            "exactly one of --multipartite, --poset-json, --graph-json is required"
        )
    flag, value = config.graph_source
    if flag == "--multipartite":
        parts = _parse_parts(value, flag)
        if not parts:
            raise UsageError("--multipartite needs at least one side size")
        try:
            graph, poset, _ = multipartite(parts)
        except (ChromsymError, ValueError) as exc:
            raise UsageError(f"--multipartite: {exc}") from exc
        return graph, poset, {"multipartite": parts}
    data = _read_json(value)
    if not isinstance(data, dict):
        raise UsageError(f"{flag}: expected a JSON object, got {type(data).__name__}")
    try:
        if "multipartite" in data:
            json_fields(data, ("multipartite",))
            parts = json_ints(data["multipartite"], "multipartite")
            graph, poset, _ = multipartite(parts)
            return graph, poset, {"multipartite": parts}
        if flag == "--poset-json":
            poset = Poset.from_json(data)
            return incomparability_graph(poset), poset, poset.to_json()
        graph = Graph.from_json(data)
        return graph, None, graph.to_json()
    except (ChromsymError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _emit(text: str, output: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_size(n: int, config: RunConfig):
    """Refuse, before any work, a graph or type of n vertices or a shape of n
    cells that is over the size budget."""
    if n > config.max_vertices:
        raise UsageError(f"size {n} is above --max-vertices {config.max_vertices}")


def _cmd_expand(args, config: RunConfig) -> int:
    graph, poset, source = _load_graph(config)
    _check_size(graph.size, config)
    if config.fmt == "ascii":
        raise UsageError("--format ascii is not supported for expand")
    func = expand_schur(graph, poset, config.route)
    if config.fmt == "csv":
        lines = [
            f"{','.join(str(p) for p in lam.parts)};{value}"
            for lam, value in func.items()
        ]
        _emit("\n".join(lines) + "\n" if lines else "\n", config.output)
        return 0
    payload = func.to_json()
    payload["graph"] = source
    _emit(canonical_json(payload), config.output)
    return 0


def _cmd_coeff(args, config: RunConfig) -> int:
    graph, poset, source = _load_graph(config)
    _check_size(graph.size, config)
    if config.fmt != "json":
        raise UsageError("coeff only supports --format json")
    report = coeff_report(graph, poset, _parse_lambda(args.lam), config.route)
    payload = report.to_json()
    payload["graph"] = source
    _emit(canonical_json(payload), config.output)
    return 0


def _parse_lambda(text: str, flag: str = "--lambda") -> Partition:
    parts = _parse_parts(text, flag)
    try:
        return Partition(sorted(parts, reverse=True))
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _cmd_classify(args, config: RunConfig) -> int:
    lam = _parse_lambda(args.lam)
    if args.verify == "full":
        _check_size(lam.n, config)
    try:
        if args.verify:
            mode = "witness" if args.verify == "witness" else "full_scan"
            report = verify_classification(lam, mode)
        else:
            report = classify(lam)
    except ChromsymError as exc:
        raise UsageError(str(exc)) from exc
    _emit(canonical_json(report.to_json()), config.output)
    return 0 if not args.verify or report.verified else 1


def _cmd_verify(args, config: RunConfig) -> int:
    lam = _parse_lambda(args.lam)
    if args.mode == "full":
        _check_size(lam.n, config)
    mode = "witness" if args.mode == "witness" else "full_scan"
    try:
        report = verify_classification(lam, mode)
    except ChromsymError as exc:
        raise UsageError(str(exc)) from exc
    _emit(canonical_json(report.to_json()), config.output)
    return 0 if report.verified else 1


def _cmd_tabloids(args, config: RunConfig) -> int:
    shape = _parse_lambda(args.shape, "--shape")
    _check_size(shape.n, config)
    tabloids = enumerate_srh_tabloids(shape)
    if config.fmt == "ascii":
        blocks = []
        for i, t in enumerate(tabloids, start=1):
            content = ",".join(str(x) for x in t.content)
            sign = "+1" if t.sign > 0 else "-1"
            blocks.append(f"[{i}] sign={sign} content=[{content}]\n{render_ascii(t)}")
        _emit("\n\n".join(blocks) + "\n", config.output)
        return 0
    if config.fmt != "json":
        raise UsageError("tabloids supports --format json or ascii")
    payload = {
        "shape": shape.to_json(),
        "count": len(tabloids),
        "tabloids": [t.to_json() for t in tabloids],
    }
    _emit(canonical_json(payload), config.output)
    return 0


def _cmd_nsp(args, config: RunConfig) -> int:
    lam = _parse_lambda(args.lam)
    _emit(str(nsp_chain_union(lam.parts)), config.output)
    return 0


def _oracle_checks(max_n: int):
    from .oracle import schur_to_monomial
    from .partitions import dominates
    from .posets import stable_partition_count, stable_partition_count_backtracking
    from .sequences import nsp_bruteforce
    from .tabloids import enumerate_srh_tabloids as _tabs

    def kostka_unitriangular():
        for n in range(max_n + 1):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    k = kostka(lam, mu)
                    if lam == mu and k != 1:
                        return False
                    if k and not dominates(lam, mu):
                        return False
        return True

    def kostka_matches_enumeration():
        for n in range(max_n + 1):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    if kostka(lam, mu) != sum(1 for _ in enumerate_ssyt(lam, mu.parts)):
                        return False
        return True

    def inverse_kostka_census():
        for n in range(1, max_n + 1):
            inv = KostkaMatrix(n).inverse()
            census = {}
            for lam in partitions_of(n):
                for t in _tabs(lam):
                    key = (sort_to_partition(t.content), lam)
                    census[key] = census.get(key, 0) + t.sign
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    if inv.get((mu, lam), 0) != census.get((mu, lam), 0):
                        return False
        return True

    def round_trip():
        for n in range(max_n + 1):
            for lam in partitions_of(n):
                f = SymFunc("schur", n, {lam: 1})
                if monomial_to_schur(schur_to_monomial(f)) != f:
                    return False
        return True

    def route_agreement():
        targets = [(2, 2), (3, 1), (3, 2)]
        for parts in targets:
            graph, poset, _ = multipartite(parts)
            truth = monomial_to_schur(x_in_monomial(graph))
            for mu in partitions_of(graph.size):
                reports = [
                    coeff_report(graph, poset, mu, route).value
                    for route in ("auto", "ww", "tabloid", "tail")
                ]
                if any(v != truth[mu] for v in reports):
                    return False
        poset = Poset(
            6, [(0, 1), (1, 5), (0, 2), (2, 4), (3, 2), (1, 4)], list("abcdef")
        )
        graph = incomparability_graph(poset)
        truth = monomial_to_schur(x_in_monomial(graph))
        for mu in partitions_of(6):
            for route in ("auto", "tail"):
                if coeff_report(graph, poset, mu, route).value != truth[mu]:
                    return False
        return True

    def coloring_specialization():
        for parts in [(2, 1), (2, 2), (3, 1), (2, 2, 1)]:
            graph, poset, _ = multipartite(parts)
            func = expand_schur(graph, poset)
            for q in range(4):
                if specialize_ones(func, q) != coloring_count(graph, q):
                    return False
        return True

    def count_table_agreement():
        for n in range(min(max_n, 5) + 1):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for chosen in range(1 << len(pairs)):
                graph = Graph(n, [e for i, e in enumerate(pairs) if (chosen >> i) & 1])
                for mu in partitions_of(n):
                    if stable_partition_count(graph, mu) != (
                        stable_partition_count_backtracking(graph, mu)
                    ):
                        return False
        return True

    def nsp_agreement():
        return all(
            nsp_chain_union(lam.parts) == nsp_bruteforce(Poset.chain_union(lam.parts))
            for n in range(max_n + 1)
            for lam in partitions_of(n)
        )

    return [
        ("kostka unitriangular", kostka_unitriangular),
        ("kostka matches tableau enumeration", kostka_matches_enumeration),
        ("inverse kostka matches signed tabloid census", inverse_kostka_census),
        ("schur/monomial round trip", round_trip),
        ("coefficient routes agree", route_agreement),
        ("expansion counts proper colorings", coloring_specialization),
        ("chain-union sequence count matches brute force", nsp_agreement),
        ("count table agrees with backtracking", count_table_agreement),
    ]


def _cmd_oracle_check(args, config: RunConfig) -> int:
    failures = 0
    lines = []
    for name, check in _oracle_checks(args.max_n):
        ok = check()
        failures += 0 if ok else 1
        lines.append(f"{'ok  ' if ok else 'FAIL'}  {name}")
    _emit("\n".join(lines), config.output)
    return 1 if failures else 0


def _add_graph_flags(sub):
    sub.add_argument("--multipartite", help="side sizes, e.g. 3,2,2")
    sub.add_argument("--poset-json", help="path to poset JSON ('-' for stdin)")
    sub.add_argument("--graph-json", help="path to graph JSON ('-' for stdin)")


def _add_common_flags(sub, formats=("json",)):
    sub.add_argument("--format", default="json", choices=formats)
    sub.add_argument("--output", help="write to a file instead of stdout")
    sub.add_argument(
        "--max-vertices",
        type=int,
        default=None,
        help=(
            "size budget: vertices of the graph or type, cells of the shape "
            f"(default {DEFAULT_MAX_VERTICES}, env {ENV_MAX_VERTICES})"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromsym",
        description="Exact Schur expansions of chromatic symmetric functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="full Schur expansion of a graph")
    _add_graph_flags(p)
    _add_common_flags(p, formats=("json", "csv", "ascii"))
    p.add_argument("--route", default="auto", choices=ROUTES, help=ROUTE_HELP)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("coeff", help="one Schur coefficient of a graph")
    _add_graph_flags(p)
    _add_common_flags(p)
    p.add_argument("--lambda", dest="lam", required=True, help="target shape, e.g. 2,2")
    p.add_argument("--route", default="auto", choices=ROUTES, help=ROUTE_HELP)
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("classify", help="Schur-positivity verdict for K_lambda")
    _add_common_flags(p)
    p.add_argument("--lambda", dest="lam", required=True, help="side sizes, e.g. 5,4,4,4")
    p.add_argument("--verify", choices=("witness", "full"))
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="check a verdict's certificate or rescan")
    _add_common_flags(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mode", default="witness", choices=("witness", "full"))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tabloids", help="list special rim hook tabloids of a shape")
    _add_common_flags(p, formats=("json", "ascii"))
    p.add_argument("--shape", required=True, help="shape, e.g. 4,2,2")
    p.set_defaults(func=_cmd_tabloids)

    p = sub.add_parser("nsp", help="spanning non-increasing sequence count of K_lambda")
    _add_common_flags(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(func=_cmd_nsp)

    p = sub.add_parser("oracle-check", help="run the cross-validation battery")
    _add_common_flags(p)
    p.add_argument("--max-n", type=int, default=5)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.from_args(args)
        return args.func(args, config)
    except UsageError as exc:
        print(f"chromsym: error: {exc}", file=sys.stderr)
        return 2
    except ChromsymError as exc:
        print(f"chromsym: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
