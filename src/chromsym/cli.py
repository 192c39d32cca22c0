"""Command-line front end.

Subcommands: expand, coeff, classify, verify, tabloids, nsp, oracle-check.
JSON output is canonical (sorted keys, no spaces, decimal-string integers)
so that parsing and re-serializing an emitted document is byte-identical.
Exit codes: 0 success, 1 verification failure, 2 usage error.

One table, ``COMMANDS``, holds each command's handler, flags and required
flags; ``_parse_args`` reads a command line against it and ``_help`` writes
``-h``/``--help`` from it. Flags are spelled in full (no prefix matching),
and both ``--flag VALUE`` and ``--flag=VALUE`` work, so a value may start
with a dash (``--lambda -1,5``, ``--lambda --``). Every usage error, whether
from the command line or from its values, is one ``chromsym: error: ...``
line on stderr with exit 2; help goes to stdout with exit 0.

The size budget lives here and nowhere else: library functions compute what
they are asked, and every command that does exhaustive work checks its size
against ``--max-vertices`` once, before that work starts. A graph source is
checked on the size it declares, before any graph, poset or side of that
size is built; ``oracle-check`` checks ``--max-n``. ``nsp`` counts in
polynomial time and takes no budget.
"""

from __future__ import annotations

import errno
import json
import os
import sys
from types import SimpleNamespace

from ._util import json_fields, json_ints
from .classifier import classify, verify_classification
from .errors import ChromsymError
from .partitions import Partition
from .posets import Graph, Poset, incomparability_graph, multipartite
from .schur import ROUTES, coeff_report, expand_schur
from .sequences import nsp_chain_union
from .tabloids import enumerate_srh_tabloids, render_ascii

DEFAULT_MAX_VERTICES = 12
ENV_MAX_VERTICES = "CHROMSYM_MAX_VERTICES"
ONE_SOURCE = "exactly one of --multipartite, --poset-json, --graph-json is required"


class UsageError(Exception):
    """Bad flags or flag combinations; reported with exit code 2."""


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


def _unique_keys(pairs) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"key {json.dumps(key)} given twice")
        data[key] = value
    return data


def _read_json(path: str) -> dict:
    """The document at `path` ('-' for stdin) as strict UTF-8, each key once per object."""
    try:
        if path == "-":
            # a text stream, which has no bytes, stands in for stdin in tests
            raw = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}") from exc


def _default_max_vertices() -> int:
    raw = os.environ.get(ENV_MAX_VERTICES)
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"{ENV_MAX_VERTICES} must be an integer, got {raw!r}") from exc


def _load_graph(args) -> tuple[Graph, dict]:
    """Resolve the command line's one graph source, checking the size it
    declares against the budget before anything of that size is built."""
    if args.graph_source is None:
        raise UsageError(ONE_SOURCE)
    flag, value = args.graph_source
    if flag == "--multipartite":
        parts = _parse_parts(value, flag)
        if not parts:
            raise UsageError("--multipartite needs at least one side size")
        data = {"multipartite": parts}
    else:
        data = _read_json(value)
        if not isinstance(data, dict):
            raise UsageError(f"{flag}: expected a JSON object, got {type(data).__name__}")
    try:
        if "multipartite" in data:
            json_fields(data, ("multipartite",))
            # the sides in any order, as --lambda takes them
            parts = sorted(json_ints(data["multipartite"], "multipartite"), reverse=True)
            lam = Partition(parts)
            _check_size(lam.n, args)
            return multipartite(lam), {"multipartite": parts}
        # from_json reports an n that is missing or not an integer
        if type(data.get("n")) is int:
            _check_size(data["n"], args)
        if flag == "--poset-json":
            poset = Poset.from_json(data)
            return incomparability_graph(poset), poset.to_json()
        graph = Graph.from_json(data)
        return graph, graph.to_json()
    except (ChromsymError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _emit(text: str, args):
    """Write the result to ``--output`` if given, else to stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc}") from exc


def _check_output(path: str):
    """Refuse, before any work, an ``--output`` path that cannot be written.

    Nothing is opened here, so a run that fails later leaves an existing
    file as it was; :func:`_emit` still reports a write that fails anyway.
    """
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = errno.EISDIR
    elif not os.path.isdir(parent):
        reason = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {path}: {os.strerror(reason)}")


def _check_size(n: int, args):
    """Refuse, before any work, a graph or type of n vertices or a shape of n
    cells that is over the size budget."""
    if n > args.max_vertices:
        raise UsageError(f"size {n} is above --max-vertices {args.max_vertices}")


def _cmd_expand(args) -> int:
    graph, source = _load_graph(args)
    func = expand_schur(graph, args.route)
    if args.format == "csv":
        lines = [f"{','.join(map(str, lam))};{value}" for lam, value in func.items()]
        _emit("\n".join(lines) + "\n" if lines else "\n", args)
        return 0
    payload = func.to_json()
    payload["graph"] = source
    _emit(canonical_json(payload), args)
    return 0


def _cmd_coeff(args) -> int:
    graph, source = _load_graph(args)
    report = coeff_report(graph, _parse_lambda(args.lam), args.route)
    payload = report.to_json()
    payload["graph"] = source
    _emit(canonical_json(payload), args)
    return 0


def _parse_lambda(text: str, flag: str = "--lambda") -> Partition:
    parts = _parse_parts(text, flag)
    try:
        return Partition(sorted(parts, reverse=True))
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _verdict(args, check: str | None) -> int:
    """Print K_lambda's verdict, checked in mode ``check`` (``witness`` or
    ``full``) unless it is None; exit 1 when a check does not confirm it."""
    lam = _parse_lambda(args.lam)
    if check == "full":
        _check_size(lam.n, args)
    if check:
        report = verify_classification(lam, check)
    else:
        report = classify(lam)
    _emit(canonical_json(report.to_json()), args)
    return 0 if not check or report.verified else 1


def _cmd_classify(args) -> int:
    return _verdict(args, args.verify)


def _cmd_verify(args) -> int:
    return _verdict(args, args.mode)


def _cmd_tabloids(args) -> int:
    shape = _parse_lambda(args.shape, "--shape")
    _check_size(shape.n, args)
    tabloids = enumerate_srh_tabloids(shape)
    if args.format == "ascii":
        blocks = []
        for i, t in enumerate(tabloids, start=1):
            content = ",".join(str(x) for x in t.content)
            sign = "+1" if t.sign > 0 else "-1"
            blocks.append(f"[{i}] sign={sign} content=[{content}]\n{render_ascii(t)}")
        _emit("\n\n".join(blocks) + "\n", args)
        return 0
    payload = {
        "shape": shape.to_json(),
        "count": len(tabloids),
        "tabloids": [t.to_json() for t in tabloids],
    }
    _emit(canonical_json(payload), args)
    return 0


def _cmd_nsp(args) -> int:
    _emit(str(nsp_chain_union(_parse_lambda(args.lam))), args)
    return 0


def _cmd_oracle_check(args) -> int:
    from .selfcheck import CHECKS

    if args.max_n < 0:
        raise UsageError(f"--max-n must be nonnegative, got {args.max_n}")
    _check_size(args.max_n, args)
    failures = 0
    lines = []
    for name, check in CHECKS:
        ok = check(args.max_n)
        failures += 0 if ok else 1
        lines.append(f"{'ok  ' if ok else 'FAIL'}  {name}")
    _emit("\n".join(lines), args)
    return 1 if failures else 0


GRAPH_FLAGS = {"--multipartite": str, "--poset-json": str, "--graph-json": str}
COMMON_FLAGS = {"--output": str, "--max-vertices": int}

# command: (handler, summary, {flag: str | int | tuple of choices}, required flags)
COMMANDS = {
    "expand": (
        _cmd_expand,
        "full Schur expansion of a graph",
        {**GRAPH_FLAGS, "--route": ROUTES, "--format": ("json", "csv"), **COMMON_FLAGS},
        (),
    ),
    "coeff": (
        _cmd_coeff,
        "one Schur coefficient of a graph",
        {**GRAPH_FLAGS, "--lambda": str, "--route": ROUTES, "--format": ("json",), **COMMON_FLAGS},
        ("--lambda",),
    ),
    "classify": (
        _cmd_classify,
        "Schur-positivity verdict for K_lambda",
        {"--lambda": str, "--verify": ("witness", "full"), "--format": ("json",), **COMMON_FLAGS},
        ("--lambda",),
    ),
    "verify": (
        _cmd_verify,
        "check a verdict's certificate or rescan",
        {"--lambda": str, "--mode": ("witness", "full"), "--format": ("json",), **COMMON_FLAGS},
        ("--lambda",),
    ),
    "tabloids": (
        _cmd_tabloids,
        "list special rim hook tabloids of a shape",
        {"--shape": str, "--format": ("json", "ascii"), **COMMON_FLAGS},
        ("--shape",),
    ),
    "nsp": (
        _cmd_nsp,
        "spanning non-increasing sequence count of K_lambda",
        {"--lambda": str, "--format": ("json",), "--output": str},
        ("--lambda",),
    ),
    "oracle-check": (
        _cmd_oracle_check,
        "run the cross-validation battery",
        {"--max-n": int, **COMMON_FLAGS},
        (),
    ),
}
DEFAULTS = {"--format": "json", "--route": "auto", "--mode": "witness", "--max-n": 5}
FLAG_HELP = {
    "--multipartite": "side sizes of a complete multipartite graph, e.g. 3,2,2",
    "--poset-json": "path to poset JSON ('-' for stdin)",
    "--graph-json": "path to graph JSON ('-' for stdin)",
    "--lambda": "a partition, e.g. 5,4,4,4: the target shape for coeff, the side sizes otherwise",
    "--shape": "shape, e.g. 4,2,2",
    "--route": (
        "coefficient route; auto takes the closed forms for sides (2^b) and (3,2^b) "
        "and ww from the stable-partition count table otherwise; tabloid and tail "
        "enumerate filled tabloids as cross-checks"
    ),
    "--verify": "also check the verdict: its witness, or a full scan",
    "--mode": "witness checks the verdict's certificate, full rescans every coefficient",
    "--max-n": "largest n the battery sweeps",
    "--format": "output format",
    "--output": "write to a file instead of stdout",
    "--max-vertices": (
        "size budget: vertices of the graph or type, cells of the shape, "
        f"oracle-check's --max-n (default {DEFAULT_MAX_VERTICES}, env {ENV_MAX_VERTICES}); "
        "the ww route, which auto picks off the closed families and full scans run, "
        "counts at most 255 vertices"
    ),
}
HELP_FLAGS = ("-h", "--help")
USAGE_NOTE = (
    "Flags are spelled in full; --flag VALUE and --flag=VALUE both work.\n"
    "Exit codes: 0 success, 1 verification failure, 2 usage error (one stderr line).\n"
)


def _help(command: str | None) -> str:
    """Help text for chromsym (command None) or for one command, from COMMANDS."""
    if command is None:
        width = max(map(len, COMMANDS))
        rows = "".join(f"  {name:<{width}}  {entry[1]}\n" for name, entry in COMMANDS.items())
        return (
            "usage: chromsym COMMAND [--flag VALUE ...]\n\n"
            "Exact Schur expansions of chromatic symmetric functions\n\n"
            f"commands:\n{rows}\n{USAGE_NOTE}"
            "Run chromsym COMMAND --help for the flags of one command.\n"
        )
    _, summary, kinds, required = COMMANDS[command]
    rows = []
    for flag, kind in kinds.items():
        value = {str: "TEXT", int: "N"}.get(kind) or "{" + ",".join(kind) + "}"
        if flag in required:
            value += " (required)"
        elif DEFAULTS.get(flag) is not None:
            value += f" (default {DEFAULTS[flag]})"
        rows.append(f"  {flag} {value}\n      {FLAG_HELP[flag]}\n")
    return (
        f"usage: chromsym {command} [--flag VALUE ...]\n\n{summary}\n\n"
        f"flags:\n{''.join(rows)}\n{USAGE_NOTE}"
    )


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """Read ``COMMAND (--flag VALUE | --flag=VALUE)...`` against COMMANDS.

    A repeated flag keeps its last value. The result carries ``command`` and
    one attribute per flag of the command (``--lambda`` as ``lam``,
    ``--max-n`` as ``max_n``), unset ones holding their default or None.
    ``max_vertices`` (``--max-vertices``, else ``CHROMSYM_MAX_VERTICES``,
    else ``DEFAULT_MAX_VERTICES``) must be positive. ``graph_source`` is the
    one ``(flag, value)`` graph source given, or None; giving two is an error.
    """
    if not argv or argv[0] not in COMMANDS:
        got = f", got {argv[0]!r}" if argv else ""
        raise UsageError(f"expected a command, one of {', '.join(COMMANDS)}{got}")
    command = argv[0]
    _, _, kinds, required = COMMANDS[command]
    values = {flag: DEFAULTS.get(flag) for flag in kinds}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in kinds:
            raise UsageError(f"{command}: unknown flag {flag!r}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"{flag}: expected a value")
        kind = kinds[flag]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{flag}: expected an integer, got {value!r}") from None
        elif kind is not str and value not in kind:
            raise UsageError(f"{flag}: expected one of {', '.join(kind)}, got {value!r}")
        values[flag] = value
    for flag in required:
        if values[flag] is None:
            raise UsageError(f"{flag} is required")
    if "--max-vertices" in kinds:
        if values["--max-vertices"] is None:
            values["--max-vertices"] = _default_max_vertices()
        if values["--max-vertices"] < 1:
            raise UsageError(f"--max-vertices must be positive, got {values['--max-vertices']}")
    sources = [(flag, values[flag]) for flag in GRAPH_FLAGS if values.get(flag) is not None]
    if len(sources) > 1:
        raise UsageError(ONE_SOURCE)
    return SimpleNamespace(
        command=command,
        graph_source=sources[0] if sources else None,
        **{"lam" if f == "--lambda" else f[2:].replace("-", "_"): v for f, v in values.items()},
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if hasattr(sys, "set_int_max_str_digits"):  # values past 4,300 digits print
        sys.set_int_max_str_digits(0)
    # -h or --help anywhere asks for help, even where a value was expected
    if any(token in HELP_FLAGS for token in argv):
        sys.stdout.write(_help(argv[0] if argv[0] in COMMANDS else None))
        return 0
    try:
        args = _parse_args(argv)
        if args.output:
            _check_output(args.output)
        return COMMANDS[args.command][0](args)
    except (UsageError, ChromsymError) as exc:
        print(f"chromsym: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
