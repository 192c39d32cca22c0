"""Benchmark of the chromsym command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload kgraph-expand --seed 1 --seconds 25 --trace 0

Each operation is one `chromsym.cli.main(argv)` call with stdout captured,
made in a child forked after `import chromsym`, so that every operation
starts with the package's cache tables empty, as a fresh `chromsym`
invocation does. Operations run one at a time. A pass runs the workload's
operation list once; passes repeat for about `--seconds`, and every
pass's outputs are checked by `checks.py`, which does not use chromsym.

With `--trace 0` the last line of stdout is a JSON object carrying the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
`spans.py`. Details of both runs go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # before the passes; one more is taken before each pass


CPU_TURNS = itertools.cycle(sorted(os.sched_getaffinity(0)))


def fork_call(fn):
    """Run fn() in a forked child; return its JSON-able result and the
    child's peak resident set in MiB.

    Children take the allowed CPUs in turn: on a shared host one CPU can run
    much slower than another for tens of seconds, and rotating spreads every
    pass over all of them instead of letting one CPU's state set a whole run.
    """
    cpu = next(CPU_TURNS)
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            os.sched_setaffinity(0, {cpu})
            try:
                data = json.dumps(fn()).encode()
            except BaseException:
                data = json.dumps({"error": traceback.format_exc()}).encode()
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if not data:
        return {"error": f"child ended with wait status {status} and no result"}, 0.0
    return json.loads(data), usage.ru_maxrss / 1024


def set_up(workload: str, seed: int):
    """Import chromsym, then generate and write the workload's inputs."""
    t0 = time.perf_counter()
    import chromsym.cli  # noqa: F401  (the import is part of what is timed)

    built = workloads.build(workload, seed, OUT / f"inputs-{workload}-{seed}")
    return time.perf_counter() - t0, built


def invoke(argv: list[str], tracing: bool) -> dict:
    """Body of an operation's child: one cli.main call, stdout captured."""
    cli = sys.modules["chromsym.cli"]  # looked up here so a traced main is used
    if tracing:
        spans.reset()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
        seconds = time.perf_counter() - t0
    result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": seconds}
    if tracing:
        result["summary"] = spans.op_summary(spans.recorder)
        result["spans"] = spans.recorder.spans
    return result


def run_op(op, tracing: bool):
    result, rss = fork_call(lambda: invoke(op.argv, tracing))
    if "error" not in result and result["code"] != 0:
        result["error"] = f"exit code {result['code']}: {result['stderr'].strip()}"
    return result, rss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "chromsym" / "__init__.py").is_file():
        print(f"perfbench: no chromsym sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)

    setup_samples = []

    def sample_setup():
        # in a child that drops any chromsym modules, so the whole import is timed
        def child():
            for name in [n for n in sys.modules if n.split(".")[0] == "chromsym"]:
                del sys.modules[name]
            return {"seconds": set_up(args.workload, args.seed)[0]}

        sample, _ = fork_call(child)
        if "error" in sample:
            raise SystemExit(f"set-up failed: {sample['error']}")
        setup_samples.append(sample["seconds"])

    for _ in range(SETUP_SAMPLES):
        sample_setup()
    _, (ops, references) = set_up(args.workload, args.seed)
    wrapped = spans.install() if args.trace else []

    correct = True
    expansions: dict = {}  # graph name -> checked oracle expansion, for coeff checks
    problems_seen: dict = {}  # identical outputs of one command are checked once

    def check(op, text) -> list[str]:
        key = (op.argv, text)
        if key not in problems_seen:
            try:
                problems_seen[key] = op.problems(text, expansions)
            except (ValueError, KeyError, TypeError) as exc:
                problems_seen[key] = [f"unreadable output: {exc!r}"]
        return problems_seen[key]

    # reference expansions are computed and checked before the timed passes
    for ref in references:
        result, _ = run_op(ref, False)
        problems = [result["error"]] if "error" in result else check(ref, result["stdout"])
        if problems:
            correct = False
            print(f"reference {' '.join(ref.argv)}: {problems}", file=sys.stderr)
        else:
            expansions[ref.graph.name] = checks.parse_expansion(result["stdout"])

    passes = []
    attempted = failed = 0
    start = time.perf_counter()
    # stop when another pass would more likely end after the deadline than before it
    while not passes or time.perf_counter() - start + passes[-1]["ladder_s"] / 2 < args.seconds:
        sample_setup()  # more samples, spread over the run like the passes
        t0 = time.perf_counter()
        results = [run_op(op, bool(args.trace)) for op in ops]
        ladder = time.perf_counter() - t0
        done = {"ladder_s": ladder, "ops": [], "summaries": [], "spans": []}
        for op, (result, rss) in zip(ops, results):
            attempted += 1
            command = " ".join(op.argv)
            if "error" in result:
                failed += 1
                print(f"failed: {command}: {result['error']}", file=sys.stderr)
                continue
            problems = check(op, result["stdout"])
            if problems:
                correct = False
                print(f"wrong: {command}: {problems}", file=sys.stderr)
            done["ops"].append({"command": command, "seconds": result["seconds"], "rss_mb": rss})
            if args.trace:
                done["summaries"].append((op.label, result["summary"]))
                if not passes:  # the spans of the first pass are written out
                    done["spans"].append({"command": command, "spans": result["spans"]})
        passes.append(done)

    latencies = [o["seconds"] for p in passes for o in p["ops"]]
    end_to_end = {
        "ladder_s": (statistics.median(p["ladder_s"] for p in passes), "s"),
        "latency_p50_s": (statistics.median(latencies) if latencies else 0.0, "s"),
        "peak_rss_mb": (max((o["rss_mb"] for p in passes for o in p["ops"]), default=0.0), "MiB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }
    per_layer = {}
    if args.trace:
        by_pass = [spans.pass_metrics([s for _, s in p["summaries"]], wrapped) for p in passes]
        units = dict(spans.METRICS)
        per_layer = {
            name: (statistics.median(m[name] for m in by_pass), units[name])
            for name in by_pass[0]
        }

    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(ops)} operations, "
        f"attempted {attempted}, failed {failed}, outputs {'correct' if correct else 'WRONG'}"
    )
    for name, (value, unit) in end_to_end.items():
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        print_layer_shares(passes[0]["summaries"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples": setup_samples,
        "passes": [{"ladder_s": p["ladder_s"], "ops": p["ops"]} for p in passes],
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
    }
    if args.trace:
        record["spans_first_pass"] = passes[0]["spans"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n", encoding="utf-8")

    metrics = per_layer if args.trace else end_to_end
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def print_layer_shares(summaries):
    """Self time by layer, as shares of the time in cli.main of the whole pass
    and of each operation group."""
    groups: dict[str, list] = {"all operations": [s for _, s in summaries]}
    for label, summary in summaries:
        groups.setdefault(label, []).append(summary)
    for label, group in groups.items():
        layers = spans.layer_self_time(group)
        total = sum(layers.values()) or 1.0
        shares = ", ".join(
            f"{layer} {100 * t / total:.1f}%"
            for layer, t in sorted(layers.items(), key=lambda kv: -kv[1])
        )
        print(f"  self time [{label}] ({len(group)} ops, {total:.3f} s): {shares}")


if __name__ == "__main__":
    sys.exit(main())
