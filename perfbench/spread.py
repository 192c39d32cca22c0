"""Repeat the benchmark over several seeds and summarize the spread.

    python3 perfbench/spread.py --workloads kgraph-expand,uio-expand --seeds 1-10 --seconds 25
    python3 perfbench/spread.py --seeds 1-4 --trace 1

Runs `run.py` once per (workload, seed), one run at a time, and prints per
metric the ten (or however many) values, their median, first and third
quartiles (`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) /
median. With --trace 1 it prints the per-layer medians and the tracing
overhead: the traced ladder_s minus the untraced one of the same seed, read
from the untraced run files left in perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values: list[float]) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return f"median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.NAMES))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        results = {}
        for seed in seed_list(args.seeds):
            results[seed] = run(workload, seed, args.seconds, args.trace)
            res = results[seed]
            line = "  ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}  {line if not args.trace else ''}", flush=True)
        names = list(next(iter(results.values()))["metrics"])
        print(f"== {workload} ({len(results)} seeds, {args.seconds:g} s runs, trace {args.trace})")
        for name in names:
            values = [r["metrics"][name]["value"] for r in results.values() if name in r["metrics"]]
            if args.trace:
                print(f"  {name:55s} median {statistics.median(values):.6g}")
            else:
                print(f"  {name:15s} {describe(values)}")
                print(f"  {'':15s} values {' '.join(f'{v:.5g}' for v in values)}")
        shares = {r["failed"] / r["attempted"] for r in results.values()}
        print(f"  failed share per run: {sorted(shares)}")
        if args.trace:
            overhead = []
            for seed in results:
                traced = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
                plain_path = HERE / "out" / f"{workload}-seed{seed}-trace0.json"
                if plain_path.exists():
                    plain = json.loads(plain_path.read_text())
                    overhead.append(traced["end_to_end"]["ladder_s"] - plain["end_to_end"]["ladder_s"])
            if overhead:
                print(f"  tracing overhead on ladder_s (traced - untraced, s): "
                      f"{' '.join(f'{x:.3f}' for x in overhead)}; median {statistics.median(overhead):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
