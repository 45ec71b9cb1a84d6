#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and A/B comparison of two checkouts.

    python3 perf-ledger/spread.py spread --workload W [--runs 10] [--seed0 100]
    python3 perf-ledger/spread.py compare --a DIR_A --b DIR_B --workload W [--pairs 10]

`spread` runs one checkout (the current directory) with a different seed
per run and prints, per metric, the median and the quartile spread as a
share of the median (the figure each `bound` in BENCHMARK.json is held to).

`compare` builds the benchmark in two checkouts (each must hold
`perf-ledger/` next to its `crates/`) and runs them in alternating pairs on
the same seeds, first A then B on even pairs and B then A on odd ones, so
machine drift cancels. It prints each side's median and quartiles, and how
many pairs each side won.

Both take `--seconds` and `--trace` as the benchmark does.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def cargo_env(checkout):
    # Each checkout builds into its own directory, so the two never share a binary.
    return dict(os.environ, CARGO_TARGET_DIR=os.path.join(os.path.abspath(checkout), ".bench_build"))


def run(checkout, workload, seed, seconds, trace):
    cmd = [
        "cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(checkout, "perf-ledger", "Cargo.toml"), "--",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout, check=False,
                         env=cargo_env(checkout))
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed ({out.returncode}): {' '.join(cmd)}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: seed {seed} reported correct=false\n{out.stderr}", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bounds(checkout):
    try:
        with open(os.path.join(checkout, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}, {}
    return ({m["name"]: m.get("bound") for m in spec["end_to_end"]},
            {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]})


def cmd_spread(args):
    bound, _ = bounds(".")
    runs = [run(".", args.workload, args.seed0 + i, args.seconds, args.trace)
            for i in range(args.runs)]
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f)
    print(f"{args.workload}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}")
    print(f"{'metric':28s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("nan")
        b = bound.get(name)
        flag = "" if b is None or spread < b / 3 else "  <-- above a third of the bound"
        print(f"{name:28s} {med:14.6g} {spread:8.3f} {b if b is not None else '':>6}{flag}")


def cmd_compare(args):
    _, better = bounds(args.a)
    for checkout in (args.a, args.b):
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                        "--manifest-path", os.path.join(checkout, "perf-ledger", "Cargo.toml")],
                       check=True, cwd=checkout, env=cargo_env(checkout))
    a_runs, b_runs = [], []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = [(args.a, a_runs), (args.b, b_runs)]
        if i % 2:
            order.reverse()
        for checkout, sink in order:
            sink.append(run(checkout, args.workload, seed, args.seconds, args.trace))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"a": a_runs, "b": b_runs}, f)
    print(f"{args.workload}: {args.pairs} alternating pairs, A={args.a} B={args.b}")
    print(f"{'metric':28s} {'A q1':>11s} {'A median':>11s} {'A q3':>11s}"
          f" {'B q1':>11s} {'B median':>11s} {'B q3':>11s} {'B wins':>7s}")
    for name in a_runs[0]:
        a = [r[name] for r in a_runs]
        b = [r[name] for r in b_runs]
        aq, bq = quartiles(a), quartiles(b)
        lower = better.get(name, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        print(f"{name:28s} {aq[0]:11.5g} {aq[1]:11.5g} {aq[2]:11.5g}"
              f" {bq[0]:11.5g} {bq[1]:11.5g} {bq[2]:11.5g} {wins:4d}/{len(a)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("spread", "compare"):
        s = sub.add_parser(name)
        s.add_argument("--workload", required=True)
        s.add_argument("--seconds", type=float, default=10)
        s.add_argument("--trace", type=int, default=0)
        s.add_argument("--seed0", type=int, default=100)
        s.add_argument("--out", help="also write every run's metrics to this JSON file")
        if name == "spread":
            s.add_argument("--runs", type=int, default=10)
        else:
            s.add_argument("--a", required=True)
            s.add_argument("--b", required=True)
            s.add_argument("--pairs", type=int, default=10)
    args = p.parse_args()
    {"spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    main()
