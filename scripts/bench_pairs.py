#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs, summarised per metric.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload desk-train --pairs 10 --seed0 400

Pair i runs `python3 perfbench/run.py --workload W --seed S --seconds T`
in both checkouts with the same seed S = seed0 + i, the parent first in
even pairs and the change first in odd ones. Every run is printed as it
ends. The summary is one Markdown table row in the layout of CHANGES.md:
per end-to-end metric of the change's BENCHMARK.json, the parent's and the
change's median [q1, q3], the change in per cent, and the pairs the change
won (ties count for neither side, and a pair where either side crashed
counts against the change); then each side's correctness. A gain meets
the benchmark's rule when at least 10 pairs ran, the change won at least
nine tenths of them, and the medians differ by more than the parent's
quartile distance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in `checkout`; its final JSON line, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(v: float) -> str:
    return f"{v:.4g}"


def summarise(name: str, better: str, parent: list[float | None],
              change: list[float | None]) -> str:
    """`median [q1, q3] -> median [q1, q3], +x.x %, k/n wins` for one metric.

    Pair i is (parent[i], change[i]); None marks a side that crashed. The
    quartiles cover the complete pairs, and n counts every pair run.
    """
    done = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    if not done:
        return "no complete pair"
    p1, pm, p3 = quartiles([p for p, _ in done])
    c1, cm, c3 = quartiles([c for _, c in done])
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in done)
    pct = 100.0 * (cm / pm - 1.0) if pm else float("nan")
    rule = len(parent) >= 10 and wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1
    return (f"{fmt(pm)} [{fmt(p1)}, {fmt(p3)}] → {fmt(cm)} [{fmt(c1)}, {fmt(c3)}], "
            f"{pct:+.1f} %, {wins}/{len(parent)} wins" + (" (meets the gain rule)" if rule else ""))


def correctness(runs: list[dict | None]) -> str:
    done = [r for r in runs if r is not None]
    correct = sum(r["correct"] for r in done)
    failed = sum(r["failed"] for r in done)
    attempted = sum(r["attempted"] for r in done)
    return (f"{correct}/{len(runs)} runs correct, {len(runs) - len(done)} crashed, "
            f"{failed} of {attempted} operations failed")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed0", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict | None]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(sides[side], args.workload, seed, seconds)
            runs[side].append(res)
            shown = "crashed" if res is None else " ".join(
                f"{k}={fmt(v['value'])}" for k, v in res["metrics"].items())
            ok = "" if res is None else f" correct={res['correct']} failed={res['failed']}"
            print(f"pair {i} seed {seed} {side}: {shown}{ok}", flush=True)

    def values(side: str, name: str) -> list[float | None]:
        return [r["metrics"][name]["value"] if r is not None and name in r["metrics"] else None
                for r in runs[side]]

    cells = [summarise(m["name"], m["better"], values("parent", m["name"]),
                       values("change", m["name"])) for m in bench["end_to_end"]]
    seeds = f"seeds {args.seed0}–{args.seed0 + args.pairs - 1}"
    print()
    print("| workload | pairs | " + " | ".join(f"`{m['name']}`" for m in bench["end_to_end"]) + " |")
    print("| --- | --- | " + " | ".join("---" for _ in bench["end_to_end"]) + " |")
    print(f"| {args.workload} | {args.pairs}, {seeds} | " + " | ".join(cells) + " |")
    print(f"parent: {correctness(runs['parent'])}")
    print(f"change: {correctness(runs['change'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
