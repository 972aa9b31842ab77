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
counts against the change); then each side's correctness. Each run's
minor page faults (those of the run's whole process tree) are printed with
it and kept in the row as a side record, not as a metric. `--json PATH`
also writes that row as JSON (see `summary_json`). A gain meets
the benchmark's rule when at least 10 pairs ran, the change won at least
nine tenths of them, and the medians differ by more than the parent's
quartile distance.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict | None, int]:
    """One benchmark run in `checkout`: its final JSON line, or None if it
    failed, and the minor page faults of the run and every process it waited for."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, faults
    return json.loads(lines[-1]), faults


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(v: float) -> str:
    return f"{v:.4g}"


def compare(better: str, parent: list[float | None], change: list[float | None]) -> dict | None:
    """One metric over the pairs: each side's median and quartiles, the change
    in per cent, the wins, the pairs run and whether the gain rule is met.

    Pair i is (parent[i], change[i]); None marks a side that crashed. The
    quartiles cover the complete pairs, and `pairs` counts every pair run.
    None when no pair is complete.
    """
    done = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    if not done:
        return None
    p1, pm, p3 = quartiles([p for p, _ in done])
    c1, cm, c3 = quartiles([c for _, c in done])
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in done)
    return {"parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "gain_pct": 100.0 * (cm / pm - 1.0) if pm else None,
            "wins": wins, "pairs": len(parent),
            "meets_gain_rule": (len(parent) >= 10 and wins >= 0.9 * len(parent)
                                and sign * (cm - pm) > p3 - p1)}


def summarise(name: str, better: str, parent: list[float | None],
              change: list[float | None]) -> str:
    """`median [q1, q3] -> median [q1, q3], +x.x %, k/n wins` for one metric."""
    return fmt_compare(compare(better, parent, change))


def fmt_compare(s: dict | None) -> str:
    if s is None:
        return "no complete pair"
    p, c = s["parent"], s["change"]
    gain = "n/a" if s["gain_pct"] is None else f"{s['gain_pct']:+.1f} %"
    return (f"{fmt(p['median'])} [{fmt(p['q1'])}, {fmt(p['q3'])}] → "
            f"{fmt(c['median'])} [{fmt(c['q1'])}, {fmt(c['q3'])}], "
            f"{gain}, {s['wins']}/{s['pairs']} wins"
            + (" (meets the gain rule)" if s["meets_gain_rule"] else ""))


def correctness(runs: list[dict | None]) -> dict:
    done = [r for r in runs if r is not None]
    return {"runs": len(runs), "correct": sum(r["correct"] for r in done),
            "crashed": len(runs) - len(done), "failed": sum(r["failed"] for r in done),
            "attempted": sum(r["attempted"] for r in done)}


def fmt_correctness(c: dict) -> str:
    return (f"{c['correct']}/{c['runs']} runs correct, {c['crashed']} crashed, "
            f"{c['failed']} of {c['attempted']} operations failed")


def values(runs: list[dict | None], name: str) -> list[float | None]:
    return [r["metrics"][name]["value"] if r is not None and name in r["metrics"] else None
            for r in runs]


def summary_json(bench: dict, workload: str, seeds: list[int],
                 runs: dict[str, list[dict | None]], faults: dict[str, list[int]]) -> dict:
    """The summary row as data: `compare` per end-to-end metric (null when no
    pair is complete), the seeds in pair order, each side's correctness and
    each side's minor faults per run in pair order, with their median."""
    return {"workload": workload, "pairs": len(seeds), "seeds": seeds,
            "metrics": {m["name"]: compare(m["better"], values(runs["parent"], m["name"]),
                                           values(runs["change"], m["name"]))
                        for m in bench["end_to_end"]},
            "correctness": {side: correctness(runs[side]) for side in ("parent", "change")},
            "minor_faults": {side: {"runs": faults[side], "median": statistics.median(faults[side])}
                             for side in ("parent", "change")}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed0", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--json", type=Path, default=None, help="also write the summary row here")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict | None]] = {"parent": [], "change": []}
    faults: dict[str, list[int]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res, flt = run_once(sides[side], args.workload, seed, seconds)
            runs[side].append(res)
            faults[side].append(flt)
            shown = "crashed" if res is None else " ".join(
                f"{k}={fmt(v['value'])}" for k, v in res["metrics"].items())
            ok = "" if res is None else f" correct={res['correct']} failed={res['failed']}"
            print(f"pair {i} seed {seed} {side}: {shown}{ok} minor_faults={flt}", flush=True)

    row = summary_json(bench, args.workload,
                       list(range(args.seed0, args.seed0 + args.pairs)), runs, faults)
    names = [m["name"] for m in bench["end_to_end"]]
    seeds = f"seeds {args.seed0}–{args.seed0 + args.pairs - 1}"
    print()
    print("| workload | pairs | " + " | ".join(f"`{n}`" for n in names) + " |")
    print("| --- | --- | " + " | ".join("---" for _ in names) + " |")
    print(f"| {args.workload} | {args.pairs}, {seeds} | "
          + " | ".join(fmt_compare(row["metrics"][n]) for n in names) + " |")
    for side in ("parent", "change"):
        print(f"{side}: {fmt_correctness(row['correctness'][side])}, "
              f"median {row['minor_faults'][side]['median']:g} minor faults per run")
    if args.json:
        args.json.write_text(json.dumps(row, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
