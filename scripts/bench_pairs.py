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
counts against the change); then each side's correctness. Three side
records are printed with each run and kept in the row, not as metrics:
the minor page faults and the user plus system CPU seconds of the run's
whole process tree, and the host's steal ticks during the run (from the
`cpu ` line of /proc/stat, read before and after it; time the host gave
this machine's virtual CPUs to others). `--json PATH`
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


SIDE_RECORDS = ("minor_faults", "cpu_s", "steal_ticks")


def steal_ticks() -> int | None:
    """The host's steal ticks since boot, the eighth value of the `cpu ` line
    of /proc/stat; None where that file cannot be read."""
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith("cpu "):
                    return int(line.split()[8])
    except OSError:
        pass
    return None


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict | None, dict]:
    """One benchmark run in `checkout`: its final JSON line, or None if it
    failed or that line is not a JSON object with `metrics`, and its side
    records (`SIDE_RECORDS`): the minor page faults and CPU seconds of the
    run and every process it waited for, and the host's steal ticks during
    the run (None if /proc/stat cannot be read)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    before, steal = resource.getrusage(resource.RUSAGE_CHILDREN), steal_ticks()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    after, steal_after = resource.getrusage(resource.RUSAGE_CHILDREN), steal_ticks()
    side = {"minor_faults": after.ru_minflt - before.ru_minflt,
            "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
            "steal_ticks": None if None in (steal, steal_after) else steal_after - steal}
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        res = None
    if not isinstance(res, dict) or "metrics" not in res:
        sys.stderr.write(proc.stderr)
        return None, side
    return res, side


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


def fmt_compare(s: dict | None) -> str:
    """`median [q1, q3] -> median [q1, q3], +x.x %, k/n wins` for one metric."""
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


def side_record(runs: list[float | None]) -> dict:
    """One side record over a side's runs in pair order, with the median of
    those measured (null when none was)."""
    measured = [v for v in runs if v is not None]
    return {"runs": runs, "median": statistics.median(measured) if measured else None}


def summary_json(bench: dict, workload: str, seeds: list[int],
                 runs: dict[str, list[dict | None]],
                 sides: dict[str, dict[str, list[float | None]]]) -> dict:
    """The summary row as data: `compare` per end-to-end metric (null when no
    pair is complete), the seeds in pair order, each side's correctness, and
    per side record of `sides` (`sides[record][side]`, one value per run in
    pair order) each side's runs with their median."""
    return {"workload": workload, "pairs": len(seeds), "seeds": seeds,
            "metrics": {m["name"]: compare(m["better"], values(runs["parent"], m["name"]),
                                           values(runs["change"], m["name"]))
                        for m in bench["end_to_end"]},
            "correctness": {side: correctness(runs[side]) for side in ("parent", "change")},
            **{record: {side: side_record(sides[record][side]) for side in ("parent", "change")}
               for record in sides}}


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
    records = {r: {"parent": [], "change": []} for r in SIDE_RECORDS}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res, rec = run_once(sides[side], args.workload, seed, seconds)
            runs[side].append(res)
            for r in SIDE_RECORDS:
                records[r][side].append(rec[r])
            shown = "crashed" if res is None else " ".join(
                f"{k}={fmt(v['value'])}" for k, v in res["metrics"].items())
            ok = "" if res is None else f" correct={res['correct']} failed={res['failed']}"
            print(f"pair {i} seed {seed} {side}: {shown}{ok} minor_faults={rec['minor_faults']} "
                  f"cpu_s={rec['cpu_s']:.2f} steal_ticks={rec['steal_ticks']}", flush=True)

    row = summary_json(bench, args.workload,
                       list(range(args.seed0, args.seed0 + args.pairs)), runs, records)
    names = [m["name"] for m in bench["end_to_end"]]
    seeds = f"seeds {args.seed0}–{args.seed0 + args.pairs - 1}"
    print()
    print("| workload | pairs | " + " | ".join(f"`{n}`" for n in names) + " |")
    print("| --- | --- | " + " | ".join("---" for _ in names) + " |")
    print(f"| {args.workload} | {args.pairs}, {seeds} | "
          + " | ".join(fmt_compare(row["metrics"][n]) for n in names) + " |")
    for side in ("parent", "change"):
        medians = ", ".join(f"{r} {'n/a' if m is None else f'{m:g}'}" for r in SIDE_RECORDS
                            for m in [row[r][side]["median"]])
        print(f"{side}: {fmt_correctness(row['correctness'][side])}; median per run: {medians}")
    if args.json:
        args.json.write_text(json.dumps(row, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
