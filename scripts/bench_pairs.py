#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternated pairs and say, for each
workload and end-to-end metric, whether the second checkout shows a gain.

    python3 scripts/bench_pairs.py PARENT CHANGE --pairs 10 --seed 1
    python3 scripts/bench_pairs.py PARENT CHANGE --workload noisy

Each pair runs ``bench/run.py --workload W --seed S`` once in each
checkout, one after the other, for the ``run_seconds`` of CHANGE's
``BENCHMARK.json``; the side that runs first swaps from pair to pair.  W
is ``all`` unless ``--workload`` names one workload of that file, which
pairs a claim about one workload in about a third of the time.  Every
pair's values, and each side's ``correct`` and ``failed``, are printed as
it ends.  Then, per workload and metric, the summary gives each
side's median and quartiles, the ratio of the medians with its base
(CHANGE's median over PARENT's, so below 1 is lower), the pairs CHANGE won
(ties count for neither side) and whether it is a gain: every CHANGE run
is correct and fails no more operations in all than PARENT's runs, CHANGE
won at least 9/10 of the pairs, and its median is better than PARENT's by
more than the distance between PARENT's quartiles.  Which direction is
better also comes from CHANGE's ``BENCHMARK.json``.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, seed: int, seconds: float,
              workload: str) -> dict:
    """The result object (the last output line) of one run of workload, or
    of ``all``, in checkout, with each metric named ``workload.metric`` as
    an ``all`` run names it."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: bench/run.py exited with "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if workload != "all":
        result["metrics"] = {f"{workload}.{key}": value
                             for key, value in result["metrics"].items()}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: list[tuple[dict, dict]],
              better: dict[str, str]) -> list[dict]:
    """One row per workload and end-to-end metric of the (parent, change)
    result objects of pairs; ``better`` maps a metric name to "higher" or
    "lower"."""
    sound = (all(c["correct"] for _, c in pairs)
             and sum(c["failed"] for _, c in pairs)
             <= sum(p["failed"] for p, _ in pairs))
    rows = []
    for key in pairs[0][0]["metrics"]:
        direction = better.get(key.split(".", 1)[1])
        if direction is None:
            continue
        sign = 1.0 if direction == "higher" else -1.0
        parent = [p["metrics"][key]["value"] for p, _ in pairs]
        change = [c["metrics"][key]["value"] for _, c in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        rows.append({"metric": key, "better": direction, "parent": pq,
                     "change": cq,
                     "ratio": cq[1] / pq[1] if pq[1] else math.nan,
                     "wins": wins, "pairs": len(pairs),
                     "gain": (sound and 10 * wins >= 9 * len(pairs)
                              and sign * (cq[1] - pq[1]) > pq[2] - pq[0])})
    return rows


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", default="all")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in ("all", *names):
        ap.error(f"--workload must be all or one of {', '.join(names)}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        sides = [("parent", args.parent), ("change", args.change)]
        out = {name: run_bench(path, args.seed, spec["run_seconds"],
                               args.workload)
               for name, path in (sides if i % 2 == 0 else sides[::-1])}
        pairs.append((out["parent"], out["change"]))
        first = "parent" if i % 2 == 0 else "change"
        values = "  ".join(
            f"{key} {out['parent']['metrics'][key]['value']:.4g}"
            f"->{out['change']['metrics'][key]['value']:.4g}"
            for key in out["parent"]["metrics"]
            if key.split(".", 1)[1] in better)
        status = ", ".join(f"{k} {out['parent'][k]}/{out['change'][k]}"
                           for k in ("correct", "failed"))
        print(f"pair {i + 1} ({first} first, {status}): {values}", flush=True)
    print(f"{'metric':28s} {'parent q1/median/q3':>26s} "
          f"{'change q1/median/q3':>26s} {'median change/parent':>20s}"
          f"  won  gain")
    for row in summarize(pairs, better):
        p, c = row["parent"], row["change"]
        print(f"{row['metric']:28s} {p[0]:8.4g} {p[1]:8.4g} {p[2]:8.4g} "
              f"{c[0]:8.4g} {c[1]:8.4g} {c[2]:8.4g} "
              f"{row['ratio']:6.3f} = {c[1]:.4g}/{p[1]:.4g}  "
              f"{row['wins']}/{row['pairs']}  "
              f"{'yes' if row['gain'] else 'no'}")


if __name__ == "__main__":
    main()
