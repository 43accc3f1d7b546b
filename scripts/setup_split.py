#!/usr/bin/env python3
"""Time the benchmark's set-up step by step in one or more source trees, in
alternated processes, and print each tree's median per step.

    python3 scripts/setup_split.py PARENT CHANGE --workload noisy --rounds 12
    python3 scripts/setup_split.py TREE --workload wide --rounds 1 --pairs 1

A tree is a checkout with ``src/kwspot`` and ``bench/workload.py``.  Each
of ``--pairs`` passes starts one fresh process per tree, the first tree
swapping from pass to pass.  A process builds the workload's parts from
``--seed`` as ``bench/run.py`` does, runs one untimed set-up of every part,
then ``--rounds`` timed ones.  ``Part.set_up`` calls ``train``,
``write_arpa``, ``read_arpa`` and ``build_bias_trie`` by their names in
``workload``, so the process wraps those names with timers; ``setup_s`` is
the set-up's own total, which also holds the keyword list and the syllable
lines.  A round's value of a step is its sum over the parts, and a tree's
median is over every round of all its processes.  Nothing under ``bench/``
is written.
"""

import argparse
import multiprocessing
import statistics
import sys
import tempfile
import time
from pathlib import Path

STEPS = ("train", "write_arpa", "read_arpa", "build_bias_trie")


def measure(tree: str, workload: str, seed: int, rounds: int) -> list[dict]:
    """In a fresh process: each timed round's seconds per step of the
    workload's set-up in tree."""
    root = Path(tree).resolve()
    sys.dont_write_bytecode = True  # leave no cache files in the tree
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import kwspot
    import workload as bench

    if Path(kwspot.__file__).resolve().parents[2] != root:
        raise RuntimeError(f"kwspot imported from {kwspot.__file__}, "
                           f"not from {root}")
    spent = dict.fromkeys(STEPS, 0.0)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0
        return wrapper

    for name in STEPS:
        setattr(bench, name, timed(name, getattr(bench, name)))
    wl = bench.WORKLOADS[workload]
    out = []
    with tempfile.TemporaryDirectory() as work:
        parts = [bench.Part(wl, s, Path(work) / f"part{i}")
                 for i, s in enumerate(bench.part_seeds(seed, wl.parts))]
        for r in range(rounds + 1):  # round 0 is untimed
            spent.update(dict.fromkeys(STEPS, 0.0))
            total = sum(p.set_up()["setup_s"] for p in parts)
            if r:
                out.append({**spent, "setup_s": total})
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", type=Path)
    ap.add_argument("--workload", default="noisy")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--pairs", type=int, default=4)
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.pairs < 1:
        ap.error("--rounds and --pairs must be >= 1")
    for tree in args.trees:
        if not (tree / "bench" / "workload.py").is_file():
            ap.error(f"{tree}: no bench/workload.py")
    rounds: dict[int, list[dict]] = {i: [] for i in range(len(args.trees))}
    spawn = multiprocessing.get_context("spawn")
    for p in range(args.pairs):
        order = list(rounds) if p % 2 == 0 else list(rounds)[::-1]
        for i in order:
            with spawn.Pool(1) as pool:
                rounds[i] += pool.apply(measure, (str(args.trees[i]),
                                                  args.workload, args.seed,
                                                  args.rounds))
    print(f"{args.workload}, seed {args.seed}: median seconds of "
          f"{args.pairs} x {args.rounds} rounds per tree")
    print(f"{'step':16s}" + "".join(f"  tree {i + 1:<6d}" for i in rounds))
    for step in (*STEPS, "setup_s"):
        print(f"{step:16s}" + "".join(
            f"  {statistics.median(r[step] for r in rounds[i]):11.4f}"
            for i in rounds))
    for i, tree in enumerate(args.trees, 1):
        print(f"tree {i}: {tree}")


if __name__ == "__main__":
    main()
