"""kwspot benchmark: corpus throughput on the noisy, wide and ladder workloads.

Usage, from the repository root:

    python3 bench/run.py --workload noisy --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all     # every workload, fresh processes

One run generates the workload's parts from ``--seed`` (untimed), then
repeats rounds of set-up of all parts followed by one timed cycle over all
parts, until the next round would pass ``--seconds``.  It reports the median
cycle and the median set-up of all parts (``setup_s``).
``--trace 1`` measures half as long untraced, then one traced cycle, and
reports the per-layer metrics instead of the end-to-end ones.

Every pass is checked: output invariants, the same digest on every cycle,
and the digests committed in ``bench/expected.json`` for the default seed.
A run at another seed also runs one untimed cycle over the default seed's
parts, so the committed digests are checked on every run.  A mismatch
counts every operation of the run as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
hold the full record (machine, commit, seeds, input properties, digests,
F1 and ATWV).  ``bench/README.md`` says why each workload exists and which
layer each metric belongs to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

DEFAULT_SEED = 1
# part set-ups per round: workloads with few parts repeat their set-up, so
# that setup_s is a median over as many samples as on the others
SETUP_PARTS = 6


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def machine_info() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform()}


def commit_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def load_expected(wl) -> dict | None:
    """The committed default-seed outputs of wl, or None if there are none
    for its name and size."""
    try:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    entry = expected["workloads"].get(wl.name)
    if expected["seed"] != DEFAULT_SEED or entry is None \
            or (entry["parts"], entry["utts"]) != (wl.parts, wl.utts):
        return None
    return entry


def run_workload(wl, seed: int, seconds: float, trace: bool, work: Path,
                 expected: dict | None) -> dict:
    """One run of wl.  ``expected`` holds the committed default-seed
    digests; None skips that gate (only for shapes that have none)."""
    from workload import Part, part_seeds

    # forked workers would not report spans back, so a traced run is serial
    jobs = 1 if trace else wl.jobs
    seeds = part_seeds(seed, wl.parts)
    parts = [Part(wl, s, work / f"part{i}") for i, s in enumerate(seeds)]
    counts = [p.input_counts() for p in parts]
    total = {k: sum(c[k] for c in counts) for k in counts[0]}
    props = {"parts": wl.parts,
             "utterances": sum(len(p.utts) for p in parts),
             "speech_s": sum(p.speech_s for p in parts),
             "keywords": sum(len(p.corpus.keywords) for p in parts),
             "references": sum(len(p.refs) for p in parts)}
    for stage in ("char", "syll"):
        props[f"{stage}_frames"] = total[f"{stage}_frames"]
        props[f"{stage}_units_per_frame_above_min_logp"] = (
            total[f"{stage}_live_units"] / total[f"{stage}_frames"])

    gate = expected["digests"] if expected and seed == DEFAULT_SEED else None
    digests: dict[int, str] = {}
    quality: dict[int, dict] = {}
    tally = {"attempted": 0, "failed": 0}
    part_s: list[list[float]] = []

    def cycle() -> float:
        walls = []
        for i, part in enumerate(parts):
            t0 = time.perf_counter()
            out = part.timed_pass(jobs)
            walls.append(time.perf_counter() - t0)
            digest, bad, quality[i] = part.check(out)
            if digest != digests.setdefault(i, digest) or (
                    gate is not None and digest != gate[i]):
                bad = set(part.utts)
            tally["attempted"] += len(part.utts)
            tally["failed"] += len(bad)
        part_s.append(walls)
        return sum(walls)

    # a round sets up every part, at least SETUP_PARTS times in all (each
    # set-up of all parts is one sample), then runs one cycle; rounds
    # alternate the two, so both see the same host speed
    budget = seconds / 2 if trace else seconds
    repeats = -(-SETUP_PARTS // len(parts))
    setups: list[dict[str, float]] = []
    cycles: list[float] = []
    rounds: list[float] = []
    begin = time.perf_counter()
    while not rounds or (time.perf_counter() - begin
                         + statistics.median(rounds) <= budget):
        t0 = time.perf_counter()
        for _ in range(repeats):
            runs = [p.set_up() for p in parts]
            setups.append({k: sum(r[k] for r in runs) for k in runs[0]})
        cycles.append(cycle())
        rounds.append(time.perf_counter() - t0)
    untraced = statistics.median(cycles)
    setup = {k: statistics.median(s[k] for s in setups) for k in setups[0]}

    if trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
        try:
            traced = cycle()
        finally:
            tracer.uninstall()
        tracer.write(WORK / "traces" / f"{wl.name}-seed{seed}.npz")
        metrics = layer_metrics(tracer, traced, untraced, setup)
    else:
        metrics = {"speech_s_per_s": (props["speech_s"] / untraced, "s/s"),
                   "setup_s": (setup["setup_s"], "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
    if "nbest_entries" in quality[0]:
        props["nbest_entries"] = sum(q["nbest_entries"]
                                     for q in quality.values())

    record = {"workload": wl.name, "seed": seed,
              "part_seeds": seeds, "trace": int(trace), "jobs": jobs,
              "machine": machine_info(), "commit": commit_sha(),
              "inputs": props, "setup_runs": setups,
              "cycle_s": cycles, "part_s": part_s,
              "digests": [digests[i] for i in range(len(parts))],
              "f1": statistics.fmean(q["f1"] for q in quality.values()),
              "atwv": statistics.fmean(q["atwv"] for q in quality.values()),
              "quality_parts": [quality[i] for i in range(len(parts))]}
    if trace:
        record["traced_cycle_s"] = traced

    if expected is None:
        record["digest_gate"] = "not checked: no committed digest"
    elif gate is not None:
        record["digest_gate"] = ("match" if record["digests"] == gate
                                 else "mismatch")
    else:
        # one cycle over the default seed's parts, untimed
        ref_digests, ref_bad = [], False
        for i, s in enumerate(part_seeds(DEFAULT_SEED, wl.parts)):
            ref = Part(wl, s, work / f"default{i}")
            ref.set_up()
            digest, bad, _ = ref.check(ref.timed_pass(jobs))
            ref_digests.append(digest)
            ref_bad = ref_bad or bool(bad)
            tally["attempted"] += len(ref.utts)
        record["default_seed_digests"] = ref_digests
        record["digest_gate"] = ("match" if ref_digests == expected["digests"]
                                 and not ref_bad else "mismatch")
    if record["digest_gate"] == "mismatch":
        tally["failed"] = tally["attempted"]
    return {"record": record,
            "result": {"correct": tally["failed"] == 0, **tally,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}}}


def run_all(args, names) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    results, records = {}, {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return _fail(f"workload {name} exited with {proc.returncode}")
        *record, last = proc.stdout.strip().splitlines()
        results[name] = json.loads(last)
        records[name] = json.loads("\n".join(record))
    for name, res in results.items():
        rows = [(m, mv["value"], mv["unit"]) for m, mv in res["metrics"].items()]
        rows += [(q, records[name][q], "ratio") for q in ("f1", "atwv")]
        for metric, value, unit in rows:
            print(f"{name:7s} {metric:42s} {value:14.6g} {unit}")
        print(f"{name:7s} {'digest_gate':42s} "
              f"{records[name]['digest_gate']:>14s} "
              f"({res['failed']} of {res['attempted']} failed)")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": mv for n, r in results.items()
                    for m, mv in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    if not (ROOT / "src" / "kwspot" / "__init__.py").is_file():
        return _fail(f"kwspot sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from workload import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))

    wl = WORKLOADS[args.workload]
    expected = load_expected(wl)
    if expected is None:
        return _fail(f"{EXPECTED} has no digests for {wl.name} at its size")
    work = WORK / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # anything that asks for a temporary file stays inside the checkout
    os.environ["TMPDIR"] = str(work)
    try:
        out = run_workload(wl, args.seed, args.seconds, bool(args.trace), work,
                           expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out["record"], indent=1, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
