"""Smoke test of the benchmark at a tiny size.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py

The tiny runs are made in this process with one part of two utterances a
workload; such shapes have no committed digests, so only the invariants and
the agreement between runs are checked.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run as bench  # noqa: E402
from workload import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5


def tiny_run(name, work, trace=False, **shape):
    wl = dataclasses.replace(WORKLOADS[name], parts=1, utts=2, **shape)
    work.mkdir(parents=True, exist_ok=True)
    out = bench.run_workload(wl, SEED, 0, trace, work, expected=None)
    return out["record"], out["result"]


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    return [tiny_run("noisy", tmp_path_factory.mktemp("traced"), trace=True)
            for _ in range(2)]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section, traced_twice,
                                               tmp_path):
    if trace:
        _, result = traced_twice[0]
    else:
        _, result = tiny_run("noisy", tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[section]}


def test_traced_call_counts_repeat_exactly(traced_twice):
    (rec_a, a), (rec_b, b) = traced_twice
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    assert {k: a["metrics"][k] for k in counts} == \
        {k: b["metrics"][k] for k in counts}
    assert rec_a["digests"] == rec_b["digests"]


def test_ladder_digest_does_not_depend_on_jobs(tmp_path):
    one, _ = tiny_run("ladder", tmp_path / "one", jobs=1)
    two, _ = tiny_run("ladder", tmp_path / "two", jobs=2)
    assert (one["jobs"], two["jobs"]) == (1, 2)
    assert one["digests"] == two["digests"]


def test_every_workload_has_committed_digests():
    for wl in WORKLOADS.values():
        assert bench.load_expected(wl) is not None, wl.name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "noisy", "--seconds", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170,
                          check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
