"""The summary of ``scripts/bench_pairs.py`` on canned ``bench/run.py``
result lines: pairs won, quartiles and the gain rule."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
BETTER = {"speech_s_per_s": "higher", "peak_rss_mb": "lower"}


def result_line(speed, rss, correct=True, failed=0):
    """One result line of ``bench/run.py --workload all``."""
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": {
                           "noisy.speech_s_per_s": {"value": speed,
                                                    "unit": "s/s"},
                           "noisy.peak_rss_mb": {"value": rss, "unit": "MB"},
                           "noisy.f1": {"value": 0.8, "unit": "ratio"}}})


def test_summary_counts_wins_and_applies_the_gain_rule(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from bench_pairs import summarize
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0,
              108.0, 109.0]
    # change: faster in 9 of 10 pairs and tied in one; less memory in one
    change = [s + 20.0 for s in parent[:9]] + [109.0]
    pairs = [(json.loads(result_line(p, 70.0)),
              json.loads(result_line(c, 70.0 - (i == 3))))
             for i, (p, c) in enumerate(zip(parent, change))]
    speed, rss = summarize(pairs, BETTER)
    assert speed["metric"] == "noisy.speech_s_per_s"
    assert speed["wins"] == 9 and speed["pairs"] == 10
    assert speed["parent"] == (102.25, 104.5, 106.75)
    assert speed["change"][1] == 123.5
    assert speed["ratio"] == 123.5 / 104.5
    assert speed["gain"]
    # a lower-is-better metric won once only: no gain
    assert rss["metric"] == "noisy.peak_rss_mb"
    assert rss["wins"] == 1 and not rss["gain"]


def test_gain_needs_the_median_gap_above_the_parents_spread(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from bench_pairs import summarize
    parent = [100.0, 120.0, 100.0, 120.0]
    pairs = [(json.loads(result_line(p, 70.0)),
              json.loads(result_line(p + 5.0, 70.0))) for p in parent]
    (speed, _) = summarize(pairs, BETTER)
    # every pair won, but the median moved 5 against a spread of 20
    assert speed["wins"] == 4 and not speed["gain"]


def test_no_gain_when_the_change_is_wrong_or_fails_more(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from bench_pairs import summarize
    parent = [100.0 + i for i in range(10)]

    def speed_row(bad):
        """The speed row when the change's third run has the fields bad."""
        pairs = [(json.loads(result_line(p, 70.0)),
                  json.loads(result_line(p + 50.0, 70.0,
                                         **(bad if i == 2 else {}))))
                 for i, p in enumerate(parent)]
        return summarize(pairs, BETTER)[0]
    assert speed_row({})["gain"]
    # faster in every pair, but one run is not correct or fails an operation
    for bad in ({"correct": False}, {"failed": 1}):
        row = speed_row(bad)
        assert row["wins"] == 10 and not row["gain"], bad


def test_the_workload_goes_to_every_bench_command(monkeypatch, tmp_path,
                                                  capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 35, "workloads": [{"name": "noisy"}, {"name": "wide"}],
        "end_to_end": [{"name": "speech_s_per_s", "better": "higher"}]}))
    commands = []

    def fake_run(cmd, cwd, **kw):
        """One run's output: its record, then its result line."""
        commands.append((cmd, cwd))
        workload = cmd[cmd.index("--workload") + 1]
        metrics = {"speech_s_per_s": {"value": 100.0, "unit": "s/s"}}
        if workload == "all":
            metrics = {f"{w}.{k}": v for w in ("noisy", "wide")
                       for k, v in metrics.items()}
        line = json.dumps({"correct": True, "attempted": 2, "failed": 0,
                           "metrics": metrics})
        return subprocess.CompletedProcess(cmd, 0, "{}\n" + line + "\n", "")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    parent, change = tmp_path / "parent", tmp_path
    for workload, keys in ((None, ["noisy", "wide"]), ("wide", ["wide"])):
        commands.clear()
        bench_pairs.main([str(parent), str(change), "--pairs", "2", "--seed",
                          "3"] + (["--workload", workload] if workload
                                  else []))
        assert [cwd for _, cwd in commands] == [parent, change, change,
                                               parent]
        assert {tuple(cmd) for cmd, _ in commands} == {(
            sys.executable, "bench/run.py", "--workload", workload or "all",
            "--seed", "3", "--seconds", "35")}
        rows = capsys.readouterr().out.splitlines()[-len(keys):]
        assert [row.split()[0] for row in rows] == [
            f"{k}.speech_s_per_s" for k in keys]
    commands.clear()
    with pytest.raises(SystemExit):  # not a workload of BENCHMARK.json
        bench_pairs.main([str(parent), str(change), "--workload", "loud"])
    assert not commands


def test_summary_prints_each_median_ratio_with_its_base(monkeypatch, tmp_path,
                                                        capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 35, "workloads": [{"name": "noisy"}],
        "end_to_end": [{"name": "peak_rss_mb", "better": "lower"}]}))
    rss = {tmp_path / "parent": 80.0, tmp_path: 60.0}

    def fake_run(cmd, cwd, **kw):
        line = result_line(100.0, rss[cwd])
        return subprocess.CompletedProcess(cmd, 0, line + "\n", "")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs.main([str(tmp_path / "parent"), str(tmp_path), "--pairs",
                      "2"])
    header, row = capsys.readouterr().out.splitlines()[-2:]
    assert "median change/parent" in header
    assert row.split()[0] == "noisy.peak_rss_mb"
    assert " 0.750 = 60/80 " in row
