"""The summary of ``scripts/bench_pairs.py`` on canned ``bench/run.py``
result lines: pairs won, quartiles and the gain rule."""

import json
from pathlib import Path

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
