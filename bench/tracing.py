"""Timing wrappers for the traced run, and the per-layer metrics they give.

Each wrapper replaces a public name at the place the pipeline looks it up
(``kwspot.pipeline.detect``, ``kwspot.kws.score_ctc``, the
``NGramLM.score_token`` method, ...).  Every call becomes a span: name,
start, end and the span that was open when it began.  Spans stay in compact
in-memory arrays while the traced pass runs (about 21 bytes a span, so a
million ``score_token`` calls cost about 21 MB) and are written out once,
after the pass.

A few wrappers also count what passes through them (candidates per matching
stage, N-best entries a candidate refers to, unique phrase-distance
queries), so that ratios are measured where the work happens.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from kwspot import decoder, kws, lm, pipeline


class Tracer:
    """Span recorder plus the counters the per-layer ratios need."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.frames_decoded = 0
        self.candidates = {"char": 0, "syllable": 0, "fuzzy": 0}
        # (id of an N-best list, rank) for every entry some candidate uses;
        # _nbest_lists holds each list so that its id is not reused
        self.referenced: set[tuple[int, int]] = set()
        self._nbest_lists: dict[int, object] = {}
        self.scored = 0
        self.hits = 0
        self.unique_pairs = 0
        self._utt_pairs: set = set()
        self._char_nbest = None

    def _span(self, name: str, fn, *args, **kwargs):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._open.pop()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr by a spanning wrapper; the hooks see the
        arguments before the call and the arguments and result after it."""
        fn = getattr(owner, attr)
        span = self._span

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            out = span(name, fn, *args, **kwargs)
            if after is not None:
                after(out, *args)
            return out
        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced name; ``uninstall`` puts the originals back."""
        decode_dir = pipeline.decode_dir

        def traced_decode_dir(pgram_dir, *args, **kwargs):
            # run_ablation also looks decode_dir up in kwspot.pipeline
            stage = "char" if Path(pgram_dir).name == "char" else "syll"
            return self._span(f"pipeline.decode_{stage}", decode_dir,
                              pgram_dir, *args, **kwargs)
        self._patch(pipeline, "decode_dir", traced_decode_dir)
        self._wrap(pipeline, "run_kws", "pipeline.run_kws")
        self._wrap(pipeline, "evaluate", "pipeline.evaluate")
        self._wrap(pipeline, "run_ablation", "pipeline.run_ablation")
        self._wrap(pipeline, "read_pgram", "pgram.read_pgram")
        self._wrap(pipeline, "align_hits", "metrics.align_hits")
        self._wrap(pipeline, "prefix_beam_search", "decoder.prefix_beam_search",
                   before=self._count_frames)
        self._wrap(pipeline, "detect", "kws.detect",
                   before=self._enter_utterance, after=self._count_hits)
        self._wrap(decoder, "align_viterbi", "pgram.align_viterbi")
        self._wrap(kws, "match_exact", "kws.match_exact",
                   after=self._count_exact)
        self._wrap(kws, "match_fuzzy", "kws.match_fuzzy",
                   after=self._count_fuzzy)
        self._wrap(kws, "score_ctc", "kws.score_ctc", after=self._count_scored)
        self._wrap(kws, "phrase_distance", "phonetics.phrase_distance",
                   before=self._count_pair)
        self._wrap(lm.NGramLM, "score_token", "lm.score_token")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._flush_pairs()

    # -- counters -----------------------------------------------------------

    def _count_frames(self, pg, *_):
        self.frames_decoded += pg.num_frames

    def _enter_utterance(self, _pg_c, _pg_s, nbest_char, *_):
        self._flush_pairs()
        self._char_nbest = nbest_char

    def _flush_pairs(self):
        # phrase-distance queries are deduplicated per utterance, the scope
        # an index built once per utterance could share them over
        self.unique_pairs += len(self._utt_pairs)
        self._utt_pairs = set()

    def _count_hits(self, hits, *_):
        self.hits += len(hits)

    def _count_exact(self, found, nbest, *_):
        stage = "char" if nbest is self._char_nbest else "syllable"
        self.candidates[stage] += len(found)
        self._refer(found, nbest)

    def _count_fuzzy(self, found, nbest, *_):
        self.candidates["fuzzy"] += len(found)
        self._refer(found, nbest)

    def _refer(self, found, nbest):
        self._nbest_lists[id(nbest)] = nbest
        self.referenced.update((id(nbest), c[0]) for c in found)

    def _count_scored(self, _raw, *_):
        self.scored += 1

    def _count_pair(self, window, keyword, *_):
        self._utt_pairs.add((tuple(window), tuple(keyword)))

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, span_names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int8),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32))

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, durations."""
        nid = np.frombuffer(self.name_id, dtype=np.int8)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum()), "dur": dur[sel]}
        return out


def _ms(durations, q):
    return float(np.percentile(durations, q) * 1e3) if len(durations) else 0.0


def layer_metrics(tr: Tracer, traced_s: float, untraced_s: float,
                  setup_parts: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json as {name: (value, unit)}.

    A ``score_ctc`` call that raises (a fuzzy window too short for the true
    keyword, which detect skips) is a span but not a scored candidate, so
    ``kws.merge.kept_ratio`` divides hits by successful scores only.
    """
    L = tr.layers()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "dur": np.zeros(0)}

    def g(name):
        return L.get(name, empty)

    beam = g("decoder.prefix_beam_search")
    viterbi = g("pgram.align_viterbi")
    detect = g("kws.detect")
    pdist = g("phonetics.phrase_distance")
    return {
        "pipeline.decode_char_s": (g("pipeline.decode_char")["s"], "s"),
        "pipeline.decode_syll_s": (g("pipeline.decode_syll")["s"], "s"),
        "pipeline.run_kws_s": (g("pipeline.run_kws")["s"], "s"),
        "pipeline.evaluate_s": (g("pipeline.evaluate")["s"], "s"),
        "pipeline.timed_s": (traced_s, "s"),
        "decoder.prefix_beam_search.calls": (beam["calls"], "count"),
        "decoder.prefix_beam_search.self_s": (beam["self_s"], "s"),
        "decoder.prefix_beam_search.p50_ms": (_ms(beam["dur"], 50), "ms"),
        "decoder.prefix_beam_search.p90_ms": (_ms(beam["dur"], 90), "ms"),
        "decoder.frames_per_s": (tr.frames_decoded / beam["s"]
                                 if beam["s"] else 0.0, "1/s"),
        "lm.score_token.calls": (g("lm.score_token")["calls"], "count"),
        "lm.score_token.s": (g("lm.score_token")["s"], "s"),
        "pgram.align_viterbi.calls": (viterbi["calls"], "count"),
        "pgram.align_viterbi.s": (viterbi["s"], "s"),
        "pgram.align_viterbi.useful_ratio": (
            len(tr.referenced) / viterbi["calls"] if viterbi["calls"] else 0.0,
            "ratio"),
        "kws.detect.calls": (detect["calls"], "count"),
        "kws.detect.p50_ms": (_ms(detect["dur"], 50), "ms"),
        "kws.detect.p90_ms": (_ms(detect["dur"], 90), "ms"),
        "kws.match_fuzzy.self_s": (g("kws.match_fuzzy")["self_s"], "s"),
        "kws.match_exact.s": (g("kws.match_exact")["s"], "s"),
        "kws.score_ctc.calls": (g("kws.score_ctc")["calls"], "count"),
        "kws.score_ctc.s": (g("kws.score_ctc")["s"], "s"),
        "kws.candidates.char": (tr.candidates["char"], "count"),
        "kws.candidates.syllable": (tr.candidates["syllable"], "count"),
        "kws.candidates.fuzzy": (tr.candidates["fuzzy"], "count"),
        "kws.merge.kept_ratio": (tr.hits / tr.scored if tr.scored else 0.0,
                                 "ratio"),
        "phonetics.phrase_distance.calls": (pdist["calls"], "count"),
        "phonetics.phrase_distance.s": (pdist["s"], "s"),
        "phonetics.phrase_distance.unique_ratio": (
            tr.unique_pairs / pdist["calls"] if pdist["calls"] else 0.0,
            "ratio"),
        "pgram.read_pgram.calls": (g("pgram.read_pgram")["calls"], "count"),
        "pgram.read_pgram.s": (g("pgram.read_pgram")["s"], "s"),
        "metrics.align_hits.calls": (g("metrics.align_hits")["calls"], "count"),
        "metrics.align_hits.s": (g("metrics.align_hits")["s"], "s"),
        "lm.train_s": (setup_parts["lm.train_s"], "s"),
        "lm.read_arpa_s": (setup_parts["lm.read_arpa_s"], "s"),
        "decoder.build_bias_trie_s": (setup_parts["decoder.build_bias_trie_s"],
                                      "s"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    }
