"""The benchmark's workloads: inputs, set-up, the timed part and its checks.

A workload run is split into parts.  Each part is an independent corpus from
``make_corpus`` with its own keyword list, LM text and utterances, seeded
from the run seed.  Throughput depends strongly on the keyword list (the
fuzzy stage costs about k^2 per window for a k-syllable keyword) and on
utterance length (span alignment costs about T^2 per utterance), so one
corpus of the same total size spreads far more from seed to seed than
several smaller ones.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kwspot import pipeline
from kwspot.corpus import confusion_tables, make_corpus, make_language
from kwspot.decoder import BeamConfig, BiasConfig, build_bias_trie
from kwspot.kws import KwsConfig
from kwspot.lm import read_arpa, train, write_arpa
from kwspot.metrics import EvalConfig
from kwspot.pgram import SynthConfig, read_pgram
from kwspot.phonetics import CostTable
from kwspot.units import syllabify

NOISE = 0.3
FRAME_PERIOD_S = 0.04
LM_ORDER = 4          # the lm-train defaults of the CLI
LM_DISCOUNT = 0.75
BEAM = BeamConfig(lm_weight=1.5)


@dataclass(frozen=True)
class Workload:
    name: str
    parts: int
    utts: int           # per part
    num_keywords: int   # per part
    utt_words: int      # make_corpus: at most this many filler words
    confusion: bool     # confusion-table noise, else uniform noise
    ladder: bool        # time run_ablation, else decode + kws + evaluate
    jobs: int


# Sizes put one round (set-ups of every part, then one cycle over all parts)
# at about 6-8 s on a 2-CPU Xeon, so a 35 s run measures four or five rounds
# and its medians ignore a slow spell of the host that covers fewer than
# half of them.  wide's utterances are short (utt_words=3) because span
# alignment makes its cost per speech second grow with utterance length,
# which would otherwise spread wide's throughput from seed to seed.  ladder
# has two parts of six utterances, so that each decode_dir call hands its
# two-process Pool a directory of six files, not two.
WORKLOADS = {w.name: w for w in (
    Workload("noisy", 8, 2, 50, 6, True, False, 1),
    Workload("wide", 6, 1, 10, 3, False, False, 1),
    Workload("ladder", 2, 6, 50, 6, True, True, 2),
)}


def part_seeds(seed: int, parts: int) -> list[int]:
    return [seed * 1000 + i for i in range(parts)]


class Part:
    """One generated corpus of a workload, its set-up state and checks."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl, self.work = wl, work
        self.data = work / "data"
        self.lang = make_language()
        self.corpus = make_corpus(self.lang, num_utts=wl.utts,
                                  num_keywords=wl.num_keywords,
                                  utt_words=wl.utt_words, seed=seed)
        char_conf, syll_conf = (confusion_tables(self.lang) if wl.confusion
                                else (None, None))
        self.refs, skipped = pipeline.synth_corpus(
            self.corpus.transcripts, self.corpus.keywords, self.lang.char_set,
            self.lang.syll_set, self.lang.lexicon, SynthConfig(noise=NOISE),
            self.data, seed, FRAME_PERIOD_S,
            char_confusion=char_conf, syll_confusion=syll_conf)
        if skipped:
            raise RuntimeError(f"synthesis skipped {len(skipped)} utterances")
        self.utts = [u for u, _ in self.corpus.transcripts]
        self.speech_s = pipeline.total_speech_seconds(self.data / "char")

    def input_counts(self) -> dict[str, int]:
        """Frames, and frame-units above the decoder's token_min_logp."""
        out = {}
        for stage in ("char", "syll"):
            frames = live = 0
            for utt in self.utts:
                lp = read_pgram(self.data / stage / f"{utt}.pgram").logp
                frames += lp.shape[0]
                live += int(np.count_nonzero(lp > BEAM.token_min_logp))
            out[f"{stage}_frames"] = frames
            out[f"{stage}_live_units"] = live
        return out

    def set_up(self) -> dict[str, float]:
        """What a CLI user runs before the first decode; returns its timings."""
        lang = self.lang
        t0 = time.perf_counter()
        char_lm = train(self.corpus.lm_lines, order=LM_ORDER,
                        discount=LM_DISCOUNT)
        syl_lines = [[lang.syll_set.units[i]
                      for i in syllabify(ln, lang.lexicon, lang.syll_set)]
                     for ln in self.corpus.lm_lines]
        syll_lm = train(syl_lines, order=LM_ORDER, discount=LM_DISCOUNT)
        t1 = time.perf_counter()
        write_arpa(char_lm, self.work / "char.arpa")
        write_arpa(syll_lm, self.work / "syll.arpa")
        t2 = time.perf_counter()
        self.char_lm = read_arpa(self.work / "char.arpa")
        self.syll_lm = read_arpa(self.work / "syll.arpa")
        t3 = time.perf_counter()
        self.keywords = pipeline.build_keywords(
            self.corpus.keywords, lang.char_set, lang.lexicon, lang.syll_set)
        t4 = time.perf_counter()
        bias = BiasConfig()
        self.char_trie = build_bias_trie(
            [list(k.char_units) for k in self.keywords], self.char_lm, bias,
            unit_names=lang.char_set.units)
        self.syll_trie = build_bias_trie(
            [list(k.syll_units) for k in self.keywords], self.syll_lm, bias,
            unit_names=lang.syll_set.units)
        t5 = time.perf_counter()
        return {"setup_s": t5 - t0, "lm.train_s": t1 - t0,
                "lm.read_arpa_s": t3 - t2,
                "decoder.build_bias_trie_s": t5 - t4}

    def timed_pass(self, jobs: int):
        """The timed part; returns the outputs the checks read."""
        lang = self.lang
        ecfg = EvalConfig(total_speech_s=self.speech_s)
        # looked up on the module at call time, so the tracer's wrappers apply
        if self.wl.ladder:
            return pipeline.run_ablation(
                self.data, self.refs, self.keywords, lang.char_set,
                lang.syll_set, lang.lexicon, self.char_lm, self.syll_lm,
                CostTable(), BEAM, BiasConfig(), KwsConfig(), ecfg, jobs=jobs)
        nb_c = pipeline.decode_dir(self.data / "char", lang.char_set,
                                   self.char_lm, self.char_trie, BEAM,
                                   jobs=jobs)
        nb_s = pipeline.decode_dir(self.data / "syll", lang.syll_set,
                                   self.syll_lm, self.syll_trie, BEAM,
                                   jobs=jobs)
        hits = pipeline.run_kws(self.data, nb_c, nb_s, self.keywords,
                                lang.char_set, lang.syll_set, lang.lexicon,
                                CostTable(), KwsConfig())
        report = pipeline.evaluate(hits, self.refs, ecfg)
        return {"nbest_char": nb_c, "nbest_syll": nb_s, "hits": hits,
                "report": report}

    def check(self, out) -> tuple[str, set[str], dict]:
        """(digest, utterances whose output breaks an invariant, quality).

        The digest covers a canonical dump, not the files the CLI writes, so
        a change of file format keeps it.  N-best entries enter without
        their spans, so aligning spans lazily keeps it too.
        """
        if self.wl.ladder:
            return self._check_ladder(out)
        threshold = KwsConfig().decision_threshold
        bad: set[str] = set()
        h = hashlib.sha256()
        for tag in ("char", "syll"):
            nbest = out[f"nbest_{tag}"]
            bad.update(u for u in self.utts if not nbest.get(u))
            for utt in sorted(nbest):
                entries = nbest[utt]
                if any(a.score_total < b.score_total
                       for a, b in zip(entries, entries[1:])):
                    bad.add(utt)
                for rank, e in enumerate(entries):
                    toks = " ".join(map(str, e.tokens))
                    h.update(f"N\t{tag}\t{utt}\t{rank}\t{toks}\t"
                             f"{e.score_total:.6f}\n".encode())
        for x in out["hits"]:
            if not (0 <= x.start_frame < x.end_frame
                    and x.decision == (x.norm_score >= threshold)):
                bad.add(x.utt_id)
            h.update(f"H\t{x.utt_id}\t{x.kw_id}\t{x.stage.value}\t"
                     f"{x.start_frame}\t{x.end_frame}\t{x.norm_score:.6f}\t"
                     f"{int(x.decision)}\n".encode())
        rep = out["report"]
        if not (0.0 <= rep["f1"] <= 1.0 and rep["atwv"] <= 1.0):
            bad.update(self.utts)
        nbest_entries = sum(len(v) for k in ("nbest_char", "nbest_syll")
                            for v in out[k].values())
        return h.hexdigest(), bad, {"f1": rep["f1"], "atwv": rep["atwv"],
                                    "nbest_entries": nbest_entries}

    def _check_ladder(self, out):
        rows = out["ladder"]
        bad: set[str] = set()
        if [r["method"] for r in rows] != pipeline.LADDER or not all(
                0.0 <= r[k] <= 1.0 for r in rows
                for k in ("f1", "precision", "recall", "recall_all")):
            bad.update(self.utts)
        h = hashlib.sha256()
        for r in rows:
            vals = "\t".join(f"{k}={r[k]:.6f}" for k in sorted(r)
                             if k != "method")
            h.update(f"L\t{r['method']}\t{vals}\n".encode())
        # quality of the full pipeline, the last ladder row
        return h.hexdigest(), bad, {"f1": rows[-1]["f1"],
                                    "atwv": rows[-1]["atwv"]}
