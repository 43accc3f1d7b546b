"""Acceptance gate: one test per release criterion.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion.  Corpus-level numbers asserted here were measured once on the
frozen seeds and act as regression bounds.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from kwspot import pipeline
from kwspot.corpus import confusion_tables, make_corpus, make_language
from kwspot.decoder import BeamConfig, BiasConfig, build_bias_trie, \
    prefix_beam_search
from kwspot.kws import (Hit, Keyword, KwsConfig, Stage, detect, fuzzy_costs,
                        score_ctc)
from kwspot.lm import BOS, train
from kwspot.metrics import EvalConfig, RefOccurrence, align_hits, atwv, f1
from kwspot.pgram import LOG_ZERO, Posteriorgram, SynthConfig, synth_generate
from kwspot.phonetics import CostTable, parse_syllable, syllable_distance
from kwspot.units import BLANK, UnitKind, UnitSet, tokenize_chars

from oracles import enumerate_label_masses, random_pgram_logp

US2 = UnitSet(id="ua", kind=UnitKind.CHARACTER, units=(BLANK, "a"))
US3 = UnitSet(id="uab", kind=UnitKind.CHARACTER, units=(BLANK, "a", "b"))
US4 = UnitSet(id="uabc", kind=UnitKind.CHARACTER, units=(BLANK, "a", "b", "c"))
SETS = {2: US2, 3: US3, 4: US4}
NO_PRUNE = BeamConfig(beam_size=10 ** 6, nbest=10 ** 6, lm_weight=0.0,
                      token_min_logp=-math.inf)


def pg_of(logp, set_id):
    return Posteriorgram("u", set_id, 0.04, np.asarray(logp, dtype=np.float32))


@pytest.fixture(scope="module")
def lang():
    return make_language()


class TestCriterion1BruteForce:
    def test_decoder_and_forward_match_path_enumeration(self):
        t0 = time.monotonic()
        # part 1: full N-best equals exhaustive path-sum, >= 500 instances
        for seed in range(500):
            rng = np.random.default_rng(seed)
            T = int(rng.integers(1, 6))
            V = int(rng.integers(2, 4))
            us = SETS[V]
            logp = random_pgram_logp(rng, T, V)
            pg = pg_of(logp, us.id)
            oracle = enumerate_label_masses(pg.logp.astype(np.float64))
            got = prefix_beam_search(pg, us, cfg=NO_PRUNE)
            assert len(got) == len(oracle)
            for e in got:
                assert e.score_total == pytest.approx(oracle[e.tokens],
                                                      rel=1e-9, abs=1e-9)
            best = min(oracle.items(), key=lambda kv: (-kv[1], kv[0]))
            assert got[0].tokens == best[0]
        # part 2: windowed forward scores equal path sums for every label
        for seed in range(40):
            rng = np.random.default_rng(1000 + seed)
            T = int(rng.integers(1, 7))
            V = int(rng.integers(2, 5))
            us = SETS[V]
            logp = random_pgram_logp(rng, T, V).astype(np.float64)
            pg = pg_of(logp, us.id)
            window_logp = pg.logp.astype(np.float64)
            for i in range(T):
                for j in range(i + 1, T + 1):
                    masses = enumerate_label_masses(window_logp[i:j])
                    for label, ref in masses.items():
                        if not label:
                            continue
                        got = score_ctc(pg, list(label), (i, j))
                        assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)
        assert time.monotonic() - t0 < 60.0


class TestCriterion2MicroExample:
    def test_two_frame_blank_a(self):
        # 4 paths: bb -> "", ba/ab/aa -> "a"; "aa" needs a separating blank
        pg = pg_of(np.log([[0.6, 0.4], [0.5, 0.5]]), "ua")
        out = prefix_beam_search(pg, US2, cfg=NO_PRUNE)
        by_tokens = {e.tokens: e for e in out}
        assert math.exp(by_tokens[(1,)].score_total) == pytest.approx(0.7, abs=1e-6)
        assert math.exp(by_tokens[()].score_total) == pytest.approx(0.3, abs=1e-6)
        assert (1, 1) not in by_tokens


class TestCriterion3LanguageModel:
    def test_mle_mass_and_arpa_round_trip(self, tmp_path):
        # hand-computed MLE, D = 0
        lm = train(["a b", "a c"], order=2, discount=0.0)
        assert 10 ** lm.score_token((BOS,), "a")[0] == pytest.approx(1.0)
        assert 10 ** lm.score_token(("a",), "b")[0] == pytest.approx(0.5)
        assert 10 ** lm.score_token(("a",), "c")[0] == pytest.approx(0.5)
        # per-context mass sums to 1 under discounting, random corpora
        rng = np.random.default_rng(7)
        for _ in range(5):
            lines = ["".join(rng.choice(list("abcd"),
                                        size=rng.integers(1, 8)))
                     for _ in range(rng.integers(2, 20))]
            lm = train(lines, order=3, discount=0.75)
            from test_lm import all_contexts, context_mass
            for ctx in all_contexts(lm):
                assert context_mass(lm, ctx) == pytest.approx(1.0, abs=1e-6)
        # ARPA round trip preserves scores
        from kwspot.lm import read_arpa, write_arpa
        lm = train(["abcab", "bca", "cabb"], order=4, discount=0.75)
        path = tmp_path / "m.arpa"
        write_arpa(lm, path)
        back = read_arpa(path)
        for toks in (["a"], ["a", "b", "c"], ["c", "a", "b", "b"]):
            drift = abs(lm.score_sequence(toks) - back.score_sequence(toks))
            assert drift < 1e-9


@pytest.fixture(scope="module")
def clean_run(lang, tmp_path_factory):
    """200 noiseless utterances, 50 keywords, full default pipeline."""
    t0 = time.monotonic()
    corpus = make_corpus(lang, num_utts=200, num_keywords=50, seed=0)
    char_lm = train(corpus.lm_lines, order=4, discount=0.75)
    from kwspot.units import syllabify
    syl_lines = [[lang.syll_set.units[i]
                  for i in syllabify(ln, lang.lexicon, lang.syll_set)]
                 for ln in corpus.lm_lines]
    syll_lm = train(syl_lines, order=4, discount=0.75)
    out = tmp_path_factory.mktemp("clean")
    refs, skipped = pipeline.synth_corpus(
        corpus.transcripts, corpus.keywords, lang.char_set, lang.syll_set,
        lang.lexicon, SynthConfig(noise=0.0), out, 0, 0.04)
    assert not skipped
    keywords = pipeline.build_keywords(corpus.keywords, lang.char_set,
                                       lang.lexicon, lang.syll_set)
    beam = BeamConfig()
    bias = BiasConfig()
    char_trie = build_bias_trie([list(k.char_units) for k in keywords],
                                char_lm, bias, unit_names=lang.char_set.units)
    syll_trie = build_bias_trie([list(k.syll_units) for k in keywords],
                                syll_lm, bias, unit_names=lang.syll_set.units)
    nb_c = pipeline.decode_dir(out / "char", lang.char_set, char_lm,
                               char_trie, beam, jobs=4)
    nb_s = pipeline.decode_dir(out / "syll", lang.syll_set, syll_lm,
                               syll_trie, beam, jobs=4)
    hits = pipeline.run_kws(out, nb_c, nb_s, keywords, lang.char_set,
                            lang.syll_set, lang.lexicon, CostTable(),
                            KwsConfig())
    ecfg = EvalConfig(total_speech_s=pipeline.total_speech_seconds(out / "char"))
    report = pipeline.evaluate(hits, refs, ecfg)
    return report, time.monotonic() - t0


class TestCriterion4NoiselessEndToEnd:
    def test_perfect_f1_and_atwv(self, clean_run):
        report, elapsed = clean_run
        assert report["f1"] == pytest.approx(1.0, abs=1e-12)
        assert report["atwv"] == pytest.approx(1.0, abs=1e-12)
        assert elapsed < 120.0


@pytest.fixture(scope="module")
def noisy_ladder(lang, tmp_path_factory):
    """Frozen noisy fixture: seed 2, noise 0.3, confusable units, lm_weight 1.5."""
    corpus = make_corpus(lang, num_utts=200, num_keywords=50, seed=2)
    char_conf, syll_conf = confusion_tables(lang)
    char_lm = train(corpus.lm_lines, order=4, discount=0.75)
    from kwspot.units import syllabify
    syl_lines = [[lang.syll_set.units[i]
                  for i in syllabify(ln, lang.lexicon, lang.syll_set)]
                 for ln in corpus.lm_lines]
    syll_lm = train(syl_lines, order=4, discount=0.75)
    out = tmp_path_factory.mktemp("noisy")
    refs, skipped = pipeline.synth_corpus(
        corpus.transcripts, corpus.keywords, lang.char_set, lang.syll_set,
        lang.lexicon, SynthConfig(noise=0.3), out, 2, 0.04,
        char_confusion=char_conf, syll_confusion=syll_conf)
    assert not skipped
    keywords = pipeline.build_keywords(corpus.keywords, lang.char_set,
                                       lang.lexicon, lang.syll_set)
    by_lm = sorted(keywords, key=lambda k: char_lm.score_sequence(list(k.text)))
    rare_ids = {k.id for k in by_lm[:len(keywords) // 4]}
    rare_refs = [r for r in refs if r.kw_id in rare_ids]
    report = pipeline.run_ablation(
        out, refs, keywords, lang.char_set, lang.syll_set, lang.lexicon,
        char_lm, syll_lm, CostTable(),
        BeamConfig(lm_weight=1.5), BiasConfig(), KwsConfig(),
        EvalConfig(total_speech_s=pipeline.total_speech_seconds(out / "char")),
        jobs=4, ref_subsets={"rare": rare_refs})
    return report["ladder"]


class TestCriterion5AblationLadder:
    def test_recall_monotone_and_bias_rescues_rare_keywords(self, noisy_ladder):
        rows = {r["method"]: r for r in noisy_ladder}
        order = [r["method"] for r in noisy_ladder]
        assert order == pipeline.LADDER
        recalls = [r["recall_all"] for r in noisy_ladder]
        for lo, hi in zip(recalls, recalls[1:]):
            assert hi >= lo - 1e-9
        gain = rows["+bias"]["recall_all_rare"] - rows["+nbest"]["recall_all_rare"]
        assert gain >= 0.05
        # measured on the frozen seed: 0.701299 -> 0.883117 (+0.1818)
        assert rows["+nbest"]["recall_all_rare"] >= 0.68
        assert rows["+bias"]["recall_all_rare"] >= 0.86
        assert gain >= 0.15
        # measured full-pipeline recall on the frozen seed: 1.0
        assert recalls[-1] >= 0.98


class TestCriterion6BiasMonotonicity:
    def test_chunk_hypotheses_never_lose_ground(self):
        # A hypothesis may overtake another that carries fewer chunk awards,
        # so rank is compared against chunk-free hypotheses only: the set of
        # chunk-free hypotheses above a chunk-carrying one never grows.
        def contains(seq, chunk):
            n = len(chunk)
            return any(seq[i:i + n] == chunk for i in range(len(seq) - n + 1))

        def plain_above(results, target, chunk):
            out = set()
            for e in results:
                if e.tokens == target:
                    return out
                if not contains(e.tokens, chunk):
                    out.add(e.tokens)
            raise AssertionError("hypothesis missing from result list")

        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            T = int(rng.integers(2, 6))
            logp = random_pgram_logp(rng, T, 3)
            pg = pg_of(logp, "uab")
            chunk = tuple(int(rng.integers(1, 3))
                          for _ in range(int(rng.integers(1, 3))))
            beta = float(rng.uniform(0.5, 8.0))
            trie = build_bias_trie([list(chunk)], None,
                                   BiasConfig(alpha=0.0, beta=beta))
            base = prefix_beam_search(pg, US3, cfg=NO_PRUNE)
            biased = prefix_beam_search(
                pg, US3, trie=trie,
                cfg=NO_PRUNE)
            for e in biased:
                if contains(e.tokens, chunk):
                    assert plain_above(biased, e.tokens, chunk) <= \
                        plain_above(base, e.tokens, chunk)


class TestCriterion7MetricGoldenCases:
    def _hit(self, utt, kw, start, end):
        return Hit(utt_id=utt, kw_id=kw, stage=Stage.CHAR, start_frame=0,
                   end_frame=0, start_s=start, end_s=end, norm_score=-1.0,
                   decision=True)

    def test_hand_example_and_edge_cases(self):
        cfg = EvalConfig(total_speech_s=100.0)
        refs = [RefOccurrence("u", "k1", 0.0, 1.0),
                RefOccurrence("u", "k1", 5.0, 6.0),
                RefOccurrence("u", "k2", 10.0, 11.0)]
        hits = [self._hit("u", "k1", 0.0, 1.0),   # tp for k1
                self._hit("u", "k2", 10.0, 11.0),  # tp for k2
                self._hit("u", "k2", 50.0, 51.0)]  # fa for k2
        tp, fp, fn = align_hits(hits, refs, cfg)
        val, per_kw = atwv(tp, fp, refs, cfg)
        # k1: 1 - 1/2 = 0.5
        # k2: 1 - 0 - 999.9 * (1 / (100 - 1)) = 1 - 10.1 = -9.1 exactly
        assert per_kw["k1"] == pytest.approx(0.5, abs=1e-4)
        assert per_kw["k2"] == pytest.approx(-9.1, abs=1e-4)
        assert val == pytest.approx(-4.3, abs=1e-4)
        # perfect detection and total miss
        tp, fp, fn = align_hits([self._hit("u", "k1", 0.0, 1.0),
                                 self._hit("u", "k1", 5.0, 6.0),
                                 self._hit("u", "k2", 10.0, 11.0)], refs, cfg)
        assert atwv(tp, fp, refs, cfg)[0] == 1.0
        tp, fp, fn = align_hits([], refs, cfg)
        assert atwv(tp, fp, refs, cfg)[0] == 0.0


class TestCriterion8FuzzyMatching:
    def test_tone_variants_recovered_then_rejected(self, lang):
        costs = CostTable()
        fuzzy = fuzzy_costs(lang.char_set, lang.lexicon, costs)

        def tone_variant(ch):
            base = parse_syllable(lang.lexicon.primary(ch))
            for other in lang.confusable.get(ch, []):
                cand = parse_syllable(lang.lexicon.primary(other))
                if syllable_distance(base, cand, costs) == costs.tone_cost:
                    return other
            return None

        chars = [u for u in lang.char_set.units[1:]]
        with_variant = [c for c in chars if tone_variant(c)]
        rng = np.random.default_rng(11)
        kws = []
        for i in range(10):
            a = with_variant[int(rng.integers(0, len(with_variant)))]
            b = chars[int(rng.integers(0, len(chars)))]
            kws.append(a + b)

        recovered = rejected = 0
        for i in range(50):
            text = kws[i % len(kws)]
            kw = Keyword(id="kw", text=text,
                         char_units=tuple(tokenize_chars(text, lang.char_set)),
                         syll_units=())
            variant = tone_variant(text[0]) + text[1]
            related = set(text) | set(variant)
            for c in text:
                related.update(lang.confusable.get(c, []))
            filler_pool = [c for c in chars if c not in related]
            filler = [filler_pool[int(rng.integers(0, len(filler_pool)))]
                      for _ in range(4)]
            utt = "".join(filler[:2]) + variant + "".join(filler[2:])
            ids = tokenize_chars(utt, lang.char_set)
            pg = synth_generate(ids, lang.char_set, SynthConfig(seed=i))
            nbest = prefix_beam_search(pg, lang.char_set,
                                       cfg=BeamConfig(lm_weight=0.0))
            for thr, want in ((0.5, True), (0.1, False)):
                cfg = KwsConfig(fuzzy_threshold=thr)
                hits = detect(pg, None, nbest, None, [kw], fuzzy, cfg)
                if want:
                    recovered += bool(hits)
                else:
                    rejected += not hits
        # one tone substitution in a 2-unit keyword: distance 0.1 per unit
        assert recovered == 50
        assert rejected == 50


class TestCriterion9PerformanceFloor:
    def test_thousand_frames_large_inventory(self):
        V = 6000
        units = (BLANK,) + tuple(f"u{i:04d}" for i in range(1, V))
        us = UnitSet(id="big", kind=UnitKind.CHARACTER, units=units)
        rng = np.random.default_rng(3)
        tokens = rng.integers(1, V, size=250)
        logp = np.full((1000, V), LOG_ZERO, dtype=np.float32)
        for k, tok in enumerate(tokens):
            partners = rng.integers(1, V, size=3)
            for t in range(4 * k, 4 * k + 4):
                logp[t, tok] = math.log(0.7)
                for p in partners:
                    if p != tok:
                        logp[t, p] = math.log(0.1)
        pg = Posteriorgram("u", "big", 0.04, logp)
        lines = [[units[i] for i in rng.integers(1, V, size=15)]
                 for _ in range(100)]
        lm = train(lines, order=4, discount=0.75)
        kw_seqs = [[int(i) for i in rng.integers(1, V, size=3)]
                   for _ in range(50)]
        trie = build_bias_trie(kw_seqs, lm, BiasConfig(), unit_names=units)
        cfg = BeamConfig()  # beam 10, LM fusion and bias enabled
        t0 = time.monotonic()
        out = prefix_beam_search(pg, us, lm=lm, trie=trie, cfg=cfg)
        elapsed = time.monotonic() - t0
        assert elapsed < 2.0
        assert 1 <= len(out) <= cfg.nbest


class TestCriterion10Determinism:
    def test_ablate_reports_byte_identical(self, tmp_path, demo_writer):
        demo = tmp_path / "demo"
        demo_writer(demo, num_utts=15, num_keywords=20, noise=0.3, seed=3)

        from kwspot.cli import main
        cfg = str(demo / "config.ini")
        pg = str(tmp_path / "pg")
        assert main(["--config", cfg, "synth",
                     str(demo / "transcripts.tsv"), pg, "--confusion"]) == 0
        assert main(["--config", cfg, "lm-train", str(demo / "lm_corpus.txt"),
                     str(demo / "char.arpa")]) == 0
        assert main(["--config", cfg, "lm-train", str(demo / "lm_corpus.txt"),
                     str(demo / "syll.arpa"), "--unit", "syllable"]) == 0
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        rare = str(demo / "rare_keywords.txt")
        assert main(["--config", cfg, "--jobs", "2", "ablate", pg,
                     str(Path(pg) / "refs.tsv"), "--out", str(r1),
                     "--rare-keywords", rare]) == 0
        assert main(["--config", cfg, "--jobs", "1", "ablate", pg,
                     str(Path(pg) / "refs.tsv"), "--out", str(r2),
                     "--rare-keywords", rare]) == 0
        assert r1.read_bytes() == r2.read_bytes()
