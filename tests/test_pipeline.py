import hashlib
import json
import math
import re
import shutil
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwspot import kws, phonetics, pipeline
from kwspot.corpus import confusion_tables, make_corpus, make_language
from kwspot.decoder import BeamConfig, BiasConfig
from kwspot.errors import (AlignmentInfeasible, BadFormat, BadSyllable,
                           OutOfVocabulary, UnitSetMismatch)
from kwspot.kws import Hit, KwsConfig, Stage
from kwspot.phonetics import CostTable
from kwspot.lm import train
from kwspot.metrics import EvalConfig, RefOccurrence, align_hits
from kwspot.pgram import (LOG_ZERO, SynthConfig, read_pgram, token_layout,
                          write_pgram)
from kwspot.units import Lexicon, syllabify, tokenize_chars

import oracles
from fuzzing import edit_lists, mutate


@pytest.fixture(scope="module")
def lang():
    return make_language()


class TestFileParsing:
    def test_transcripts_and_keywords(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("# comment\nu1\tab\n\nu2\tcd\n", encoding="utf-8")
        assert pipeline.load_id_text(p) == [("u1", "ab"), ("u2", "cd")]
        k = tmp_path / "k.tsv"
        k.write_text("k1\txy\n# skip\nk2\tz\n", encoding="utf-8")
        assert pipeline.load_id_text(k) == [("k1", "xy"), ("k2", "z")]

    def test_line_without_tab_is_bad_format(self, tmp_path):
        p = tmp_path / "k.tsv"
        p.write_text("k1\txy\nk2 z\n", encoding="utf-8")
        with pytest.raises(BadFormat, match=":2:"):
            pipeline.load_id_text(p)

    def test_repeated_id_is_bad_format(self, tmp_path):
        p = tmp_path / "k.tsv"
        p.write_text("k1\txy\n# k1 again\nk2\tz\nk1\tw\n", encoding="utf-8")
        with pytest.raises(BadFormat, match=f"{p}:4: id 'k1' repeated"):
            pipeline.load_id_text(p)


class TestUttSeed:
    def test_deterministic_and_distinct(self):
        seeds = [pipeline.utt_seed(5, i) for i in range(100)]
        assert seeds == [pipeline.utt_seed(5, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert all(0 <= s <= 0x7FFFFFFF for s in seeds)


class TestSynthCorpus:
    # {i} is char unit i; whitespace is in no token, so each case has the
    # refs of the plain transcript 123 with keyword 23
    @pytest.mark.parametrize("text, kw_text", [
        pytest.param("{1}{2}{3}", "{2}{3}", id="plain"),
        pytest.param("{1}\u3000{2}{3}", "{2}{3}", id="ideographic-space"),
        pytest.param("{1}{2}\t{3}", "{2}{3}", id="tab-in-keyword"),
        pytest.param("{1}{2}{3}", "{2} {3}", id="space-in-keyword-text"),
    ])
    def test_refs_match_generator_layout(self, lang, tmp_path, text, kw_text):
        ch = lang.char_set.units
        text, kw_text = text.format(*ch), kw_text.format(*ch)
        scfg = SynthConfig(noise=0.0)
        refs, skipped = pipeline.synth_corpus(
            [("u1", text)], [("k1", kw_text)], lang.char_set, lang.syll_set,
            lang.lexicon, scfg, tmp_path, seed=0, frame_period_s=0.04)
        assert not skipped
        assert (tmp_path / "char" / "u1.pgram").exists()
        assert (tmp_path / "syll" / "u1.pgram").exists()
        layout = token_layout(tokenize_chars(ch[1] + ch[2] + ch[3],
                                             lang.char_set), scfg)
        (ref,) = refs
        assert ref.kw_id == "k1"
        assert ref.start_s == pytest.approx(layout[1][0] * 0.04)
        assert ref.end_s == pytest.approx(layout[2][1] * 0.04)

    def test_out_of_vocabulary_keyword_raises(self, lang, tmp_path):
        ch = lang.char_set.units
        with pytest.raises(OutOfVocabulary, match=repr("?")):
            pipeline.synth_corpus(
                [("u1", ch[1] + ch[2])], [("k1", ch[1]), ("k2", ch[2] + "?")],
                lang.char_set, lang.syll_set, lang.lexicon, SynthConfig(),
                tmp_path, seed=0, frame_period_s=0.04)
        assert not (tmp_path / "char").exists()

    def test_oov_utterance_skipped(self, lang, tmp_path):
        refs, skipped = pipeline.synth_corpus(
            [("u1", lang.char_set.units[1]), ("u2", "?")], (),
            lang.char_set, lang.syll_set, lang.lexicon,
            SynthConfig(), tmp_path, seed=0, frame_period_s=0.04)
        assert [u for u, _ in skipped] == ["u2"]
        assert (tmp_path / "char" / "u1.pgram").exists()
        assert not (tmp_path / "char" / "u2.pgram").exists()


@pytest.fixture(scope="module")
def small_run(lang, tmp_path_factory):
    corpus = make_corpus(lang, num_utts=8, num_keywords=6, seed=4)
    out = tmp_path_factory.mktemp("small")
    refs, skipped = pipeline.synth_corpus(
        corpus.transcripts, corpus.keywords, lang.char_set, lang.syll_set,
        lang.lexicon, SynthConfig(noise=0.0), out, 0, 0.04)
    assert not skipped
    lm = train(corpus.lm_lines, order=3, discount=0.75)
    return corpus, out, refs, lm


class TestDecodeDir:
    def test_jobs_independent_and_sorted(self, lang, small_run):
        _, out, _, lm = small_run
        beam = BeamConfig()
        one = pipeline.decode_dir(out / "char", lang.char_set, lm, None, beam,
                                  jobs=1)
        two = pipeline.decode_dir(out / "char", lang.char_set, lm, None, beam,
                                  jobs=2)
        assert list(one) == sorted(one)
        assert list(one) == list(two)
        # whole entries: tokens, text, every score and the spans
        assert one == two

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_names_first_failing_utterance(self, lang, small_run,
                                                 monkeypatch, jobs):
        # every search fails and the first utterance's fails last, so a
        # worker reports a later utterance's failure before it
        _, out, _, _ = small_run
        first = min(p.stem for p in (out / "char").glob("*.pgram"))

        def failing_search(pg, *args, **kwargs):
            if pg.utt_id == first:
                time.sleep(0.3)
            raise AlignmentInfeasible(f"utterance {pg.utt_id!r}")
        monkeypatch.setattr(pipeline, "prefix_beam_search", failing_search)
        with pytest.raises(AlignmentInfeasible,
                           match=re.escape(f"utterance {first!r}")):
            pipeline.decode_dir(out / "char", lang.char_set, None, None,
                                BeamConfig(), jobs=jobs)

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_jobs_below_one_rejected(self, lang, small_run, jobs):
        _, out, _, _ = small_run
        with pytest.raises(ValueError, match="jobs"):
            pipeline.decode_dir(out / "char", lang.char_set, None, None,
                                BeamConfig(), jobs=jobs)

    def test_utt_id_must_match_file_name(self, lang, small_run, tmp_path):
        _, out, _, _ = small_run
        first = sorted((out / "char").glob("*.pgram"))[0]
        shutil.copytree(out / "char", tmp_path / "char")
        # a second file carrying the first one's utterance id
        write_pgram(read_pgram(first), tmp_path / "char" / "zz.pgram")
        with pytest.raises(BadFormat, match="zz.pgram"):
            pipeline.decode_dir(tmp_path / "char", lang.char_set, None, None,
                                BeamConfig())

    def test_nbest_round_trip(self, lang, small_run, tmp_path):
        # noisy posteriorgrams, so no span field can be a constant like log 1
        corpus, _, _, lm = small_run
        out = tmp_path / "noisy"
        pipeline.synth_corpus(corpus.transcripts, corpus.keywords,
                              lang.char_set, lang.syll_set, lang.lexicon,
                              SynthConfig(noise=0.3), out, 0, 0.04)
        nbest = pipeline.decode_dir(out / "char", lang.char_set, lm, None,
                                    BeamConfig())
        path = tmp_path / "nbest.jsonl"
        pipeline.write_nbest(nbest, path)
        back = pipeline.read_nbest(path)
        assert list(back) == list(nbest)
        for utt in nbest:
            for a, b in zip(nbest[utt], back[utt]):
                assert a.tokens == b.tokens and a.text == b.text
                assert a.score_total == pytest.approx(b.score_total)
                assert a.spans == b.spans


VALID_NBEST = (
    '{"utt_id": "u1", "hyps": [{"text": "ab", "tokens": [1, 2], '
    '"score_am": -1.5, "score_lm": -0.5, "score_bias": 0.0, '
    '"score_total": -2.0, "spans": [[1, 3], [3, 5]]}]}\n'
    '{"utt_id": "u2", "hyps": []}\n')


@pytest.fixture(scope="module")
def decoded(lang, small_run):
    corpus, out, _, lm = small_run
    beam = BeamConfig(nbest=2)
    nb_c = pipeline.decode_dir(out / "char", lang.char_set, lm, None, beam)
    nb_s = pipeline.decode_dir(out / "syll", lang.syll_set, None, None, beam)
    keywords = pipeline.build_keywords(corpus.keywords, lang.char_set,
                                       lang.lexicon, lang.syll_set)
    return nb_c, nb_s, keywords


@pytest.fixture(scope="module")
def noisy_decoded(lang, tmp_path_factory):
    """A confusion-noise corpus and its 5-best lists, which share windows
    across ranks."""
    corpus = make_corpus(lang, num_utts=6, num_keywords=6, seed=4)
    out = tmp_path_factory.mktemp("noisy_kws")
    char_conf, syll_conf = confusion_tables(lang)
    pipeline.synth_corpus(corpus.transcripts, corpus.keywords, lang.char_set,
                          lang.syll_set, lang.lexicon, SynthConfig(noise=0.3),
                          out, 0, 0.04, char_confusion=char_conf,
                          syll_confusion=syll_conf)
    lm = train(corpus.lm_lines, order=3, discount=0.75)
    beam = BeamConfig(nbest=5)
    nb_c = pipeline.decode_dir(out / "char", lang.char_set, lm, None, beam)
    nb_s = pipeline.decode_dir(out / "syll", lang.syll_set, None, None, beam)
    keywords = pipeline.build_keywords(corpus.keywords, lang.char_set,
                                       lang.lexicon, lang.syll_set)
    return out, nb_c, nb_s, keywords


class TestComputeOnce:
    """run_kws measures each distinct window once per keyword and utterance,
    in one batch per keyword width and utterance, and scores each distinct
    frame window once per utterance."""

    @staticmethod
    def _record(monkeypatch, owner, name):
        """Replace owner.<name> by a wrapper that records its arguments."""
        seen = []
        fn = getattr(owner, name)

        def recorded(*args):
            seen.append(args)
            return fn(*args)
        monkeypatch.setattr(owner, name, recorded)
        return seen

    @staticmethod
    def _run_kws(lang, noisy_decoded, cfg):
        return pipeline.run_kws(*noisy_decoded, lang.char_set, lang.syll_set,
                                lang.lexicon, CostTable(), cfg)

    def test_no_batch_repeats_a_window(self, lang, noisy_decoded,
                                       monkeypatch):
        utts = self._record(monkeypatch, pipeline, "detect")
        builds = self._record(monkeypatch, kws, "substitution_matrix")
        batches = []  # (utterance number, windows, keyword units)
        found = []  # (N-best, keyword, fuzzy candidate)
        distance, match = kws.phrase_distance, kws.match_fuzzy

        def batch(windows, keywords, *args):
            batches.append((len(utts), windows, keywords))
            return distance(windows, keywords, *args)

        def matched(nbest, kw, *args):
            cands = match(nbest, kw, *args)
            found.extend((nbest, kw, c) for c in cands)
            return cands
        monkeypatch.setattr(kws, "phrase_distance", batch)
        monkeypatch.setattr(kws, "match_fuzzy", matched)
        assert self._run_kws(lang, noisy_decoded, KwsConfig())
        assert len(builds) == 1
        pairs = [(utt, w, kw) for utt, windows, keywords in batches
                 for w in windows for kw in keywords]
        assert pairs and len(pairs) == len(set(pairs))
        widths = [(utt, len(keywords[0])) for utt, _, keywords in batches]
        assert len(widths) == len(set(widths))
        assert found
        assert all(nbest[r].tokens[i:j] != kw.char_units
                   for nbest, kw, (r, i, j, _) in found)

    def test_no_fuzzy_stage_no_distance_and_no_matrix(
            self, lang, noisy_decoded, monkeypatch):
        calls = self._record(monkeypatch, kws, "phrase_distance")
        builds = self._record(monkeypatch, kws, "substitution_matrix")
        cfg = KwsConfig(fuzzy_threshold=0)
        assert self._run_kws(lang, noisy_decoded, cfg)
        assert calls == [] and builds == []

    def test_one_score_per_distinct_window(self, lang, noisy_decoded,
                                           monkeypatch):
        utts = self._record(monkeypatch, pipeline, "detect")
        scores = self._record(monkeypatch, kws, "score_ctc")
        reference = self._record(monkeypatch, oracles, "score_ctc")
        hits = self._run_kws(lang, noisy_decoded, KwsConfig())
        want = []
        for pg_c, pg_s, nb_c, nb_s, keywords, fuzzy, cfg in utts:
            want.extend(oracles.detect(pg_c, pg_s, nb_c, nb_s, keywords,
                                       fuzzy, cfg))
        assert hits == want

        def key(args):
            pg, units, window = args
            return id(pg), tuple(units), window
        got = [key(a) for a in scores]
        assert len(got) == len(set(got))
        assert set(got) == {key(a) for a in reference}
        assert len(got) < len(reference)

    def test_one_matrix_per_equal_cost_table(self, lang, noisy_decoded,
                                             monkeypatch):
        # a table no other test builds with, so the first call is a build
        tables = [CostTable(tone_cost=0.125, indel_cost=0.875)
                  for _ in range(2)]
        assert tables[0] == tables[1] and tables[0] is not tables[1]
        pairs = self._record(monkeypatch, phonetics, "syllable_distance")
        priced = []
        for table in tables:
            pipeline.run_kws(*noisy_decoded, lang.char_set, lang.syll_set,
                             lang.lexicon, table, KwsConfig())
            priced.append(len(pairs))
        assert priced[0] > 0 and priced[1] == priced[0]
        sub = kws.fuzzy_costs(lang.char_set, lang.lexicon, tables[1]).sub
        assert not sub.flags.writeable


class TestBrokenKwsInputs:
    def _run_kws(self, lang, pgram_dir, nb_c, nb_s, keywords):
        return pipeline.run_kws(pgram_dir, nb_c, nb_s, keywords, lang.char_set,
                                lang.syll_set, lang.lexicon, CostTable(),
                                KwsConfig())

    @pytest.mark.parametrize("breakage", ["json", "key", "spans", "repeat",
                                          "span_length"])
    def test_broken_nbest_is_bad_format(self, decoded, tmp_path, breakage):
        path = tmp_path / "nbest.jsonl"
        pipeline.write_nbest(decoded[0], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        obj = json.loads(lines[0])
        if breakage == "json":
            lines[0] = lines[0][:-1]
        elif breakage == "key":
            del obj["hyps"][0]["score_lm"]
        elif breakage == "spans":
            obj["hyps"][0]["spans"].pop()
        elif breakage == "span_length":
            obj["hyps"][0]["spans"][0].append(0)
        else:
            lines.append(lines[0])
        if breakage in ("key", "spans", "span_length"):
            lines[0] = json.dumps(obj, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(BadFormat):
            pipeline.read_nbest(path)

    @pytest.mark.parametrize("field, value", [
        ("tokens", "x"), ("tokens", 1.5), ("tokens", True), ("tokens", None),
        ("spans", "3"), ("spans", 2.0), ("spans", False),
        ("score_am", "high"), ("score_lm", None), ("score_bias", True),
        ("score_total", [1.0]), ("text", 5), ("text", ["x"]), ("text", None),
        ("score_am", math.nan), ("score_lm", math.inf),
        ("score_total", -math.inf),
        pytest.param("score_bias", 10 ** 400, id="score_bias-huge_int")])
    def test_non_integer_token_or_frame_is_bad_format(self, decoded, tmp_path,
                                                      field, value):
        path = tmp_path / "nbest.jsonl"
        pipeline.write_nbest(decoded[0], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        obj = json.loads(lines[0])
        hyp = obj["hyps"][0]
        if field == "tokens":
            hyp["tokens"][0] = value
        elif field == "spans":
            hyp["spans"][0][1] = value
        else:
            hyp[field] = value
        lines[0] = json.dumps(obj, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(BadFormat, match=":1:"):
            pipeline.read_nbest(path)

    @pytest.mark.parametrize("spans", [
        [[-1, 3], [3, 5]], [[3, 3], [3, 5]], [[1, 3], [5, 4]],
        [[1, 4], [3, 5]], [[3, 5], [1, 3]]],
        ids=["negative", "empty", "reversed", "overlapping", "out-of-order"])
    def test_span_not_in_order_is_bad_format(self, tmp_path, spans):
        obj = json.loads(VALID_NBEST.splitlines()[0])
        obj["hyps"][0]["spans"] = spans
        path = tmp_path / "nbest.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(BadFormat, match="nbest.jsonl:1: .*span"):
            pipeline.read_nbest(path)

    @pytest.mark.parametrize("stage", ["char", "syll"])
    def test_span_past_posteriorgram_is_bad_format(self, lang, small_run,
                                                   decoded, stage):
        _, out, _, _ = small_run
        nb_c, nb_s, keywords = decoded
        nbest = nb_c if stage == "char" else nb_s
        utt = max(nb_c)
        frames = read_pgram(out / stage / f"{utt}.pgram").num_frames
        k, entry = next((k, e) for k, e in enumerate(nbest[utt]) if e.spans)
        spans = [*entry.spans[:-1], (entry.spans[-1][0], frames + 1)]
        hyps = list(nbest[utt])
        hyps[k] = replace(entry, spans=spans)
        bad = {**nbest, utt: hyps}
        nb_c, nb_s = (bad, nb_s) if stage == "char" else (nb_c, bad)
        with pytest.raises(BadFormat,
                           match=re.escape(f"{stage}: utterance {utt!r}")):
            self._run_kws(lang, out, nb_c, nb_s, keywords)

    @pytest.mark.parametrize("side, token", [
        ("char", -1), ("char", 0), ("char", 999), ("syll", -1),
        ("syll", "len")])
    def test_token_outside_unit_set_is_bad_format(self, lang, small_run,
                                                  decoded, side, token):
        _, out, _, _ = small_run
        nb_c, nb_s, keywords = decoded
        nbest, us = (nb_c, lang.char_set) if side == "char" \
            else (nb_s, lang.syll_set)
        utt = max(nb_c)
        first = nbest[utt][0]
        bad = replace(first, tokens=(len(us) if token == "len" else token,)
                      + first.tokens[1:])
        nbest = {**nbest, utt: [bad] + nbest[utt][1:]}
        if side == "char":
            nb_c = nbest
        else:
            nb_s = nbest
        with pytest.raises(BadFormat, match=utt):
            self._run_kws(lang, out, nb_c, nb_s, keywords)

    @pytest.mark.parametrize("stage", ["char", "syll"])
    def test_text_not_token_names_is_bad_format(self, lang, small_run,
                                                decoded, stage):
        _, out, _, _ = small_run
        nb_c, nb_s, keywords = decoded
        nbest = nb_c if stage == "char" else nb_s
        utt = max(nb_c)
        hyps = [replace(nbest[utt][0], text="wrong"), *nbest[utt][1:]]
        bad = {**nbest, utt: hyps}
        nb_c, nb_s = (bad, nb_s) if stage == "char" else (nb_c, bad)
        with pytest.raises(BadFormat, match=re.escape(
                f"{stage}: utterance {utt!r}: an N-best text")):
            self._run_kws(lang, out, nb_c, nb_s, keywords)

    def test_utterance_only_in_syllable_nbest(self, lang, small_run, decoded):
        _, out, _, _ = small_run
        nb_c, nb_s, keywords = decoded
        extra = {**nb_s, "zz_extra": nb_s[min(nb_s)]}
        with pytest.raises(BadFormat, match="zz_extra"):
            self._run_kws(lang, out, nb_c, extra, keywords)

    @settings(max_examples=150, deadline=None)
    @given(edit_lists('{}[]",:0123456789.-eutrlas '), st.booleans())
    def test_fuzz_fails_only_with_bad_format(self, tmp_path_factory, edits,
                                             bad_byte):
        path = tmp_path_factory.mktemp("fuzz") / "nbest.jsonl"
        path.write_bytes(mutate(VALID_NBEST, edits, bad_byte))
        try:
            nbest = pipeline.read_nbest(path)
        except BadFormat:
            return
        for utt, entries in nbest.items():
            assert isinstance(utt, str)
            for e in entries:
                assert all(type(t) is int for t in e.tokens)
                assert len(e.spans) == len(e.tokens)

    def test_utterance_missing_from_syllable_nbest(self, lang, small_run,
                                                    decoded):
        _, out, _, _ = small_run
        nb_c, nb_s, keywords = decoded
        first = min(nb_c)
        partial = {u: hyps for u, hyps in nb_s.items() if u != first}
        with pytest.raises(BadFormat, match=first):
            self._run_kws(lang, out, nb_c, partial, keywords)

    @pytest.mark.parametrize("entry, error", [(None, OutOfVocabulary),
                                              (("zhong",), BadSyllable)])
    def test_char_unit_needs_a_good_lexicon_entry(self, lang, small_run,
                                                 decoded, entry, error):
        # a char unit in no keyword still needs its primary pronunciation
        _, out, _, _ = small_run
        nb_c, nb_s, keywords = decoded
        used = {u for k in keywords for u in k.char_units}
        unit = next(u for u in lang.char_set.units[1:]
                    if lang.char_set.index[u] not in used)
        entries = {c: p for c, p in lang.lexicon.entries.items() if c != unit}
        if entry is not None:
            entries[unit] = entry
        with pytest.raises(error, match=repr(entry[0] if entry else unit)):
            pipeline.run_kws(out, nb_c, nb_s, keywords, lang.char_set,
                             lang.syll_set, Lexicon(entries), CostTable(),
                             KwsConfig())

    def test_missing_syllable_pgram(self, lang, small_run, decoded, tmp_path):
        _, out, _, _ = small_run
        nb_c, nb_s, keywords = decoded
        data = tmp_path / "data"
        shutil.copytree(out, data)
        first = min(nb_c)
        (data / "syll" / f"{first}.pgram").unlink()
        with pytest.raises(FileNotFoundError, match=first):
            self._run_kws(lang, data, nb_c, nb_s, keywords)

    @pytest.mark.parametrize("stage", ["char", "syll"])
    def test_pgram_without_nbest_entry(self, lang, small_run, decoded,
                                       tmp_path, stage):
        _, out, _, _ = small_run
        nb_c, nb_s, keywords = decoded
        data = tmp_path / "data"
        shutil.copytree(out, data)
        pg = read_pgram(data / stage / f"{min(nb_c)}.pgram")
        write_pgram(replace(pg, utt_id="zz_extra"),
                    data / stage / "zz_extra.pgram")
        with pytest.raises(BadFormat, match=f"{stage}: .*'zz_extra'"):
            self._run_kws(lang, data, nb_c, nb_s, keywords)


    @pytest.mark.parametrize("fault", ["id", "count"])
    @pytest.mark.parametrize("stage", ["char", "syll"])
    def test_pgram_of_other_units_is_unit_set_mismatch(
            self, lang, small_run, decoded, tmp_path, stage, fault):
        # "id": the other stage's posteriorgram (both toy unit sets have the
        # same count); "count": one unit more, of zero mass
        _, out, _, _ = small_run
        nb_c, nb_s, keywords = decoded
        data = tmp_path / "data"
        shutil.copytree(out, data)
        utt = max(nb_c)
        path = data / stage / f"{utt}.pgram"
        if fault == "id":
            other = "syll" if stage == "char" else "char"
            shutil.copy(data / other / f"{utt}.pgram", path)
        else:
            pg = read_pgram(path)
            wider = np.hstack([pg.logp, np.full((pg.num_frames, 1), LOG_ZERO)])
            write_pgram(replace(pg, logp=wider), path)
        with pytest.raises(UnitSetMismatch,
                           match=re.escape(f"{stage}: utterance {utt!r}")):
            self._run_kws(lang, data, nb_c, nb_s, keywords)


class TestEvaluate:
    def test_no_refs_gives_zero_atwv(self):
        hit = Hit(utt_id="u1", kw_id="k1", stage=Stage.CHAR, start_frame=0,
                  end_frame=0, start_s=0.0, end_s=1.0, norm_score=-1.0,
                  decision=True)
        report = pipeline.evaluate([hit], [], EvalConfig(total_speech_s=10.0))
        assert report["atwv"] == 0.0
        assert report["per_keyword_twv"] == {}
        assert all(p["atwv"] == 0.0 for p in report["threshold_sweep"])

    def test_other_atwv_errors_propagate(self, small_run, monkeypatch):
        _, _, refs, _ = small_run

        def broken(*args):
            raise ZeroDivisionError("bug in atwv")
        monkeypatch.setattr(pipeline, "atwv", broken)
        with pytest.raises(ZeroDivisionError):
            pipeline.evaluate([], refs, EvalConfig())

    def _hit(self, utt, kw, start, end, score, decision=True):
        return Hit(utt_id=utt, kw_id=kw, stage=Stage.CHAR, start_frame=0,
                   end_frame=0, start_s=start, end_s=end, norm_score=score,
                   decision=decision)

    def test_speech_seconds_read_only_headers(self, small_run, monkeypatch):
        _, out, _, _ = small_run
        want = 0.0
        for pg in pipeline.load_pgrams(out / "char").values():
            want += pg.num_frames * pg.frame_period_s
        monkeypatch.setattr(pipeline, "read_pgram", None)  # no full read
        assert pipeline.total_speech_seconds(out / "char") == want

    def test_report_fields_and_sweep(self, small_run):
        _, out, refs, _ = small_run
        total_s = pipeline.total_speech_seconds(out / "char")
        assert total_s > 0
        hits = [self._hit(r.utt_id, r.kw_id, r.start_s, r.end_s, -float(i))
                for i, r in enumerate(refs)]
        report = pipeline.evaluate(hits, refs,
                                   EvalConfig(total_speech_s=total_s))
        assert report["f1"] == 1.0 and report["atwv"] == 1.0
        assert report["tp"] == len(refs)
        assert len(report["threshold_sweep"]) <= 50
        thresholds = [p["threshold"] for p in report["threshold_sweep"]]
        assert thresholds == sorted(thresholds)

    def test_sweep_aligns_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return align_hits(*args)
        monkeypatch.setattr(pipeline, "align_hits", counted)
        hits = [self._hit("u", "k", 0.0, 1.0, -float(i)) for i in range(3)]
        refs = [RefOccurrence("u", "k", 0.0, 1.0)]
        for points, want in ((50, [3, 3]), (0, [3])):
            calls.clear()
            pipeline.evaluate(hits, refs, EvalConfig(), sweep_points=points)
            assert calls == want

    def test_one_point_sweeps_lowest_score_negative_count_raises(self):
        hits = [self._hit("u", "k", 0.0, 1.0, -float(i)) for i in range(3)]
        refs = [RefOccurrence("u", "k", 0.0, 1.0)]
        for some in ([], hits[:1], hits):
            report = pipeline.evaluate(some, refs, EvalConfig(),
                                       sweep_points=1)
            lo = min((h.norm_score for h in some), default=-1.0)
            assert [p["threshold"] for p in report["threshold_sweep"]] == [lo]
        with pytest.raises(ValueError, match="sweep_points"):
            pipeline.evaluate(hits, refs, EvalConfig(), sweep_points=-1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("uv"), st.sampled_from("kl"),
                              st.integers(0, 4), st.integers(1, 2),
                              st.sampled_from([-3.0, -1.5, -1.0, 0.0]),
                              st.booleans()), max_size=12),
           st.lists(st.tuples(st.sampled_from("uv"), st.sampled_from("kl"),
                              st.integers(0, 4), st.integers(1, 2)),
                    max_size=8),
           st.sampled_from([None, 0.5]), st.sampled_from([1, 2, 7, 50]))
    def test_sweep_equals_realigning_each_threshold(self, hits, refs, overlap,
                                                    points):
        # few distinct scores and times, so hits tie on score and on start
        hits = [self._hit(u, k, s, s + n, score, decision)
                for u, k, s, n, score, decision in hits]
        refs = [RefOccurrence(u, k, s, s + n) for u, k, s, n in refs]
        cfg = EvalConfig(total_speech_s=20.0, min_overlap_fraction=overlap)
        got = pipeline.evaluate(hits, refs, cfg, sweep_points=points)
        assert got["threshold_sweep"] == oracles.threshold_sweep(
            hits, refs, cfg, points)

    def test_undetected_hits_excluded(self, small_run):
        _, out, refs, _ = small_run
        hits = [self._hit(r.utt_id, r.kw_id, r.start_s, r.end_s, -1.0,
                          decision=False) for r in refs]
        report = pipeline.evaluate(
            hits, refs,
            EvalConfig(total_speech_s=pipeline.total_speech_seconds(out / "char")))
        assert report["tp"] == 0
        assert report["atwv"] == 0.0


class TestLadderTable:
    @staticmethod
    def methods(row):
        """The methods a ladder row has on, named as the row that adds each."""
        char, stages, nbest_matching, length_norm = row
        _, _, with_lm, with_trie = pipeline.LADDER_DECODES[char]
        on = {"lm": with_lm, "length_norm": length_norm,
              "nbest": nbest_matching, "bias": with_trie,
              "fuzzy": Stage.FUZZY in stages,
              "syllable": Stage.SYLLABLE in stages}
        return {name for name, flag in on.items() if flag}

    def test_each_row_adds_one_method(self):
        rows = pipeline.LADDER_ROWS
        assert pipeline.LADDER == list(rows)
        assert self.methods(rows["greedy"]) == set()
        for before, after in zip(pipeline.LADDER, pipeline.LADDER[1:]):
            added = self.methods(rows[after]) - self.methods(rows[before])
            assert self.methods(rows[before]) <= self.methods(rows[after])
            assert added == {after.removeprefix("+")}
            assert set(rows[before][1]) <= set(rows[after][1])
        # the char stage always runs, so a row lists only what it adds
        assert all(set(row[1]) <= {Stage.SYLLABLE, Stage.FUZZY}
                   for row in rows.values())

    def test_decodes_go_greedy_lm_bias(self):
        decodes = pipeline.LADDER_DECODES
        assert decodes["greedy"] == ("char", 1, False, False)
        order = list(decodes)
        char = [order.index(row[0]) for row in pipeline.LADDER_ROWS.values()]
        assert char == sorted(char)
        assert [pipeline.LADDER_ROWS[m][0] for m in ("greedy", "+lm", "+bias")] \
            == ["greedy", "lm", "bias"]
        assert decodes["syll_bias"] == ("syll", None, True, True)
        assert all(decodes[row[0]][0] == "char"
                   for row in pipeline.LADDER_ROWS.values())


# sha256 of the report test_ablation_report_is_pinned makes, pinned from the
# ladder whose rows without N-best matching searched only the top hypothesis
# of their full N-best lists: the report must not change
ABLATION_SHA256 = \
    "760b62cc0f8c912f29b6f792cb9df682914c9e131d640880568c823c7dcc513d"


@pytest.fixture(scope="module")
def pinned_ladder(lang, tmp_path_factory):
    """run_ablation's arguments but jobs, over a confusion-noise corpus on
    which every ladder row up to +fuzzy differs from the one before, with
    false alarms from +bias on."""
    out = tmp_path_factory.mktemp("ladder")
    corpus = make_corpus(lang, num_utts=16, num_keywords=10, seed=2)
    char_conf, syll_conf = confusion_tables(lang)
    refs, skipped = pipeline.synth_corpus(
        corpus.transcripts, corpus.keywords, lang.char_set, lang.syll_set,
        lang.lexicon, SynthConfig(noise=0.45), out, 2, 0.04,
        char_confusion=char_conf, syll_confusion=syll_conf)
    assert not skipped
    syll_lines = [[lang.syll_set.units[i]
                   for i in syllabify(ln, lang.lexicon, lang.syll_set)]
                  for ln in corpus.lm_lines]
    keywords = pipeline.build_keywords(corpus.keywords, lang.char_set,
                                       lang.lexicon, lang.syll_set)
    rare = {k.id for k in keywords[::2]}
    args = (out, refs, keywords, lang.char_set, lang.syll_set, lang.lexicon,
            train(corpus.lm_lines, order=3, discount=0.75),
            train(syll_lines, order=3, discount=0.75), CostTable(),
            BeamConfig(lm_weight=1.5, nbest=5), BiasConfig(), KwsConfig(),
            EvalConfig(total_speech_s=pipeline.total_speech_seconds(
                out / "char")))
    return args, {"rare": [r for r in refs if r.kw_id in rare]}


def report_sha256(report) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()) \
        .hexdigest()


def test_ablation_report_is_pinned(pinned_ladder):
    args, subsets = pinned_ladder
    report = pipeline.run_ablation(*args, jobs=1, ref_subsets=subsets)
    assert report_sha256(report) == ABLATION_SHA256


def test_ablation_forks_once_and_reads_each_pgram_once(pinned_ladder,
                                                      monkeypatch):
    """At jobs 2 the four decodes share one Pool, and the decodes and the
    kws rows share one read of each posteriorgram."""
    args, subsets = pinned_ladder
    pools, reads = [], []
    pool, read = pipeline.multiprocessing.Pool, pipeline.read_pgram

    def counted_pool(*a, **kw):
        pools.append(a)
        return pool(*a, **kw)

    def counted_read(path):
        reads.append(path)
        return read(path)
    monkeypatch.setattr(pipeline.multiprocessing, "Pool", counted_pool)
    monkeypatch.setattr(pipeline, "read_pgram", counted_read)
    report = pipeline.run_ablation(*args, jobs=2, ref_subsets=subsets)
    assert len(pools) == 1
    assert sorted(reads) == sorted(args[0].glob("*/*.pgram"))
    assert report_sha256(report) == ABLATION_SHA256


def test_ablation_scores_each_decode_once(pinned_ladder, monkeypatch):
    """One kws round per char decode: the fuzzy costs are built once and
    given, with the syllable N-best, only to the bias decode's round, whose
    fuzzy matching measures each (utterance, keyword width) in one batch;
    the rows only filter and decide the rounds' candidates."""
    args, subsets = pinned_ladder
    builds, given, decoded, detects, batches = [], [], [], [], []
    build, run = kws.fuzzy_costs, pipeline._run_kws
    decode_all, detect = pipeline._decode_all, pipeline.detect
    distance = kws.phrase_distance

    def counted_build(*a):
        builds.append(a)
        return build(*a)

    def recorded_run(*a):
        given.append(a)
        return run(*a)

    def recorded_decode_all(*a):
        decoded.append(decode_all(*a))
        return decoded[-1]

    def counted_detect(*a):
        detects.append(a)
        return detect(*a)

    def batch(windows, keywords, *a):
        batches.append((len(detects), keywords))
        return distance(windows, keywords, *a)
    monkeypatch.setattr(kws, "fuzzy_costs", counted_build)
    monkeypatch.setattr(pipeline, "_run_kws", recorded_run)
    monkeypatch.setattr(pipeline, "_decode_all", recorded_decode_all)
    monkeypatch.setattr(pipeline, "detect", counted_detect)
    monkeypatch.setattr(kws, "phrase_distance", batch)
    report = pipeline.run_ablation(*args, jobs=1, ref_subsets=subsets)
    assert len(builds) == 1
    (nbest,) = decoded
    assert [a[2] for a in given] == [nbest[name]
                                     for name in ("greedy", "lm", "bias")]
    assert [a[3] for a in given] == [None, None, nbest["syll_bias"]]
    assert [a[7] is not None for a in given] == [False, False, True]
    utts = len(nbest["bias"])
    # widths in the order of their first keyword by id
    widths = {}
    for kw in sorted(args[2], key=lambda k: k.id):
        widths.setdefault(len(kw.char_units), {})[kw.char_units] = None
    assert batches == [(2 * utts + n, list(units))
                       for n in range(1, utts + 1) for units in widths.values()]
    assert report_sha256(report) == ABLATION_SHA256
