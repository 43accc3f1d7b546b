import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwspot import kws
from kwspot.decoder import BeamConfig, prefix_beam_search
from kwspot.errors import AlignmentInfeasible, BadFormat, BadSyllable
from kwspot.kws import (FuzzyCosts, Hit, Keyword, KwsConfig, Stage, WindowIndex,
                        char_syllables, decide, detect, fuzzy_costs,
                        fuzzy_distances, match_exact, match_fuzzy, read_hits,
                        score_ctc, write_hits)
from kwspot.pgram import (Posteriorgram, SynthConfig, ctc_min_frames,
                          synth_generate, token_layout)
from kwspot.phonetics import CostTable
from kwspot.corpus import make_language
from kwspot.units import Lexicon, syllabify, tokenize_chars

import oracles
from oracles import merge_stages, path_sum_for_label, random_pgram_logp


def fuzzy_args(nbest, kw, fuzzy):
    """match_fuzzy's distance row of kw, measured alone against nbest's
    windows, and those windows."""
    windows = WindowIndex(nbest)
    units = kw.char_units
    return (fuzzy_distances(windows, [kw], fuzzy)[len(units)][units],
            windows)


class FakeEntry:
    def __init__(self, tokens, spans=()):
        self.tokens = tuple(tokens)
        self.spans = list(spans)


class TestMatchExact:
    def test_single_occurrence(self):
        nbest = [FakeEntry([9, 1, 2, 7])]
        assert match_exact(nbest, (1, 2), WindowIndex(nbest)) == [(0, 1, 3)]

    def test_absent(self):
        nbest = [FakeEntry([3, 4])]
        assert match_exact(nbest, (1, 2), WindowIndex(nbest)) == []

    def test_multiple_ranks(self):
        nbest = [FakeEntry([1, 2]), FakeEntry([5]), FakeEntry([0, 1, 2])]
        got = match_exact(nbest, (1, 2), WindowIndex(nbest))
        assert got == [(0, 0, 2), (2, 1, 3)]

    def test_top_entry_slice_limits_search(self):
        top = [FakeEntry([5]), FakeEntry([1, 2])][:1]
        assert match_exact(top, (1, 2), WindowIndex(top)) == []


class TestScoreCtc:
    def test_micro_example(self):
        logp = np.log(np.array([[0.6, 0.4], [0.5, 0.5]]))
        pg = Posteriorgram("u", "s", 0.04, logp.astype(np.float32))
        got = score_ctc(pg, [1], (0, 2))
        assert got == pytest.approx(math.log(0.7), abs=1e-6)

    def test_one_hot_near_zero(self):
        lang = make_language()
        tr = tokenize_chars(list(lang.lexicon.entries)[0], lang.char_set)
        pg = synth_generate(tr, lang.char_set, SynthConfig(frames_per_token=2))
        got = score_ctc(pg, tr, (0, pg.num_frames))
        assert got > -1e-3

    def test_window_too_short(self):
        logp = np.log(np.full((3, 2), 0.5))
        pg = Posteriorgram("u", "s", 0.04, logp.astype(np.float32))
        with pytest.raises(AlignmentInfeasible):
            score_ctc(pg, [1, 1], (0, 2))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 7))
        V = int(rng.integers(2, 5))
        logp = random_pgram_logp(rng, T, V)
        pg = Posteriorgram("u", "s", 0.04, logp.astype(np.float32))
        units = [int(u) for u in rng.integers(1, V, size=rng.integers(1, 3))]
        lp64 = pg.logp.astype(np.float64)
        from kwspot.pgram import ctc_min_frames
        if T < ctc_min_frames(units):
            with pytest.raises(AlignmentInfeasible):
                score_ctc(pg, units, (0, T))
            return
        oracle = path_sum_for_label(lp64, units)
        got = score_ctc(pg, units, (0, T))
        assert got == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def make_hit(score, start, end, stage=Stage.CHAR, kw="kw0", utt="u"):
    return Hit(utt_id=utt, kw_id=kw, stage=stage, start_frame=start,
               end_frame=end, start_s=start * 0.04, end_s=end * 0.04,
               norm_score=score)


class TestMergeStages:
    """The reference merge, which oracles.detect applies to all of an
    utterance's hits and test_detect_equals_reference holds detect to."""

    def test_overlap_keeps_higher(self):
        a = make_hit(-1.5, 0, 10, Stage.CHAR)
        b = make_hit(-1.2, 5, 12, Stage.SYLLABLE)
        got = merge_stages([a, b])
        assert got == [b]

    def test_non_overlapping_kept(self):
        a = make_hit(-1.0, 0, 5)
        b = make_hit(-2.0, 10, 15)
        assert sorted((h.start_frame for h in merge_stages([a, b]))) == [0, 10]

    def test_single_identity(self):
        a = make_hit(-1.0, 0, 5)
        assert merge_stages([a]) == [a]

    def test_idempotent(self):
        hits = [make_hit(-1.0, 0, 6), make_hit(-0.5, 4, 9),
                make_hit(-2.0, 8, 12), make_hit(-3.0, 20, 22, kw="kw1")]
        once = merge_stages(hits)
        assert merge_stages(once) == once


@pytest.fixture(scope="module")
def lang():
    return make_language()


@pytest.fixture
def fuzzy(lang):
    return fuzzy_costs(lang.char_set, lang.lexicon, CostTable())


def test_malformed_primary_pronunciation_names_the_char(lang):
    unit = lang.char_set.units[3]
    lexicon = Lexicon({**lang.lexicon.entries, unit: ("zhong", "zhong1")})
    with pytest.raises(BadSyllable, match=f"char unit {unit!r}: missing tone "
                                          f"digit: 'zhong'"):
        char_syllables(lang.char_set, lexicon)


def decode_pair(lang, text, cfg=SynthConfig(frames_per_token=3, blank_gap=2)):
    tr_c = tokenize_chars(text, lang.char_set)
    tr_s = syllabify(text, lang.lexicon, lang.syll_set)
    pg_c = synth_generate(tr_c, lang.char_set, cfg, utt_id="u0")
    pg_s = synth_generate(tr_s, lang.syll_set, cfg, utt_id="u0")
    bc = BeamConfig(lm_weight=0.0)
    nb_c = prefix_beam_search(pg_c, lang.char_set, cfg=bc)
    nb_s = prefix_beam_search(pg_s, lang.syll_set, cfg=bc)
    return pg_c, pg_s, nb_c, nb_s


def make_keyword(lang, text, kw_id="kw0"):
    return Keyword(id=kw_id, text=text,
                   char_units=tuple(tokenize_chars(text, lang.char_set)),
                   syll_units=tuple(syllabify(text, lang.lexicon, lang.syll_set)))


class TestDetect:
    def test_noiseless_hit(self, lang, fuzzy):
        chars = list(lang.lexicon.entries)
        kw_text = chars[0] + chars[5]
        text = chars[10] + kw_text + chars[12]
        pg_c, pg_s, nb_c, nb_s = decode_pair(lang, text)
        kw = make_keyword(lang, kw_text)
        cfg = KwsConfig()
        hits = decide(detect(pg_c, pg_s, nb_c, nb_s, [kw], fuzzy, cfg), cfg)
        assert len(hits) == 1
        h = hits[0]
        assert h.decision
        layout = token_layout(tokenize_chars(text, lang.char_set),
                              SynthConfig(frames_per_token=3, blank_gap=2))
        # window covers the generator's true keyword frames
        assert h.start_frame <= layout[1][0]
        assert h.end_frame >= layout[2][1]
        # top hypothesis only: the window runs from the first matched token's
        # span start to the last one's span end, and the score is the CTC
        # mass of the window per keyword unit (raw without length_norm)
        top_c = nb_c[:1]
        for length_norm in (True, False):
            cfg = KwsConfig(length_norm=length_norm)
            (h,) = decide(detect(pg_c, None, top_c, None, [kw], None, cfg),
                          cfg)
            ((rank, i, j),) = match_exact(top_c, kw.char_units,
                                           WindowIndex(top_c))
            spans = top_c[rank].spans
            assert (h.start_frame, h.end_frame) == (spans[i][0],
                                                    spans[j - 1][1])
            raw = score_ctc(pg_c, kw.char_units, (h.start_frame, h.end_frame))
            assert h.norm_score == (raw / len(kw.char_units) if length_norm
                                    else raw)

    def test_no_keyword_no_hits(self, lang, fuzzy):
        chars = list(lang.lexicon.entries)
        text = chars[20] + chars[21]
        pg_c, pg_s, nb_c, nb_s = decode_pair(lang, text)
        kw = make_keyword(lang, chars[0] + chars[5])
        hits = detect(pg_c, pg_s, nb_c, nb_s, [kw], fuzzy, KwsConfig())
        assert [h for h in hits if h.decision] == []

    def test_fuzzy_recovers_tone_variant(self, lang, fuzzy):
        # utterance contains the tone variant of the keyword's first char
        kw_char = next(c for c, v in lang.confusable.items() if v)
        variant = lang.confusable[kw_char][0]
        other = list(lang.lexicon.entries)[40]
        kw = make_keyword(lang, kw_char + other)
        text = variant + other
        pg_c, pg_s, nb_c, nb_s = decode_pair(lang, text)
        cfg = KwsConfig(decision_threshold=-1e9)
        hits = decide(detect(pg_c, None, nb_c, None, [kw], fuzzy, cfg), cfg)
        assert len(hits) == 1
        assert hits[0].stage is Stage.FUZZY
        # strict threshold rejects the same variant
        tight = KwsConfig(decision_threshold=-1e9, fuzzy_threshold=0.05)
        assert decide(detect(pg_c, None, nb_c, None, [kw], fuzzy, tight),
                      tight) == []

    def test_fuzzy_excludes_exact(self, lang, fuzzy):
        chars = list(lang.lexicon.entries)
        kw = make_keyword(lang, chars[0] + chars[5])
        pg_c, pg_s, nb_c, nb_s = decode_pair(lang, chars[0] + chars[5])
        row, windows = fuzzy_args(nb_c, kw, fuzzy)
        got = match_fuzzy(nb_c, kw, row, 0.5, windows)
        assert all(nb_c[r].tokens[i:j] != kw.char_units for r, i, j, _ in got)

    def test_fuzzy_threshold_zero_empty(self, lang, fuzzy):
        chars = list(lang.lexicon.entries)
        kw = make_keyword(lang, chars[0] + chars[5])
        pg_c, pg_s, nb_c, nb_s = decode_pair(lang, chars[1] + chars[5])
        row, windows = fuzzy_args(nb_c, kw, fuzzy)
        assert match_fuzzy(nb_c, kw, row, 0.0, windows) == []

    def test_decision_monotone_in_threshold(self, lang, fuzzy):
        chars = list(lang.lexicon.entries)
        kw_text = chars[0] + chars[5]
        pg_c, pg_s, nb_c, nb_s = decode_pair(lang, chars[10] + kw_text)
        kw = make_keyword(lang, kw_text)
        counts = []
        for theta in [-10.0, -5.0, -1e-4, 1.0]:
            cfg = KwsConfig(decision_threshold=theta)
            hits = decide(detect(pg_c, pg_s, nb_c, nb_s, [kw], fuzzy, cfg),
                          cfg)
            counts.append(sum(h.decision for h in hits))
        assert counts == sorted(counts, reverse=True)


TOY = make_language()
# two cost tables: the defaults, and a cheap tone with a cheap indel
TOY_FUZZY = [fuzzy_costs(TOY.char_set, TOY.lexicon, table)
             for table in (CostTable(), CostTable(tone_cost=0.3,
                                                  indel_cost=0.7))]


@st.composite
def nbest_lists(draw, alphabet):
    """1-4 hypotheses of 1-6 units from a small alphabet (so windows repeat
    and match), each token on a span of 1-2 frames after a gap of 0-1
    frames; repeated units on adjacent spans make windows too short for
    them."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        tokens = draw(st.lists(st.sampled_from(alphabet), min_size=1,
                               max_size=6))
        spans, end = [], 0
        for _ in tokens:
            start = end + draw(st.integers(0, 1))
            end = start + draw(st.integers(1, 2))
            spans.append((start, end))
        out.append(FakeEntry(tokens, spans))
    return out


@st.composite
def detect_inputs(draw):
    """Random N-best lists over char units 1, 2 and 4 (1 and 2 are tone
    variants of each other) with random posteriorgrams under them, random
    keywords with their ids in any order, either cost table or none, any
    threshold (0 included), and either length rule; a syllable N-best or
    none; the lists are cut to their first 1-4 entries, as a
    top-hypothesis-only match cuts them to one."""
    char_alphabet, syll_alphabet = [1, 2, 4], [1, 2, 3]
    nb_c = draw(nbest_lists(char_alphabet))
    nb_s = draw(st.none() | nbest_lists(syll_alphabet))
    ends = [e.spans[-1][1] for e in nb_c + (nb_s or []) if e.spans]
    T = max(ends, default=0) + draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pgram(us):
        return Posteriorgram("u", us.id, 0.04,
                             random_pgram_logp(rng, T, len(us)))
    pg_c = pgram(TOY.char_set)
    pg_s = None if nb_s is None else pgram(TOY.syll_set)
    keep = draw(st.integers(1, 4))
    nb_c, nb_s = nb_c[:keep], None if nb_s is None else nb_s[:keep]
    keywords = [Keyword(id=f"k{n}", text="",
                        char_units=tuple(draw(st.lists(
                            st.sampled_from(char_alphabet), min_size=1,
                            max_size=3))),
                        syll_units=tuple(draw(st.lists(
                            st.sampled_from(syll_alphabet), max_size=3))))
                for n in draw(st.permutations(range(draw(
                    st.integers(1, 4)))))]
    cfg = KwsConfig(fuzzy_threshold=draw(st.just(0.0) | st.floats(0.0, 1.0)),
                    decision_threshold=draw(st.floats(-30.0, 0.0)),
                    length_norm=draw(st.booleans()))
    return (pg_c, pg_s, nb_c, nb_s, keywords,
            draw(st.none() | st.sampled_from(TOY_FUZZY)), cfg)


def outcome(fn, *args):
    """fn's hits, or the type and message of the AlignmentInfeasible it
    raised."""
    try:
        return fn(*args)
    except AlignmentInfeasible as exc:
        return type(exc), str(exc)


def detect_hits(*args):
    """detect's candidates, decided with the config detect was given."""
    return decide(detect(*args), args[-1])


@st.composite
def row_views(draw):
    """What an ablation ladder row keeps of one round of candidates: the
    stages it adds to the char stage, whether only the top hypothesis's,
    and its length rule."""
    return (draw(st.sets(st.sampled_from([Stage.SYLLABLE, Stage.FUZZY]))),
            draw(st.booleans()), draw(st.booleans()))


def row_inputs(args, stages, top_only, length_norm):
    """The inputs of matching over that row's own stages and hypotheses:
    1-entry lists for the top hypothesis only, the syllable N-best only
    with the syllable stage, the fuzzy costs only with the fuzzy one."""
    pg_c, pg_s, nb_c, nb_s, keywords, fuzzy, cfg = args
    if Stage.SYLLABLE not in stages:
        pg_s = nb_s = None
    if top_only:
        nb_c, nb_s = nb_c[:1], None if nb_s is None else nb_s[:1]
    return (pg_c, pg_s, nb_c, nb_s, keywords,
            fuzzy if Stage.FUZZY in stages else None,
            replace(cfg, length_norm=length_norm))


@settings(max_examples=300, deadline=None)
@given(detect_inputs(), row_views())
def test_detect_equals_reference(args, view):
    got = outcome(detect_hits, *args)
    assert got == outcome(oracles.detect, *args)
    if not isinstance(got, list):
        return  # no candidates to filter
    stages, top_only, length_norm = view
    row = [c for c in detect(*args) if (not top_only or c[1] == 0)
           and (c[2] is Stage.CHAR or c[2] in stages)]
    assert decide(row, replace(args[-1], length_norm=length_norm)) \
        == oracles.detect(*row_inputs(args, *view))


def test_cached_fuzzy_skip_does_not_hide_an_exact_raise():
    # one posteriorgram serves both stages, so a syllable candidate shares
    # its score key with a char candidate of the same units and frames.
    # Keyword fz matches char window (1, 2) over frames [0, 2) fuzzily, too
    # short for its units (1, 1), which need a blank between them: a skip.
    # Keyword ex then matches syllables (1, 1) exactly over the same frames.
    pg = Posteriorgram("u", "char", 0.04, np.log(np.full((4, 3), 1 / 3)))
    spans = [(0, 1), (1, 2)]
    nb_c, nb_s = [FakeEntry([1, 2], spans)], [FakeEntry([1, 1], spans)]
    fuzzy = FuzzyCosts(np.zeros((3, 3)), 1.0)
    fz, ex = Keyword("fz", "", (1, 1), ()), Keyword("ex", "", (1, 1), (1, 1))
    cfg = KwsConfig()
    assert detect(pg, pg, nb_c, nb_s, [fz], fuzzy, cfg) == []
    for fn in (oracles.detect, detect):
        with pytest.raises(AlignmentInfeasible):
            fn(pg, pg, nb_c, nb_s, [fz, ex], fuzzy, cfg)


@pytest.mark.parametrize("extra", [-1, 0])
def test_fuzzy_window_needs_the_keywords_frames(monkeypatch, extra):
    # keyword (1, 1) needs a blank between its units; its fuzzy window
    # over char window (1, 2) is skipped unscored when one frame short
    units = (1, 1)
    frames = ctc_min_frames(units) + extra
    pg = Posteriorgram("u", "char", 0.04, np.log(np.full((4, 3), 1 / 3)))
    nb_c = [FakeEntry([1, 2], [(0, 1), (1, frames)])]
    scored = []

    def record(*args):
        scored.append(args)
        return score_ctc(*args)
    monkeypatch.setattr(kws, "score_ctc", record)
    cfg = KwsConfig()
    hits = decide(detect(pg, None, nb_c, None, [Keyword("fz", "", units, ())],
                         FuzzyCosts(np.zeros((3, 3)), 1.0), cfg), cfg)
    got = [(h.stage, h.start_frame, h.end_frame) for h in hits]
    if extra < 0:
        assert got == [] and scored == []
    else:
        assert got == [(Stage.FUZZY, 0, frames)] and len(scored) == 1


class TestHitIO:
    def test_round_trip(self, tmp_path):
        hits = [make_hit(-1.234567, 3, 9), make_hit(-0.5, 12, 20, Stage.FUZZY, "kw1")]
        hits[0].decision = True
        path = tmp_path / "hits.tsv"
        write_hits(hits, path)
        back = read_hits(path)
        assert len(back) == 2
        assert back[0].kw_id == "kw0"
        assert back[0].decision is True
        assert back[0].norm_score == pytest.approx(-1.234567, abs=1e-6)
        assert back[1].stage is Stage.FUZZY
        assert [(h.start_frame, h.end_frame) for h in back] == [(3, 9), (12, 20)]

    @pytest.mark.parametrize("decision", ["7", "-1", "01", "true"])
    def test_decision_other_than_0_or_1_is_bad_format(self, tmp_path, decision):
        path = tmp_path / "hits.tsv"
        write_hits([make_hit(-0.5, 3, 9)], path)
        fields = path.read_text(encoding="utf-8").split("\t")
        fields[5] = decision
        path.write_text("\t".join(fields), encoding="utf-8")
        with pytest.raises(BadFormat, match="hits.tsv:1:"):
            read_hits(path)
