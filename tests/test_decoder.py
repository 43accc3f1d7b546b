import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kwspot import decoder
from kwspot.corpus import make_corpus, make_language
from kwspot.decoder import (BeamConfig, BiasConfig, KeywordTrie, NBestEntry,
                            build_bias_trie, logaddexp, prefix_beam_search)
from kwspot.errors import AlignmentInfeasible, InvalidKeyword, UnitSetMismatch
from kwspot.lm import NGramLM, ScoreRows, train
from kwspot.pipeline import build_keywords
from kwspot.pgram import (Posteriorgram, SynthConfig, synth_generate,
                          token_layout)
from kwspot.units import BLANK, UnitKind, UnitSet

import oracles
from oracles import enumerate_label_masses, random_pgram_logp, trie_step

US2 = UnitSet(id="ua", kind=UnitKind.CHARACTER, units=(BLANK, "a"))
US3 = UnitSet(id="uab", kind=UnitKind.CHARACTER, units=(BLANK, "a", "b"))
NO_PRUNE = BeamConfig(beam_size=10 ** 6, nbest=10 ** 6, lm_weight=0.0,
                      token_min_logp=-math.inf)


def pg_from_probs(rows, set_id):
    logp = np.log(np.asarray(rows, dtype=np.float64))
    return Posteriorgram("u", set_id, 0.04, logp.astype(np.float32))


class TestMicroExample:
    def test_two_frame_blk_a(self):
        pg = pg_from_probs([[0.6, 0.4], [0.5, 0.5]], "ua")
        out = prefix_beam_search(pg, US2, cfg=NO_PRUNE)
        by_tokens = {e.tokens: e for e in out}
        assert math.exp(by_tokens[(1,)].score_total) == pytest.approx(0.7, abs=1e-6)
        assert math.exp(by_tokens[()].score_total) == pytest.approx(0.3, abs=1e-6)
        assert (1, 1) not in by_tokens  # "aa" needs a separating blank
        assert out[0].tokens == (1,)


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 6))
        V = int(rng.integers(2, 4))
        us = US2 if V == 2 else US3
        logp = random_pgram_logp(rng, T, V)
        pg = Posteriorgram("u", us.id, 0.04, logp.astype(np.float32))
        oracle = enumerate_label_masses(pg.logp.astype(np.float64))
        got = prefix_beam_search(pg, us, cfg=NO_PRUNE)
        assert len(got) == len(oracle)
        for e in got:
            assert e.score_total == pytest.approx(
                oracle[e.tokens], rel=1e-9, abs=1e-9)
        best_oracle = min(oracle.items(), key=lambda kv: (-kv[1], kv[0]))
        assert got[0].tokens == best_oracle[0]

    def test_empty_pg(self):
        pg = Posteriorgram("u", "ua", 0.04, np.zeros((0, 2), dtype=np.float32))
        out = prefix_beam_search(pg, US2, cfg=NO_PRUNE)
        assert len(out) == 1
        assert out[0].tokens == ()
        assert out[0].score_total == 0.0


class TestOneHot:
    @pytest.mark.parametrize("tr", [[1], [1, 2], [2, 1, 2], [1, 1], []])
    def test_top1_recovers_transcript(self, tr):
        synth = SynthConfig(frames_per_token=2, blank_gap=1)
        pg = synth_generate(tr, US3, synth)
        out = prefix_beam_search(pg, US3, cfg=BeamConfig(lm_weight=0.0))
        assert list(out[0].tokens) == tr
        assert out[0].spans == token_layout(tr, synth)


class TestShallowFusion:
    def test_lm_changes_ranking(self):
        lm = train(["b b b b"], order=2, discount=0.3)
        rows = [[0.2, 0.41, 0.39]] * 2
        pg = pg_from_probs(rows, "uab")
        plain = prefix_beam_search(pg, US3, cfg=NO_PRUNE)
        fused = prefix_beam_search(
            pg, US3, lm=lm,
            cfg=BeamConfig(beam_size=10 ** 6, nbest=10 ** 6, lm_weight=1.5,
                           token_min_logp=-math.inf))
        assert plain[0].tokens[0] == 1  # acoustics alone prefer "a"
        assert fused[0].tokens[0] == 2  # strong LM flips to "b"

    def test_score_decomposition(self):
        lm = train(["a b", "b a"], order=2, discount=0.5)
        pg = pg_from_probs([[0.3, 0.3, 0.4], [0.2, 0.5, 0.3]], "uab")
        cfg = BeamConfig(beam_size=16, nbest=16, lm_weight=0.4,
                         token_min_logp=-math.inf)
        for e in prefix_beam_search(pg, US3, lm=lm, cfg=cfg):
            recomputed = (e.score_am + cfg.lm_weight * math.log(10) * e.score_lm
                          + e.score_bias)
            assert e.score_total == pytest.approx(recomputed, abs=1e-12)


def walk(trie, units, node=0):
    """The trie node reached from node over units; a unit at or past the
    width of the next-move table leads to the root."""
    for u in units:
        node = int(trie.next[node, u]) if u < trie.next.shape[1] else 0
    return node


def check_trie(chunks, seq) -> KeywordTrie:
    """Finalize a trie of the (units, weight) chunks, check its next-move
    table against the goto/failure walk and its bonuses along seq against
    the naive suffix sum, and return it."""
    trie = KeywordTrie()
    for chunk, weight in chunks:
        trie.insert(chunk, float(weight))
    trie.finalize()
    width = trie.next.shape[1]
    assert width == 1 + max(u for chunk, _ in chunks for u in chunk)
    # the table is the goto/failure walk from every node on every unit,
    # and the walk on a unit at or past its width ends at the root
    for node in range(len(trie.goto)):
        assert trie.next[node].tolist() == [
            trie_step(trie, node, v) for v in range(width)]
        assert [trie_step(trie, node, v)
                for v in range(width, width + 3)] == [0, 0, 0]
    node = 0
    for i, u in enumerate(seq):
        node = walk(trie, [u], node)
        # every inserted chunk that ends at position i awards its weight
        expected = sum(w for c, w in chunks
                       if len(c) <= i + 1 and seq[i + 1 - len(c):i + 1] == c)
        assert trie.node_bonus[node] == expected
    return trie


class TestBiasTrie:
    def test_affine_weight(self):
        lm = train(["ab ab ab ab"], order=2, discount=0.0)
        cfg = BiasConfig(alpha=1.0, beta=4.0, chunk_len=4)
        kw = [1, 2]
        trie = build_bias_trie([kw], lm, cfg, unit_names=US3.units)
        lm_score = lm.score_sequence(["a", "b"])
        node = walk(trie, [1, 2])
        assert trie.node_bonus[node] == pytest.approx(-lm_score + 4.0)

    def test_lm_needs_unit_names(self):
        lm = train(["ab ab ab ab"], order=2, discount=0.0)
        with pytest.raises(ValueError, match="unit_names"):
            build_bias_trie([[1, 2]], lm, BiasConfig())

    def test_alpha_zero_gives_beta(self):
        cfg = BiasConfig(alpha=0.0, beta=7.5, chunk_len=4)
        trie = build_bias_trie([[1, 2]], None, cfg)
        node = walk(trie, [1, 2])
        assert trie.node_bonus[node] == pytest.approx(7.5)

    def test_chunking_9_units(self):
        cfg = BiasConfig(alpha=0.0, beta=1.0, chunk_len=4)
        kw = list(range(1, 10))
        trie = build_bias_trie([kw], None, cfg)
        # chunks 1..4, 5..8, 9 each award beta once
        node = 0
        total = 0.0
        for u in kw:
            node = walk(trie, [u], node)
            total += trie.node_bonus[node]
        assert total == pytest.approx(3.0)

    def test_empty_keyword(self):
        with pytest.raises(InvalidKeyword):
            build_bias_trie([[]], None, BiasConfig())

    def test_overlapping_accepts_via_failure_links(self):
        cfg = BiasConfig(alpha=0.0, beta=1.0, chunk_len=4)
        trie = build_bias_trie([[1, 2], [2]], None, cfg)
        node = walk(trie, [1, 2])
        # completing [1,2] also completes the suffix chunk [2]
        assert trie.node_bonus[node] == pytest.approx(2.0)

    @settings(max_examples=200, deadline=None)
    @given(chunks=st.lists(st.tuples(st.lists(st.integers(1, 3), min_size=1,
                                              max_size=4),
                                     st.integers(-5, 5)),
                           min_size=1, max_size=6),
           seq=st.lists(st.integers(0, 5), max_size=12))
    def test_bonus_matches_naive_suffix_sum(self, chunks, seq):
        check_trie(chunks, seq)

    def test_trie_past_256_nodes_moves_in_uint16(self):
        rng = np.random.default_rng(7)
        chunks = [(rng.integers(1, 30, rng.integers(1, 5)).tolist(),
                   int(rng.integers(-5, 6))) for _ in range(200)]
        seq = rng.integers(0, 33, 400).tolist()
        trie = check_trie(chunks, seq)
        assert len(trie.goto) > 256
        assert trie.next.dtype == np.uint16

    @pytest.mark.parametrize("seed", [1000, 2000])
    def test_benchmark_sized_tries_move_in_uint8(self, seed):
        lang = make_language()
        corpus = make_corpus(lang, num_utts=8, num_keywords=50, seed=seed)
        keywords = build_keywords(corpus.keywords, lang.char_set,
                                  lang.lexicon, lang.syll_set)
        for units in ("char_units", "syll_units"):
            trie = build_bias_trie([list(getattr(k, units)) for k in keywords],
                                   None, BiasConfig())
            assert 50 < len(trie.goto) <= 256
            assert trie.next.dtype == np.uint8


class TestBiasMonotonicity:
    @pytest.mark.parametrize("seed", range(20))
    def test_rank_never_drops(self, seed):
        rng = np.random.default_rng(1000 + seed)
        T = int(rng.integers(2, 6))
        logp = random_pgram_logp(rng, T, 3)
        pg = Posteriorgram("u", "uab", 0.04, logp.astype(np.float32))
        trie = build_bias_trie([[1]], None, BiasConfig(alpha=0.0, beta=5.0))
        base = prefix_beam_search(pg, US3, cfg=NO_PRUNE)
        cfg = BeamConfig(beam_size=10 ** 6, nbest=10 ** 6, lm_weight=0.0,
                         token_min_logp=-math.inf)
        biased = prefix_beam_search(pg, US3, trie=trie, cfg=cfg)
        # the award is per chunk occurrence, so hypotheses with more
        # occurrences may overtake those with fewer; the invariant is that a
        # chunk-containing hypothesis never loses ground to chunk-free ones
        def plain_above(results, toks):
            out = set()
            for e in results:
                if e.tokens == toks:
                    return out
                if 1 not in e.tokens:
                    out.add(e.tokens)
            raise AssertionError("hypothesis missing")

        for e in biased:
            if 1 in e.tokens:
                assert plain_above(biased, e.tokens) <= plain_above(base, e.tokens)

    def test_bias_outranks_within_gap(self):
        rng = np.random.default_rng(99)
        logp = random_pgram_logp(rng, 4, 3)
        pg = Posteriorgram("u", "uab", 0.04, logp.astype(np.float32))
        trie = build_bias_trie([[1]], None, BiasConfig(alpha=0.0, beta=10.0))
        cfg = BeamConfig(beam_size=10 ** 6, nbest=10 ** 6, lm_weight=0.0,
                         token_min_logp=-math.inf)
        out = prefix_beam_search(pg, US3, trie=trie, cfg=cfg)
        oracle = enumerate_label_masses(pg.logp.astype(np.float64))
        for e in out:
            e_base = oracle[e.tokens]
            for f in out:
                if 1 in f.tokens and 1 not in e.tokens:
                    if oracle[f.tokens] > e_base - 10.0:
                        assert f.score_total > e.score_total


class TestGuards:
    def test_trie_alone_switches_bias_on(self):
        rng = np.random.default_rng(7)
        pg = Posteriorgram("u", "uab", 0.04,
                           random_pgram_logp(rng, 4, 3).astype(np.float32))
        trie = build_bias_trie([[1]], None, BiasConfig(alpha=0.0, beta=5.0))
        got = prefix_beam_search(pg, US3, trie=trie, cfg=NO_PRUNE)
        assert any(e.score_bias == 5.0 for e in got)
        assert all(e.score_bias == 0.0
                   for e in prefix_beam_search(pg, US3, cfg=NO_PRUNE))

    @pytest.mark.parametrize("make", [
        lambda x: BeamConfig(lm_weight=x),
        lambda x: BiasConfig(alpha=x),
        lambda x: BiasConfig(beta=x),
    ], ids=["lm_weight", "alpha", "beta"])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, make, x):
        with pytest.raises(ValueError, match="finite"):
            make(x)

    def test_emptied_beam_names_utterance_and_frame(self):
        # noise spreads every row, so at some frame no unit, blank
        # included, is above the threshold and no prefix survives
        lang = make_language()
        pg = synth_generate([1, 2, 3, 4], lang.char_set,
                            SynthConfig(noise=0.6), utt_id="utt7")
        cfg = BeamConfig(token_min_logp=-0.5)
        dead = np.flatnonzero(~(pg.logp > cfg.token_min_logp).any(axis=1))
        assert len(dead)
        with pytest.raises(AlignmentInfeasible,
                           match=f"'utt7'.* frame {dead[0]}\\b"):
            prefix_beam_search(pg, lang.char_set, cfg=cfg)

    def test_unit_set_mismatch(self):
        pg = pg_from_probs([[0.5, 0.5]], "other")
        with pytest.raises(UnitSetMismatch):
            prefix_beam_search(pg, US2)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        logp = random_pgram_logp(rng, 5, 3)
        pg = Posteriorgram("u", "uab", 0.04, logp.astype(np.float32))
        lm = train(["ab", "ba"], order=2)
        a = prefix_beam_search(pg, US3, lm=lm)
        b = prefix_beam_search(pg, US3, lm=lm)
        assert [(e.tokens, e.score_total) for e in a] == \
            [(e.tokens, e.score_total) for e in b]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


GRID = [-math.inf, -1e308, -745.5, -50.0, -1.0, -1e-300, -0.0, 0.0, 1e-300,
        0.5, 1.0, 36.0, 1e308, math.inf]


@pytest.mark.parametrize("x", GRID)
def test_logaddexp_is_numpys_bit_for_bit(x):
    for y in GRID + [x, np.nextafter(x, 0.0), x - 40.0, x + 1e-12]:
        y = float(y)
        with np.errstate(over="ignore"):  # x - y beyond the float range
            want = float(np.logaddexp(x, y))
        assert bits(logaddexp(x, y)) == bits(want), y


US5 = UnitSet(id="u5", kind=UnitKind.CHARACTER,
              units=(BLANK, "a", "b", "c", "d"))


@st.composite
def search_inputs(draw):
    """A posteriorgram over US5 and a search set-up, for the oracle test.

    Rows come from small integer weights, so many units and many
    hypotheses tie; a weight of 0 is a -inf log posterior.  The threshold
    is -inf, 0 (no unit live) or a value of the matrix (from none to all
    units of a row live).  The LMs are trained on text that lacks some
    units, so those score as <unk>."""
    T = draw(st.integers(0, 7))
    weights = draw(st.lists(
        st.lists(st.integers(0, 4), min_size=5, max_size=5).filter(any),
        min_size=T, max_size=T))
    p = np.array(weights, dtype=np.float64).reshape(T, 5)
    p /= p.sum(axis=1, keepdims=True) if T else 1.0
    with np.errstate(divide="ignore"):
        pg = Posteriorgram("u", US5.id, 0.04, np.log(p).astype(np.float32))
    values = sorted(set(pg.logp.astype(np.float64).ravel().tolist()))
    thr = draw(st.sampled_from([-math.inf, 0.0] + values))
    order = draw(st.integers(0, 4))
    lm = None
    if order:
        lines = draw(st.lists(st.text(alphabet="abce", min_size=1,
                                      max_size=6), min_size=1, max_size=6))
        lm = train(lines, order=order, discount=draw(st.sampled_from(
            [0.0, 0.5, 0.75])))
    trie = None
    if draw(st.booleans()):
        kws = draw(st.lists(st.lists(st.integers(1, 4), min_size=1,
                                     max_size=5), min_size=1, max_size=4))
        bias = BiasConfig(alpha=draw(st.sampled_from([0.0, 1.0])),
                          beta=draw(st.sampled_from([0.0, 1.5, 4.0])),
                          chunk_len=draw(st.integers(1, 4)))
        trie = build_bias_trie(kws, lm, bias, unit_names=US5.units)
    cfg = BeamConfig(beam_size=draw(st.integers(1, 12)),
                     nbest=draw(st.integers(1, 12)),
                     lm_weight=draw(st.sampled_from([0.0, 0.3, 1.5])),
                     token_min_logp=thr)
    return pg, lm, trie, cfg


@settings(max_examples=400, deadline=None)
@given(search_inputs())
@example((Posteriorgram("u", US5.id, 0.04, np.zeros((0, 5), np.float32)),
          None, None, BeamConfig()))
def test_search_equals_scalar_oracle(inputs):
    pg, lm, trie, cfg = inputs
    want = oracles.prefix_beam_search(pg, US5, lm=lm, trie=trie, cfg=cfg)
    if not want:
        # a frame with no live unit emptied the oracle's beam
        with pytest.raises(AlignmentInfeasible, match="no unit above"):
            prefix_beam_search(pg, US5, lm=lm, trie=trie, cfg=cfg)
        return
    got = prefix_beam_search(pg, US5, lm=lm, trie=trie, cfg=cfg)

    def fields(e):
        return (e.tokens, e.text, e.score_am, e.score_lm, e.score_bias,
                e.score_total, e.spans)
    assert [fields(e) for e in got] == [fields(e) for e in want]


def test_search_never_calls_score_token(monkeypatch):
    # the LM states of the survivors and their increments come from
    # ScoreRows, so score_token is not needed.  Unit d is not in the LM, and
    # <unk> has contexts, so a state must map d to <unk>
    targets = [1, 4, 0, 1, 4, 3, 4, 1, 0]
    p = np.full((len(targets), 5), 0.125)
    p[np.arange(len(targets)), targets] = 0.5
    pg = pg_from_probs(p, US5.id)
    lm = train([list("abca"), ["b", "<unk>", "a"], list("cab"),
                ["a", "<unk>", "c", "a"]], order=3)
    trie = build_bias_trie([[1, 2], [3, 1, 4]], lm, BiasConfig(),
                           unit_names=US5.units)
    cfg = BeamConfig(beam_size=4, nbest=4, token_min_logp=-math.inf)
    want = oracles.prefix_beam_search(pg, US5, lm=lm, trie=trie, cfg=cfg)

    def refuse(*_):
        raise AssertionError("the search called NGramLM.score_token")
    monkeypatch.setattr(NGramLM, "score_token", refuse)
    got = prefix_beam_search(pg, US5, lm=lm, trie=trie, cfg=cfg)
    assert got == want and len(got) == 4


def test_search_computes_each_transition_once(monkeypatch):
    # beam members that share an LM state and are extended by one unit ask
    # ScoreRows.after for one (row, column) pair: it is computed once
    targets = [1, 4, 0, 1, 4, 3, 4, 1, 0]
    p = np.full((len(targets), 5), 0.125)
    p[np.arange(len(targets)), targets] = 0.5
    pg = pg_from_probs(p, US5.id)
    lm = train([list("abca"), list("cab"), list("bacab")], order=2)
    cfg = BeamConfig(beam_size=6, nbest=6, token_min_logp=-math.inf)
    want = oracles.prefix_beam_search(pg, US5, lm=lm, cfg=cfg)
    asked, computed = [], []
    after, extend = ScoreRows.after, NGramLM._extend

    def counted_after(self, k, c):
        asked.append((k, c))
        return after(self, k, c)

    def counted_extend(self, walk, w):
        computed.append((tuple(walk), w))
        return extend(self, walk, w)
    monkeypatch.setattr(ScoreRows, "after", counted_after)
    monkeypatch.setattr(NGramLM, "_extend", counted_extend)
    assert prefix_beam_search(pg, US5, lm=lm, cfg=cfg) == want
    assert len(computed) == len(set(asked)) < len(asked)


def test_search_aligns_its_nbest_in_one_call(monkeypatch):
    # one batched trellis aligns every non-empty prefix of the N-best
    targets = [1, 4, 0, 1, 4, 3, 4, 1, 0]
    p = np.full((len(targets), 5), 0.125)
    p[np.arange(len(targets)), targets] = 0.5
    pg = pg_from_probs(p, US5.id)
    calls, align = [], decoder.align_viterbi

    def counted(pg, seqs):
        calls.append(list(seqs))
        return align(pg, seqs)
    monkeypatch.setattr(decoder, "align_viterbi", counted)
    got = prefix_beam_search(pg, US5, cfg=BeamConfig(
        beam_size=4, nbest=4, token_min_logp=-math.inf))
    assert len(got) == 4
    assert calls == [[e.tokens for e in got if e.tokens]]
