import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwspot.errors import AlignmentInfeasible, BadFormat, InvalidTranscript
from kwspot.kws import score_ctc
from kwspot.pgram import (LOG_ZERO, MAGIC, Posteriorgram, SynthConfig,
                          align_viterbi, ctc_min_frames, ctc_trellis,
                          read_pgram, synth_generate, token_layout,
                          write_pgram)
from kwspot.units import BLANK, UnitKind, UnitSet

import oracles
from fuzzing import edit_lists, mutate
from oracles import best_alignment, greedy_path, random_pgram_logp

US = UnitSet(id="abc", kind=UnitKind.CHARACTER, units=(BLANK, "a", "b", "c"))


def one_hot_pg(frames, v=4, set_id="abc"):
    logp = np.full((len(frames), v), LOG_ZERO, dtype=np.float64)
    for t, u in enumerate(frames):
        logp[t, u] = 0.0
    return Posteriorgram("u", set_id, 0.04, logp.astype(np.float32))


def raw_pgram(logp, uid=b"u", period=0.04, frames=None, extra=b""):
    """Bytes of a posteriorgram file, built without write_pgram's checks;
    frames overrides the header's frame count."""
    T, V = logp.shape
    return (MAGIC + struct.pack("<HH", 1, len(uid)) + uid
            + struct.pack("<H", 3) + b"abc"
            + struct.pack("<dII", period, T if frames is None else frames, V)
            + logp.astype("<f4").tobytes() + extra)


VALID_PGRAM = raw_pgram(synth_generate([1, 2, 3], US, SynthConfig(
    noise=0.2, seed=5)).logp)


class TestSynth:
    def test_layout_one_token(self):
        pg = synth_generate([1], US, SynthConfig(frames_per_token=2, blank_gap=1))
        assert pg.num_frames == 4
        assert list(np.argmax(pg.logp, axis=1)) == [0, 1, 1, 0]
        # one-hot at zero noise: log 1 on target, floor elsewhere
        assert pg.logp[1, 1] == 0.0
        assert pg.logp[1, 0] == pytest.approx(LOG_ZERO)

    def test_empty_transcript(self):
        pg = synth_generate([], US, SynthConfig(blank_gap=3))
        assert pg.num_frames == 6
        assert greedy_path(pg)[0] == []

    def test_blank_rejected(self):
        with pytest.raises(InvalidTranscript):
            synth_generate([0], US, SynthConfig())

    def test_negative_blank_gap_rejected(self):
        # a gap of -1 would lay the first token at frame -1
        with pytest.raises(ValueError, match="blank_gap"):
            SynthConfig(blank_gap=-1)

    def test_deterministic_per_seed(self):
        cfg = SynthConfig(noise=0.3, seed=7)
        a = synth_generate([1, 2], US, cfg)
        b = synth_generate([1, 2], US, cfg)
        assert np.array_equal(a.logp, b.logp)

    def test_rows_normalized(self):
        pg = synth_generate([1, 2, 3], US, SynthConfig(noise=0.4, seed=3))
        pg.validate()

    def test_greedy_recovery_rate_uniform_noise(self):
        # measured Monte-Carlo fixture: uniform redistribution at noise=0.3,
        # frames_per_token=4 never flips an argmax with V=4
        ok = 0
        for seed in range(1000):
            pg = synth_generate([1, 2], US, SynthConfig(
                frames_per_token=4, blank_gap=1, noise=0.3, seed=seed))
            ok += greedy_path(pg)[0] == [1, 2]
        assert ok >= 990

    def test_confusion_table_induces_errors(self):
        cfg = lambda s: SynthConfig(frames_per_token=4, blank_gap=1, noise=0.45,
                                    confusion={1: [(2, 1.0)]}, seed=s)
        wrong = sum(greedy_path(synth_generate([1], US, cfg(s)))[0] != [1]
                    for s in range(300))
        assert wrong > 0

    def test_token_layout(self):
        cfg = SynthConfig(frames_per_token=3, blank_gap=2)
        assert token_layout([1, 2], cfg) == [(2, 5), (5, 8)]
        # repeated token gets a separating blank frame
        assert token_layout([1, 1], cfg) == [(2, 5), (6, 9)]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 2), max_size=8), st.integers(1, 4),
           st.integers(0, 3))
    def test_noiseless_frames_follow_token_layout(self, transcript, fpt, gap):
        # the layout rule, written out: gap blanks, fpt frames a token after
        # a blank if it repeats the token before, gap blanks
        cfg = SynthConfig(frames_per_token=fpt, blank_gap=gap)
        spans = token_layout(transcript, cfg)
        frames = [0] * gap
        for i, tok in enumerate(transcript):
            if i and tok == transcript[i - 1]:
                frames.append(0)
            assert spans[i] == (len(frames), len(frames) + fpt)
            frames += [tok] * fpt
        frames += [0] * gap
        pg = synth_generate(transcript, US, cfg)
        assert pg.logp.argmax(axis=1).tolist() == frames
        assert np.all(pg.logp.max(axis=1) == 0.0)

    def test_repeat_transcript_recoverable(self):
        pg = synth_generate([1, 1], US, SynthConfig(frames_per_token=2, blank_gap=1))
        assert greedy_path(pg)[0] == [1, 1]


class TestGreedy:
    def test_ctc_collapse(self):
        assert greedy_path(one_hot_pg([0, 1, 1, 0]))[0] == [1]
        assert greedy_path(one_hot_pg([1, 0, 1]))[0] == [1, 1]
        assert greedy_path(one_hot_pg([0, 0, 0]))[0] == []


def trellis_loop(logp, label, blank=0, plus=np.logaddexp):
    """Per-state loop form of the CTC recursion, the reference for the
    vectorised kernel; backpointers prefer stay, then step, then skip."""
    states = [blank]
    for u in label:
        states += [u, blank]
    T, S = len(logp), len(states)
    alpha = np.full((T, S), -np.inf)
    back = np.zeros((T, S), dtype=np.int64)
    alpha[0, :2] = logp[0, states[:2]]
    for t in range(1, T):
        for s in range(S):
            acc, arg = alpha[t - 1, s], s
            preds = [s - 1] if s >= 1 else []
            if s >= 2 and states[s] != blank and states[s] != states[s - 2]:
                preds.append(s - 2)
            for p in preds:
                acc = plus(acc, alpha[t - 1, p])
                if alpha[t - 1, p] > alpha[t - 1, arg]:
                    arg = p
            alpha[t, s] = acc + logp[t, states[s]]
            back[t, s] = arg
    return alpha, back


class TestViterbi:
    def test_one_hot_span(self):
        pg = synth_generate([1], US, SynthConfig(frames_per_token=2, blank_gap=1))
        assert align_viterbi(pg, [[1]])[0] == [(1, 3)]

    def test_repeat_infeasible(self):
        pg = one_hot_pg([1, 1])
        with pytest.raises(AlignmentInfeasible):
            align_viterbi(pg, [[1, 1]])

    def test_empty_tokens(self):
        assert align_viterbi(one_hot_pg([0, 0]), [[]])[0] == []

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 7))
        V = int(rng.integers(2, 5))
        logp = random_pgram_logp(rng, T, V)
        pg = Posteriorgram("u", "s", 0.04, logp.astype(np.float32))
        labels = [1] if T < 3 or V < 3 else [1, 2][: T // 2]
        oracle_score, oracle_path = best_alignment(pg.logp.astype(np.float64), labels)
        if oracle_path is None:
            with pytest.raises(AlignmentInfeasible):
                ctc_trellis(pg.logp, [labels], plus=np.maximum)
            return
        got = ctc_trellis(pg.logp, [labels], plus=np.maximum)[-1, 0, -2:].max()
        assert got == pytest.approx(oracle_score, rel=1e-9, abs=1e-9)

    def test_spans_match_bruteforce_tiny(self):
        for seed in range(11, 19):
            rng = np.random.default_rng(seed)
            T = int(rng.integers(2, 6))
            for labels in ([1], [1, 2], [2, 1]):
                logp = random_pgram_logp(rng, T, 3)
                pg = Posteriorgram("u", "s", 0.04, logp.astype(np.float32))
                _, path = best_alignment(pg.logp.astype(np.float64), labels)
                (spans,) = align_viterbi(pg, [labels])
                assert len(spans) == len(labels)
                for tok, span in zip(labels, spans):
                    frames = [t for t, s in enumerate(path) if s == tok]
                    assert span == (frames[0], frames[-1] + 1)


    @pytest.mark.parametrize("seed", range(20))
    def test_kernel_matches_loop_on_ties(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 12))
        V = int(rng.integers(2, 5))
        # coarse rounding makes many paths tie
        logp = np.round(random_pgram_logp(rng, T, V) * 2) / 2
        pg = Posteriorgram("u", "s", 0.04, logp.astype(np.float32))
        lp = pg.logp.astype(np.float64)
        labels = [int(u) for u in rng.integers(1, V, size=rng.integers(1, 5))]
        try:
            fwd = ctc_trellis(pg.logp, [labels])[:, 0]
        except AlignmentInfeasible:
            with pytest.raises(AlignmentInfeasible):
                align_viterbi(pg, [labels])
            return
        assert np.array_equal(fwd, trellis_loop(lp, labels)[0])
        delta, back = trellis_loop(lp, labels, plus=np.maximum)
        assert np.array_equal(
            ctc_trellis(pg.logp, [labels], plus=np.maximum)[:, 0], delta)
        S = delta.shape[1]
        s = S - 1 if delta[-1, S - 1] >= delta[-1, S - 2] else S - 2
        path = [s]
        for t in range(T - 1, 0, -1):
            s = back[t, s]
            path.append(s)
        path.reverse()
        (spans,) = align_viterbi(pg, [labels])
        assert len(spans) == len(labels)
        for i, span in enumerate(spans):
            frames = [t for t, st in enumerate(path) if st == 2 * i + 1]
            assert span == (frames[0], frames[-1] + 1)


@st.composite
def alignment_batches(draw):
    """A posteriorgram over 2-5 units, often rounded so that many paths tie,
    and 1-5 token sequences of mixed lengths 0-4 that fit it (over so few
    units that repeats are common); T is often the largest
    ctc_min_frames."""
    V = draw(st.integers(2, 5))
    seqs = draw(st.lists(st.lists(st.integers(1, V - 1), max_size=4),
                         min_size=1, max_size=5))
    need = max(1, *map(ctc_min_frames, seqs))
    T = draw(st.just(need) | st.integers(need, need + 8))
    logp = random_pgram_logp(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))), T, V)
    if draw(st.booleans()):
        logp = np.round(logp * 2) / 2
    return Posteriorgram("u", "s", 0.04, logp.astype(np.float32)), seqs


@settings(max_examples=300, deadline=None)
@given(alignment_batches())
def test_batched_alignment_equals_per_entry_oracle(batch):
    pg, seqs = batch
    assert (align_viterbi(pg, seqs)
            == [oracles.align_viterbi(pg, tokens) for tokens in seqs])
    for plus in (np.logaddexp, np.maximum):
        got = ctc_trellis(pg.logp, seqs, plus=plus)
        for n, tokens in enumerate(seqs):
            S = 2 * len(tokens) + 1
            assert np.array_equal(got[:, n, :S],
                                  oracles.ctc_trellis(pg.logp, tokens, plus))
            assert (got[:, n, S:] == -np.inf).all()


@settings(max_examples=200, deadline=None)
@given(alignment_batches())
def test_score_ctc_equals_one_sequence_recursion(batch):
    pg, seqs = batch
    for tokens in filter(None, seqs):
        for window in ((0, pg.num_frames),
                       (pg.num_frames - ctc_min_frames(tokens), pg.num_frames)):
            assert (score_ctc(pg, tokens, window)
                    == oracles.score_ctc(pg, tokens, window))


class TestIO:
    def test_binary_round_trip(self, tmp_path):
        pg = synth_generate([1, 2, 3], US, SynthConfig(noise=0.2, seed=5),
                            utt_id="utt-42")
        path = tmp_path / "x.pgram"
        write_pgram(pg, path)
        back = read_pgram(path)
        assert back.utt_id == "utt-42"
        assert back.unit_set_id == pg.unit_set_id
        assert back.frame_period_s == pg.frame_period_s
        assert np.array_equal(back.logp, pg.logp)

    def test_truncated(self, tmp_path):
        pg = synth_generate([1], US, SynthConfig())
        path = tmp_path / "x.pgram"
        write_pgram(pg, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(BadFormat):
            read_pgram(path)

    def test_bad_row_norm(self, tmp_path):
        logp = np.log(np.full((1, 4), 0.125, dtype=np.float64))  # sums to 0.5
        pg = Posteriorgram("u", "s", 0.04, logp.astype(np.float32))
        path = tmp_path / "x.pgram"
        with pytest.raises(BadFormat):
            write_pgram(pg, path)

    def test_raw_bytes_match_writer(self, tmp_path):
        pg = synth_generate([1, 2, 3], US, SynthConfig(noise=0.2, seed=5),
                            utt_id="u")
        path = tmp_path / "u.pgram"
        write_pgram(pg, path)
        assert path.read_bytes() == raw_pgram(pg.logp)

    @pytest.mark.parametrize("case", ["trailing_bytes", "header_larger",
                                      "header_huge", "nan_row", "id_not_utf8",
                                      "zero_period", "nan_period"])
    def test_malformed_is_bad_format(self, tmp_path, case):
        logp = one_hot_pg([0, 1, 0]).logp.copy()
        kw = {}
        if case == "trailing_bytes":
            kw["extra"] = b"\0" * 4
        elif case == "header_larger":
            kw["frames"] = 4
        elif case == "header_huge":
            kw["frames"] = 2**32 - 1
        elif case == "nan_row":
            logp[1] = np.nan
        elif case == "id_not_utf8":
            kw["uid"] = b"u\xff"
        else:
            kw["period"] = 0.0 if case == "zero_period" else float("nan")
        path = tmp_path / "u.pgram"
        path.write_bytes(raw_pgram(logp, **kw))
        with pytest.raises(BadFormat, match="u.pgram"):
            read_pgram(path)

    @settings(max_examples=200, deadline=None)
    @given(edit_lists("\0\x01\x02\x7fabu"), st.booleans())
    def test_fuzz_fails_only_with_bad_format(self, tmp_path_factory, edits,
                                             bad_byte):
        path = tmp_path_factory.mktemp("fuzz") / "u.pgram"
        path.write_bytes(mutate(VALID_PGRAM, edits, bad_byte))
        try:
            pg = read_pgram(path)
        except BadFormat:
            return
        pg.validate()

    def test_greedy_round_trip_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tr = [int(x) for x in rng.integers(1, 4, size=rng.integers(0, 6))]
            pg = synth_generate(tr, US, SynthConfig(frames_per_token=2, blank_gap=1))
            assert greedy_path(pg)[0] == tr
