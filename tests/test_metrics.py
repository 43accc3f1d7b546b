import pytest

from kwspot.kws import Hit, Stage
from kwspot.metrics import (EvalConfig, RefOccurrence, align_hits, atwv, f1,
                            load_refs, write_refs)


def hit(utt, kw, start, end, score=-1.0):
    return Hit(utt_id=utt, kw_id=kw, stage=Stage.CHAR, start_frame=0,
               end_frame=0, start_s=start, end_s=end, norm_score=score,
               decision=True)


CFG = EvalConfig(total_speech_s=100.0)


class TestAlign:
    def test_simple_tp(self):
        tp, fp, fn = align_hits([hit("u", "k", 1.0, 2.0)],
                                [RefOccurrence("u", "k", 0.5, 2.5)], CFG)
        assert (len(tp), len(fp), len(fn)) == (1, 0, 0)

    def test_two_hits_one_ref(self):
        hits = [hit("u", "k", 1.0, 2.0, -1.0), hit("u", "k", 1.1, 2.1, -2.0)]
        tp, fp, fn = align_hits(hits, [RefOccurrence("u", "k", 0.5, 2.5)], CFG)
        assert (len(tp), len(fp), len(fn)) == (1, 1, 0)
        assert tp[0][0].norm_score == -1.0  # higher-scoring hit matched first

    def test_midpoint_outside(self):
        tp, fp, fn = align_hits([hit("u", "k", 5.0, 7.0)],
                                [RefOccurrence("u", "k", 0.5, 2.5)], CFG)
        assert (len(tp), len(fp), len(fn)) == (0, 1, 1)

    def test_overlap_rule(self):
        cfg = EvalConfig(total_speech_s=100.0, min_overlap_fraction=0.5)
        tp, fp, fn = align_hits([hit("u", "k", 1.0, 3.0)],
                                [RefOccurrence("u", "k", 2.0, 4.0)], cfg)
        assert len(tp) == 1

    def test_permutation_invariance(self):
        hits = [hit("u", "k", 1.0, 2.0), hit("u", "k", 5.0, 6.0),
                hit("v", "k", 1.0, 2.0)]
        refs = [RefOccurrence("u", "k", 0.5, 2.5), RefOccurrence("v", "k", 0.0, 3.0)]
        a = align_hits(hits, refs, CFG)
        b = align_hits(list(reversed(hits)), list(reversed(refs)), CFG)
        assert (len(a[0]), len(a[1]), len(a[2])) == (len(b[0]), len(b[1]), len(b[2]))


class TestF1:
    def test_worked(self):
        p, r, s = f1(2, 0, 1)
        assert (p, r) == (1.0, pytest.approx(2 / 3))
        assert s == pytest.approx(0.8)

    def test_all_zero(self):
        assert f1(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        assert f1(5, 0, 0) == (1.0, 1.0, 1.0)


class TestAtwv:
    def test_perfect(self):
        refs = [RefOccurrence("u", "k", 0.0, 1.0)]
        tp = [(hit("u", "k", 0.0, 1.0), refs[0])]
        val, per_kw = atwv(tp, [], refs, CFG)
        assert val == pytest.approx(1.0)

    def test_all_misses(self):
        refs = [RefOccurrence("u", "k", 0.0, 1.0)]
        val, _ = atwv([], [], refs, CFG)
        assert val == pytest.approx(0.0)

    def test_hand_computed(self):
        refs = [RefOccurrence("u", "k1", 0.0, 1.0), RefOccurrence("u", "k1", 2.0, 3.0),
                RefOccurrence("u", "k2", 4.0, 5.0)]
        tp = [(hit("u", "k1", 0.0, 1.0), refs[0]), (hit("u", "k2", 4.0, 5.0), refs[2])]
        fp = [hit("u", "k2", 50.0, 51.0)]
        val, per_kw = atwv(tp, fp, refs, CFG)
        assert per_kw["k1"] == pytest.approx(0.5, abs=1e-6)
        # 999.9/99 is exactly 10.1, so TWV(k2) = -9.1 and the mean is -4.3
        assert per_kw["k2"] == pytest.approx(-9.1, abs=1e-4)
        assert val == pytest.approx(-4.3, abs=1e-4)

    def test_no_refs(self):
        assert atwv([], [hit("u", "k", 0.0, 1.0)], [], CFG) == (0.0, {})

    def test_keyword_without_refs_excluded(self):
        refs = [RefOccurrence("u", "k1", 0.0, 1.0)]
        tp = [(hit("u", "k1", 0.0, 1.0), refs[0])]
        fp = [hit("u", "k9", 10.0, 11.0)]  # k9 has no references
        val, per_kw = atwv(tp, fp, refs, CFG)
        assert "k9" not in per_kw
        assert val == pytest.approx(1.0)

    def test_fp_never_helps(self):
        refs = [RefOccurrence("u", "k", 0.0, 1.0)]
        tp = [(hit("u", "k", 0.0, 1.0), refs[0])]
        base, _ = atwv(tp, [], refs, CFG)
        worse, _ = atwv(tp, [hit("u", "k", 50.0, 51.0)], refs, CFG)
        assert worse < base


class TestRefIO:
    def test_round_trip(self, tmp_path):
        refs = [RefOccurrence("u1", "k1", 0.25, 1.5), RefOccurrence("u2", "k2", 3.0, 4.0)]
        path = tmp_path / "refs.tsv"
        write_refs(refs, path)
        back = load_refs(path)
        assert back == refs
