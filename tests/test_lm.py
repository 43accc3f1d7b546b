import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwspot.corpus import make_corpus, make_language
from kwspot.errors import BadFormat, EmptyCorpus
from kwspot.lm import (BOS, EOS, UNK, ScoreRows, read_arpa, train,
                       write_arpa)
from kwspot.units import syllabify
from fuzzing import edit_lists, mutate
from oracles import train_reference


def listing(lm):
    """(probs, backoffs): each n-gram's log10 probability and each log10
    backoff weight, keyed by word tuple, read from ``lm.ngrams``."""
    probs, backoffs = {}, {}
    for grams, logp, backoff in lm.ngrams():
        for ids, p, b in zip(grams.tolist(), logp.tolist(), backoff.tolist()):
            gram = tuple(lm.words[i] for i in ids)
            probs[gram] = p
            if not math.isnan(b):
                backoffs[gram] = b
    return probs, backoffs


def all_contexts(lm):
    return {()} | {gram for gram in listing(lm)[0] if len(gram) < lm.order}


def without_unk_unigram(lm, path):
    """lm read back from its ARPA text with the <unk> unigram taken out."""
    write_arpa(lm, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.remove(next(s for s in lines if s.endswith(f"\t{UNK}\n")))
    n1 = next(i for i, s in enumerate(lines) if s.startswith("ngram 1="))
    lines[n1] = f"ngram 1={int(lines[n1][len('ngram 1='):]) - 1}\n"
    path.write_text("".join(lines), encoding="utf-8")
    return read_arpa(path)


def context_mass(lm, ctx):
    total = 0.0
    for w in sorted(lm.vocab):
        s, _ = lm.score_token(ctx, w)
        total += 10.0 ** s
    return total


class TestTrain:
    def test_bigram_mle(self):
        lm = train(["a b", "a c"], order=2, discount=0.0)
        s, _ = lm.score_token(("a",), "b")
        assert 10 ** s == pytest.approx(0.5)
        s, _ = lm.score_token((BOS,), "a")
        assert 10 ** s == pytest.approx(1.0)

    def test_unigram_sentence_wrapping(self):
        # corpus ["a"]: unigram tokens are {a, </s>}, each count 1
        lm = train(["a"], order=1, discount=0.0)
        s, _ = lm.score_token((), "a")
        assert 10 ** s == pytest.approx(0.5)
        s, _ = lm.score_token((), EOS)
        assert 10 ** s == pytest.approx(0.5)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train([], order=2)
        with pytest.raises(EmptyCorpus):
            train(["   ", ""], order=2)

    def test_mass_sums_to_one_discounted(self):
        lm = train(["abc", "abd", "ca"], order=3, discount=0.75)
        for ctx in [(), ("a",), ("b",), ("a", "b"), (BOS,), ("zzz",)]:
            assert context_mass(lm, ctx) == pytest.approx(1.0, abs=1e-6)


class TestScore:
    def test_sequence_additivity(self):
        lm = train(["a b", "a c"], order=2, discount=0.0)
        expected = (lm.score_token((), "a")[0] + lm.score_token(("a",), "b")[0])
        assert lm.score_sequence(["a", "b"]) == pytest.approx(expected)

    def test_empty_sequence(self):
        lm = train(["a b"], order=2)
        assert lm.score_sequence([]) == 0.0

    def test_oov_goes_to_unk(self):
        lm = train(["a b"], order=2, discount=0.5)
        s, state = lm.score_token((), "zzz")
        assert math.isfinite(s)
        assert state == (UNK,)
        n = 3
        total = lm.score_sequence(["x1", "x2", "x3"])
        per_unk = lm.score_token((), UNK)[0]
        follow = lm.score_token((UNK,), UNK)[0]
        assert total == pytest.approx(per_unk + (n - 1) * follow)


corpora = st.lists(
    st.text(alphabet="abcd", min_size=1, max_size=8), min_size=1, max_size=12
).filter(lambda ls: any(s.strip() for s in ls))


@settings(max_examples=150, deadline=None)
@given(corpora, st.integers(1, 4), st.sampled_from([0.0, 0.4, 0.75]),
       st.lists(st.text(alphabet="abcdz", min_size=1, max_size=6),
                max_size=4),
       st.booleans())
def test_score_rows_equal_score_token_bit_for_bit(tmp_path_factory, lines,
                                                  order, discount, texts,
                                                  drop_unk):
    lm = train(lines, order=order, discount=discount)
    if drop_unk:  # an ARPA file may omit <unk>: its unigram is LOG10_ZERO
        lm = without_unk_unigram(lm, tmp_path_factory.mktemp("lm") / "m.arpa")
    # units in and out of the vocabulary, and the LM's own symbols
    tokens = ["a", "b", "c", "d", "z", "zz", BOS, EOS, UNK]
    states = {(), (BOS,)}
    for text, boundaries in itertools.product(texts, [False, True]):
        state = (BOS,) if boundaries else ()
        for tok in list(text) + [EOS] * boundaries:
            state = lm.score_token(state, tok)[1]
            states.add(state)
    rows = ScoreRows(lm, tokens)
    for state in sorted(states):
        want = np.array([lm.score_token(state, t)[0] for t in tokens])
        i = rows.id(state)  # before reading table, which id may grow
        assert rows.table[i].tobytes() == want.tobytes(), state


def deciding_context(lm, state):
    """The longest context of state's backoff walk that has a backoff or a
    successor, from the n-gram listing."""
    probs, backoffs = listing(lm)
    context = state[max(len(state) - lm.order + 1, 0):]
    while context and context not in backoffs and not any(
            gram[:-1] == context for gram in probs):
        context = context[1:]
    return context


@settings(max_examples=100, deadline=None)
@given(corpora, st.integers(1, 4), st.sampled_from([0.0, 0.4, 0.75]),
       st.lists(st.text(alphabet="abcdz", min_size=1, max_size=6),
                max_size=4))
def test_score_rows_fill_one_row_per_deciding_context(lines, order, discount,
                                                      texts):
    # states whose longer contexts have neither a backoff nor a successor
    # share the row of their deciding context, filled once, byte for byte
    lm = train(lines, order=order, discount=discount)
    tokens = ["a", "b", "c", "d", "z", EOS]
    states = {(), (BOS,)}
    for text in texts:
        state = (BOS,)
        for tok in text:
            state = lm.score_token(state, tok)[1]
            states.add(state)
            states.add(state[1:])
    states = sorted(states)
    rows = ScoreRows(lm, tokens)
    ids = [rows.id(state) for state in states]
    deciding = [deciding_context(lm, state) for state in states]
    assert len(rows.walks) == len(set(deciding))
    for (i, d, s), (j, e, t) in itertools.combinations(
            zip(ids, deciding, states), 2):
        assert (i == j) == (d == e), (s, t)
        if d == e:
            assert (np.array([lm.score_token(s, tok)[0] for tok in tokens])
                    .tobytes() == np.array([lm.score_token(t, tok)[0]
                                            for tok in tokens]).tobytes())


@settings(max_examples=40, deadline=None)
@given(corpora, st.integers(1, 3), st.sampled_from([0.0, 0.4, 0.75]))
def test_mass_property(lines, order, discount):
    lm = train(lines, order=order, discount=discount)
    for ctx in sorted(all_contexts(lm)):
        if ctx == (EOS,) or (ctx and ctx[-1] == EOS):
            continue  # </s> never occurs as a context
        assert context_mass(lm, ctx) == pytest.approx(1.0, abs=1e-6)


token_corpora = st.lists(
    st.lists(st.sampled_from(["ba1", "ma3", "zhi4", "a"]), max_size=6),
    min_size=1, max_size=10).filter(any)


@settings(max_examples=60, deadline=None)
@given(st.one_of(corpora, token_corpora), st.integers(1, 5),
       st.sampled_from([0.0, 0.1, 0.4, 0.75, 0.99]))
def test_train_equals_recursive_reference(lines, order, discount):
    lm = train(lines, order=order, discount=discount)
    probs, backoffs, vocab = train_reference(lines, order, discount)
    assert listing(lm) == (probs, backoffs)
    # the contexts that have successors are those that have a backoff
    assert {gram[:-1] for gram in probs if len(gram) > 1} == backoffs.keys()
    assert lm.vocab == vocab


def test_train_codes_fit_a_large_vocabulary_at_order_5(tmp_path):
    """7,000 tokens, each used once, at order 5: a 5-gram's code in base
    7,003 (the tokens, </s>, <unk> and <s>) would pass 2**63.  The reader
    codes n-grams the same way."""
    tokens = [f"w{i}" for i in range(7000)]
    np.random.default_rng(5).shuffle(tokens)
    lines = [tokens[i:i + 20] for i in range(0, len(tokens), 20)]
    lm = train(lines, order=5, discount=0.75)
    probs, backoffs, vocab = train_reference(lines, 5, 0.75)
    assert listing(lm) == (probs, backoffs)
    assert lm.vocab == vocab
    write_arpa(lm, tmp_path / "m.arpa")
    assert listing(read_arpa(tmp_path / "m.arpa")) == (probs, backoffs)


VALID_ARPA = ("\\data\\\nngram 1=3\nngram 2=1\n\n"
              "\\1-grams:\n-0.3\ta\t-0.2\n-0.5\tb\n-99\t<unk>\n\n"
              "\\2-grams:\n-0.1\ta b\n\n\\end\\\n")


class TestArpa:
    def test_whitespace_and_tab_lines_parse_alike(self, tmp_path):
        path = tmp_path / "m.arpa"
        path.write_text(VALID_ARPA, encoding="utf-8")
        tabs = read_arpa(path)
        path.write_text(VALID_ARPA.replace("\t", "  "), encoding="utf-8")
        spaces = read_arpa(path)
        assert listing(tabs) == listing(spaces) == (
            {("a",): -0.3, ("b",): -0.5, (UNK,): -99.0, ("a", "b"): -0.1},
            {("a",): -0.2})
        assert tabs.order == 2

    @pytest.mark.parametrize("old, new", [
        ("ngram 2=1\n", ""),                    # undeclared section
        ("ngram 1=3", "ngram 1=x"),             # bad count
        ("ngram 1=3", "ngram 3=3"),             # orders not 1..n
        ("-0.5\tb", "xx\tb"),                   # bad probability
        ("-0.5\tb", "-0.5\tb\t-0.1\tjunk"),     # extra field
        ("-0.5\tb", "-0.5"),                    # missing word
        ("-0.5\tb", "nan\tb"),                  # non-finite
        ("-0.1\ta b", "-0.1\ta b c"),           # 3 words, 2-gram section
        ("-0.1\ta b", "-0.1\tc b"),             # 2-gram without its prefix
        ("-0.5\tb", "-0.3\ta"),                 # repeated entry
        ("\\2-grams:", "\\two-grams:"),         # bad section header
        ("\\end\\\n", ""),                      # truncated
        ("\\end\\\n", "\\end\\\n-1\tc\n"),      # text after end
    ])
    def test_malformed_is_bad_format(self, tmp_path, old, new):
        assert old in VALID_ARPA
        path = tmp_path / "bad.arpa"
        path.write_text(VALID_ARPA.replace(old, new, 1), encoding="utf-8")
        with pytest.raises(BadFormat):
            read_arpa(path)

    def test_ngram_without_its_prefix_is_bad_format(self, tmp_path):
        # an n-gram is coded by the rank of its (k-1)-gram prefix, so the
        # prefix must be an n-gram of the file
        text = ("\\data\\\nngram 1=2\nngram 2=1\nngram 3=1\n\n"
                "\\1-grams:\n-0.3\ta\t-0.1\n-0.5\tb\n\n"
                "\\2-grams:\n-0.1\ta b\t-0.2\n\n"
                "\\3-grams:\n-0.2\ta b a\n\n\\end\\\n")
        path = tmp_path / "m.arpa"
        path.write_text(text, encoding="utf-8")
        assert listing(read_arpa(path))[0][("a", "b", "a")] == -0.2
        path.write_text(text.replace("\ta b a", "\tb b a"), encoding="utf-8")
        with pytest.raises(BadFormat, match="has no 2-gram prefix"):
            read_arpa(path)

    def test_undecodable_bytes_are_bad_format(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_bytes(VALID_ARPA.encode("utf-8").replace(b"b", b"\xff"))
        with pytest.raises(BadFormat):
            read_arpa(path)

    @settings(max_examples=150, deadline=None)
    @given(edit_lists("ab \t\n\\-=0123.xgram:"), st.booleans())
    def test_fuzz_fails_only_with_bad_format(self, tmp_path_factory, edits,
                                             bad_byte):
        path = tmp_path_factory.mktemp("fuzz") / "m.arpa"
        path.write_bytes(mutate(VALID_ARPA, edits, bad_byte))
        try:
            lm = read_arpa(path)
        except BadFormat:
            return
        assert lm.order >= 1 and UNK in lm.vocab
        write_arpa(lm, path)  # whatever loads writes back

    def test_backoff_without_successors_round_trips(self, tmp_path):
        # b has a backoff but no bigram; a b is top order, so its backoff
        # has no context to weigh and is dropped on writing
        path = tmp_path / "m.arpa"
        path.write_text(VALID_ARPA.replace("-0.5\tb", "-0.5\tb\t-0.4")
                        .replace("-0.1\ta b", "-0.1\ta b\t-0.7"),
                        encoding="utf-8")
        lm = read_arpa(path)
        assert listing(lm) == (
            {("a",): -0.3, ("b",): -0.5, (UNK,): -99.0, ("a", "b"): -0.1},
            {("a",): -0.2, ("b",): -0.4})
        assert lm.score_token(("b",), "a")[0] == -0.4 + -0.3
        write_arpa(lm, tmp_path / "back.arpa")
        assert (tmp_path / "back.arpa").read_text(encoding="utf-8") == (
            "\\data\\\nngram 1=3\nngram 2=1\n\n"
            "\\1-grams:\n-99\t<unk>\n-0.29999999999999999\ta\t-0.20000000000000001\n"
            "-0.5\tb\t-0.40000000000000002\n\n"
            "\\2-grams:\n-0.10000000000000001\ta b\n\n\\end\\\n")
        assert listing(read_arpa(tmp_path / "back.arpa")) == listing(lm)

    def test_signed_zeros_round_trip_byte_for_byte(self, tmp_path):
        # 0.0 == -0.0, so a memo keyed by the float would write both alike
        text = ("\\data\\\nngram 1=3\nngram 2=1\n\n"
                "\\1-grams:\n-99\t<unk>\n-0\ta\t-0\n0\tb\n\n"
                "\\2-grams:\n0\ta b\n\n\\end\\\n")
        path = tmp_path / "m.arpa"
        path.write_text(text, encoding="utf-8")
        probs, backoffs = listing(read_arpa(path))
        assert math.copysign(1.0, probs[("a",)]) == -1.0
        assert math.copysign(1.0, backoffs[("a",)]) == -1.0
        lm = read_arpa(path)
        write_arpa(lm, tmp_path / "back.arpa")
        assert (tmp_path / "back.arpa").read_text(encoding="utf-8") == text

    def test_round_trip_scores(self, tmp_path):
        lm = train(["abc", "abd", "cab", "ddd"], order=3, discount=0.75)
        path = tmp_path / "toy.arpa"
        write_arpa(lm, path)
        back = read_arpa(path)
        seqs = [["a"], ["a", "b", "c"], ["d", "d", "d", "a"], ["z"], []]
        for seq in seqs:
            assert back.score_sequence(seq) == pytest.approx(
                lm.score_sequence(seq), abs=1e-9)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text("\\data\\\nngram 1=3\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n",
                        encoding="utf-8")
        with pytest.raises(BadFormat):
            read_arpa(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text("not an arpa file\n", encoding="utf-8")
        with pytest.raises(BadFormat):
            read_arpa(path)

    def test_hand_written_unigram(self, tmp_path):
        path = tmp_path / "mini.arpa"
        path.write_text(
            "\\data\\\nngram 1=3\n\n\\1-grams:\n"
            "-0.3010299956639812\ta\n-0.6989700043360187\tb\n-99\t<unk>\n"
            "\n\\end\\\n", encoding="utf-8")
        lm = read_arpa(path)
        assert lm.order == 1
        assert 10 ** lm.score_sequence(["a"]) == pytest.approx(0.5)
        assert 10 ** lm.score_sequence(["b"]) == pytest.approx(0.2)


# sha256 of write_arpa's output, pinned from the flat n-gram table that
# preceded the layout grouped by context: the ARPA text must not change
ARPA_SHA256 = {
    ("char", 1): "a79507235b6f5c77aaa24d8d8fdc18aaa8020d7ae77f344210fd3268c6033d6a",
    ("char", 2): "76af8ba294b9a509bab87701f696c5ffa89c8e5c7016e2a82206832997c9aecc",
    ("char", 3): "f6ac44c612378cd179475b8b7a843738c78c2ca022c968245ae54a60a05a8606",
    ("char", 4): "78c4f7c4a75a624a6b75a29c61d292a53bbbf2fb1bc934293afed8232db7cdf7",
    ("syllable", 1): "f0df8260837dff0c6d1b776fdcccea8602acb402bcce34c3674aacdcb3e8f0f3",
    ("syllable", 2): "0d5fa9ae9c2f2524af89f497e5129467f58b3542a8aca233a802e81332da82ce",
    ("syllable", 3): "26e44d6ed9a02e815e806c63447ad96143012e855ea143fdb68fa9ac091a1094",
    ("syllable", 4): "3ece82dfa04f4655cb0702d34b5c832f244668e985560bfcbcbadd5fcfc89754",
}


@pytest.fixture(scope="module")
def pinned_corpus():
    lang = make_language()
    lines = make_corpus(lang, num_utts=2, num_keywords=10, seed=3).lm_lines
    return {"char": lines,
            "syllable": [[lang.syll_set.units[i] for i in
                          syllabify(ln, lang.lexicon, lang.syll_set)]
                         for ln in lines]}


@pytest.mark.parametrize("unit, order", sorted(ARPA_SHA256))
def test_arpa_bytes_are_pinned(pinned_corpus, tmp_path, unit, order):
    path = tmp_path / "m.arpa"
    write_arpa(train(pinned_corpus[unit], order=order), path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == ARPA_SHA256[unit, order])


@pytest.mark.parametrize("order", [1, 2, 4])
def test_contexts_share_their_backoff_keys(tmp_path, order):
    # an n-gram's code holds its context's rank, which is where the
    # context's own n-gram, and so its backoff weight, sits one order down
    trained = train(["abcab", "bca", "cc"], order=order)
    write_arpa(trained, tmp_path / "m.arpa")
    for lm in (trained, read_arpa(tmp_path / "m.arpa")):
        orders = list(lm.ngrams())
        for (lower, _, backoff), (grams, _, _), codes in zip(
                orders, orders[1:], lm.codes[1:]):
            rank = codes // len(lm.words)
            assert (lower[rank] == grams[:, :-1]).all()
            assert not np.isnan(backoff[rank]).any()


def test_read_arpa_shares_one_string_per_word(tmp_path):
    # n-grams name their words by id, so the model keeps one string per
    # distinct word, in its sorted word list, and numbers elsewhere
    sents = [["zhong1", "guo2", "ren2"], ["guo2", "ren2", "zhong1", "guo2"]]
    write_arpa(train(sents, order=3), tmp_path / "m.arpa")
    lm = read_arpa(tmp_path / "m.arpa")
    assert lm.words == sorted({"zhong1", "guo2", "ren2", BOS, EOS, UNK})
    assert all(a.dtype.kind in "fi" for a in itertools.chain(
        lm.codes, lm.logp, lm.backoff))
    assert sum(len(grams) for grams, _, _ in lm.ngrams()) > len(lm.words)


def bytes_kept_an_entry(tmp_path, source: str) -> float:
    """The bytes that the demo corpus's order-4 char LM keeps (tracemalloc)
    per n-gram and backoff weight, from ``train`` or ``read_arpa``."""
    lines = make_corpus(make_language(), num_utts=30, num_keywords=50,
                        seed=0).lm_lines
    write_arpa(train(lines, order=4), tmp_path / "m.arpa")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lm = (train(lines, order=4) if source == "train"
              else read_arpa(tmp_path / "m.arpa"))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    probs, backoffs = listing(lm)
    assert len(probs) + len(backoffs) > 5000
    return kept / (len(probs) + len(backoffs))


@pytest.mark.parametrize("source", ["train", "read_arpa"])
def test_lm_keeps_at_most_40_bytes_an_entry(tmp_path, source):
    """The model is arrays: a return to a Python object per n-gram (about
    139 bytes an entry as dicts of dicts) fails here."""
    assert bytes_kept_an_entry(tmp_path, source) <= 40


@pytest.mark.parametrize("source", ["train", "read_arpa"])
def test_lm_keeps_at_most_20_bytes_an_entry(tmp_path, source):
    """Codes and successor offsets are int32 where their bounds fit, and
    the top order keeps no backoffs: int64 tables and a NaN backoff per
    top-order n-gram (about 24 and 21 bytes an entry) fail here."""
    assert bytes_kept_an_entry(tmp_path, source) <= 20


def test_codes_past_int32_stay_int64(tmp_path):
    """50,000 unigrams: order 2's code bound, 50,000 x 50,003 ids, passes
    2**31 - 1, so its codes are int64, and a bigram whose code is past
    2**31 is found."""
    words = [f"w{i:05d}" for i in range(50000)]
    path = tmp_path / "m.arpa"
    path.write_text(
        "\\data\\\nngram 1=50000\nngram 2=2\n\n\\1-grams:\n"
        + "".join(f"-5\t{w}\t-0.5\n" for w in words)
        + "\n\\2-grams:\n-0.25\tw00000 w49999\n-0.75\tw49999 w00000\n"
        "\n\\end\\\n", encoding="utf-8")
    lm = read_arpa(path)
    assert [c.dtype for c in lm.codes] == [np.int32, np.int64]
    assert lm.first[0].dtype == np.int64
    assert lm.codes[1][-1] > 2 ** 31  # the bigram after w49999
    assert lm.score_token(("w49999",), "w00000") == (-0.75, ("w00000",))
    assert lm.score_token(("w00000",), "w49999") == (-0.25, ("w49999",))
    assert lm.score_token(("w49999",), "w00001") == (-5.5, ("w00001",))
