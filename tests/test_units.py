import pytest

from kwspot.errors import (BadFormat, DuplicateUnit, EmptyUnitSet,
                           OutOfVocabulary)
from kwspot.kws import read_hits
from kwspot.metrics import load_refs
from kwspot.pipeline import load_id_text
from kwspot.units import (BLANK, Lexicon, UnitKind, UnitSet, load_lexicon,
                          load_unit_set, read_tsv, syllabify, tokenize_chars,
                          write_lexicon, write_unit_set)


def write_lines(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def test_blank_prepended(tmp_path):
    us = load_unit_set(write_lines(tmp_path, "u.txt", ["a", "b"]))
    assert us.units == (BLANK, "a", "b")
    assert us.blank_index == 0


def test_duplicate_unit(tmp_path):
    with pytest.raises(DuplicateUnit):
        load_unit_set(write_lines(tmp_path, "u.txt", ["a", "a"]))


def test_empty_file(tmp_path):
    p = tmp_path / "u.txt"
    p.write_text("", encoding="utf-8")
    with pytest.raises(EmptyUnitSet):
        load_unit_set(p)


def test_comments_skipped(tmp_path):
    us = load_unit_set(write_lines(tmp_path, "u.txt", ["# header", "a", "b"]))
    assert us.units == (BLANK, "a", "b")


def test_large_set_size(tmp_path):
    chars = [chr(0x4E00 + i) for i in range(5000)]
    us = load_unit_set(write_lines(tmp_path, "u.txt", chars))
    assert len(us) == 5001


def test_round_trip(tmp_path):
    src = write_lines(tmp_path, "u.txt", [BLANK, "a", "b", "c"])
    us = load_unit_set(src)
    dst = tmp_path / "v.txt"
    write_unit_set(us, dst)
    assert dst.read_text(encoding="utf-8") == src.read_text(encoding="utf-8")


def test_tokenize_chars(tmp_path):
    us = load_unit_set(write_lines(tmp_path, "u.txt", ["中", "国"]))
    assert tokenize_chars("中国", us) == [us.id_of("中"), us.id_of("国")]
    assert tokenize_chars("", us) == []
    assert tokenize_chars("中 国", us) == [us.id_of("中"), us.id_of("国")]


def test_tokenize_oov(tmp_path):
    us = load_unit_set(write_lines(tmp_path, "u.txt", ["中", "国"]))
    with pytest.raises(OutOfVocabulary) as exc:
        tokenize_chars("中X国", us)
    assert exc.value.symbol == "X"
    assert exc.value.position == 1


@pytest.fixture
def toy_lex(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("中\tzhong1\n国\tguo2\n行\txing2 hang2\n", encoding="utf-8")
    return load_lexicon(p)


def test_syllabify(toy_lex):
    syll = UnitSet(id="s", kind=UnitKind.SYLLABLE,
                   units=(BLANK, "zhong1", "guo2", "xing2", "hang2"))
    ids = syllabify("中国", toy_lex, syll)
    assert ids == [syll.id_of("zhong1"), syll.id_of("guo2")]
    assert syllabify("", toy_lex, syll) == []
    # polyphone takes the primary (first listed) pronunciation
    assert syllabify("行", toy_lex, syll) == [syll.id_of("xing2")]


def test_syllabify_oov(toy_lex):
    syll = UnitSet(id="s", kind=UnitKind.SYLLABLE, units=(BLANK, "zhong1", "guo2"))
    with pytest.raises(OutOfVocabulary):
        syllabify("中外", toy_lex, syll)


def test_lexicon_round_trip(tmp_path, toy_lex):
    p = tmp_path / "out.tsv"
    write_lexicon(toy_lex, p)
    assert load_lexicon(p) == toy_lex


def test_syllabify_length_matches_tokenize(tmp_path):
    from kwspot.corpus import make_language
    lang = make_language()
    for text in ["".join(list(lang.lexicon.entries)[:5]), "", next(iter(lang.lexicon.entries))]:
        assert len(syllabify(text, lang.lexicon, lang.syll_set)) == \
            len(tokenize_chars(text, lang.char_set))


class TestReadTsv:
    def test_last_field_keeps_tabs(self, tmp_path):
        p = write_lines(tmp_path, "x.tsv", ["# c", "", "a\tb\tc\td"])
        assert list(read_tsv(p, 3)) == [("a", "b", "c\td")]

    GOOD = {load_id_text: "u1\tab",
            load_refs: "u1\tk1\t0.5\t1.0",
            load_lexicon: "中\tzhong1",
            read_hits: "u1\tk1\t0.5\t1.0\t-1.0\t1\tchar\t12\t25"}

    @pytest.mark.parametrize("loader", list(GOOD), ids=lambda f: f.__name__)
    def test_comments_and_blank_lines_skipped(self, tmp_path, loader):
        good = self.GOOD[loader]
        plain = write_lines(tmp_path, "a.tsv", [good])
        commented = write_lines(tmp_path, "b.tsv", ["# comment", "", good])
        assert loader(commented) == loader(plain)

    @pytest.mark.parametrize("loader, bad", [
        (load_refs, "u2\tk1\t0.5"),                            # 3 fields
        (load_refs, "u2\tk1\t0.5\tx"),                        # bad float
        (load_refs, "u2\tk1\t1.0\t0.5"),                      # start > end
        (load_refs, "u2\tk1\t0.5\t1.0\textra"),               # 5 fields
        (load_lexicon, "国 guo2"),                              # no tab
        (load_lexicon, "国\t"),                                 # no pron
        (load_lexicon, "中\tzhong4"),                           # repeated
        (load_lexicon, "国\tguo guo2"),                         # no tone
        (load_lexicon, "国\tguo2 ???"),                        # bad 2nd pron
        (read_hits, "u2\tk1\t0.5\t1.0\t-1.0\t1"),                # 6 fields
        (read_hits, "u2\tk1\t0.5\t1.0\t-1.0\t1\tchar"),          # 7 fields
        (read_hits, "u2\tk1\t0.5\t1.0\t-1.0\tyes\tchar\t1\t3"),  # bad int
        (read_hits, "u2\tk1\t0.5\t1.0\t-1.0\t1\tphone\t1\t3"),   # bad stage
        (read_hits, "u2\tk1\t0.5\t1.0\t-1.0\t1\tchar\t1\tx"),    # bad frame
        (read_hits, "u2\tk1\t0.5\t1.0\t-1.0\t1\tchar\t3\t3"),    # no frames
    ], ids=lambda x: getattr(x, "__name__", None))
    def test_bad_line_is_bad_format_at_path_line(self, tmp_path, loader, bad):
        p = write_lines(tmp_path, "x.tsv", [self.GOOD[loader], bad])
        with pytest.raises(BadFormat, match="x.tsv:2:"):
            loader(p)

    def test_undecodable_bytes_are_bad_format(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_bytes(b"u1\t\xff\n")
        with pytest.raises(BadFormat, match="not UTF-8"):
            load_id_text(p)
