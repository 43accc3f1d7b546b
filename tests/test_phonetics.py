import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwspot.errors import BadSyllable
from kwspot.phonetics import (CostTable, Syllable, load_cost_table,
                              parse_syllable, phrase_distance,
                              syllable_distance)

TABLE = CostTable()


def test_parse_basic():
    assert parse_syllable("zhong1") == Syllable("zh", "ong", 1)
    assert parse_syllable("an4") == Syllable("", "an", 4)
    assert parse_syllable("ma0") == Syllable("m", "a", 0)


@pytest.mark.parametrize("bad", ["zh1", "zhong", "", "5", "zhong5"])
def test_parse_bad(bad):
    with pytest.raises(BadSyllable):
        parse_syllable(bad)


def test_syllable_distance_identity():
    a = parse_syllable("zhong1")
    assert syllable_distance(a, a, TABLE) == 0.0


def test_syllable_distance_tone_only():
    assert syllable_distance(parse_syllable("zhang1"),
                             parse_syllable("zhang4"), TABLE) == pytest.approx(0.2)


def test_syllable_distance_initial_group():
    assert syllable_distance(parse_syllable("zhang1"),
                             parse_syllable("zang1"), TABLE) == pytest.approx(0.5)


def test_syllable_distance_default_sub():
    assert syllable_distance(parse_syllable("ma1"),
                             parse_syllable("ka1"), TABLE) == pytest.approx(1.0)


def test_phrase_distance_worked():
    a = [parse_syllable("zhang1"), parse_syllable("hai3")]
    b = [parse_syllable("zang1"), parse_syllable("hai3")]
    assert phrase_distance(a, b, TABLE) == pytest.approx(0.25)


def test_phrase_distance_identity_and_indel():
    a = [parse_syllable("zhong1")]
    assert phrase_distance(a, a, TABLE) == 0.0
    assert phrase_distance(a, [], TABLE) == pytest.approx(1.0)
    assert phrase_distance([], [], TABLE) == 0.0


SYLLS = ["zhong1", "zang1", "zhang4", "ma1", "lin2", "ling2", "hen1", "feng3", "an4"]
phrase = st.lists(st.sampled_from(SYLLS), max_size=5)


@given(phrase, phrase)
def test_symmetry(xs, ys):
    a = [parse_syllable(s) for s in xs]
    b = [parse_syllable(s) for s in ys]
    assert phrase_distance(a, b, TABLE) == pytest.approx(phrase_distance(b, a, TABLE))


@given(phrase, phrase)
def test_normalized_range(xs, ys):
    a = [parse_syllable(s) for s in xs]
    b = [parse_syllable(s) for s in ys]
    d = phrase_distance(a, b, TABLE)
    assert 0.0 <= d <= 1.0 + 1e-12


@given(st.sampled_from(SYLLS), st.sampled_from(SYLLS))
def test_identity_of_indiscernibles(x, y):
    d = syllable_distance(parse_syllable(x), parse_syllable(y), TABLE)
    assert (d == 0.0) == (x == y)


def test_cost_table_file(tmp_path):
    p = tmp_path / "costs.txt"
    p.write_text("""# toy table
[initial_groups]
zh z : 0.3
[final_groups]
an ang : 0.4
[costs]
tone_cost = 0.1
""", encoding="utf-8")
    table = load_cost_table(p)
    assert table.initial_cost("zh", "z") == pytest.approx(0.3)
    assert table.final_cost("an", "ang") == pytest.approx(0.4)
    assert table.tone_cost == pytest.approx(0.1)
    assert table.initial_cost("zh", "m") == pytest.approx(1.0)


@pytest.mark.parametrize("text, line", [
    ("[costs]\ntone_cost = 0.1\nswap_cost = 0.3\n", 3),   # unknown key
    ("tone_cost = 0.1\n[costs]\n", 1),                    # before a section
    ("[costs]\n[finals]\nan ang : 0.4\n", 2),             # unknown section
    ("[initial_groups]\nzh z 0.3\n", 2),                  # no ':cost'
    ("[final_groups]\nan ang : x\n", 2),                  # bad number
])
def test_cost_table_errors_name_the_line(tmp_path, text, line):
    p = tmp_path / "costs.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"costs.txt:{line}:"):
        load_cost_table(p)
