import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kwspot.corpus import make_language
from kwspot.errors import BadSyllable
from kwspot.kws import char_syllables
from kwspot.phonetics import (DEFAULT_FINAL_GROUPS, DEFAULT_INITIAL_GROUPS,
                              CostTable, Syllable, load_cost_table,
                              parse_syllable, phrase_distance,
                              substitution_matrix, syllable_distance)

from oracles import syllable_phrase_distance

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


SYLLS = ["zhong1", "zang1", "zhang4", "ma1", "lin2", "ling2", "hen1", "feng3", "an4"]
# unit ids into SUB: 0 is the blank, SYLLS come first so the hypothesis
# strategies below can index them
UNITS = [*SYLLS, "zhang1", "hai3"]
SUB = substitution_matrix([None, *map(parse_syllable, UNITS)], TABLE)
INDEL = TABLE.indel_cost


def ids(*sylls):
    return [UNITS.index(s) + 1 for s in sylls]


def test_phrase_distance_worked():
    a = ids("zhang1", "hai3")
    b = ids("zang1", "hai3")
    assert phrase_distance([a], [b], SUB, INDEL)[0, 0] == pytest.approx(0.25)


def test_phrase_distance_identity_and_indel():
    a = ids("zhong1")
    assert phrase_distance([a], [a], SUB, INDEL)[0, 0] == 0.0
    assert phrase_distance([a], [[]], SUB, INDEL)[0, 0] == pytest.approx(1.0)
    assert phrase_distance([[]], [[]], SUB, INDEL)[0, 0] == 0.0


phrase = st.lists(st.sampled_from(SYLLS), max_size=5)


@given(phrase, phrase)
def test_symmetry(xs, ys):
    a = ids(*xs)
    b = ids(*ys)
    assert phrase_distance([a], [b], SUB, INDEL)[0, 0] == pytest.approx(
        phrase_distance([b], [a], SUB, INDEL)[0, 0])


@given(phrase, phrase)
def test_normalized_range(xs, ys):
    a = ids(*xs)
    b = ids(*ys)
    ((d,),) = phrase_distance([a], [b], SUB, INDEL)
    assert 0.0 <= d <= 1.0 + 1e-12


TOY = make_language()
TOY_SYLLS = char_syllables(TOY.char_set, TOY.lexicon)
cost = st.floats(0.0, 3.0)
toy_phrase = st.lists(st.integers(1, len(TOY_SYLLS) - 1), max_size=6)


@st.composite
def cost_tables(draw):
    """Random costs on the default groups; the tone cost is often 0 and the
    substitution cost often above the indel cost, so the cap bites."""
    return CostTable(
        initial_groups=tuple((m, draw(cost)) for m, _ in DEFAULT_INITIAL_GROUPS),
        final_groups=tuple((m, draw(cost)) for m, _ in DEFAULT_FINAL_GROUPS),
        tone_cost=draw(st.just(0.0) | cost),
        substitution_cost=draw(cost), indel_cost=draw(cost))


@example(CostTable(tone_cost=0.0, substitution_cost=2.5, indel_cost=0.7),
         [1, 2, 3, 4, 5, 6], [6, 5, 4])
@given(cost_tables(), toy_phrase, toy_phrase)
def test_phrase_distance_equals_syllable_list_oracle(table, a, b):
    ((got,),) = phrase_distance([a], [b],
                                substitution_matrix(TOY_SYLLS, table),
                                table.indel_cost)
    want = syllable_phrase_distance([TOY_SYLLS[u] for u in a],
                                    [TOY_SYLLS[u] for u in b], table)
    assert got == want


@st.composite
def window_batches(draw):
    """1-8 windows of one width 0-5 and 1-4 keywords of one length 0-5 over
    the toy char units."""
    unit = st.integers(1, len(TOY_SYLLS) - 1)

    def batch(max_size):
        width = draw(st.integers(0, 5))
        return draw(st.lists(st.tuples(*[unit] * width), min_size=1,
                             max_size=max_size))
    return batch(8), batch(4)


@example(CostTable(tone_cost=0.3, indel_cost=0.7),
         ([(1, 2, 3), (3, 2, 1)], [(1, 3, 3), (3, 3, 1), (2, 2, 2)]))
@given(cost_tables(), window_batches())
def test_batched_phrase_distance_equals_oracle(table, batch):
    windows, keywords = batch
    got = phrase_distance(windows, keywords,
                          substitution_matrix(TOY_SYLLS, table),
                          table.indel_cost)
    assert got.shape == (len(keywords), len(windows))
    for b, row in zip(keywords, got):
        for window, d in zip(windows, row):
            assert d == syllable_phrase_distance(
                [TOY_SYLLS[u] for u in window], [TOY_SYLLS[u] for u in b],
                table)


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
    ("[initial_groups]\nzh z : inf\n", 2),                # infinite cost
    ("[final_groups]\nan ang : -0.5\n", 2),               # negative cost
    ("[costs]\ntone_cost = 0.1\nindel_cost = -1\n", 3),   # negative cost
    ("[costs]\ntone_cost = nan\n", 2),                    # not a number
])
def test_cost_table_errors_name_the_line(tmp_path, text, line):
    p = tmp_path / "costs.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"costs.txt:{line}:"):
        load_cost_table(p)
