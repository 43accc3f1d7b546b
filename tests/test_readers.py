"""Fuzzing of the text readers the other test files do not fuzz: a mutated
file loads, or fails with an exception the CLI maps to its documented exit
code (KwspotError: 1; ValueError: 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwspot.errors import BadFormat, KwspotError
from kwspot.kws import read_hits
from kwspot.metrics import load_refs
from kwspot.phonetics import load_cost_table
from kwspot.pipeline import load_id_text
from kwspot.units import load_lexicon, load_unit_set

from fuzzing import edit_lists, mutate

# reader, a valid file, and the exceptions a malformed one may raise: the
# tab-separated readers report every fault as BadFormat at path:line
READERS = {
    "hits": (read_hits,
             "u1\tk1\t0.040000\t0.360000\t-1.250000\t1\tchar\t1\t9\n"
             "u2\tk2\t0.120000\t0.400000\t-7.500000\t0\tfuzzy\t3\t10\n",
             BadFormat),
    "refs": (load_refs,
             "# utt kw start end\nu1\tk1\t0.040000\t0.360000\n"
             "u2\tk2\t1.5e-1\t0.4\n", BadFormat),
    "cost_table": (load_cost_table,
                   "[initial_groups]\nzh z:0.2\n[final_groups]\n"
                   "an ang:0.3\n# tone only\n[costs]\ntone_cost = 0.5\n"
                   "indel_cost = 1\n", ValueError),
    "unit_set": (load_unit_set, "<blk>\n# chars\n中\n国\nzh\n",
                 (KwspotError, ValueError)),
    "lexicon": (load_lexicon, "中\tzhong1 zhong4\n国\tguo2\n", BadFormat),
    "id_text": (load_id_text, "u1\t中国\nu2\t国 中\n", BadFormat),
}


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=200, deadline=None)
@given(edit_lists("\t\n #.:=[]-01259eafinuzhg中国"), st.booleans())
def test_fuzz_fails_only_with_mapped_errors(tmp_path_factory, name, edits,
                                            bad_byte):
    reader, valid, allowed = READERS[name]
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_bytes(mutate(valid, edits, bad_byte))
    try:
        reader(path)
    except allowed:
        pass


@pytest.mark.parametrize("name", READERS)
def test_valid_file_loads(tmp_path, name):
    reader, valid, _ = READERS[name]
    path = tmp_path / name
    path.write_text(valid, encoding="utf-8")
    assert reader(path)
