import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwspot.config import PipelineConfig, load_config
from fuzzing import edit_lists, mutate


def write(tmp_path, text):
    p = tmp_path / "config.ini"
    p.write_text(text, encoding="utf-8")
    return p


class TestDefaults:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        ref = PipelineConfig()
        assert cfg.beam == ref.beam
        assert cfg.bias == ref.bias
        assert cfg.kws == ref.kws
        assert cfg.seed == 0 and cfg.jobs == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.ini")


class TestSections:
    def test_overrides(self, tmp_path):
        cfg = load_config(write(tmp_path, """\
[paths]
char_units = units.txt
lexicon = lex.tsv

[beam]
beam_size = 20
lm_weight = 1.5

[bias]
beta = 2.5
chunk_len = 3

[kws]
fuzzy_threshold = 0.4
length_norm = false

[synth]
noise = 0.3
frames_per_token = 5

[run]
seed = 7
jobs = 3
frame_period_s = 0.02
"""))
        assert cfg.paths.char_units == "units.txt"
        assert cfg.paths.lexicon == "lex.tsv"
        assert cfg.beam.beam_size == 20
        assert cfg.beam.lm_weight == 1.5
        assert cfg.bias.beta == 2.5 and cfg.bias.chunk_len == 3
        assert cfg.kws.fuzzy_threshold == 0.4
        assert cfg.kws.length_norm is False
        assert cfg.synth.noise == 0.3
        assert cfg.synth.frames_per_token == 5
        assert cfg.seed == 7 and cfg.jobs == 3
        assert cfg.frame_period_s == 0.02

    def test_untouched_fields_keep_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "[beam]\nbeam_size = 4\n"))
        assert cfg.beam.beam_size == 4
        assert cfg.beam.lm_weight == PipelineConfig().beam.lm_weight

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_config(write(tmp_path, "[beam]\nwidth = 4\n"))
        with pytest.raises(ValueError):
            load_config(write(tmp_path, "[run]\nthreads = 4\n"))
        # set in code or derived for each run, so a file may not set them
        for text in ("[synth]\nconfusion = 1\n", "[synth]\nseed = 3\n",
                     "[eval]\ntotal_speech_s = 5\n"):
            with pytest.raises(ValueError, match="unknown key"):
                load_config(write(tmp_path, text))
        with pytest.raises(ValueError, match="beems"):
            load_config(write(tmp_path, "[beems]\nbeam_size = 4\n"))

    def test_bool_spellings(self, tmp_path):
        for raw, want in (("true", True), ("1", True), ("yes", True),
                          ("On", True), ("false", False), ("0", False),
                          ("no", False), ("off", False)):
            cfg = load_config(write(tmp_path,
                                    f"[kws]\nlength_norm = {raw}\n"))
            assert cfg.kws.length_norm is want
        for raw in ("flase", "2", ""):
            with pytest.raises(ValueError, match="not a boolean"):
                load_config(write(tmp_path, f"[kws]\nlength_norm = {raw}\n"))

    @pytest.mark.parametrize("nbest", ["0", "-1"])
    def test_nbest_below_one_rejected(self, tmp_path, nbest):
        # an empty N-best list would make kws find nothing without a word
        with pytest.raises(ValueError, match="nbest"):
            load_config(write(tmp_path, f"[beam]\nnbest = {nbest}\n"))

    @pytest.mark.parametrize("section, key", [
        ("beam", "lm_weight"), ("beam", "token_min_logp"), ("bias", "alpha"),
        ("kws", "decision_threshold"), ("kws", "fuzzy_threshold"),
        ("synth", "noise"), ("run", "frame_period_s"),
    ])
    @pytest.mark.parametrize("raw", ["nan", "-NaN"])
    def test_nan_rejected_naming_section_and_key(self, tmp_path, section,
                                                 key, raw):
        with pytest.raises(ValueError, match=rf"\[{section}\] {key}: "):
            load_config(write(tmp_path, f"[{section}]\n{key} = {raw}\n"))

    @pytest.mark.parametrize("section, key", [
        ("beam", "lm_weight"), ("bias", "alpha"), ("bias", "beta")])
    @pytest.mark.parametrize("raw", ["inf", "-inf"])
    def test_infinite_weight_rejected(self, tmp_path, section, key, raw):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            load_config(write(tmp_path, f"[{section}]\n{key} = {raw}\n"))

    @pytest.mark.parametrize("key, raw", [
        ("fuzzy_threshold", "inf"), ("fuzzy_threshold", "-inf"),
        ("fuzzy_threshold", "-1"), ("fuzzy_threshold", "1.5"),
        ("decision_threshold", "inf"), ("decision_threshold", "-inf")])
    def test_kws_threshold_rejected(self, tmp_path, key, raw):
        with pytest.raises(ValueError, match=f"{key} must be"):
            load_config(write(tmp_path, f"[kws]\n{key} = {raw}\n"))

    @pytest.mark.parametrize("raw", ["0", "1"])
    def test_fuzzy_threshold_bounds_are_legal(self, tmp_path, raw):
        cfg = load_config(write(tmp_path, f"[kws]\nfuzzy_threshold = {raw}\n"))
        assert cfg.kws.fuzzy_threshold == float(raw)

    @pytest.mark.parametrize("raw", ["0", "-0.04", "inf", "-inf"])
    def test_frame_period_must_be_finite_and_positive(self, tmp_path, raw):
        with pytest.raises(ValueError, match=r"\[run\] frame_period_s must be"):
            load_config(write(tmp_path, f"[run]\nframe_period_s = {raw}\n"))

    def test_token_min_logp_may_be_minus_inf(self, tmp_path):
        cfg = load_config(write(tmp_path, "[beam]\ntoken_min_logp = -inf\n"))
        assert cfg.beam.token_min_logp == float("-inf")

    @pytest.mark.parametrize("text", [
        "beam_size = 4\n",                             # no section header
        "[beam]\nbeam_size = 4\n[beam]\nnbest = 2\n",  # duplicate section
        "[beam]\nbeam_size = 4\nbeam_size = 5\n",      # duplicate key
        "[paths]\nlexicon = 100%\n",                   # bad interpolation
    ])
    def test_parser_errors_are_value_errors(self, tmp_path, text):
        with pytest.raises(ValueError):
            load_config(write(tmp_path, text))


VALID_CONFIG = """\
[paths]
lexicon = lex.tsv

[beam]
beam_size = 20

[kws]
length_norm = false

[synth]
noise = 0.3

[run]
seed = 7
"""


@settings(max_examples=150, deadline=None)
@given(edit_lists("[]=%:\n ab_.-019xyz"), st.booleans())
def test_fuzz_fails_only_with_value_errors(tmp_path_factory, edits, bad_byte):
    path = tmp_path_factory.mktemp("fuzz") / "config.ini"
    path.write_bytes(mutate(VALID_CONFIG, edits, bad_byte))
    try:
        load_config(path)
    except ValueError:
        pass
