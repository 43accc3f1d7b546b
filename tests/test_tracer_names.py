"""The benchmark's tracer replaces functions of the program by name; a rename
there would break the traced benchmark run, and a traced name the program no
longer calls would read 0 in its per-layer metric, so both are caught here."""

from pathlib import Path

import pytest

from kwspot import pipeline
from kwspot.corpus import confusion_tables, make_corpus, make_language
from kwspot.decoder import BeamConfig
from kwspot.kws import KwsConfig
from kwspot.phonetics import CostTable
from kwspot.pgram import SynthConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def test_tracer_wraps_and_restores_every_name(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._undo)
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr


def synth(tmp_path):
    """A 3-utterance noisy corpus under tmp_path; its language and corpus."""
    lang = make_language()
    corpus = make_corpus(lang, num_utts=3, num_keywords=6, seed=4)
    char_conf, syll_conf = confusion_tables(lang)
    pipeline.synth_corpus(corpus.transcripts, corpus.keywords, lang.char_set,
                          lang.syll_set, lang.lexicon, SynthConfig(noise=0.3),
                          tmp_path, 0, 0.04, char_confusion=char_conf,
                          syll_confusion=syll_conf)
    return lang, corpus


def test_decode_dir_records_every_decoder_span(tracing, tmp_path):
    lang, _ = synth(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pipeline.decode_dir(tmp_path / "char", lang.char_set, None,
                                   None, BeamConfig(nbest=5))
    finally:
        tracer.uninstall()
    layers = tracer.layers()
    for name in ("decoder.prefix_beam_search", "pgram.align_viterbi"):
        assert name in layers and layers[name]["calls"] >= 1, name


def test_run_kws_records_every_kws_span(tracing, tmp_path):
    lang, corpus = synth(tmp_path)
    beam = BeamConfig(nbest=5)
    nb_c = pipeline.decode_dir(tmp_path / "char", lang.char_set, None, None,
                               beam)
    nb_s = pipeline.decode_dir(tmp_path / "syll", lang.syll_set, None, None,
                               beam)
    keywords = pipeline.build_keywords(corpus.keywords, lang.char_set,
                                       lang.lexicon, lang.syll_set)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pipeline.run_kws(tmp_path, nb_c, nb_s, keywords, lang.char_set,
                                lang.syll_set, lang.lexicon, CostTable(),
                                KwsConfig())
    finally:
        tracer.uninstall()
    layers = tracer.layers()
    for name in ("kws.detect", "kws.match_exact", "kws.match_fuzzy",
                 "phonetics.phrase_distance", "kws.score_ctc"):
        assert name in layers and layers[name]["calls"] >= 1, name
