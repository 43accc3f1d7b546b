import json
import shutil

import pytest

from kwspot.cli import main
from kwspot.decoder import BeamConfig
from kwspot.pipeline import decode_dir, write_nbest
from kwspot.units import load_unit_set


@pytest.fixture(scope="module")
def demo(demo_writer, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "demo"
    demo_writer(out, num_utts=10, num_keywords=8, noise=0.0, seed=1)
    return out


@pytest.fixture(scope="module")
def trained(demo, tmp_path_factory):
    """The demo's posteriorgram directory, with its char and syllable LMs
    written where the demo config expects them."""
    cfg = str(demo / "config.ini")
    pg = tmp_path_factory.mktemp("trained") / "pg"
    assert main(["--config", cfg, "synth", str(demo / "transcripts.tsv"),
                 str(pg)]) == 0
    assert main(["--config", cfg, "lm-train", str(demo / "lm_corpus.txt"),
                 str(demo / "char.arpa")]) == 0
    assert main(["--config", cfg, "lm-train", str(demo / "lm_corpus.txt"),
                 str(demo / "syll.arpa"), "--unit", "syllable"]) == 0
    return pg


@pytest.fixture(scope="module")
def char_nbest(demo, trained, tmp_path_factory):
    """The char N-best of the trained demo, decoded with its config."""
    out = tmp_path_factory.mktemp("nbest") / "char.jsonl"
    assert main(["--config", str(demo / "config.ini"), "decode",
                 str(trained / "char"), str(out)]) == 0
    return out


class TestExitCodes:
    def test_missing_input_file(self, demo, tmp_path):
        rc = main(["--config", str(demo / "config.ini"), "synth",
                   str(demo / "missing.tsv"), str(tmp_path / "pg")])
        assert rc == 2

    def test_bad_config_key(self, demo, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[beam]\nwidth = 3\n", encoding="utf-8")
        rc = main(["--config", str(bad), "synth",
                   str(demo / "transcripts.tsv"), str(tmp_path / "pg")])
        assert rc == 2

    def test_malformed_arpa_is_domain_error(self, demo, tmp_path):
        bad = tmp_path / "bad.arpa"
        bad.write_text("\\data\\\nngram 1=1\n\n\\2-grams:\n-1\ta b\n\n"
                       "\\end\\\n", encoding="utf-8")
        cfg = tmp_path / "config.ini"
        cfg.write_text((demo / "config.ini").read_text(encoding="utf-8").replace(
            str(demo / "char.arpa"), str(bad)), encoding="utf-8")
        rc = main(["--config", str(cfg), "decode", str(tmp_path / "pg"),
                   str(tmp_path / "nbest.jsonl")])
        assert rc == 1

    @pytest.mark.parametrize("broken", ["hits", "refs"])
    def test_malformed_hits_or_refs_is_domain_error(self, tmp_path, broken):
        files = {"hits": "u1\tk1\t0.5\t1.0\t-1.0\t1\tchar\t12\t25\n",
                 "refs": "u1\tk1\t0.5\t1.0\n"}
        files[broken] = files[broken].replace("\t1.0", "")
        for name, text in files.items():
            (tmp_path / f"{name}.tsv").write_text(text, encoding="utf-8")
        rc = main(["eval", str(tmp_path / "hits.tsv"),
                   str(tmp_path / "refs.tsv"), "--total-speech-s", "10"])
        assert rc == 1

    @pytest.mark.parametrize("broken, line", [
        ("hits", "u1\tk1\t0.5\t1.0\tnan\t1\tchar\t12\t25\n"),
        ("hits", "u1\tk1\t0.5\tinf\t-1.0\t1\tchar\t12\t25\n"),
        ("hits", "u1\tk1\t-inf\t1.0\t-1.0\t1\tchar\t12\t25\n"),
        ("hits", "u1\tk1\t1.0\t0.5\t-1.0\t1\tchar\t12\t25\n"),
        ("hits", "u1\tk1\t0.5\t0.5\t-1.0\t1\tchar\t12\t25\n"),
        ("refs", "u1\tk1\t0.5\tinf\n"),
        ("refs", "u1\tk1\t-inf\t1.0\n")],
        ids=["nan-score", "inf-end", "inf-start", "reversed", "empty",
             "ref-inf-end", "ref-inf-start"])
    def test_non_finite_or_reversed_times_are_domain_errors(
            self, tmp_path, capsys, broken, line):
        files = {"hits": "u1\tk1\t0.5\t1.0\t-1.0\t1\tchar\t12\t25\n",
                 "refs": "u1\tk1\t0.5\t1.0\n", broken: line}
        for name, text in files.items():
            (tmp_path / f"{name}.tsv").write_text(text, encoding="utf-8")
        rc = main(["eval", str(tmp_path / "hits.tsv"),
                   str(tmp_path / "refs.tsv"), "--total-speech-s", "10",
                   "--out", str(tmp_path / "report.json")])
        assert rc == 1
        assert f"{broken}.tsv:1:" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_char_unit_without_lexicon_entry(self, demo, tmp_path, capsys):
        cfg = demo / "config.ini"
        pg = tmp_path / "pg"
        assert main(["--config", str(cfg), "synth",
                     str(demo / "transcripts.tsv"), str(pg)]) == 0
        nbest = tmp_path / "char.jsonl"
        char_set = load_unit_set(demo / "char_units.txt", set_id="char")
        write_nbest(decode_dir(pg / "char", char_set, None, None, BeamConfig()),
                    nbest)
        # drop the lexicon line of a char unit that is in no keyword
        keywords = (demo / "keywords.tsv").read_text(encoding="utf-8")
        lines = (demo / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
        drop = next(ln for ln in lines if ln[0] not in keywords)
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("".join(ln + "\n" for ln in lines if ln != drop),
                           encoding="utf-8")
        bad = tmp_path / "config.ini"
        bad.write_text(cfg.read_text(encoding="utf-8").replace(
            str(demo / "lexicon.tsv"), str(lexicon)), encoding="utf-8")
        rc = main(["--config", str(bad), "kws", str(pg),
                   str(tmp_path / "hits.tsv"), "--nbest-char", str(nbest)])
        assert rc == 1
        assert repr(drop[0]) in capsys.readouterr().err

    def test_kws_over_posteriorgrams_of_other_units(self, demo, trained,
                                                    char_nbest, tmp_path,
                                                    capsys):
        # a char directory holding the syllable posteriorgrams
        pg = tmp_path / "pg"
        shutil.copytree(trained, pg)
        utt = sorted((pg / "char").glob("*.pgram"))[0]
        shutil.copy(pg / "syll" / utt.name, utt)
        out = tmp_path / "hits.tsv"
        rc = main(["--config", str(demo / "config.ini"), "kws", str(pg),
                   str(out), "--nbest-char", str(char_nbest)])
        assert rc == 1
        assert f"utterance {utt.stem!r}: posteriorgram units" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_nbest_score_names_its_line(self, demo, trained,
                                                    char_nbest, tmp_path,
                                                    capsys):
        lines = char_nbest.read_text(encoding="utf-8").splitlines()
        obj = json.loads(lines[1])
        obj["hyps"][0].update(score_am=float("nan"), score_lm=float("inf"),
                              score_total=float("-inf"))
        lines[1] = json.dumps(obj, ensure_ascii=False)
        assert "NaN" in lines[1] and "-Infinity" in lines[1]
        nbest = tmp_path / "char.jsonl"
        nbest.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
        out = tmp_path / "hits.tsv"
        rc = main(["--config", str(demo / "config.ini"), "kws", str(trained),
                   str(out), "--nbest-char", str(nbest)])
        assert rc == 1
        assert "char.jsonl:2: bad N-best line" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_primary_pronunciation_names_lexicon_line(
            self, demo, tmp_path, capsys):
        lines = (demo / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
        char, prons = lines[2].split("\t")
        lines[2] = f"{char}\t{prons.split()[0][:-1]}"  # tone digit dropped
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
        cfg = demo / "config.ini"
        bad = tmp_path / "config.ini"
        bad.write_text(cfg.read_text(encoding="utf-8").replace(
            str(demo / "lexicon.tsv"), str(lexicon)), encoding="utf-8")
        rc = main(["--config", str(bad), "kws", str(tmp_path / "pg"),
                   str(tmp_path / "hits.tsv"), "--nbest-char",
                   str(tmp_path / "char.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"lexicon.tsv:3: primary pronunciation of {char!r}" in err

    @pytest.mark.parametrize("reader, code", [
        ("char_units", 1), ("cost_table", 2), ("config", 2), ("corpus", 2)])
    def test_non_utf8_input_names_its_file(self, demo, tmp_path, capsys,
                                           reader, code):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\n")
        text = (demo / "config.ini").read_text(encoding="utf-8")
        if reader == "char_units":
            text = text.replace(str(demo / "char_units.txt"), str(bad))
        elif reader == "cost_table":
            text = text.replace("[paths]\n", f"[paths]\ncost_table = {bad}\n")
        cfg = tmp_path / "config.ini"
        cfg.write_text(text, encoding="utf-8")
        corpus = bad if reader == "corpus" else demo / "lm_corpus.txt"
        rc = main(["--config", str(bad if reader == "config" else cfg),
                   "lm-train", str(corpus), str(tmp_path / "lm.arpa"),
                   "--unit", "syllable"])
        assert rc == code
        assert f"error: {bad}: not UTF-8" in capsys.readouterr().err

    def test_empty_lm_corpus_is_domain_error(self, demo, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        rc = main(["--config", str(demo / "config.ini"), "lm-train",
                   str(empty), str(tmp_path / "lm.arpa")])
        assert rc == 1

    def test_synth_reports_skipped_utterances(self, demo, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        good = (demo / "transcripts.tsv").read_text(encoding="utf-8")
        bad.write_text(good + "ux\t???\n", encoding="utf-8")
        rc = main(["--config", str(demo / "config.ini"), "synth",
                   str(bad), str(tmp_path / "pg")])
        assert rc == 1
        assert "skipped ux" in capsys.readouterr().err

    def test_synth_out_of_vocabulary_keyword(self, demo, tmp_path, capsys):
        keywords = tmp_path / "keywords.tsv"
        keywords.write_text((demo / "keywords.tsv").read_text(encoding="utf-8")
                            + "kx\t?\n", encoding="utf-8")
        cfg = demo / "config.ini"
        bad = tmp_path / "config.ini"
        bad.write_text(cfg.read_text(encoding="utf-8").replace(
            str(demo / "keywords.tsv"), str(keywords)), encoding="utf-8")
        rc = main(["--config", str(bad), "synth",
                   str(demo / "transcripts.tsv"), str(tmp_path / "pg")])
        assert rc == 1
        assert repr("?") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "kws"])
    def test_repeated_id_names_line(self, demo, trained, tmp_path, capsys,
                                    command):
        cfg = demo / "config.ini"
        if command == "synth":
            listed = tmp_path / "transcripts.tsv"
            text = (demo / "transcripts.tsv").read_text(encoding="utf-8")
            args = ["synth", str(listed), str(tmp_path / "pg")]
        else:
            listed = tmp_path / "keywords.tsv"
            text = (demo / "keywords.tsv").read_text(encoding="utf-8")
            cfg = tmp_path / "config.ini"
            cfg.write_text((demo / "config.ini").read_text(encoding="utf-8")
                           .replace(str(demo / "keywords.tsv"), str(listed)),
                           encoding="utf-8")
            nbest = tmp_path / "char.jsonl"
            write_nbest({}, nbest)
            args = ["kws", str(trained), str(tmp_path / "hits.tsv"),
                    "--nbest-char", str(nbest)]
        lines = text.splitlines(keepends=True)
        first_id = lines[0].split("\t")[0]
        listed.write_text(text + lines[0], encoding="utf-8")
        rc = main(["--config", str(cfg), *args])
        assert rc == 1
        assert (f"{listed}:{len(lines) + 1}: id {first_id!r} repeated"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("line", ["[beam]\nlm_weight = nan",
                                      "[bias]\nalpha = inf",
                                      "[kws]\nfuzzy_threshold = nan"])
    def test_non_finite_config_value(self, demo, trained, tmp_path, capsys,
                                     line):
        cfg = tmp_path / "config.ini"
        cfg.write_text((demo / "config.ini").read_text(encoding="utf-8")
                       + line + "\n", encoding="utf-8")
        out = tmp_path / "nbest.jsonl"
        rc = main(["--config", str(cfg), "decode", str(trained / "char"),
                   str(out)])
        assert rc == 2
        assert line.split("\n")[1].split(" =")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["[beam]\nbias_enabled = false",
                                      "[kws]\nnbest_matching = false",
                                      "[kws]\nstages_enabled = char fuzzy"],
                             ids=["bias_enabled", "nbest_matching",
                                  "stages_enabled"])
    def test_removed_switch_is_unknown_key(self, demo, trained, tmp_path,
                                           capsys, line):
        # unbiased decoding is alpha = beta = 0 or no keyword list, matching
        # the top hypothesis only is decoding with nbest = 1, and each kws
        # stage runs from its input (a syllable N-best, a fuzzy threshold > 0)
        cfg = tmp_path / "config.ini"
        cfg.write_text((demo / "config.ini").read_text(encoding="utf-8")
                       + line + "\n", encoding="utf-8")
        out = tmp_path / "nbest.jsonl"
        rc = main(["--config", str(cfg), "decode", str(trained / "char"),
                   str(out)])
        assert rc == 2
        assert line.split("\n")[1].split(" =")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["fuzzy_threshold = inf",
                                      "fuzzy_threshold = -1",
                                      "decision_threshold = inf"])
    def test_kws_threshold_out_of_range(self, demo, trained, char_nbest,
                                        tmp_path, capsys, line):
        cfg = tmp_path / "config.ini"
        cfg.write_text((demo / "config.ini").read_text(encoding="utf-8")
                       + f"[kws]\n{line}\n", encoding="utf-8")
        out = tmp_path / "hits.tsv"
        rc = main(["--config", str(cfg), "kws", str(trained), str(out),
                   "--nbest-char", str(char_nbest)])
        assert rc == 2
        assert line.split(" =")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_cost_table_value_out_of_range(self, demo, trained, char_nbest,
                                           tmp_path, capsys):
        costs = tmp_path / "costs.txt"
        costs.write_text("[costs]\ntone_cost = 0.2\nindel_cost = -1\n",
                         encoding="utf-8")
        cfg = tmp_path / "config.ini"
        cfg.write_text((demo / "config.ini").read_text(encoding="utf-8")
                       .replace("[paths]\n", f"[paths]\ncost_table = {costs}\n"),
                       encoding="utf-8")
        out = tmp_path / "hits.tsv"
        rc = main(["--config", str(cfg), "kws", str(trained), str(out),
                   "--nbest-char", str(char_nbest)])
        assert rc == 2
        assert f"{costs}:3:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, config, flag", [
        ("atwv_beta", "[eval]\natwv_beta = inf\n", "1.0"),
        ("min_overlap_fraction", "[eval]\nmin_overlap_fraction = 2\n", "1.0"),
        ("total_speech_s", "", "nan"),
        ("total_speech_s", "", "inf"),
    ])
    def test_eval_setting_out_of_range(self, demo, trained, tmp_path, capsys,
                                       field, config, flag):
        cfg = tmp_path / "config.ini"
        cfg.write_text((demo / "config.ini").read_text(encoding="utf-8")
                       + config, encoding="utf-8")
        hits = tmp_path / "hits.tsv"
        hits.write_text("", encoding="utf-8")
        out = tmp_path / "report.json"
        rc = main(["--config", str(cfg), "eval", str(hits),
                   str(trained / "refs.tsv"), "--total-speech-s", flag,
                   "--out", str(out)])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-0.04", "inf"])
    def test_frame_period_not_positive(self, demo, tmp_path, capsys, value):
        cfg = tmp_path / "config.ini"
        cfg.write_text((demo / "config.ini").read_text(encoding="utf-8")
                       .replace("[run]\n", f"[run]\nframe_period_s = {value}\n"),
                       encoding="utf-8")
        pg = tmp_path / "pg"
        rc = main(["--config", str(cfg), "synth",
                   str(demo / "transcripts.tsv"), str(pg)])
        assert rc == 2
        assert "[run] frame_period_s" in capsys.readouterr().err
        assert not pg.exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_jobs_below_one(self, demo, trained, tmp_path, capsys, how):
        cfg = demo / "config.ini"
        args = ["--config", str(cfg), "--jobs", "-5"]
        if how == "config":
            args = ["--config", str(tmp_path / "config.ini")]
            (tmp_path / "config.ini").write_text(
                cfg.read_text(encoding="utf-8").replace(
                    "[run]\n", "[run]\njobs = 0\n"), encoding="utf-8")
        out = tmp_path / "nbest.jsonl"
        rc = main([*args, "decode", str(trained / "char"), str(out)])
        assert rc == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "lm-train", "kws", "eval"])
    def test_jobs_below_one_in_every_subcommand(self, demo, trained,
                                                char_nbest, tmp_path, capsys,
                                                command):
        (tmp_path / "hits.tsv").write_text("", encoding="utf-8")
        out = tmp_path / "out"
        args = {"synth": [demo / "transcripts.tsv", out],
                "lm-train": [demo / "lm_corpus.txt", out],
                "kws": [trained, out, "--nbest-char", char_nbest],
                "eval": [tmp_path / "hits.tsv", trained / "refs.tsv",
                         "--total-speech-s", "10", "--out", out]}[command]
        rc = main(["--config", str(demo / "config.ini"), "--jobs", "0",
                   command, *map(str, args)])
        assert rc == 2
        assert "jobs must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, jobs",
                             [("decode", 1), ("decode", 2), ("ablate", 2)])
    def test_emptied_beam_names_utterance(self, demo, trained, tmp_path,
                                          capsys, command, jobs):
        # no unit is above a threshold of 0, so every beam empties at frame
        # 0, and the error is the first utterance's at every --jobs
        cfg = tmp_path / "config.ini"
        cfg.write_text((demo / "config.ini").read_text(encoding="utf-8")
                       + "[beam]\ntoken_min_logp = 0\n", encoding="utf-8")
        out = tmp_path / "out"
        args = {"decode": [trained / "char", out],
                "ablate": [trained, trained / "refs.tsv", "--out", out]}
        rc = main(["--config", str(cfg), "--jobs", str(jobs), command,
                   *map(str, args[command])])
        assert rc == 1
        err = capsys.readouterr().err
        first = min(p.stem for p in (trained / "char").glob("*.pgram"))
        assert f"utterance {first!r}" in err and "at frame 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("units", ["char", "syll"])
    def test_confusion_needs_toy_units(self, demo, tmp_path, capsys, units):
        # the same units in another order get other ids
        lines = (demo / f"{units}_units.txt").read_text(
            encoding="utf-8").splitlines()
        shuffled = tmp_path / f"{units}_units.txt"
        shuffled.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n",
                            encoding="utf-8")
        cfg = tmp_path / "config.ini"
        cfg.write_text((demo / "config.ini").read_text(encoding="utf-8")
                       .replace(str(demo / f"{units}_units.txt"),
                                str(shuffled)), encoding="utf-8")
        pg = tmp_path / "pg"
        rc = main(["--config", str(cfg), "synth",
                   str(demo / "transcripts.tsv"), str(pg), "--confusion"])
        assert rc == 2
        assert f"the {units} unit list differs" in capsys.readouterr().err
        assert not pg.exists()
        # without the tables the same units are fine
        assert main(["--config", str(cfg), "synth",
                     str(demo / "transcripts.tsv"), str(pg)]) == 0

    def test_eval_needs_speech_duration(self, demo, tmp_path):
        hits = tmp_path / "hits.tsv"
        hits.write_text("", encoding="utf-8")
        refs = tmp_path / "refs.tsv"
        refs.write_text("", encoding="utf-8")
        # a usage error: argparse exits 2
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(hits), str(refs)])
        assert exc.value.code == 2

    def test_eval_speech_duration_given_twice(self, trained, tmp_path,
                                              capsys):
        hits = tmp_path / "hits.tsv"
        hits.write_text("", encoding="utf-8")
        out = tmp_path / "eval.json"
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(hits), str(trained / "refs.tsv"),
                  "--total-speech-s", "10", "--pgram-dir", str(trained),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("make_dir", [False, True])
    def test_decode_without_pgram_files_names_directory(
            self, demo, trained, tmp_path, capsys, make_dir):
        pgx = tmp_path / "chr"  # a mistyped stage directory
        if make_dir:
            pgx.mkdir()
        out = tmp_path / "nbest.jsonl"
        rc = main(["--config", str(demo / "config.ini"), "decode", str(pgx),
                   str(out)])
        assert rc == 2
        assert str(pgx) in capsys.readouterr().err
        assert not out.exists()

    def test_eval_without_pgram_files_names_directory(self, trained, tmp_path,
                                                      capsys):
        hits = tmp_path / "hits.tsv"
        hits.write_text("", encoding="utf-8")
        rc = main(["eval", str(hits), str(trained / "refs.tsv"),
                   "--pgram-dir", str(tmp_path / "pgx")])
        assert rc == 2
        assert str(tmp_path / "pgx" / "char") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    def test_truncated_char_pgram_names_its_file(self, demo, trained,
                                                 tmp_path, capsys, command):
        """eval reads only the headers of char/, and a file shorter than its
        header says is still a domain error that names the file."""
        pg = tmp_path / "pg"
        shutil.copytree(trained, pg)
        bad = sorted((pg / "char").glob("*.pgram"))[0]
        bad.write_bytes(bad.read_bytes()[:-4])
        hits = tmp_path / "hits.tsv"
        hits.write_text("", encoding="utf-8")
        out = tmp_path / "out.json"
        args = {"eval": [hits, pg / "refs.tsv", "--pgram-dir", pg],
                "ablate": [pg, pg / "refs.tsv"]}[command]
        rc = main(["--config", str(demo / "config.ini"), command,
                   *map(str, args), "--out", str(out)])
        assert rc == 1
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_ablate_rare_keyword_outside_keyword_list(self, demo, trained,
                                                      tmp_path, capsys):
        rare = tmp_path / "rare.txt"
        rare.write_text("# withheld from the LM text\nkw000\nkw999\n",
                        encoding="utf-8")
        rc = main(["--config", str(demo / "config.ini"), "ablate",
                   str(trained), str(trained / "refs.tsv"),
                   "--out", str(tmp_path / "report.json"),
                   "--rare-keywords", str(rare)])
        assert rc == 1
        err = capsys.readouterr().err
        assert (f"{rare}:3: keyword id 'kw999' is not in the keyword list"
                in err)


class TestUnbiasedDecode:
    @pytest.mark.parametrize("stage", ["char", "syll"])
    def test_zero_weights_equal_no_keyword_list(self, demo, trained, tmp_path,
                                                stage):
        text = (demo / "config.ini").read_text(encoding="utf-8")
        keywords_line = f"keywords = {demo / 'keywords.tsv'}\n"
        assert keywords_line in text
        configs = {"biased": text,
                   "zero_weights": text + "[bias]\nalpha = 0\nbeta = 0\n",
                   "no_keywords": text.replace(keywords_line, "")}
        nbest = {}
        for name, config in configs.items():
            (tmp_path / f"{name}.ini").write_text(config, encoding="utf-8")
            out = tmp_path / f"{name}.jsonl"
            assert main(["--config", str(tmp_path / f"{name}.ini"), "decode",
                         str(trained / stage), str(out),
                         "--stage", stage]) == 0
            nbest[name] = out.read_bytes()
        assert nbest["zero_weights"] == nbest["no_keywords"]
        assert nbest["biased"] != nbest["no_keywords"]


class TestFullChain:
    def test_synth_to_eval(self, demo, tmp_path):
        cfg = str(demo / "config.ini")
        pg = str(tmp_path / "pg")
        assert main(["--config", cfg, "synth",
                     str(demo / "transcripts.tsv"), pg]) == 0
        assert main(["--config", cfg, "lm-train", str(demo / "lm_corpus.txt"),
                     str(demo / "char.arpa")]) == 0
        assert main(["--config", cfg, "lm-train", str(demo / "lm_corpus.txt"),
                     str(demo / "syll.arpa"), "--unit", "syllable"]) == 0
        nb_c = str(tmp_path / "char.jsonl")
        nb_s = str(tmp_path / "syll.jsonl")
        assert main(["--config", cfg, "decode", f"{pg}/char", nb_c]) == 0
        assert main(["--config", cfg, "decode", f"{pg}/syll", nb_s,
                     "--stage", "syll"]) == 0
        hits = str(tmp_path / "hits.tsv")
        assert main(["--config", cfg, "kws", pg, hits,
                     "--nbest-char", nb_c, "--nbest-syll", nb_s]) == 0
        report_path = tmp_path / "report.json"
        assert main(["--config", cfg, "eval", hits, f"{pg}/refs.tsv",
                     "--pgram-dir", pg, "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        # noiseless corpus: the default pipeline finds every occurrence
        assert report["f1"] == 1.0
        assert report["atwv"] == 1.0
