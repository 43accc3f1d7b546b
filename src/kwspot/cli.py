"""Command-line surface: synth, lm-train, decode, kws, eval, ablate.

Exit codes: 0 success, 1 scoring/domain errors, 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .config import PipelineConfig, load_config
from .corpus import confusion_tables, make_language
from .decoder import build_bias_trie
from .errors import KwspotError, read_text
from .kws import write_hits, read_hits
from .lm import read_arpa, train, write_arpa
from .metrics import load_refs, write_refs
from .phonetics import CostTable, load_cost_table
from .units import (UnitKind, load_lexicon, load_unit_set, read_tsv,
                    syllabify)


def _load_cfg(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "jobs", None) is not None:
        cfg.jobs = args.jobs
    if cfg.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {cfg.jobs}")
    return cfg


def _load_resources(cfg: PipelineConfig):
    char_set = load_unit_set(cfg.paths.char_units, set_id="char",
                             kind=UnitKind.CHARACTER)
    syll_set = load_unit_set(cfg.paths.syll_units, set_id="syll",
                             kind=UnitKind.SYLLABLE)
    lexicon = load_lexicon(cfg.paths.lexicon)
    costs = load_cost_table(cfg.paths.cost_table) if cfg.paths.cost_table \
        else CostTable()
    return char_set, syll_set, lexicon, costs


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    char_set, syll_set, lexicon, _ = _load_resources(cfg)
    keywords = pipeline.load_id_text(cfg.paths.keywords)
    transcripts = pipeline.load_id_text(args.transcripts)
    char_conf = syll_conf = None
    if args.confusion:
        # the built-in tables are keyed by the toy language's unit ids
        lang = make_language()
        for ours, toy in ((char_set, lang.char_set), (syll_set, lang.syll_set)):
            if ours.units != toy.units:
                raise ValueError(f"synth --confusion: the {ours.id} unit "
                                 f"list differs from the {toy.id} units "
                                 f"the confusion tables are keyed by")
        char_conf, syll_conf = confusion_tables(lang)
    refs, skipped = pipeline.synth_corpus(
        transcripts, keywords, char_set, syll_set, lexicon, cfg.synth,
        args.out_dir, cfg.seed, cfg.frame_period_s,
        char_confusion=char_conf, syll_confusion=syll_conf)
    write_refs(refs, Path(args.out_dir) / "refs.tsv")
    for utt_id, reason in skipped:
        print(f"skipped {utt_id}: {reason}", file=sys.stderr)
    if skipped:
        print(f"{len(skipped)} utterance(s) skipped", file=sys.stderr)
        return 1
    return 0


def cmd_lm_train(args) -> int:
    cfg = _load_cfg(args)
    lines = [ln for ln in read_text(args.corpus, ValueError).split("\n")
             if ln.strip()]
    if args.unit == "syllable":
        _, syll_set, lexicon, _ = _load_resources(cfg)
        tokenized = [[syll_set.units[i] for i in
                      syllabify(ln, lexicon, syll_set)] for ln in lines]
        lm = train(tokenized, order=args.order, discount=args.discount)
    else:
        lm = train(lines, order=args.order, discount=args.discount)
    write_arpa(lm, args.out)
    return 0


def cmd_decode(args) -> int:
    cfg = _load_cfg(args)
    char_set, syll_set, lexicon, _ = _load_resources(cfg)
    if args.stage == "char":
        us, lm_path = char_set, cfg.paths.char_lm
    else:
        us, lm_path = syll_set, cfg.paths.syll_lm
    lm = read_arpa(lm_path) if lm_path else None
    trie = None
    if cfg.paths.keywords:
        entries = pipeline.load_id_text(cfg.paths.keywords)
        kws = pipeline.build_keywords(entries, char_set, lexicon, syll_set)
        seqs = [list(k.char_units if args.stage == "char" else k.syll_units)
                for k in kws]
        trie = build_bias_trie(seqs, lm, cfg.bias, unit_names=us.units)
    nbest = pipeline.decode_dir(args.pgram_dir, us, lm, trie, cfg.beam,
                                jobs=cfg.jobs)
    pipeline.write_nbest(nbest, args.out)
    return 0


def cmd_kws(args) -> int:
    cfg = _load_cfg(args)
    char_set, syll_set, lexicon, costs = _load_resources(cfg)
    entries = pipeline.load_id_text(cfg.paths.keywords)
    keywords = pipeline.build_keywords(entries, char_set, lexicon, syll_set)
    nbest_char = pipeline.read_nbest(args.nbest_char)
    nbest_syll = pipeline.read_nbest(args.nbest_syll) if args.nbest_syll else None
    hits = pipeline.run_kws(args.pgram_dir, nbest_char, nbest_syll, keywords,
                            char_set, syll_set, lexicon, costs, cfg.kws)
    write_hits(hits, args.out)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    hits = read_hits(args.hits)
    refs = load_refs(args.refs)
    total_s = args.total_speech_s
    if total_s is None:
        total_s = pipeline.total_speech_seconds(Path(args.pgram_dir) / "char")
    report = pipeline.evaluate(hits, refs,
                               replace(cfg.eval, total_speech_s=total_s))
    _dump_json(report, args.out)
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_cfg(args)
    char_set, syll_set, lexicon, costs = _load_resources(cfg)
    entries = pipeline.load_id_text(cfg.paths.keywords)
    keywords = pipeline.build_keywords(entries, char_set, lexicon, syll_set)
    refs = load_refs(args.refs)
    subsets = None
    if args.rare_keywords:
        known = {kid for kid, _ in entries}

        def rare_id(fields):
            if fields[0] not in known:
                raise ValueError(f"keyword id {fields[0]!r} is not in the "
                                 f"keyword list")
            return fields[0]

        rare_ids = set(read_tsv(args.rare_keywords, 1, rare_id))
        subsets = {"rare": [r for r in refs if r.kw_id in rare_ids]}
    char_lm = read_arpa(cfg.paths.char_lm)
    syll_lm = read_arpa(cfg.paths.syll_lm)
    ecfg = replace(cfg.eval, total_speech_s=pipeline.total_speech_seconds(
        Path(args.pgram_dir) / "char"))
    report = pipeline.run_ablation(args.pgram_dir, refs, keywords, char_set,
                                   syll_set, lexicon, char_lm, syll_lm, costs,
                                   cfg.beam, cfg.bias, cfg.kws, ecfg,
                                   jobs=cfg.jobs, ref_subsets=subsets)
    _dump_json(report, args.out)
    return 0


def _dump_json(obj, path) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kwspot",
                                description="keyword spotting pipeline")
    p.add_argument("--config", help="pipeline config file (INI-style)")
    p.add_argument("--seed", type=int, help="override run seed")
    p.add_argument("--jobs", type=int, help="utterance-level parallelism")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="synthesize posteriorgrams + references")
    s.add_argument("transcripts")
    s.add_argument("out_dir")
    s.add_argument("--confusion", action="store_true",
                   help="enable the built-in confusable-unit tables")
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("lm-train", help="train a backoff n-gram LM to ARPA")
    s.add_argument("corpus")
    s.add_argument("out")
    s.add_argument("--order", type=int, default=4)
    s.add_argument("--discount", type=float, default=0.75)
    s.add_argument("--unit", choices=["char", "syllable"], default="char")
    s.set_defaults(func=cmd_lm_train)

    s = sub.add_parser("decode", help="prefix beam search over a pgram dir")
    s.add_argument("pgram_dir")
    s.add_argument("out")
    s.add_argument("--stage", choices=["char", "syll"], default="char")
    s.set_defaults(func=cmd_decode)

    s = sub.add_parser("kws", help="match + score keywords over N-best lists")
    s.add_argument("pgram_dir")
    s.add_argument("out")
    s.add_argument("--nbest-char", required=True)
    s.add_argument("--nbest-syll", help="the syllable stage runs only on it")
    s.set_defaults(func=cmd_kws)

    s = sub.add_parser("eval", help="score a hit list against references")
    s.add_argument("hits")
    s.add_argument("refs")
    s.add_argument("--out")
    speech = s.add_mutually_exclusive_group(required=True)
    speech.add_argument("--total-speech-s", type=float)
    speech.add_argument("--pgram-dir")
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("ablate", help="run the method ladder and report")
    s.add_argument("pgram_dir")
    s.add_argument("refs")
    s.add_argument("--out")
    s.add_argument("--rare-keywords",
                   help="file of keyword ids; report also carries recall "
                        "restricted to those keywords' references")
    s.set_defaults(func=cmd_ablate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KwspotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
