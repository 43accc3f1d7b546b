"""Batch operations tying the modules into a runnable pipeline.

Each step is deterministic given config + inputs: synthesis derives a
per-utterance seed from the run seed, decoding is seed-free, and all outputs
are ordered by utterance id so parallel runs produce identical files.

A run reads each posteriorgram directory once (``load_pgrams``) and decodes
through one call of ``_decode_all``, which at ``jobs > 1`` opens one Pool
for all of its decodes.  Keyword search matches and scores once per char
decode (``_run_kws``) and makes hits with ``kws.decide``: ``run_kws``
decides its one round, and ``run_ablation`` decides each ladder row from a
filter of its decode's candidates, so its four decodes and three kws
rounds share one read of each posteriorgram and one set of fuzzy costs.
"""

from __future__ import annotations

import json
import math
import multiprocessing
from dataclasses import asdict, replace
from pathlib import Path

from . import kws as kws_mod
from .decoder import (BeamConfig, BiasConfig, KeywordTrie, NBestEntry,
                      build_bias_trie, prefix_beam_search)
from .errors import BadFormat, OutOfVocabulary, UnitSetMismatch
from .kws import FuzzyCosts, Hit, Keyword, KwsConfig, Stage, decide, detect
from .lm import NGramLM
from .metrics import EvalConfig, RefOccurrence, align_hits, atwv, f1
from .pgram import (Posteriorgram, SynthConfig, read_pgram, read_pgram_header,
                    synth_generate, token_layout, write_pgram)
from .phonetics import CostTable
from .units import (Lexicon, UnitSet, find_all, read_tsv, syllabify,
                    tokenize_chars)


def load_id_text(path) -> list[tuple[str, str]]:
    """``id<TAB>text`` lines (transcripts, keyword lists), each id once."""
    seen = set()

    def entry(fields):
        if fields[0] in seen:
            raise ValueError(f"id {fields[0]!r} repeated")
        seen.add(fields[0])
        return tuple(fields)
    return list(read_tsv(path, 2, entry))


def build_keywords(entries, char_set: UnitSet, lexicon: Lexicon,
                   syll_set: UnitSet) -> list[Keyword]:
    return [Keyword(id=kid, text=text,
                    char_units=tuple(tokenize_chars(text, char_set)),
                    syll_units=tuple(syllabify(text, lexicon, syll_set)))
            for kid, text in entries]


def utt_seed(base_seed: int, index: int) -> int:
    return (base_seed * 1_000_003 + index) & 0x7FFFFFFF


def synth_corpus(transcripts, keywords, char_set, syll_set, lexicon,
                 synth_cfg: SynthConfig, out_dir, seed: int,
                 frame_period_s: float,
                 char_confusion=None, syll_confusion=None):
    """Generate char+syllable posteriorgrams and the reference TSV.

    Returns (refs, skipped_utts).  A reference is an occurrence of a keyword's
    char units in an utterance's char tokens (both without whitespace), timed
    by the generator's frame layout; a keyword out of vocabulary raises.
    """
    keywords = build_keywords(keywords, char_set, lexicon, syll_set)
    out_dir = Path(out_dir)
    (out_dir / "char").mkdir(parents=True, exist_ok=True)
    (out_dir / "syll").mkdir(parents=True, exist_ok=True)
    refs: list[RefOccurrence] = []
    skipped = []
    for idx, (utt_id, text) in enumerate(transcripts):
        try:
            tr_c = tokenize_chars(text, char_set)
            tr_s = syllabify(text, lexicon, syll_set)
        except OutOfVocabulary as exc:
            skipped.append((utt_id, str(exc)))
            continue
        s = utt_seed(seed, idx)
        cfg_c = replace(synth_cfg, seed=s, confusion=char_confusion)
        cfg_s = replace(synth_cfg, seed=s + 1, confusion=syll_confusion)
        pg_c = synth_generate(tr_c, char_set, cfg_c, utt_id=utt_id,
                              frame_period_s=frame_period_s)
        pg_s = synth_generate(tr_s, syll_set, cfg_s, utt_id=utt_id,
                              frame_period_s=frame_period_s)
        write_pgram(pg_c, out_dir / "char" / f"{utt_id}.pgram")
        write_pgram(pg_s, out_dir / "syll" / f"{utt_id}.pgram")
        layout = token_layout(tr_c, synth_cfg)
        for kw in keywords:
            n = len(kw.char_units)
            for i in find_all(tr_c, list(kw.char_units)):
                refs.append(RefOccurrence(utt_id, kw.id,
                                          layout[i][0] * frame_period_s,
                                          layout[i + n - 1][1] * frame_period_s))
    refs.sort(key=lambda r: (r.utt_id, r.kw_id, r.start_s))
    return refs, skipped


def load_pgrams(pgram_dir) -> dict[str, Posteriorgram]:
    """The posteriorgrams of a directory by utterance id, read in sorted path
    order; see ``_read_dir``."""
    # read_pgram is looked up at call time, so a wrapper of it applies
    return {pg.utt_id: pg for pg in _read_dir(pgram_dir, read_pgram)}


def _read_dir(pgram_dir, read):
    """read(path) of each posteriorgram of a directory, in sorted path order.
    Each file is named ``<utt_id>.pgram``; a missing directory, or one
    without such a file, is an error rather than an empty result."""
    paths = sorted(Path(pgram_dir).glob("*.pgram"))
    if not paths:
        raise FileNotFoundError(f"{pgram_dir}: no .pgram file (missing or "
                                f"empty posteriorgram directory)")
    for path in paths:
        item = read(path)
        if item.utt_id != path.stem:
            raise BadFormat(f"{path}: utterance id {item.utt_id!r} differs "
                            f"from the file name")
        yield item


# The decodes a Pool worker runs, keyed by name; set once per worker by
# _init_worker, so a task carries only its (name, utterance id) pair
_worker_decodes: dict = {}


def _init_worker(decodes) -> None:
    _worker_decodes.update(decodes)


def _decode_one(task, decodes=_worker_decodes) -> list[NBestEntry]:
    """Decode one (name, utterance id) task; a Pool worker, which passes no
    decodes, reads those its initializer received."""
    name, utt_id = task
    pgrams, us, lm, trie, beam_cfg = decodes[name]
    return prefix_beam_search(pgrams[utt_id], us, lm=lm, trie=trie,
                              cfg=beam_cfg)


def _decode_all(decodes: dict, jobs: int) -> dict[str, dict]:
    """Decode ``name -> (pgrams, us, lm, trie, beam_cfg)``; returns ``name ->
    utterance id -> N-best``, each map in utterance id order.

    At ``jobs > 1`` one Pool runs every decode: its workers receive the
    decodes once, from the initializer (under the fork start method,
    without pickling them).  Results are taken in task order, so an error
    is that of the first failing utterance in sorted order at every
    ``jobs``."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(name, utt_id) for name, (pgrams, *_) in decodes.items()
             for utt_id in sorted(pgrams)]
    if jobs > 1:
        with multiprocessing.Pool(jobs, _init_worker, (decodes,)) as pool:
            nbests = list(pool.imap(_decode_one, tasks))
    else:
        nbests = [_decode_one(task, decodes) for task in tasks]
    out = {name: {} for name in decodes}
    for (name, utt_id), nbest in zip(tasks, nbests):
        out[name][utt_id] = nbest
    return out


def decode_dir(pgram_dir, us: UnitSet, lm: NGramLM | None,
               trie: KeywordTrie | None, beam_cfg: BeamConfig,
               jobs: int = 1) -> dict[str, list[NBestEntry]]:
    decodes = {"": (load_pgrams(pgram_dir), us, lm, trie, beam_cfg)}
    return _decode_all(decodes, jobs)[""]


def write_nbest(nbest_by_utt: dict[str, list[NBestEntry]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id in sorted(nbest_by_utt):
            hyps = [asdict(e) for e in nbest_by_utt[utt_id]]
            fh.write(json.dumps({"utt_id": utt_id, "hyps": hyps},
                                ensure_ascii=False) + "\n")


def read_nbest(path) -> dict[str, list[NBestEntry]]:
    out = {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                if not isinstance(obj["utt_id"], str):
                    raise ValueError("utt_id must be a string")
                if obj["utt_id"] in out:
                    raise ValueError(f"utterance {obj['utt_id']!r} repeated")
                out[obj["utt_id"]] = [_nbest_entry(h) for h in obj["hyps"]]
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise BadFormat(f"{path}:{lineno}: bad N-best line "
                                f"({type(exc).__name__}: {exc})") from None
    return out


_SCORES = ("score_am", "score_lm", "score_bias", "score_total")


def _nbest_entry(h: dict) -> NBestEntry:
    tokens, spans = h["tokens"], h["spans"]
    frames = [x for span in spans for x in span]
    # bool is a subclass of int, so test the exact type
    if any(type(x) is not int for x in [*tokens, *frames]):
        raise ValueError("tokens and span frames must be integers")
    if any(type(h[k]) not in (int, float) for k in _SCORES):
        raise ValueError("scores must be numbers")
    # json reads NaN, Infinity and -Infinity as floats; an int too large
    # for a float raises OverflowError
    if not all(math.isfinite(h[k]) for k in _SCORES):
        raise ValueError("scores must be finite")
    if type(h["text"]) is not str:
        raise ValueError("text must be a string")
    # one [start, end) pair per token, in order and none overlapping
    spans = [(s, e) for _, (s, e) in zip(tokens, spans, strict=True)]
    end = 0
    for s, e in spans:
        if not end <= s < e:
            raise ValueError(f"span [{s}, {e}) is not {end} <= start < end")
        end = e
    return NBestEntry(tokens=tuple(tokens), text=h["text"],
                      **{k: h[k] for k in _SCORES}, spans=spans)


def run_kws(pgram_dir, nbest_char, nbest_syll, keywords: list[Keyword],
            char_set: UnitSet, syll_set: UnitSet | None, lexicon: Lexicon,
            costs: CostTable, cfg: KwsConfig) -> list[Hit]:
    stages = ("char",) if nbest_syll is None else ("char", "syll")
    pgrams = {stage: load_pgrams(Path(pgram_dir) / stage) for stage in stages}
    # distances are >= 0, so a zero threshold matches no window
    fuzzy = (kws_mod.fuzzy_costs(char_set, lexicon, costs)
             if cfg.fuzzy_threshold > 0 else None)
    return decide(_run_kws(pgram_dir, pgrams, nbest_char, nbest_syll,
                           keywords, char_set, syll_set, fuzzy, cfg), cfg)


def _run_kws(pgram_dir, pgrams: dict[str, dict[str, Posteriorgram]],
             nbest_char, nbest_syll, keywords: list[Keyword],
             char_set: UnitSet, syll_set: UnitSet | None,
             fuzzy: FuzzyCosts | None, cfg: KwsConfig) -> list[tuple]:
    """The kws candidates of every utterance (see ``detect``), in utterance
    id order, from posteriorgrams already loaded, ``stage -> utterance id
    -> posteriorgram``, with fuzzy matching exactly when ``fuzzy`` is given;
    ``pgram_dir`` names the stage directories in errors."""
    if nbest_syll is not None and set(nbest_syll) != set(nbest_char):
        odd = sorted(set(nbest_syll) ^ set(nbest_char))
        raise BadFormat(f"utterance(s) {odd} are not in both the char and "
                        f"the syllable N-best")
    inputs = {"char": (nbest_char, char_set)}
    if nbest_syll is not None:
        inputs["syll"] = (nbest_syll, syll_set)
    for stage, (nbest, us) in inputs.items():
        stage_dir = Path(pgram_dir) / stage
        extra = sorted(pgrams[stage].keys() - nbest_char.keys())
        if extra:
            raise BadFormat(f"{stage_dir}: no N-best entry covers "
                            f"utterance(s) {extra}")
        missing = sorted(nbest_char.keys() - pgrams[stage].keys())
        if missing:
            raise FileNotFoundError(f"{stage_dir}: no .pgram file for "
                                    f"utterance(s) {missing}")
        for utt_id, entries in nbest.items():
            pg = pgrams[stage][utt_id]
            if (pg.unit_set_id, pg.num_units) != (us.id, len(us)):
                raise UnitSetMismatch(
                    f"{stage_dir}: utterance {utt_id!r}: posteriorgram units "
                    f"{pg.unit_set_id!r} ({pg.num_units}) are not the "
                    f"{us.id!r} units ({len(us)})")
            if any(not 0 < t < len(us) for e in entries for t in e.tokens):
                raise BadFormat(f"utterance {utt_id!r}: N-best token outside "
                                f"the {us.id!r} units 1..{len(us) - 1}")
            if any(e.text != "".join(us.units[t] for t in e.tokens)
                   for e in entries):
                raise BadFormat(f"{stage_dir}: utterance {utt_id!r}: an "
                                f"N-best text is not its tokens' unit names "
                                f"joined")
            frames = pg.num_frames
            # spans lie in order (read_nbest checks), so the last ends last
            if any(e.spans and e.spans[-1][1] > frames for e in entries):
                raise BadFormat(f"{stage_dir}: utterance {utt_id!r}: an "
                                f"N-best span ends past its {frames} frames")
    syll_pgrams, syll_nbest = pgrams.get("syll", {}), nbest_syll or {}
    cands: list[tuple] = []
    for utt_id in sorted(nbest_char):
        cands.extend(detect(pgrams["char"][utt_id], syll_pgrams.get(utt_id),
                            nbest_char[utt_id], syll_nbest.get(utt_id),
                            keywords, fuzzy, cfg))
    return cands


def total_speech_seconds(pgram_dir) -> float:
    """Frames times frame period, summed over a posteriorgram directory in
    sorted path order; only each file's header is read."""
    total = 0.0
    for head in _read_dir(pgram_dir, read_pgram_header):
        total += head.num_frames * head.frame_period_s
    return total


def evaluate(hits: list[Hit], refs: list[RefOccurrence], cfg: EvalConfig,
             sweep_points: int = 50) -> dict:
    """Global P/R/F1 + ATWV at the recorded decisions, plus a threshold sweep
    over ``sweep_points`` thresholds evenly spaced from the lowest hit score
    to the highest (one point: the lowest)."""
    if sweep_points < 0:
        raise ValueError(f"sweep_points must be >= 0, got {sweep_points}")
    decided = [h for h in hits if h.decision]
    tp, fp, fn = align_hits(decided, refs, cfg)
    precision, recall, f1_score = f1(len(tp), len(fp), len(fn))
    atwv_score, per_kw = atwv(tp, fp, refs, cfg)

    scores = [h.norm_score for h in hits]
    lo, hi = (min(scores), max(scores)) if scores else (-1.0, 0.0)
    if hi <= lo:
        hi = lo + 1.0
    sweep = []
    if sweep_points:
        # align_hits takes each (utt, kw) group's hits highest score first,
        # so the hits at or above a threshold align as among all hits
        all_tp, all_fp, _ = align_hits(hits, refs, cfg)
    for i in range(sweep_points):
        theta = lo + (hi - lo) * i / max(sweep_points - 1, 1)
        s_tp = [(h, r) for h, r in all_tp if h.norm_score >= theta]
        s_fp = [h for h in all_fp if h.norm_score >= theta]
        _, _, s_f1 = f1(len(s_tp), len(s_fp), len(refs) - len(s_tp))
        s_atwv, _ = atwv(s_tp, s_fp, refs, cfg)
        sweep.append({"threshold": theta, "f1": s_f1, "atwv": s_atwv})

    return {
        "precision": precision,
        "recall": recall,
        "f1": f1_score,
        "atwv": atwv_score,
        "tp": len(tp), "fp": len(fp), "fn": len(fn),
        "per_keyword_twv": per_kw,
        "threshold_sweep": sweep,
    }


# ---------------------------------------------------------------------------
# ablation ladder


# The ablation ladder's four decodes: stage, beam size (None: the
# configured one), and whether the LM and the keyword trie take part.
LADDER_DECODES = {
    "greedy": ("char", 1, False, False),
    "lm": ("char", None, True, False),
    "bias": ("char", None, True, True),
    "syll_bias": ("syll", None, True, True),
}
# Each row adds one method to the row before it.  Method -> (char decode,
# the kws stages it adds to the char stage, N-best matching, length
# normalisation).  A row without N-best matching keeps the candidates of
# each utterance's top hypothesis only; the syllable stage reads the
# syll_bias decode.
LADDER_ROWS = {
    "greedy": ("greedy", (), False, False),
    "+lm": ("lm", (), False, False),
    "+length_norm": ("lm", (), False, True),
    "+nbest": ("lm", (), True, True),
    "+bias": ("bias", (), True, True),
    "+fuzzy": ("bias", (Stage.FUZZY,), True, True),
    "+syllable": ("bias", (Stage.FUZZY, Stage.SYLLABLE), True, True),
}
LADDER = list(LADDER_ROWS)


def run_ablation(pgram_dir, refs, keywords: list[Keyword],
                 char_set: UnitSet, syll_set: UnitSet, lexicon: Lexicon,
                 char_lm: NGramLM, syll_lm: NGramLM, costs: CostTable,
                 beam_cfg: BeamConfig, bias_cfg: BiasConfig,
                 kws_cfg: KwsConfig, eval_cfg: EvalConfig,
                 jobs: int = 1,
                 ref_subsets: dict[str, list] | None = None) -> dict:
    """Run every ladder row and report F1/ATWV per row (recall included).

    ``ref_subsets`` maps a label to a subset of ``refs``; each row then also
    carries ``recall_all_<label>``, the threshold-free recall restricted to
    that subset (e.g. references of rarely-seen keywords).
    """
    char_trie = build_bias_trie([list(k.char_units) for k in keywords],
                                char_lm, bias_cfg, unit_names=char_set.units)
    syll_trie = build_bias_trie([list(k.syll_units) for k in keywords],
                                syll_lm, bias_cfg, unit_names=syll_set.units)
    models = {"char": (char_set, char_lm, char_trie),
              "syll": (syll_set, syll_lm, syll_trie)}
    pgrams = {stage: load_pgrams(Path(pgram_dir) / stage) for stage in models}
    decodes = {}
    for name, (stage, beam_size, with_lm, with_trie) in LADDER_DECODES.items():
        us, lm, trie = models[stage]
        decodes[name] = (
            pgrams[stage], us, lm if with_lm else None,
            trie if with_trie else None,
            replace(beam_cfg, beam_size=beam_size or beam_cfg.beam_size))
    nbest = _decode_all(decodes, jobs)
    fuzzy = (kws_mod.fuzzy_costs(char_set, lexicon, costs)
             if kws_cfg.fuzzy_threshold > 0 else None)

    # one candidate table per char decode, matched with the stages of its
    # last row, which hold those of its earlier rows
    last = {char: stages for char, stages, _, _ in LADDER_ROWS.values()}
    tables = {}
    for char, stages in last.items():
        syll = nbest["syll_bias"] if Stage.SYLLABLE in stages else None
        tables[char] = _run_kws(pgram_dir, pgrams, nbest[char], syll,
                                keywords, char_set, syll_set,
                                fuzzy if Stage.FUZZY in stages else None,
                                kws_cfg)
    rows = []
    for method, (char, stages, nbest_matching, length_norm) \
            in LADDER_ROWS.items():
        hits = decide([c for c in tables[char]
                       if (nbest_matching or c[1] == 0)
                       and (c[2] is Stage.CHAR or c[2] in stages)],
                      replace(kws_cfg, length_norm=length_norm))
        report = evaluate(hits, refs, eval_cfg, sweep_points=0)
        # recall over all matches, before the decision threshold
        a_tp, _, a_fn = align_hits(hits, refs, eval_cfg)
        _, recall_all, _ = f1(len(a_tp), 0, len(a_fn))
        entry = {"method": method, "f1": report["f1"],
                 "atwv": report["atwv"],
                 "precision": report["precision"],
                 "recall": report["recall"],
                 "recall_all": recall_all}
        for label, subset in (ref_subsets or {}).items():
            s_tp, _, s_fn = align_hits(hits, subset, eval_cfg)
            _, subset_recall, _ = f1(len(s_tp), 0, len(s_fn))
            entry[f"recall_all_{label}"] = subset_recall
        rows.append(entry)
    return {"ladder": rows}
