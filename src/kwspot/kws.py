"""Keyword matching over N-best lists and CTC confidence scoring of hits.

Matching runs in three stages: exact character, exact syllable, and fuzzy
(phonetic edit distance over sliding windows of the character hypotheses).
Each utterance's N-best lists are indexed once (``WindowIndex``: per window
width, a map from window to its (rank, start) positions), so exact matching
is one lookup per keyword and fuzzy matching measures each distinct window
against every keyword of its width once, in one batched ``phrase_distance``
per width (``fuzzy_distances``).  Every candidate is then scored by the CTC
forward algorithm over the frame window its matched tokens align to (once
per distinct posteriorgram, units and window).  A fuzzy window with fewer
frames than its keyword needs (``ctc_min_frames``) is skipped unscored;
every other window is one ``score_ctc`` can score, or it raises.

``detect`` returns the scored candidates and ``decide`` makes the hits:
it length-normalizes the scores in the log domain, merges each keyword's
candidates, keeping the higher score of two that overlap, and builds a
``Hit``, decision included, for each one it keeps.  Candidates filtered
by stage or rank decide as matching over only those stages or ranks would,
so one round of matching serves several such questions.

Each stage runs from its input: the character stage always, the syllable
stage when ``detect`` is given a syllable N-best, fuzzy matching when it is
given fuzzy costs.  Every stage searches every hypothesis it is given;
matching over the top hypothesis only is matching over 1-entry N-best lists
(``[beam] nbest = 1`` at decode).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import AlignmentInfeasible, BadSyllable
from .pgram import Posteriorgram, ctc_min_frames, ctc_trellis
from .phonetics import (CostTable, Syllable, parse_syllable, phrase_distance,
                        substitution_matrix)
from .units import Lexicon, UnitSet, read_tsv


class Stage(enum.Enum):
    CHAR = "char"
    SYLLABLE = "syllable"
    FUZZY = "fuzzy"


@dataclass(frozen=True)
class Keyword:
    id: str
    text: str
    char_units: tuple[int, ...]
    syll_units: tuple[int, ...]

    def __post_init__(self):
        if not self.char_units:
            raise ValueError("keyword with no character units")


@dataclass
class Hit:
    utt_id: str
    kw_id: str
    stage: Stage
    start_frame: int
    end_frame: int
    start_s: float
    end_s: float
    norm_score: float
    decision: bool = False


@dataclass(frozen=True)
class KwsConfig:
    fuzzy_threshold: float = 0.5
    decision_threshold: float = -5.0  # natural log per unit
    length_norm: bool = True

    def __post_init__(self):
        # distances lie in [0, 1]; a threshold of 0 means no fuzzy hits
        if not 0.0 <= self.fuzzy_threshold <= 1.0:
            raise ValueError(f"fuzzy_threshold must be in [0, 1], got "
                             f"{self.fuzzy_threshold}")
        if not math.isfinite(self.decision_threshold):
            raise ValueError(f"decision_threshold must be finite, got "
                             f"{self.decision_threshold}")


def char_syllables(char_set: UnitSet,
                   lexicon: Lexicon) -> tuple[Syllable | None, ...]:
    """The parsed primary pronunciation of every char unit, by unit id, with
    None at the blank.  A unit with no lexicon entry raises OutOfVocabulary,
    a malformed pronunciation BadSyllable naming the unit."""
    out: list[Syllable | None] = [None]
    for u in char_set.units[1:]:
        try:
            out.append(parse_syllable(lexicon.primary(u)))
        except BadSyllable as exc:
            raise BadSyllable(f"char unit {u!r}: {exc}") from None
    return tuple(out)


@dataclass(frozen=True)
class FuzzyCosts:
    """What fuzzy matching reads during one run_kws call: the capped
    substitution matrix over char unit ids (substitution_matrix) and the
    indel cost."""
    sub: np.ndarray
    indel_cost: float


def fuzzy_costs(char_set: UnitSet, lexicon: Lexicon,
                costs: CostTable) -> FuzzyCosts:
    """The FuzzyCosts of the char units."""
    return FuzzyCosts(substitution_matrix(char_syllables(char_set, lexicon),
                                          costs), costs.indel_cost)


class WindowIndex(dict):
    """The token windows of nbest, indexed per width on first use:
    ``index[k]`` maps every k-token window to its [(rank, start)], in rank,
    then start order."""

    def __init__(self, nbest):
        super().__init__()
        self.hyps = [tuple(entry.tokens) for entry in nbest]

    def __missing__(self, k: int) -> dict[tuple[int, ...], list]:
        index: dict[tuple[int, ...], list] = {}
        for rank, toks in enumerate(self.hyps):
            for i in range(len(toks) - k + 1):
                index.setdefault(toks[i:i + k], []).append((rank, i))
        self[k] = index
        return index


def match_exact(nbest, kw_units: tuple[int, ...], windows: WindowIndex):
    """All contiguous occurrences of kw_units in nbest, whose windows
    ``windows`` indexes."""
    kw = tuple(kw_units)
    return [(rank, i, i + len(kw)) for rank, i in windows[len(kw)].get(kw, ())]


def fuzzy_distances(windows: WindowIndex, keywords: list[Keyword],
                    fuzzy: FuzzyCosts) -> dict[int, dict[tuple, list]]:
    """The phonetic distances of the windows ``windows`` indexes to the
    keywords' char units, per width: ``table[k]`` maps the char units of
    every k-unit keyword to [(window, distance)] over the distinct k-token
    windows.  One phrase_distance batch measures a width, in the order of
    each width's first keyword."""
    units: dict[int, dict[tuple[int, ...], None]] = {}
    for kw in keywords:
        units.setdefault(len(kw.char_units), {})[kw.char_units] = None
    table = {}
    for k, kw_units in units.items():
        distinct = list(windows[k])
        dist = phrase_distance(distinct, list(kw_units), fuzzy.sub,
                               fuzzy.indel_cost).tolist()
        table[k] = {u: list(zip(distinct, row))
                    for u, row in zip(kw_units, dist)}
    return table


def match_fuzzy(nbest, kw: Keyword, distances: list, threshold: float,
                windows: WindowIndex):
    """Windows of width |kw| of nbest (which ``windows`` indexes) whose
    pronunciation is close to the keyword's, given the keyword's
    [(window, distance)] row of ``fuzzy_distances``; exact character
    matches are excluded."""
    kw_units = kw.char_units
    k = len(kw_units)
    index = windows[k]
    return sorted((rank, i, i + k, d) for w, d in distances
                  if d < threshold and w != kw_units for rank, i in index[w])


def score_ctc(pg: Posteriorgram, units, window: tuple[int, int]) -> float:
    """Natural log of the total mass of window paths collapsing to units.

    CTC forward recursion over the window; both final states are summed.
    """
    ws, we = window
    if not 0 <= ws < we <= pg.num_frames:
        raise AlignmentInfeasible(f"bad window [{ws}, {we})")
    alpha = ctc_trellis(pg.logp[ws:we], [units])
    return float(np.logaddexp.reduce(alpha[-1, 0, -2:]))


def detect(pg_char: Posteriorgram, pg_syll: Posteriorgram | None,
           nbest_char, nbest_syll,
           keywords: list[Keyword], fuzzy: FuzzyCosts | None,
           cfg: KwsConfig) -> list[tuple]:
    """Matching and scoring for one utterance.  The character stage always
    runs; the syllable stage runs when ``nbest_syll`` (over ``pg_syll``) is
    given, fuzzy matching when ``fuzzy`` (from fuzzy_costs) is.

    Returns the scored candidates, each a ``(kw_id, rank, stage, start
    frame, end frame, raw score, units, posteriorgram)`` tuple, grouped by
    keyword in id order (ids are unique, as load_id_text enforces);
    ``decide`` makes them hits."""
    keywords = sorted(keywords, key=lambda k: k.id)
    char_windows = WindowIndex(nbest_char)
    syll_windows = WindowIndex(nbest_syll) if nbest_syll is not None else None
    distances = (fuzzy_distances(char_windows, keywords, fuzzy)
                 if fuzzy is not None else None)
    scores: dict[tuple, float] = {}  # (id(pg), units, ws, we) -> raw score
    cands: list[tuple] = []
    for kw in keywords:
        found = [(Stage.CHAR, nbest_char, pg_char, kw.char_units,
                  match_exact(nbest_char, kw.char_units, char_windows))]
        if syll_windows is not None and kw.syll_units:
            found.append((Stage.SYLLABLE, nbest_syll, pg_syll, kw.syll_units,
                          match_exact(nbest_syll, kw.syll_units,
                                      syll_windows)))
        if distances is not None:
            row = distances[len(kw.char_units)][kw.char_units]
            # scored with the true keyword's units, not the decoded variant
            found.append((Stage.FUZZY, nbest_char, pg_char, kw.char_units,
                          match_fuzzy(nbest_char, kw, row,
                                      cfg.fuzzy_threshold, char_windows)))
        for stage, nbest, pg, units, matches in found:
            for rank, ti, tj, *_ in matches:
                spans = nbest[rank].spans
                ws, we = spans[ti][0], spans[tj - 1][1]
                if stage is Stage.FUZZY and we - ws < ctc_min_frames(units):
                    # a fuzzy window fits the decoded variant; the true
                    # keyword may need more frames (repeated units need
                    # separating blanks)
                    continue
                key = (id(pg), units, ws, we)
                raw = scores.get(key)
                if raw is None:
                    raw = scores[key] = score_ctc(pg, units, (ws, we))
                cands.append((kw.id, rank, stage, ws, we, raw, units, pg))
    return cands


def decide(cands, cfg: KwsConfig) -> list[Hit]:
    """The hits of candidates in detect's order, of one utterance or of
    several in turn.

    Each (utterance, keyword)'s candidates are merged: scored (per unit
    when ``cfg.length_norm``) and taken best first, by (-score, start
    frame, end frame, stage name), a candidate is kept unless its frames
    overlap one kept before.  The kept ones become hits by start frame,
    each decided against ``cfg.decision_threshold``."""
    hits: list[Hit] = []
    for (utt_id, kw_id), group in groupby(cands,
                                          key=lambda c: (c[7].utt_id, c[0])):
        scored = sorted(((raw / len(units) if cfg.length_norm else raw,
                          ws, we, stage, pg)
                         for _, _, stage, ws, we, raw, units, pg in group),
                        key=lambda c: (-c[0], c[1], c[2], c[3].value))
        kept: list[tuple] = []
        for cand in scored:
            if all(cand[2] <= k[1] or k[2] <= cand[1] for k in kept):
                kept.append(cand)
        for score, ws, we, stage, pg in sorted(kept, key=lambda c: c[1]):
            hits.append(Hit(utt_id=utt_id, kw_id=kw_id, stage=stage,
                            start_frame=ws, end_frame=we,
                            start_s=ws * pg.frame_period_s,
                            end_s=we * pg.frame_period_s, norm_score=score,
                            decision=score >= cfg.decision_threshold))
    return hits


def write_hits(hits: list[Hit], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for h in hits:
            fh.write(f"{h.utt_id}\t{h.kw_id}\t{h.start_s:.6f}\t{h.end_s:.6f}\t"
                     f"{h.norm_score:.6f}\t{int(h.decision)}\t{h.stage.value}\t"
                     f"{h.start_frame}\t{h.end_frame}\n")


def read_hits(path) -> list[Hit]:
    """Hits as write_hits writes them: utt, keyword, start and end seconds,
    score, decision (0 or 1), stage, start and end frame (end exclusive);
    scores and times are finite, and each span has start < end."""
    def hit(f):
        utt, kw, start_s, end_s, score, dec, stage, start_f, end_f = f
        if dec not in ("0", "1"):
            raise ValueError(f"decision {dec!r} is not 0 or 1")
        start_frame, end_frame = int(start_f), int(end_f)
        if not 0 <= start_frame < end_frame:
            raise ValueError(f"frames [{start_frame}, {end_frame}) are not "
                             f"0 <= start < end")
        start, end, norm = float(start_s), float(end_s), float(score)
        if not (math.isfinite(norm) and -math.inf < start < end < math.inf):
            raise ValueError(f"score {norm} or times [{start}, {end}] are "
                             f"not finite with start < end")
        return Hit(utt_id=utt, kw_id=kw, stage=Stage(stage),
                   start_frame=start_frame, end_frame=end_frame,
                   start_s=start, end_s=end, norm_score=norm,
                   decision=dec == "1")
    return list(read_tsv(path, 9, hit))
