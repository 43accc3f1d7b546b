"""Occurrence-level scoring of hit lists: alignment, F1, and ATWV."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .units import read_tsv


@dataclass(frozen=True)
class RefOccurrence:
    utt_id: str
    kw_id: str
    start_s: float
    end_s: float

    def __post_init__(self):
        if not -math.inf < self.start_s < self.end_s < math.inf:  # NaN too
            raise ValueError(f"reference span [{self.start_s}, {self.end_s}]"
                             f" is not finite with start < end")


@dataclass(frozen=True)
class EvalConfig:
    atwv_beta: float = 999.9  # NIST STD 2006 false-alarm weight
    total_speech_s: float = 1.0
    min_overlap_fraction: float | None = None  # None: hit-midpoint rule

    def __post_init__(self):
        for name in ("atwv_beta", "total_speech_s"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and > 0, got "
                                 f"{getattr(self, name)}")
        frac = self.min_overlap_fraction
        if frac is not None and not 0.0 < frac <= 1.0:
            raise ValueError(f"min_overlap_fraction must be None or in "
                             f"(0, 1], got {frac}")


def _matches(hit, ref, cfg: EvalConfig) -> bool:
    if cfg.min_overlap_fraction is None:
        mid = 0.5 * (hit.start_s + hit.end_s)
        return ref.start_s <= mid <= ref.end_s
    inter = min(hit.end_s, ref.end_s) - max(hit.start_s, ref.start_s)
    shorter = min(hit.end_s - hit.start_s, ref.end_s - ref.start_s)
    return shorter > 0 and inter / shorter >= cfg.min_overlap_fraction


def align_hits(hits, refs, cfg: EvalConfig):
    """Greedy one-to-one matching per (utt, kw), highest-scoring hits first.

    Returns (tp_pairs, fp_hits, fn_refs).
    """
    refs_by_key: dict[tuple[str, str], list] = {}
    for r in refs:
        refs_by_key.setdefault((r.utt_id, r.kw_id), []).append(r)
    hits_by_key: dict[tuple[str, str], list] = {}
    for h in hits:
        hits_by_key.setdefault((h.utt_id, h.kw_id), []).append(h)

    tp, fp, fn = [], [], []
    for key in sorted(set(refs_by_key) | set(hits_by_key)):
        pool = sorted(refs_by_key.get(key, []), key=lambda r: r.start_s)
        taken = [False] * len(pool)
        ordered = sorted(hits_by_key.get(key, []),
                         key=lambda h: (-h.norm_score, h.start_s))
        for h in ordered:
            matched = None
            for i, r in enumerate(pool):
                if not taken[i] and _matches(h, r, cfg):
                    matched = i
                    break
            if matched is None:
                fp.append(h)
            else:
                taken[matched] = True
                tp.append((h, pool[matched]))
        fn.extend(r for i, r in enumerate(pool) if not taken[i])
    return tp, fp, fn


def f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, score


def atwv(tp_pairs, fp_hits, all_refs, cfg: EvalConfig):
    """Mean TWV over keywords with at least one reference occurrence.

    TWV(kw) = 1 - P_miss - beta * P_fa with P_fa trials = speech seconds
    minus the keyword's true count.  Returns (atwv, per-keyword TWV dict),
    which is (0.0, {}) when no keyword has a reference occurrence.
    """
    n_true = Counter(r.kw_id for r in all_refs)
    if not n_true:
        return 0.0, {}
    hits_tp = Counter(h.kw_id for h, _ in tp_pairs)
    fas = Counter(h.kw_id for h in fp_hits)

    per_kw = {}
    for kw, nt in sorted(n_true.items()):
        p_miss = (nt - hits_tp.get(kw, 0)) / nt
        trials = cfg.total_speech_s - nt
        p_fa = fas.get(kw, 0) / trials if trials > 0 else 0.0
        per_kw[kw] = 1.0 - p_miss - cfg.atwv_beta * p_fa
    return sum(per_kw.values()) / len(per_kw), per_kw


def load_refs(path) -> list[RefOccurrence]:
    """``utt<TAB>kw<TAB>start_s<TAB>end_s`` lines."""
    return list(read_tsv(path, 4, lambda f: RefOccurrence(
        f[0], f[1], float(f[2]), float(f[3]))))


def write_refs(refs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in refs:
            fh.write(f"{r.utt_id}\t{r.kw_id}\t{r.start_s:.6f}\t{r.end_s:.6f}\n")
