"""Pinyin syllable structure and pronunciation edit distance for fuzzy matching.

The distance is a transparent cost-table edit distance over (initial, final,
tone) decompositions.  Confusable initial/final pairs carry reduced
substitution cost; tone mismatches add a small constant.  Phrase distance is
a Levenshtein DP normalized by the longer sequence length, so a single
threshold applies across keyword lengths.

The DP runs over unit ids, not syllables: ``substitution_matrix`` tabulates
the substitution cost of every pair of units once, as a numpy array (capped
at one indel, so the normalized distance stays in [0, 1]), and
``phrase_distance`` reads its substitutions from that matrix.  It measures a
whole batch of equal-width windows against every keyword of one length in
one DP, with numpy columns of (keyword, window) pairs; every distance is
bit-identical to a scalar DP's.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BadSyllable, read_text

# Longest-match order matters: digraphs before their single-letter prefixes.
INITIALS = ("zh", "ch", "sh",
            "b", "p", "m", "f", "d", "t", "n", "l", "g", "k", "h",
            "j", "q", "x", "r", "z", "c", "s", "y", "w")

DEFAULT_INITIAL_GROUPS = ((frozenset({"zh", "z"}), 0.5),
                          (frozenset({"ch", "c"}), 0.5),
                          (frozenset({"sh", "s"}), 0.5),
                          (frozenset({"n", "l"}), 0.5),
                          (frozenset({"f", "h"}), 0.5))
DEFAULT_FINAL_GROUPS = ((frozenset({"in", "ing"}), 0.5),
                        (frozenset({"en", "eng"}), 0.5),
                        (frozenset({"an", "ang"}), 0.5))


@dataclass(frozen=True)
class Syllable:
    initial: str
    final: str
    tone: int

    def __post_init__(self):
        if not self.final:
            raise BadSyllable("empty final")
        if not 0 <= self.tone <= 4:
            raise BadSyllable(f"tone {self.tone} out of range")


@dataclass(frozen=True)
class CostTable:
    initial_groups: tuple = DEFAULT_INITIAL_GROUPS
    final_groups: tuple = DEFAULT_FINAL_GROUPS
    tone_cost: float = 0.2
    substitution_cost: float = 1.0
    indel_cost: float = 1.0

    def _group_cost(self, a: str, b: str, groups) -> float:
        if a == b:
            return 0.0
        for members, cost in groups:
            if a in members and b in members:
                return cost
        return self.substitution_cost

    def initial_cost(self, a: str, b: str) -> float:
        return self._group_cost(a, b, self.initial_groups)

    def final_cost(self, a: str, b: str) -> float:
        return self._group_cost(a, b, self.final_groups)


def load_cost_table(path) -> CostTable:
    """Sectioned key-value file: [initial_groups], [final_groups], [costs].

    Group lines are space-separated members followed by ':cost'; cost lines
    are 'name = value' for tone_cost, substitution_cost, indel_cost.  A line
    that fits none of these, or a cost that is not finite and >= 0, is a
    ValueError at ``path:line``.
    """
    sections = {"initial_groups": [], "final_groups": [], "costs": {}}
    section = None
    for lineno, raw in enumerate(read_text(path, ValueError).split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1]
                if section not in sections:
                    raise ValueError(f"unknown section [{section}]")
            elif section == "costs":
                key, val = (x.strip() for x in line.split("="))
                if key not in ("tone_cost", "substitution_cost",
                               "indel_cost"):
                    raise ValueError(f"unknown cost {key!r}")
                sections["costs"][key] = _cost(val)
            elif section:
                members, cost = line.rsplit(":", 1)
                sections[section].append((frozenset(members.split()),
                                          _cost(cost)))
            else:
                raise ValueError("line before any section")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return CostTable(initial_groups=tuple(sections["initial_groups"]),
                     final_groups=tuple(sections["final_groups"]),
                     **sections["costs"])


def _cost(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise ValueError(f"cost {text.strip()!r} is not finite and >= 0")
    return value


@lru_cache(maxsize=None)
def parse_syllable(s: str) -> Syllable:
    """'zhong1' -> Syllable(zh, ong, 1); longest-match initial, trailing tone digit."""
    if not s or not s[-1].isdigit():
        raise BadSyllable(f"missing tone digit: {s!r}")
    tone = int(s[-1])
    if tone > 4:
        raise BadSyllable(f"tone out of range: {s!r}")
    body = s[:-1]
    initial = ""
    for cand in INITIALS:
        if body.startswith(cand):
            initial = cand
            break
    final = body[len(initial):]
    if not final:
        raise BadSyllable(f"empty final: {s!r}")
    return Syllable(initial=initial, final=final, tone=tone)


def syllable_distance(a: Syllable, b: Syllable, table: CostTable) -> float:
    d = table.initial_cost(a.initial, b.initial) + table.final_cost(a.final, b.final)
    if a.tone != b.tone:
        d += table.tone_cost
    return d


def substitution_matrix(sylls: Sequence[Syllable | None],
                        table: CostTable) -> np.ndarray:
    """``sub[x, y]``: the syllable distance of units x and y capped at one
    indel, for ``sylls`` indexed by unit id; the row and column of a unit
    without a syllable (the blank, ``None``) are 0.  The matrix is built
    once per equal (sylls, table) and shared, so it is read-only."""
    return _substitution_matrix(tuple(sylls), table)


@lru_cache(maxsize=16)
def _substitution_matrix(sylls: tuple[Syllable | None, ...],
                         table: CostTable) -> np.ndarray:
    indel = table.indel_cost
    sub = np.array([[0.0 if a is None or b is None
                     else min(syllable_distance(a, b, table), indel)
                     for b in sylls] for a in sylls], dtype=np.float64)
    sub.flags.writeable = False
    return sub


def phrase_distance(windows: Sequence[Sequence[int]],
                    keywords: Sequence[Sequence[int]], sub: np.ndarray,
                    indel_cost: float) -> np.ndarray:
    """Levenshtein distance of each of the equal-width unit-id ``windows`` to
    each of the equal-length unit-id ``keywords``, with substitutions from
    ``sub`` (substitution_matrix), normalized by the longer length: a
    (keywords, windows) array.

    One DP runs over the whole batch: each DP cell is a numpy column over
    the (keyword, window) pairs.  A cell takes the same float additions and
    minimum as in a DP over one pair, so every distance is bit-identical to
    that DP's."""
    if not len(windows) or not len(keywords):
        return np.zeros((len(keywords), len(windows)))
    a = np.array(windows, dtype=np.intp)
    b = np.array(keywords, dtype=np.intp)
    (n, m), (K, k) = a.shape, b.shape
    # costs[i, j, kk * n + w]: substituting b[kk, j] for the i-th unit of
    # window w
    costs = sub[a.T[:, None, None, :], b.T[None, :, :, None]].reshape(
        m, k, K * n)
    prev = np.arange(k + 1.0)[:, None] * np.full(K * n, indel_cost)
    for i in range(m):
        # substitution or deletion, then insertion from the left
        below = np.minimum(prev[:-1] + costs[i], prev[1:] + indel_cost)
        cur = np.empty((k + 1, K * n))
        cur[0] = left = (i + 1) * indel_cost
        for j in range(k):
            left = np.minimum(below[j], left + indel_cost, out=cur[j + 1])
        prev = cur
    return (prev[-1] / max(m, k, 1)).reshape(K, n)
