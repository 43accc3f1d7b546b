"""Pinyin syllable structure and pronunciation edit distance for fuzzy matching.

The distance is a transparent cost-table edit distance over (initial, final,
tone) decompositions.  Confusable initial/final pairs carry reduced
substitution cost; tone mismatches add a small constant.  Phrase distance is
a Levenshtein DP normalized by the longer sequence length, so a single
threshold applies across keyword lengths.

The DP runs over unit ids, not syllables: ``substitution_matrix`` tabulates
the substitution cost of every pair of units once (capped at one indel, so
the normalized distance stays in [0, 1]), and ``phrase_distance`` reads its
substitutions from that matrix.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import BadSyllable

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
    that fits none of these is a ValueError at ``path:line``.
    """
    sections = {"initial_groups": [], "final_groups": [], "costs": {}}
    section = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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
                    sections["costs"][key] = float(val)
                elif section:
                    members, cost = line.rsplit(":", 1)
                    sections[section].append((frozenset(members.split()),
                                              float(cost)))
                else:
                    raise ValueError("line before any section")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return CostTable(initial_groups=tuple(sections["initial_groups"]),
                     final_groups=tuple(sections["final_groups"]),
                     **sections["costs"])


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
                        table: CostTable) -> list[list[float]]:
    """``sub[x][y]``: the syllable distance of units x and y capped at one
    indel, for ``sylls`` indexed by unit id; the row and column of a unit
    without a syllable (the blank, ``None``) are 0."""
    indel = table.indel_cost
    return [[0.0 if a is None or b is None
             else min(syllable_distance(a, b, table), indel)
             for b in sylls] for a in sylls]


def phrase_distance(a: Sequence[int], b: Sequence[int],
                    sub: list[list[float]], indel_cost: float) -> float:
    """Levenshtein over the unit ids a and b with substitutions from ``sub``
    (substitution_matrix), normalized by the longer length."""
    if not a and not b:
        return 0.0
    prev = [j * indel_cost for j in range(len(b) + 1)]
    for i, x in enumerate(a, 1):
        row = sub[x]
        left = i * indel_cost
        cur = [left]
        for j, y in enumerate(b):
            left = min(prev[j] + row[y], prev[j + 1] + indel_cost,
                       left + indel_cost)
            cur.append(left)
        prev = cur
    return prev[-1] / max(len(a), len(b))
