"""Unit inventories (character / syllable), lexicon, and text tokenization.

A UnitSet is an ordered inventory of modeling units with the CTC blank
reserved at index 0.  The Lexicon maps character units to their pinyin
pronunciations and drives syllabification for the syllable decoding stage.
Both are immutable after load and safe to share across decoders.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import (BadFormat, BadSyllable, DuplicateUnit, EmptyUnitSet,
                     OutOfVocabulary, read_text)
from .phonetics import parse_syllable

BLANK = "<blk>"


class UnitKind(enum.Enum):
    CHARACTER = "character"
    SYLLABLE = "syllable"


@dataclass(frozen=True)
class UnitSet:
    id: str
    kind: UnitKind
    units: tuple[str, ...]
    index: dict[str, int] = field(repr=False, default=None)

    def __post_init__(self):
        if len(self.units) < 2:
            raise EmptyUnitSet(f"unit set {self.id!r} has no units besides blank")
        if self.units[0] != BLANK:
            raise ValueError("unit 0 must be the reserved blank")
        idx = {}
        for i, u in enumerate(self.units):
            if not u:
                raise ValueError("empty unit string")
            if u in idx:
                raise DuplicateUnit(f"duplicate unit {u!r}")
            idx[u] = i
        object.__setattr__(self, "index", idx)

    def __len__(self):
        return len(self.units)

    @property
    def blank_index(self) -> int:
        return 0

    def id_of(self, unit: str) -> int:
        try:
            return self.index[unit]
        except KeyError:
            raise OutOfVocabulary(unit) from None


def load_unit_set(path, set_id: str | None = None,
                  kind: UnitKind = UnitKind.CHARACTER) -> UnitSet:
    """One unit per line, '#' comment lines skipped; blank prepended if absent."""
    units = []
    for line in read_text(path, BadFormat).split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        units.append(line)
    if not units:
        raise EmptyUnitSet(f"no units in {path}")
    if units[0] != BLANK:
        units.insert(0, BLANK)
    if set_id is None:
        set_id = str(path)
    return UnitSet(id=set_id, kind=kind, units=tuple(units))


def write_unit_set(us: UnitSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u in us.units:
            fh.write(u + "\n")


def read_tsv(path, num_fields: int, make=tuple):
    """Yield ``make(fields)`` for each line but blank and ``#`` lines; a line
    splits on tabs into num_fields fields, the last keeping further tabs.
    Fewer fields or a ValueError from make is BadFormat at ``path:line``."""
    for lineno, line in enumerate(read_text(path, BadFormat).split("\n"), 1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t", num_fields - 1)
        try:
            if len(fields) != num_fields:
                raise ValueError(f"{len(fields)} tab-separated field(s), "
                                 f"expected {num_fields}")
            record = make(fields)
        except ValueError as exc:
            raise BadFormat(f"{path}:{lineno}: {exc}") from None
        yield record


def tokenize_chars(text: str, us: UnitSet) -> list[int]:
    """Map each non-whitespace Unicode scalar to its unit id."""
    if us.kind is not UnitKind.CHARACTER:
        raise ValueError("tokenize_chars needs a character unit set")
    ids = []
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        if ch not in us.index:
            raise OutOfVocabulary(ch, pos)
        ids.append(us.index[ch])
    return ids


def find_all(seq, sub) -> list[int]:
    """Each start of sub in seq, overlaps included (both str or both list)."""
    n = len(sub)
    return [i for i in range(len(seq) - n + 1) if seq[i:i + n] == sub]


@dataclass(frozen=True)
class Lexicon:
    """char unit -> ordered pronunciations; first listed is primary."""
    entries: dict[str, tuple[str, ...]]

    def primary(self, char: str) -> str:
        try:
            return self.entries[char][0]
        except KeyError:
            raise OutOfVocabulary(char) from None


def load_lexicon(path) -> Lexicon:
    """``char<TAB>pron [pron ...]`` lines, one per char; the first pron is
    the primary, and every pron must parse as a tonal pinyin syllable."""
    seen = set()

    def entry(fields):
        char, prons = fields[0], tuple(fields[1].split())
        if not char or not prons:
            raise ValueError("a lexicon line needs a character and a "
                             "pronunciation")
        if char in seen:
            raise ValueError(f"character {char!r} listed twice")
        seen.add(char)
        for k, pron in enumerate(prons):
            try:
                parse_syllable(pron)
            except BadSyllable as exc:
                which = "primary pronunciation" if k == 0 \
                    else f"pronunciation {k + 1}"
                raise ValueError(f"{which} of {char!r}: {exc}") from None
        return char, prons
    return Lexicon(entries=dict(read_tsv(path, 2, entry)))


def write_lexicon(lex: Lexicon, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ch, prons in lex.entries.items():
            fh.write(f"{ch}\t{' '.join(prons)}\n")


def syllabify(text: str, lex: Lexicon, syll_set: UnitSet) -> list[int]:
    """Primary pronunciation of each character, as syllable unit ids."""
    ids = []
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        if ch not in lex.entries:
            raise OutOfVocabulary(ch, pos)
        ids.append(syll_set.id_of(lex.entries[ch][0]))
    return ids
