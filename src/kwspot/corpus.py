"""Deterministic toy-language and corpus generation for experiments and tests.

Builds a synthetic Mandarin-like language: CJK code points assigned unique
tonal-pinyin syllables, with designated confusable clusters (tone variants
and zh/z-style initial variants) that drive both the acoustic confusion
tables and the fuzzy-matching stress tests.  Corpora embed keywords into
filler sentences, no two occurrences (``units.find_all``) overlapping; a
subset of keywords is withheld from the LM training text so they are
genuinely rare under the language model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .units import BLANK, Lexicon, UnitKind, UnitSet, find_all

_INITIAL_PAIRS = [("zh", "z"), ("ch", "c"), ("sh", "s"), ("n", "l"), ("f", "h")]
_PLAIN_INITIALS = ["b", "p", "m", "d", "t", "g", "k", "j", "q", "x", "r", "w", "y"]
_FINALS = ["ong", "ang", "ao", "ai", "ou", "ei", "u", "e", "i", "a", "eng", "ing"]


@dataclass(frozen=True)
class ToyLanguage:
    char_set: UnitSet
    syll_set: UnitSet
    lexicon: Lexicon
    # char -> list of confusable chars (tone or initial variants)
    confusable: dict[str, list[str]]


def make_language(num_chars: int = 72) -> ToyLanguage:
    """Characters with unique syllables, grouped into confusable clusters."""
    sylls: list[str] = []
    clusters: list[list[int]] = []
    for a, b in _INITIAL_PAIRS:
        for final in _FINALS[:4]:
            base = len(sylls)
            sylls.extend((f"{a}{final}1", f"{a}{final}4", f"{b}{final}1"))
            clusters.append([base, base + 1, base + 2])
    for ini in _PLAIN_INITIALS:
        for final in _FINALS:
            base = len(sylls)
            sylls.extend((f"{ini}{final}1", f"{ini}{final}3"))
            clusters.append([base, base + 1])
    keep = min(num_chars, len(sylls))
    chars = [chr(0x4E00 + i) for i in range(keep)]
    entries = {chars[i]: (sylls[i],) for i in range(keep)}
    confusable: dict[str, list[str]] = {c: [] for c in chars}
    for cluster in clusters:
        members = [i for i in cluster if i < keep]
        for i in members:
            confusable[chars[i]] = [chars[j] for j in members if j != i]
    char_set = UnitSet(id="toy-char", kind=UnitKind.CHARACTER,
                       units=(BLANK, *chars))
    syll_set = UnitSet(id="toy-syll", kind=UnitKind.SYLLABLE,
                       units=(BLANK, *sylls[:keep]))
    return ToyLanguage(char_set=char_set, syll_set=syll_set,
                       lexicon=Lexicon(entries=entries), confusable=confusable)


@dataclass(frozen=True)
class ToyCorpus:
    keywords: list[tuple[str, str]]          # (kw_id, text)
    rare_kw_ids: list[str]                   # withheld from the LM text
    transcripts: list[tuple[str, str]]       # (utt_id, text)
    lm_lines: list[str]


def make_corpus(lang: ToyLanguage, num_utts: int = 200, num_keywords: int = 50,
                rare_fraction: float = 0.5, utt_words: int = 6,
                lm_sentences: int = 400, seed: int = 0) -> ToyCorpus:
    rng = random.Random(seed)
    chars = list(lang.lexicon.entries)

    def make_word(length):
        return "".join(rng.choice(chars) for _ in range(length))

    # disjoint word inventories; keywords never collide with filler words
    words = set()
    while len(words) < num_keywords + 40:
        words.add(make_word(rng.choice([2, 2, 3, 3, 4])))
    words = sorted(words)
    rng.shuffle(words)
    kw_texts = words[:num_keywords]
    filler = words[num_keywords:]

    keywords = [(f"kw{idx:03d}", text) for idx, text in enumerate(kw_texts)]
    n_rare = int(round(rare_fraction * num_keywords))
    rare_ids = [kid for kid, _ in keywords[:n_rare]]
    common_kws = [text for _, text in keywords[n_rare:]]

    lm_lines = []
    for _ in range(lm_sentences):
        parts = [rng.choice(filler) for _ in range(rng.randint(3, utt_words))]
        if common_kws and rng.random() < 0.6:
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(common_kws))
        lm_lines.append("".join(parts))

    transcripts = []
    for n in range(num_utts):
        while True:
            parts = [rng.choice(filler) for _ in range(rng.randint(2, utt_words))]
            k = rng.randint(1, 2)
            for _ in range(k):
                _, text = rng.choice(keywords)
                parts.insert(rng.randrange(len(parts) + 1), text)
            sent = "".join(parts)
            spans = sorted((i, i + len(text)) for _, text in keywords
                           for i in find_all(sent, text))
            if all(a[1] <= b[0] for a, b in zip(spans, spans[1:])):
                break
        transcripts.append((f"utt{n:04d}", sent))
    return ToyCorpus(keywords=keywords, rare_kw_ids=rare_ids,
                     transcripts=transcripts, lm_lines=lm_lines)


def confusion_tables(lang: ToyLanguage):
    """(char unit -> partners, syllable unit -> partners) for synth noise."""
    char_conf: dict[int, list[tuple[int, float]]] = {}
    syll_conf: dict[int, list[tuple[int, float]]] = {}
    for ch, partners in lang.confusable.items():
        if not partners:
            continue
        # dominant first partner: concentrated confusion flips argmaxes,
        # a flat split would never overcome the (1 - noise) target mass
        weights = [1.0] + [0.25] * (len(partners) - 1)
        cid = lang.char_set.id_of(ch)
        char_conf[cid] = [(lang.char_set.id_of(p), w)
                         for p, w in zip(partners, weights)]
        sid = lang.syll_set.id_of(lang.lexicon.primary(ch))
        syll_conf[sid] = [(lang.syll_set.id_of(lang.lexicon.primary(p)), w)
                          for p, w in zip(partners, weights)]
    return char_conf, syll_conf
