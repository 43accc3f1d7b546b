"""Backoff n-gram language model: training, scoring, ARPA import/export.

Training uses interpolated absolute discounting, which is hand-checkable at
toy scale and degenerates to MLE at D=0.  All stored values are log10, the
ARPA convention; the decoder converts to natural log once at the fusion
boundary.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import BadFormat, EmptyCorpus

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

LOG10_ZERO = -99.0  # ARPA convention for zero-probability entries


@dataclass
class NGramLM:
    order: int
    vocab: set[str]
    # ngram tuple -> log10 prob; context tuple -> log10 backoff weight
    probs: dict[tuple[str, ...], float] = field(default_factory=dict)
    backoffs: dict[tuple[str, ...], float] = field(default_factory=dict)

    def _norm(self, token: str) -> str:
        return token if token in self.vocab or token == BOS else UNK

    def score_token(self, state: tuple[str, ...], token: str) -> tuple[float, tuple[str, ...]]:
        """Backoff score of token given state; returns (log10 p, next state).

        ``state`` is ``()``, ``(BOS,)`` or a state this method returned, so it
        holds only vocabulary words, BOS and UNK; only ``token`` is mapped.
        """
        token = self._norm(token)
        context = state[-(self.order - 1):] if self.order > 1 else ()
        score = 0.0
        while True:
            ngram = context + (token,)
            if ngram in self.probs:
                score += self.probs[ngram]
                break
            if not context:
                # unigram fallback; vocab always contains <unk>
                score += self.probs.get((token,), LOG10_ZERO)
                break
            score += self.backoffs.get(context, 0.0)
            context = context[1:]
        next_state = (state + (token,))[-(self.order - 1):] if self.order > 1 else ()
        return score, next_state

    def score_sequence(self, tokens: list[str], with_boundaries: bool = False) -> float:
        state: tuple[str, ...] = (BOS,) if with_boundaries else ()
        total = 0.0
        for tok in tokens:
            s, state = self.score_token(state, tok)
            total += s
        if with_boundaries:
            s, state = self.score_token(state, EOS)
            total += s
        return total


class ScoreRows:
    """``score_token`` of every token in a fixed list, one row per state.

    ``id(state)`` is the state's row in ``table``, filled on first use, so
    after ``k = id(state)``, ``table[k][i] == lm.score_token(state,
    tokens[i])[0]`` bit for bit; ``states[k]`` is the state of row k.  A new
    row may replace ``table`` by a larger array.  A token takes the log10
    probability of its n-gram after the longest context that has one, plus
    the backoff weights of the contexts longer than that one, summed left
    to right from 0.0 as ``score_token`` sums them.  So a row starts as the
    unigram level under every backoff, and each longer context then
    overwrites the tokens it has an n-gram for.  The rows and the level
    tables (which tokens have an n-gram after a context, and its log10
    probability) are memoised, so an instance should live only as long as
    its caller.
    """

    def __init__(self, lm: NGramLM, tokens):
        self.lm = lm
        self.ends = [(lm._norm(t),) for t in tokens]  # n-gram = context + end
        self._levels: dict[tuple[str, ...], tuple] = {}
        self._ids: dict[tuple[str, ...], int] = {}
        self.states: list[tuple[str, ...]] = []
        self.table = np.empty((16, len(self.ends)))

    def _level(self, context):
        level = self._levels.get(context)
        if level is None:
            get = self.lm.probs.get
            if context:
                found = [(i, p) for i, end in enumerate(self.ends)
                         if (p := get(context + end)) is not None]
            else:  # the unigram fallback covers every token
                found = [(i, get(end, LOG10_ZERO))
                         for i, end in enumerate(self.ends)]
            level = (np.array([i for i, _ in found], dtype=np.intp),
                     np.array([p for _, p in found], dtype=np.float64),
                     self.lm.backoffs.get(context, 0.0))
            self._levels[context] = level
        return level

    def id(self, state: tuple[str, ...]) -> int:
        i = self._ids.get(state)
        if i is not None:
            return i
        i = self._ids[state] = len(self.states)
        self.states.append(state)
        if i == len(self.table):
            self.table = np.concatenate(
                [self.table, np.empty_like(self.table)])
        order = self.lm.order
        context = state[-(order - 1):] if order > 1 else ()
        longer = []  # a level and the backoff summed over the ones above
        backoff = 0.0
        while context:
            idx, logp, weight = self._level(context)
            longer.append((idx, logp, backoff))
            backoff += weight
            context = context[1:]
        row = self.table[i]
        row[:] = backoff + self._level(())[1]
        for idx, logp, above in reversed(longer):
            row[idx] = above + logp
        return i


def train(lines, order: int = 4, discount: float = 0.75) -> NGramLM:
    """Interpolated absolute discounting over character-tokenized lines.

    P(w|c) = max(count(c,w)-D, 0)/count(c) + D*N1plus(c)/count(c) * P(w|c');
    unigrams interpolate with the uniform distribution over vocab + <unk>.
    Orders are built lowest first: every suffix of a counted k-gram is a
    counted (k-1)-gram, because <s> only ever starts a sentence.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 <= discount < 1.0:
        raise ValueError("discount must be in [0, 1)")
    sents = []
    vocab = set()
    for line in lines:
        toks = [ch for ch in line.strip() if not ch.isspace()] \
            if isinstance(line, str) else list(line)
        if not toks:
            continue
        sents.append([BOS] * (order > 1) + toks + [EOS])
        vocab.update(toks)
    if not sents:
        raise EmptyCorpus("no usable sentences")

    lm = NGramLM(order=order, vocab=vocab | {EOS, UNK})
    p: dict[tuple[str, ...], float] = {}  # the order below, as probabilities
    for k in range(1, order + 1):
        counts = Counter()
        for sent in sents:
            counts.update(zip(*(sent[j:] for j in range(k))))
        if k == 1:
            counts.pop((BOS,), None)  # <s> is context only, never predicted
            n = sum(counts.values())
            lam = discount * len(counts) / n
            uniform = 1.0 / (len(vocab) + 2)  # vocab plus </s> and <unk>
            p = {(w,): max(counts[(w,)] - discount, 0.0) / n + lam * uniform
                 for w in sorted(lm.vocab | {BOS})}
        else:
            total, types = Counter(), Counter()
            for gram, c in counts.items():
                total[gram[:-1]] += c
                types[gram[:-1]] += 1
            lams = {ctx: discount * types[ctx] / t for ctx, t in total.items()}
            p = {gram: max(c - discount, 0.0) / total[gram[:-1]]
                 + lams[gram[:-1]] * p[gram[1:]] for gram, c in counts.items()}
            lm.backoffs.update((ctx, _log10(lam)) for ctx, lam in lams.items())
        lm.probs.update((gram, _log10(prob)) for gram, prob in p.items())
    lm.probs[(BOS,)] = LOG10_ZERO  # the conventional entry for <s>
    return lm


def _log10(p: float) -> float:
    return math.log10(p) if p > 0 else LOG10_ZERO


# ---------------------------------------------------------------------------
# ARPA text format

_COUNT_LINE = re.compile(r"ngram\s+([0-9]+)\s*=\s*([0-9]+)")
_SECTION_LINE = re.compile(r"\\([0-9]+)-grams:")


def write_arpa(lm: NGramLM, path) -> None:
    by_order: dict[int, list] = {k: [] for k in range(1, lm.order + 1)}
    for gram in lm.probs:
        by_order[len(gram)].append(gram)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        for k in range(1, lm.order + 1):
            fh.write(f"ngram {k}={len(by_order[k])}\n")
        fh.write("\n")
        for k in range(1, lm.order + 1):
            fh.write(f"\\{k}-grams:\n")
            for gram in sorted(by_order[k]):
                line = f"{lm.probs[gram]:.17g}\t{' '.join(gram)}"
                if k < lm.order and gram in lm.backoffs:
                    line += f"\t{lm.backoffs[gram]:.17g}"
                fh.write(line + "\n")
            fh.write("\n")
        fh.write("\\end\\\n")


def read_arpa(path) -> NGramLM:
    """Load an ARPA backoff model; anything that does not fit is BadFormat.

    An entry is ``prob w1 .. wk [backoff]`` split on any whitespace, so a
    last field is a backoff exactly when the line has k+2 fields.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except UnicodeDecodeError as exc:
        raise BadFormat(f"{path}: not UTF-8 ({exc.reason})") from None
    it = iter(lines)
    for s in it:
        if s == "\\data\\":
            break
    else:
        raise BadFormat("missing \\data\\ section")
    declared = {}
    for s in it:
        if not s:
            break
        m = _COUNT_LINE.fullmatch(s)
        if m is None or int(m[1]) in declared:
            raise BadFormat(f"bad count line: {s!r}")
        declared[int(m[1])] = int(m[2])
    order = len(declared)
    if not order or sorted(declared) != list(range(1, order + 1)):
        raise BadFormat(f"ngram counts must declare orders 1..n, got "
                        f"{sorted(declared)}")
    lm = NGramLM(order=order, vocab=set())
    k = None
    for s in it:
        if not s:
            continue
        if s.startswith("\\"):
            if s == "\\end\\":
                break
            m = _SECTION_LINE.fullmatch(s)
            if m is None or int(m[1]) not in declared:
                raise BadFormat(f"bad or undeclared section: {s!r}")
            k = int(m[1])
            continue
        if k is None:
            raise BadFormat(f"entry outside section: {s!r}")
        fields = s.split()
        gram = tuple(fields[1:k + 1])
        if len(fields) not in (k + 1, k + 2) or gram in lm.probs:
            raise BadFormat(f"bad or repeated entry in \\{k}-grams: {s!r}")
        try:
            lm.probs[gram] = float(fields[0])
            if len(fields) == k + 2:
                lm.backoffs[gram] = float(fields[-1])
        except ValueError:
            raise BadFormat(f"bad number in {s!r}") from None
        if k == 1:
            lm.vocab.add(gram[0])
    else:
        raise BadFormat("missing \\end\\")
    if any(it):
        raise BadFormat("text after \\end\\")
    if not all(map(math.isfinite, [*lm.probs.values(), *lm.backoffs.values()])):
        raise BadFormat("non-finite probability or backoff weight")
    found = Counter(map(len, lm.probs))
    for k, n in declared.items():
        if found[k] != n:
            raise BadFormat(f"declared {n} {k}-grams, found {found[k]}")
    lm.vocab.discard(BOS)
    lm.vocab |= {EOS, UNK}
    return lm
