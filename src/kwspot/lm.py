"""Backoff n-gram language model: training, scoring, ARPA import/export.

Training uses interpolated absolute discounting, which is hand-checkable at
toy scale and degenerates to MLE at D=0.  All stored values are log10, the
ARPA convention; the decoder converts to natural log once at the fusion
boundary.

The model is one table grouped by context, as in Pauls & Klein, "Faster and
smaller n-gram language models" (ACL 2011), kept as plain dicts:
``probs[context][token]`` is the n-gram ``context + (token,)``, so a
context's successors are read without probing, and a context shares its
tuple key with its backoff weight.  ``NGramLM.backoff_walk`` is the one
place the backoff rule is written; ``score_token`` scores one token with it
and ``ScoreRows`` a row of tokens.  ``next_state`` is the one place the
state after a token is written.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter, defaultdict
from itertools import chain
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
    # context tuple -> token -> log10 prob of context + (token,), with the
    # unigrams under (); context tuple -> log10 backoff weight
    probs: dict[tuple[str, ...], dict[str, float]] = field(default_factory=dict)
    backoffs: dict[tuple[str, ...], float] = field(default_factory=dict)

    def _norm(self, token: str) -> str:
        return token if token in self.vocab or token == BOS else UNK

    def backoff_walk(self, state: tuple[str, ...]):
        """Yield (context, backoff weights of the longer contexts summed
        left to right from 0.0), from the longest context of state to ()."""
        context = state[-(self.order - 1):] if self.order > 1 else ()
        backoff = 0.0
        while context:
            yield context, backoff
            backoff += self.backoffs.get(context, 0.0)
            context = context[1:]
        yield context, backoff

    def score_token(self, state: tuple[str, ...], token: str) -> tuple[float, tuple[str, ...]]:
        """Backoff score of token given state; returns (log10 p, next state).

        ``state`` is ``()``, ``(BOS,)`` or a state this method returned, so it
        holds only vocabulary words, BOS and UNK; only ``token`` is mapped.
        The score is the n-gram after the longest context that has one, or
        LOG10_ZERO for a token without a unigram, after the backoffs above.
        """
        token = self._norm(token)
        for context, backoff in self.backoff_walk(state):
            logp = self.probs.get(context, _NONE).get(token)
            if logp is not None:
                break
        else:
            logp = LOG10_ZERO
        return backoff + logp, self.next_state(state, token)

    def next_state(self, state: tuple[str, ...], token: str) -> tuple[str, ...]:
        """The state after token, as ``score_token`` returns it."""
        return ((state + (self._norm(token),))[-(self.order - 1):]
                if self.order > 1 else ())

    def score_sequence(self, tokens: list[str]) -> float:
        """Summed log10 score of tokens from the empty state, without
        sentence boundaries."""
        state: tuple[str, ...] = ()
        total = 0.0
        for tok in tokens:
            s, state = self.score_token(state, tok)
            total += s
        return total


_NONE: dict[str, float] = {}  # no successors; never written to


class ScoreRows:
    """``score_token`` of every token in a fixed list, one row per state.

    ``id(state)`` is the state's row in ``table``, filled on first use, so
    after ``k = id(state)``, ``table[k][i] == lm.score_token(state,
    tokens[i])[0]`` bit for bit; ``states[k]`` is the state of row k.  A new
    row may replace ``table`` by a larger array.  A row starts as the
    unigram row under every backoff of ``lm.backoff_walk``; then each longer
    context, shortest first, writes its successors into their columns under
    the backoffs above it, so the longest context with an n-gram wins.  The
    rows are memoised, so an instance should live only as long as its
    caller.
    """

    def __init__(self, lm: NGramLM, tokens):
        self.lm = lm
        self.columns: dict[str, list[int]] = {}  # token -> its columns
        for i, t in enumerate(tokens):
            self.columns.setdefault(lm._norm(t), []).append(i)
        unigrams = lm.probs.get((), _NONE)
        self.unigrams = np.array([unigrams.get(lm._norm(t), LOG10_ZERO)
                                  for t in tokens], dtype=np.float64)
        self._ids: dict[tuple[str, ...], int] = {}
        self.states: list[tuple[str, ...]] = []
        self.table = np.empty((16, len(tokens)))

    def id(self, state: tuple[str, ...]) -> int:
        i = self._ids.get(state)
        if i is not None:
            return i
        i = self._ids[state] = len(self.states)
        self.states.append(state)
        if i == len(self.table):
            self.table = np.concatenate(
                [self.table, np.empty_like(self.table)])
        *longer, (_, backoff) = self.lm.backoff_walk(state)
        row = (backoff + self.unigrams).tolist()
        for context, above in reversed(longer):
            for token, logp in self.lm.probs.get(context, _NONE).items():
                for c in self.columns.get(token, ()):
                    row[c] = above + logp
        self.table[i] = row
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
    p: dict[tuple[str, ...], dict[str, float]] = {}  # one order, as probs
    for k in range(1, order + 1):
        counts = Counter()
        for sent in sents:
            counts.update(zip(*(sent[j:] for j in range(k))))
        if k == 1:
            counts.pop((BOS,), None)  # <s> is context only, never predicted
            n = sum(counts.values())
            lam = discount * len(counts) / n
            uniform = 1.0 / (len(vocab) + 2)  # vocab plus </s> and <unk>
            p = {(): {w: max(counts[(w,)] - discount, 0.0) / n + lam * uniform
                      for w in lm.vocab}}
        else:
            grouped = defaultdict(dict)  # context -> token -> count
            for gram, c in counts.items():
                grouped[gram[:-1]][gram[-1]] = c
            below, p = p, {}
            for ctx, successors in grouped.items():
                total = sum(successors.values())
                lam = discount * len(successors) / total
                lower = below[ctx[1:]]
                p[ctx] = {w: max(c - discount, 0.0) / total + lam * lower[w]
                          for w, c in successors.items()}
                lm.backoffs[ctx] = _log10(lam)
        lm.probs.update((ctx, {w: _log10(x) for w, x in q.items()})
                        for ctx, q in p.items())
    lm.probs[()][BOS] = LOG10_ZERO  # the conventional entry for <s>
    return lm


def _log10(p: float) -> float:
    return math.log10(p) if p > 0 else LOG10_ZERO


# ---------------------------------------------------------------------------
# ARPA text format

_COUNT_LINE = re.compile(r"ngram\s+([0-9]+)\s*=\s*([0-9]+)")
_SECTION_LINE = re.compile(r"\\([0-9]+)-grams:")


def write_arpa(lm: NGramLM, path) -> None:
    """Each order's n-grams sorted, that is, by context, then by token."""
    by_order: dict[int, list] = {k: [] for k in range(1, lm.order + 1)}
    for context in lm.probs:
        by_order[len(context) + 1].append(context)
    out = ["\\data\\"]
    out += [f"ngram {k}={sum(len(lm.probs[c]) for c in contexts)}"
            for k, contexts in by_order.items()]
    for k, contexts in by_order.items():
        out.append(f"\n\\{k}-grams:")
        backoffs = lm.backoffs if k < lm.order else {}
        for context in sorted(contexts):
            for token, logp in sorted(lm.probs[context].items()):
                gram = context + (token,)
                line = f"{logp:.17g}\t{' '.join(gram)}"
                out.append(line if (b := backoffs.get(gram)) is None
                           else f"{line}\t{b:.17g}")
    out.append("\n\\end\\\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out))


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
    found = [0] * (order + 1)
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
        # one string object per distinct word, shared by every n-gram
        gram = tuple(map(sys.intern, fields[1:k + 1]))
        successors = lm.probs.get(context := gram[:-1], _NONE)
        if len(fields) not in (k + 1, k + 2) or gram[-1] in successors:
            raise BadFormat(f"bad or repeated entry in \\{k}-grams: {s!r}")
        if successors is _NONE:
            successors = lm.probs[context] = {}
        try:
            successors[gram[-1]] = float(fields[0])
            if len(fields) == k + 2:
                # one tuple keys the backoff and, below the top order,
                # the successors
                lm.backoffs[gram] = float(fields[-1])
                if k < order and gram not in lm.probs:
                    lm.probs[gram] = {}
        except ValueError:
            raise BadFormat(f"bad number in {s!r}") from None
        found[k] += 1
    else:
        raise BadFormat("missing \\end\\")
    if any(it):
        raise BadFormat("text after \\end\\")
    if not all(map(math.isfinite, chain(lm.backoffs.values(), *map(
            dict.values, lm.probs.values())))):
        raise BadFormat("non-finite probability or backoff weight")
    for k, n in declared.items():
        if found[k] != n:
            raise BadFormat(f"declared {n} {k}-grams, found {found[k]}")
    lm.vocab = set(lm.probs.get((), ())) - {BOS} | {EOS, UNK}
    return lm
