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

Set-up works on arrays, as KenLM builds its sorted tables (Heafield, "KenLM:
faster and smaller language model queries", WMT 2011).  ``train`` maps
tokens to integer ids and counts each order's k-grams with one ``np.unique``
of integer codes, built from the rank of each k-gram's (k-1)-gram prefix so
that no vocabulary size overflows them; it takes ``math.log10`` once per
distinct value.  ``write_arpa`` formats each distinct value once, and
``read_arpa`` parses one section at a time.
"""

from __future__ import annotations

import math
import re
import sys
from itertools import chain, compress, islice, repeat
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

    The sentences are one array of token ids.  Orders are counted lowest
    first: a k-gram's code is the rank of its (k-1)-gram prefix times the
    number of ids plus its last id, so codes stay below (distinct
    (k-1)-grams) x ids at any order, and ``np.unique`` of the codes of every
    k-gram that fits in its sentence gives the distinct k-grams sorted by
    context and their counts.  Each context's total and N1+ are sums over
    its run of k-grams; a k-gram's lower-order probability is its suffix's,
    the (k-1)-gram one position on, which is counted because <s> only ever
    starts a sentence.  The formula above is the same float operations, in
    the same order, on arrays; log10 is ``math.log10`` once per distinct
    value, because ``np.log10`` differs from it in the last bit.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 <= discount < 1.0:
        raise ValueError("discount must be in [0, 1)")
    sents = []
    vocab = set()
    for line in lines:
        toks = list("".join(line.split())) if isinstance(line, str) \
            else list(line)
        if toks:
            sents.append([BOS] * (order > 1) + toks + [EOS])
            vocab.update(toks)
    if not sents:
        raise EmptyCorpus("no usable sentences")

    lm = NGramLM(order=order, vocab=vocab | {EOS, UNK})
    words = sorted(lm.vocab | {BOS})
    ids = {w: i for i, w in enumerate(words)}
    nids = len(words)
    seq = np.fromiter(map(ids.__getitem__, chain.from_iterable(sents)),
                      dtype=np.int64)
    lens = [len(sent) for sent in sents]
    ends = np.repeat(np.cumsum(lens), lens)  # each position's sentence end
    count = np.bincount(seq, minlength=nids)
    count[ids[BOS]] = 0  # <s> is context only, never predicted
    n = int(count.sum())
    lam = discount * int(np.count_nonzero(count)) / n
    uniform = 1.0 / (len(vocab) + 2)  # vocab plus </s> and <unk>
    # rank of the (k-1)-gram at each position, and its probability by rank
    rank = seq
    lower = p = np.maximum(count - discount, 0.0) / n + lam * uniform
    start = np.arange(len(seq))  # the positions a k-gram fits at
    tables = []
    for k in range(2, order + 1):
        start = start[start + k <= ends[start]]
        grams, first, inverse, count = np.unique(
            rank[start] * nids + seq[start + k - 1], return_index=True,
            return_inverse=True, return_counts=True)
        at = start[first]  # a position of each distinct k-gram
        heads = np.flatnonzero(np.diff(grams // nids, prepend=-1))
        total = np.add.reduceat(count, heads)
        n1 = np.diff(heads, append=len(grams))
        lam = discount * n1 / total
        q = (np.maximum(count - discount, 0.0) / np.repeat(total, n1)
             + np.repeat(lam, n1) * lower[rank[at + 1]])
        contexts = seq[at[heads, None] + np.arange(k - 1)]
        tables.append((contexts, n1, grams % nids, q, lam))
        rank = np.empty_like(seq)
        rank[start] = inverse
        lower = q

    values = [p, *chain.from_iterable(t[3:] for t in tables)]
    distinct, inverse = np.unique(np.concatenate(values), return_inverse=True)
    logs = np.full(len(distinct), LOG10_ZERO)
    positive = distinct > 0
    logs[positive] = list(map(math.log10, distinct[positive].tolist()))
    # the log10 of each array of values, in their order
    logs = iter(np.split(logs[inverse], np.cumsum(list(map(len, values)))))
    names = np.array(words, dtype=object)
    lm.probs[()] = dict(zip(words, next(logs).tolist()))
    lm.probs[()][BOS] = LOG10_ZERO  # the conventional entry for <s>
    for contexts, n1, last, _, _ in tables:
        contexts = list(zip(*names[contexts].T.tolist()))
        # each context's dict takes the next n1 successors of the order
        successors = zip(names[last].tolist(), next(logs).tolist())
        lm.probs.update(zip(contexts, map(dict, map(
            islice, repeat(successors), n1.tolist()))))
        lm.backoffs.update(zip(contexts, next(logs).tolist()))
    return lm


# ---------------------------------------------------------------------------
# ARPA text format

_COUNT_LINE = re.compile(r"ngram\s+([0-9]+)\s*=\s*([0-9]+)")
_SECTION_LINE = re.compile(r"\\([0-9]+)-grams:")


def write_arpa(lm: NGramLM, path) -> None:
    """Each order's n-grams sorted, that is, by context, then by token.

    Each context's words are joined once for all its n-grams, and each
    distinct value of an order is formatted once: values are told apart by
    their bits, so 0.0 and -0.0 stay ``0`` and ``-0``.
    """
    by_order: dict[int, list] = {k: [] for k in range(1, lm.order + 1)}
    for context in lm.probs:
        by_order[len(context) + 1].append(context)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\" + "".join(
            f"\nngram {k}={sum(map(len, map(lm.probs.__getitem__, c)))}"
            for k, c in by_order.items()))
        for k, contexts in by_order.items():
            fh.write(f"\n\n\\{k}-grams:")
            fh.write("".join(_arpa_lines(lm, k, sorted(contexts))))
        fh.write("\n\n\\end\\\n")


def _arpa_lines(lm: NGramLM, k: int, contexts: list) -> list[str]:
    """Each line of the n-grams after contexts, which are sorted and of
    order k - 1, with a newline before it."""
    # per n-gram: its context's words and a space, its token, its log10
    # probability and its backoff or None
    heads, tokens, logps, backoffs = [], [], [], []
    for context in contexts:
        successors = lm.probs[context]
        ranked = sorted(successors)
        heads += [" ".join(context + ("",))] * len(ranked)
        tokens += ranked
        logps += map(successors.__getitem__, ranked)
        backoffs += ([lm.backoffs.get(context + (t,)) for t in ranked]
                     if k < lm.order else [None] * len(ranked))
    text = _format(logps + [b for b in backoffs if b is not None])
    after = iter(text[len(logps):])
    return [f"\n{p}\t{head}{token}" if b is None
            else f"\n{p}\t{head}{token}\t{next(after)}"
            for p, head, token, b in zip(text, heads, tokens, backoffs)]


def _format(values: list[float]) -> list[str]:
    """``f"{x:.17g}"`` of each value, formatted once per distinct bits."""
    bits, inverse = np.unique(np.array(values, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    text = np.array([f"{x:.17g}" for x in bits.view(np.float64).tolist()],
                    dtype=object)
    return text[inverse].tolist()


def read_arpa(path) -> NGramLM:
    """Load an ARPA backoff model; anything that does not fit is BadFormat.

    An entry is ``prob w1 .. wk [backoff]`` split on any whitespace, so a
    last field is a backoff exactly when the line has k+2 fields.  The
    entries between two lines that start with a backslash are read
    together, as one section.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(map(str.strip, fh))
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
    found = [0] * (order + 1)
    rest = list(it)
    k, begin = None, 0
    marks = compress(range(len(rest)), map(str.startswith, rest, repeat("\\")))
    for i in [*marks, len(rest)]:  # each section line, then the file's end
        entries = list(filter(None, rest[begin:i]))
        if entries:
            if k is None:
                raise BadFormat(f"entry outside section: {entries[0]!r}")
            _read_section(lm, k, entries)
            found[k] += len(entries)
        if i == len(rest):
            raise BadFormat("missing \\end\\")
        if rest[i] == "\\end\\":
            break
        m = _SECTION_LINE.fullmatch(rest[i])
        if m is None or int(m[1]) not in declared:
            raise BadFormat(f"bad or undeclared section: {rest[i]!r}")
        k, begin = int(m[1]), i + 1
    if any(rest[i + 1:]):
        raise BadFormat("text after \\end\\")
    if not all(map(math.isfinite, chain(lm.backoffs.values(), *map(
            dict.values, lm.probs.values())))):
        raise BadFormat("non-finite probability or backoff weight")
    for k, n in declared.items():
        if found[k] != n:
            raise BadFormat(f"declared {n} {k}-grams, found {found[k]}")
    lm.vocab = set(lm.probs.get((), ())) - {BOS} | {EOS, UNK}
    return lm


def _read_section(lm: NGramLM, k: int, entries: list[str]) -> None:
    """Add the entries of a \\k-grams section, each a stripped line that is
    not empty, to lm.  A run of entries with one context looks it up once."""
    probs, intern = lm.probs, sys.intern
    words = None  # the context words of the run
    for s in entries:
        fields = s.split()
        if fields[1:k] != words:
            words = fields[1:k]
            # one string object per distinct word, shared by every n-gram
            context = tuple(map(intern, words))
            successors = probs.get(context)
            if successors is None:
                successors = probs[context] = {}
        if len(fields) not in (k + 1, k + 2) or (
                word := intern(fields[k])) in successors:
            raise BadFormat(f"bad or repeated entry in \\{k}-grams: {s!r}")
        try:
            successors[word] = float(fields[0])
            if len(fields) == k + 2:
                # one tuple keys the backoff and, below the top order,
                # the successors
                gram = context + (word,)
                lm.backoffs[gram] = float(fields[-1])
                if k < lm.order and gram not in probs:
                    probs[gram] = {}
        except ValueError:
            raise BadFormat(f"bad number in {s!r}") from None
