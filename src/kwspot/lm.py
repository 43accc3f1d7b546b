"""Backoff n-gram language model: training, scoring, ARPA import/export.

Training uses interpolated absolute discounting, which is hand-checkable at
toy scale and degenerates to MLE at D=0.  All stored values are log10, the
ARPA convention; the decoder converts to natural log once at the fusion
boundary.

The model is arrays of integer ids, as KenLM keeps its sorted tables
(Heafield, "KenLM: faster and smaller language model queries", WMT 2011),
grouped by context as in Pauls & Klein, "Faster and smaller n-gram language
models" (ACL 2011).  A word's id is its index in the sorted word list, so id
order is ARPA order.  Order k keeps its n-grams sorted by their code, the
rank of the (k-1)-gram prefix among order k-1's n-grams times the number of
ids plus the last word's id (the empty context is rank 0 of order 0), so
codes sort by (context, token) and stay below (number of (k-1)-grams) x ids
at any vocabulary size; they are int32 where that bound fits, else int64.
Beside each code is its log10 probability and, below the top order, its
log10 backoff weight, NaN where there is none (the reader rejects
non-finite values); nothing reads a top-order backoff, so none is kept.
An n-gram is found with ``np.searchsorted``; below the top order each
n-gram also keeps where its run of successors starts in the order above,
at the width of that order's codes, and whether it has a backoff or a
successor.  So an n-gram costs 12 bytes at the top order and 25 below it
while the bounds fit int32, and the model holds no Python object per
n-gram or per context.  Text appears only in ``words``, ``vocab``,
``read_arpa``, ``write_arpa`` and the string-level ``score_token`` /
``score_sequence``.

The contexts of a state that are n-grams, longest first, are its walk
(``NGramLM._walk``, extended a word at a time by ``NGramLM._extend``): the
one place the backoff rule is read, by ``score_token`` for one token and by
``ScoreRows`` for a row of tokens.

``train`` maps tokens to ids and counts each order's k-grams with one
``np.unique`` of their codes; it takes ``math.log10`` once per distinct
value.  ``write_arpa`` formats each distinct value once, and ``read_arpa``
parses one section at a time into compact arrays.
"""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_left
from collections import defaultdict
from itertools import chain, compress, repeat

import numpy as np

from .errors import BadFormat, EmptyCorpus

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

LOG10_ZERO = -99.0  # ARPA convention for zero-probability entries


class NGramLM:
    """A backoff model over ``words``, which are sorted; a word's id is its
    index.  ``codes[k - 1]`` and ``logp[k - 1]`` are order k's arrays, and
    below the top order so are ``backoff[k - 1]``, ``first[k - 1]`` and
    ``live[k - 1]`` (see the module docstring); the codes are stored at
    the width of their bound, and ``first`` and ``live`` are derived.
    ``vocab`` is the words with a unigram but <s>, plus </s> and <unk>; any
    other token is <unk>.
    """

    def __init__(self, words, codes, logp, backoff):
        self.order = len(codes)
        self.words = list(words)
        self.ids = {w: i for i, w in enumerate(self.words)}
        nids = len(self.words)
        # order k's codes are below (number of (k-1)-grams) x ids
        self.codes = [c.astype(np.int32 if n * nids < 2 ** 31 else np.int64,
                               copy=False)
                      for n, c in zip([1, *map(len, codes)], codes)]
        self.logp, self.backoff = logp, backoff
        self.vocab = ({self.words[i] for i in codes[0].tolist()} - {BOS}
                      | {EOS, UNK})
        # below the top order: where each n-gram's run of successors starts
        # in the order above (and where the last run ends), and which
        # n-grams have a backoff or a successor
        self.first = [
            longer.searchsorted(np.arange(len(c) + 1, dtype=longer.dtype)
                                * nids).astype(longer.dtype)
            for c, longer in zip(self.codes, self.codes[1:])]
        self.live = [~np.isnan(b) | (f[1:] > f[:-1])
                     for b, f in zip(backoff, self.first)]

    def _norm(self, token: str) -> str:
        return token if token in self.vocab or token == BOS else UNK

    def _find(self, k: int, r: int, w: int) -> int:
        """The rank of the order-k n-gram of the context of rank r in order
        k - 1 followed by word id w, or -1 if there is none."""
        # bisect reads Python ints; searchsorted would cast an int32 table
        # to int64 on every call with a Python int key
        codes = memoryview(self.codes[k - 1])
        code = r * len(self.words) + w
        i = bisect_left(codes, code)
        return i if i < len(codes) and codes[i] == code else -1

    def _extend(self, walk, w: int):
        """Yield the walk of a state followed by word id w (-1 for a word
        without an id), from the state's walk, one context at a time.  A
        walk is the (order, rank) of each context of the state that is an
        n-gram, longest first, then (0, 0), the empty context; the other
        contexts of the backoff walk weigh 0.0 and score nothing."""
        if w >= 0:
            for k, r in walk:
                if k + 1 < self.order:
                    r = self._find(k + 1, r, w)
                    if r >= 0:
                        yield k + 1, r
        yield 0, 0

    def _walk(self, state: tuple[str, ...]) -> list:
        walk = [(0, 0)]
        for w in state:
            walk = list(self._extend(walk, self.ids.get(w, -1)))
        return walk

    def score_token(self, state: tuple[str, ...], token: str) -> tuple[float, tuple[str, ...]]:
        """Backoff score of token given state; returns (log10 p, next state).

        ``state`` is ``()``, ``(BOS,)`` or a state this method returned, so it
        holds only vocabulary words, BOS and UNK; only ``token`` is mapped.
        The score is the n-gram after the longest context that has one, or
        LOG10_ZERO for a token without a unigram, after the backoffs of the
        longer contexts, summed from 0.0 longest first.
        """
        token = self._norm(token)
        t = self.ids[token]
        backoff = 0.0
        for k, r in self._walk(state):
            i = self._find(k + 1, r, t)
            if i >= 0:
                logp = float(self.logp[k][i])
                break
            if k and not math.isnan(b := float(self.backoff[k - 1][r])):
                backoff += b
        else:
            logp = LOG10_ZERO
        return backoff + logp, ((state + (token,))[-(self.order - 1):]
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

    def ngrams(self):
        """Each order's n-grams in ARPA order, lowest order first, as (word
        ids, one row per n-gram; log10 probabilities; log10 backoffs, NaN
        where there is none, as at every top-order n-gram).  The word of id
        i is ``words[i]``."""
        grams = np.zeros((1, 0), dtype=np.int64)  # the empty context
        backoffs = [*self.backoff,
                    np.broadcast_to(np.nan, len(self.codes[-1]))]
        for codes, logp, backoff in zip(self.codes, self.logp, backoffs):
            grams = np.column_stack([grams[codes // len(self.words)],
                                     codes % len(self.words)])
            yield grams, logp, backoff


def _find_all(codes: np.ndarray, want: np.ndarray):
    """Where each code of want would sit in the sorted codes, and which of
    them are there."""
    at = codes.searchsorted(want)
    if not len(codes):
        return at, np.zeros(len(want), dtype=bool)
    return at, codes.take(at, mode="clip") == want


class ScoreRows:
    """``score_token`` of every token in a fixed list, one row per state.

    ``id(state)`` is the row of a string state and ``after(k, c)`` the row
    of row k's state followed by column c's token, so after ``k =
    id(state)``, ``table[k][i] == lm.score_token(state, tokens[i])[0]`` bit
    for bit.  A row is keyed by its state's deciding context: the longest
    context of the state's walk that has a backoff or a successor.  The
    longer contexts of the backoff walk weigh 0.0 and write nothing, so
    every state with one deciding context has the same row, filled once,
    and the state after a token depends only on the deciding context.

    A row is filled in place.  Each word id writes to the first column of
    its word, or, without a column, to a spare last column of ``_cells``,
    of which ``table`` is the view without it; a column that repeats a word
    copies the first one's cell at the end.  A row starts as the unigrams
    under every backoff; then each longer context, shortest first, writes
    its successors under the backoffs above it, ``row[column of each
    successor] = above + logp[a:b]`` over the context's run a:b, so the
    longest context with an n-gram wins.  A new row may replace ``table``
    by a larger array.  Rows and transitions (each (row, column) pair
    computed once) are memoised, so an instance should live only as long
    as its caller.
    """

    def __init__(self, lm: NGramLM, tokens):
        self.lm = lm
        # each column's word id
        self.tokens = [lm.ids[lm._norm(t)] for t in tokens]
        width = len(self.tokens)
        # an intp divisor makes a run's word ids intp, the index type that
        # ``column`` reads fastest
        self.nids = np.intp(len(lm.words))
        # each word id's first column, written last to first
        self.column = np.full(len(lm.words), width)
        self.column[self.tokens[::-1]] = np.arange(width)[::-1]
        # the columns that repeat a word, and the word's first column
        first = self.column[self.tokens]
        self.repeats = np.flatnonzero(first != np.arange(width))
        self.repeated = first[self.repeats]
        self.unigrams = np.full(width + 1, LOG10_ZERO)
        self.unigrams[self.column[lm.codes[0]]] = lm.logp[0]  # codes are ids
        self.walks: list[list] = []  # each row's walk from its deciding one
        self._rows: dict[tuple[int, int], int] = {}  # deciding context -> row
        self._after: dict[tuple[int, int], int] = {}  # (row, column) -> row
        self._cells = np.empty((16, width + 1))
        self.table = self._cells[:, :width]

    def id(self, state: tuple[str, ...]) -> int:
        return self._row(iter(self.lm._walk(state)))

    def after(self, k: int, c: int) -> int:
        i = self._after.get((k, c))
        if i is None:
            i = self._after[k, c] = self._row(
                self.lm._extend(self.walks[k], self.tokens[c]))
        return i

    def _row(self, contexts) -> int:
        """The row of the state whose walk is the iterable contexts, read
        only as far as the deciding context when its row exists."""
        lm = self.lm
        for k, r in contexts:
            if not k or lm.live[k - 1][r]:
                break
        i = self._rows.get((k, r))
        if i is not None:
            return i
        i = self._rows[k, r] = len(self.walks)
        walk = [(k, r), *contexts]
        self.walks.append(walk)
        if i == len(self._cells):
            self._cells = np.concatenate(
                [self._cells, np.empty_like(self._cells)])
            self.table = self._cells[:, :-1]
        backoff, above = 0.0, []
        for k, r in walk[:-1]:
            above.append(backoff)
            b = lm.backoff[k - 1][r]
            if b == b:  # else NaN, no backoff
                backoff += b
        row = np.add(backoff, self.unigrams, out=self._cells[i])
        for (k, r), weight in zip(walk[-2::-1], above[::-1]):
            a, b = lm.first[k - 1][r:r + 2].tolist()
            if a < b:
                row[self.column[lm.codes[k][a:b] % self.nids]] = (
                    weight + lm.logp[k][a:b])
        if len(self.repeats):
            row[self.repeats] = row[self.repeated]
        return i


def train(lines, order: int = 4, discount: float = 0.75) -> NGramLM:
    """Interpolated absolute discounting over character-tokenized lines.

    P(w|c) = max(count(c,w)-D, 0)/count(c) + D*N1plus(c)/count(c) * P(w|c');
    unigrams interpolate with the uniform distribution over vocab + <unk>.

    The sentences are one array of token ids.  Orders are counted lowest
    first: a k-gram's code is the rank of its (k-1)-gram prefix times the
    number of ids plus its last id, the model's own layout, and
    ``np.unique`` of the codes of every k-gram that fits in its sentence
    gives the distinct k-grams sorted by context and their counts.  Each
    context's total and N1+ are sums over its run of k-grams; a k-gram's
    lower-order probability is its suffix's, the (k-1)-gram one position
    on, which is counted because <s> only ever starts a sentence.  The
    formula above is the same float operations, in the same order, on
    arrays; log10 is ``math.log10`` once per distinct value, because
    ``np.log10`` differs from it in the last bit.
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

    words = sorted(vocab | {BOS, EOS, UNK})
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
        tables.append((grams, grams[heads] // nids, q, lam))
        rank = np.empty_like(seq)
        rank[start] = inverse
        lower = q

    values = [p, *chain.from_iterable(t[2:] for t in tables)]
    distinct, inverse = np.unique(np.concatenate(values), return_inverse=True)
    logs = np.full(len(distinct), LOG10_ZERO)
    positive = distinct > 0
    logs[positive] = list(map(math.log10, distinct[positive].tolist()))
    # the log10 of each array of values, in their order
    logs = iter(np.split(logs[inverse], np.cumsum(list(map(len, values)))))
    codes, logp = [np.arange(nids)], [next(logs)]
    logp[0][ids[BOS]] = LOG10_ZERO  # the conventional entry for <s>
    backoff = []
    for grams, contexts, _, _ in tables:
        codes.append(grams)
        logp.append(next(logs))
        # each context's backoff sits on its n-gram, one order down
        backoff.append(np.full(len(codes[-2]), np.nan))
        backoff[-1][contexts] = next(logs)
    return NGramLM(words, codes, logp, backoff)


# ---------------------------------------------------------------------------
# ARPA text format

_COUNT_LINE = re.compile(r"ngram\s+([0-9]+)\s*=\s*([0-9]+)")
_SECTION_LINE = re.compile(r"\\([0-9]+)-grams:")


def write_arpa(lm: NGramLM, path) -> None:
    """Each order's n-grams in the order of ``lm.ngrams``: sorted, that is,
    by context, then by token.

    Each n-gram's words are joined by one string operation per word
    position over the order, and each distinct value of an order is
    formatted once: values are told apart by their bits, so 0.0 and -0.0
    stay ``0`` and ``-0``.
    """
    names = np.array(lm.words, dtype=object)
    orders = list(lm.ngrams())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\" + "".join(
            f"\nngram {k}={len(grams)}"
            for k, (grams, _, _) in enumerate(orders, 1)))
        for k, (grams, logp, backoff) in enumerate(orders, 1):
            fh.write(f"\n\n\\{k}-grams:")
            has = ~np.isnan(backoff)
            text = _format(np.concatenate([logp, backoff[has]]))
            lines = "\n" + text[:len(logp)] + "\t" + names[grams[:, 0]]
            for j in range(1, k):
                lines = lines + " " + names[grams[:, j]]
            lines[has] = lines[has] + "\t" + text[len(logp):]
            fh.write("".join(lines.tolist()))
        fh.write("\n\n\\end\\\n")


def _format(values: np.ndarray) -> np.ndarray:
    """``f"{x:.17g}"`` of each value, formatted once per distinct bits, as
    an array of objects."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([f"{x:.17g}" for x in bits.view(np.float64).tolist()],
                    dtype=object)
    return text[inverse]


def read_arpa(path) -> NGramLM:
    """Load an ARPA backoff model; anything that does not fit is BadFormat.

    An entry is ``prob w1 .. wk [backoff]`` split on any whitespace, so a
    last field is a backoff exactly when the line has k+2 fields.  The
    entries between two lines that start with a backslash are read
    together, as one section, into compact arrays; each order is then
    coded and sorted at once.  The codes need every n-gram's (k-1)-gram
    prefix, so an n-gram without one is BadFormat, as is a repeated n-gram.
    A backoff on a top-order n-gram weighs no context and is dropped.
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
    # a word's number is its place in the order of first use: looking up a
    # new word numbers it
    numbers: defaultdict[str, int] = defaultdict()
    numbers.default_factory = numbers.__len__
    # per order: word numbers, log10 probabilities, backoffs (NaN if none)
    # and how many backoffs the entries gave
    sections = {k: [array("q"), array("d"), array("d"), 0] for k in declared}
    rest = list(it)
    k, begin = None, 0
    marks = compress(range(len(rest)), map(str.startswith, rest, repeat("\\")))
    for i in [*marks, len(rest)]:  # each section line, then the file's end
        entries = list(filter(None, rest[begin:i]))
        if entries:
            if k is None:
                raise BadFormat(f"entry outside section: {entries[0]!r}")
            sections[k][3] += _read_section(k, entries, numbers.__getitem__,
                                            *sections[k][:3])
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
    words = sorted(numbers.keys() | {BOS, EOS, UNK})
    ids = {w: i for i, w in enumerate(words)}
    to_id = np.array([ids[w] for w in numbers], dtype=np.int64)
    codes, logp, backoff = [], [], []
    for k in range(1, order + 1):
        grams, probs, backoffs, given = sections[k]
        probs, backoffs = np.array(probs), np.array(backoffs)
        if not (np.isfinite(probs).all()
                and np.count_nonzero(np.isfinite(backoffs)) == given):
            raise BadFormat("non-finite probability or backoff weight")
        if len(probs) != declared[k]:
            raise BadFormat(f"declared {declared[k]} {k}-grams, found "
                            f"{len(probs)}")
        grams = to_id[np.array(grams, dtype=np.int64)].reshape(-1, k)
        rank = np.zeros(len(grams), dtype=np.int64)
        for j in range(k - 1):  # the rank of each prefix in its order
            rank, found = _find_all(codes[j], rank * len(words) + grams[:, j])
            if not found.all():
                gram = " ".join(words[w] for w in grams[~found][0])
                raise BadFormat(f"{k}-gram {gram!r} has no {k - 1}-gram "
                                f"prefix")
        code = rank * len(words) + grams[:, -1]
        by_code = np.argsort(code, kind="stable")
        code = code[by_code]
        if (repeated := np.diff(code) == 0).any():
            gram = grams[by_code[1:][repeated][0]]
            raise BadFormat(f"repeated {k}-gram: "
                            f"{' '.join(words[w] for w in gram)!r}")
        codes.append(code)
        logp.append(probs[by_code])
        if k < order:
            backoff.append(backoffs[by_code])
    return NGramLM(words, codes, logp, backoff)


def _read_section(k: int, entries: list[str], number, grams: array,
                  probs: array, backoffs: array) -> int:
    """Append the entries of a \\k-grams section, each a stripped line that
    is not empty: each n-gram's k word numbers (``number(word)``) to
    grams, its log10 probability to probs and its backoff, or NaN, to
    backoffs.  Returns how many backoffs the entries gave."""
    given = 0
    for s in entries:
        fields = s.split()
        if len(fields) not in (k + 1, k + 2):
            raise BadFormat(f"bad entry in \\{k}-grams: {s!r}")
        try:
            probs.append(float(fields[0]))
            backoffs.append(float(fields[-1]) if len(fields) == k + 2
                            else math.nan)
        except ValueError:
            raise BadFormat(f"bad number in {s!r}") from None
        grams.extend(map(number, fields[1:k + 1]))
        given += len(fields) - k - 1
    return given
