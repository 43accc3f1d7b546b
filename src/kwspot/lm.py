"""Backoff n-gram language model: training, scoring, ARPA import/export.

Training uses interpolated absolute discounting, which is hand-checkable at
toy scale and degenerates to MLE at D=0.  All stored values are log10, the
ARPA convention; the decoder converts to natural log once at the fusion
boundary.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

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


def train(lines, order: int = 4, discount: float = 0.75) -> NGramLM:
    """Interpolated absolute discounting over character-tokenized lines.

    P(w|c) = max(count(c,w)-D, 0)/count(c) + D*N1plus(c)/count(c) * P(w|c');
    unigrams interpolate with the uniform distribution over vocab + <unk>.
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

    counts = [Counter() for _ in range(order + 1)]  # counts[k]: k-grams
    for sent in sents:
        for k in range(1, order + 1):
            start = 0
            for i in range(start, len(sent) - k + 1):
                gram = tuple(sent[i:i + k])
                if k == 1 and gram == (BOS,):
                    continue  # <s> is context only, never predicted
                counts[k][gram] += 1
    # context totals and distinct-continuation counts
    ctx_total = [defaultdict(int) for _ in range(order + 1)]
    ctx_types = [defaultdict(int) for _ in range(order + 1)]
    for k in range(2, order + 1):
        for gram, c in counts[k].items():
            ctx_total[k][gram[:-1]] += c
            ctx_types[k][gram[:-1]] += 1

    lm = NGramLM(order=order, vocab=set(vocab) | {EOS, UNK})
    uni_total = sum(counts[1].values())
    uni_types = len(counts[1])
    uniform = 1.0 / (len(vocab) + 2)  # vocab plus </s> and <unk>

    def unigram_p(w):
        c = counts[1].get((w,), 0)
        lam = discount * uni_types / uni_total
        return max(c - discount, 0.0) / uni_total + lam * uniform

    def interp_p(gram):
        k = len(gram)
        if k == 1:
            return unigram_p(gram[0])
        ctx = gram[:-1]
        total = ctx_total[k][ctx]
        lam = discount * ctx_types[k][ctx] / total
        return (max(counts[k][gram] - discount, 0.0) / total
                + lam * interp_p(gram[1:]))

    for w in sorted(lm.vocab | {BOS}):
        if w == BOS:
            # <s> carries the conventional zero-prob unigram entry
            lm.probs[(w,)] = LOG10_ZERO
        else:
            lm.probs[(w,)] = _log10(unigram_p(w))
    for k in range(2, order + 1):
        for gram in counts[k]:
            lm.probs[gram] = _log10(interp_p(gram))
        for ctx, total in ctx_total[k].items():
            lam = discount * ctx_types[k][ctx] / total
            lm.backoffs[ctx] = _log10(lam)
    return lm


def _log10(p: float) -> float:
    return math.log10(p) if p > 0 else LOG10_ZERO


# ---------------------------------------------------------------------------
# ARPA text format


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
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    it = iter(lines)
    for ln in it:
        if ln.strip() == "\\data\\":
            break
    else:
        raise BadFormat("missing \\data\\ section")
    declared = {}
    for ln in it:
        ln = ln.strip()
        if not ln:
            break
        if not ln.startswith("ngram "):
            raise BadFormat(f"bad count line: {ln!r}")
        k, _, n = ln[len("ngram "):].partition("=")
        declared[int(k)] = int(n)
    if not declared:
        raise BadFormat("no ngram counts declared")
    order = max(declared)
    lm = NGramLM(order=order, vocab=set())
    seen = {k: 0 for k in declared}
    current = None
    for ln in it:
        s = ln.strip()
        if not s:
            continue
        if s == "\\end\\":
            current = None
            break
        if s.endswith("-grams:") and s.startswith("\\"):
            current = int(s[1:s.index("-")])
            continue
        if current is None:
            raise BadFormat(f"entry outside section: {s!r}")
        if "\t" in s:
            parts = s.split("\t")
            prob = float(parts[0])
            gram = tuple(parts[1].split())
            bow = float(parts[2]) if len(parts) > 2 and parts[2] else None
        else:
            fields = s.split()
            prob = float(fields[0])
            # trailing field is a backoff weight iff one extra field is present
            if len(fields) == current + 2:
                gram = tuple(fields[1:-1])
                bow = float(fields[-1])
            else:
                gram = tuple(fields[1:])
                bow = None
        if len(gram) != current:
            raise BadFormat(f"{len(gram)}-gram in \\{current}-grams: section")
        lm.probs[gram] = prob
        if bow is not None:
            lm.backoffs[gram] = bow
        seen[current] += 1
        if current == 1:
            lm.vocab.add(gram[0])
    for k, n in declared.items():
        if seen.get(k, 0) != n:
            raise BadFormat(f"declared {n} {k}-grams, found {seen.get(k, 0)}")
    lm.vocab.discard(BOS)
    lm.vocab |= {EOS, UNK}
    return lm
