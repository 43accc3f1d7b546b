"""CTC prefix beam search with n-gram shallow fusion and trie-based biasing.

Search keeps, per collapsed prefix, separate blank / non-blank log masses and
accumulated LM and bias scores.  Keyword chunks are matched incrementally by
an Aho-Corasick automaton; completing a chunk adds its affine weight
(-alpha * LM(chunk) + beta) to the hypothesis score before pruning, so rare
keywords survive the beam.

Each frame is expanded at once in numpy: every beam prefix by every live
unit, scored from two tables whose columns are the units live in some
frame of the posteriorgram.  One holds a row per LM state (the log10
increment of each unit), which ``lm.ScoreRows`` fills on first use and
keeps for one search; the other is the automaton's next-move table, built
once by ``KeywordTrie.finalize``, so no trie row is built during a search.
Only the extensions that land on a prefix already in the beam are summed
in scalar code, and only the beam_size survivors get a prefix tuple and an
LM state.  An LM state is an integer, its row in the table, and the state
after a unit comes from ``ScoreRows.after``, which computes each (state,
unit) transition once a search.  Without an LM or a trie the search runs
the same path over neutral tables: an order-1 LM whose every increment is
0.0, and the empty trie, whose one bonus is 0.0.  So the search biases
exactly when it is given a trie, and a trie built with alpha = beta = 0
gives the N-best lists of no trie.
The float operations are those of the plain per-(prefix, unit) loop, in the
same order, so the N-best lists equal that loop's bit for bit.  The spans of
the N-best come from one ``align_viterbi`` call, which aligns every
non-empty hypothesis in one batched trellis.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentInfeasible, InvalidKeyword, UnitSetMismatch
from .lm import NGramLM, ScoreRows
from .pgram import Posteriorgram, align_viterbi
from .units import UnitSet

LN10 = math.log(10.0)
LN2 = math.log(2.0)
NEG_INF = -math.inf


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 10
    nbest: int = 10
    lm_weight: float = 0.3
    token_min_logp: float = -12.0

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.nbest < 1:
            raise ValueError("nbest must be >= 1")
        if not math.isfinite(self.lm_weight):
            raise ValueError(f"lm_weight must be finite, got {self.lm_weight}")


@dataclass(frozen=True)
class BiasConfig:
    alpha: float = 1.0
    beta: float = 4.0
    chunk_len: int = 4

    def __post_init__(self):
        if self.chunk_len < 1:
            raise ValueError("chunk_len must be >= 1")
        for name in ("alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")


class KeywordTrie:
    """Aho-Corasick automaton over unit-id sequences with accept weights.

    ``finalize`` turns the goto and failure links into one next-move table:
    ``next[n, u]`` is the node reached from node n on unit u, and a unit at
    or past the table's width (1 + the largest unit id inserted) leads to
    the root.  The table holds node ids in the narrowest unsigned type
    that fits the last one: uint8 up to 256 nodes, then uint16.
    ``node_bonus[n]`` sums the weights of every chunk that ends at n, its
    own and those of the nodes on its failure chain.
    """

    def __init__(self):
        self.goto: list[dict[int, int]] = [{}]
        self.fail: list[int] = [0]
        self.weight: list[float] = [0.0]  # summed over the chunks ending here
        self.next: np.ndarray | None = None  # filled by finalize
        self.node_bonus: np.ndarray | None = None

    def insert(self, seq: list[int], weight: float) -> None:
        assert self.next is None
        node = 0
        for u in seq:
            nxt = self.goto[node].get(u)
            if nxt is None:
                nxt = len(self.goto)
                self.goto[node][u] = nxt
                self.goto.append({})
                self.fail.append(0)
                self.weight.append(0.0)
            node = nxt
        self.weight[node] += weight

    def finalize(self) -> None:
        """Fill ``fail``, ``next`` and ``node_bonus`` in BFS order, so a
        node's failure target, which is shallower, is complete before the
        node: the node's row and bonus start from the target's, its goto
        edges overwrite the row, and each child fails to the node the
        target moves to on the child's unit."""
        width = 1 + max((u for edges in self.goto for u in edges), default=0)
        self.next = np.zeros((len(self.goto), width),
                             dtype=np.min_scalar_type(len(self.goto) - 1))
        self.node_bonus = np.array(self.weight)
        queue = deque([0])
        while queue:
            node = queue.popleft()
            f = self.fail[node]
            if node:
                self.next[node] = self.next[f]
                self.node_bonus[node] += self.node_bonus[f]
            for u, n in self.goto[node].items():
                self.fail[n] = int(self.next[f, u]) if node else 0
                self.next[node, u] = n
                queue.append(n)


def build_bias_trie(keywords: list[list[int]], lm: NGramLM | None,
                    cfg: BiasConfig, unit_names=None) -> KeywordTrie:
    """Chunk each keyword to at most chunk_len units and insert with Eq-style
    affine weights computed from the chunk's LM score (no sentence boundaries)."""
    if lm is not None and unit_names is None:
        raise ValueError("an LM needs unit_names to score keyword chunks")
    trie = KeywordTrie()
    for kw in keywords:
        if not kw:
            raise InvalidKeyword("empty keyword")
        for start in range(0, len(kw), cfg.chunk_len):
            chunk = kw[start:start + cfg.chunk_len]
            if lm is not None and cfg.alpha != 0.0:
                lm_score = lm.score_sequence([unit_names[u] for u in chunk])
            else:
                lm_score = 0.0
            weight = -cfg.alpha * lm_score + cfg.beta
            trie.insert(chunk, weight)
    trie.finalize()
    return trie


@dataclass
class NBestEntry:
    """One hypothesis, its fields in the order write_nbest writes them."""
    text: str
    tokens: tuple[int, ...]
    score_am: float     # natural log CTC mass
    score_lm: float     # log10
    score_bias: float
    score_total: float  # natural log; am + lm_weight*ln10*lm + bias
    spans: list[tuple[int, int]]  # [start, end) frames of each token


def logaddexp(x: float, y: float) -> float:
    """numpy's scalar ``np.logaddexp`` (``npy_logaddexp``) bit for bit, on
    Python floats."""
    if x == y:
        return x + LN2
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))
    return d  # NaN


def prefix_beam_search(pg: Posteriorgram, us: UnitSet,
                       lm: NGramLM | None = None,
                       trie: KeywordTrie | None = None,
                       cfg: BeamConfig = BeamConfig()) -> list[NBestEntry]:
    if pg.unit_set_id != us.id:
        raise UnitSetMismatch(f"pg has units {pg.unit_set_id!r}, expected {us.id!r}")
    if pg.num_units != len(us):
        raise UnitSetMismatch("unit count mismatch")
    blank = us.blank_index
    lp = pg.logp.astype(np.float64)
    live_at = lp > cfg.token_min_logp
    # rows cover only the units some frame can extend a prefix by, so a
    # row costs what the utterance uses, not the whole inventory
    cols = np.flatnonzero(live_at.any(axis=0))
    cols = cols[cols != blank]
    col_of = np.full(len(us), -1)
    col_of[cols] = np.arange(len(cols))
    lmw = cfg.lm_weight * LN10  # applied to log10 LM increments
    # log10 LM increment of each column's unit, one row per LM state;
    # without an LM, of an order-1 LM whose every unigram is log10 p = 0.0
    names = [us.units[u] for u in cols]
    rows = ScoreRows(lm or _flat_lm(names), names)
    # next trie node on each column's unit, one row per node; without a
    # trie, of the empty one: a root row, bonus 0.0
    trie = trie or build_bias_trie([], None, BiasConfig())
    inside = cols < trie.next.shape[1]  # later units lead to the root
    trie_next = np.zeros((len(trie.next), len(cols)), dtype=np.intp)
    trie_next[:, inside] = trie.next[:, cols[inside]]

    # the beam, one entry per collapsed prefix: blank / non-blank log
    # masses, accumulated log10 LM score and bias, its LM state's row and
    # its trie node
    prefixes = [()]
    pb, pnb = np.zeros(1), np.full(1, NEG_INF)
    lm10, bias = np.zeros(1), np.zeros(1)
    lm_id = np.array([rows.id(())])
    node = np.zeros(1, dtype=np.intp)

    for t in range(pg.num_frames):
        row, live = lp[t], live_at[t]
        units = np.flatnonzero(live)
        units = units[units != blank]
        at = col_of[units]  # their columns in the rows
        n, m = len(prefixes), len(units)
        last = np.array([p[-1] if p else -1 for p in prefixes], dtype=np.intp)
        # the array loop of np.logaddexp is the one its scalar call runs
        ptot = np.logaddexp(pb, pnb)

        # every prefix again: after a blank, or after a repeat of its last
        # unit (the parent's extension onto it is added below)
        stay_b = ptot + row[blank] if live[blank] else np.full(n, NEG_INF)
        stay_nb = np.where((last >= 0) & live[last], pnb + row[last], NEG_INF)

        # every prefix extended by every live unit; after its own last unit
        # only the blank-ended mass starts a new token
        ext = np.where(units == last[:, None], pb[:, None],
                       ptot[:, None]) + row[units]
        ext_lm = lm10[:, None] + rows.table[lm_id[:, None], at]
        ext_node = trie_next[node[:, None], at]
        ext_bias = bias[:, None] + trie.node_bonus[ext_node]
        ext_score = ext + lmw * ext_lm + ext_bias

        # an extension that is already in the beam adds its mass there:
        # slot 1 then holds at most two terms, and logaddexp is symmetric
        column = np.full(len(us), -1)
        column[units] = np.arange(m)
        where = {p: k for k, p in enumerate(prefixes)}
        for k, p in enumerate(prefixes):
            i = where.get(p[:-1]) if p else None
            if i is not None and column[p[-1]] >= 0:
                j = column[p[-1]]
                stay_nb[k] = logaddexp(stay_nb[k], ext[i, j])
                ext_score[i, j] = NEG_INF
        stay_score = np.logaddexp(stay_b, stay_nb) + lmw * lm10 + bias

        # candidate c < n is prefix c, c >= n extends prefix (c-n) // m by
        # unit (c-n) % m; a candidate with no path mass scores -inf
        score = np.concatenate([stay_score, ext_score.ravel()])
        keep = np.flatnonzero(score > NEG_INF)
        if not len(keep):
            raise AlignmentInfeasible(f"utterance {pg.utt_id!r}: no unit "
                                      f"above token_min_logp at frame {t}")
        if len(keep) > cfg.beam_size:
            # the beam_size best by (-score, prefix): those at or above the
            # beam_size-th score, ties there broken by the prefix
            kth = np.partition(score, -cfg.beam_size)[-cfg.beam_size]
            keep = np.flatnonzero(score >= kth)
            if len(keep) > cfg.beam_size:
                keep = sorted(keep.tolist(), key=lambda c: (
                    -score[c], _candidate(c, prefixes, units)))
                keep = np.array(keep[:cfg.beam_size])

        new_prefixes, new_lm_id = [], []
        lm_ids = lm_id.tolist()
        for c in keep.tolist():
            new_prefixes.append(_candidate(c, prefixes, units))
            if c < n:
                new_lm_id.append(lm_ids[c])
                continue
            i, j = divmod(c - n, m)
            new_lm_id.append(rows.after(lm_ids[i], int(at[j])))
        prefixes = new_prefixes
        lm_id = np.array(new_lm_id, dtype=np.intp)
        node = np.concatenate([node, ext_node.ravel()])[keep]
        pb = np.concatenate([stay_b, np.full(n * m, NEG_INF)])[keep]
        pnb = np.concatenate([stay_nb, ext.ravel()])[keep]
        lm10 = np.concatenate([lm10, ext_lm.ravel()])[keep]
        bias = np.concatenate([bias, ext_bias.ravel()])[keep]

    pb, pnb, lm10, bias = pb.tolist(), pnb.tolist(), lm10.tolist(), bias.tolist()
    am = [logaddexp(b, nb) for b, nb in zip(pb, pnb)]
    total = [a + lmw * s + b for a, s, b in zip(am, lm10, bias)]
    ranked = sorted(range(len(prefixes)),
                    key=lambda k: (-total[k], prefixes[k]))[:cfg.nbest]
    # one trellis aligns every non-empty prefix of the N-best
    spans = iter(align_viterbi(pg, [prefixes[k] for k in ranked
                                    if prefixes[k]]))
    out = []
    for k in ranked:
        prefix = prefixes[k]
        out.append(NBestEntry(
            tokens=prefix, text="".join(us.units[u] for u in prefix),
            score_am=am[k], score_lm=lm10[k], score_bias=bias[k],
            score_total=total[k], spans=next(spans) if prefix else []))
    return out


def _flat_lm(names: list[str]) -> NGramLM:
    """The order-1 LM of the tokens names in which each has log10 p = 0.0."""
    words = sorted(set(names))
    return NGramLM(words, [np.arange(len(words))], [np.zeros(len(words))], [])


def _candidate(c: int, prefixes: list, units) -> tuple[int, ...]:
    """The prefix of candidate c of a frame (see prefix_beam_search)."""
    n = len(prefixes)
    if c < n:
        return prefixes[c]
    i, j = divmod(c - n, len(units))
    return prefixes[i] + (int(units[j]),)
