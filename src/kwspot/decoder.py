"""CTC prefix beam search with n-gram shallow fusion and trie-based biasing.

Search keeps, per collapsed prefix, separate blank / non-blank log masses and
accumulated LM and bias scores.  Keyword chunks are matched incrementally by
an Aho-Corasick automaton; completing a chunk adds its affine weight
(-alpha * LM(chunk) + beta) to the hypothesis score before pruning, so rare
keywords survive the beam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidKeyword, UnitSetMismatch
from .lm import NGramLM
from .pgram import Posteriorgram, align_viterbi
from .units import UnitSet

LN10 = math.log(10.0)
NEG_INF = -math.inf


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 10
    nbest: int = 10
    lm_weight: float = 0.3
    token_min_logp: float = -12.0
    bias_enabled: bool = True

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.nbest < 1:
            raise ValueError("nbest must be >= 1")


@dataclass(frozen=True)
class BiasConfig:
    alpha: float = 1.0
    beta: float = 4.0
    chunk_len: int = 4

    def __post_init__(self):
        if self.chunk_len < 1:
            raise ValueError("chunk_len must be >= 1")


class KeywordTrie:
    """Aho-Corasick automaton over unit-id sequences with accept weights."""

    def __init__(self):
        self.goto: list[dict[int, int]] = [{}]
        self.fail: list[int] = [0]
        self.accepts: list[list[tuple[int, float]]] = [[]]
        self.node_bonus: list[float] = []  # filled by finalize
        self._final = False

    def insert(self, seq: list[int], chunk_id: int, weight: float) -> None:
        assert not self._final
        node = 0
        for u in seq:
            nxt = self.goto[node].get(u)
            if nxt is None:
                nxt = len(self.goto)
                self.goto[node][u] = nxt
                self.goto.append({})
                self.fail.append(0)
                self.accepts.append([])
            node = nxt
        self.accepts[node].append((chunk_id, weight))

    def finalize(self) -> None:
        """BFS failure links; node_bonus aggregates accept weights along them."""
        from collections import deque

        queue = deque()
        for u, n in self.goto[0].items():
            self.fail[n] = 0
            queue.append(n)
        order = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for u, n in self.goto[node].items():
                f = self.fail[node]
                while f and u not in self.goto[f]:
                    f = self.fail[f]
                self.fail[n] = self.goto[f].get(u, 0)
                queue.append(n)
        self.node_bonus = [sum(w for _, w in acc) for acc in self.accepts]
        for node in order:
            self.node_bonus[node] += self.node_bonus[self.fail[node]]
        self._final = True

    def step(self, node: int, unit: int) -> int:
        while True:
            nxt = self.goto[node].get(unit)
            if nxt is not None:
                return nxt
            if node == 0:
                return 0
            node = self.fail[node]

    def bonus(self, node: int) -> float:
        return self.node_bonus[node]


def build_bias_trie(keywords: list[list[int]], lm: NGramLM | None,
                    cfg: BiasConfig, unit_names=None) -> KeywordTrie:
    """Chunk each keyword to at most chunk_len units and insert with Eq-style
    affine weights computed from the chunk's LM score (no sentence boundaries)."""
    trie = KeywordTrie()
    chunk_id = 0
    for kw in keywords:
        if not kw:
            raise InvalidKeyword("empty keyword")
        for start in range(0, len(kw), cfg.chunk_len):
            chunk = kw[start:start + cfg.chunk_len]
            if lm is not None and cfg.alpha != 0.0:
                names = [unit_names[u] for u in chunk] if unit_names else [str(u) for u in chunk]
                lm_score = lm.score_sequence(names, with_boundaries=False)
            else:
                lm_score = 0.0
            weight = -cfg.alpha * lm_score + cfg.beta
            trie.insert(chunk, chunk_id, weight)
            chunk_id += 1
    trie.finalize()
    return trie


@dataclass
class NBestEntry:
    tokens: tuple[int, ...]
    text: str
    score_am: float     # natural log CTC mass
    score_lm: float     # log10
    score_bias: float
    score_total: float  # natural log; am + lm_weight*ln10*lm + bias
    spans: list = field(default_factory=list)


class _PrefixInfo:
    """LM / bias state attached to one collapsed prefix (pure function of it)."""
    __slots__ = ("lm_state", "lm_log10", "trie_node", "bias_bonus")

    def __init__(self, lm_state, lm_log10, trie_node, bias_bonus):
        self.lm_state = lm_state
        self.lm_log10 = lm_log10
        self.trie_node = trie_node
        self.bias_bonus = bias_bonus


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
    use_bias = trie is not None and cfg.bias_enabled
    lmw = cfg.lm_weight * LN10  # applied to log10 LM increments

    empty = ()
    info: dict[tuple[int, ...], _PrefixInfo] = {
        empty: _PrefixInfo((), 0.0, 0, 0.0)}
    # prefix -> [logp_blank, logp_nonblank]
    beam: dict[tuple[int, ...], list[float]] = {empty: [0.0, NEG_INF]}

    def extend_info(prefix, pref_info, unit):
        if prefix + (unit,) in info:
            return info[prefix + (unit,)]
        if lm is not None:
            inc, nxt_state = lm.score_token(pref_info.lm_state, us.units[unit])
            lm_log10 = pref_info.lm_log10 + inc
        else:
            nxt_state, lm_log10 = pref_info.lm_state, 0.0
        node, bonus = 0, 0.0
        if use_bias:
            node = trie.step(pref_info.trie_node, unit)
            bonus = pref_info.bias_bonus + trie.bonus(node)
        newi = _PrefixInfo(nxt_state, lm_log10, node, bonus)
        info[prefix + (unit,)] = newi
        return newi

    def total_score(prefix, masses):
        i = info[prefix]
        return (np.logaddexp(masses[0], masses[1])
                + lmw * i.lm_log10 + i.bias_bonus)

    for t in range(pg.num_frames):
        row = lp[t]
        active = np.nonzero(row > cfg.token_min_logp)[0]
        nxt: dict[tuple[int, ...], list[float]] = {}

        def add(prefix, slot, value):
            if value == NEG_INF:
                return
            masses = nxt.get(prefix)
            if masses is None:
                masses = [NEG_INF, NEG_INF]
                nxt[prefix] = masses
            masses[slot] = np.logaddexp(masses[slot], value)

        for prefix, (pb, pnb) in beam.items():
            pref_info = info[prefix]
            ptot = np.logaddexp(pb, pnb)
            for u in active:
                u = int(u)
                pu = row[u]
                if u == blank:
                    add(prefix, 0, ptot + pu)
                elif prefix and u == prefix[-1]:
                    # repeat frame extends the same collapsed prefix...
                    add(prefix, 1, pnb + pu)
                    # ...while a preceding blank starts a new token
                    extend_info(prefix, pref_info, u)
                    add(prefix + (u,), 1, pb + pu)
                else:
                    extend_info(prefix, pref_info, u)
                    add(prefix + (u,), 1, ptot + pu)

        if len(nxt) > cfg.beam_size:
            ranked = sorted(nxt.items(),
                            key=lambda kv: (-total_score(kv[0], kv[1]), kv[0]))
            nxt = dict(ranked[:cfg.beam_size])
        beam = nxt
        # keep LM/bias state only for surviving prefixes: memory stays
        # proportional to beam size times prefix length
        info = {p: info[p] for p in beam}

    ranked = sorted(beam.items(), key=lambda kv: (-total_score(kv[0], kv[1]), kv[0]))
    out = []
    for prefix, (pb, pnb) in ranked[:cfg.nbest]:
        i = info[prefix]
        am = float(np.logaddexp(pb, pnb))
        entry = NBestEntry(tokens=prefix,
                           text="".join(us.units[u] for u in prefix),
                           score_am=am, score_lm=i.lm_log10,
                           score_bias=i.bias_bonus,
                           score_total=am + lmw * i.lm_log10 + i.bias_bonus)
        if prefix:
            entry.spans = align_viterbi(pg, list(prefix), blank)
        out.append(entry)
    return out
