"""Independent brute-force oracles used to freeze expected values.

The CTC oracles enumerate paths explicitly and the LM reference spells out
the textbook recursion; nothing here shares code with the implementations
under test, except that the phrase-distance reference prices a substitution
with ``kwspot.phonetics.syllable_distance``, the per-pair cost the kernel's
matrix is built from, and the reference prefix beam search scores with
``NGramLM.score_token``.  The one-sequence CTC recursion (``ctc_trellis``),
its scalar Viterbi backtrack (``align_viterbi``) and ``score_ctc`` over it
are the references of the batched trellis in ``kwspot.pgram``; the
reference beam search aligns each N-best entry with its own
``align_viterbi`` call.  The reference keyword detector walks every window
of every hypothesis, scores every candidate with its own ``score_ctc`` call
and merges all of the utterance's hits at once (``merge_stages``), the
merge ``kwspot.kws.decide`` does per keyword.  The reference threshold sweep
realigns the hits at or above each threshold with
``kwspot.metrics.align_hits``.
"""

import itertools
import math

import numpy as np

from kwspot.decoder import BeamConfig, NBestEntry
from kwspot.errors import AlignmentInfeasible, UnitSetMismatch
from kwspot.kws import Hit, Stage
from kwspot.metrics import align_hits, atwv, f1
from kwspot.pgram import ctc_min_frames
from kwspot.phonetics import syllable_distance

LN10 = math.log(10.0)
NEG_INF = -math.inf


def collapse(path, blank=0):
    out, prev = [], None
    for s in path:
        if s != prev and s != blank:
            out.append(s)
        prev = s
    return tuple(out)


def greedy_path(pg, blank=0):
    """Per-frame argmax of a posteriorgram plus its CTC collapse."""
    frames = np.argmax(pg.logp, axis=1)
    return list(collapse(frames.tolist(), blank)), frames


def enumerate_label_masses(logp, blank=0):
    """Map collapsed label sequence -> total natural-log path mass."""
    T, V = logp.shape
    masses = {}
    for path in itertools.product(range(V), repeat=T):
        lp = sum(logp[t, s] for t, s in enumerate(path))
        lab = collapse(path, blank)
        masses[lab] = np.logaddexp(masses[lab], lp) if lab in masses else lp
    return masses


def best_label(logp, blank=0):
    masses = enumerate_label_masses(logp, blank)
    # lexicographic tie-break matches the decoder contract
    return min(masses.items(), key=lambda kv: (-kv[1], kv[0]))


def path_sum_for_label(logp, label, blank=0):
    """Natural-log mass of all paths collapsing exactly to label."""
    masses = enumerate_label_masses(logp, blank)
    return masses.get(tuple(label), -math.inf)


def best_alignment(logp, label, blank=0):
    """(best log score, best path) over paths collapsing to label."""
    T, V = logp.shape
    best, best_path = -math.inf, None
    for path in itertools.product(range(V), repeat=T):
        if collapse(path, blank) != tuple(label):
            continue
        lp = sum(logp[t, s] for t, s in enumerate(path))
        if lp > best:
            best, best_path = lp, path
    return best, best_path


def ctc_trellis(lp, tokens, plus=np.logaddexp):
    """The CTC recursion of one token sequence over the T x V log posteriors
    lp: the (T, 2L+1) matrix over the blank-interleaved states, with
    ``plus(plus(stay, step), skip) + emit`` per cell, a frame at a time."""
    T = lp.shape[0]
    if T < max(ctc_min_frames(tokens), 1):
        raise AlignmentInfeasible(f"{len(tokens)} tokens do not fit in {T} frames")
    states = np.zeros(2 * len(tokens) + 1, dtype=np.intp)
    states[1::2] = tokens
    S = len(states)
    emit = lp[:, states].astype(np.float64)
    alpha = np.full((T, S), -np.inf)
    alpha[0, :2] = emit[0, :2]
    skip = np.zeros(S, dtype=bool)
    skip[2:] = (states[2:] != 0) & (states[2:] != states[:-2])
    step = np.full(S, -np.inf)
    jump = np.full(S, -np.inf)  # stays -inf wherever skip is False
    for t in range(1, T):
        prev = alpha[t - 1]
        step[1:] = prev[:-1]
        np.copyto(jump[2:], prev[:-2], where=skip[2:])
        alpha[t] = plus(plus(prev, step), jump) + emit[t]
    return alpha


def align_viterbi(pg, tokens):
    """The best CTC alignment of one token sequence against pg, by a scalar
    backtrack through ``ctc_trellis``'s max-trellis: one [start, end) frame
    pair per token.  Ties go to staying in a state, then to stepping one
    state, then to skipping a blank."""
    if not tokens:
        return []
    delta = ctc_trellis(pg.logp, tokens, plus=np.maximum)
    T, S = delta.shape
    # best path must end in the last blank or the last token state
    end = S - 1 if delta[T - 1, S - 1] >= delta[T - 1, S - 2] else S - 2
    if not np.isfinite(delta[T - 1, end]):
        raise AlignmentInfeasible("no feasible path")
    path = np.zeros(T, dtype=np.int64)
    s = end
    for t in range(T - 1, 0, -1):
        path[t] = s
        prev = delta[t - 1]
        best, arg = prev[s], s
        if s >= 1 and prev[s - 1] > best:
            best, arg = prev[s - 1], s - 1
        if (s % 2 and s >= 3 and tokens[s // 2] not in (0, tokens[s // 2 - 1])
                and prev[s - 2] > best):
            arg = s - 2
        s = arg
    path[0] = s
    # the path never moves back, so each token state holds one run of frames
    odd = np.arange(1, S, 2)
    return list(zip(np.searchsorted(path, odd, "left").tolist(),
                    np.searchsorted(path, odd, "right").tolist()))


def score_ctc(pg, units, window):
    """Natural log of the total mass of window paths collapsing to units,
    by the one-sequence ``ctc_trellis``; both final states are summed."""
    ws, we = window
    if not 0 <= ws < we <= pg.num_frames:
        raise AlignmentInfeasible(f"bad window [{ws}, {we})")
    alpha = ctc_trellis(pg.logp[ws:we], list(units))
    return float(np.logaddexp.reduce(alpha[-1, -2:]))


def random_pgram_logp(rng, T, V):
    """Random normalized rows as natural logs (float32-safe magnitudes)."""
    p = rng.dirichlet(np.ones(V), size=T) if T else np.zeros((0, V))
    p = np.maximum(p, 1e-8)
    p = p / p.sum(axis=1, keepdims=True)
    return np.log(p)


def train_reference(lines, order, discount):
    """Interpolated absolute discounting as the textbook recursion.

    Returns (probs, backoffs, vocab) in log10, the way ``kwspot.lm.train``
    stores them: every lower-order probability is re-derived recursively
    from the counts, highest order first.
    """
    bos, eos, unk, log10_zero = "<s>", "</s>", "<unk>", -99.0

    def log10(p):
        return math.log10(p) if p > 0 else log10_zero

    sents, vocab = [], set()
    for line in lines:
        toks = [ch for ch in line.strip() if not ch.isspace()] \
            if isinstance(line, str) else list(line)
        if toks:
            sents.append([bos] * (order > 1) + toks + [eos])
            vocab.update(toks)
    counts = [{} for _ in range(order + 1)]
    for sent in sents:
        for k in range(1, order + 1):
            for i in range(len(sent) - k + 1):
                gram = tuple(sent[i:i + k])
                if gram != (bos,):
                    counts[k][gram] = counts[k].get(gram, 0) + 1
    ctx_total = [{} for _ in range(order + 1)]
    ctx_types = [{} for _ in range(order + 1)]
    for k in range(2, order + 1):
        for gram, c in counts[k].items():
            ctx_total[k][gram[:-1]] = ctx_total[k].get(gram[:-1], 0) + c
            ctx_types[k][gram[:-1]] = ctx_types[k].get(gram[:-1], 0) + 1
    full_vocab = vocab | {eos, unk}
    uni_total = sum(counts[1].values())
    uniform = 1.0 / (len(vocab) + 2)

    def interp_p(gram):
        k = len(gram)
        if k == 1:
            c = counts[1].get(gram, 0)
            lam = discount * len(counts[1]) / uni_total
            return max(c - discount, 0.0) / uni_total + lam * uniform
        ctx = gram[:-1]
        total = ctx_total[k][ctx]
        lam = discount * ctx_types[k][ctx] / total
        return (max(counts[k][gram] - discount, 0.0) / total
                + lam * interp_p(gram[1:]))

    probs = {(w,): log10(interp_p((w,))) for w in full_vocab}
    probs[(bos,)] = log10_zero
    backoffs = {}
    for k in range(2, order + 1):
        for gram in counts[k]:
            probs[gram] = log10(interp_p(gram))
        for ctx, total in ctx_total[k].items():
            backoffs[ctx] = log10(discount * ctx_types[k][ctx] / total)
    return probs, backoffs, full_vocab


def syllable_phrase_distance(a, b, table):
    """Levenshtein over two Syllable lists, each substitution priced by
    syllable_distance capped at one indel, normalized by the longer length."""
    if not a and not b:
        return 0.0
    la, lb = len(a), len(b)
    prev = [j * table.indel_cost for j in range(lb + 1)]
    for i in range(1, la + 1):
        cur = [i * table.indel_cost] + [0.0] * lb
        for j in range(1, lb + 1):
            sub = prev[j - 1] + min(
                syllable_distance(a[i - 1], b[j - 1], table), table.indel_cost)
            cur[j] = min(sub, prev[j] + table.indel_cost,
                         cur[j - 1] + table.indel_cost)
        prev = cur
    return prev[lb] / max(la, lb)


def unit_phrase_distance(a, b, sub, indel_cost):
    """Levenshtein over the unit ids a and b, one window at a time, with
    substitutions from the nested list ``sub``, normalized by the longer
    length."""
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


def _windows(nbest, k):
    """(rank, start, window) for every k-token window of nbest."""
    for rank, entry in enumerate(nbest):
        toks = tuple(entry.tokens)
        for i in range(len(toks) - k + 1):
            yield rank, i, toks[i:i + k]


def merge_stages(hits):
    """Within each (utt, kw), in that order, merge overlapping hits keeping
    the higher score: hits are taken by (-score, start frame, end frame,
    stage name), and one overlapping a hit kept before is dropped; each
    group's kept hits are ordered by start frame."""
    by_key = {}
    for h in hits:
        by_key.setdefault((h.utt_id, h.kw_id), []).append(h)
    out = []
    for key in sorted(by_key):
        group = sorted(by_key[key], key=lambda h: (-h.norm_score, h.start_frame,
                                                   h.end_frame, h.stage.value))
        kept = []
        for h in group:
            if any(h.start_frame < k.end_frame and k.start_frame < h.end_frame
                   for k in kept):
                continue
            kept.append(h)
        out.extend(sorted(kept, key=lambda h: h.start_frame))
    return out


def detect(pg_char, pg_syll, nbest_char, nbest_syll, keywords, fuzzy, cfg):
    """Keyword detection candidate by candidate: every keyword walks every
    window of every hypothesis, each distinct (window, keyword) distance is
    computed once per call by the scalar DP, and every candidate is scored
    by its own ``score_ctc`` call (the one-sequence recursion above)."""
    sub = fuzzy.sub.tolist() if fuzzy is not None else None
    memo = {}

    def exact(nbest, kw):
        return [(rank, i, i + len(kw))
                for rank, i, window in _windows(nbest, len(kw))
                if window == kw]

    hits = []
    for kw in keywords:
        cands = []
        for rank, i, j in exact(nbest_char, kw.char_units):
            cands.append((Stage.CHAR, nbest_char, pg_char, kw.char_units,
                          rank, i, j))
        if nbest_syll is not None and kw.syll_units:
            for rank, i, j in exact(nbest_syll, kw.syll_units):
                cands.append((Stage.SYLLABLE, nbest_syll, pg_syll,
                              kw.syll_units, rank, i, j))
        if fuzzy is not None:
            k = len(kw.char_units)
            for rank, i, window in _windows(nbest_char, k):
                if window == kw.char_units:
                    continue
                key = (window, kw.char_units)
                if key not in memo:
                    memo[key] = unit_phrase_distance(window, kw.char_units,
                                                     sub, fuzzy.indel_cost)
                if memo[key] < cfg.fuzzy_threshold:
                    cands.append((Stage.FUZZY, nbest_char, pg_char,
                                  kw.char_units, rank, i, i + k))
        for stage, nbest, pg, units, rank, ti, tj in cands:
            spans = nbest[rank].spans
            ws, we = spans[ti][0], spans[tj - 1][1]
            try:
                raw = score_ctc(pg, units, (ws, we))
            except AlignmentInfeasible:
                if stage is not Stage.FUZZY:
                    raise
                continue
            score = raw / len(units) if cfg.length_norm else raw
            hits.append(Hit(utt_id=pg.utt_id, kw_id=kw.id, stage=stage,
                            start_frame=ws, end_frame=we,
                            start_s=ws * pg.frame_period_s,
                            end_s=we * pg.frame_period_s, norm_score=score))
    merged = merge_stages(hits)
    for h in merged:
        h.decision = h.norm_score >= cfg.decision_threshold
    return merged


class _PrefixInfo:
    """LM / bias state attached to one collapsed prefix (pure function of it)."""
    __slots__ = ("lm_state", "lm_log10", "trie_node", "bias_bonus")

    def __init__(self, lm_state, lm_log10, trie_node, bias_bonus):
        self.lm_state = lm_state
        self.lm_log10 = lm_log10
        self.trie_node = trie_node
        self.bias_bonus = bias_bonus


def trie_step(trie, node, unit):
    """One goto/failure transition of a finalized KeywordTrie."""
    while True:
        nxt = trie.goto[node].get(unit)
        if nxt is not None:
            return nxt
        if node == 0:
            return 0
        node = trie.fail[node]


def prefix_beam_search(pg, us, lm=None, trie=None, cfg=BeamConfig()):
    """The CTC prefix beam search as a scalar loop: one ``score_token`` call
    and one scalar ``np.logaddexp`` per (prefix, live unit), and a full sort
    of every candidate each frame."""
    if pg.unit_set_id != us.id:
        raise UnitSetMismatch(f"pg has units {pg.unit_set_id!r}, expected {us.id!r}")
    if pg.num_units != len(us):
        raise UnitSetMismatch("unit count mismatch")
    blank = us.blank_index
    lp = pg.logp.astype(np.float64)
    use_bias = trie is not None
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
            node = trie_step(trie, pref_info.trie_node, unit)
            bonus = pref_info.bias_bonus + trie.node_bonus[node]
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
        out.append(NBestEntry(
            tokens=prefix, text="".join(us.units[u] for u in prefix),
            score_am=am, score_lm=i.lm_log10, score_bias=i.bias_bonus,
            score_total=am + lmw * i.lm_log10 + i.bias_bonus,
            spans=align_viterbi(pg, list(prefix)) if prefix else []))
    return out


def threshold_sweep(hits, refs, cfg, sweep_points=50):
    """``pipeline.evaluate``'s threshold sweep with one alignment per
    threshold: the hits scoring at or above it, aligned afresh."""
    scores = sorted(h.norm_score for h in hits)
    lo, hi = (scores[0], scores[-1]) if scores else (-1.0, 0.0)
    if hi <= lo:
        hi = lo + 1.0
    sweep = []
    for i in range(sweep_points):
        theta = lo + (hi - lo) * i / max(sweep_points - 1, 1)
        tp, fp, fn = align_hits([h for h in hits if h.norm_score >= theta],
                                refs, cfg)
        _, _, s_f1 = f1(len(tp), len(fp), len(fn))
        s_atwv, _ = atwv(tp, fp, refs, cfg)
        sweep.append({"threshold": theta, "f1": s_f1, "atwv": s_atwv})
    return sweep
