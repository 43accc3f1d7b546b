"""Posteriorgram type, bit-exact binary I/O, alignment, and the synthetic oracle.

The posteriorgram is the sole acoustic interface: a T x V matrix of natural-log
posteriors over a unit set, one row per frame.  The synthetic generator stands
in for the acoustic model so every downstream algorithm can be verified at desk
scale against enumeration oracles; its frame layout, ``token_layout``, also
times the reference keyword occurrences.

``ctc_trellis`` is the one CTC recursion: it runs a batch of token sequences
side by side in one trellis, a frame at a time, for forward masses
(``kws.score_ctc``) and for best paths (``align_viterbi``, which aligns a
whole N-best list in one call).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import AlignmentInfeasible, BadFormat, InvalidTranscript
from .units import UnitSet

MAGIC = b"BKWS"
VERSION = 1
LOG_ZERO = -1.0e4  # finite floor instead of -inf keeps recursions NaN-free
ROW_NORM_TOL = 1e-3
DEFAULT_FRAME_PERIOD_S = 0.04


@dataclass(frozen=True)
class Posteriorgram:
    utt_id: str
    unit_set_id: str
    frame_period_s: float
    logp: np.ndarray  # float32, shape (T, V)

    def __post_init__(self):
        lp = np.asarray(self.logp, dtype=np.float32)
        if lp.ndim != 2:
            raise BadFormat("logp must be 2-D")
        object.__setattr__(self, "logp", lp)

    @property
    def num_frames(self) -> int:
        return self.logp.shape[0]

    @property
    def num_units(self) -> int:
        return self.logp.shape[1]

    def validate(self) -> None:
        if not (np.isfinite(self.frame_period_s) and self.frame_period_s > 0):
            raise BadFormat(f"frame period {self.frame_period_s!r} is not > 0")
        if not self.num_units:
            raise BadFormat("no units")
        lp = self.logp.astype(np.float64)
        if lp.shape[0]:
            if not lp.max() <= 1e-6:  # NaN fails this test too
                raise BadFormat("log posterior above 0 or NaN")
            norms = np.logaddexp.reduce(lp, axis=1)
            if np.abs(norms).max() > ROW_NORM_TOL:
                raise BadFormat(f"row normalization off by {np.abs(norms).max():g}")


@dataclass(frozen=True)
class SynthConfig:
    frames_per_token: int = 4
    blank_gap: int = 1
    noise: float = 0.0
    confusion: dict[int, list[tuple[int, float]]] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.frames_per_token < 1:
            raise ValueError("frames_per_token must be >= 1")
        if self.blank_gap < 0:
            raise ValueError("blank_gap must be >= 0")
        if not 0.0 <= self.noise < 1.0:
            raise ValueError("noise must be in [0, 1)")


def _row(v: int, target: int, noise: float, partners, rng) -> np.ndarray:
    p = np.zeros(v, dtype=np.float64)
    if noise == 0.0:
        p[target] = 1.0
    else:
        p[target] = 1.0 - noise
        if partners:
            ids = np.array([u for u, _ in partners])
            w = np.array([max(w, 0.0) for _, w in partners], dtype=np.float64)
            w = w / w.sum()
            p[ids] += noise * w
        else:
            others = np.ones(v, dtype=np.float64)
            others[target] = 0.0
            p += noise * others / others.sum()
        # per-frame jitter keeps argmax errors stochastic rather than systematic
        jitter = rng.uniform(0.25, 1.75, size=v)
        p *= jitter
        p /= p.sum()
    lp = np.full(v, LOG_ZERO, dtype=np.float64)
    nz = p > 0
    lp[nz] = np.log(p[nz])
    return lp


def synth_generate(transcript: list[int], us: UnitSet, cfg: SynthConfig,
                   utt_id: str = "synth",
                   frame_period_s: float = DEFAULT_FRAME_PERIOD_S) -> Posteriorgram:
    """One row per frame: the ``token_layout`` spans hold their tokens, all
    else is blank, and blank_gap blank frames follow the last token."""
    v = len(us)
    for tok in transcript:
        if tok == us.blank_index or not 0 <= tok < v:
            raise InvalidTranscript(f"token {tok} invalid")
    spans = token_layout(transcript, cfg)
    targets = [us.blank_index] * ((spans[-1][1] if spans else cfg.blank_gap)
                                  + cfg.blank_gap)
    for tok, (start, end) in zip(transcript, spans):
        targets[start:end] = [tok] * (end - start)
    rng = np.random.default_rng(cfg.seed)
    conf = cfg.confusion or {}
    rows = [_row(v, t, cfg.noise, conf.get(t), rng) for t in targets]
    logp = np.array(rows, dtype=np.float64) if rows else np.zeros((0, v))
    return Posteriorgram(utt_id=utt_id, unit_set_id=us.id,
                         frame_period_s=frame_period_s,
                         logp=logp.astype(np.float32))


def token_layout(transcript: list[int], cfg: SynthConfig) -> list[tuple[int, int]]:
    """Frame spans [start, end) the generator assigns to each transcript token:
    blank_gap blanks, then frames_per_token frames a token."""
    spans = []
    pos = cfg.blank_gap
    prev = None
    for tok in transcript:
        if tok == prev:
            # repeated tokens need a separating blank to survive CTC collapse
            pos += 1
        spans.append((pos, pos + cfg.frames_per_token))
        pos += cfg.frames_per_token
        prev = tok
    return spans


def ctc_min_frames(tokens: list[int]) -> int:
    rep = sum(1 for a, b in zip(tokens, tokens[1:]) if a == b)
    return len(tokens) + rep


def ctc_trellis(lp: np.ndarray, seqs, plus=np.logaddexp) -> np.ndarray:
    """CTC recursion of each token sequence of seqs over the T x V log
    posteriors lp, all sequences in one trellis.

    Returns the (T, N, S) array over each sequence's blank-interleaved
    states (blank, tok_1, blank, ..., tok_L, blank), the blank being unit 0,
    padded with -inf states to S = 2 * (longest L) + 1.  A state is entered
    from itself, from the state before it, or by skipping the blank two
    states back when it holds a token differing from the previous one.
    ``plus=np.logaddexp`` gives forward masses, ``np.maximum`` best-path
    (Viterbi) scores.

    A frame of every sequence is one row of N * S cells plus one -inf cell
    (``_ctc_layout``): each cell gathers its stay, step and skip sources
    from the row before in one ``take`` and reduces them with plus in that
    order, so every real state gets the float operations
    ``plus(plus(stay, step), skip) + emit`` of a one-sequence recursion.
    """
    alpha, _ = _ctc_rows(lp, seqs, plus)
    return alpha[:, :-1].reshape(len(alpha), len(seqs), -1)


def _ctc_rows(lp: np.ndarray, seqs, plus) -> tuple[np.ndarray, np.ndarray]:
    """The recursion of ``ctc_trellis`` as (T, N * S + 1) rows, the -inf
    cell last, with the (3, N * S) sources of ``_ctc_layout``."""
    T = lp.shape[0]
    for tokens in seqs:
        if T < max(ctc_min_frames(tokens), 1):
            raise AlignmentInfeasible(f"{len(tokens)} tokens do not fit in "
                                      f"{T} frames")
    states, src = _ctc_layout(seqs)
    N, S = states.shape
    emit = lp[:, states.ravel()].astype(np.float64)
    alpha = np.full((T, N * S + 1), -np.inf)
    first = np.flatnonzero((states >= 0) & (np.arange(S) < 2))
    alpha[0, first] = emit[0, first]
    for t in range(1, T):
        np.add(plus.reduce(alpha[t - 1].take(src), axis=0), emit[t],
               out=alpha[t, :-1])
    return alpha, src


def _ctc_layout(seqs) -> tuple[np.ndarray, np.ndarray]:
    """The (N, S) units of seqs' blank-interleaved states, -1 at a padded
    state, and the (3, N * S) flat stay, step and skip sources of each
    state in a row of N * S cells plus one -inf cell at N * S: a padded
    state, and a source not allowed, points at the -inf cell."""
    N = len(seqs)
    S = 2 * max(map(len, seqs)) + 1
    states = np.full((N, S), -1, dtype=np.intp)
    for n, tokens in enumerate(seqs):
        states[n, :2 * len(tokens) + 1] = 0
        states[n, 1:2 * len(tokens):2] = tokens
    real = states >= 0
    cell = np.arange(N * S).reshape(N, S)
    src = np.full((3, N, S), N * S, dtype=np.intp)
    src[0][real] = cell[real]
    src[1, :, 1:][real[:, 1:]] = cell[:, :-1][real[:, 1:]]
    skip = (states[:, 2:] > 0) & (states[:, 2:] != states[:, :-2])
    src[2, :, 2:][skip] = cell[:, :-2][skip]
    return states, src.reshape(3, N * S)


def align_viterbi(pg: Posteriorgram, seqs) -> list[list[tuple[int, int]]]:
    """Best CTC alignment (max over paths) of each token sequence of seqs
    against pg, all in one trellis.

    Returns, per sequence, one [start, end) frame pair per token: the frames
    its non-blank state occupies.  Ties go to staying in a state, then to
    stepping one state, then to skipping a blank.  The backtrack follows
    every sequence's path at once, choosing at each frame among the three
    sources of the path's cells only.
    """
    if not seqs:
        return []
    flat, src = _ctc_rows(pg.logp, seqs, np.maximum)
    T, N = len(flat), len(seqs)
    S = src.shape[1] // N
    lens = np.array([len(tokens) for tokens in seqs])
    last = np.arange(N) * S + 2 * lens  # each sequence's last blank
    # best path must end in the last blank or the last token state
    fin = flat[T - 1]
    cells = np.where((lens > 0) & (fin[last - 1] > fin[last]), last - 1, last)
    if not np.isfinite(fin[cells]).all():
        raise AlignmentInfeasible("no feasible path")
    # a source not allowed is the -inf cell, so it never wins on a
    # feasible path
    path = np.empty((T, N), dtype=np.intp)
    path[T - 1] = cells
    pick = np.arange(N)
    for t in range(T - 1, 0, -1):
        options = src[:, cells]
        cells = options[flat[t - 1].take(options).argmax(axis=0), pick]
        path[t - 1] = cells
    # a path never moves back, so each token state holds one run of frames,
    # and the paths laid end to end are sorted
    order = path.T.ravel()
    odd = np.concatenate([n * S + np.arange(1, 2 * k, 2)
                          for n, k in enumerate(lens.tolist())])
    base = np.repeat(np.arange(N) * T, lens)
    pairs = zip((np.searchsorted(order, odd, "left") - base).tolist(),
                (np.searchsorted(order, odd, "right") - base).tolist())
    return [list(islice(pairs, k)) for k in lens.tolist()]


# ---------------------------------------------------------------------------
# binary I/O


def write_pgram(pg: Posteriorgram, path) -> None:
    pg.validate()
    uid = pg.utt_id.encode("utf-8")
    sid = pg.unit_set_id.encode("utf-8")
    head = struct.pack(f"<4sHH{len(uid)}sH{len(sid)}sdII", MAGIC, VERSION,
                       len(uid), uid, len(sid), sid, pg.frame_period_s,
                       *pg.logp.shape)
    with open(path, "wb") as fh:
        fh.write(head + pg.logp.astype("<f4").tobytes(order="C"))


class PgramHeader(NamedTuple):
    utt_id: str
    unit_set_id: str
    frame_period_s: float
    num_frames: int
    num_units: int


def read_pgram(path) -> Posteriorgram:
    """Read a binary posteriorgram; anything that does not fit is BadFormat."""
    try:
        with open(path, "rb") as fh:
            head = _read_header(fh)
            data = fh.read()
        logp = np.frombuffer(data, dtype="<f4").reshape(head.num_frames,
                                                        head.num_units)
        pg = Posteriorgram(head.utt_id, head.unit_set_id,
                           head.frame_period_s, logp.copy())
        pg.validate()
    except BadFormat as exc:
        raise BadFormat(f"{path}: {exc}") from None
    return pg


def read_pgram_header(path) -> PgramHeader:
    """The header of a binary posteriorgram, read without its frames; a
    header that does not fit its file is BadFormat, as in ``read_pgram``."""
    try:
        with open(path, "rb") as fh:
            return _read_header(fh)
    except BadFormat as exc:
        raise BadFormat(f"{path}: {exc}") from None


def _read_header(fh) -> PgramHeader:
    """The header of the posteriorgram file fh, read from its start; the
    rest of the file must be the T x V float32 it declares, and the frame
    period must be > 0."""
    try:
        if struct.unpack("<4sH", fh.read(6)) != (MAGIC, VERSION):
            raise BadFormat(f"not a version {VERSION} posteriorgram")
        ids = []
        for _ in range(2):  # utterance id, unit-set id
            (n,) = struct.unpack("<H", fh.read(2))
            ids.append(fh.read(n).decode("utf-8"))
        period, T, V = struct.unpack("<dII", fh.read(16))
    except struct.error:
        raise BadFormat("truncated header") from None
    except UnicodeDecodeError:
        raise BadFormat("an id is not UTF-8") from None
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != T * V * 4:
        raise BadFormat(f"{size} data bytes, header says {T}x{V} float32")
    if not (np.isfinite(period) and period > 0):  # as validate checks it
        raise BadFormat(f"frame period {period!r} is not > 0")
    return PgramHeader(ids[0], ids[1], period, T, V)
