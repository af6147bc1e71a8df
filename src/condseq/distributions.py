"""Finite-horizon sequence distributions: HMMs and explicit tables.

Both distribution types expose the same duck-typed surface used throughout the
package:

- ``horizon`` / ``n_symbols`` attributes,
- ``joint_prob(seq)`` for full- or partial-length sequences,
- ``conditional_prob(history, future)``,
- ``next_symbol_probs(history)``,
- ``sample_futures(history, rng, size, steps=None)``, the one simulator: a
  ``(size, steps)`` int64 array holding the first ``steps`` symbols of
  ``size`` futures of ``history`` (all ``T - len(history)`` by default),
- ``sample_conditional(history, rng, size=None)``, the same draws as tuples.

Truncated draws consume the random stream exactly like full ones: a draw with
``steps=s`` equals the first ``s`` columns of a full draw from an equally
seeded generator, and leaves the generator in the same state, so the next
draw is identical too.  Stopping early only skips simulation work.

Conditioning on a zero-probability history follows different conventions per
type: an HMM resets its state belief to uniform at the step where the
probability dies and keeps filtering (so conditionals stay well defined), while
a :class:`TableDist` raises (there is no latent state to fall back on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sequences import Seq, all_seqs, rows_as_seqs, seq_count, seq_to_index

# Guard for every exhaustive enumeration over O^T sequences.
ENUM_CAP = 2**20

_COL_ATOL = 1e-12  # stochasticity tolerance for HMM parameter columns
_TABLE_ATOL = 1e-9  # total-mass tolerance for explicit tables


class EnumerationCapError(RuntimeError):
    """Raised when an exhaustive operation would exceed ``ENUM_CAP`` sequences."""


class ZeroProbabilityHistory(ValueError):
    """Raised by table distributions when conditioning on a null history."""


def _check_enum(n_symbols: int, length: int) -> None:
    if seq_count(n_symbols, length) > ENUM_CAP:
        raise EnumerationCapError(
            f"{n_symbols}^{length} sequences exceed the enumeration cap {ENUM_CAP}"
        )


@dataclass
class BeliefState:
    """Posterior over hidden states after observing a history.

    ``log_prob`` is the log joint probability of that history (``-inf`` when
    the history has probability zero, in which case ``probs`` reflects the
    uniform-reset convention).
    """

    probs: np.ndarray
    log_prob: float


@dataclass
class Hmm:
    """Hidden Markov model over ``{1..O}``-valued sequences of fixed length.

    Parameters
    ----------
    mu:
        Initial state distribution, shape ``(S,)``.
    emission:
        Column-stochastic observation matrix, shape ``(O, S)``;
        ``emission[o-1, s]`` is the probability of emitting symbol ``o``
        from state ``s``.
    transition:
        Column-stochastic state transition matrix, shape ``(S, S)``;
        ``transition[s', s]`` is the probability of moving to ``s'``.
    horizon:
        Number of emitted symbols ``T``.
    """

    mu: np.ndarray
    emission: np.ndarray
    transition: np.ndarray
    horizon: int

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=float)
        self.emission = np.asarray(self.emission, dtype=float)
        self.transition = np.asarray(self.transition, dtype=float)
        S = self.mu.shape[0]
        if self.mu.ndim != 1:
            raise ValueError("mu must be a vector")
        if self.emission.ndim != 2 or self.emission.shape[1] != S:
            raise ValueError("emission must be O x S")
        if self.transition.shape != (S, S):
            raise ValueError("transition must be S x S")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name, arr in (("mu", self.mu), ("emission", self.emission),
                          ("transition", self.transition)):
            if np.any(arr < -_COL_ATOL):
                raise ValueError(f"{name} has negative entries")
        if abs(self.mu.sum() - 1.0) > _COL_ATOL:
            raise ValueError("mu must sum to 1")
        for name, arr in (("emission", self.emission), ("transition", self.transition)):
            colsums = arr.sum(axis=0)
            if np.max(np.abs(colsums - 1.0)) > _COL_ATOL:
                raise ValueError(f"{name} columns must sum to 1")

    @property
    def n_states(self) -> int:
        return self.mu.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.emission.shape[0]

    # -- filtering ---------------------------------------------------------

    def step(self, belief: np.ndarray, o: int) -> tuple[np.ndarray, float]:
        """One filtering step: observe ``o`` from ``belief`` over the current state.

        Returns the belief over the *next* state and the probability of ``o``.
        A zero-probability observation resets the next-state belief to uniform.
        """
        w = self.emission[o - 1, :] * belief
        p = float(w.sum())
        if p <= 0.0:
            return np.full(self.n_states, 1.0 / self.n_states), 0.0
        return self.transition @ (w / p), p

    def forward_filter(self, history: Seq) -> BeliefState:
        """Filter a history, returning the belief state and its log probability."""
        belief = self.mu.copy()
        log_prob = 0.0
        for o in history:
            belief, p = self.step(belief, o)
            log_prob = log_prob + math.log(p) if p > 0.0 else -math.inf
        return BeliefState(belief, log_prob)

    # -- probabilities -----------------------------------------------------

    def joint_prob(self, seq: Seq) -> float:
        """Probability of a prefix ``seq`` (any length up to the horizon)."""
        if len(seq) > self.horizon:
            raise ValueError("sequence longer than horizon")
        return math.exp(self.forward_filter(seq).log_prob)

    def conditional_prob(self, history: Seq, future: Seq) -> float:
        """``Pr[future | history]`` for a future starting right after ``history``."""
        if len(history) + len(future) > self.horizon:
            raise ValueError("history plus future exceed horizon")
        belief = self.forward_filter(history).probs
        prob = 1.0
        for o in future:
            belief_next, p = self.step(belief, o)
            if p <= 0.0:
                return 0.0
            prob *= p
            belief = belief_next
        return prob

    def next_symbol_probs(self, history: Seq) -> np.ndarray:
        """Distribution of the next symbol given ``history`` (length ``O``)."""
        if len(history) >= self.horizon:
            raise ValueError("history already at the horizon")
        belief = self.forward_filter(history).probs
        return self.emission @ belief

    # -- sampling ----------------------------------------------------------

    def sample_futures(self, history: Seq, rng: np.random.Generator, size: int,
                       steps: int | None = None) -> np.ndarray:
        """First ``steps`` symbols of ``size`` futures of ``history``.

        Simulates ``steps`` symbols in a vectorized batch, then discards the
        uniforms the remaining steps of a full future would have used.
        """
        length = self.horizon - len(history)
        steps = _check_steps(length, steps)
        beliefs = np.tile(self.forward_filter(history).probs, (size, 1))
        out = np.empty((size, steps), dtype=np.int64)
        for j in range(steps):
            probs = beliefs @ self.emission.T  # (size, O)
            cum = np.cumsum(probs, axis=1)
            # guard against rounding: force the last edge to cover u
            cum[:, -1] = np.maximum(cum[:, -1], 1.0)
            u = rng.random(size)
            symbols = (cum > u[:, None]).argmax(axis=1)  # 0-based
            out[:, j] = symbols + 1
            if j + 1 < steps:
                w = beliefs * self.emission[symbols, :]
                norm = w.sum(axis=1, keepdims=True)
                np.maximum(norm, 1e-300, out=norm)
                beliefs = (w / norm) @ self.transition.T
        if steps < length:
            rng.random(size * (length - steps))
        return out

    def sample_conditional(self, history: Seq, rng: np.random.Generator,
                           size: int | None = None):
        """Future(s) of ``history`` as one tuple (``size=None``) or a list."""
        k = 1 if size is None else size
        return rows_as_seqs(self.sample_futures(history, rng, k), size)

    # -- exhaustive helpers ------------------------------------------------

    def prefix_tree(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Vectorized forward pass over all prefixes.

        Returns ``(probs, beliefs)`` where ``probs[t]`` has shape ``(O**t,)``
        with the joint probability of every length-``t`` prefix in
        lexicographic order, and ``beliefs[t]`` has shape ``(O**t, S)`` with
        the (uniform-reset) posterior after each prefix.
        """
        _check_enum(self.n_symbols, self.horizon)
        O, S, T = self.n_symbols, self.n_states, self.horizon
        probs = [np.ones(1)]
        beliefs = [self.mu[None, :].copy()]
        for _ in range(T):
            bel = beliefs[-1]  # (N, S)
            p_sym = bel @ self.emission.T  # (N, O)
            joint = probs[-1][:, None] * p_sym  # (N, O)
            w = bel[:, None, :] * self.emission[None, :, :]  # (N, O, S)
            norm = np.maximum(p_sym[:, :, None], 1e-300)
            nxt = (w / norm) @ self.transition.T  # (N, O, S)
            nxt[p_sym <= 0.0] = 1.0 / S  # same reset as ``step``
            probs.append(joint.reshape(-1))
            beliefs.append(nxt.reshape(-1, S))
        return probs, beliefs


@dataclass
class TableDist:
    """Explicit distribution over all length-``T`` sequences.

    ``probs`` is indexed by :func:`condseq.sequences.seq_to_index` (lexicographic
    order) and must sum to 1.
    """

    probs: np.ndarray
    n_symbols: int
    horizon: int
    _tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_enum(self.n_symbols, self.horizon)
        self.probs = np.asarray(self.probs, dtype=float)
        expected = seq_count(self.n_symbols, self.horizon)
        if self.probs.shape != (expected,):
            raise ValueError(f"probs must have length {expected}")
        if np.any(self.probs < 0.0):
            raise ValueError("probs must be nonnegative")
        if abs(self.probs.sum() - 1.0) > _TABLE_ATOL:
            raise ValueError("probs must sum to 1")
        self._tensor = self.probs.reshape((self.n_symbols,) * self.horizon)

    def _prefix_slice(self, prefix: Seq) -> np.ndarray:
        view = self._tensor
        for o in prefix:
            view = view[o - 1]
        return view

    def joint_prob(self, seq: Seq) -> float:
        if len(seq) > self.horizon:
            raise ValueError("sequence longer than horizon")
        return float(np.sum(self._prefix_slice(seq)))

    def conditional_prob(self, history: Seq, future: Seq) -> float:
        if len(history) + len(future) > self.horizon:
            raise ValueError("history plus future exceed horizon")
        den = self.joint_prob(history)
        if den <= 0.0:
            raise ZeroProbabilityHistory(f"history {history} has probability 0")
        return self.joint_prob(tuple(history) + tuple(future)) / den

    def next_symbol_probs(self, history: Seq) -> np.ndarray:
        if len(history) >= self.horizon:
            raise ValueError("history already at the horizon")
        block = self._prefix_slice(history)
        mass = block.reshape(self.n_symbols, -1).sum(axis=1)
        total = mass.sum()
        if total <= 0.0:
            raise ZeroProbabilityHistory(f"history {history} has probability 0")
        return mass / total

    def sample_futures(self, history: Seq, rng: np.random.Generator, size: int,
                       steps: int | None = None) -> np.ndarray:
        """First ``steps`` symbols of ``size`` futures of ``history``.

        Draws whole completions by index (one ``rng.choice`` whatever
        ``steps`` is) and keeps the leading digits of each index.
        """
        length = self.horizon - len(history)
        steps = _check_steps(length, steps)
        block = self._prefix_slice(history).reshape(-1)
        total = block.sum()
        if total <= 0.0:
            raise ZeroProbabilityHistory(f"history {history} has probability 0")
        idx = rng.choice(block.size, size=size, p=block / total)
        powers = self.n_symbols ** np.arange(length - 1, length - steps - 1, -1,
                                             dtype=np.int64)
        return (idx[:, None] // powers) % self.n_symbols + 1

    def sample_conditional(self, history: Seq, rng: np.random.Generator,
                           size: int | None = None):
        """Future(s) of ``history`` as one tuple (``size=None``) or a list."""
        k = 1 if size is None else size
        return rows_as_seqs(self.sample_futures(history, rng, k), size)


def _check_steps(length: int, steps: int | None) -> int:
    """Validated number of future symbols to simulate (all by default)."""
    if steps is None:
        return length
    if not 0 <= steps <= length:
        raise ValueError(f"steps must lie in 0..{length}")
    return steps


# ---------------------------------------------------------------------------
# Generic operations (work on HMMs, tables, and learned-model wrappers).
# ---------------------------------------------------------------------------


def joint_prob(dist, seq: Seq) -> float:
    return dist.joint_prob(tuple(seq))


def conditional_prob(dist, history: Seq, future: Seq) -> float:
    return dist.conditional_prob(tuple(history), tuple(future))


def sample_conditional(dist, history: Seq, rng: np.random.Generator,
                       size: int | None = None):
    return dist.sample_conditional(tuple(history), rng, size)


def enumerate_joint(dist) -> np.ndarray:
    """All ``O**T`` sequence probabilities in lexicographic order."""
    if isinstance(dist, TableDist):
        return dist.probs.copy()
    if isinstance(dist, Hmm):
        return dist.prefix_tree()[0][dist.horizon]
    O, T = dist.n_symbols, dist.horizon
    _check_enum(O, T)
    out = np.empty(seq_count(O, T))
    for i, seq in enumerate(all_seqs(O, T)):
        out[i] = dist.joint_prob(seq)
    return out


def cond_matrix(dist, t: int, future_scheme: str = "exact") -> np.ndarray:
    """Matrix of conditional future probabilities at split ``t``.

    Columns are indexed by length-``t`` histories, rows by futures — either all
    futures of length exactly ``T - t`` (``future_scheme="exact"``) or all
    futures of length 1 through ``T - t`` stacked shortest-first
    (``future_scheme="upto"``).  Columns for zero-probability histories follow
    the distribution's conditioning convention (HMMs: uniform reset; tables:
    the column is dropped).
    """
    if future_scheme not in ("exact", "upto"):
        raise ValueError("future_scheme must be 'exact' or 'upto'")
    O, T = dist.n_symbols, dist.horizon
    if not 0 <= t <= T:
        raise ValueError("split must be between 0 and the horizon")
    _check_enum(O, T)

    hist_list = list(all_seqs(O, t))
    if isinstance(dist, TableDist):
        hist_list = [h for h in hist_list if dist.joint_prob(h) > 0.0]
    lengths = [T - t] if future_scheme == "exact" else list(range(1, T - t + 1))
    n_rows = sum(seq_count(O, ell) for ell in lengths)
    mat = np.empty((n_rows, len(hist_list)))
    for j, h in enumerate(hist_list):
        r = 0
        for ell in lengths:
            col = _future_probs(dist, h, ell)
            mat[r:r + col.size, j] = col
            r += col.size
    return mat


def _future_probs(dist, history: Seq, length: int) -> np.ndarray:
    """Conditional probabilities of every length-``length`` future, in order."""
    if isinstance(dist, Hmm):
        belief = dist.forward_filter(history).probs
        S = dist.n_states
        probs = np.ones(1)
        bel = belief[None, :]
        for _ in range(length):
            p_sym = bel @ dist.emission.T
            joint = probs[:, None] * p_sym
            w = bel[:, None, :] * dist.emission[None, :, :]
            norm = np.maximum(p_sym[:, :, None], 1e-300)
            nxt = (w / norm) @ dist.transition.T
            nxt[p_sym <= 0.0] = 1.0 / S
            bel = nxt.reshape(-1, S)
            probs = joint.reshape(-1)
        return probs
    out = np.empty(seq_count(dist.n_symbols, length))
    for i, f in enumerate(all_seqs(dist.n_symbols, length)):
        out[i] = dist.conditional_prob(history, f)
    return out


def rank_of(dist, tol: float = 1e-8) -> int:
    """Numerical rank: the max over splits of the conditional matrix rank.

    Singular values below ``tol`` times the largest are treated as zero.  Uses
    the all-future-lengths (``upto``) scheme.
    """
    T = dist.horizon
    if T == 1:
        return 1
    best = 0
    for t in range(1, T):
        mat = cond_matrix(dist, t, future_scheme="upto")
        if mat.size == 0:
            continue
        s = np.linalg.svd(mat, compute_uv=False)
        if s.size and s[0] > 0.0:
            best = max(best, int(np.sum(s > tol * s[0])))
    return best


# ---------------------------------------------------------------------------
# HMM serialization: plain text, bit-exact round trip.
# ---------------------------------------------------------------------------

_HMM_HEADER = "condseq-hmm v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def hmm_to_text(hmm: Hmm) -> str:
    lines = [
        _HMM_HEADER,
        f"S {hmm.n_states}",
        f"O {hmm.n_symbols}",
        f"T {hmm.horizon}",
        "mu " + " ".join(_fmt(v) for v in hmm.mu),
        "emission",
    ]
    lines += [" ".join(_fmt(v) for v in row) for row in hmm.emission]
    lines.append("transition")
    lines += [" ".join(_fmt(v) for v in row) for row in hmm.transition]
    return "\n".join(lines) + "\n"


def hmm_from_text(text: str) -> Hmm:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _HMM_HEADER:
        raise ValueError("not a condseq HMM file")
    header: dict[str, int] = {}
    i = 1
    while i < len(lines) and lines[i].split()[0] in ("S", "O", "T"):
        key, val = lines[i].split()
        header[key] = int(val)
        i += 1
    S, O = header["S"], header["O"]
    if not lines[i].startswith("mu "):
        raise ValueError("missing mu line")
    mu = np.array([float(v) for v in lines[i].split()[1:]])
    i += 1
    if lines[i].strip() != "emission":
        raise ValueError("missing emission block")
    emission = np.array([[float(v) for v in lines[i + 1 + r].split()] for r in range(O)])
    i += 1 + O
    if lines[i].strip() != "transition":
        raise ValueError("missing transition block")
    transition = np.array([[float(v) for v in lines[i + 1 + r].split()] for r in range(S)])
    return Hmm(mu=mu, emission=emission, transition=transition, horizon=header["T"])


def save_hmm(hmm: Hmm, path) -> None:
    with open(path, "w") as fh:
        fh.write(hmm_to_text(hmm))


def load_hmm(path) -> Hmm:
    with open(path) as fh:
        return hmm_from_text(fh.read())
