"""Independent reference implementations used as test oracles.

Everything here recomputes quantities straight from definitions — hidden
state paths, closed formulas, dense enumeration — without calling the
library's forward passes, so a test that compares against these is checking
two genuinely different routes to the same number.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from condseq.distributions import (Hmm, TableDist, ZeroProbabilityHistory,
                                   future_table, numerical_rank)
from condseq.exact_learner import EQ_TOL
from condseq.oom import PINV_CUTOFF
from condseq.sequences import all_seqs, rows_as_seqs


def brute_force_joint(hmm: Hmm, seq) -> float:
    """Joint probability by summing over every hidden state path."""
    n_states = hmm.n_states
    total = 0.0
    for path in itertools.product(range(n_states), repeat=len(seq)):
        p = float(hmm.mu[path[0]])
        for i, (o, s) in enumerate(zip(seq, path)):
            p *= float(hmm.emission[o - 1, s])
            if i + 1 < len(path):
                p *= float(hmm.transition[path[i + 1], s])
        total += p
    return total


def parity_reference_prob(seq, subset, alpha: float) -> float:
    """Closed-form noisy-parity probability, written out from scratch."""
    bits = [o - 1 for o in seq]
    if any(b not in (0, 1) for b in bits):
        return 0.0
    parity = 0
    for pos in subset:
        parity ^= bits[pos - 1]
    tail = (1.0 - alpha) if bits[-1] == parity else alpha
    return 0.5 ** (len(seq) - 1) * tail


def random_hmm(rng: np.random.Generator, n_states: int, n_symbols: int,
               horizon: int) -> Hmm:
    """Dirichlet-random HMM without any spectral conditioning."""
    mu = rng.dirichlet(np.ones(n_states))
    emission = rng.dirichlet(np.ones(n_symbols), size=n_states).T
    transition = rng.dirichlet(np.ones(n_states), size=n_states).T
    return Hmm(mu=mu, emission=emission, transition=transition,
               horizon=horizon)


def random_hmm_with_zero_symbols(rng: np.random.Generator) -> Hmm:
    """Random HMM where each state may never emit some symbols."""
    n_states, n_symbols = int(rng.integers(1, 4)), int(rng.integers(2, 4))
    horizon = int(rng.integers(1, 7))
    emission = rng.dirichlet(np.ones(n_symbols), size=n_states).T
    emission[rng.random(emission.shape) < 0.4] = 0.0
    emission[0, emission.sum(axis=0) == 0.0] = 1.0
    emission /= emission.sum(axis=0)
    transition = rng.dirichlet(np.ones(n_states), size=n_states).T
    return Hmm(mu=rng.dirichlet(np.ones(n_states)), emission=emission,
               transition=transition, horizon=horizon)


def never_emits_two() -> Hmm:
    """Two states, horizon 3, and symbol 2 has probability zero everywhere."""
    return Hmm(mu=[1.0, 0.0], emission=[[1.0, 1.0], [0.0, 0.0]],
               transition=[[0.2, 0.6], [0.8, 0.4]], horizon=3)


def filter_from_root(hmm: Hmm, seq) -> tuple[np.ndarray, list[float], float]:
    """Filter ``seq`` step by step from ``mu``, remembering nothing between calls.

    Returns the belief after ``seq``, the probability of each symbol given
    the ones before it, and the log joint probability summed in that order.
    A zero-probability symbol resets the belief to uniform.
    """
    belief = np.array(hmm.mu, dtype=float)
    probs, log_prob = [], 0.0
    for o in seq:
        w = hmm.emission[o - 1, :] * belief
        p = float(w.sum())
        if p <= 0.0:
            belief, p = np.full(hmm.n_states, 1.0 / hmm.n_states), 0.0
        else:
            belief = hmm.transition @ (w / p)
        probs.append(p)
        log_prob = log_prob + math.log(p) if p > 0.0 else -math.inf
    return belief, probs, log_prob


def conditional_from_root(hmm: Hmm, history, future) -> float:
    """``Pr[future | history]``: the product of the future's step probabilities."""
    prob = 1.0
    for p in filter_from_root(hmm, tuple(history) + tuple(future))[1][len(history):]:
        if p <= 0.0:
            return 0.0
        prob *= p
    return prob


def per_sample_counterexample(state, operators, oracle, n: int,
                              eq_tol: float = EQ_TOL):
    """The counterexample sweep one sample at a time, as first written.

    Each distinct sample is pushed through the operators from the root and
    checked against the oracle before the next one is looked at.
    """
    for t in range(1, state.horizon + 1):
        checked = set()
        for x in oracle.sample_joint(t, size=n):
            if x in checked:
                continue
            checked.add(x)
            g = np.ones(1)
            for s, o in enumerate(x):
                g = operators[s][o - 1] @ g
            predicted = state.test_matrix(oracle, t) @ g
            true = np.array([state.pr(oracle, (), x + tuple(lam))
                             for lam in state.tests[t]])
            if np.max(np.abs(predicted - true)) > eq_tol:
                return x, t
    return None


def argmax_symbols(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The 1-based symbol of each row's first cumulative edge above its uniform."""
    return (cum > u[:, None]).argmax(axis=1) + 1


def full_hmm_draws(hmm: Hmm, history, rng: np.random.Generator,
                   size: int) -> list[tuple]:
    """Whole futures of ``history`` by plain step-by-step simulation.

    One uniform per draw per step, every step of every future simulated.
    """
    length = hmm.horizon - len(history)
    beliefs = np.tile(filter_from_root(hmm, history)[0], (size, 1))
    out = np.empty((size, length), dtype=np.int64)
    for j in range(length):
        cum = np.cumsum(beliefs @ hmm.emission.T, axis=1)
        cum[:, -1] = np.maximum(cum[:, -1], 1.0)
        out[:, j] = argmax_symbols(cum, rng.random(size))
        symbols = out[:, j] - 1
        w = beliefs * hmm.emission[symbols, :]
        norm = np.maximum(w.sum(axis=1, keepdims=True), 1e-300)
        beliefs = (w / norm) @ hmm.transition.T
    return [tuple(int(o) for o in row) for row in out]


def index_to_seq(idx: int, n_symbols: int, length: int) -> tuple:
    """Inverse of :func:`condseq.sequences.seq_to_index` for a given length."""
    if not 0 <= idx < n_symbols**length:
        raise ValueError(f"index {idx} out of range for length {length}")
    out = []
    for _ in range(length):
        idx, digit = divmod(idx, n_symbols)
        out.append(digit + 1)
    return tuple(reversed(out))


def full_table_draws(table: TableDist, history, rng: np.random.Generator,
                     size: int) -> list[tuple]:
    """Whole futures of ``history``: one completion index per draw."""
    length = table.horizon - len(history)
    block = table._prefix_slice(history).reshape(-1)
    idx = rng.choice(block.size, size=size, p=block / block.sum())
    return [index_to_seq(int(i), table.n_symbols, length) for i in idx]


def gram_spectrum(dist, members, t: int) -> np.ndarray:
    """Eigenvalues of ``Zᵀ Z`` for one level, descending, from the definition.

    ``Z[f, h] = sqrt(Pr[h] / d(f)) Pr[f | h]`` over positive-probability
    length-``t`` histories ``h`` and futures ``f`` with ``d(f) = Σ_b Pr[f | b]
    > 0``; every entry is one ``joint_prob`` / ``conditional_prob`` call, and
    the spectrum comes from the full history-by-history Gram.
    """
    n_symbols, length = dist.n_symbols, dist.horizon - t
    hists = [h for h in itertools.product(range(1, n_symbols + 1), repeat=t)
             if dist.joint_prob(h) > 0.0]
    futures = list(itertools.product(range(1, n_symbols + 1), repeat=length))
    d = np.array([sum(dist.conditional_prob(b, f) for b in members)
                  for f in futures])
    kept = [f for f, mass in zip(futures, d) if mass > 0.0]
    z = np.array([[np.sqrt(dist.joint_prob(h) / mass) * dist.conditional_prob(h, f)
                   for h in hists] for f, mass in zip(kept, d[d > 0.0])])
    z = z.reshape(len(kept), len(hists))
    return np.sort(np.linalg.eigvalsh(z.T @ z))[::-1]


class DictPredictor:
    """A learned-model wrapper one prefix at a time, as first written.

    Every prefix's coefficients and telescoped probability are cached in a
    dict and built from its parent's with one operator product and one
    ``next_symbol_probs`` call.
    """

    def __init__(self, model):
        self.model = model
        self.n_symbols = model.n_symbols
        self.horizon = model.horizon
        self._states = {(): (np.ones(1), 1.0)}

    def _state(self, history):
        """(coefficients, telescoped probability) after ``history``."""
        if history in self._states:
            return self._states[history]
        prefix, o = history[:-1], history[-1]
        g_prev, p_prev = self._state(prefix)
        cond = self.next_symbol_probs(prefix)
        t = len(prefix)
        g = self.model.operators[t][o - 1] @ g_prev
        state = (g, p_prev * float(cond[o - 1]))
        self._states[history] = state
        return state

    def joint_prob(self, seq) -> float:
        seq = tuple(seq)
        if len(seq) > self.horizon:
            raise ValueError("sequence longer than horizon")
        return self._state(seq)[1]

    def conditional_prob(self, history, future) -> float:
        history, future = tuple(history), tuple(future)
        prob = 1.0
        for o in future:
            prob *= float(self.next_symbol_probs(history)[o - 1])
            history = history + (o,)
        return prob


class DictRawPredictor(DictPredictor):
    """Normalizes raw one-step mass ``1ᵀ(A_{o,t} g_t)`` across symbols."""

    def next_symbol_probs(self, history):
        history = tuple(history)
        if len(history) >= self.horizon:
            raise ValueError("history already at the horizon")
        g, _ = self._state(history)
        t = len(history)
        mass = np.array(
            [float((self.model.operators[t][o] @ g).sum())
             for o in range(self.n_symbols)]
        )
        mass = np.clip(mass, 0.0, None)
        total = mass.sum()
        if total <= 0.0:
            return np.full(self.n_symbols, 1.0 / self.n_symbols)
        return mass / total


class DictAnchoredPredictor(DictPredictor):
    """Uses stored one-step matrices against the current prediction mass."""

    def next_symbol_probs(self, history):
        history = tuple(history)
        if len(history) >= self.horizon:
            raise ValueError("history already at the horizon")
        g, p_hat = self._state(history)
        if p_hat <= 0.0:
            return np.full(self.n_symbols, 1.0 / self.n_symbols)
        t = len(history)
        numer = self.model.step_matrices[t] @ g  # (O,)
        if self.n_symbols == 2:
            q1 = float(np.clip(numer[0] / p_hat, 0.0, 1.0))
            return np.array([q1, 1.0 - q1])
        q = np.clip(numer / p_hat, 0.0, 1.0)
        total = q.sum()
        if total <= 0.0:
            return np.full(self.n_symbols, 1.0 / self.n_symbols)
        return q / total


def conditional_gap_loop(p, q) -> float:
    """``ε'`` one history at a time, each ``q`` conditional asked on its own."""
    O, T = p.n_symbols, p.horizon
    worst = 0.0
    for t in range(T):
        joint, cond = future_table(p, 1, t=t)
        gaps = np.zeros(O)
        for h, w, p_next in zip(all_seqs(O, t), joint, cond):
            if w > 0.0:
                gaps += w * np.abs(np.asarray(q.next_symbol_probs(h)) - p_next)
        worst = max(worst, float(gaps.max()))
    return worst


def sampled_bound_loop(p, q, n_samples: int, rng: np.random.Generator) -> float:
    """The sampled ``(T + 1) · O · ε' / 2`` bound, one draw checked at a time.

    The draws are taken as one batch, the stream of ``tv_conditional_bound``.
    """
    O, T = p.n_symbols, p.horizon
    totals = np.zeros((T, O))
    for x in rows_as_seqs(p.sample_futures((), rng, n_samples)):
        prefixes = [x[:t] for t in range(T)]
        _, p_next = future_table(p, 1, histories=prefixes)
        q_next = np.array([q.next_symbol_probs(h) for h in prefixes])
        totals += np.abs(q_next - p_next)
    return (T + 1) * O * float((totals / n_samples).max()) / 2.0


def enumerated_exact_operators(dist, bases):
    """Exact operators and one-step matrices over enumerated futures.

    Every basis history's futures are expanded at exact length, and each
    level solves ``Pr[F_{t+1} | B_{t+1}] A = Pr[o · F_{t+1} | B_t]`` for the
    min-norm ``A``.  Returns ``(operators, step_matrices)``.
    """
    O, T = dist.n_symbols, dist.horizon
    operators, step_matrices = [], []
    for t in range(T):
        p_next = future_table(dist, T - t - 1, histories=bases[t + 1])[1].T
        blocks = future_table(dist, T - t, histories=bases[t])[1].reshape(
            len(bases[t]), O, -1)
        step_matrices.append(blocks.sum(axis=2).T)
        per_symbol = []
        for o in range(O):
            rhs = blocks[:, o, :].T
            sol, *_ = np.linalg.lstsq(p_next, rhs, rcond=PINV_CUTOFF)
            per_symbol.append(sol)
        operators.append(per_symbol)
    return operators, step_matrices


def enumerated_coefficients(dist, members, history) -> np.ndarray:
    """Min-norm ``β`` with ``Pr[F | members] β = Pr[F | history]``, futures enumerated."""
    length = dist.horizon - len(history)
    _, table = future_table(dist, length, histories=[*members, history])
    beta, *_ = np.linalg.lstsq(table[:-1].T, table[-1], rcond=PINV_CUTOFF)
    return beta


def enumerated_rank(dist, tol: float = 1e-8) -> int:
    """``rank_of`` from enumerated conditional matrices.

    At each split ``t`` the rows are the positive-probability length-``t``
    histories and the columns every future of each length ``1..T - t``.
    """
    T = dist.horizon
    if T == 1:
        return 1
    ranks = []
    for t in range(1, T):
        joint, _ = future_table(dist, 0, t=t)
        mat = np.hstack([future_table(dist, ell, t=t)[1]
                         for ell in range(1, T - t + 1)])
        ranks.append(numerical_rank(mat[joint > 0.0], tol))
    return max(ranks)


def gated_estimate_loop(estimator, history, future, alpha: float) -> float:
    """One screened estimate ``Pr[future | history]``, step by step.

    Reads ``next_symbol_freqs`` once per step of ``future``, in order, and
    returns the product of those frequencies, or 0.0 unless every one
    exceeds ``2 * alpha``.
    """
    history = tuple(history)
    steps = np.empty(len(future))
    for i, o in enumerate(future):
        steps[i] = estimator.next_symbol_freqs(history)[o - 1]
        history += (o,)
    if np.all(steps > 2.0 * alpha):
        return float(np.prod(steps))
    return 0.0


def precond_moments_loop(estimator, basis, prev_basis, entry_samples: int,
                         regularity: float) -> tuple[np.ndarray, np.ndarray]:
    """``(sigma, q)`` of ``estimate_sigma_and_q``, one future at a time.

    Draws one batch per distinct history (the basis, then the one-symbol
    extensions of ``prev_basis``), counts its futures in order of first
    appearance, screens every (future, member) pair with
    :func:`gated_estimate_loop`, and adds ``count * ratio`` into each column
    one future at a time, in batch order.
    """
    oracle = estimator.oracle
    n_symbols = oracle.n_symbols
    extended = [b + (o,) for b in prev_basis for o in range(1, n_symbols + 1)]
    batches = {}
    for x in dict.fromkeys(list(basis) + extended):
        try:
            draws = oracle.sample_futures(x, entry_samples)
        except ZeroProbabilityHistory:
            batches[x] = []
        else:
            batches[x] = list(Counter(map(tuple, draws.tolist())).items())
    futures = list(dict.fromkeys(f for batch in batches.values() for f, _ in batch))
    rel = np.array([[gated_estimate_loop(estimator, h, f, regularity) for h in basis]
                    for f in futures]).reshape(len(futures), len(basis))
    mix = rel.mean(axis=1, keepdims=True)
    ratios = dict(zip(futures, np.divide(rel, mix, out=np.zeros_like(rel),
                                         where=mix > 0.0)))

    def column(x):
        col = np.zeros(len(basis))
        for future, count in batches[x]:
            col += count * ratios[future]
        return col / entry_samples

    sigma = np.column_stack([column(b) for b in basis])
    q = np.empty((len(basis), len(prev_basis), n_symbols))
    for j, b in enumerate(prev_basis):
        for o in range(1, n_symbols + 1):
            q[:, j, o - 1] = column(b + (o,))
    return 0.5 * (sigma + sigma.T), q
