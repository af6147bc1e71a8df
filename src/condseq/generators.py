"""Benchmark instance generators and candidate-basis builders."""

from __future__ import annotations

import numpy as np

from .distributions import Hmm, TableDist, _check_enum, future_table, numerical_rank
from .sequences import Seq, all_seqs, check_count, seq_count, seq_to_index

FULL_RANK_TRIES = 10_000  # rejection draws make_full_rank_hmm makes at most
SPAN_TOL = 1e-9  # relative singular-value cutoff of greedy_spanning_bases


def _check_counts(**counts) -> None:
    for name, value in counts.items():
        check_count(name, value)


def make_parity_hmm(horizon: int, subset: set[int] | None = None,
                    alpha: float = 0.2) -> Hmm:
    """Noisy-parity distribution over binary sequences, encoded as an HMM.

    The first ``T - 1`` emitted bits are uniform; the last bit equals the XOR
    of the bits at positions in ``subset`` (a subset of ``1..T-1``; defaults to
    all of them) with probability ``1 - alpha``, and is flipped with
    probability ``alpha``.  Bits are emitted as symbols 1 and 2.

    The state space tracks (current bit, running XOR, time), giving ``4T``
    states.
    """
    check_count("horizon", horizon, 2)
    T = horizon
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 1/2)")
    if subset is None:
        subset = set(range(1, T))
    subset = set(subset)
    if not subset or not subset.issubset(range(1, T)):
        raise ValueError("subset must be a nonempty subset of 1..T-1")

    S = 4 * T

    def idx(z: int, b: int, t: int) -> int:
        return (t - 1) * 4 + b * 2 + z

    mu = np.zeros(S)
    mu[idx(0, 0, 1)] = 0.5
    mu[idx(1, 0, 1)] = 0.5

    emission = np.zeros((2, S))
    transition = np.zeros((S, S))
    for t in range(1, T + 1):
        for b in range(2):
            for z in range(2):
                s = idx(z, b, t)
                emission[z, s] = 1.0
                if t == T:
                    transition[s, s] = 1.0
                    continue
                b_next = b ^ z if t in subset else b
                if t == T - 1:
                    transition[idx(b_next, b_next, T), s] = 1.0 - alpha
                    transition[idx(1 - b_next, b_next, T), s] = alpha
                else:
                    transition[idx(0, b_next, t + 1), s] = 0.5
                    transition[idx(1, b_next, t + 1), s] = 0.5
    return Hmm(mu=mu, emission=emission, transition=transition, horizon=T)


def parity_joint_prob(seq: Seq, subset: set[int], alpha: float) -> float:
    """Closed-form joint probability of the noisy-parity distribution."""
    T = len(seq)
    bits = [o - 1 for o in seq]
    parity = 0
    for i in sorted(subset):
        parity ^= bits[i - 1]
    p_last = (1.0 - alpha) if bits[T - 1] == parity else alpha
    return p_last / 2 ** (T - 1)


def make_full_rank_hmm(n_states: int, n_symbols: int, horizon: int, seed: int,
                       sigma_floor: float = 0.15) -> Hmm:
    """Random HMM whose emission and transition matrices have full column rank.

    Columns are Dirichlet(1) draws, rejection-sampled until both matrices have
    smallest singular value at least ``sigma_floor``.
    """
    _check_counts(n_states=n_states, n_symbols=n_symbols, horizon=horizon)
    if n_symbols < n_states:
        raise ValueError("full-rank emission needs n_symbols >= n_states")
    rng = np.random.default_rng(seed)
    for _ in range(FULL_RANK_TRIES):
        emission = rng.dirichlet(np.ones(n_symbols), size=n_states).T
        transition = rng.dirichlet(np.ones(n_states), size=n_states).T
        if min(np.linalg.svd(emission, compute_uv=False)[-1],
               np.linalg.svd(transition, compute_uv=False)[-1]) < sigma_floor:
            continue
        mu = rng.dirichlet(np.ones(n_states))
        return Hmm(mu=mu, emission=emission, transition=transition, horizon=horizon)
    raise RuntimeError(
        f"no draw met sigma_floor={sigma_floor} within {FULL_RANK_TRIES} tries"
    )


def make_overcomplete_hmm(n_states: int, n_symbols: int, horizon: int,
                          seed: int) -> Hmm:
    """Random HMM with more states than symbols (no spectral floor enforced)."""
    _check_counts(n_states=n_states, n_symbols=n_symbols, horizon=horizon)
    if n_symbols >= n_states:
        raise ValueError("overcomplete means n_symbols < n_states")
    rng = np.random.default_rng(seed)
    emission = rng.dirichlet(np.ones(n_symbols), size=n_states).T
    transition = rng.dirichlet(np.ones(n_states), size=n_states).T
    mu = rng.dirichlet(np.ones(n_states))
    return Hmm(mu=mu, emission=emission, transition=transition, horizon=horizon)


def make_random_table(n_symbols: int, horizon: int, seed: int,
                      concentration: float = 1.0) -> TableDist:
    """Dirichlet-random explicit distribution over all sequences."""
    _check_counts(n_symbols=n_symbols, horizon=horizon)
    rng = np.random.default_rng(seed)
    _check_enum(n_symbols, horizon)
    probs = rng.dirichlet(np.full(seq_count(n_symbols, horizon), concentration))
    return TableDist(probs=probs, n_symbols=n_symbols, horizon=horizon)


def perturb_conditionals(dist, eta: float, seed: int) -> TableDist:
    """Jitter every one-step conditional multiplicatively, renormalized.

    Each tree node's next-symbol distribution is reweighted by ``exp(eta * g)``
    with independent standard normal ``g`` per branch, keeping the result a
    proper distribution.  Returns the perturbed distribution as an explicit
    table.
    """
    rng = np.random.default_rng(seed)
    O, T = dist.n_symbols, dist.horizon
    _check_enum(O, T)
    probs = np.empty(seq_count(O, T))

    def walk(history: Seq, mass: float) -> None:
        if mass <= 0.0:
            block = O ** (T - len(history))
            start = seq_to_index(history, O) * block
            probs[start : start + block] = 0.0
            return
        base = dist.next_symbol_probs(history)
        jitter = np.exp(eta * rng.standard_normal(O))
        cond = base * jitter
        total = cond.sum()
        cond = cond / total if total > 0 else np.full(O, 1.0 / O)
        if len(history) == T - 1:
            for o in range(O):
                idx = seq_to_index(history + (o + 1,), O)
                probs[idx] = mass * cond[o]
        else:
            for o in range(O):
                walk(history + (o + 1,), mass * cond[o])

    walk((), 1.0)
    return TableDist(probs=probs, n_symbols=O, horizon=T)


# ---------------------------------------------------------------------------
# Candidate bases.
# ---------------------------------------------------------------------------


def parity_class_bases(horizon: int, subset: set[int] | None = None) -> list[list[Seq]]:
    """Per-level bases picking one history from each running-XOR class.

    Levels whose running XOR is still constant get a singleton; the final
    level is always the all-ones sequence (the lexicographically smallest
    positive-probability one).
    """
    T = horizon
    if subset is None:
        subset = set(range(1, T))
    bases: list[list[Seq]] = [[()]]
    for t in range(1, T + 1):
        base: list[Seq] = [(1,) * t]
        relevant = sorted(i for i in subset if i <= t)
        if relevant and t < T:
            flip = relevant[0]
            member = tuple(2 if i == flip else 1 for i in range(1, t + 1))
            base.append(member)
        bases.append(base)
    return bases


def one_step_bases(dist) -> list[list[Seq]]:
    """Bases replacing the last symbol of the most likely prefix by each symbol.

    Level ``t`` is ``{w · o : o in alphabet}`` where ``w`` is the most probable
    length-``t - 1`` prefix (lexicographically smallest on ties).
    """
    O, T = dist.n_symbols, dist.horizon
    bases: list[list[Seq]] = [[()]]
    for t in range(1, T + 1):
        best_w, best_p = (), -1.0
        for w in all_seqs(O, t - 1):
            p = dist.joint_prob(w)
            if p > best_p + 1e-15:
                best_w, best_p = w, p
        bases.append([best_w + (o,) for o in range(1, O + 1)])
    return bases


def greedy_spanning_bases(dist) -> list[list[Seq]]:
    """Minimal per-level bases found by greedy rank-increase over histories.

    Scans length-``t`` histories in lexicographic order and keeps those whose
    exact-length future conditionals increase the numerical rank.  The final
    level keeps only the lexicographically smallest positive-probability
    sequence.
    """
    O, T = dist.n_symbols, dist.horizon
    bases: list[list[Seq]] = [[()]]
    for t in range(1, T):
        joint, table = future_table(dist, T - t, t=t)
        full_rank = numerical_rank(table[joint > 0.0], SPAN_TOL)
        members: list[Seq] = []
        rows: list[np.ndarray] = []
        for h, p, row in zip(all_seqs(O, t), joint, table):
            if len(rows) == full_rank:
                break
            if (p > 0.0 and numerical_rank(np.vstack(rows + [row]), SPAN_TOL)
                    > len(rows)):
                members.append(h)
                rows.append(row)
        bases.append(members)
    for seq in all_seqs(O, T):
        if dist.joint_prob(seq) > 0.0:
            bases.append([seq])
            break
    else:
        raise ValueError("distribution has no positive-probability sequence")
    return bases
