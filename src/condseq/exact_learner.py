"""Counterexample-driven learner using the exact conditional-probability oracle.

The learner maintains, per prefix length ``t``, a set of representative
histories ``B_t`` and test futures ``L_t`` whose conditional-probability matrix
``Pr[L_t | B_t]`` stays square and invertible.  The first round solves for
per-symbol operators consistent with those matrices.  Each round hunts for a
sampled prefix whose predicted test probabilities disagree with the oracle,
and uses the earliest point of disagreement to grow one level's history/test
pair — which provably bumps that level's matrix rank by one.  Growing level
``tau`` changes only the two solves that read its matrices, those of levels
``tau - 1`` and ``tau``, so only those are solved again.  When a sampling
sweep finds no disagreement, the operators are packaged as a model.

A sweep is one walk of the oracle's joint draws, handed out level by level
(``OracleHandle.sample_joint_levels``).  For an HMM the draws of
consecutive levels share one distinct-prefix tree, so a prefix they share
is filtered once; the learner still receives, and pays for, one level at a
time, and the draws, charges and random stream are those of drawing each
level alone, wherever the sweep stops.  Each level comes with its ``m``
distinct samples and, from the same walk, their ``(m, k)`` true values
``Pr[x·λ]``; a value already in the learner's memo takes the place of the
computed one.  The samples go through the operators as one ``(m, r)``
array, and one array comparison with the predictions finds the first
disagreeing sample.  One batched read then charges, in draw order, an
exact query for each true value up to and including that sample which the
memo lacks, so the queries, their order, their totals and a budget's
cut-off are those of checking every sample in turn.  Processing a
counterexample walks it once with a running coefficient vector, the same
chain of products as predicting each of its prefixes from the root.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .distributions import numerical_rank
from .oom import OomModel, row_walk
from .oracles import OracleHandle, check_count, check_positive
from .sequences import Seq

EQ_TOL = 1e-9          # |prediction - oracle| above this is a counterexample
RANK_TOL = 1e-9        # relative singular-value cutoff of the rank checks
DEFAULT_N_CONSTANT = 8  # sample-count constant: n = ceil(8 ln(T r / delta) / eps^2)
ROUND_SLACK = 5


class LearnerInvariantError(RuntimeError):
    """A maintained invariant broke — indicates a bug, not a bad input."""


@dataclass
class LearnerState:
    """Histories, test futures, cached oracle values, and the progress trace."""

    n_symbols: int
    horizon: int
    histories: list[list[Seq]]      # B_t, t = 0..T
    tests: list[list[Seq]]          # L_t, t = 0..T
    values: dict[tuple[Seq, Seq], float] = field(default_factory=dict)
    rounds: int = 0
    trace: list[dict] = field(default_factory=list)

    def pr(self, oracle: OracleHandle, history: Seq, future: Seq) -> float:
        """Oracle value ``Pr[future | history]``, memoized."""
        key = (tuple(history), tuple(future))
        if key not in self.values:
            self.values[key] = oracle.exact_query(*key)
        return self.values[key]

    def block(self, oracle: OracleHandle, histories: list[Seq],
              futures: list[Seq]) -> np.ndarray:
        """Memoized ``Pr[futures | histories]``, read and laid out row by future."""
        return np.array([[self.pr(oracle, b, f) for b in histories]
                         for f in futures])

    def test_matrix(self, oracle: OracleHandle, t: int) -> np.ndarray:
        """``Pr[L_t | B_t]`` with rows indexed by tests."""
        return self.block(oracle, self.histories[t], self.tests[t])

    def max_size(self) -> int:
        return max(len(members) for members in self.histories)


def init_state(oracle: OracleHandle) -> LearnerState:
    """Singleton histories ``o*^t`` and one-step tests with nonzero probability.

    ``o*`` is the smallest symbol whose constant sequence has positive joint
    probability (falling back to a greedy positive-probability chain if no
    constant sequence has any mass).  Each interior test set starts as the
    smallest single symbol ``o`` with ``Pr[o | B_t] > 0``; the level-``T`` test
    is the empty future, making every starting matrix ``1×1`` and nonzero.
    """
    O, T = oracle.n_symbols, oracle.horizon
    state = LearnerState(
        n_symbols=O, horizon=T,
        histories=[[] for _ in range(T + 1)],
        tests=[[] for _ in range(T + 1)],
    )
    chain: list[Seq] | None = None
    for o_star in range(1, O + 1):
        if state.pr(oracle, (), (o_star,) * T) > 0.0:
            chain = [(o_star,) * t for t in range(T + 1)]
            break
    if chain is None:
        prefix: Seq = ()
        chain = [()]
        for _ in range(T):
            for o in range(1, O + 1):
                if state.pr(oracle, (), prefix + (o,)) > 0.0:
                    prefix = prefix + (o,)
                    break
            else:
                raise LearnerInvariantError("no positive-probability extension")
            chain.append(prefix)
    for t in range(T + 1):
        state.histories[t] = [chain[t]]
    state.tests[0] = []
    for t in range(T):
        for o in range(1, O + 1):
            if state.pr(oracle, chain[t], (o,)) > 0.0:
                state.tests[t] = [(o,)]
                break
        else:
            raise LearnerInvariantError(f"level {t}: no symbol has positive probability")
    state.tests[T] = [()]
    return state


def solve_operators(state: LearnerState, oracle: OracleHandle) -> list[list[np.ndarray]]:
    """Every level's operators, :func:`solve_level` for ``t = 0..T-1``."""
    return [solve_level(state, oracle, t) for t in range(state.horizon)]


def solve_level(state: LearnerState, oracle: OracleHandle, t: int) -> list[np.ndarray]:
    """Per-symbol level-``t`` operators solving ``Pr[L_{t+1}|B_{t+1}] A = Pr[o L_{t+1}|B_t]``."""
    lhs = state.test_matrix(oracle, t + 1)
    per_symbol = []
    for o in range(1, state.n_symbols + 1):
        rhs = state.block(oracle, state.histories[t],
                          [(o, *lam) for lam in state.tests[t + 1]])
        sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=1e-12)
        residual = float(np.max(np.abs(lhs @ sol - rhs))) if rhs.size else 0.0
        if residual > 1e-7:
            raise LearnerInvariantError(
                f"operator solve at level {t}, symbol {o} left residual {residual:.3g}"
            )
        per_symbol.append(sol)
    return per_symbol


def find_counterexample(state: LearnerState, operators: list[list[np.ndarray]],
                        oracle: OracleHandle, n: int,
                        eq_tol: float = EQ_TOL) -> tuple[Seq, int] | None:
    """First sampled prefix whose predicted test probabilities are off.

    Draws ``n`` joint-prefix samples per length ``t = 1..T`` (in that order)
    and returns the first distinct sample, in draw order, with an ∞-norm
    disagreement above ``eq_tol`` as ``(prefix, t)``; ``None`` if every check
    passes.  Each level is one block and one batched read, and the sweep
    one walk handed out level by level (module docstring).
    """
    with closing(oracle.sample_joint_levels(n, state.tests[1:])) as levels:
        for t, (samples, true) in enumerate(levels, 1):
            tests = state.tests[t]
            # the samples go through the operators together, row i for sample i
            *_, g = row_walk(operators, np.array(samples, dtype=np.int64).reshape(-1, t))
            predicted = g @ state.test_matrix(oracle, t).T
            keys = [((), x + lam) for x in samples for lam in tests]
            seen = [i for i, key in enumerate(keys) if key in state.values]
            true.flat[seen] = [state.values[keys[i]] for i in seen]
            bad = np.flatnonzero(np.max(np.abs(predicted - true), axis=1) > eq_tol)
            read = keys[:(bad[0] + 1) * len(tests)] if bad.size else keys
            unseen = list(dict.fromkeys([key for key in read if key not in state.values]))
            # a cut budget raises after the values it paid for are stored
            state.values.update(zip(unseen, oracle.exact_joints([f for _, f in unseen])))
            if bad.size:
                return samples[bad[0]], t
    return None


def process_counterexample(state: LearnerState, operators: list[list[np.ndarray]],
                           oracle: OracleHandle, x: Seq,
                           eq_tol: float = EQ_TOL) -> tuple[int, Seq, Seq]:
    """Grow one level's history/test pair from a counterexample prefix.

    Finds the earliest level ``j`` along ``x`` where predictions break, with
    ``tau = j - 1`` still matching; adds ``b' = x_{1:tau}`` to ``B_tau`` and
    ``λ' = x_{tau+1} · λ`` (the violated level-``j`` test prefixed by the next
    symbol of ``x``) to ``L_tau``.  The level-``tau`` matrix rank provably
    rises by exactly one, so the grown square table stays full rank; a grown
    table with fewer than ``len(B_tau)`` singular values above ``RANK_TOL``
    times its largest raises ``LearnerInvariantError``.
    """
    first_bad = None
    g = np.ones(1)
    for j in range(1, len(x) + 1):
        g = operators[j - 1][x[j - 1] - 1] @ g
        true = state.block(oracle, [()], [x[:j] + lam for lam in state.tests[j]])
        diff = np.abs(state.test_matrix(oracle, j) @ g - true[:, 0])
        if np.max(diff) > eq_tol:
            first_bad = (j, int(np.argmax(diff)))
            break
    if first_bad is None:
        raise ValueError("input prefix is not a counterexample")
    j, row = first_bad
    if j < 2:
        raise LearnerInvariantError(
            "level-1 predictions are exact by construction; j=1 cannot happen"
        )
    tau = j - 1
    b_new = tuple(x[:tau])
    lam_new = (x[tau],) + tuple(state.tests[j][row])
    if b_new in state.histories[tau]:
        raise LearnerInvariantError("counterexample history already represented")

    state.trace.append({
        "round": state.rounds,
        "tau": tau,
        "histories_before": [tuple(b) for b in state.histories[tau]],
        "tests_before": [tuple(lam) for lam in state.tests[tau]],
        "new_history": b_new,
        "new_test": lam_new,
    })
    state.histories[tau].append(b_new)
    state.tests[tau].append(lam_new)
    grown = state.test_matrix(oracle, tau)
    if numerical_rank(grown, RANK_TOL) != len(grown):
        raise LearnerInvariantError(f"level-{tau} table lost full rank after growth")
    return tau, lam_new, b_new


def default_sample_count(horizon: int, rank_bound: int, eps: float,
                         delta: float) -> int:
    """``ceil(8 ln(T r / delta) / eps²)``: at least 1, however large ``eps`` is.

    Raises ``ValueError`` naming ``eps`` unless the count is below ``2**63``.
    ``rank_bound`` may be an int too large for a float.
    """
    log_arg = max(math.log(horizon * rank_bound) - math.log(delta), 1.0)
    # eps**2 overflows past ~1.3e154; from 1e150 on n is 1 (numerator < 6,000)
    scale = min(eps, 1e150)**2
    n = DEFAULT_N_CONSTANT * log_arg / scale if scale > 0.0 else math.inf
    if not n < 2.0**63:
        raise ValueError(f"eps={eps!r} asks for 2**63 or more samples per level")
    return math.ceil(n)


def learn_exact(oracle: OracleHandle, eps: float = 0.05, delta: float = 0.1,
                n_override: int | None = None,
                eq_tol: float = EQ_TOL) -> tuple[OomModel, dict]:
    """Run the full learner loop until a sampling sweep finds no counterexample.

    ``n_override`` fixes the per-length sample count; otherwise it is recomputed
    each round from the current rank estimate.  ``n_override`` must be an
    int of at least 1, ``eps`` and ``eq_tol`` finite positive reals and
    ``delta`` inside ``(0, 1)``; without ``n_override``, ``eps`` must also
    keep :func:`default_sample_count` below ``2**63`` at the largest rank a
    level can reach.  Anything else raises ``ValueError`` before the first
    query.  Returns the learned model (with one-step matrices
    attached for anchored prediction) and an info dict with rounds, trace,
    and final sizes.  Aborts if the round count exceeds the rank-based bound
    plus slack — that signals a broken invariant, not a hard instance.
    """
    if n_override is not None:
        check_count("n_override", n_override)
    check_positive("eps", eps)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    check_positive("eq_tol", eq_tol)
    if n_override is None:
        # no level's table outgrows its shorter side, O^min(t, T-t) sequences
        default_sample_count(oracle.horizon, oracle.n_symbols ** (oracle.horizon // 2),
                             eps, delta)
    state = init_state(oracle)
    T = state.horizon
    operators = solve_operators(state, oracle)
    while True:
        r_hat = state.max_size()
        n = n_override if n_override is not None else default_sample_count(
            T, r_hat, eps, delta)
        found = find_counterexample(state, operators, oracle, n, eq_tol)
        if found is None:
            break
        state.rounds += 1
        if state.rounds > state.max_size() * T + ROUND_SLACK:
            raise LearnerInvariantError(
                f"round {state.rounds} exceeds the rank-based bound "
                f"{state.max_size() * T} + {ROUND_SLACK}"
            )
        tau, _, _ = process_counterexample(state, operators, oracle, found[0], eq_tol)
        # growing B_tau and L_tau changes the solves into and out of level tau
        for t in (tau - 1, tau):
            operators[t] = solve_level(state, oracle, t)

    model = OomModel(
        n_symbols=state.n_symbols,
        horizon=T,
        bases=[list(members) for members in state.histories],
        operators=operators,
        step_matrices=[state.block(oracle, state.histories[t],
                                   [(o,) for o in range(1, state.n_symbols + 1)])
                       for t in range(T)],
    )
    info = {
        "rounds": state.rounds,
        "basis_sizes": model.basis_sizes(),
        "trace": list(state.trace),
        "queries": oracle.stats.as_dict(),
    }
    return model, info
