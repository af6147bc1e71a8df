"""Approximate-basis search for regular low-rank sequence distributions.

Grows a basis of histories by hunting for counterexamples: a sampled history
whose conditional future distribution cannot be matched, in a preconditioned
least-squares sense, by any capped-norm combination of the current members.
Each round either certifies the basis (no candidate exceeds the loss
threshold) or adds the first counterexample found; a potential argument caps
the number of rounds, and at desk scale the search ends in a handful.
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np

from .estimation import CondEstimator
from .oracles import SAMPLING, OracleHandle, WrongOracleMode
from .sampling_learner import repeat_basis
from .sequences import Seq, check_count, check_positive, distinct_rows

log = logging.getLogger(__name__)


class RoundCapExceeded(RuntimeError):
    """The counterexample loop outlived its round budget.

    Signals a violated precondition (the distribution is less regular or of
    higher rank than declared); the partial search report is attached.
    """

    def __init__(self, message: str, report: dict) -> None:
        super().__init__(message)
        self.report = report


def coefficient_cap(horizon: int, rank_bound: int, eps: float,
                    regularity: float) -> float:
    """Norm cap for basis coefficients during the search.

    ``sqrt(2 T r log(16 / (alpha eps^2)))`` — wide enough that every
    conditional of a rank-``r`` regular distribution stays representable.
    """
    return math.sqrt(
        2.0 * horizon * rank_bound * math.log(16.0 / (regularity * eps * eps))
    )


def search_round_cap(horizon: int, rank_bound: int, eps: float,
                     regularity: float) -> int:
    """Round budget ``ceil(8 r T^2 log(16 / (eps^2 alpha)))``."""
    return math.ceil(
        8.0 * rank_bound * horizon**2 * math.log(16.0 / (eps * eps * regularity))
    )


# ---------------------------------------------------------------------------
# Loss pieces.
# ---------------------------------------------------------------------------


def mixture_density(target_est, member_ests):
    """Mixture of a candidate's conditional and the basis members'.

    ``d(f) = Pr[f|x] / 2 + (1 / 2h) sum_i Pr[f|b_i]`` from (estimated)
    conditionals; accepts scalars or aligned arrays.
    """
    member_ests = np.asarray(member_ests, dtype=float)
    if member_ests.shape[0] == 0:
        raise ValueError("at least one member is required")
    return 0.5 * target_est + 0.5 * member_ests.mean(axis=0)


def empirical_l2_loss(target_ratios, member_ratios, beta,
                      weights=None) -> float:
    """Average squared preconditioned residual of a coefficient vector.

    Rows hold per-future ratios against the mixture density; ``weights``
    carries multiplicities when futures arrive deduplicated.
    """
    y = np.asarray(target_ratios, dtype=float)
    z = np.asarray(member_ratios, dtype=float)
    resid = y - z @ np.asarray(beta, dtype=float)
    if weights is None:
        return float(resid @ resid / y.size)
    w = np.asarray(weights, dtype=float)
    return float(w @ (resid * resid) / w.sum())


def min_capped_ridge(target_ratios, member_ratios, cap: float,
                     weights=None) -> np.ndarray:
    """Minimize the empirical loss subject to a Euclidean norm cap.

    Plain least squares when the minimizer already fits in the ball;
    otherwise the constrained optimum sits on the sphere and is found by
    binary-searching a ridge penalty until the norm lands in
    ``[0.999 cap, cap]``.
    """
    if cap <= 0.0:
        raise ValueError("cap must be positive")
    y = np.asarray(target_ratios, dtype=float)
    z = np.asarray(member_ratios, dtype=float)
    if weights is not None:
        scale = np.sqrt(np.asarray(weights, dtype=float))
        y = y * scale
        z = z * scale[:, None]
    beta, *_ = np.linalg.lstsq(z, y, rcond=None)
    if np.linalg.norm(beta) <= cap:
        return beta

    gram = z.T @ z
    rhs = z.T @ y
    eye = np.eye(gram.shape[0])

    def solve(penalty: float) -> np.ndarray:
        return np.linalg.solve(gram + penalty * eye, rhs)

    lo, hi = 0.0, 1.0
    while np.linalg.norm(solve(hi)) > cap:
        hi *= 2.0
        if hi > 1e18:
            raise ArithmeticError("ridge search failed to shrink the norm")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        beta = solve(mid)
        norm = np.linalg.norm(beta)
        if norm > cap:
            lo = mid
        elif norm < 0.999 * cap:
            hi = mid
        else:
            return beta
    return solve(hi)


# ---------------------------------------------------------------------------
# Counterexample search.
# ---------------------------------------------------------------------------


def find_approx_basis(oracle: OracleHandle, t: int, eps: float = 0.1,
                      regularity: float = 0.05,
                      rank_bound: int = 2, candidates_per_round: int = 16,
                      loss_samples: int = 2000, step_samples: int = 10_000,
                      repeat_for_unit_norm: bool = True,
                      seed: int = 0) -> tuple[list[Seq], dict]:
    """Search for a basis of length-``t`` histories by counterexample.

    Starts from one sampled history.  Each round samples
    ``candidates_per_round`` fresh histories and estimates, for each, the
    minimum capped-norm loss against the current members; the first whose
    loss exceeds ``eps^2 / 8`` joins the basis, and a round with no such
    candidate certifies the basis and ends the search.  With
    ``repeat_for_unit_norm`` the returned list duplicates each member enough
    times that unit-norm coefficients suffice downstream (the report keeps
    the distinct members).

    ``eps`` and ``regularity`` must be reals in ``(0, 1]`` and ``t`` and every
    count ints of at least 1; anything else, a bool included, raises
    ``ValueError`` before the first query.
    Raises ``RoundCapExceeded`` when the round budget runs out, which means
    the declared regularity or rank bound does not hold.
    """
    if oracle.mode != SAMPLING:
        raise WrongOracleMode("find_approx_basis requires a sampling oracle")
    check_count("t", t)
    if t > oracle.horizon:
        raise ValueError("prefix length out of range")
    for name, value in (("eps", eps), ("regularity", regularity)):
        check_positive(name, value, high=1.0)
    for name, value in (("rank_bound", rank_bound),
                        ("candidates_per_round", candidates_per_round),
                        ("loss_samples", loss_samples),
                        ("step_samples", step_samples)):
        check_count(name, value)
    started = time.perf_counter()
    cap = coefficient_cap(oracle.horizon, rank_bound, eps, regularity)
    budget = search_round_cap(oracle.horizon, rank_bound, eps, regularity)
    threshold = eps * eps / 8.0
    rng = np.random.default_rng(seed)
    estimator = CondEstimator(oracle, step_samples)
    members = oracle.sample_joint(t, size=1)
    rounds: list[dict] = []

    def report() -> dict:
        return {
            "members": list(members),
            "coeff_cap": cap,
            "round_cap": budget,
            "loss_threshold": threshold,
            "rounds": rounds,
            "params": {
                "t": t, "eps": eps, "regularity": regularity,
                "rank_bound": rank_bound,
                "candidates_per_round": candidates_per_round,
                "loss_samples": loss_samples, "step_samples": step_samples,
                "repeat_for_unit_norm": repeat_for_unit_norm, "seed": seed,
            },
            "queries": oracle.stats.as_dict(),
            "seconds": time.perf_counter() - started,
        }

    for round_idx in range(1, budget + 1):
        candidates = oracle.sample_joint(t, size=candidates_per_round)
        found = None
        losses: list[float] = []
        for x in candidates:
            loss, _ = _min_capped_loss(estimator, members, tuple(x),
                                       cap, loss_samples, regularity, rng)
            losses.append(loss)
            if loss > threshold:
                found = tuple(x)
                break
        rounds.append({
            "round": round_idx,
            "checked": len(losses),
            "max_loss": max(losses),
            "counterexample": found,
        })
        log.info("round %d: checked %d candidates, max loss %.3g%s",
                 round_idx, len(losses), max(losses),
                 "" if found is None else f", added {found}")
        if found is None:
            basis = (repeat_basis(members, cap)
                     if repeat_for_unit_norm else list(members))
            return basis, report()
        members.append(found)
    raise RoundCapExceeded(
        f"no certified basis within {budget} rounds; "
        "declared regularity or rank bound looks wrong", report())


def _min_capped_loss(estimator: CondEstimator, members: list[Seq], x: Seq,
                     cap: float, m: int, regularity: float,
                     rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """Estimated minimum capped-norm loss of candidate ``x`` against members.

    Draws ``m`` futures from the candidate/member mixture (fair coin, then a
    uniform member), forms screened relative estimates and their mixture
    ratios, and minimizes the weighted squared residual over the cap ball.
    Futures whose mixture estimate vanishes contribute nothing but still
    count toward the average.
    """
    oracle = estimator.oracle
    h = len(members)
    n_target = int(rng.binomial(m, 0.5))
    member_counts = rng.multinomial(m - n_target, np.full(h, 1.0 / h))
    sources = [(x, n_target)] + list(zip(members, member_counts))
    draws = [oracle.sample_futures(h, int(k)) for h, k in sources if k > 0]
    batch = distinct_rows(np.concatenate(draws), oracle.n_symbols)

    block = estimator.gated_block([x, *members], [f for f, _ in batch], regularity)
    dens = mixture_density(block[:, 0], block[:, 1:].T)[:, None]
    ratios = np.divide(block, dens, out=np.zeros_like(block), where=dens > 0.0)
    y, z = ratios[:, 0], ratios[:, 1:]
    w = np.array([count for _, count in batch], dtype=float)
    beta = min_capped_ridge(y, z, cap, weights=w)
    return empirical_l2_loss(y, z, beta, weights=w), beta


# ---------------------------------------------------------------------------
# Potential bound.
# ---------------------------------------------------------------------------


def elliptical_potential(vectors: np.ndarray, ridge: float) -> float:
    """Average log gain of a vector sequence against its running Gram.

    The i-th term is ``ln(1 + x_i^T G_i^{-1} x_i)`` with ``G_i`` the
    ridge-regularized Gram of rows up to and including ``x_i``.  Low-rank
    sequences quickly stop contributing new directions, which is what caps
    the counterexample rounds.
    """
    vectors = np.asarray(vectors, dtype=float)
    if ridge <= 0.0:
        raise ValueError("ridge must be positive")
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("need a nonempty 2-d array of row vectors")
    gram = ridge * np.eye(vectors.shape[1])
    total = 0.0
    for x in vectors:
        gram = gram + np.outer(x, x)
        total += math.log1p(float(x @ np.linalg.solve(gram, x)))
    return total / vectors.shape[0]


def elliptical_potential_bound(n_vectors: int, dim: int, max_norm: float,
                               ridge: float) -> float:
    """Cap on the average log gain: ``(d/n) ln(1 + n B^2 / (d lambda))``."""
    if min(n_vectors, dim) < 1 or ridge <= 0.0:
        raise ValueError("need positive counts and ridge")
    return dim / n_vectors * math.log1p(
        n_vectors * max_norm**2 / (dim * ridge))
