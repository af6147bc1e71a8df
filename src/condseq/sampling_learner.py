"""Spectral learner driven by the conditional-sampling oracle.

Learns a sequence-operator model from samples alone: a random basis of
histories per level, preconditioned second-moment estimation, eigenvalue
thresholding, ridge recovery of basis coefficients, and operator assembly.
The analysis behind the procedure prescribes every parameter, but with
constants far too loose to run, so all knobs are explicit with practical
defaults and the returned report records what was used.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .distributions import ZeroProbabilityHistory
from .estimation import CondEstimator
from .oom import OomModel
from .oracles import (SAMPLING, OracleHandle, WrongOracleMode, check_count,
                      check_positive)
from .sequences import Seq, distinct_rows

log = logging.getLogger(__name__)


@dataclass
class AlgoParams:
    """Knobs for the sampling-based learner; counts are ints, the rest positive."""

    basis_size: int = 20         # histories drawn per level
    entry_samples: int = 10_000  # futures per preconditioned-sum column
    eig_threshold: float = 0.05  # eigenvalues above half this are kept
    ridge: float = 1e-4          # coefficient-recovery regularizer
    regularity: float = 0.05     # per-step floor behind the screening test
    coeff_norm: float = 1.0      # assumed bound on basis-coefficient norms
    step_samples: int = 10_000   # draws per cached next-symbol histogram

    def __post_init__(self) -> None:
        for name in ("basis_size", "entry_samples", "step_samples"):
            check_count(name, getattr(self, name))
        for name in ("ridge", "regularity", "coeff_norm"):
            check_positive(name, getattr(self, name))
        check_positive("eig_threshold", self.eig_threshold, high=1.0)


@dataclass
class PrecondEstimates:
    """Preconditioned moment estimates for one level.

    ``sigma`` is the symmetrized second-moment matrix of the level's basis
    members; ``q[:, j, o - 1]`` is the cross-moment vector of the extended
    history ``prev_basis[j] + (o,)`` against the basis; ``one_step`` holds
    empirical next-symbol frequencies of the previous level's members.
    """

    sigma: np.ndarray
    q: np.ndarray
    one_step: np.ndarray

    def __post_init__(self) -> None:
        for name in ("sigma", "q", "one_step"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        n = self.sigma.shape[0]
        if self.sigma.shape != (n, n):
            raise ValueError("sigma must be square")
        if np.abs(self.sigma - self.sigma.T).max() > 1e-12:
            raise ValueError("sigma must be symmetric")
        if self.q.shape[0] != n or self.q.shape[2] != self.one_step.shape[1]:
            raise ValueError("q must be (basis, prev basis, symbols)")
        if self.q.shape[1] != self.one_step.shape[0]:
            raise ValueError("q and one_step disagree on the previous basis")
        if min(self.sigma.min(), self.q.min(), self.one_step.min()) < -1e-9:
            raise ValueError("estimates must be nonnegative")


# ---------------------------------------------------------------------------
# Individual steps.
# ---------------------------------------------------------------------------


def draw_basis(oracle: OracleHandle, t: int, n: int) -> list[Seq]:
    """``n`` i.i.d. joint prefixes of length ``t``; duplicates are kept."""
    check_count("basis size", n)
    return oracle.sample_joint(t, size=n)


def repeat_basis(members: list[Seq], coeff_norm: float) -> list[Seq]:
    """Duplicate members so that unit-norm coefficients suffice.

    When every conditional of interest is a combination of the members with
    coefficient norm at most ``coeff_norm``, repeating each member
    ``ceil(coeff_norm ** 2)`` times lets the weight spread across copies and
    brings the needed norm down to one.
    """
    copies = math.ceil(coeff_norm**2)
    return [b for b in members for _ in range(copies)]


def estimate_sigma_and_q(estimator: CondEstimator, basis: list[Seq],
                         prev_basis: list[Seq],
                         params: AlgoParams) -> PrecondEstimates:
    """All preconditioned moments for one level from shared future batches.

    One batch of ``entry_samples`` futures is drawn per distinct conditioning
    history — the basis members themselves for the second-moment matrix, the
    one-symbol extensions of the previous level's members for the cross
    moments — and every entry in that column reuses the batch, summing its
    distinct futures' terms in batch order.  The matrix is symmetrized after
    estimation.
    """
    oracle, n_symbols = estimator.oracle, estimator.oracle.n_symbols
    extended = [b + (o,) for b in prev_basis for o in range(1, n_symbols + 1)]
    batches: dict[Seq, list[tuple[Seq, int]]] = {}
    for x in dict.fromkeys(list(basis) + extended):
        try:
            batches[x] = distinct_rows(oracle.sample_futures(x, params.entry_samples),
                                       n_symbols)
        except ZeroProbabilityHistory:
            batches[x] = []

    row = {f: i for i, f in enumerate(
        dict.fromkeys(f for batch in batches.values() for f, _ in batch))}
    rel = estimator.gated_block(basis, list(row), params.regularity)
    mix = rel.mean(axis=1, keepdims=True)
    ratios = np.divide(rel, mix, out=np.zeros_like(rel), where=mix > 0.0)
    columns = {}
    for x, batch in batches.items():
        # a zero row (an empty batch sums to 0), then the terms: accumulate
        # adds them in order, where sum() may pair them and round differently
        terms = np.zeros((len(batch) + 1, len(basis)))
        terms[1:] = (np.array([c for _, c in batch], dtype=float)[:, None]
                     * ratios[[row[f] for f, _ in batch]])
        columns[x] = np.add.accumulate(terms, axis=0)[-1] / params.entry_samples

    sigma = np.column_stack([columns[b] for b in basis])
    sigma = 0.5 * (sigma + sigma.T)
    q = np.column_stack([columns[x] for x in extended]).reshape(
        len(basis), len(prev_basis), n_symbols)
    one_step = estimate_one_step(estimator, prev_basis)
    return PrecondEstimates(sigma=sigma, q=q, one_step=one_step)


def estimate_one_step(estimator: CondEstimator,
                      members: list[Seq]) -> np.ndarray:
    """Empirical next-symbol frequencies, one row per member."""
    return np.vstack([estimator.next_symbol_freqs(b) for b in members])


def top_eigenspace(sigma: np.ndarray,
                   threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projection onto eigenvectors with eigenvalue > threshold/2.

    The input is symmetrized before the decomposition; when no eigenvalue
    clears the cut the zero projection is returned.  Also returns the
    eigenvalues the cut was made on, largest first.
    """
    sym = 0.5 * (sigma + sigma.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    vecs = eigvecs[:, eigvals > 0.5 * threshold]
    return vecs @ vecs.T, eigvals[::-1]


def ridge_coefficients(sigma: np.ndarray, q: np.ndarray,
                       ridge: float) -> np.ndarray:
    """Closed-form ridge solution of ``sigma @ beta ~ q``.

    Minimizes ``|sigma beta - q|^2 + ridge |beta|^2`` independently per
    column of ``q``.
    """
    if ridge <= 0.0:
        raise ValueError("ridge must be positive")
    sigma = np.asarray(sigma, dtype=float)
    gram = sigma.T @ sigma + ridge * np.eye(sigma.shape[1])
    return np.linalg.solve(gram, sigma.T @ np.asarray(q, dtype=float))


def assemble_operator(proj_out: np.ndarray, proj_in: np.ndarray,
                      beta_cols: np.ndarray,
                      step_probs: np.ndarray) -> np.ndarray:
    """Operator from coefficient columns, step probabilities, projections.

    ``beta_cols[:, j]`` holds the outgoing-basis coefficients of the ``j``-th
    extended history and ``step_probs[j]`` the probability of the symbol that
    extends it; the result is ``proj_out @ beta_cols @ diag(step) @ proj_in``.
    """
    beta_cols = np.asarray(beta_cols, dtype=float)
    step_probs = np.asarray(step_probs, dtype=float)
    if beta_cols.shape != (proj_out.shape[0], proj_in.shape[0]):
        raise ValueError("coefficient block does not match the projections")
    if step_probs.shape != (proj_in.shape[0],):
        raise ValueError("one step-probability per extended history required")
    return proj_out @ (beta_cols * step_probs[None, :]) @ proj_in


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def learn_sampling(oracle: OracleHandle,
                   params: AlgoParams) -> tuple[OomModel, dict]:
    """Learn a sequence-operator model from conditional samples alone.

    Per level: draw a random basis, estimate its preconditioned moments,
    project onto the dominant eigenspace, recover coefficients by ridge
    regression, and assemble the per-symbol operators.  The first and last
    levels are trivial (the empty history; a conventional final singleton
    whose only future is empty), so the last operator row reduces to
    next-symbol frequencies.  Returns the model plus a report of per-level
    diagnostics and query counts.
    """
    if oracle.mode != SAMPLING:
        raise WrongOracleMode("learn_sampling requires a sampling-mode oracle")
    n_symbols, horizon = oracle.n_symbols, oracle.horizon
    estimator = CondEstimator(oracle, params.step_samples)
    started = time.perf_counter()

    bases: list[list[Seq]] = [[()]]
    projections: list[np.ndarray] = [np.ones((1, 1))]
    operators: list[list[np.ndarray]] = []
    levels: list[dict] = []

    for t in range(1, horizon):
        queries_before = oracle.stats.total
        level_start = phase_start = time.perf_counter()
        basis = repeat_basis(draw_basis(oracle, t, params.basis_size),
                             params.coeff_norm)
        phase_start = _log_phase(oracle, t, "basis", phase_start,
                                 f" distinct={len(set(basis))}")

        est = estimate_sigma_and_q(estimator, basis, bases[t - 1], params)
        phase_start = _log_phase(oracle, t, "moments", phase_start)

        proj, eigvals = top_eigenspace(est.sigma, params.eig_threshold)
        kept = int(np.count_nonzero(eigvals > 0.5 * params.eig_threshold))
        spectrum = (np.array2string(eigvals, precision=4)
                    if log.isEnabledFor(logging.INFO) else "")
        phase_start = _log_phase(oracle, t, "eigenspace", phase_start,
                                 f" kept={kept} spectrum={spectrum}")

        beta = ridge_coefficients(est.sigma, est.q.reshape(len(basis), -1),
                                  params.ridge).reshape(est.q.shape)
        phase_start = _log_phase(oracle, t, "solve", phase_start)

        operators.append([
            assemble_operator(proj, projections[t - 1], beta[:, :, o],
                              est.one_step[:, o])
            for o in range(n_symbols)
        ])
        _log_phase(oracle, t, "assemble", phase_start)

        bases.append(basis)
        projections.append(proj)
        levels.append({
            "level": t,
            "distinct_members": len(set(basis)),
            "eigenvalues": [float(v) for v in eigvals],
            "kept_dim": kept,
            "max_coeff_norm": float(np.linalg.norm(beta, axis=0).max()),
            "queries": oracle.stats.total - queries_before,
            "seconds": time.perf_counter() - level_start,
        })

    phase_start = time.perf_counter()
    queries_before = oracle.stats.total
    one_step = estimate_one_step(estimator, bases[horizon - 1])
    operators.append([
        assemble_operator(np.ones((1, 1)), projections[horizon - 1],
                          np.ones((1, len(bases[horizon - 1]))), one_step[:, o])
        for o in range(n_symbols)
    ])
    bases.append([(1,) * horizon])
    _log_phase(oracle, horizon, "assemble", phase_start)
    levels.append({
        "level": horizon,
        "queries": oracle.stats.total - queries_before,
        "seconds": time.perf_counter() - phase_start,
    })

    model = OomModel(n_symbols=n_symbols, horizon=horizon, bases=bases,
                     operators=operators)
    report = {
        "params": asdict(params),
        "basis_sizes": model.basis_sizes(),
        "levels": levels,
        "histories_cached": estimator.histories_cached,
        "queries": oracle.stats.as_dict(),
        "seconds": time.perf_counter() - started,
    }
    return model, report


def _log_phase(oracle: OracleHandle, t: int, phase: str, start: float,
               extra: str = "") -> float:
    """Log a phase of level ``t`` that began at ``start``; return the time now."""
    log.info("level %d %s: %.2fs, %d queries%s", t, phase,
             time.perf_counter() - start, oracle.stats.total, extra)
    return time.perf_counter()
