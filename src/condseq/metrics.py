"""Ground-truth evaluation: TV distances, basis spectra, regularity mass.

Everything here is enumeration-based and exact (up to float arithmetic); these
are the referee quantities the learners are judged against, so none of them
depend on learner code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .distributions import _check_enum, enumerate_joint, future_table
from .oom import OomModel, level_walk
from .sequences import Seq, all_seqs, rows_as_seqs, seq_count, seq_to_index

EIG_REL_CUTOFF = 1e-10


def _seq_probs(dist) -> np.ndarray:
    if isinstance(dist, OomModel):  # raw values, summed off the last level
        *_, coeffs = level_walk(dist.operators)
        return coeffs.sum(axis=1)
    return enumerate_joint(dist)


def tv_exact(p, q) -> float:
    """Half ℓ1 distance over all full-length sequences.

    ``q`` may be a raw :class:`OomModel`, whose values can be negative — the
    result then may exceed 1.  Past ``ENUM_CAP`` sequences it raises
    :class:`~condseq.distributions.EnumerationCapError`.
    """
    if (p.horizon, p.n_symbols) != (q.horizon, q.n_symbols):
        raise ValueError("distributions must share horizon and alphabet")
    _check_enum(p.n_symbols, p.horizon)
    return 0.5 * float(np.abs(_seq_probs(p) - _seq_probs(q)).sum())


def conditional_gap_exact(p, q) -> float:
    """Exactly enumerated ``ε' = max_{t,o} E_{x∼p} |q[o|x_{1:t}] − p[o|x_{1:t}]|``.

    A learned-model wrapper ``q`` answers each level at once through its
    level walk; any other ``q`` one ``next_symbol_probs`` per history.
    """
    if (p.horizon, p.n_symbols) != (q.horizon, q.n_symbols):
        raise ValueError("distributions must share horizon and alphabet")
    O, T = p.n_symbols, p.horizon
    levels = q.prefix_levels() if hasattr(q, "prefix_levels") else None
    worst = 0.0
    for t in range(T):
        joint, p_next = future_table(p, 1, t=t)
        live = joint > 0.0
        if levels is not None:
            q_next = next(levels)[2][live]
        else:
            q_next = np.array([q.next_symbol_probs(h)
                               for h, w in zip(all_seqs(O, t), live) if w])
        gaps = joint[live] @ np.abs(q_next.reshape(-1, O) - p_next[live])
        worst = max(worst, float(gaps.max()))
    return worst


def tv_conditional_bound(p, q, n_samples: int = 0,
                         rng: np.random.Generator | None = None,
                         exact: bool = False) -> float:
    """Upper bound ``(T + 1) · O · ε' / 2`` on the TV distance.

    ``ε'`` is the worst expected one-step conditional gap between ``q`` and
    ``p`` under ``p``-distributed prefixes — enumerated exactly with
    ``exact=True``, otherwise estimated from ``n_samples`` joint draws,
    taken as one ``p.sample_futures`` batch: an ``(n, T)`` draw array.
    Both sides then answer all their prefixes in one ``row_conditionals``
    walk of that array (an HMM's batched belief updates, a learned-model
    wrapper's row walk); a ``q`` without it asks ``next_symbol_probs`` per
    prefix, and a ``p`` without it reads each level's :func:`future_table`
    once and picks its rows by prefix code.
    """
    O, T = p.n_symbols, p.horizon
    if exact:
        eps = conditional_gap_exact(p, q)
    else:
        if rng is None or n_samples <= 0:
            raise ValueError("need samples (or exact=True)")
        rows = p.sample_futures((), rng, n_samples)
        if hasattr(q, "row_conditionals"):
            q_next = q.row_conditionals(rows)
        else:
            q_next = np.array([[q.next_symbol_probs(x[:t]) for t in range(T)]
                               for x in rows_as_seqs(rows)])
        if hasattr(p, "row_conditionals"):
            p_next = p.row_conditionals(rows)
        else:
            p_next = np.empty((n_samples, T, O))
            codes = np.zeros(n_samples, dtype=np.int64)
            for t in range(T):
                p_next[:, t] = future_table(p, 1, t=t)[1][codes]
                codes = codes * O + rows[:, t] - 1
        eps = float((np.abs(q_next - p_next).sum(axis=0) / n_samples).max())
    return (T + 1) * O * eps / 2.0


# ---------------------------------------------------------------------------
# Basis spectra.
# ---------------------------------------------------------------------------


def _positive_floor(eigs: np.ndarray) -> float:
    """Smallest eigenvalue above the relative zero cutoff (0 if none)."""
    if eigs.size == 0:
        return 0.0
    top = float(eigs.max())
    if top <= 0.0:
        return 0.0
    positive = eigs[eigs > EIG_REL_CUTOFF * top]
    return float(positive.min()) if positive.size else 0.0


@dataclass
class FidelityReport:
    """Per-level spectra of the history-weighted preconditioned matrices."""

    sigmas: list[float]            # σ₊ per level 0..T
    # Eigenvalues of Zᵀ Z, descending, per level: min(#kept futures,
    # #histories) of them, the squared singular values of Z.  The remaining
    # eigenvalues of the history-by-history Gram are exactly zero.
    spectra: list[np.ndarray]
    basis_sizes: list[int]

    @property
    def min_sigma(self) -> float:
        return min(self.sigmas)

    def as_dict(self) -> dict:
        return {
            "min_sigma": self.min_sigma,
            "sigmas": [float(s) for s in self.sigmas],
            "basis_sizes": list(self.basis_sizes),
            "spectra": [[float(v) for v in spec] for spec in self.spectra],
        }


def fidelity_for_bases(dist, bases: list[list[Seq]]) -> FidelityReport:
    """Spectrum of ``S^{1/2} Pᵀ D⁻¹ P S^{1/2}`` at every level.

    ``P`` holds exact-length future conditionals given every positive-
    probability history, ``S`` weights histories by their joint probability,
    and ``D`` holds the candidate basis's summed future conditionals
    ``d(f) = Σ_{b ∈ B_t} Pr[f | b]`` (futures with ``d(f) = 0`` are skipped).
    The spectrum is taken from the singular values of ``Z = D^{-1/2} P
    S^{1/2}``, so the history-by-history Gram ``Zᵀ Z`` is never formed.  σ₊
    per level is the smallest eigenvalue above a relative cutoff.
    """
    T = dist.horizon
    if len(bases) != T + 1:
        raise ValueError("need one basis per level 0..T")
    sigmas, spectra = [], []
    for t, members in enumerate(bases):
        eigs = _Level(dist, t).spectrum(members)
        sigmas.append(_positive_floor(eigs))
        spectra.append(eigs)
    return FidelityReport(sigmas=sigmas, spectra=spectra,
                          basis_sizes=[len(members) for members in bases])


class _Level:
    """One level's future table, built once to score any basis against."""

    def __init__(self, dist, t: int) -> None:
        self.n_symbols = dist.n_symbols
        joint, self.table = future_table(dist, dist.horizon - t, t=t)
        positive = joint > 0.0
        # Zᵀ before its columns are divided by sqrt(d)
        self.weighted = self.table[positive] * np.sqrt(joint[positive])[:, None]
        self.histories = [h for h, keep in zip(all_seqs(dist.n_symbols, t),
                                               positive) if keep]

    def spectrum(self, members: list[Seq]) -> np.ndarray:
        """Eigenvalues of ``Zᵀ Z``, descending, for the basis ``members``."""
        d = self.table[[seq_to_index(b, self.n_symbols) for b in members]].sum(axis=0)
        keep = d > 0.0
        z = self.weighted[:, keep] / np.sqrt(d[keep])
        return np.linalg.svd(z, compute_uv=False) ** 2


def sigma_matrix(dist, members: list[Seq]) -> np.ndarray:
    """Preconditioned basis covariance ``Σ_B = P_Bᵀ D̄⁻¹ P_B``.

    ``D̄`` averages the future conditionals of the positive-probability
    members (with multiplicity), so a singleton basis gives exactly
    ``[[1]]``.  A zero-probability member weighs nothing, for every type: its
    row of ``P_B`` is zero, so it adds a zero row and column.  Futures with
    zero average are skipped.
    """
    if not members:
        raise ValueError("empty basis")
    t = len(members[0])
    if any(len(b) != t for b in members):
        raise ValueError("basis members must share a length")
    joint, P = future_table(dist, dist.horizon - t, histories=members)
    d_bar = P.sum(axis=0) / max(np.count_nonzero(joint > 0.0), 1)
    keep = d_bar > 0.0
    Y = P[:, keep] / np.sqrt(d_bar[keep])
    return Y @ Y.T


def robust_sigma_per_level(dist, bases: list[list[Seq]]) -> list[float]:
    out = []
    for members in bases:
        eigs = np.linalg.eigvalsh(sigma_matrix(dist, members))
        out.append(_positive_floor(eigs))
    return out


def search_fidelity_bases(dist, max_size: int = 3
                          ) -> tuple[list[list[Seq]], FidelityReport]:
    """Exhaustive per-level search for the best small basis (tiny horizons only).

    At each level tries every subset of positive-probability histories up to
    ``max_size`` members and keeps the subset with the largest σ₊.
    """
    O, T = dist.n_symbols, dist.horizon
    if seq_count(O, T) > 256:
        raise ValueError("exhaustive basis search is for very small instances")
    best_bases: list[list[Seq]] = []
    for t in range(T + 1):
        level = _Level(dist, t)
        hists = level.histories
        best: tuple[float, list[Seq]] = (-1.0, [hists[0]])
        for size in range(1, min(max_size, len(hists)) + 1):
            for combo in combinations(hists, size):
                sigma = _positive_floor(level.spectrum(list(combo)))
                if sigma > best[0] + 1e-12:
                    best = (sigma, list(combo))
        best_bases.append(best[1])
    report = fidelity_for_bases(dist, best_bases)
    return best_bases, report


# ---------------------------------------------------------------------------
# Regularity.
# ---------------------------------------------------------------------------


def irregular_mass(dist, history: Seq, alpha: float) -> float:
    """Conditional mass of futures containing a step with probability ≤ ``alpha``.

    A future is irregular for ``history`` if along its unrolling some one-step
    conditional drops to ``alpha`` or below; the union bound caps this mass at
    ``O · T · alpha``.  Computed exactly by tree traversal: once an irregular
    step is taken the whole subtree counts.
    """
    T = dist.horizon

    def walk(h: Seq, mass: float) -> float:
        if len(h) == T or mass <= 0.0:
            return 0.0
        step = dist.next_symbol_probs(h)
        out = 0.0
        for o, p in enumerate(step, start=1):
            if p <= alpha:
                out += mass * p
            else:
                out += walk(h + (o,), mass * p)
        return out

    return walk(tuple(history), 1.0)


def sequence_two_step_matrix(dist) -> np.ndarray:
    """Joint matrix ``M[i, j] = Pr[x₂ = i, x₁ = j]`` of the first two symbols."""
    O = dist.n_symbols
    if dist.horizon < 2:
        raise ValueError("need horizon >= 2")
    mat = np.empty((O, O))
    for j in range(1, O + 1):
        p_j = dist.joint_prob((j,))
        if p_j > 0.0:
            mat[:, j - 1] = p_j * dist.next_symbol_probs((j,))
        else:
            mat[:, j - 1] = 0.0
    return mat


def expected_span_residual(dist, members: list[Seq]) -> float:
    """Expected ℓ1 gap between conditional futures and the members' span.

    Enumerates every positive-probability history of the members' length,
    projects its conditional future distribution onto the span of the
    members' conditionals by least squares, and averages the ℓ1 residual
    under the history marginal.  A basis is good when this is small.
    """
    if not members:
        raise ValueError("at least one member is required")
    t = len(members[0])
    if any(len(b) != t for b in members):
        raise ValueError("members must share one length")
    O, T = dist.n_symbols, dist.horizon
    _check_enum(O, T)
    joint, table = future_table(dist, T - t, t=t)
    positive = joint > 0.0
    basis_cols = table[[seq_to_index(b, O) for b in members]].T
    targets = table[positive].T
    beta, *_ = np.linalg.lstsq(basis_cols, targets, rcond=None)
    resid = np.abs(targets - basis_cols @ beta).sum(axis=0)
    return float(joint[positive] @ resid)
