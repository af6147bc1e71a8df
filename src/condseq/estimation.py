"""Empirical conditional-probability estimation over a sampling oracle.

Shared machinery for the sampling-based learner and the approximate-basis
search.  The estimator builds one empirical next-symbol histogram per distinct
conditioning history, and both callers read it through one screened block
``Pr[F | H]`` (the sampled observation table, rows by future, columns by
history), so a history that appears in many estimates is sampled once.
"""

from __future__ import annotations

import numpy as np

from .distributions import ZeroProbabilityHistory
from .oracles import OracleHandle
from .sequences import Seq


class CondEstimator:
    """Cached empirical conditionals behind a sampling oracle.

    One histogram of next-symbol frequencies is built per distinct
    conditioning history (``samples_per_history`` fresh draws each) and reused
    by every estimate that walks through that history.  Multi-step
    conditionals are products of per-step empirical frequencies, so repeated
    calls are deterministic once the underlying histograms exist.
    """

    def __init__(self, oracle: OracleHandle, samples_per_history: int) -> None:
        if samples_per_history <= 0:
            raise ValueError("samples_per_history must be positive")
        self.oracle = oracle
        self.samples_per_history = samples_per_history
        self._freqs: dict[Seq, np.ndarray] = {}

    @property
    def histories_cached(self) -> int:
        return len(self._freqs)

    # -- cached one-step tables -------------------------------------------

    def next_symbol_freqs(self, history: Seq) -> np.ndarray:
        """Empirical next-symbol frequencies after ``history``.

        A history the underlying distribution gives zero probability yields
        the all-zero vector (conditioning on it is impossible, and every
        estimate walking through it should vanish).  Each draw is charged as
        a full future but only its first symbol is simulated.
        """
        history = tuple(history)
        cached = self._freqs.get(history)
        if cached is not None:
            return cached
        if len(history) >= self.oracle.horizon:
            raise ValueError("history already has full length")
        n_symbols = self.oracle.n_symbols
        try:
            first = self.oracle.sample_futures(
                history, self.samples_per_history, steps=1)[:, 0]
        except ZeroProbabilityHistory:
            freqs = np.zeros(n_symbols)
        else:
            freqs = np.bincount(first - 1, minlength=n_symbols) / first.size
        self._freqs[history] = freqs
        return freqs

    # -- derived multi-step estimates -------------------------------------

    def gated_block(self, histories: list[Seq], futures: list[Seq],
                    alpha: float) -> np.ndarray:
        """Screened estimates ``Pr[f | h]``: rows by future, columns by history.

        Entry ``(i, j)`` is the product over ``k`` of the step frequencies
        ``next_symbol_freqs(h_j + f_i[:k])[f_i[k]]``, or zero unless every step
        exceeds ``2 * alpha``: a future failing this regularity screen is (with
        high probability) irregular at level ``3 * alpha``, so its estimate
        cannot be trusted.  The futures share one length.  Histograms are read
        future by future, then history by history, then step by step.
        """
        length = len(futures[0]) if futures else 0
        steps = np.array([[[self.next_symbol_freqs(h + f[:k])[f[k] - 1]
                            for k in range(length)] for h in histories]
                          for f in futures]).reshape(len(futures), len(histories), length)
        return np.where(np.all(steps > 2.0 * alpha, axis=2), np.prod(steps, axis=2), 0.0)
