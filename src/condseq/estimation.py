"""Empirical conditional-probability estimation over a sampling oracle.

Shared machinery for the sampling-based learner and the approximate-basis
search.  The estimator builds one empirical next-symbol histogram per distinct
conditioning history, and both callers read it through one screened block
``Pr[F | H]`` (the sampled observation table, rows by future, columns by
history), so a history that appears in many estimates is sampled once.

Histograms are keyed by a history's length and ``seq_to_index`` code, folded
into one int64 (:func:`~condseq.sequences.shortlex_rank`).  A block ranks
every history ``h + f[:k]`` it reads in one array and gathers its steps from
the distinct ones' histograms, drawing missing ones in the order a walk
future by future, history by history, step by step first reaches them.
"""

from __future__ import annotations

import numpy as np

from .distributions import ZeroProbabilityHistory
from .oracles import OracleHandle
from .sequences import Seq, check_count, seq_count, shortlex_rank


class CondEstimator:
    """Cached empirical conditionals behind a sampling oracle.

    One histogram of next-symbol frequencies is built per distinct
    conditioning history (``samples_per_history`` fresh draws each) and reused
    by every estimate that walks through that history.  Multi-step
    conditionals are products of per-step empirical frequencies, so repeated
    calls are deterministic once the underlying histograms exist.
    """

    def __init__(self, oracle: OracleHandle, samples_per_history: int) -> None:
        check_count("samples_per_history", samples_per_history)
        if seq_count(oracle.n_symbols, oracle.horizon) > 2**63:  # bounds every rank
            raise ValueError(f"{oracle.n_symbols}^{oracle.horizon} sequences "
                             "overflow int64 history ranks")
        self.oracle = oracle
        self.samples_per_history = samples_per_history
        self._freqs: dict[int, np.ndarray] = {}

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
        n_symbols = self.oracle.n_symbols
        key = shortlex_rank(history, n_symbols)
        cached = self._freqs.get(key)
        if cached is not None:
            return cached
        if len(history) >= self.oracle.horizon:
            raise ValueError("history already has full length")
        try:
            first = self.oracle.sample_futures(
                history, self.samples_per_history, steps=1)[:, 0]
        except ZeroProbabilityHistory:
            freqs = np.zeros(n_symbols)
        else:
            freqs = np.bincount(first - 1, minlength=n_symbols) / first.size
        self._freqs[key] = freqs
        return freqs

    # -- derived multi-step estimates -------------------------------------

    def gated_block(self, histories: list[Seq], futures: list[Seq],
                    alpha: float) -> np.ndarray:
        """Screened estimates ``Pr[f | h]``: rows by future, columns by history.

        Entry ``(i, j)`` is the product over ``k`` of the step frequencies
        ``next_symbol_freqs(h_j + f_i[:k])[f_i[k]]``, or zero unless every step
        exceeds ``2 * alpha``: a future failing this regularity screen is (with
        high probability) irregular at level ``3 * alpha``, so its estimate
        cannot be trusted.  The futures share one length, and no history plus
        future may pass the horizon.

        The ``(F, H, L)`` step array is gathered from a table with one row per
        distinct history ``h_j + f_i[:k]``, found by rank.  Rows are read, and
        missing histograms drawn, future by future, history by history, step
        by step, in order of first touch.
        """
        n_symbols = self.oracle.n_symbols
        length = len(futures[0]) if futures else 0
        if length and max(map(len, histories), default=0) + length > self.oracle.horizon:
            raise ValueError("history plus future exceed horizon")
        symbols = np.array(futures, dtype=np.int64).reshape(len(futures), length)
        shape = (len(futures), len(histories), length)
        ranks = np.empty(shape, dtype=np.int64)  # of h_j + f_i[:k], a symbol a step
        ranks[:, :, :1] = np.reshape([shortlex_rank(h, n_symbols) for h in histories], (-1, 1))
        for k in range(1, length):
            ranks[:, :, k] = ranks[:, :, k - 1] * n_symbols + symbols[:, None, k - 1]
        _, firsts, slots = np.unique(ranks.ravel(), return_index=True, return_inverse=True)
        table = np.empty((len(firsts), n_symbols))
        for slot in np.argsort(firsts):
            i, j, k = np.unravel_index(firsts[slot], shape)
            table[slot] = self.next_symbol_freqs(histories[j] + futures[i][:k])
        steps = table[slots.reshape(shape), symbols[:, None, :] - 1]
        return np.where(np.all(steps > 2.0 * alpha, axis=2), np.prod(steps, axis=2), 0.0)
