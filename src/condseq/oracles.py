"""Query-counted oracle access to a sequence distribution.

Learners never touch the underlying distribution directly; they go through an
:class:`OracleHandle`, which enforces the access mode (exact conditional
probabilities vs. conditional sampling), counts every query, and optionally
enforces a total budget.  Joint-distribution samples (full sequences or
truncated prefixes) are available in both modes and count one query per draw.

Sampling queries come as arrays: ``sample_futures`` returns one row per drawn
future and charges one query per row, however many of the future's symbols
the caller asks for (a truncated draw is the prefix of a full one).
``sample_joint`` returns joint draws as a list of tuples.

Exact values are read only through ``exact_query``, one charged query each.
``prefetch`` is simulation, not a query: it charges nothing.  It computes the
``(m, k)`` block of joint probabilities ``Pr[x·λ]`` of ``m`` prefixes and
``k`` tests, an HMM's as one product of forward and backward vectors
(``Hmm.joint_block``), and returns it.  The ``exact_query`` calls that then
read those keys, one at a time and each charged, are answered from the block
and need no simulation of their own.  Only the latest block is held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .sequences import Seq, rows_as_seqs

EXACT = "exact"
SAMPLING = "sampling"


def check_count(name: str, value, least: int = 1) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an int >= ``least``.

    A bool is refused, though Python counts it as an int.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_positive(name: str, value, high: float = math.inf) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a real in ``(0, high]``.

    NaN, infinities and bools are refused.
    """
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not (math.isfinite(value) and 0.0 < value <= high)):
        bound = "> 0" if high == math.inf else f"in (0, {high}]"
        raise ValueError(f"{name} must be a finite real {bound}, got {value!r}")


class BudgetExceeded(RuntimeError):
    """Raised when a query would push the oracle past its budget."""


class WrongOracleMode(RuntimeError):
    """Raised when a query type is not available in the handle's mode."""


@dataclass
class OracleStats:
    """Running counts of oracle usage."""

    exact_queries: int = 0
    sample_queries: int = 0
    joint_queries: int = 0
    by_history_length: dict[int, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.exact_queries + self.sample_queries + self.joint_queries

    def _record(self, history_len: int, k: int) -> None:
        self.by_history_length[history_len] = (
            self.by_history_length.get(history_len, 0) + k
        )

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "exact_queries": self.exact_queries,
            "sample_queries": self.sample_queries,
            "joint_queries": self.joint_queries,
            "by_history_length": dict(sorted(self.by_history_length.items())),
        }


@dataclass
class OracleHandle:
    """Mode-checked, counted access to ``dist``.

    Parameters
    ----------
    dist:
        Any distribution with the duck-typed surface from
        :mod:`condseq.distributions`.
    mode:
        ``"exact"`` or ``"sampling"``.
    seed:
        Seeds a private RNG stream for the sampling queries.
    budget:
        Optional cap on the total query count.
    """

    dist: object
    mode: str = EXACT
    seed: int | None = None
    budget: int | None = None
    stats: OracleStats = field(default_factory=OracleStats)
    rng: np.random.Generator = field(init=False, repr=False)
    _prefetched: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in (EXACT, SAMPLING):
            raise ValueError(f"unknown oracle mode {self.mode!r}")
        self.rng = np.random.default_rng(self.seed)

    @property
    def n_symbols(self) -> int:
        return self.dist.n_symbols

    @property
    def horizon(self) -> int:
        return self.dist.horizon

    def _charge(self, k: int, history_len: int, kind: str) -> None:
        if self.budget is not None and self.stats.total + k > self.budget:
            raise BudgetExceeded(
                f"query budget {self.budget} exhausted "
                f"(at {self.stats.total}, requested {k})"
            )
        setattr(self.stats, kind, getattr(self.stats, kind) + k)
        self.stats._record(history_len, k)

    # -- exact mode --------------------------------------------------------

    def exact_query(self, history: Seq, future: Seq) -> float:
        """``Pr[future | history]`` — exact mode only; one query."""
        if self.mode != EXACT:
            raise WrongOracleMode("exact_query requires an exact-mode oracle")
        if len(history) + len(future) > self.horizon:
            raise ValueError("history plus future exceed horizon")
        self._charge(1, len(history), "exact_queries")
        history, future = tuple(history), tuple(future)
        if not history and future in self._prefetched:
            return self._prefetched[future]
        return self.dist.conditional_prob(history, future)

    def prefetch(self, prefixes, tests: list[Seq]) -> np.ndarray:
        """``(m, k)`` joint probabilities ``Pr[x·λ]``, held for reading; no query.

        ``prefixes`` holds ``m`` prefixes of one length ``t`` (an ``(m, t)``
        int64 array, or a list of tuples), ``tests`` the ``k`` tests.  An
        :class:`~condseq.distributions.Hmm` computes the block in one
        ``joint_block`` product of forward and backward vectors; another
        distribution answers ``conditional_prob((), x·λ)`` one key at a time.
        :meth:`exact_query` then answers those keys from this batch, which
        replaces the previous one.  A key past the horizon raises
        ``ValueError``, as it does in :meth:`exact_query`.
        """
        if self.mode != EXACT:
            raise WrongOracleMode("prefetch requires an exact-mode oracle")
        t = len(prefixes[0]) if len(prefixes) else 0
        symbols = np.asarray(prefixes, dtype=np.int64).reshape(len(prefixes), t)
        tests = [tuple(lam) for lam in tests]
        if t + max(map(len, tests), default=0) > self.horizon:
            raise ValueError("history plus future exceed horizon")
        rows = rows_as_seqs(symbols)
        keys = [x + lam for x in rows for lam in tests]
        if hasattr(self.dist, "joint_block"):
            block = self.dist.joint_block(symbols, tests)
        else:
            block = np.array([self.dist.conditional_prob((), key) for key in keys],
                             dtype=float).reshape(len(rows), len(tests))
        self._prefetched = dict(zip(keys, block.ravel().tolist()))
        return block

    # -- sampling mode -----------------------------------------------------

    def sample_futures(self, history: Seq, size: int,
                       steps: int | None = None) -> np.ndarray:
        """First ``steps`` symbols of ``size`` draws from ``Pr[· | history]``.

        Sampling mode only; returns a ``(size, steps)`` int64 array (all
        ``T - len(history)`` symbols by default) and charges one query per row.
        ``size`` must be an int >= 0; anything else raises ``ValueError``
        before a query is charged.
        """
        if self.mode != SAMPLING:
            raise WrongOracleMode("sample_futures requires a sampling-mode oracle")
        check_count("size", size, least=0)
        history = tuple(history)
        self._charge(size, len(history), "sample_queries")
        return self.dist.sample_futures(history, self.rng, size, steps)

    # -- both modes --------------------------------------------------------

    def sample_joint(self, t: int, size: int) -> list[Seq]:
        """Length-``t`` prefixes of ``size`` joint samples; one query each.

        Only the first ``t`` symbols are simulated.  ``t`` and ``size`` must be
        ints >= 0; anything else raises ``ValueError`` before a query is charged.
        """
        check_count("t", t, least=0)
        check_count("size", size, least=0)
        if t > self.horizon:
            raise ValueError("prefix length out of range")
        self._charge(size, 0, "joint_queries")
        return rows_as_seqs(self.dist.sample_futures((), self.rng, size, t))
