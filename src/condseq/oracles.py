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

Exact values are read through ``exact_query``, one charged query each, or
``exact_joints``, which reads joint keys ``Pr[f]`` as a memo would, one
charged query per distinct key.  ``sample_joint_block`` draws a level of
joint prefixes, one joint query per draw, and computes uncharged, in the
same walk for an HMM, the block of joint probabilities ``Pr[x·λ]`` of its
distinct prefixes ``x`` and tests ``λ``.  Exact reads of those keys, each
still charged, are answered from the latest block.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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
    _held: dict = field(init=False, repr=False, default_factory=dict)

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
        by_length = self.stats.by_history_length
        by_length[history_len] = by_length.get(history_len, 0) + k

    # -- exact mode --------------------------------------------------------

    def _check_exact(self, what: str, length: int) -> None:
        if self.mode != EXACT:
            raise WrongOracleMode(f"{what} requires an exact-mode oracle")
        if length > self.horizon:
            raise ValueError("history plus future exceed horizon")

    def exact_query(self, history: Seq, future: Seq) -> float:
        """``Pr[future | history]`` — exact mode only; one query."""
        self._check_exact("exact_query", len(history) + len(future))
        self._charge(1, len(history), "exact_queries")
        if history:
            return self.dist.conditional_prob(tuple(history), tuple(future))
        return self._joint(tuple(future))

    def exact_joints(self, futures: list[Seq]) -> Iterator[float]:
        """Yield ``Pr[f]`` for each of ``futures`` in turn — exact mode only.

        A generator: first charges one exact query per distinct key.  If the
        budget pays for only the first ``p``, it charges those, yields up to
        the first other key and raises the :class:`BudgetExceeded` that
        :meth:`exact_query` raises there.  A key past the horizon raises
        ``ValueError`` first.
        """
        futures = [tuple(f) for f in futures]
        self._check_exact("exact_joints", max(map(len, futures), default=0))
        distinct = list(dict.fromkeys(futures))
        room = len(distinct) if self.budget is None else self.budget - self.stats.total
        paid = distinct[:max(room, 0)]
        if paid:
            self._charge(len(paid), 0, "exact_queries")
        cut = len(paid) < len(distinct)
        yield from map(self._joint, futures[:futures.index(distinct[len(paid)])]
                       if cut else futures)
        if cut:
            self._charge(1, 0, "exact_queries")  # raises BudgetExceeded

    def sample_joint_block(self, t: int, size: int,
                           tests: list[Seq]) -> tuple[list[Seq], np.ndarray]:
        """Distinct length-``t`` prefixes of ``size`` joint draws, and ``Pr[x·λ]``.

        Exact mode only.  Charges ``size`` joint queries, draws what
        :meth:`sample_joint` draws and returns the distinct prefixes ``x`` in
        order of first appearance with their uncharged ``(m, k)`` block for
        ``tests``, held for exact reads until the next call.  An ``Hmm``
        computes it in the walk that draws; other distributions answer
        ``conditional_prob((), x·λ)`` key by key.  Bad ``t`` or ``size``, or
        a key past the horizon, raises ``ValueError`` before any charge.
        """
        tests = [tuple(lam) for lam in tests]
        check_count("t", t, least=0)
        check_count("size", size, least=0)
        self._check_exact("sample_joint_block", t + max(map(len, tests), default=0))
        self._charge(size, 0, "joint_queries")
        if hasattr(self.dist, "sample_joint_block"):
            draws, block = self.dist.sample_joint_block(self.rng, size, t, tests)
        else:
            draws, block = self.dist.sample_futures((), self.rng, size, t), None
        rows = rows_as_seqs(draws)
        # zipped backwards, each distinct row keeps its first index; sorted,
        # those give the distinct rows in order of first appearance
        first = sorted(dict(zip(rows[::-1], range(size - 1, -1, -1))).values())
        samples = [rows[i] for i in first]
        keys = [x + lam for x in samples for lam in tests]
        block = (np.array([self.dist.conditional_prob((), key) for key in keys])
                 if block is None else block[first]).reshape(len(samples), len(tests))
        self._held = dict(zip(keys, block.ravel().tolist()))
        return samples, block

    def _joint(self, future: Seq) -> float:
        value = self._held.get(future)
        return self.dist.conditional_prob((), future) if value is None else value

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
