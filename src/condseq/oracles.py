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
charged query per distinct key.

``sample_joint_levels`` serves a counterexample sweep: a generator that
hands out the levels ``t = 1, 2, ...`` of joint prefixes one at a time,
charging one joint query per draw as it hands each out.  With each level
comes the uncharged block of joint probabilities ``Pr[x·λ]`` of its
distinct prefixes ``x`` and tests ``λ``.  An HMM draws consecutive levels
in one distinct-prefix walk; the random stream, the draws and the charges
are those of one ``sample_joint`` call per level, wherever the sweep stops.
Exact reads of the held keys, each still charged, are answered from the
latest level's block.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .sequences import Seq, check_count, rows_as_seqs

EXACT = "exact"
SAMPLING = "sampling"


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

    def sample_joint_levels(self, size: int, tests_by_level: list[list[Seq]]
                            ) -> Iterator[tuple[list[Seq], np.ndarray]]:
        """A sweep's levels ``t = 1, 2, ...`` of joint prefixes, with ``Pr[x·λ]``.

        Exact mode only.  A generator: before it hands out level ``t`` it
        charges ``size`` joint queries, as :meth:`sample_joint` ``(t, size)``
        does, and it hands out what that call would draw next: the distinct
        prefixes ``x`` in order of first appearance, with their uncharged
        ``(m, k)`` block for the tests ``tests_by_level[t - 1]``, held for
        exact reads until the next level.  An ``Hmm`` walks consecutive
        levels together (``Hmm.sample_joint_levels``) and, closed early or
        stopped by an exception, puts ``rng`` back where the charged levels
        leave it; other distributions draw each level with ``sample_futures``
        when it is charged and answer ``conditional_prob((), x·λ)`` key by
        key.  Close the generator once done with it.  A bad ``size``, or a
        key past the horizon, raises ``ValueError`` here, before any charge.
        """
        tests_by_level = [[tuple(lam) for lam in tests] for tests in tests_by_level]
        check_count("size", size, least=0)
        self._check_exact("sample_joint_levels", max(
            [t + len(lam) for t, tests in enumerate(tests_by_level, 1) for lam in tests]
            + [len(tests_by_level)]))
        if hasattr(self.dist, "sample_joint_levels"):
            walk = self.dist.sample_joint_levels(self.rng, size, tests_by_level)
        else:
            walk = self._table_levels(size, tests_by_level)
        return self._charged_levels(size, tests_by_level, walk)

    def _charged_levels(self, size: int, tests_by_level: list[list[Seq]],
                        walk: Iterator) -> Iterator[tuple[list[Seq], np.ndarray]]:
        """Each level of ``walk`` once it is charged; closing this closes ``walk``."""
        with closing(walk):
            for tests in tests_by_level:
                self._charge(size, 0, "joint_queries")
                draws, block = next(walk)
                samples = rows_as_seqs(draws)
                keys = [x + lam for x in samples for lam in tests]
                self._held = dict(zip(keys, block.ravel().tolist()))
                yield samples, block

    def _table_levels(self, size: int, tests_by_level: list[list[Seq]]
                      ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The levels of a distribution without its own walk, drawn one by one."""
        for t, tests in enumerate(tests_by_level, 1):
            draws = self.dist.sample_futures((), self.rng, size, t)
            distinct = draws[np.sort(np.unique(draws, axis=0, return_index=True)[1])]
            block = [[self.dist.conditional_prob((), tuple(x) + lam) for lam in tests]
                     for x in distinct.tolist()]
            yield distinct, np.array(block).reshape(len(distinct), len(tests))

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
