"""Finite-horizon sequence distributions: HMMs and explicit tables.

Both distribution types expose the same duck-typed surface used throughout the
package:

- ``horizon`` / ``n_symbols`` attributes,
- ``joint_prob(seq)`` for full- or partial-length sequences,
- ``conditional_prob(history, future)``,
- ``next_symbol_probs(history)``,
- ``sample_futures(history, rng, size, steps=None)``, the one simulator: a
  ``(size, steps)`` int64 array holding the first ``steps`` symbols of
  ``size`` futures of ``history`` (all ``T - len(history)`` by default).

An :class:`Hmm` and the learned-model wrappers
(:func:`condseq.oom.to_distribution`) also offer the batched row walk
``row_conditionals(symbols)``: from an ``(n, L)`` int64 symbol array, the
``(n, L, O)`` next-symbol conditionals after every proper prefix of every
row, one batched step per column.  An :class:`Hmm` also offers the sweep
draw ``sample_joint_levels(rng, size, tests_by_level)``, a generator of the
levels ``t = 1, 2, ...``: each is the distinct rows of what
``sample_futures((), rng, size, t)`` would draw next, with the ``(m, k)``
joint probabilities ``Pr[x·λ]`` of those rows and the level's ``k`` tests,
forward times backward vectors.  Where ``conditional_prob((), x·λ)`` is
exactly zero, so is the block's entry.  A :class:`TableDist` offers
neither; callers test for the method and otherwise ask one prefix at a time.  Batched and one-row values
agree to rounding, not bit for bit: a row of a matrix product need not round
like the matching matrix-vector product.  Learned-model
wrappers offer evaluation only: ``joint_prob``, ``conditional_prob`` and
``next_symbol_probs``, the row walk and the level walk ``prefix_levels``
(which :func:`enumerate_joint` uses).  They have no sampling surface.

Truncated draws consume the random stream exactly like full ones: a draw with
``steps=s`` equals the first ``s`` columns of a full draw from an equally
seeded generator, and leaves the generator in the same state, so the next
draw is identical too.  Stopping early only skips simulation work.

An HMM's two batched walks, the draw :meth:`Hmm._draw_levels` (under
``sample_futures`` and ``sample_joint_levels``) and the row walk
:meth:`Hmm.row_conditionals`, share one distinct-prefix step,
:meth:`Hmm._children`: rows that share a prefix share its belief, so each
step filters one belief per distinct prefix, however many rows there are.
The draw walks several levels' rows in one tree, so a prefix that the
levels of a counterexample sweep share is filtered once for all of them.

Conditioning on a zero-probability history has two rules.  Oracle answers
(``conditional_prob``, ``next_symbol_probs``, ``sample_futures``,
``row_conditionals``) keep the type's convention: an HMM resets its state
belief to uniform at the step where the probability dies and keeps filtering,
while a :class:`TableDist` raises :class:`ZeroProbabilityHistory`.  The
referee (:func:`future_table`, :func:`rank_of`,
:func:`condseq.metrics.sigma_matrix` and the exact operators and coefficients
of :mod:`condseq.oom`) uses one rule for every type: a zero-probability
history weighs nothing.  Its future conditionals are a zero row, and an HMM's
belief of it is the zero vector (:func:`_beliefs`).

Every enumeration of an HMM runs on its linear representation
``(μ, K_o, 1)`` (:func:`_kernels`): :func:`_forward` stacks the unnormalised
forward vectors of all length-``t`` histories and :func:`_backward` the
backward vectors of all length-``L`` futures.  :func:`enumerate_joint`
multiplies the forward stack of each prefix's head by the backward stack of
its tail.  On it sits :func:`future_table`, the ``(n, O**length)`` table of
``Pr[f | h]``.

Beside that layer, an HMM's exact operators, coefficients and rank enumerate
no future at all.  Every future conditional of a belief ``b`` is ``M_L b``,
and the row space of ``M_L`` is the length-``L`` observable subspace, of at
most ``S`` dimensions.  :func:`_observable_bases` gives orthonormal bases
``Q_L`` of it; ``Q_Lᵀ b`` stands for ``M_L b`` in
:func:`condseq.oom.construct_exact_operators` and
:func:`condseq.oom.exact_coefficients`, and :func:`rank_of` ranks
``Q_Lᵀ`` times the reachable forward vectors.  These work at any horizon.

Single sequences go through one prefix walk, ``Hmm._walk``, under
``joint_prob``, ``conditional_prob``, ``next_symbol_probs``, :func:`_beliefs`
and the start belief of ``sample_futures``.
It walks from the root, keeping only the path of the previous call, so a
query that shares a prefix with the one before it (an exact oracle asks
``Pr[x·λ]`` for many tests ``λ`` of one prefix ``x``) filters only the
symbols past that prefix.  Every belief is one :meth:`Hmm.step` from its
parent's, so results are bit-identical to filtering from the root.  An HMM's
parameters are read-only copies, and the beliefs on the kept path read-only
arrays: an in-place edit raises instead of leaving a stale belief behind.

The one-row ``step`` and its memo ``_last`` stay beside the distinct-prefix
tree because one-row queries are what the exact learner asks, and the tree is
slower at one row; without ``_last`` every query would walk from the root.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .sequences import Seq, all_seqs, check_count, seq_count, seq_to_index

# Guard for every exhaustive enumeration over O^T sequences.
ENUM_CAP = 2**20

_COL_ATOL = 1e-12  # stochasticity tolerance for HMM parameter columns
_TABLE_ATOL = 1e-9  # total-mass tolerance for explicit tables

# Relative singular-value cutoff of the orthonormal subspace bases behind an
# HMM's exact operators and rank (observable subspaces, reachable forward
# vectors): a direction counts when its singular value exceeds this fraction
# of the largest.  Rounding leaves about 1e-16 on directions that are not there.
_SUBSPACE_RTOL = 1e-12
RANK_TOL = 1e-8  # relative singular-value cutoff of rank_of

# Rows one group of Hmm.sample_joint_levels walks at once: a whole sweep at
# n=200, T=20 (perfbench's exact-parity20).  A level of more rows is a group
# of its own, so a sweep at the exact learner's default eps (n about 17,000)
# holds one level at a time, not T levels' beliefs.
_LEVEL_ROWS = 4000


class EnumerationCapError(RuntimeError):
    """Raised when an exhaustive operation would exceed ``ENUM_CAP`` sequences."""


class ZeroProbabilityHistory(ValueError):
    """Raised by table distributions when conditioning on a null history."""


def _check_enum(n_symbols: int, length: int) -> None:
    if seq_count(n_symbols, length) > ENUM_CAP:
        raise EnumerationCapError(
            f"{n_symbols}^{length} sequences exceed the enumeration cap {ENUM_CAP}"
        )


@dataclass
class Hmm:
    """Hidden Markov model over ``{1..O}``-valued sequences of fixed length.

    Parameters
    ----------
    mu:
        Initial state distribution, shape ``(S,)``.
    emission:
        Column-stochastic observation matrix, shape ``(O, S)``;
        ``emission[o-1, s]`` is the probability of emitting symbol ``o``
        from state ``s``.
    transition:
        Column-stochastic state transition matrix, shape ``(S, S)``;
        ``transition[s', s]`` is the probability of moving to ``s'``.
    horizon:
        Number of emitted symbols ``T``.
    """

    mu: np.ndarray
    emission: np.ndarray
    transition: np.ndarray
    horizon: int
    _last: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.mu = _read_only(self.mu)
        self.emission = _read_only(self.emission)
        self.transition = _read_only(self.transition)
        S = self.mu.shape[0]
        if self.mu.ndim != 1:
            raise ValueError("mu must be a vector")
        if self.emission.ndim != 2 or self.emission.shape[1] != S:
            raise ValueError("emission must be O x S")
        if self.transition.shape != (S, S):
            raise ValueError("transition must be S x S")
        check_count("horizon", self.horizon)
        for name, arr in (("mu", self.mu), ("emission", self.emission),
                          ("transition", self.transition)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
            if np.any(arr < -_COL_ATOL):
                raise ValueError(f"{name} has negative entries")
        if abs(self.mu.sum() - 1.0) > _COL_ATOL:
            raise ValueError("mu must sum to 1")
        for name, arr in (("emission", self.emission), ("transition", self.transition)):
            colsums = arr.sum(axis=0)
            if np.max(np.abs(colsums - 1.0)) > _COL_ATOL:
                raise ValueError(f"{name} columns must sum to 1")
        self._last = ((), [(self.mu, 1.0, 0.0, 1.0)])

    @property
    def n_states(self) -> int:
        return self.mu.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.emission.shape[0]

    # -- filtering ---------------------------------------------------------

    def step(self, belief: np.ndarray, o: int) -> tuple[np.ndarray, float]:
        """One filtering step: observe ``o`` from ``belief`` over the current state.

        Returns the belief over the *next* state and the probability of ``o``.
        A zero-probability observation resets the next-state belief to uniform.
        """
        w = self.emission[o - 1, :] * belief
        p = float(w.sum())
        if p <= 0.0:
            return np.full(self.n_states, 1.0 / self.n_states), 0.0
        return self.transition @ (w / p), p

    def _walk(self, seq: Seq) -> list[tuple]:
        """``(belief, p, log_prob, prob)`` after each prefix of ``seq``, root first.

        ``p`` is the probability of the prefix's last symbol given the rest,
        ``prob`` the product of the ``p`` from the root and ``log_prob`` the
        sum of their logs (``-inf`` from a zero ``p`` on).  A prefix shared
        with the previous call's sequence is read off that call's path; every
        other takes one :meth:`step` from its parent.
        """
        seq = tuple(seq)
        last, path = self._last
        k, n = 0, min(len(seq), len(last))
        while k < n and seq[k] == last[k]:
            k += 1
        path = path[:k + 1]
        O = self.n_symbols
        for o in seq[k:]:
            if not 0 < o <= O:  # emission[o - 1] would read another symbol
                raise ValueError(f"symbol {o} outside 1..{O}")
            belief, _, log_prob, prob = path[-1]
            belief, p = self.step(belief, o)
            belief.flags.writeable = False
            log_prob = log_prob + math.log(p) if p > 0.0 else -math.inf
            path.append((belief, p, log_prob, prob * p))
        self._last = (seq, path)
        return path

    # -- probabilities -----------------------------------------------------

    def joint_prob(self, seq: Seq) -> float:
        """Probability of a prefix ``seq`` (any length up to the horizon)."""
        if len(seq) > self.horizon:
            raise ValueError("sequence longer than horizon")
        return math.exp(self._walk(seq)[-1][2])

    def conditional_prob(self, history: Seq, future: Seq) -> float:
        """``Pr[future | history]`` for a future starting right after ``history``."""
        if len(history) + len(future) > self.horizon:
            raise ValueError("history plus future exceed horizon")
        path = self._walk(tuple(history) + tuple(future))
        prob = 1.0
        for _, p, _, _ in path[len(history) + 1:]:
            if p <= 0.0:
                return 0.0
            prob *= p
        return prob

    def next_symbol_probs(self, history: Seq) -> np.ndarray:
        """Distribution of the next symbol given ``history`` (length ``O``)."""
        if len(history) >= self.horizon:
            raise ValueError("history already at the horizon")
        return self.emission @ self._walk(history)[-1][0]

    # -- sampling ----------------------------------------------------------

    def sample_futures(self, history: Seq, rng: np.random.Generator, size: int,
                       steps: int | None = None) -> np.ndarray:
        """First ``steps`` symbols of ``size`` futures of ``history``.

        One level of the distinct-prefix walk :meth:`_draw_levels`: each
        step computes the next-symbol distribution once per distinct prefix,
        draws one uniform per row against its prefix's cumulative
        distribution, and filters one belief per distinct ``(prefix, symbol)``
        child with :meth:`_children`.  A batch of ``size`` rows holds at most
        ``O**j`` distinct prefixes after ``j`` steps, so the belief arithmetic
        does not grow with ``size``.  The uniforms are the ones a row-by-row
        simulation draws, in the same order, read as one
        ``rng.random(size * length)``; those the remaining ``length - steps``
        steps of a full future would use are read and discarded, so the
        random stream is unchanged.

        A row with uniform ``u`` draws symbol ``1 + #{k < O-1 : cum[k] <= u}``,
        counted by ``O - 1`` vector compares, where ``cum`` is its prefix's
        cumulative distribution made nondecreasing by a running maximum, with
        its last edge raised to at least 1.  That is the first symbol whose
        edge lies above ``u``, the symbol ``argmax(cum > u) + 1`` picks: the
        edges at or below ``u`` are exactly the ones before it, and the last
        edge, at least 1 > u, never counts.

        A zero-probability symbol can only be drawn past the rounding guard on
        the last cumulative edge (probability about 1e-16 per draw); its
        belief then restarts from uniform, as in :meth:`step`.
        """
        steps = _check_steps(self.horizon - len(history), steps)
        return next(self._draw_levels(history, rng, size, [steps]))[0]

    def sample_joint_levels(self, rng: np.random.Generator, size: int,
                            tests_by_level: list[list[Seq]]
                            ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Levels ``t = 1, 2, ...`` of a sweep's joint draws, with their ``Pr[x·λ]``.

        A generator.  Level ``t`` is what ``sample_futures((), rng, size, t)``
        would draw next: its ``size`` rows read the next ``size * T``
        uniforms, the ``j``-th symbol of every row the ``j``-th ``size`` of
        them.  It yields the level's distinct rows ``x`` as an ``(m, t)``
        array, in order of first appearance, and their ``(m, k)`` block for
        the tests ``tests_by_level[t - 1]``: each row's ``Pr[x]``, the product
        of the factors its draw walked through, times its belief dotted with
        test ``λ``'s backward vector ``1ᵀ K_{λ_L}···K_{λ_1}`` (:func:`_kernels`),
        exactly zero where :meth:`conditional_prob` is.

        Consecutive levels are walked together in groups of at most
        ``max(_LEVEL_ROWS // size, 1)``: one ``rng.random`` call reads a
        whole group's uniforms at its first level (a group of one level reads
        them step by step), and :meth:`_draw_levels` filters a prefix the
        group's levels share once.  A walk closed, or
        stopped by an exception, between levels puts ``rng`` back where the
        levels it yielded would have left it, so the stream goes on as if
        each level had been drawn alone.  A test past the horizon or with a
        symbol outside ``1..O`` raises ``ValueError`` before anything is drawn.
        """
        tests_by_level = [[tuple(lam) for lam in tests] for tests in tests_by_level]
        longest = [t + len(lam) for t, tests in enumerate(tests_by_level, 1)
                   for lam in tests]
        if max(longest + [len(tests_by_level)]) > self.horizon:
            raise ValueError("history plus future exceed horizon")
        bad = [o for tests in tests_by_level for lam in tests for o in lam
               if not 0 < o <= self.n_symbols]
        if bad:
            raise ValueError(f"symbol {bad[0]} outside 1..{self.n_symbols}")
        kernels = _kernels(self)
        backward = []
        for tests in tests_by_level:
            vectors = np.ones((len(tests), self.n_states))
            for j, lam in enumerate(tests):
                for o in reversed(lam):
                    vectors[j] = vectors[j] @ kernels[o - 1]
            backward.append(vectors)
        return self._joint_levels(rng, size, backward)

    def _joint_levels(self, rng: np.random.Generator, size: int,
                      backward: list[np.ndarray]
                      ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The groups of :meth:`sample_joint_levels`; a group left early puts
        back what its one read took for the levels it did not yield."""
        per_group = max(_LEVEL_ROWS // max(size, 1), 1)
        for start in range(0, len(backward), per_group):
            group = backward[start:start + per_group]
            saved, taken = rng.bit_generator.state, 0
            try:
                for level in self._draw_levels((), rng, size,
                                               range(start + 1, start + len(group) + 1),
                                               group):
                    taken += 1
                    yield level
            finally:
                if taken < len(group):  # the group's read ran ahead of its levels
                    rng.bit_generator.state = saved
                    for _ in range(taken):
                        rng.random(size * self.horizon)

    def _draw_levels(self, history: Seq, rng: np.random.Generator, size: int,
                     steps: Sequence[int], backward: list[np.ndarray] | None = None
                     ) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """The one sampling walk: levels of ``size`` futures of ``history``.

        Level ``g`` draws the first ``steps[g]`` symbols of its futures
        (``steps`` nondecreasing) from uniform block ``g`` of one
        ``rng.random(len(steps) * size * length)`` read, taken at the first
        ``next``; a lone level reads the same stream in pieces.  Every
        unfinished level takes each step together, so the rows of all levels
        share one tree of distinct prefixes and one :meth:`_children` call
        per step.  A level is yielded as soon as it is complete, and its rows
        leave the walk.  Without ``backward`` it yields ``(draws, None)``,
        all ``(size, steps[g])`` rows.  With a list of ``(k, S)`` backward
        vectors per level it yields the distinct rows in order of first
        appearance, read off their tree nodes, and their ``(m, k)`` block of
        ``Pr[x·λ | history]``: each row's drawn-symbol factors, times one
        more step's belief.
        """
        length = self.horizon - len(history)
        n_levels, O = len(steps), self.n_symbols
        # A lone level reads the same stream step by step, and then its
        # unread tail: holding its whole block beside ``out`` makes glibc
        # trim and re-fault the heap on each call.
        u = (rng.random(n_levels * size * length).reshape(n_levels, length, size)
             if n_levels > 1 else None)
        # beliefs of the distinct prefixes.  The rows of levels g.. are
        # active: row i's prefix is node[i], its symbols out[g * size + i].
        beliefs = self._walk(history)[-1][0][None, :]
        node = np.zeros(n_levels * size, dtype=np.int64)
        # the joint levels hand out only their distinct rows, so their
        # symbols are kept in the narrowest dtype that holds O
        out = np.empty((n_levels * size, steps[-1]),
                       dtype=np.int64 if backward is None else np.min_scalar_type(O))
        prob = None if backward is None else np.ones(n_levels * size)
        g = 0
        for j in range(steps[-1] + 1):
            while g < n_levels and steps[g] == j:
                if u is None:
                    rng.random(size * (length - j))
                draws = out[g * size:(g + 1) * size, :j]
                if backward is None:
                    yield draws, None
                else:
                    at = node[:size]
                    first = np.sort(np.unique(at, return_index=True)[1])
                    yield draws[first], prob[first, None] * (
                        beliefs[at[first]] @ backward[g].T)
                    prob = prob[size:]
                node = node[size:]
                g += 1
            if g == n_levels:
                return
            probs = beliefs @ self.emission.T
            # parameters may dip below zero by _COL_ATOL, so an edge could
            # fall; the running maximum keeps the count on the first edge above u
            cum = np.maximum.accumulate(np.cumsum(probs, axis=1), axis=1)
            # guard against rounding: force the last edge to cover u
            cum[:, -1] = np.maximum(cum[:, -1], 1.0)
            uj = rng.random(size) if u is None else u[g:, j].reshape(-1)
            symbols = np.ones(len(uj), dtype=np.int64)
            for k in range(O - 1):
                symbols += uj >= cum[:, k][node]
            out[g * size:, j] = symbols
            if backward is not None:
                prob *= probs[node, symbols - 1]
            if backward is not None or j + 1 < steps[-1]:
                beliefs, node = self._children(beliefs, probs, node, symbols)

    # -- batched filtering -------------------------------------------------

    def row_conditionals(self, symbols) -> np.ndarray:
        """The row walk: ``(n, L, O)`` conditionals after every proper prefix.

        Entry ``[i, t]`` holds the next-symbol distribution after the first
        ``t`` symbols of row ``i`` of the ``(n, L)`` array ``symbols``.  Each
        column is one batched belief update (:meth:`_children`), with the
        uniform reset of :meth:`step`, of every distinct prefix of that
        length: rows that share a prefix share its belief.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        n, length = symbols.shape
        O = self.n_symbols
        if length > self.horizon:
            raise ValueError("sequence longer than horizon")
        bad = symbols[(symbols < 1) | (symbols > O)]
        if bad.size:
            raise ValueError(f"symbol {bad[0]} outside 1..{O}")
        out = np.empty((n, length, O))
        # beliefs of the distinct prefixes; row i's prefix is node[i]
        beliefs, node = self.mu[None, :], np.zeros(n, dtype=np.int64)
        for t in range(length):
            probs = beliefs @ self.emission.T
            out[:, t] = probs[node]
            if t + 1 < length:
                beliefs, node = self._children(beliefs, probs, node,
                                               symbols[:, t])
        return out

    def _children(self, beliefs: np.ndarray, probs: np.ndarray,
                  node: np.ndarray, symbols: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """One step of the distinct-prefix tree shared by the batched walks.

        ``beliefs`` is ``(N, S)``, one belief per distinct prefix, and
        ``probs = beliefs @ emission.T`` its ``(N, O)`` symbol probabilities;
        row ``i`` sits at prefix ``node[i]`` and observes ``symbols[i]``
        (1-based).  Returns the beliefs of the distinct ``(prefix, symbol)``
        children and each row's child.  Children are numbered in increasing
        ``prefix·O + symbol - 1`` order: by parent, then by symbol.  Each is
        filtered once from its parent, with the uniform reset of
        :meth:`step` after a zero-probability symbol.
        """
        O = self.n_symbols
        child = node * O + symbols - 1
        seen = np.zeros(len(beliefs) * O, dtype=bool)
        seen[child] = True
        parent, sym = np.divmod(np.flatnonzero(seen), O)
        node = np.cumsum(seen)[child] - 1
        p = probs[parent, sym]
        w = beliefs[parent]  # a copy, updated in place
        w *= self.emission[sym]
        w /= np.maximum(p, 1e-300)[:, None]
        beliefs = w @ self.transition.T
        beliefs[p <= 0.0] = 1.0 / self.n_states
        return beliefs, node


@dataclass
class TableDist:
    """Explicit distribution over all length-``T`` sequences.

    ``probs`` is indexed by :func:`condseq.sequences.seq_to_index` (lexicographic
    order) and must sum to 1.
    """

    probs: np.ndarray
    n_symbols: int
    horizon: int
    _tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_enum(self.n_symbols, self.horizon)
        self.probs = np.asarray(self.probs, dtype=float)
        expected = seq_count(self.n_symbols, self.horizon)
        if self.probs.shape != (expected,):
            raise ValueError(f"probs must have length {expected}")
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("probs must be finite")
        if np.any(self.probs < 0.0):
            raise ValueError("probs must be nonnegative")
        if abs(self.probs.sum() - 1.0) > _TABLE_ATOL:
            raise ValueError("probs must sum to 1")
        self._tensor = self.probs.reshape((self.n_symbols,) * self.horizon)

    def _prefix_slice(self, prefix: Seq) -> np.ndarray:
        view = self._tensor
        for o in prefix:
            if not 0 < o <= self.n_symbols:  # o - 1 would index another symbol
                raise ValueError(f"symbol {o} outside 1..{self.n_symbols}")
            view = view[o - 1]
        return view

    def joint_prob(self, seq: Seq) -> float:
        if len(seq) > self.horizon:
            raise ValueError("sequence longer than horizon")
        return float(np.sum(self._prefix_slice(seq)))

    def conditional_prob(self, history: Seq, future: Seq) -> float:
        if len(history) + len(future) > self.horizon:
            raise ValueError("history plus future exceed horizon")
        den = self.joint_prob(history)
        if den <= 0.0:
            raise ZeroProbabilityHistory(f"history {history} has probability 0")
        return self.joint_prob(tuple(history) + tuple(future)) / den

    def next_symbol_probs(self, history: Seq) -> np.ndarray:
        if len(history) >= self.horizon:
            raise ValueError("history already at the horizon")
        block = self._prefix_slice(history)
        mass = block.reshape(self.n_symbols, -1).sum(axis=1)
        total = mass.sum()
        if total <= 0.0:
            raise ZeroProbabilityHistory(f"history {history} has probability 0")
        return mass / total

    def sample_futures(self, history: Seq, rng: np.random.Generator, size: int,
                       steps: int | None = None) -> np.ndarray:
        """First ``steps`` symbols of ``size`` futures of ``history``.

        Draws whole completions by index (one ``rng.choice`` whatever
        ``steps`` is) and keeps the leading digits of each index.
        """
        length = self.horizon - len(history)
        steps = _check_steps(length, steps)
        block = self._prefix_slice(history).reshape(-1)
        total = block.sum()
        if total <= 0.0:
            raise ZeroProbabilityHistory(f"history {history} has probability 0")
        idx = rng.choice(block.size, size=size, p=block / total)
        powers = self.n_symbols ** np.arange(length - 1, length - steps - 1, -1,
                                             dtype=np.int64)
        return (idx[:, None] // powers) % self.n_symbols + 1


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _check_steps(length: int, steps: int | None) -> int:
    """Validated number of future symbols to simulate (all by default)."""
    if steps is None:
        return length
    if not 0 <= steps <= length:
        raise ValueError(f"steps must lie in 0..{length}")
    return steps


# ---------------------------------------------------------------------------
# Generic operations (work on HMMs, tables, and learned-model wrappers).
# ---------------------------------------------------------------------------


def enumerate_joint(dist, length: int | None = None) -> np.ndarray:
    """Probabilities of all ``O**length`` prefixes in lexicographic order.

    ``length`` defaults to the horizon (the joint table); only ``O**length``
    is checked against ``ENUM_CAP``, so short prefixes of any horizon work.
    An :class:`Hmm` splits each prefix after ``m = ⌊length/2⌋`` symbols:
    ``Pr[h·f]`` is the :func:`_backward` vector of the tail ``f`` times the
    :func:`_forward` vector of the head ``h``, so the table reshaped
    ``O**m × O**(length-m)`` is one product of the two stacks, of rank at
    most ``S``.  Nothing is normalised: a zero-probability head has an
    exactly zero forward vector.  A :class:`TableDist` sums its table over
    the trailing symbols, learned-model wrappers run their level walk to
    depth ``length``, and other distributions answer one ``joint_prob`` per
    prefix.
    """
    O = dist.n_symbols
    length = dist.horizon if length is None else length
    if not 0 <= length <= dist.horizon:
        raise ValueError(f"length must lie in 0..{dist.horizon}")
    _check_enum(O, length)
    if isinstance(dist, TableDist):
        return dist.probs.reshape(O**length, -1).sum(axis=1)
    if isinstance(dist, Hmm):
        kernels = _kernels(dist)
        forward = _forward(dist.mu, kernels, length // 2)
        return (forward @ _backward(kernels, length - length // 2).T).reshape(-1)
    if hasattr(dist, "prefix_levels"):  # learned-model wrappers
        for _, probs, _ in dist.prefix_levels(length):
            pass
        return probs
    return np.array([dist.joint_prob(seq) for seq in all_seqs(O, length)],
                    dtype=float)


def _forward(mu: np.ndarray, kernels: np.ndarray, t: int) -> np.ndarray:
    """``(O**t, S)``: the forward vector ``K_{h_t}···K_{h_1} μ`` of every
    length-``t`` history ``h``, rows in ``seq_to_index`` order."""
    S = kernels.shape[1]
    forward = mu[None, :]
    for _ in range(t):
        # row n·O + o - 1 of the next stack is K_o times row n
        forward = (forward @ kernels.transpose(0, 2, 1)).transpose(
            1, 0, 2).reshape(-1, S)
    return forward


def _backward(kernels: np.ndarray, length: int) -> np.ndarray:
    """``(O**length, S)``: the backward vector ``1ᵀ K_{f_length}···K_{f_1}`` of
    every length-``length`` future ``f``, rows in ``seq_to_index`` order.

    Row ``f`` times a belief is ``Pr[f | belief]``.
    """
    S = kernels.shape[1]
    backward = np.ones((1, S))
    for _ in range(length):
        # row (o - 1)·N + n of the next stack is row n times K_o
        backward = (backward @ kernels).reshape(-1, S)
    return backward


def future_table(dist, length: int, histories: list[Seq] | None = None,
                 t: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(joint, table)``: ``joint[i] = Pr[h_i]``, ``table[i, j] = Pr[f_j | h_i]``.

    Histories are all of length ``t`` in lexicographic order, or the given
    list; futures are all of length ``length``, in lexicographic order.  A
    zero-probability history gets a zero row, whatever the type.

    For all length-``t`` histories, every type goes through
    :func:`enumerate_joint` at length ``t + length``: ``joint`` is each
    history's row sum and a row is divided by it, so only ``O**(t + length)``
    is checked against ``ENUM_CAP``.

    A listed :class:`Hmm` history's row is its :func:`_beliefs` belief times
    the :func:`_backward` vectors, one row at a time, so a row does not
    depend on the rest of the list.  Other distributions read each listed
    history's row off the ``t=`` table of its length, built once per length.
    """
    if (histories is None) == (t is None):
        raise ValueError("pass exactly one of histories and t")
    O = dist.n_symbols
    if histories is None:
        if not 0 <= t <= dist.horizon - length:
            raise ValueError("history plus future exceed horizon")
        table = enumerate_joint(dist, t + length).reshape(O**t, -1)
        joint = table.sum(axis=1)
        live = joint > 0.0
        table[live] /= joint[live, None]
        table[~live] = 0.0
        return joint, table
    histories = [tuple(h) for h in histories]
    if any(len(h) + length > dist.horizon for h in histories):
        raise ValueError("history plus future exceed horizon")
    _check_enum(O, length)
    table = np.empty((len(histories), seq_count(O, length)))
    if isinstance(dist, Hmm):
        joint, beliefs = _beliefs(dist, histories)
        backward = _backward(_kernels(dist), length)
        for i, belief in enumerate(beliefs):
            table[i] = belief @ backward.T
        return joint, table
    joint = np.empty(len(histories))
    levels = {n: future_table(dist, length, t=n)
              for n in {len(h) for h in histories}}
    for i, h in enumerate(histories):
        level_joint, level_table = levels[len(h)]
        k = seq_to_index(h, O)
        joint[i], table[i] = level_joint[k], level_table[k]
    return joint, table


def _beliefs(hmm: Hmm, histories: list[Seq]) -> tuple[np.ndarray, np.ndarray]:
    """``(joint, beliefs)``: each history's probability and ``(n, S)`` belief.

    One ``Hmm._walk`` per history.  A history has probability zero when one
    of its symbols has probability zero given the ones before it, which no
    underflow fakes; its belief is zero, not the uniform reset of
    :meth:`Hmm.step`.
    """
    joint = np.empty(len(histories))
    beliefs = np.empty((len(histories), hmm.n_states))
    for i, h in enumerate(histories):
        beliefs[i], _, log_prob, joint[i] = hmm._walk(h)[-1]
        if log_prob == -math.inf:
            beliefs[i] = 0.0
    return joint, beliefs


def numerical_rank(mat: np.ndarray, tol: float) -> int:
    """Number of singular values above ``tol`` times the largest.

    An empty or all-zero matrix has rank 0.
    """
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    if s[0] <= 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def rank_of(dist) -> int:
    """Numerical rank: the max over splits ``t`` of the conditional matrix rank.

    The matrix at split ``t = 1..T-1`` holds ``Pr[f | h]`` for every
    positive-probability length-``t`` history ``h`` and every future ``f`` of
    each length ``1..T-t``; singular values below ``RANK_TOL`` times the
    largest count as zero.  Zero-probability histories weigh nothing, for
    every type.

    An :class:`Hmm` enumerates nothing, so any horizon works: the matrix
    factors as the observable map ``M_{T-t}`` times the reachable forward
    vectors, and its rank is that of ``Q_{T-t}ᵀ R_t``.  ``Q_{T-t}`` comes from
    :func:`_observable_bases`, and ``R_t`` is an orthonormal basis of the span
    of the forward vectors ``K_{h_t}···K_{h_1} μ`` of all length-``t``
    histories, which are zero exactly for the zero-probability ones.
    ``RANK_TOL`` acts on the singular values of that small matrix.  Other
    distributions enumerate the futures of every length-``t`` history.
    """
    T = dist.horizon
    if T == 1:
        return 1
    if not isinstance(dist, Hmm):
        return max(numerical_rank(np.hstack([future_table(dist, ell, t=t)[1]
                                             for ell in range(1, T - t + 1)]),
                                  RANK_TOL)
                   for t in range(1, T))
    kernels = _kernels(dist)
    spans = _observable_bases(kernels, T - 1)
    reach, rank = _orth(dist.mu[:, None]), 0
    for t in range(1, T):
        reach = _orth(np.hstack(kernels @ reach))
        rank = max(rank, numerical_rank(spans[T - t].T @ reach, RANK_TOL))
    return rank


def _kernels(hmm: Hmm) -> np.ndarray:
    """``(O, S, S)``: ``K_o = transition · diag(emission[o])`` for every symbol.

    ``K_o b`` is the unnormalised belief after observing ``o`` from ``b``.
    """
    return hmm.transition[None, :, :] * hmm.emission[:, None, :]


def _observable_bases(kernels: np.ndarray, depth: int) -> list[np.ndarray]:
    """Orthonormal bases ``Q_L`` of the observable subspaces, ``L = 0..depth``.

    With the ``(O, S, S)`` kernels ``K_o`` of :func:`_kernels`, the
    length-``L`` future probabilities of a belief ``b`` are ``M_L b``, row
    ``f`` of ``M_L`` being ``1ᵀ K_{f_L}···K_{f_1}``.  Its row space ``W_L``
    follows ``W_0 = span{1ᵀ}`` and ``W_L = span{w K_o : w ∈ W_{L-1}, o}``, so
    it has at most ``S`` dimensions, and ``Σ_o 1ᵀ K_o = 1ᵀ`` nests it:
    ``W_{L-1} ⊆ W_L``.  ``Q_L`` is ``(S, d_L)`` with ``d_L = dim W_L``, and
    ``M_L Q_L`` has full column rank, so ``Q_Lᵀ b`` determines ``M_L b``:
    linear systems in future coordinates keep their solution sets in ``Q``
    coordinates.
    """
    S = kernels.shape[1]
    adjoints = kernels.transpose(0, 2, 1)
    spans = [np.full((S, 1), 1.0 / math.sqrt(S))]
    for _ in range(depth):
        spans.append(_orth(np.hstack(adjoints @ spans[-1])))
    return spans


def _orth(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of ``mat``.

    Keeps the left singular vectors whose singular values exceed
    ``_SUBSPACE_RTOL`` times the largest.
    """
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, s > _SUBSPACE_RTOL * s[0]]


# ---------------------------------------------------------------------------
# HMM serialization: plain text, bit-exact round trip.
# ---------------------------------------------------------------------------

_HMM_HEADER = "condseq-hmm v1"


def _fmt(x: float) -> str:
    """Shortest text that reads back as the same float (model and HMM files)."""
    return format(float(x), ".17g")


class _TextLines:
    """The non-blank lines of a text file, consumed in order.

    Parse errors are ``ValueError``s naming the line concerned, or the line
    past the end when the text stops short.
    """

    def __init__(self, text: str) -> None:
        self._lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1)
                       if ln.strip()]
        self._pos = 0

    def peek(self) -> str:
        """First word of the next line ("" at the end)."""
        return self._lines[self._pos][1].split()[0] if self._more() else ""

    def _more(self) -> bool:
        return self._pos < len(self._lines)

    def error(self, message: str) -> ValueError:
        n = (self._lines[self._pos][0] if self._more()
             else self._lines[-1][0] + 1 if self._lines else 1)
        return ValueError(f"line {n}: {message}")

    def line(self, what: str, text: str | None = None, count: int = 0,
             kind=float, expected: list | None = None,
             minimum: int | None = None) -> list:
        """The ``count`` values after ``text`` (when given) on the next line.

        Each value must convert with ``kind``, be finite when it is a float,
        be at least ``minimum`` when that is given, and equal its entry of
        ``expected`` where that is not ``None``.
        """
        if not self._more():
            raise self.error(f"the text ends where {what} was expected")
        line = self._lines[self._pos][1]
        if text is not None and not (line + " ").startswith(text + " "):
            raise self.error(f"expected {what}")
        words = line[len(text or ""):].split()
        if len(words) != count:
            raise self.error(f"{what} needs {count} values, got {len(words)}")
        try:
            values = [kind(v) for v in words]
        except ValueError as exc:
            raise self.error(f"{what} holds a malformed value ({exc})") from None
        if kind is float and not all(math.isfinite(v) for v in values):
            raise self.error(f"{what} holds a non-finite value")
        if minimum is not None and any(v < minimum for v in values):
            raise self.error(f"{what} values must be at least {minimum}, got {values}")
        if any(want not in (None, got) for want, got in zip(expected or [], values)):
            raise self.error(f"{what} should read {expected}, got {values}")
        self._pos += 1
        return values

    def matrix(self, what: str, rows: int, cols: int) -> np.ndarray:
        return np.array([self.line(f"{what} row {r + 1}", count=cols)
                         for r in range(rows)]).reshape(rows, cols)

    def finish(self) -> None:
        if self._more():
            raise self.error("unexpected content after the last section")


def hmm_to_text(hmm: Hmm) -> str:
    lines = [
        _HMM_HEADER,
        f"S {hmm.n_states}",
        f"O {hmm.n_symbols}",
        f"T {hmm.horizon}",
        "mu " + " ".join(_fmt(v) for v in hmm.mu),
        "emission",
    ]
    lines += [" ".join(_fmt(v) for v in row) for row in hmm.emission]
    lines.append("transition")
    lines += [" ".join(_fmt(v) for v in row) for row in hmm.transition]
    return "\n".join(lines) + "\n"


def hmm_from_text(text: str) -> Hmm:
    """Parse :func:`hmm_to_text` output; raises ``ValueError`` naming the line."""
    lines = _TextLines(text)
    lines.line("the condseq HMM header", _HMM_HEADER)
    S, O, T = (lines.line(f"the {key} line", key, 1, int, minimum=1)[0]
               for key in "SOT")
    mu = np.array(lines.line("the mu line", "mu", S))
    lines.line("the emission block", "emission")
    emission = lines.matrix("emission", O, S)
    lines.line("the transition block", "transition")
    transition = lines.matrix("transition", S, S)
    lines.finish()
    return Hmm(mu=mu, emission=emission, transition=transition, horizon=T)


def save_hmm(hmm: Hmm, path) -> None:
    with open(path, "w") as fh:
        fh.write(hmm_to_text(hmm))


def load_hmm(path) -> Hmm:
    with open(path) as fh:
        return hmm_from_text(fh.read())
