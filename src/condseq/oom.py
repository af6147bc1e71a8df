"""Operator models for finite-horizon sequence distributions.

A model holds, for every prefix length ``t``, a basis of length-``t``
histories and per-symbol operators mapping basis coefficients at level ``t``
to level ``t + 1``.  Iterating the operators along a sequence and reading the
result off against test futures reproduces (exactly, for exact operators over
spanning bases) the joint probabilities of the distribution.

Two prediction flavors turn a model into a proper distribution:

- *anchored*: one-step numerators come from stored per-level one-step
  probability matrices (binary alphabets use the complement rule on symbol 1),
- *raw*: one-step numerators are the column sums of the propagated
  coefficients, ``1ᵀ(A_{o,t} g_t)``.

Both telescope their own normalized conditionals into joint probabilities and
fall back to uniform conditionals when a predicted mass hits zero.

Each flavor writes its rule once, as one batched kernel: from the ``(N, r_t)``
coefficients and ``(N,)`` telescoped probabilities of ``N`` length-``t``
histories it gives their ``(N, O)`` next-symbol conditionals.  Two walks push
coefficients through each level's operators with one product per symbol and
call the kernel once per level:

- the *level walk* (:func:`level_walk`, ``prefix_levels``) covers all
  ``O**t`` prefixes, rows in ``seq_to_index`` order with row ``n·O + o - 1``
  the child of row ``n`` by symbol ``o``.  ``enumerate_joint``, ``tv_exact``
  and ``conditional_gap_exact`` evaluate learned models through it;
- the *row walk* (:func:`row_walk`, ``row_conditionals``) covers the prefixes
  of the rows of an ``(n, L)`` symbol array: the sampled conditional-gap bound
  and the exact learner's counterexample sweep.

``joint_prob``, ``conditional_prob`` and ``next_symbol_probs`` are the
kernel's one-row case: they walk from the root with one kernel call and one
operator product per symbol.
Batched and one-row values agree to rounding, not bit for bit: a row of a
matrix product need not round like the matching matrix-vector product.
A symbol outside ``1..O`` raises ``ValueError`` on every path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (Hmm, _beliefs, _fmt, _kernels, _observable_bases,
                            _TextLines)
from .sequences import Seq, format_seq, parse_seq

RESIDUAL_TOL = 1e-9
PINV_CUTOFF = 1e-10


class BasisSpanError(ValueError):
    """Raised when a basis fails to span the future-conditional space."""


@dataclass
class OomModel:
    """Sequence-operator model.

    Attributes
    ----------
    n_symbols, horizon:
        Alphabet size ``O`` and sequence length ``T``.
    bases:
        ``T + 1`` member lists; ``bases[t]`` holds length-``t`` histories.
    operators:
        ``operators[t][o - 1]`` has shape ``(len(bases[t+1]), len(bases[t]))``.
    step_matrices:
        Optional per-level one-step probabilities ``Pr[o | b]`` of the basis
        members, which anchored prediction reads: ``T`` arrays, of which
        ``step_matrices[t]`` is ``(O, n_t)`` with rows indexed by symbol.

    A shape that breaks these rules raises ``ValueError``.
    """

    n_symbols: int
    horizon: int
    bases: list[list[Seq]]
    operators: list[list[np.ndarray]]
    step_matrices: list[np.ndarray] | None = None

    def __post_init__(self) -> None:
        T = self.horizon
        if len(self.bases) != T + 1:
            raise ValueError("need one basis per level 0..T")
        if self.bases[0] != [()]:
            raise ValueError("level-0 basis must be the singleton empty history")
        for t, members in enumerate(self.bases):
            if any(len(b) != t for b in members):
                raise ValueError(f"level-{t} basis members must have length {t}")
        if len(self.operators) != T:
            raise ValueError("need operators for levels 0..T-1")
        for t, per_symbol in enumerate(self.operators):
            if len(per_symbol) != self.n_symbols:
                raise ValueError(f"level {t}: one operator per symbol expected")
            shape = (len(self.bases[t + 1]), len(self.bases[t]))
            for o, mat in enumerate(per_symbol, start=1):
                if mat.shape != shape:
                    raise ValueError(
                        f"operator ({o}, {t}) has shape {mat.shape}, expected {shape}"
                    )
        if self.step_matrices is None:
            return
        if len(self.step_matrices) != T:
            raise ValueError(f"need step matrices for levels 0..T-1, "
                             f"got {len(self.step_matrices)}")
        for t, mat in enumerate(self.step_matrices):
            shape = (self.n_symbols, len(self.bases[t]))
            if np.shape(mat) != shape:
                raise ValueError(f"step matrix {t} has shape {np.shape(mat)}, "
                                 f"expected {shape}")

    def basis_sizes(self) -> list[int]:
        return [len(members) for members in self.bases]

    def _operator(self, t: int, o: int) -> np.ndarray:
        """``A_{o,t}``; a symbol outside ``1..O`` raises ``ValueError``."""
        if not 0 < o <= self.n_symbols:  # o - 1 would wrap to another symbol
            raise ValueError(f"symbol {o} outside 1..{self.n_symbols}")
        return self.operators[t][o - 1]

    def propagate(self, seq: Seq) -> np.ndarray:
        """Coefficient vector after pushing ``seq`` through the operators."""
        g = np.ones(1)
        for t, o in enumerate(seq):
            g = self._operator(t, o) @ g
        return g


def eval_prob(model: OomModel, seq: Seq) -> float:
    """Raw model value for a full-length sequence (may be slightly negative)."""
    if len(seq) != model.horizon:
        raise ValueError("eval_prob expects a full-length sequence")
    return float(model.propagate(seq).sum())


def level_walk(operators: list[list[np.ndarray]]):
    """Coefficients of every prefix, level by level: ``(O**t, r_t)`` arrays.

    Yields one array per level ``t = 0..len(operators)``, rows in
    ``seq_to_index`` order: row ``n·O + o - 1`` of level ``t + 1`` is row
    ``n`` of level ``t`` pushed through symbol ``o``'s operator.
    """
    coeffs = np.ones((1, 1))
    yield coeffs
    for per_symbol in operators:
        n, O = coeffs.shape[0], len(per_symbol)
        coeffs = np.stack([coeffs @ op.T for op in per_symbol], axis=1).reshape(
            n * O, per_symbol[0].shape[0])
        yield coeffs


def row_walk(operators: list[list[np.ndarray]], symbols: np.ndarray):
    """Coefficients of the prefixes of each row of an ``(n, L)`` symbol array.

    Yields the ``(n, r_t)`` coefficients after the first ``t`` symbols of every
    row, for ``t = 0..L``; each level pushes each symbol's rows through its
    operator in one product.
    """
    n, length = symbols.shape
    if length > len(operators):
        raise ValueError("sequence longer than horizon")
    if symbols.size:
        O = len(operators[0])
        bad = symbols[(symbols < 1) | (symbols > O)]
        if bad.size:
            raise ValueError(f"symbol {bad[0]} outside 1..{O}")
    coeffs = np.ones((n, 1))
    yield coeffs
    for s in range(length):
        nxt = np.empty((n, operators[s][0].shape[0]))
        for o, op in enumerate(operators[s], start=1):
            rows = symbols[:, s] == o
            nxt[rows] = coeffs[rows] @ op.T
        coeffs = nxt
        yield coeffs


def exact_coefficients(hmm: Hmm, members: list[Seq], history: Seq) -> np.ndarray:
    """Min-norm coefficients expressing a history's future-conditionals.

    Solves ``Pr[F | members] β = Pr[F | history]`` over exact-length futures
    in the least-squares sense; with a spanning basis the residual is zero
    and ``β`` sums to 1.  The system is solved in the ``Q`` coordinates of
    :func:`construct_exact_operators`, where ``PINV_CUTOFF`` then acts; that
    keeps the solution set of a solvable system.  A zero-probability member
    has a zero column and so a zero coefficient, and a zero-probability
    history has ``β = 0``.
    """
    _check_hmm(hmm)
    span = _observable_bases(_kernels(hmm), hmm.horizon - len(history))[-1]
    table = span.T @ _beliefs(hmm, [*members, history])[1].T
    beta, *_ = np.linalg.lstsq(table[:, :-1], table[:, -1], rcond=PINV_CUTOFF)
    return beta


def construct_exact_operators(hmm: Hmm, bases: list[list[Seq]]) -> OomModel:
    """Build exact operators for ``hmm`` over the given per-level bases.

    For every level the operator columns are the min-norm solutions of

        Pr[F_{t+1} | B_{t+1}] · A_{o,t}[:, b] = Pr[o · F_{t+1} | b],

    ``F_{t+1}`` ranging over the futures of length ``T - t - 1``.  Nothing
    is enumerated: with the basis beliefs ``Bel_t`` of
    :func:`~condseq.distributions._beliefs`, ``K_o = transition ·
    diag(emission[o])`` and the orthonormal basis ``Q`` of the
    length-``(T - t - 1)`` observable subspace, it solves

        (Qᵀ Bel_{t+1}) · A_{o,t} = Qᵀ K_o Bel_t,

    which has the same solutions, so any horizon works.  A zero-probability
    member has a zero belief, so its operator column is zero.
    ``RESIDUAL_TOL`` and the ``PINV_CUTOFF`` of the solve then act on these
    ``Q`` coordinates, so a residual differs from its enumerated value: a
    parity T=3 level-1 basis missing one parity class leaves 0.187 here
    against 0.176 over the enumerated futures.  A residual above
    ``RESIDUAL_TOL`` means the level-``t+1`` basis does not span the needed
    conditionals, which is reported rather than papered over.  One-step
    matrices are stored alongside.
    """
    _check_hmm(hmm)
    O, T = hmm.n_symbols, hmm.horizon
    kernels = _kernels(hmm)
    spans = _observable_bases(kernels, T - 1)
    # (S, n_t) beliefs of each level's members, each filtered once
    levels = [_beliefs(hmm, members)[1].T for members in bases]
    operators: list[list[np.ndarray]] = []
    for t in range(T):
        p_next = spans[T - t - 1].T @ levels[t + 1]
        blocks = spans[T - t - 1].T @ kernels @ levels[t]
        per_symbol: list[np.ndarray] = []
        for o, rhs in enumerate(blocks, start=1):
            sol, *_ = np.linalg.lstsq(p_next, rhs, rcond=PINV_CUTOFF)
            residual = np.max(np.abs(p_next @ sol - rhs)) if rhs.size else 0.0
            if residual > RESIDUAL_TOL:
                raise BasisSpanError(
                    f"level-{t + 1} basis cannot express symbol {o} "
                    f"continuations (residual {residual:.3g})"
                )
            per_symbol.append(sol)
        operators.append(per_symbol)

    return OomModel(
        n_symbols=O,
        horizon=T,
        bases=[list(members) for members in bases],
        operators=operators,
        step_matrices=[hmm.emission @ beliefs for beliefs in levels[:T]],
    )


def _check_hmm(dist) -> None:
    """Exact operators and coefficients are built in an HMM's belief space."""
    if not isinstance(dist, Hmm):
        raise TypeError(f"exact operators need an Hmm, not {type(dist).__name__}")


# ---------------------------------------------------------------------------
# Turning a model into a proper distribution.
# ---------------------------------------------------------------------------


class _Predictor:
    """Evaluation over one batched kernel, :meth:`_conditionals`.

    Subclasses implement only the kernel.  :meth:`prefix_levels` and
    :meth:`row_conditionals` call it once per level on every history of the
    level; the one-row path (``joint_prob``, ``conditional_prob``,
    ``next_symbol_probs``) calls it on one history at a time, symbol by
    symbol from the root.
    """

    def __init__(self, model: OomModel):
        self.model = model
        self.n_symbols = model.n_symbols
        self.horizon = model.horizon

    def _conditionals(self, t: int, coeffs: np.ndarray,
                      probs: np.ndarray) -> np.ndarray:
        """``(N, O)`` next-symbol conditionals of ``N`` length-``t`` histories.

        ``coeffs`` holds their ``(N, r_t)`` coefficients and ``probs`` their
        ``(N,)`` telescoped probabilities.
        """
        raise NotImplementedError

    def prefix_levels(self, depth: int | None = None):
        """The level walk: ``(coeffs, probs, conds)`` for levels ``t = 0..depth``.

        Each level covers all ``O**t`` length-``t`` histories, rows in
        ``seq_to_index`` order: their coefficients, telescoped probabilities
        and ``(O**t, O)`` next-symbol conditionals.  ``depth`` defaults to
        the horizon, where ``probs`` is the joint table and ``coeffs`` and
        ``conds`` are ``None``.
        """
        depth = self.horizon if depth is None else depth
        probs, walk = np.ones(1), level_walk(self.model.operators)
        for t in range(depth + 1):
            if t == self.horizon:
                yield None, probs, None
                return
            coeffs = next(walk)
            conds = self._conditionals(t, coeffs, probs)
            yield coeffs, probs, conds
            probs = (probs[:, None] * conds).reshape(-1)

    def row_conditionals(self, symbols) -> np.ndarray:
        """The row walk: ``(n, L, O)`` conditionals after every proper prefix.

        Entry ``[i, t]`` holds the next-symbol conditionals after the first
        ``t`` symbols of row ``i`` of the ``(n, L)`` array ``symbols``.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        n, length = symbols.shape
        out = np.empty((n, length, self.n_symbols))
        probs = np.ones(n)
        for t, coeffs in zip(range(length), row_walk(self.model.operators, symbols)):
            out[:, t] = self._conditionals(t, coeffs, probs)
            probs = probs * out[np.arange(n), t, symbols[:, t] - 1]
        return out

    def _walk(self, seq: Seq) -> tuple[np.ndarray, float, list[float]]:
        """``(g, p, steps)`` after ``seq``: coefficients, telescoped probability
        and the conditional of each symbol of ``seq`` given the ones before it.

        Starts at the root's ``g = 1``, ``p = 1`` and takes one kernel call
        and one operator product per symbol.
        """
        seq = tuple(seq)
        if len(seq) > self.horizon:
            raise ValueError("sequence longer than horizon")
        g, p, steps = np.ones(1), 1.0, []
        for t, o in enumerate(seq):
            op = self.model._operator(t, o)
            c = float(self._conditionals(t, g[None, :], np.array([p]))[0, o - 1])
            steps.append(c)
            p *= c
            g = op @ g
        return g, p, steps

    def next_symbol_probs(self, history: Seq) -> np.ndarray:
        history = tuple(history)
        if len(history) >= self.horizon:
            raise ValueError("history already at the horizon")
        g, p, _ = self._walk(history)
        return self._conditionals(len(history), g[None, :], np.array([p]))[0]

    def joint_prob(self, seq: Seq) -> float:
        return self._walk(seq)[1]

    def conditional_prob(self, history: Seq, future: Seq) -> float:
        history = tuple(history)
        prob = 1.0
        for c in self._walk(history + tuple(future))[2][len(history):]:
            prob *= c
        return prob


class RawPredictor(_Predictor):
    """Normalizes raw one-step mass ``1ᵀ(A_{o,t} g_t)`` across symbols."""

    def __init__(self, model: OomModel):
        super().__init__(model)
        # row o - 1 of level t is 1ᵀ A_{o,t}: coefficients to symbol o's mass
        self._mass = [np.array([op.sum(axis=0) for op in per_symbol])
                      for per_symbol in model.operators]

    def _conditionals(self, t: int, coeffs: np.ndarray,
                      probs: np.ndarray) -> np.ndarray:
        return _normalized(np.maximum(coeffs @ self._mass[t].T, 0.0))


class AnchoredPredictor(_Predictor):
    """Uses stored one-step matrices against the current prediction mass."""

    def __init__(self, model: OomModel):
        if model.step_matrices is None:
            raise ValueError("anchored prediction needs step matrices")
        super().__init__(model)

    def _conditionals(self, t: int, coeffs: np.ndarray,
                      probs: np.ndarray) -> np.ndarray:
        p_hat = probs[:, None]
        # rows whose p_hat is <= 0 keep 0.5 everywhere, which the complement
        # rule or the normalization below turns into the uniform conditional
        q = np.empty((probs.shape[0], self.n_symbols))
        q.fill(0.5)
        np.divide(coeffs @ self.model.step_matrices[t].T, p_hat, out=q,
                  where=p_hat > 0.0)
        np.minimum(np.maximum(q, 0.0, out=q), 1.0, out=q)
        if self.n_symbols == 2:  # the complement rule on symbol 1
            np.subtract(1.0, q[:, 0], out=q[:, 1])
            return q
        return _normalized(q)


def _normalized(mass: np.ndarray) -> np.ndarray:
    """Rows of nonnegative ``mass`` scaled to sum to 1; uniform where the sum is 0."""
    total = mass.sum(axis=1, keepdims=True)
    out = np.empty_like(mass)
    out.fill(1.0 / mass.shape[1])
    return np.divide(mass, total, out=out, where=total > 0.0)


def to_distribution(model: OomModel, flavor: str = "auto"):
    """Wrap a model as a proper distribution (see module docstring)."""
    if flavor == "auto":
        flavor = "anchored" if model.step_matrices is not None else "raw"
    if flavor == "anchored":
        return AnchoredPredictor(model)
    if flavor == "raw":
        return RawPredictor(model)
    raise ValueError("flavor must be 'anchored', 'raw', or 'auto'")


# ---------------------------------------------------------------------------
# Model files: plain text, bit-exact floats.
# ---------------------------------------------------------------------------

_MODEL_HEADER = "condseq-oom v1"


def _matrix_lines(mat: np.ndarray) -> list[str]:
    return [" ".join(_fmt(v) for v in row) for row in np.atleast_2d(mat)]


def model_to_text(model: OomModel) -> str:
    lines = [
        _MODEL_HEADER,
        f"O {model.n_symbols}",
        f"T {model.horizon}",
        "sizes " + " ".join(str(n) for n in model.basis_sizes()),
    ]
    for t, members in enumerate(model.bases):
        lines.append(f"basis {t}")
        lines += [format_seq(b) for b in members]
    for t, per_symbol in enumerate(model.operators):
        for o, mat in enumerate(per_symbol, start=1):
            lines.append(f"operator {t} {o} {mat.shape[0]} {mat.shape[1]}")
            lines += _matrix_lines(mat)
    if model.step_matrices is not None:
        for t, mat in enumerate(model.step_matrices):
            lines.append(f"steps {t} {mat.shape[0]} {mat.shape[1]}")
            lines += _matrix_lines(mat)
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> OomModel:
    """Parse :func:`model_to_text` output; raises ``ValueError`` naming the line.

    A model file holds the bases and operators, then an optional ``steps``
    section, which must be complete when present.  Nothing may follow it.
    """
    lines = _TextLines(text)
    lines.line("the condseq model header", _MODEL_HEADER)
    O = lines.line("the O line", "O", 1, int, minimum=1)[0]
    T = lines.line("the T line", "T", 1, int, minimum=1)[0]
    sizes = lines.line("the sizes line", "sizes", T + 1, int, expected=[1],
                       minimum=1)

    def member(t: int):
        """Parser of a level-``t`` basis member: ``t`` symbols over ``1..O``."""
        def parse(text: str) -> Seq:
            seq = parse_seq(text)
            for o in seq:
                if not 0 < o <= O:
                    raise ValueError(f"symbol {o} outside 1..{O}")
            if len(seq) != t:
                raise ValueError(f"length {len(seq)}, expected {t}")
            return seq
        return parse

    bases: list[list[Seq]] = []
    for t in range(T + 1):
        lines.line(f"'basis {t}'", f"basis {t}")
        bases.append([lines.line(f"basis {t} member", count=1, kind=member(t))[0]
                      for _ in range(sizes[t])])

    def section(kind: str, label: str, rows: int, cols: int) -> np.ndarray:
        """The ``rows × cols`` matrix after the header ``kind label rows cols``."""
        lines.line(f"the '{kind} {label}' header", f"{kind} {label}", 2, int,
                   expected=[rows, cols])
        return lines.matrix(f"{kind} {label}", rows, cols)

    operators = [[section("operator", f"{t} {o}", sizes[t + 1], sizes[t])
                  for o in range(1, O + 1)] for t in range(T)]
    step_matrices = None
    if lines.peek() == "steps":
        step_matrices = [section("steps", str(t), O, sizes[t]) for t in range(T)]
    lines.finish()
    return OomModel(n_symbols=O, horizon=T, bases=bases, operators=operators,
                    step_matrices=step_matrices)


def save_model(model: OomModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(model_to_text(model))


def load_model(path) -> OomModel:
    with open(path) as fh:
        return model_from_text(fh.read())
