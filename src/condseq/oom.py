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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import _fmt, _TextLines, future_table
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
    test_seqs, test_matrices:
        Optional per-level anchor futures and their conditional probabilities
        given the basis members (``test_matrices[t]`` is ``(m_t, n_t)``).
    step_matrices:
        Optional per-level one-step probabilities; ``step_matrices[t]`` is
        ``(O, n_t)`` with rows indexed by symbol.
    """

    n_symbols: int
    horizon: int
    bases: list[list[Seq]]
    operators: list[list[np.ndarray]]
    test_seqs: list[list[Seq]] | None = None
    test_matrices: list[np.ndarray] | None = None
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

    def basis_sizes(self) -> list[int]:
        return [len(members) for members in self.bases]

    def propagate(self, seq: Seq) -> np.ndarray:
        """Coefficient vector after pushing ``seq`` through the operators."""
        g = np.ones(1)
        for t, o in enumerate(seq):
            g = self.operators[t][o - 1] @ g
        return g


def eval_prob(model: OomModel, seq: Seq) -> float:
    """Raw model value for a full-length sequence (may be slightly negative)."""
    if len(seq) != model.horizon:
        raise ValueError("eval_prob expects a full-length sequence")
    return float(model.propagate(seq).sum())


def eval_prefix_tests(model: OomModel, prefix: Seq,
                      test_matrix: np.ndarray) -> np.ndarray:
    """Predicted joint probabilities of ``prefix`` followed by each test future.

    ``test_matrix`` holds the conditional probabilities of the caller's test
    futures given the level-``len(prefix)`` basis members.
    """
    g = model.propagate(prefix)
    return np.asarray(test_matrix) @ g


def evolve_coefficients(model: OomModel, t: int, beta: np.ndarray, o: int,
                        step_prob: float) -> np.ndarray:
    """Advance history coefficients past symbol ``o``: ``A_{o,t} β / Pr[o|h]``."""
    if step_prob <= 0.0:
        raise ZeroDivisionError("cannot evolve coefficients past a zero-probability step")
    return (model.operators[t][o - 1] @ beta) / step_prob


def exact_coefficients(dist, members: list[Seq], history: Seq) -> np.ndarray:
    """Min-norm coefficients expressing a history's future-conditionals.

    Solves ``Pr[F | members] β = Pr[F | history]`` over exact-length futures in
    the least-squares sense; with a spanning basis the residual is zero and
    ``β`` sums to 1.
    """
    length = dist.horizon - len(history)
    _, table = future_table(dist, length, histories=[*members, history])
    beta, *_ = np.linalg.lstsq(table[:-1].T, table[-1], rcond=PINV_CUTOFF)
    return beta


def construct_exact_operators(dist, bases: list[list[Seq]],
                              test_seqs: list[list[Seq]] | None = None,
                              residual_tol: float = RESIDUAL_TOL) -> OomModel:
    """Build exact operators for ``dist`` over the given per-level bases.

    For every level the operator columns are the min-norm solutions of

        Pr[F_{t+1} | B_{t+1}] · A_{o,t}[:, b] = Pr[o · F_{t+1} | b],

    with futures enumerated at exact length.  A residual above ``residual_tol``
    means the level-``t+1`` basis does not span the needed conditionals, which
    is reported rather than papered over.  One-step matrices (and test
    matrices, when ``test_seqs`` is given) are stored alongside.
    """
    O, T = dist.n_symbols, dist.horizon
    operators: list[list[np.ndarray]] = []
    step_matrices: list[np.ndarray] = []
    for t in range(T):
        p_next = future_table(dist, T - t - 1, histories=bases[t + 1])[1].T
        blocks = future_table(dist, T - t, histories=bases[t])[1].reshape(
            len(bases[t]), O, -1)
        step_matrices.append(blocks.sum(axis=2).T)
        per_symbol: list[np.ndarray] = []
        for o in range(1, O + 1):
            rhs = blocks[:, o - 1, :].T
            sol, *_ = np.linalg.lstsq(p_next, rhs, rcond=PINV_CUTOFF)
            residual = np.max(np.abs(p_next @ sol - rhs)) if rhs.size else 0.0
            if residual > residual_tol:
                raise BasisSpanError(
                    f"level-{t + 1} basis cannot express symbol {o} "
                    f"continuations (residual {residual:.3g})"
                )
            per_symbol.append(sol)
        operators.append(per_symbol)

    test_matrices = None
    if test_seqs is not None:
        test_matrices = []
        for t in range(T + 1):
            mat = np.array(
                [[dist.conditional_prob(b, lam) for b in bases[t]]
                 for lam in test_seqs[t]]
            ).reshape(len(test_seqs[t]), len(bases[t]))
            test_matrices.append(mat)

    return OomModel(
        n_symbols=O,
        horizon=T,
        bases=[list(members) for members in bases],
        operators=operators,
        test_seqs=None if test_seqs is None else [list(s) for s in test_seqs],
        test_matrices=test_matrices,
        step_matrices=step_matrices,
    )


# ---------------------------------------------------------------------------
# Turning a model into a proper distribution.
# ---------------------------------------------------------------------------


class _Predictor:
    """Shared plumbing: cached coefficient propagation and telescoped products."""

    def __init__(self, model: OomModel):
        self.model = model
        self.n_symbols = model.n_symbols
        self.horizon = model.horizon
        self._states: dict[Seq, tuple[np.ndarray, float]] = {(): (np.ones(1), 1.0)}

    def _state(self, history: Seq) -> tuple[np.ndarray, float]:
        """(coefficients, telescoped probability) after ``history``."""
        if history in self._states:
            return self._states[history]
        prefix, o = history[:-1], history[-1]
        g_prev, p_prev = self._state(prefix)
        cond = self.next_symbol_probs(prefix)
        t = len(prefix)
        g = self.model.operators[t][o - 1] @ g_prev
        state = (g, p_prev * float(cond[o - 1]))
        self._states[history] = state
        return state

    def next_symbol_probs(self, history: Seq) -> np.ndarray:
        raise NotImplementedError

    def joint_prob(self, seq: Seq) -> float:
        seq = tuple(seq)
        if len(seq) > self.horizon:
            raise ValueError("sequence longer than horizon")
        return self._state(seq)[1]

    def conditional_prob(self, history: Seq, future: Seq) -> float:
        history, future = tuple(history), tuple(future)
        prob = 1.0
        for o in future:
            prob *= float(self.next_symbol_probs(history)[o - 1])
            history = history + (o,)
        return prob

    def sample_conditional(self, history: Seq, rng: np.random.Generator,
                           size: int | None = None):
        k = 1 if size is None else size
        out = []
        for _ in range(k):
            h = tuple(history)
            while len(h) < self.horizon:
                probs = self.next_symbol_probs(h)
                o = int(rng.choice(self.n_symbols, p=probs)) + 1
                h = h + (o,)
            out.append(h[len(history):])
        return out[0] if size is None else out


class RawPredictor(_Predictor):
    """Normalizes raw one-step mass ``1ᵀ(A_{o,t} g_t)`` across symbols."""

    def next_symbol_probs(self, history: Seq) -> np.ndarray:
        history = tuple(history)
        if len(history) >= self.horizon:
            raise ValueError("history already at the horizon")
        g, _ = self._state(history)
        t = len(history)
        mass = np.array(
            [float((self.model.operators[t][o] @ g).sum())
             for o in range(self.n_symbols)]
        )
        mass = np.clip(mass, 0.0, None)
        total = mass.sum()
        if total <= 0.0:
            return np.full(self.n_symbols, 1.0 / self.n_symbols)
        return mass / total


class AnchoredPredictor(_Predictor):
    """Uses stored one-step matrices against the current prediction mass."""

    def __init__(self, model: OomModel):
        if model.step_matrices is None:
            raise ValueError("anchored prediction needs step matrices")
        super().__init__(model)

    def next_symbol_probs(self, history: Seq) -> np.ndarray:
        history = tuple(history)
        if len(history) >= self.horizon:
            raise ValueError("history already at the horizon")
        g, p_hat = self._state(history)
        if p_hat <= 0.0:
            return np.full(self.n_symbols, 1.0 / self.n_symbols)
        t = len(history)
        numer = self.model.step_matrices[t] @ g  # (O,)
        if self.n_symbols == 2:
            q1 = float(np.clip(numer[0] / p_hat, 0.0, 1.0))
            return np.array([q1, 1.0 - q1])
        q = np.clip(numer / p_hat, 0.0, 1.0)
        total = q.sum()
        if total <= 0.0:
            return np.full(self.n_symbols, 1.0 / self.n_symbols)
        return q / total


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
    if model.test_seqs is not None and model.test_matrices is not None:
        for t, (seqs, mat) in enumerate(zip(model.test_seqs, model.test_matrices)):
            lines.append(f"tests {t} {mat.shape[0]} {mat.shape[1]}")
            lines += [format_seq(s) for s in seqs]
            lines += _matrix_lines(mat)
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> OomModel:
    """Parse :func:`model_to_text` output; raises ``ValueError`` naming the line.

    The ``steps`` and ``tests`` sections are optional, but each must be
    complete when present.
    """
    lines = _TextLines(text)
    lines.line("the condseq model header", _MODEL_HEADER)
    O = lines.line("the O line", "O", 1, int)[0]
    T = lines.line("the T line", "T", 1, int)[0]
    sizes = lines.line("the sizes line", "sizes", T + 1, int)
    bases: list[list[Seq]] = []
    for t in range(T + 1):
        lines.line(f"'basis {t}'", f"basis {t}")
        bases.append([lines.line(f"basis {t} member", count=1, kind=parse_seq)[0]
                      for _ in range(sizes[t])])

    def section(kind: str, label: str, rows: int | None, cols: int) -> int:
        """Check a section header ``kind label rows cols``; returns ``rows``."""
        return lines.line(f"the '{kind} {label}' header", f"{kind} {label}", 2,
                          int, expected=[rows, cols])[0]

    operators = []
    for t in range(T):
        per_symbol = []
        for o in range(1, O + 1):
            rows = section("operator", f"{t} {o}", sizes[t + 1], sizes[t])
            per_symbol.append(lines.matrix(f"operator ({o}, {t})", rows, sizes[t]))
        operators.append(per_symbol)

    step_matrices = None
    if lines.peek() == "steps":
        step_matrices = []
        for t in range(T):
            rows = section("steps", str(t), O, sizes[t])
            step_matrices.append(lines.matrix(f"steps {t}", rows, sizes[t]))
    test_seqs = test_matrices = None
    if lines.peek() == "tests":
        test_seqs, test_matrices = [], []
        for t in range(T + 1):
            rows = section("tests", str(t), None, sizes[t])
            test_seqs.append([lines.line(f"tests {t} future", count=1,
                                         kind=parse_seq)[0] for _ in range(rows)])
            test_matrices.append(lines.matrix(f"tests {t}", rows, sizes[t]))
    lines.finish()
    return OomModel(n_symbols=O, horizon=T, bases=bases, operators=operators,
                    test_seqs=test_seqs, test_matrices=test_matrices,
                    step_matrices=step_matrices)


def save_model(model: OomModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(model_to_text(model))


def load_model(path) -> OomModel:
    with open(path) as fh:
        return model_from_text(fh.read())
