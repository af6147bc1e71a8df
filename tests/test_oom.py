import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condseq import distributions, oom
from condseq.distributions import (
    Hmm,
    TableDist,
    enumerate_joint,
    future_table,
    rank_of,
)
from condseq.generators import (
    greedy_spanning_bases,
    make_full_rank_hmm,
    make_parity_hmm,
    parity_class_bases,
    parity_joint_prob,
)
from condseq.metrics import (
    conditional_gap_exact,
    sigma_matrix,
    tv_conditional_bound,
    tv_exact,
)
from condseq.oom import (
    AnchoredPredictor,
    BasisSpanError,
    OomModel,
    construct_exact_operators,
    eval_prob,
    exact_coefficients,
    load_model,
    model_from_text,
    model_to_text,
    row_walk,
    save_model,
    to_distribution,
)
from condseq.sequences import all_seqs

from _reference import (
    DictAnchoredPredictor,
    DictRawPredictor,
    brute_force_joint,
    conditional_gap_loop,
    enumerated_coefficients,
    enumerated_exact_operators,
    enumerated_rank,
    never_emits_two,
    random_hmm,
    random_hmm_with_zero_symbols,
    sampled_bound_loop,
)


def _exact_model(dist):
    return construct_exact_operators(dist, greedy_spanning_bases(dist))


def test_exact_operators_reproduce_hmm_against_path_enumeration():
    rng = np.random.default_rng(21)
    hmm = random_hmm(rng, 3, 2, 4)
    model = _exact_model(hmm)
    for seq in all_seqs(2, 4):
        assert eval_prob(model, seq) == pytest.approx(
            brute_force_joint(hmm, seq), abs=1e-9)


def test_exact_operators_on_parity():
    hmm = make_parity_hmm(4, subset={1, 3}, alpha=0.2)
    model = construct_exact_operators(hmm, parity_class_bases(4, subset={1, 3}))
    table = enumerate_joint(hmm)
    got = np.array([eval_prob(model, seq) for seq in all_seqs(2, 4)])
    np.testing.assert_allclose(got, table, atol=1e-10)


def test_model_validation():
    ops = [[np.ones((1, 1)), np.ones((1, 1))]]
    with pytest.raises(ValueError):
        OomModel(n_symbols=2, horizon=1, bases=[[(1,)], [(1,)]], operators=ops)
    with pytest.raises(ValueError):
        OomModel(n_symbols=2, horizon=1, bases=[[()], [(1, 2)]], operators=ops)
    with pytest.raises(ValueError):
        OomModel(n_symbols=2, horizon=1, bases=[[()], [(1,)]],
                 operators=[[np.ones((2, 1)), np.ones((1, 1))]])
    with pytest.raises(ValueError):
        OomModel(n_symbols=2, horizon=1, bases=[[()], [(1,)]],
                 operators=[[np.ones((1, 1))]])


def test_step_matrices_must_match_the_bases():
    hmm = make_full_rank_hmm(3, 3, 3, seed=0)
    model = _exact_model(hmm)
    np.testing.assert_allclose(to_distribution(model).next_symbol_probs(()),
                               hmm.next_symbol_probs(()), atol=1e-12)
    # cut to their first rows, the root would predict (1/3, 1/3, 1/3)
    for steps, message in (([m[:1] for m in model.step_matrices],
                            r"step matrix 0 has shape \(1, 1\), expected \(3, 1\)"),
                           (model.step_matrices[:-1], "got 2"),
                           ([*model.step_matrices, np.ones((3, 1))], "got 4")):
        with pytest.raises(ValueError, match=message):
            OomModel(n_symbols=3, horizon=3, bases=model.bases,
                     operators=model.operators, step_matrices=steps)


def test_non_spanning_basis_is_reported():
    hmm = make_parity_hmm(3, subset={1, 2}, alpha=0.2)
    bases = parity_class_bases(3, subset={1, 2})
    bases[1] = bases[1][:1]  # one member cannot cover both parity classes
    with pytest.raises(BasisSpanError):
        construct_exact_operators(hmm, bases)


def _random_instance(seed: int, zero_symbols: bool) -> Hmm:
    """A random HMM small enough to enumerate, up to T=8 for binary alphabets."""
    rng = np.random.default_rng(seed)
    if zero_symbols:
        return random_hmm_with_zero_symbols(rng)
    n_symbols = int(rng.integers(2, 4))
    horizon = int(rng.integers(1, 9 if n_symbols == 2 else 6))
    return random_hmm(rng, int(rng.integers(1, 5)), n_symbols, horizon)


def _solve_atol(mat: np.ndarray, solution: np.ndarray) -> float:
    """How far two stable least-squares solutions of one system may differ.

    1e-10, widened for an ill-conditioned ``mat`` by its forward-error bound
    ``κ(mat) · eps · |solution|`` with a margin of about 450.
    """
    scale = max(float(np.max(np.abs(solution))), 1.0)
    return 1e-10 + 1e-13 * float(np.linalg.cond(mat)) * scale


@given(st.integers(0, 2**31 - 1), st.booleans())
def test_belief_space_construction_matches_enumeration(seed, zero_symbols):
    hmm = _random_instance(seed, zero_symbols)
    O, T = hmm.n_symbols, hmm.horizon
    bases = greedy_spanning_bases(hmm)
    model = construct_exact_operators(hmm, bases)
    operators, step_matrices = enumerated_exact_operators(hmm, bases)
    for t in range(T):
        p_next = future_table(hmm, T - t - 1, histories=bases[t + 1])[1].T
        for got, want in zip(model.operators[t], operators[t]):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=_solve_atol(p_next, want))
            # both give the same futures, however the basis is conditioned
            np.testing.assert_allclose(p_next @ got, p_next @ want, rtol=0,
                                       atol=1e-10)
        np.testing.assert_allclose(model.step_matrices[t], step_matrices[t],
                                   rtol=0, atol=1e-10)
    for t in range(T + 1):
        members = future_table(hmm, T - t, histories=bases[t])[1].T
        for history in all_seqs(O, t):
            if hmm.joint_prob(history) > 0.0:
                want = enumerated_coefficients(hmm, bases[t], history)
                np.testing.assert_allclose(
                    exact_coefficients(hmm, bases[t], history), want, rtol=0,
                    atol=_solve_atol(members, want))
    table = TableDist(enumerate_joint(hmm), n_symbols=O, horizon=T)
    assert rank_of(hmm) == enumerated_rank(hmm) == rank_of(table)


def test_belief_space_paths_enumerate_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an HMM path enumerated futures")

    monkeypatch.setattr(Hmm, "_children", refuse)
    for name in ("future_table", "_forward", "_backward"):
        monkeypatch.setattr(distributions, name, refuse)
    hmm = make_parity_hmm(16, alpha=0.2)
    model = construct_exact_operators(hmm, parity_class_bases(16))
    assert model.basis_sizes() == [1] + [2] * 15 + [1]
    assert rank_of(make_parity_hmm(12, alpha=0.2)) == 2


def test_exact_operators_filter_each_basis_member_once(monkeypatch):
    # a level's members serve as the targets of the level below and as the
    # sources of their own level; both read one filtered belief
    filtered = []
    inner = Hmm._walk

    def counted(self, seq):
        filtered.append(tuple(seq))
        return inner(self, seq)

    monkeypatch.setattr(Hmm, "_walk", counted)
    bases = parity_class_bases(16)
    construct_exact_operators(make_parity_hmm(16, alpha=0.2), bases)
    assert sorted(filtered) == sorted(b for members in bases for b in members)


def test_exact_operators_build_the_kernels_once(monkeypatch):
    # the HMM does not change between levels, so neither do its kernels
    built = []
    inner = oom._kernels

    def counted(hmm):
        built.append(hmm)
        return inner(hmm)

    monkeypatch.setattr(oom, "_kernels", counted)
    hmm = make_parity_hmm(16, alpha=0.2)
    bases = parity_class_bases(16)
    construct_exact_operators(hmm, bases)
    exact_coefficients(hmm, bases[3], (2, 1, 2))
    assert len(built) == 2


def test_zero_probability_members_get_zero_operator_columns():
    hmm = never_emits_two()
    bases = [[()], [(1,), (2,)], [(1, 1), (2, 2)], [(1, 1, 1)]]
    model = construct_exact_operators(hmm, bases)
    for t in (1, 2):  # member 1 of levels 1 and 2 has probability zero
        for op in model.operators[t]:
            assert op[:, 1].tolist() == [0.0] * op.shape[0]
        assert model.step_matrices[t][:, 1].tolist() == [0.0, 0.0]
    got = [eval_prob(model, seq) for seq in all_seqs(2, 3)]
    np.testing.assert_allclose(got, enumerate_joint(hmm), rtol=0, atol=1e-12)
    assert exact_coefficients(hmm, bases[1], (2,)).tolist() == [0.0, 0.0]
    np.testing.assert_allclose(exact_coefficients(hmm, bases[1], (1,)), [1, 0],
                               rtol=0, atol=1e-12)


def test_exact_operators_and_coefficients_need_an_hmm():
    hmm = make_parity_hmm(4, alpha=0.2)
    table = TableDist(enumerate_joint(hmm), 2, 4)
    with pytest.raises(TypeError, match="TableDist"):
        construct_exact_operators(table, parity_class_bases(4))
    with pytest.raises(TypeError, match="TableDist"):
        exact_coefficients(table, parity_class_bases(4)[2], (1, 2))


@pytest.mark.parametrize("horizon", [32, 64])
def test_exact_operators_and_rank_past_the_enumeration_cap(horizon):
    # the check the exact-parity20 benchmark applies to a learned model
    alpha, subset = 0.2, set(range(1, horizon))
    hmm = make_parity_hmm(horizon, alpha=alpha)
    assert rank_of(hmm) == 2
    learned = to_distribution(
        construct_exact_operators(hmm, parity_class_bases(horizon)))
    rng = np.random.default_rng(horizon)
    for row in rng.integers(1, 3, size=(200, horizon)).tolist():
        true = parity_joint_prob(tuple(row), subset, alpha)
        assert abs(learned.joint_prob(row) - true) <= 1e-9 * true


def test_exact_coefficients_sum_to_one_and_interpolate():
    hmm = make_parity_hmm(4, subset={1, 2, 3}, alpha=0.25)
    members = parity_class_bases(4, subset={1, 2, 3})[2]
    for hist in all_seqs(2, 2):
        beta = exact_coefficients(hmm, members, hist)
        assert beta.sum() == pytest.approx(1.0, abs=1e-9)
        for fut in all_seqs(2, 2):
            combo = sum(
                b * hmm.conditional_prob(m, fut) for b, m in zip(beta, members)
            )
            assert combo == pytest.approx(hmm.conditional_prob(hist, fut),
                                          abs=1e-9)


def test_member_self_coefficients_equal_sigma_eigenprojection():
    # stacking the min-norm coefficients of the members themselves gives the
    # projection onto the positive eigenspace of the preconditioned Gram
    hmm = make_parity_hmm(4, subset={1, 3}, alpha=0.2)
    members = parity_class_bases(4, subset={1, 3})[2] + [(1, 2)]
    coeff = np.column_stack(
        [exact_coefficients(hmm, members, m) for m in members]
    )
    sigma = sigma_matrix(hmm, members)
    eigvals, eigvecs = np.linalg.eigh(sigma)
    keep = eigvecs[:, eigvals > 1e-9]
    np.testing.assert_allclose(coeff, keep @ keep.T, atol=1e-8)


def test_propagate_and_prefix_tests():
    hmm = make_parity_hmm(4, subset={2}, alpha=0.3)
    bases = parity_class_bases(4, subset={2})
    model = construct_exact_operators(hmm, bases)
    prefix = (2, 1)
    # Pr[x·λ] = Σ_b g_b Pr[λ | b] over the level's members b
    tests = np.array([hmm.conditional_prob(b, (1, 1)) for b in bases[2]])
    got = tests @ model.propagate(prefix)
    want = hmm.joint_prob(prefix + (1, 1))
    assert got == pytest.approx(want, abs=1e-10)
    *_, g = row_walk(model.operators, np.array([prefix]))
    np.testing.assert_allclose(g[0], model.propagate(prefix), rtol=1e-12, atol=1e-15)


def test_coefficient_evolution_identity():
    # a history's propagated coefficients are its own coefficients scaled by
    # its probability, so pushing them through an operator and dividing by the
    # step probability lands on the extended history's coefficients
    hmm = make_parity_hmm(4, subset={1, 2}, alpha=0.2)
    bases = parity_class_bases(4, subset={1, 2})
    model = construct_exact_operators(hmm, bases)
    hist = (2, 1)
    beta = exact_coefficients(hmm, bases[2], hist)
    *_, before, after = row_walk(model.operators,
                                 np.array([hist + (o,) for o in (1, 2)]))
    for o, g_before, g_after in zip((1, 2), before, after):
        np.testing.assert_allclose(g_before / hmm.joint_prob(hist), beta, atol=1e-8)
        p = hmm.next_symbol_probs(hist)[o - 1]
        evolved = g_after / hmm.joint_prob(hist) / p
        expected = exact_coefficients(hmm, bases[3], hist + (o,))
        np.testing.assert_allclose(evolved, expected, atol=1e-8)
        np.testing.assert_allclose(g_after, model.propagate(hist + (o,)),
                                   rtol=1e-12, atol=1e-15)


def test_to_distribution_flavors_reproduce_exact_model():
    rng = np.random.default_rng(13)
    hmm = random_hmm(rng, 2, 2, 4)
    model = _exact_model(hmm)
    anchored = to_distribution(model)  # auto picks anchored: tests attached
    raw = to_distribution(model, flavor="raw")
    assert tv_exact(hmm, anchored) <= 1e-9
    assert tv_exact(hmm, raw) <= 1e-9


def test_model_text_round_trip(tmp_path):
    hmm = make_parity_hmm(3, subset={1}, alpha=0.2)
    model = _exact_model(hmm)
    clone = model_from_text(model_to_text(model))
    assert clone.bases == model.bases
    for seq in all_seqs(2, 3):
        assert eval_prob(clone, seq) == pytest.approx(eval_prob(model, seq),
                                                      abs=1e-12)
    assert clone.step_matrices is not None

    path = tmp_path / "parity.oom"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.basis_sizes() == model.basis_sizes()


def test_model_text_round_trip_without_optional_sections():
    hmm = make_parity_hmm(3, subset={1}, alpha=0.2)
    full = _exact_model(hmm)
    bare = OomModel(n_symbols=2, horizon=3, bases=full.bases,
                    operators=full.operators)
    clone = model_from_text(model_to_text(bare))
    assert clone.step_matrices is None
    for seq in all_seqs(2, 3):
        assert eval_prob(clone, seq) == pytest.approx(eval_prob(bare, seq),
                                                      abs=1e-12)


@settings(max_examples=10)
@given(st.integers(0, 10_000))
def test_model_text_prefixes_fail_with_the_line_or_end_a_section(seed):
    rng = np.random.default_rng(seed)
    horizon = int(rng.integers(1, 5))
    hmm = random_hmm(rng, int(rng.integers(1, 4)), 2, horizon)
    model = construct_exact_operators(hmm, greedy_spanning_bases(hmm))
    lines = model_to_text(model).splitlines(keepends=True)
    # a prefix may stop only where the optional section would begin
    boundaries = {k for k, ln in enumerate(lines)
                  if ln.startswith("steps 0 ")} | {len(lines)}
    assert len(boundaries) == 2
    for k in range(len(lines) + 1):
        text = "".join(lines[:k])
        if k not in boundaries:
            with pytest.raises(ValueError, match=r"^line \d+: "):
                model_from_text(text)
            continue
        clone = model_from_text(text)
        assert clone.bases == model.bases
        for got, want in zip(clone.operators, model.operators):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        assert (clone.step_matrices is None) == (k == min(boundaries))


def _parity_model_lines() -> list[str]:
    model = construct_exact_operators(make_parity_hmm(3, alpha=0.2),
                                      parity_class_bases(3))
    return model_to_text(model).splitlines()


def _fails_at_a_tests_section(lines: list[str]) -> None:
    """A model file has no ``tests`` section: one fails naming its header."""
    text = "\n".join([*lines, "tests 0 1 1", "1", "0.5"])
    with pytest.raises(ValueError, match=rf"^line {len(lines) + 1}: "):
        model_from_text(text)


def test_model_text_rejects_symbols_outside_the_alphabet():
    lines = _parity_model_lines()
    member = lines.index("basis 1") + 2  # the member 2
    for text in ("7", "0"):
        edited = lines[:member] + [text] + lines[member + 1:]
        with pytest.raises(ValueError,
                           match=rf"^line {member + 1}: .*outside 1\.\.2"):
            model_from_text("\n".join(edited))
    _fails_at_a_tests_section(lines)


def test_model_text_rejects_sequences_of_the_wrong_length():
    # a level-t basis member has length t
    lines = _parity_model_lines()
    member = lines.index("basis 1") + 2  # the member 2
    for text in ("1,2", "-"):
        edited = lines[:member] + [text] + lines[member + 1:]
        with pytest.raises(ValueError, match=rf"^line {member + 1}: .*length"):
            model_from_text("\n".join(edited))
    _fails_at_a_tests_section(lines)


def test_model_text_rejects_out_of_range_headers_and_non_finite_values():
    model = construct_exact_operators(make_parity_hmm(3, alpha=0.2),
                                      parity_class_bases(3))
    lines = model_to_text(model).splitlines()
    sizes, operator = lines.index("sizes 1 2 2 1"), lines.index("operator 0 1 2 1")
    # T -1 used to raise IndexError; sizes 1 0 / 1 -1 loaded an empty or
    # negative level-1 basis
    for row, text, message in (
            (lines.index("O 2"), "O 0", "at least 1"),
            (lines.index("T 3"), "T 0", "at least 1"),
            (lines.index("T 3"), "T -1", "at least 1"),
            (sizes, "sizes 1 0 2 1", "at least 1"),
            (sizes, "sizes 1 -1 2 1", "at least 1"),
            (sizes, "sizes 2 2 2 1", r"should read \[1\]"),
            (operator + 1, "nan", "non-finite"),
            (operator + 2, "inf", "non-finite")):
        edited = lines[:row] + [text] + lines[row + 1:]
        with pytest.raises(ValueError, match=rf"^line {row + 1}: .*{message}"):
            model_from_text("\n".join(edited))


# -- evaluation of learned models --------------------------------------------

# Quarter-grid entries: sums and products of a few of them are exact, so the
# batched walks and the one-prefix reference round only where they divide.
GRID = st.sampled_from([-0.5, -0.25, 0.0, 0.0, 0.25, 0.5, 0.75, 1.0])
REFERENCE = {"raw": DictRawPredictor, "anchored": DictAnchoredPredictor}


@st.composite
def oom_models(draw):
    """Models with negative entries and zero-mass rows, so predictions clip,
    telescoped probabilities die and conditionals fall back to uniform."""
    n_symbols = draw(st.sampled_from([2, 3]))
    horizon = draw(st.integers(1, 4))
    sizes = [1] + [draw(st.integers(1, 3)) for _ in range(horizon)]

    def matrix(rows, cols):
        cells = draw(st.lists(GRID, min_size=rows * cols, max_size=rows * cols))
        return np.array(cells).reshape(rows, cols)

    return OomModel(
        n_symbols=n_symbols, horizon=horizon,
        bases=[[(1,) * t] * n for t, n in enumerate(sizes)],
        operators=[[matrix(sizes[t + 1], sizes[t]) for _ in range(n_symbols)]
                   for t in range(horizon)],
        step_matrices=[matrix(n_symbols, sizes[t]) for t in range(horizon)],
    )


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@given(oom_models(), st.sampled_from(sorted(REFERENCE)), st.integers(0, 2**31 - 1))
def test_batched_evaluation_matches_the_one_prefix_reference(model, flavor, seed):
    O, T = model.n_symbols, model.horizon
    ref = REFERENCE[flavor](model)
    seqs = list(all_seqs(O, T))
    learned = to_distribution(model, flavor)
    _close(enumerate_joint(learned), [ref.joint_prob(s) for s in seqs])
    _close(learned.row_conditionals(np.array(seqs).reshape(len(seqs), T)),
           [[ref.next_symbol_probs(s[:t]) for t in range(T)] for s in seqs])

    # the one-row path, one symbol at a time from the root
    for t in range(T + 1):
        for h in all_seqs(O, t):
            _close(learned.joint_prob(h), ref.joint_prob(h))
            if t < T:
                _close(learned.next_symbol_probs(h), ref.next_symbol_probs(h))
    for s in seqs:
        for k in range(T + 1):
            _close(learned.conditional_prob(s[:k], s[k:]),
                   ref.conditional_prob(s[:k], s[k:]))

    hmm = random_hmm(np.random.default_rng(seed), 2, O, T)
    _close(conditional_gap_exact(hmm, learned), conditional_gap_loop(hmm, ref))
    _close(tv_conditional_bound(hmm, learned, n_samples=20,
                                rng=np.random.default_rng(seed)),
           sampled_bound_loop(hmm, ref, 20, np.random.default_rng(seed)))


def test_tv_exact_walks_each_level_once(monkeypatch):
    # a count, not a time: the referee asks the kernel once per level and
    # never evaluates a sequence on its own
    T = 12
    hmm = make_parity_hmm(T, alpha=0.2)
    learned = to_distribution(construct_exact_operators(hmm, parity_class_bases(T)))
    kernel, levels = AnchoredPredictor._conditionals, []

    def counted(self, t, coeffs, probs):
        levels.append(t)
        return kernel(self, t, coeffs, probs)

    def refuse(self, seq):
        raise AssertionError("tv_exact evaluated a single sequence")

    monkeypatch.setattr(AnchoredPredictor, "_conditionals", counted)
    monkeypatch.setattr(oom._Predictor, "joint_prob", refuse)
    assert tv_exact(hmm, learned) <= 1e-9
    assert len(levels) <= T


@pytest.mark.parametrize("reach", [0, 262144])
def test_symbols_outside_the_alphabet_raise(reach):
    # symbol 0 used to read symbol O's operator (or a table's last symbol),
    # and O + 1 to raise IndexError; symbols far outside 1..O must raise the
    # same error, not wrap around or index past an operator stack
    hmm = make_parity_hmm(4, alpha=0.2)
    model = construct_exact_operators(hmm, parity_class_bases(4))
    table = TableDist(enumerate_joint(hmm), 2, 4)
    learned = [to_distribution(model, flavor) for flavor in ("raw", "anchored")]
    for bad in (-reach, -reach - 1, 3 + reach):
        message = re.escape(f"symbol {bad} outside 1..2")
        with pytest.raises(ValueError, match=message):
            eval_prob(model, (bad, 1, 2, 1))
        with pytest.raises(ValueError, match=message):
            model.propagate((1, bad))
        with pytest.raises(ValueError, match=message):
            list(row_walk(model.operators, np.array([[1, bad]])))
        for dist in (hmm, table, *learned):
            for call in (lambda: dist.joint_prob((bad, 1, 2, 1)),
                         lambda: dist.joint_prob((1, 2, 1, bad)),
                         lambda: dist.next_symbol_probs((1, bad)),
                         lambda: dist.conditional_prob((1,), (bad, 2))):
                with pytest.raises(ValueError, match=message):
                    call()
        for dist in learned:
            with pytest.raises(ValueError, match=message):
                dist.row_conditionals(np.array([[1, 2, bad, 1]]))
        for dist in (hmm, table):
            with pytest.raises(ValueError, match=message):
                dist.sample_futures((1, bad), np.random.default_rng(0), 2)
