import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from condseq import metrics
from condseq.distributions import (
    EnumerationCapError,
    TableDist,
    enumerate_joint,
)
from condseq.generators import (
    greedy_spanning_bases,
    make_parity_hmm,
    make_random_table,
    one_step_bases,
    parity_class_bases,
    perturb_conditionals,
)
from condseq.metrics import (
    FidelityReport,
    conditional_gap_exact,
    expected_span_residual,
    fidelity_for_bases,
    irregular_mass,
    robust_sigma_per_level,
    search_fidelity_bases,
    sequence_two_step_matrix,
    sigma_matrix,
    tv_conditional_bound,
    tv_exact,
)
from condseq.sequences import all_seqs

from _reference import (
    gram_spectrum,
    never_emits_two,
    parity_reference_prob,
    random_hmm,
    random_hmm_with_zero_symbols,
    sampled_bound_loop,
)

HAND = TableDist(np.array([0.1, 0.2, 0.3, 0.4]), n_symbols=2, horizon=2)
SHIFTED = TableDist(np.array([0.2, 0.1, 0.3, 0.4]), n_symbols=2, horizon=2)


def test_tv_exact_hand_value():
    q = TableDist(np.array([0.4, 0.3, 0.2, 0.1]), n_symbols=2, horizon=2)
    assert tv_exact(HAND, q) == pytest.approx(0.4, abs=1e-12)
    assert tv_exact(HAND, HAND) == 0.0


def test_tv_exact_rejects_mismatched_shapes():
    other = TableDist(np.array([0.5, 0.5]), n_symbols=2, horizon=1)
    with pytest.raises(ValueError):
        tv_exact(HAND, other)


def test_conditional_gap_hand_value():
    # only the history (1,) differs: conditionals (1/3, 2/3) vs (2/3, 1/3),
    # weighted by Pr[(1,)] = 0.3
    assert conditional_gap_exact(HAND, SHIFTED) == pytest.approx(0.1, abs=1e-12)
    assert conditional_gap_exact(HAND, HAND) == 0.0


def test_tv_bound_exact_mode_dominates_tv():
    bound = tv_conditional_bound(HAND, SHIFTED, exact=True)
    assert bound == pytest.approx(3 * 2 * 0.1 / 2, abs=1e-12)
    assert tv_exact(HAND, SHIFTED) <= bound


def test_tv_bound_sampled_mode_approximates_exact():
    p = make_random_table(2, 3, seed=0)
    q = make_random_table(2, 3, seed=1)
    exact = tv_conditional_bound(p, q, exact=True)
    sampled = tv_conditional_bound(p, q, n_samples=2000,
                                   rng=np.random.default_rng(0))
    assert sampled == pytest.approx(exact, rel=0.25)
    with pytest.raises(ValueError):
        tv_conditional_bound(p, q)


def test_table_sampled_bound_reads_each_level_once(monkeypatch):
    # a p without a row walk answers every draw's prefixes from one future
    # table per level, not one enumeration per draw
    levels = []
    inner = metrics.future_table

    def counted(dist, length, histories=None, t=None):
        levels.append((length, histories, t))
        return inner(dist, length, histories, t)

    monkeypatch.setattr(metrics, "future_table", counted)
    p = make_random_table(3, 4, seed=0)
    q = make_random_table(3, 4, seed=1)
    bound = tv_conditional_bound(p, q, n_samples=300,
                                 rng=np.random.default_rng(5))
    assert levels == [(1, None, t) for t in range(4)]
    assert bound == pytest.approx(
        sampled_bound_loop(p, q, 300, np.random.default_rng(5)), rel=1e-12)


@given(st.integers(0, 500))
def test_tv_exact_is_a_metric(seed):
    p = make_random_table(2, 3, seed=seed)
    q = make_random_table(2, 3, seed=seed + 1000)
    r = make_random_table(2, 3, seed=seed + 2000)
    ab, ba = tv_exact(p, q), tv_exact(q, p)
    assert ab == pytest.approx(ba, abs=1e-12)
    assert 0.0 <= ab <= 1.0
    assert tv_exact(p, r) <= ab + tv_exact(q, r) + 1e-12


def test_parity_fidelity_closed_form():
    for alpha, want in [(0.3, 0.08), (0.2, 0.18)]:
        hmm = make_parity_hmm(4, alpha=alpha)
        report = fidelity_for_bases(hmm, parity_class_bases(4))
        assert report.min_sigma == pytest.approx((1 - 2 * alpha) ** 2 / 2,
                                                 abs=1e-9)
        assert report.min_sigma == pytest.approx(want, abs=1e-9)
        # singleton endpoint levels are perfectly conditioned
        assert report.sigmas[0] == pytest.approx(1.0, abs=1e-9)
        assert report.sigmas[4] == pytest.approx(1.0, abs=1e-9)


def test_fidelity_report_shape_invariants():
    hmm = make_parity_hmm(4, alpha=0.25)
    bases = parity_class_bases(4)
    report = fidelity_for_bases(hmm, bases)
    assert report.basis_sizes == [len(b) for b in bases]
    assert len(report.sigmas) == len(report.spectra) == 5
    assert report.min_sigma == min(report.sigmas)
    for spec in report.spectra:
        assert all(spec[i] >= spec[i + 1] - 1e-12 for i in range(len(spec) - 1))
    d = report.as_dict()
    assert d["min_sigma"] == pytest.approx(report.min_sigma)
    with pytest.raises(ValueError):
        fidelity_for_bases(hmm, bases[:-1])


def test_sigma_matrix_parity_hand_values():
    hmm = make_parity_hmm(4, alpha=0.2)
    members = parity_class_bases(4)[2]
    sigma = sigma_matrix(hmm, members)
    np.testing.assert_allclose(sigma, [[1.36, 0.64], [0.64, 1.36]], atol=1e-9)
    eigs = np.sort(np.linalg.eigvalsh(sigma))
    np.testing.assert_allclose(eigs, [0.72, 2.0], atol=1e-9)


def test_sigma_matrix_singleton_is_one():
    sigma = sigma_matrix(HAND, [(2,)])
    np.testing.assert_allclose(sigma, [[1.0]], atol=1e-12)
    with pytest.raises(ValueError):
        sigma_matrix(HAND, [])
    with pytest.raises(ValueError):
        sigma_matrix(HAND, [(1,), (1, 2)])


def test_robust_sigma_parity_closed_form():
    hmm = make_parity_hmm(5, alpha=0.3)
    bases = parity_class_bases(5)
    per_level = robust_sigma_per_level(hmm, bases)
    assert per_level[0] == pytest.approx(1.0, abs=1e-9)
    assert min(per_level) == pytest.approx(2 * (1 - 2 * 0.3) ** 2, abs=1e-9)  # 0.32


def test_duplicated_members_scale_sigma_spectrum():
    # repeating every member doubles eigenvalues but keeps the eigenspaces
    hmm = make_parity_hmm(4, alpha=0.2)
    members = parity_class_bases(4)[2]
    once = np.sort(np.linalg.eigvalsh(sigma_matrix(hmm, members)))
    twice = np.sort(np.linalg.eigvalsh(sigma_matrix(hmm, members * 2)))
    np.testing.assert_allclose(twice[-2:], 2 * once, atol=1e-9)
    np.testing.assert_allclose(twice[:2], 0.0, atol=1e-9)


def test_search_fidelity_bases_beats_fixed_bases():
    hmm = make_parity_hmm(3, alpha=0.25)
    fixed = fidelity_for_bases(hmm, parity_class_bases(3)).min_sigma
    bases, report = search_fidelity_bases(hmm, max_size=2)
    assert report.min_sigma >= fixed - 1e-9
    assert all(len(b) <= 2 for b in bases)
    assert isinstance(report, FidelityReport)
    big = make_parity_hmm(12, alpha=0.25)
    with pytest.raises(ValueError):
        search_fidelity_bases(big)


def test_irregular_mass_hand_values():
    assert irregular_mass(HAND, (), 0.25) == pytest.approx(0.0, abs=1e-12)
    assert irregular_mass(HAND, (), 0.35) == pytest.approx(0.3, abs=1e-12)
    # 0.3 from the first step, plus 0.7 * 3/7 from the branch below (2,)
    assert irregular_mass(HAND, (), 0.45) == pytest.approx(0.6, abs=1e-12)
    uniform = TableDist(np.full(4, 0.25), n_symbols=2, horizon=2)
    assert irregular_mass(uniform, (), 0.2) == 0.0


def test_sequence_two_step_matrix_hand_values():
    mat = sequence_two_step_matrix(HAND)
    np.testing.assert_allclose(mat, [[0.1, 0.3], [0.2, 0.4]], atol=1e-12)
    with pytest.raises(ValueError):
        sequence_two_step_matrix(
            TableDist(np.array([0.5, 0.5]), n_symbols=2, horizon=1))


def test_expected_span_residual_spanning_basis_is_zero():
    hmm = make_parity_hmm(4, alpha=0.2)
    members = parity_class_bases(4)[2]
    assert expected_span_residual(hmm, members) <= 1e-9


def test_expected_span_residual_matches_reference_enumeration():
    subset, alpha, t = {1, 2, 3}, 0.2, 2
    hmm = make_parity_hmm(4, subset=subset, alpha=alpha)
    members = [(1, 1)]

    def ref_cond(hist):
        joint = parity_reference_prob  # noqa: E731  (alias for brevity)
        total = sum(joint(hist + f, subset, alpha) for f in all_seqs(2, 2))
        return np.array([joint(hist + f, subset, alpha) / total
                         for f in all_seqs(2, 2)])

    col = ref_cond(members[0])[:, None]
    want = 0.0
    for hist in all_seqs(2, 2):
        target = ref_cond(hist)
        beta, *_ = np.linalg.lstsq(col, target, rcond=None)
        want += 0.25 * np.abs(target - col @ beta).sum()
    got = expected_span_residual(hmm, members)
    assert got == pytest.approx(want, abs=1e-9)
    assert got > 0.05  # a single member cannot cover both parity classes
    both = expected_span_residual(hmm, parity_class_bases(4, subset=subset)[2])
    assert both <= got


def test_enumerating_referees_raise_the_cap_error():
    # 2**21 sequences: every enumerating referee raises the one cap error,
    # which run_experiment records, before enumerating anything
    big = make_parity_hmm(21, alpha=0.2)
    with pytest.raises(EnumerationCapError):
        tv_exact(big, big)
    with pytest.raises(EnumerationCapError):
        expected_span_residual(big, [(1,), (2,)])
    with pytest.raises(EnumerationCapError):
        perturb_conditionals(big, 0.1, seed=0)
    with pytest.raises(EnumerationCapError):
        make_random_table(2, 21, seed=0)


def test_expected_span_residual_validation():
    with pytest.raises(ValueError):
        expected_span_residual(HAND, [])
    with pytest.raises(ValueError):
        expected_span_residual(HAND, [(1,), (1, 2)])


def test_random_hmm_irregular_mass_union_bound_smoke():
    rng = np.random.default_rng(0)
    hmm = random_hmm(rng, 3, 2, 4)
    for alpha in (0.05, 0.1):
        for t in range(4):
            for h in all_seqs(2, t):
                assert irregular_mass(hmm, h, alpha) <= 2 * 4 * alpha + 1e-12


@given(st.integers(0, 10_000))
def test_fidelity_spectra_are_the_nonzero_gram_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    n_symbols = int(rng.integers(2, 4))
    hmm = random_hmm(rng, int(rng.integers(1, 4)), n_symbols,
                     int(rng.integers(1, 5)))
    for make_bases in (greedy_spanning_bases, one_step_bases):
        bases = make_bases(hmm)
        report = fidelity_for_bases(hmm, bases)
        for t, (members, spec) in enumerate(zip(bases, report.spectra)):
            gram = gram_spectrum(hmm, members, t)
            # the Gram has one eigenvalue per history; beyond the rank of Z
            # (at most min(#futures, #histories)) they are numerical zeros
            assert spec.size <= gram.size
            np.testing.assert_allclose(spec, gram[:spec.size], rtol=0, atol=1e-10)
            np.testing.assert_allclose(gram[spec.size:], 0.0, atol=1e-10)
            assert np.all(spec[:-1] >= spec[1:])


def test_referee_modules_import_no_learner_code():
    import condseq

    code = ("import sys\n"
            "import condseq.distributions, condseq.generators, condseq.metrics, "
            "condseq.oom\n"
            "print(' '.join(sorted(sys.modules)))")
    src = str(Path(condseq.__file__).resolve().parents[1])
    loaded = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert "condseq.metrics" in loaded
    learner = {"exact_learner", "sampling_learner", "estimation",
               "approx_basis", "oracles"}
    assert not {f"condseq.{m}" for m in learner} & set(loaded)


def _assert_same_referee(hmm, bases):
    """Fidelity, robust σ and span residuals of an HMM equal its joint table's.

    Two symmetric matrices' eigenvalues differ by at most the spectral norm of
    their difference (Weyl), and rounding error scales with a level's largest
    eigenvalue, not with the small σ being compared.  So eigenvalues and σ get
    an absolute tolerance of 1e-12 times that scale.
    """
    table = TableDist(enumerate_joint(hmm), hmm.n_symbols, hmm.horizon)
    got, want = fidelity_for_bases(hmm, bases), fidelity_for_bases(table, bases)
    robust_got = robust_sigma_per_level(hmm, bases)
    robust_want = robust_sigma_per_level(table, bases)
    assert (len(got.sigmas) == len(want.sigmas) == len(robust_got)
            == len(robust_want) == len(bases))
    for a, b, sigma_a, sigma_b in zip(got.spectra, want.spectra,
                                      got.sigmas, want.sigmas):
        atol = 1e-15 + 1e-12 * b.max(initial=0.0)
        np.testing.assert_allclose(a, b, rtol=0, atol=atol)
        np.testing.assert_allclose(sigma_a, sigma_b, rtol=0, atol=atol)
    for members, robust_a, robust_b in zip(bases, robust_got, robust_want):
        scale = np.linalg.norm(sigma_matrix(table, members), 2)
        np.testing.assert_allclose(robust_a, robust_b, rtol=0,
                                   atol=1e-15 + 1e-12 * scale)
    for members in bases:
        assert expected_span_residual(hmm, members) == pytest.approx(
            expected_span_residual(table, members), rel=1e-12, abs=1e-15)
    return got


def test_zero_probability_basis_members_weigh_nothing():
    # symbol 2 is never emitted, so (2,) and (2, 2) have probability zero
    hmm = never_emits_two()
    bases = [[()], [(1,), (2,)], [(1, 1), (2, 2)], [(1, 1, 1)]]
    assert _assert_same_referee(hmm, bases).sigmas == pytest.approx([1.0] * 4)
    np.testing.assert_allclose(robust_sigma_per_level(hmm, bases), [1.0] * 4,
                               rtol=0, atol=1e-12)
    # a dead member adds a zero row and column; the live one keeps [[1]]
    np.testing.assert_allclose(sigma_matrix(hmm, bases[1]), [[1, 0], [0, 0]],
                               rtol=0, atol=1e-12)
    assert sigma_matrix(hmm, [(2,)]).tolist() == [[0.0]]


@given(st.integers(0, 10_000))
@example(seed=1611)  # σ₊ 6.0e-5 differed by 2.9e-11 relative at rtol=1e-12
def test_hmm_and_its_table_agree_on_zero_probability_basis_members(seed):
    rng = np.random.default_rng(seed)
    hmm = random_hmm_with_zero_symbols(rng)
    O, T = hmm.n_symbols, hmm.horizon
    bases = []
    for t in range(T + 1):
        hists = list(all_seqs(O, t))
        dead = [h for h in hists if hmm.joint_prob(h) == 0.0]
        live = [h for h in hists if hmm.joint_prob(h) > 0.0]
        picked = rng.choice(len(live), size=int(rng.integers(1, len(live) + 1)),
                            replace=False)
        bases.append([live[i] for i in sorted(picked)] + dead[:1])
    _assert_same_referee(hmm, bases)
