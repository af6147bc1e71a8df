import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from condseq import sampling_learner
from condseq.distributions import Hmm, TableDist
from condseq.estimation import CondEstimator
from condseq.generators import make_parity_hmm, parity_class_bases
from condseq.metrics import sigma_matrix, tv_exact
from condseq.oom import to_distribution
from condseq.oracles import OracleHandle, WrongOracleMode
from condseq.sampling_learner import (
    AlgoParams,
    PrecondEstimates,
    assemble_operator,
    draw_basis,
    estimate_sigma_and_q,
    learn_sampling,
    repeat_basis,
    ridge_coefficients,
    top_eigenspace,
)
from condseq.sequences import all_seqs

from _reference import precond_moments_loop

ONE_STATE = Hmm(mu=[1.0], emission=[[0.6], [0.4]], transition=[[1.0]],
                horizon=3)


def test_params_validation():
    AlgoParams()
    AlgoParams(coeff_norm=2, eig_threshold=1)  # ints are reals
    bad = [("basis_size", 0), ("eig_threshold", 1.5), ("ridge", 0.0),
           ("entry_samples", -5),
           # each was accepted: a fractional count charged fractional
           # queries, NaN ridge gave NaN operators, NaN regularity zeroed
           # every estimate, an infinite norm overflowed in repeat_basis
           ("entry_samples", 2.5), ("step_samples", True), ("basis_size", 3.0),
           ("ridge", float("nan")), ("regularity", float("nan")),
           ("coeff_norm", float("inf")), ("eig_threshold", float("nan")),
           ("coeff_norm", True), ("ridge", "1e-4")]
    for name, value in bad:
        with pytest.raises(ValueError, match=name):
            AlgoParams(**{name: value})


def test_precond_estimates_validation():
    good = PrecondEstimates(sigma=np.eye(2), q=np.full((2, 1, 2), 0.5),
                            one_step=np.full((1, 2), 0.5))
    assert good.sigma.shape == (2, 2)
    with pytest.raises(ValueError):
        PrecondEstimates(sigma=np.array([[1.0, 0.5], [0.0, 1.0]]),
                         q=np.full((2, 1, 2), 0.5),
                         one_step=np.full((1, 2), 0.5))
    with pytest.raises(ValueError):
        PrecondEstimates(sigma=np.eye(2), q=np.full((2, 2, 2), 0.5),
                         one_step=np.full((1, 2), 0.5))
    with pytest.raises(ValueError):
        PrecondEstimates(sigma=-np.eye(2), q=np.full((2, 1, 2), 0.5),
                         one_step=np.full((1, 2), 0.5))
    with pytest.raises(ValueError):
        PrecondEstimates(sigma=np.array([[np.nan]]), q=np.zeros((1, 1, 1)),
                         one_step=np.zeros((1, 1)))


def test_draw_basis_keeps_duplicates():
    oracle = OracleHandle(ONE_STATE, mode="sampling", seed=0)
    members = draw_basis(oracle, 1, 30)
    assert len(members) == 30
    assert set(members) <= {(1,), (2,)}
    assert len(set(members)) < 30  # duplicates preserved, not deduplicated
    assert oracle.stats.joint_queries == 30
    with pytest.raises(ValueError):
        draw_basis(oracle, 1, 0)


def test_repeat_basis_copy_counts():
    members = [(1,), (2,)]
    assert repeat_basis(members, 1.0) == members
    assert repeat_basis(members, 1.0) is not members
    tripled = repeat_basis(members, 2.5)  # ceil(6.25) = 7 copies each
    assert len(tripled) == 14
    assert tripled[:7] == [(1,)] * 7


def test_top_eigenspace_hand_case():
    proj, eigvals = top_eigenspace(np.diag([3.0, 0.01]), threshold=0.05)
    np.testing.assert_allclose(proj, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert eigvals.tolist() == [3.0, 0.01]  # largest first
    all_small, _ = top_eigenspace(np.diag([0.01, 0.02]), threshold=0.1)
    np.testing.assert_array_equal(all_small, np.zeros((2, 2)))


@given(st.integers(0, 10_000))
def test_top_eigenspace_is_projection(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(4, 4))
    sigma = raw + raw.T
    proj, _ = top_eigenspace(sigma, threshold=0.5)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
    np.testing.assert_allclose(proj, proj.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(proj)
    assert np.all((np.abs(eigs) < 1e-10) | (np.abs(eigs - 1) < 1e-10))


def test_ridge_recovers_well_posed_coefficients():
    sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
    beta_true = np.array([[0.3, 1.0], [0.7, -1.0]])
    q = sigma @ beta_true
    beta = ridge_coefficients(sigma, q, ridge=1e-10)
    np.testing.assert_allclose(beta, beta_true, atol=1e-6)
    shrunk = ridge_coefficients(sigma, q, ridge=10.0)
    assert np.linalg.norm(shrunk) < np.linalg.norm(beta_true)
    with pytest.raises(ValueError):
        ridge_coefficients(sigma, q, ridge=0.0)


def test_assemble_operator_hand_case():
    beta = np.array([[1.0, 0.0], [0.0, 1.0]])
    steps = np.array([0.5, 0.25])
    out = assemble_operator(np.eye(2), np.eye(2), beta, steps)
    np.testing.assert_allclose(out, [[0.5, 0.0], [0.0, 0.25]])
    with pytest.raises(ValueError):
        assemble_operator(np.eye(2), np.eye(2), np.ones((2, 3)), steps)
    with pytest.raises(ValueError):
        assemble_operator(np.eye(2), np.eye(2), beta, np.ones(3))


def test_assemble_operator_projects_both_sides():
    p_out = np.array([[1.0, 0.0], [0.0, 0.0]])
    out = assemble_operator(p_out, np.eye(2), np.ones((2, 2)), np.ones(2))
    assert np.all(out[1] == 0.0)


def test_sigma_estimate_matches_enumeration():
    hmm = make_parity_hmm(4, alpha=0.2)
    bases = parity_class_bases(4)
    oracle = OracleHandle(hmm, mode="sampling", seed=0)
    est = CondEstimator(oracle, samples_per_history=10_000)
    params = AlgoParams(basis_size=2, entry_samples=10_000,
                        step_samples=10_000)
    moments = estimate_sigma_and_q(est, bases[2], bases[1], params)

    exact = sigma_matrix(hmm, bases[2])
    np.testing.assert_allclose(moments.sigma, exact, atol=0.15)
    got_eigs = np.sort(np.linalg.eigvalsh(moments.sigma))
    np.testing.assert_allclose(got_eigs, [0.72, 2.0], atol=0.15)

    # cross moments against direct enumeration of the preconditioned sum
    futures = list(all_seqs(2, 2))
    p_basis = np.array([[hmm.conditional_prob(b, f) for f in futures]
                        for b in bases[2]])
    d_bar = p_basis.mean(axis=0)
    for j, prev in enumerate(bases[1]):
        for o in (1, 2):
            x = prev + (o,)
            p_x = np.array([hmm.conditional_prob(x, f) for f in futures])
            want = (p_basis * p_x[None, :] / d_bar[None, :]).sum(axis=1)
            np.testing.assert_allclose(moments.q[:, j, o - 1], want, atol=0.2)
    np.testing.assert_allclose(moments.one_step, 0.5 * np.ones((2, 2)),
                               atol=0.05)


def test_precond_sum_of_member_with_itself_is_one():
    hmm = make_parity_hmm(4, alpha=0.3)
    member = (1, 1)
    oracle = OracleHandle(hmm, mode="sampling", seed=1)
    est = CondEstimator(oracle, samples_per_history=5000)
    params = AlgoParams(basis_size=1, entry_samples=5000, step_samples=5000)
    moments = estimate_sigma_and_q(est, [member], [(1,)], params)
    assert moments.sigma[0, 0] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("dist,basis,prev_basis", [
    (make_parity_hmm(5, alpha=0.3), [(2,)], [()]),  # one member
    (make_parity_hmm(5, alpha=0.3), [(2, 1), (1, 1), (2, 1)], [(2,), (1,), (2,)]),
    (make_parity_hmm(5, alpha=0.3), [(1,)] * 4, [()]),
    # (1,) has probability 0, so its batch is empty and its column zero
    (TableDist(np.array([0.0, 0.0, 0.6, 0.4]), n_symbols=2, horizon=2),
     [(1,), (2,)], [()]),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_precond_moments_match_the_per_future_loop_bit_for_bit(dist, basis,
                                                               prev_basis, seed):
    params = AlgoParams(entry_samples=400, step_samples=300, regularity=0.05)
    est = CondEstimator(OracleHandle(dist, mode="sampling", seed=seed), 300)
    ref = CondEstimator(OracleHandle(dist, mode="sampling", seed=seed), 300)
    moments = estimate_sigma_and_q(est, basis, prev_basis, params)
    sigma, q = precond_moments_loop(ref, basis, prev_basis, 400, 0.05)
    assert moments.sigma.tobytes() == sigma.tobytes()
    assert moments.q.tobytes() == q.tobytes()
    assert list(est._freqs)[:len(ref._freqs)] == list(ref._freqs)


def test_spectrum_is_formatted_only_when_logged(monkeypatch, caplog):
    oracle_args = dict(dist=make_parity_hmm(4, alpha=0.3), mode="sampling", seed=0)
    params = AlgoParams(basis_size=4, entry_samples=300, step_samples=300)

    def refuse(*args, **kwargs):
        raise AssertionError("array2string called with INFO off")

    with caplog.at_level(logging.WARNING, logger="condseq.sampling_learner"):
        with monkeypatch.context() as patch:
            patch.setattr(np, "array2string", refuse)
            learn_sampling(OracleHandle(**oracle_args), params)
    assert "spectrum=" not in caplog.text
    with caplog.at_level(logging.INFO, logger="condseq.sampling_learner"):
        learn_sampling(OracleHandle(**oracle_args), params)
    assert "spectrum=[" in caplog.text


def test_learn_sampling_one_state_instance():
    oracle = OracleHandle(ONE_STATE, mode="sampling", seed=4)
    params = AlgoParams(basis_size=5, entry_samples=500, step_samples=500)
    model, report = learn_sampling(oracle, params)
    assert tv_exact(ONE_STATE, to_distribution(model, flavor="raw")) <= 0.05
    assert set(report) == {"params", "basis_sizes", "levels",
                           "histories_cached", "queries", "seconds"}
    assert report["params"]["basis_size"] == 5
    assert len(report["levels"]) == ONE_STATE.horizon
    for level in report["levels"][:-1]:
        assert {"level", "distinct_members", "eigenvalues", "kept_dim",
                "max_coeff_norm", "queries", "seconds"} <= set(level)
        assert level["kept_dim"] == 1
    assert {"level", "queries", "seconds"} <= set(report["levels"][-1])
    assert report["queries"]["total"] == oracle.stats.total


def test_reported_eigenvalues_are_the_cut_ones(monkeypatch):
    """Each level reports the spectrum its projection was cut from, and
    keeps as many directions as that spectrum has above the cut."""
    cuts = []

    def spy(sigma, threshold):
        proj, eigvals = top_eigenspace(sigma, threshold)
        cuts.append((proj, eigvals))
        return proj, eigvals

    monkeypatch.setattr(sampling_learner, "top_eigenspace", spy)
    params = AlgoParams(basis_size=8, entry_samples=2000, step_samples=2000)
    oracle = OracleHandle(make_parity_hmm(4, alpha=0.3), mode="sampling", seed=0)
    _, report = learn_sampling(oracle, params)
    interior = report["levels"][:-1]
    assert len(interior) == len(cuts) == 3
    for level, (proj, eigvals) in zip(interior, cuts):
        assert level["eigenvalues"] == eigvals.tolist()
        assert level["kept_dim"] == round(np.trace(proj))
        assert level["kept_dim"] == sum(v > 0.5 * params.eig_threshold
                                        for v in level["eigenvalues"])


def test_learn_sampling_parity_end_to_end():
    hmm = make_parity_hmm(4, alpha=0.3)
    oracle = OracleHandle(hmm, mode="sampling", seed=0)
    params = AlgoParams(basis_size=8, entry_samples=2000, step_samples=2000)
    model, report = learn_sampling(oracle, params)
    assert tv_exact(hmm, to_distribution(model, flavor="raw")) <= 0.15
    interior = report["levels"][:-1]
    assert all(level["kept_dim"] == 2 for level in interior)
    assert model.basis_sizes()[0] == 1
    assert model.basis_sizes()[-1] == 1


def test_learn_sampling_parity_cost_is_pinned():
    # parity T=5 at the defaults, oracle seed 0: a change to the simulator's
    # random stream moves the drawn bases and fails here
    oracle = OracleHandle(make_parity_hmm(5, alpha=0.3), mode="sampling", seed=0)
    _, report = learn_sampling(oracle, AlgoParams())
    assert report["queries"]["total"] == 610_080
    assert report["queries"]["by_history_length"] == {
        0: 10080, 1: 40000, 2: 80000, 3: 160000, 4: 320000}
    assert report["histories_cached"] == 31
    assert [level["distinct_members"] for level in report["levels"][:-1]] == [
        2, 4, 7, 12]


def test_learn_sampling_is_deterministic_given_seed():
    def run():
        oracle = OracleHandle(ONE_STATE, mode="sampling", seed=11)
        params = AlgoParams(basis_size=4, entry_samples=300, step_samples=300)
        return learn_sampling(oracle, params)

    model_a, report_a = run()
    model_b, report_b = run()
    for ops_a, ops_b in zip(model_a.operators, model_b.operators):
        for mat_a, mat_b in zip(ops_a, ops_b):
            np.testing.assert_array_equal(mat_a, mat_b)
    assert report_a["basis_sizes"] == report_b["basis_sizes"]
    assert report_a["queries"] == report_b["queries"]


def test_learn_sampling_requires_sampling_mode():
    oracle = OracleHandle(ONE_STATE, mode="exact")
    with pytest.raises(WrongOracleMode):
        learn_sampling(oracle, AlgoParams(basis_size=2, entry_samples=10,
                                          step_samples=10))
