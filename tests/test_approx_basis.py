import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from condseq.approx_basis import (
    RoundCapExceeded,
    coefficient_cap,
    elliptical_potential,
    elliptical_potential_bound,
    empirical_l2_loss,
    find_approx_basis,
    min_capped_ridge,
    mixture_density,
    search_round_cap,
)
from condseq.bench import ExperimentConfig, run_experiment
from condseq.distributions import Hmm
from condseq.generators import make_parity_hmm
from condseq.metrics import expected_span_residual
from condseq.oracles import OracleHandle, WrongOracleMode

INDEPENDENT_BITS = Hmm(mu=[1.0], emission=[[0.6], [0.4]],
                       transition=[[1.0]], horizon=3)


def test_cap_and_budget_frozen_values():
    assert coefficient_cap(4, 2, 0.1, 0.1) == pytest.approx(
        math.sqrt(16 * math.log(16_000)), abs=1e-12)
    assert coefficient_cap(4, 2, 0.1, 0.1) == pytest.approx(12.445, abs=1e-3)
    assert search_round_cap(4, 2, 0.1, 0.1) == 2479
    assert coefficient_cap(4, 2, 0.05, 0.1) > coefficient_cap(4, 2, 0.1, 0.1)
    assert search_round_cap(6, 2, 0.1, 0.1) > search_round_cap(4, 2, 0.1, 0.1)


def test_mixture_density_hand_values():
    assert mixture_density(0.4, [0.2, 0.6]) == pytest.approx(0.4)
    out = mixture_density(np.array([0.4, 0.0]),
                          np.array([[0.2, 0.1], [0.6, 0.3]]))
    np.testing.assert_allclose(out, [0.4, 0.1])
    with pytest.raises(ValueError):
        mixture_density(0.4, np.zeros((0, 2)))


def test_empirical_l2_loss_hand_values():
    y = np.array([1.0, 0.0])
    z = np.array([[1.0], [1.0]])
    beta = np.array([1.0])
    assert empirical_l2_loss(y, z, beta) == pytest.approx(0.5)
    assert empirical_l2_loss(y, z, beta, weights=[3.0, 1.0]) == pytest.approx(
        0.25)
    assert empirical_l2_loss(y, z, np.array([0.5])) == pytest.approx(0.25)


@given(st.integers(0, 10_000))
def test_zero_coefficient_loss_is_at_most_four(seed):
    # mixture ratios never exceed 2, so the all-zero coefficient loss <= 4
    rng = np.random.default_rng(seed)
    target = rng.random(12)
    members = rng.random((3, 12))
    dens = mixture_density(target, members)
    keep = dens > 0.0
    y = target[keep] / dens[keep]
    z = (members[:, keep] / dens[keep][None, :]).T
    assert np.all(y <= 2.0 + 1e-12)
    assert empirical_l2_loss(y, z, np.zeros(3)) <= 4.0 + 1e-12


@given(st.integers(0, 10_000))
def test_weighted_l1_residual_dominated_by_root_loss(seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=10)
    z = rng.normal(size=(10, 3))
    beta = rng.normal(size=3)
    w = rng.integers(1, 5, size=10).astype(float)
    resid = np.abs(y - z @ beta)
    l1 = float(w @ resid / w.sum())
    assert l1 <= math.sqrt(empirical_l2_loss(y, z, beta, weights=w)) + 1e-12


def test_min_capped_ridge_unconstrained_case_matches_lstsq():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(20, 3))
    beta_true = np.array([0.1, -0.2, 0.15])
    y = z @ beta_true
    beta = min_capped_ridge(y, z, cap=10.0)
    np.testing.assert_allclose(beta, beta_true, atol=1e-9)


def test_min_capped_ridge_active_cap_lands_on_sphere():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(20, 3))
    y = z @ np.array([3.0, -4.0, 1.0])
    cap = 1.0
    beta = min_capped_ridge(y, z, cap=cap)
    assert 0.999 * cap <= np.linalg.norm(beta) <= cap + 1e-12
    free_loss = empirical_l2_loss(y, z, np.array([3.0, -4.0, 1.0]))
    assert empirical_l2_loss(y, z, beta) >= free_loss
    with pytest.raises(ValueError):
        min_capped_ridge(y, z, cap=0.0)


def test_min_capped_loss_monotone_in_cap_and_members():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(15, 2))
    y = z @ np.array([2.0, -2.0]) + 0.1 * rng.normal(size=15)
    small = empirical_l2_loss(y, z, min_capped_ridge(y, z, cap=0.5))
    large = empirical_l2_loss(y, z, min_capped_ridge(y, z, cap=2.0))
    assert large <= small + 1e-12
    wider = np.column_stack([z, rng.normal(size=15)])
    richer = empirical_l2_loss(y, wider, min_capped_ridge(y, wider, cap=2.0))
    assert richer <= large + 1e-9


def test_min_capped_ridge_weighted_matches_row_scaling():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    w = rng.integers(1, 4, size=12).astype(float)
    beta = min_capped_ridge(y, z, cap=100.0, weights=w)
    scale = np.sqrt(w)
    direct, *_ = np.linalg.lstsq(z * scale[:, None], y * scale, rcond=None)
    np.testing.assert_allclose(beta, direct, atol=1e-9)


def test_spent_round_budget_raises_round_cap_exceeded(monkeypatch):
    # a counterexample in the last round used to trip a bare ValueError
    monkeypatch.setattr("condseq.approx_basis.search_round_cap",
                        lambda *args: 1)
    oracle = OracleHandle(make_parity_hmm(5), mode="sampling", seed=0)
    with pytest.raises(RoundCapExceeded) as err:
        find_approx_basis(oracle, t=3, seed=0)
    (only,) = err.value.report["rounds"]
    assert only["counterexample"] is not None
    assert err.value.report["round_cap"] == 1

    report = run_experiment(ExperimentConfig(
        instance={"kind": "parity", "horizon": 5}, algorithm="approx-basis",
        params={"t": 3}))
    (outcome,) = report.outcomes
    assert outcome["error"].startswith("RoundCapExceeded")
    assert not report.passed


def test_round_cap_exception_carries_report():
    err = RoundCapExceeded("ran out", {"rounds": [1, 2]})
    assert err.report == {"rounds": [1, 2]}
    assert "ran out" in str(err)
    assert isinstance(err, RuntimeError)


def test_find_basis_rank_one_certifies_in_one_round():
    oracle = OracleHandle(INDEPENDENT_BITS, mode="sampling", seed=0)
    members, report = find_approx_basis(
        oracle, t=2, eps=0.1, regularity=0.1, rank_bound=1,
        candidates_per_round=8, loss_samples=2000, step_samples=4000,
        repeat_for_unit_norm=False, seed=0)
    assert len(members) == 1
    assert len(report["rounds"]) == 1
    assert report["rounds"][0]["counterexample"] is None
    assert report["loss_threshold"] == pytest.approx(0.1**2 / 8)


def test_find_basis_parity_recovers_both_classes():
    hmm = make_parity_hmm(4, alpha=0.3)
    oracle = OracleHandle(hmm, mode="sampling", seed=0)
    members, report = find_approx_basis(
        oracle, t=3, eps=0.1, regularity=0.1, rank_bound=2,
        candidates_per_round=16, loss_samples=2000, step_samples=5000,
        repeat_for_unit_norm=False, seed=0)
    assert len(members) == 2
    assert expected_span_residual(hmm, members) <= 0.1
    assert {"members", "coeff_cap", "round_cap", "loss_threshold", "rounds",
            "params", "queries", "seconds"} <= set(report)
    for entry in report["rounds"]:
        assert {"round", "checked", "max_loss", "counterexample"} <= set(entry)
    # the counterexample round saw a hopeless candidate, the last certified
    assert report["rounds"][0]["max_loss"] > report["loss_threshold"]
    assert report["rounds"][-1]["max_loss"] <= report["loss_threshold"]


def test_find_basis_repetition_for_unit_norm():
    oracle = OracleHandle(INDEPENDENT_BITS, mode="sampling", seed=3)
    members, report = find_approx_basis(
        oracle, t=1, eps=0.1, regularity=0.1, rank_bound=1,
        candidates_per_round=4, loss_samples=300, step_samples=500,
        repeat_for_unit_norm=True, seed=3)
    copies = math.ceil(report["coeff_cap"] ** 2)
    assert len(members) == copies * len(report["members"])
    assert set(members) == set(report["members"])


def test_find_basis_is_deterministic_given_seed():
    def run():
        oracle = OracleHandle(INDEPENDENT_BITS, mode="sampling", seed=7)
        return find_approx_basis(
            oracle, t=2, eps=0.1, regularity=0.1, rank_bound=1,
            candidates_per_round=4, loss_samples=300, step_samples=500,
            repeat_for_unit_norm=False, seed=7)

    members_a, report_a = run()
    members_b, report_b = run()
    assert members_a == members_b
    assert report_a["rounds"] == report_b["rounds"]


def test_find_basis_input_validation():
    oracle = OracleHandle(INDEPENDENT_BITS, mode="exact")
    with pytest.raises(WrongOracleMode):
        find_approx_basis(oracle, t=1)
    sampling = OracleHandle(INDEPENDENT_BITS, mode="sampling", seed=0)
    with pytest.raises(ValueError):
        find_approx_basis(sampling, t=9)


def test_elliptical_potential_hand_value():
    got = elliptical_potential(np.array([[1.0], [1.0]]), ridge=1.0)
    assert got == pytest.approx(math.log(2.0) / 2, abs=1e-12)
    assert elliptical_potential_bound(2, 1, 1.0, 1.0) == pytest.approx(
        math.log(3.0) / 2, abs=1e-12)
    assert got <= elliptical_potential_bound(2, 1, 1.0, 1.0)


def test_elliptical_potential_validation():
    with pytest.raises(ValueError):
        elliptical_potential(np.ones((2, 2)), ridge=0.0)
    with pytest.raises(ValueError):
        elliptical_potential(np.ones(3), ridge=1.0)
    with pytest.raises(ValueError):
        elliptical_potential(np.zeros((0, 2)), ridge=1.0)
    with pytest.raises(ValueError):
        elliptical_potential_bound(0, 2, 1.0, 1.0)


@given(st.integers(0, 2_000))
def test_elliptical_potential_never_beats_bound(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 21)), int(rng.integers(1, 4))
    vectors = rng.normal(size=(n, d)) * rng.uniform(0.1, 2.0)
    ridge = float(rng.choice([0.1, 1.0]))
    max_norm = float(np.linalg.norm(vectors, axis=1).max())
    assert elliptical_potential(vectors, ridge) <= elliptical_potential_bound(
        n, d, max_norm, ridge) + 1e-12


@pytest.mark.parametrize("kwargs,name", [
    ({"candidates_per_round": 0}, "candidates_per_round"),
    ({"loss_samples": 0}, "loss_samples"),
    ({"step_samples": 0}, "step_samples"),
    ({"rank_bound": 0}, "rank_bound"),
    ({"eps": 0.0}, "eps"),
    ({"eps": -0.1}, "eps"),
    ({"eps": 1.5}, "eps"),
    ({"regularity": 0.0}, "regularity"),
    ({"regularity": -0.05}, "regularity"),
    # non-integer counts spent queries before a TypeError, or ran as counts
    ({"candidates_per_round": 2.5}, "candidates_per_round"),
    ({"loss_samples": True}, "loss_samples"),
    ({"step_samples": 100.0}, "step_samples"),
    ({"rank_bound": "2"}, "rank_bound"),
    ({"eps": float("nan")}, "eps"),
    ({"eps": True}, "eps"),
    ({"regularity": float("inf")}, "regularity"),
    ({"t": 2.5}, "^t must"),
    ({"t": True}, "^t must"),
])
def test_find_approx_basis_rejects_parameters_that_cannot_work(kwargs, name):
    # each used to fail only after spending queries (eps=-0.1 ran 274k) or
    # to divide by zero
    oracle = OracleHandle(make_parity_hmm(4, alpha=0.2), mode="sampling", seed=0)
    with pytest.raises(ValueError, match=name):
        find_approx_basis(oracle, **{"t": 2, **kwargs})
    assert oracle.stats.total == 0
