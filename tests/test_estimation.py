import numpy as np
import pytest

from condseq.distributions import TableDist
from condseq.estimation import CondEstimator
from condseq.generators import make_parity_hmm
from condseq.oracles import OracleHandle

TABLE = TableDist(np.array([0.1, 0.2, 0.3, 0.4]), n_symbols=2, horizon=2)


def _estimator(dist, samples, seed=0):
    oracle = OracleHandle(dist, mode="sampling", seed=seed)
    return CondEstimator(oracle, samples_per_history=samples), oracle


def test_histograms_are_cached_per_history():
    est, oracle = _estimator(TABLE, samples=100)
    first = est.next_symbol_freqs(())
    used = oracle.stats.total
    assert used == 100
    again = est.next_symbol_freqs(())
    assert oracle.stats.total == used  # no new draws
    np.testing.assert_array_equal(first, again)
    est.gated_cond_prob((), (2, 1), alpha=0.0)
    assert oracle.stats.total == used + 100  # only the new history (2,) drawn
    assert est.histories_cached == 2


def test_frequencies_approach_truth():
    est, _ = _estimator(TABLE, samples=8000, seed=3)
    np.testing.assert_allclose(est.next_symbol_freqs(()), [0.3, 0.7],
                               atol=0.03)
    assert est.gated_cond_prob((), (2,), alpha=0.0) == pytest.approx(0.7, abs=0.03)
    assert est.gated_cond_prob((), (2, 2), alpha=0.0) == pytest.approx(0.4, abs=0.03)
    assert est.gated_cond_prob((1,), (), alpha=0.0) == 1.0


def test_full_length_history_rejected():
    est, _ = _estimator(TABLE, samples=10)
    with pytest.raises(ValueError):
        est.next_symbol_freqs((1, 2))


def test_zero_probability_history_yields_zero_histogram():
    dead = TableDist(np.array([0.0, 0.0, 0.6, 0.4]), n_symbols=2, horizon=2)
    est, _ = _estimator(dead, samples=50)
    np.testing.assert_array_equal(est.next_symbol_freqs((1,)), [0.0, 0.0])
    assert est.gated_cond_prob((1,), (2,), alpha=0.0) == 0.0


def test_regularity_screen():
    est, _ = _estimator(TABLE, samples=8000, seed=1)
    # steps from () are (0.3, 0.7): alpha = 0.1 keeps both, 0.2 kills symbol 1
    assert est.gated_cond_prob((), (2, 2), alpha=0.1) > 0.0
    assert est.gated_cond_prob((), (1,), alpha=0.2) == 0.0
    gated = est.gated_cond_prob((), (1, 2), alpha=0.1)
    assert gated == pytest.approx(0.2, abs=0.03)
    assert est.gated_cond_prob((), (1, 2), alpha=0.2) == 0.0


def test_estimates_are_deterministic_after_first_draw():
    hmm = make_parity_hmm(4, alpha=0.2)
    est, _ = _estimator(hmm, samples=200, seed=9)
    a = est.gated_cond_prob((1,), (1, 2, 1), alpha=0.0)
    b = est.gated_cond_prob((1,), (1, 2, 1), alpha=0.0)
    assert a == b


def test_constructor_validates_sample_count():
    oracle = OracleHandle(TABLE, mode="sampling", seed=0)
    with pytest.raises(ValueError):
        CondEstimator(oracle, samples_per_history=0)
