import numpy as np
import pytest

from condseq.distributions import Hmm, TableDist
from condseq.estimation import CondEstimator
from condseq.generators import make_parity_hmm
from condseq.oracles import OracleHandle

from _reference import gated_estimate_loop

TABLE = TableDist(np.array([0.1, 0.2, 0.3, 0.4]), n_symbols=2, horizon=2)


def _estimator(dist, samples, seed=0):
    oracle = OracleHandle(dist, mode="sampling", seed=seed)
    return CondEstimator(oracle, samples_per_history=samples), oracle


def _gated(est, history, future, alpha):
    """The one entry of a 1×1 ``gated_block``."""
    block = est.gated_block([history], [future], alpha)
    assert block.shape == (1, 1)
    return float(block[0, 0])


def test_histograms_are_cached_per_history():
    est, oracle = _estimator(TABLE, samples=100)
    first = est.next_symbol_freqs(())
    used = oracle.stats.total
    assert used == 100
    again = est.next_symbol_freqs(())
    assert oracle.stats.total == used  # no new draws
    np.testing.assert_array_equal(first, again)
    _gated(est, (), (2, 1), alpha=0.0)
    assert oracle.stats.total == used + 100  # only the new history (2,) drawn
    assert est.histories_cached == 2


def test_frequencies_approach_truth():
    est, _ = _estimator(TABLE, samples=8000, seed=3)
    np.testing.assert_allclose(est.next_symbol_freqs(()), [0.3, 0.7],
                               atol=0.03)
    assert _gated(est, (), (2,), alpha=0.0) == pytest.approx(0.7, abs=0.03)
    assert _gated(est, (), (2, 2), alpha=0.0) == pytest.approx(0.4, abs=0.03)
    assert _gated(est, (1,), (), alpha=0.0) == 1.0


def test_full_length_history_rejected():
    est, _ = _estimator(TABLE, samples=10)
    with pytest.raises(ValueError):
        est.next_symbol_freqs((1, 2))


def test_zero_probability_history_yields_zero_histogram():
    dead = TableDist(np.array([0.0, 0.0, 0.6, 0.4]), n_symbols=2, horizon=2)
    est, _ = _estimator(dead, samples=50)
    np.testing.assert_array_equal(est.next_symbol_freqs((1,)), [0.0, 0.0])
    assert _gated(est, (1,), (2,), alpha=0.0) == 0.0


def test_regularity_screen():
    est, _ = _estimator(TABLE, samples=8000, seed=1)
    # steps from () are (0.3, 0.7): alpha = 0.1 keeps both, 0.2 kills symbol 1
    assert _gated(est, (), (2, 2), alpha=0.1) > 0.0
    assert _gated(est, (), (1,), alpha=0.2) == 0.0
    gated = _gated(est, (), (1, 2), alpha=0.1)
    assert gated == pytest.approx(0.2, abs=0.03)
    assert _gated(est, (), (1, 2), alpha=0.2) == 0.0


def test_estimates_are_deterministic_after_first_draw():
    hmm = make_parity_hmm(4, alpha=0.2)
    est, _ = _estimator(hmm, samples=200, seed=9)
    a = _gated(est, (1,), (1, 2, 1), alpha=0.0)
    b = _gated(est, (1,), (1, 2, 1), alpha=0.0)
    assert a == b


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gated_block_matches_per_entry_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    hmm = make_parity_hmm(5, alpha=0.3)
    histories = [tuple(int(o) for o in rng.integers(1, 3, size=2))
                 for _ in range(6)]  # duplicates kept, as in a drawn basis
    futures = [tuple(int(o) for o in rng.integers(1, 3, size=3))
               for _ in range(9)]
    for alpha in (0.0, 0.2, 0.3):
        est, oracle = _estimator(hmm, samples=60, seed=seed)
        ref, ref_oracle = _estimator(hmm, samples=60, seed=seed)
        block = est.gated_block(histories, futures, alpha)
        expected = np.array([[gated_estimate_loop(ref, h, f, alpha)
                              for h in histories] for f in futures])
        assert block.shape == (len(futures), len(histories))
        assert block.tobytes() == expected.tobytes()
        assert list(est._freqs) == list(ref._freqs)
        assert oracle.stats.as_dict() == ref_oracle.stats.as_dict()


@pytest.mark.parametrize("seed", [0, 1])
def test_gated_block_of_mixed_length_histories_matches_the_loop(seed):
    # one history string is reached from several (history, prefix) pairs:
    # (1,) + (2,) and (1, 2) + () must share a histogram
    hmm = make_parity_hmm(5, alpha=0.3)
    histories = [(1,), (), (1, 2), (2, 2, 1), (1,)]
    futures = [(2, 1), (1, 1), (2, 2)]
    est, oracle = _estimator(hmm, samples=80, seed=seed)
    ref, ref_oracle = _estimator(hmm, samples=80, seed=seed)
    block = est.gated_block(histories, futures, 0.1)
    expected = np.array([[gated_estimate_loop(ref, h, f, 0.1) for h in histories]
                         for f in futures])
    assert block.tobytes() == expected.tobytes()
    assert list(est._freqs) == list(ref._freqs)
    assert oracle.stats.as_dict() == ref_oracle.stats.as_dict()


def test_gated_block_past_the_horizon_raises_before_any_draw():
    est, oracle = _estimator(make_parity_hmm(4, alpha=0.3), samples=10)
    with pytest.raises(ValueError, match="horizon"):
        est.gated_block([(1,), (1, 2)], [(1, 1, 2)], alpha=0.0)
    assert oracle.stats.total == 0


def test_history_ranks_must_fit_int64():
    def coin(horizon):
        return Hmm(mu=[1.0], emission=[[0.5], [0.5]], transition=[[1.0]],
                   horizon=horizon)

    CondEstimator(OracleHandle(coin(63), mode="sampling"), 10)
    with pytest.raises(ValueError, match="overflow"):
        CondEstimator(OracleHandle(coin(64), mode="sampling"), 10)


def test_gated_block_of_no_futures_or_no_histories_reads_nothing():
    est, oracle = _estimator(TABLE, samples=10)
    assert est.gated_block([(), (1,)], [], alpha=0.0).shape == (0, 2)
    assert est.gated_block([], [(1,), (2,)], alpha=0.0).shape == (2, 0)
    assert oracle.stats.total == 0


def test_constructor_validates_sample_count():
    oracle = OracleHandle(TABLE, mode="sampling", seed=0)
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="samples_per_history"):
            CondEstimator(oracle, samples_per_history=bad)
