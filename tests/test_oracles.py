from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from condseq.distributions import Hmm, TableDist
from condseq.estimation import CondEstimator
from condseq.generators import make_parity_hmm
from condseq.oracles import (
    BudgetExceeded,
    OracleHandle,
    WrongOracleMode,
)

from _reference import (full_hmm_draws, full_table_draws,
                        random_hmm_with_zero_symbols)

TABLE = TableDist(np.array([0.1, 0.2, 0.3, 0.4]), n_symbols=2, horizon=2)


def test_mode_enforcement():
    exact = OracleHandle(TABLE, mode="exact")
    sampling = OracleHandle(TABLE, mode="sampling", seed=0)
    with pytest.raises(WrongOracleMode):
        exact.sample_futures((1,), 1)
    with pytest.raises(WrongOracleMode):
        sampling.exact_query((1,), (2,))
    with pytest.raises(ValueError):
        OracleHandle(TABLE, mode="psychic")


def test_exact_query_passthrough_and_counting():
    oracle = OracleHandle(TABLE, mode="exact")
    assert oracle.exact_query((1,), (2,)) == pytest.approx(0.2 / 0.3)
    assert oracle.exact_query((), (2, 1)) == pytest.approx(0.3)
    assert oracle.stats.exact_queries == 2
    assert oracle.stats.total == 2
    assert oracle.stats.by_history_length == {0: 1, 1: 1}
    with pytest.raises(ValueError):
        oracle.exact_query((1, 2), (1,))


def test_budget_enforced_across_query_kinds():
    oracle = OracleHandle(TABLE, mode="sampling", seed=1, budget=10)
    oracle.sample_futures((), 8)
    with pytest.raises(BudgetExceeded):
        oracle.sample_futures((), 3)
    # a smaller request still fits
    oracle.sample_joint(1, size=2)
    assert oracle.stats.total == 10
    with pytest.raises(BudgetExceeded):
        oracle.sample_joint(1, size=1)


def test_sampling_is_deterministic_given_seed():
    a = OracleHandle(TABLE, mode="sampling", seed=123)
    b = OracleHandle(TABLE, mode="sampling", seed=123)
    assert a.sample_futures((), 50).tolist() == b.sample_futures((), 50).tolist()
    assert a.sample_joint(1, size=20) == b.sample_joint(1, size=20)
    c = OracleHandle(TABLE, mode="sampling", seed=124)
    assert a.sample_futures((), 200).tolist() != c.sample_futures((), 200).tolist()


def test_sample_joint_prefix_shapes():
    oracle = OracleHandle(TABLE, mode="sampling", seed=5)
    prefixes = oracle.sample_joint(1, size=30)
    assert all(len(p) == 1 and p[0] in (1, 2) for p in prefixes)
    single = oracle.sample_joint(2, size=1)
    assert len(single) == 1 and len(single[0]) == 2
    assert oracle.sample_joint(0, size=3) == [(), (), ()]
    with pytest.raises(ValueError):
        oracle.sample_joint(3, size=1)


@pytest.mark.parametrize("size", [2.5, True, -1, "3", None])
def test_sample_sizes_must_be_non_negative_ints(size):
    # a fractional size used to be charged before numpy raised a TypeError
    oracle = OracleHandle(make_parity_hmm(3, alpha=0.2), mode="sampling", seed=0)
    with pytest.raises(ValueError, match="size"):
        oracle.sample_futures((1,), size)
    with pytest.raises(ValueError, match="size"):
        oracle.sample_joint(2, size=size)
    with pytest.raises(ValueError, match="t must"):
        oracle.sample_joint(1.0, size=2)
    assert oracle.stats.total == 0
    assert oracle.sample_futures((1,), np.int64(2)).shape == (2, 2)


def test_sample_futures_frequencies():
    oracle = OracleHandle(TABLE, mode="sampling", seed=7)
    draws = oracle.sample_futures((2,), 4000)
    freq = np.mean(draws[:, 0] == 1)
    assert freq == pytest.approx(3 / 7, abs=0.03)
    assert oracle.stats.sample_queries == 4000


def test_sample_futures_charges_one_query_per_row():
    oracle = OracleHandle(TABLE, mode="sampling", seed=2)
    draws = oracle.sample_futures((1,), 30, steps=0)
    assert draws.shape == (30, 0)
    oracle.sample_futures((), 20)
    assert oracle.stats.sample_queries == 50
    assert oracle.stats.by_history_length == {0: 20, 1: 30}
    with pytest.raises(WrongOracleMode):
        OracleHandle(TABLE, mode="exact").sample_futures((), 1)


def test_sample_joint_equals_prefixes_of_full_draws():
    hmm = make_parity_hmm(5, alpha=0.3)
    for dist, full_draws in [(hmm, full_hmm_draws), (TABLE, full_table_draws)]:
        oracle = OracleHandle(dist, mode="sampling", seed=21)
        rng = np.random.default_rng(21)
        for t in [1, 0, dist.horizon]:
            got = oracle.sample_joint(t, size=40)
            assert got == [f[:t] for f in full_draws(dist, (), rng, 40)]


def test_next_symbol_freqs_equal_first_symbol_histogram_of_full_draws():
    hmm = make_parity_hmm(5, alpha=0.3)
    est = CondEstimator(OracleHandle(hmm, mode="sampling", seed=8), 500)
    rng = np.random.default_rng(8)
    for history in [(), (1, 2), (2,), (2, 2, 1, 1)]:
        first = [f[0] for f in full_hmm_draws(hmm, history, rng, 500)]
        want = np.bincount(np.array(first) - 1, minlength=2) / 500
        np.testing.assert_array_equal(est.next_symbol_freqs(history), want)
    assert est.oracle.stats.sample_queries == 4 * 500


def test_stats_as_dict_round_trip():
    oracle = OracleHandle(TABLE, mode="exact")
    oracle.exact_query((), (1,))
    d = oracle.stats.as_dict()
    assert d["total"] == 1
    assert d["exact_queries"] == 1
    assert d["by_history_length"] == {0: 1}


@given(st.data())
def test_prefetched_answers_match_conditional_prob(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    hmm = random_hmm_with_zero_symbols(rng)
    O, T = hmm.n_symbols, hmm.horizon
    t = data.draw(st.integers(0, T))
    word = st.integers(1, O)
    prefixes = data.draw(st.lists(st.lists(word, min_size=t, max_size=t).map(tuple),
                                  max_size=6))
    tests = data.draw(st.lists(st.lists(word, max_size=T - t).map(tuple),
                               max_size=4))
    keys = [x + lam for x in prefixes for lam in tests]
    want = [hmm.conditional_prob((), key) for key in keys]
    oracle = OracleHandle(hmm, mode="exact")
    oracle.prefetch(prefixes, tests)
    assert oracle.stats.total == 0
    with mock.patch.object(Hmm, "conditional_prob",
                           side_effect=AssertionError("not prefetched")):
        got = [oracle.exact_query((), key) for key in keys]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)
    assert oracle.stats.exact_queries == len(keys)


def test_prefetch_is_uncharged_and_holds_only_the_latest_batch():
    hmm = make_parity_hmm(5, alpha=0.3)
    want = hmm.conditional_prob((), (2, 1))
    oracle = OracleHandle(hmm, mode="exact")
    first = oracle.prefetch([(1, 2)], [(1,), (2, 2)])
    assert first.shape == (1, 2)
    # a key longer than the horizon is refused, as exact_query refuses it
    with pytest.raises(ValueError, match="horizon"):
        oracle.prefetch([(1, 2)], [(1,), (2, 2, 1, 1)])
    block = oracle.prefetch([(2,)], [(1,)])
    assert oracle.stats.total == 0
    with mock.patch.object(Hmm, "conditional_prob", return_value=-1.0):
        got = oracle.exact_query((), (2, 1))
        assert got == pytest.approx(want, rel=1e-15)
        assert block.tolist() == [[got]]  # the block is the held answers
        assert oracle.exact_query((), (1, 2, 1)) == -1.0  # the older batch is gone
        # a batch holds joint probabilities: a query with a history is simulated
        assert oracle.exact_query((2,), (2, 1)) == -1.0
    with pytest.raises(ValueError):
        oracle.exact_query((), (1, 2, 2, 2, 1, 1))
    assert oracle.stats.total == 3
    oracle.budget = 3  # a held key is charged like any other
    with pytest.raises(BudgetExceeded):
        oracle.exact_query((), (2, 1))
    # a table has no joint_block: its block is read one conditional_prob at a time
    table = OracleHandle(TABLE, mode="exact")
    prefixes, tests = [(1,), (2,)], [(1,), (2,)]
    block = table.prefetch(prefixes, tests)
    assert block.tolist() == [[TABLE.conditional_prob((), x + lam) for lam in tests]
                              for x in prefixes]
    assert table.exact_query((), (1, 2)) == block[0, 1]
    assert table.stats.total == 1
    with pytest.raises(WrongOracleMode):
        OracleHandle(TABLE, mode="sampling").prefetch([()], [()])
