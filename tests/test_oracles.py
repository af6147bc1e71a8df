from contextlib import closing
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
def test_level_block_answers_match_conditional_prob(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    hmm = random_hmm_with_zero_symbols(rng)
    O, T = hmm.n_symbols, hmm.horizon
    t = data.draw(st.integers(1, T))
    word = st.integers(1, O)
    tests = data.draw(st.lists(st.lists(word, max_size=T - t).map(tuple),
                               max_size=4))
    size = data.draw(st.integers(0, 12))
    oracle = OracleHandle(hmm, mode="exact", seed=data.draw(st.integers(0, 100)))
    with closing(oracle.sample_joint_levels(size, [[]] * (t - 1) + [tests])) as levels:
        *_, (samples, block) = levels
    assert oracle.stats.as_dict()["joint_queries"] == oracle.stats.total == size * t
    assert len(set(samples)) == len(samples) and block.shape == (len(samples), len(tests))
    keys = [x + lam for x in samples for lam in tests]
    want = np.array([hmm.conditional_prob((), key) for key in keys])
    with mock.patch.object(Hmm, "conditional_prob",
                           side_effect=AssertionError("not held")):
        got = [oracle.exact_query((), key) for key in keys]
        read = list(oracle.exact_joints(keys))
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)
    assert np.all(np.array(got)[want == 0.0] == 0.0)
    assert got == read == block.ravel().tolist()  # the block is the held answers
    assert oracle.stats.exact_queries == len(keys) + len(set(keys))


def test_level_draw_is_charged_per_draw_and_holds_only_the_latest_block():
    hmm = make_parity_hmm(5, alpha=0.3)
    oracle = OracleHandle(hmm, mode="exact", seed=4)
    # a key longer than the horizon, a level past it or a bad size is
    # refused uncharged, before the generator starts
    with pytest.raises(ValueError, match="horizon"):
        oracle.sample_joint_levels(10, [[], [(1,), (2, 2, 1, 1)]])
    with pytest.raises(ValueError, match="horizon"):
        oracle.sample_joint_levels(10, [[()]] * 6)
    for size in [2.5, True, -1]:
        with pytest.raises(ValueError, match="size"):
            oracle.sample_joint_levels(size, [[(1,)]])
    assert oracle.stats.total == 0
    levels = oracle.sample_joint_levels(10, [[(1,), (2, 2)], [(1,)]])
    assert oracle.stats.total == 0  # nothing is charged before a level is taken
    older, _ = next(levels)
    assert oracle.stats.as_dict()["joint_queries"] == oracle.stats.total == 10
    samples, block = next(levels)
    levels.close()
    assert oracle.stats.as_dict()["joint_queries"] == oracle.stats.total == 20
    x = samples[0]
    want = hmm.conditional_prob((), x + (1,))
    with mock.patch.object(Hmm, "conditional_prob", return_value=-1.0):
        got = oracle.exact_query((), x + (1,))
        assert got == pytest.approx(want, rel=1e-15)
        assert got == block[0, 0]
        assert oracle.exact_query((), older[0] + (1,)) == -1.0  # the older block is gone
        # a block holds joint probabilities: a query with a history is simulated
        assert oracle.exact_query(x, (1,)) == -1.0
    assert oracle.stats.exact_queries == 3
    oracle.budget = oracle.stats.total  # a held key is charged like any other
    with pytest.raises(BudgetExceeded):
        oracle.exact_query((), x + (1,))
    # a table has no sample_joint_levels: it draws with sample_futures and
    # reads its block one conditional_prob at a time
    table = OracleHandle(TABLE, mode="exact", seed=0)
    tests = [(1,), (2,)]
    with closing(table.sample_joint_levels(20, [tests])) as levels:
        samples, block = next(levels)
    assert sorted(samples) == [(1,), (2,)]
    assert block.tolist() == [[TABLE.conditional_prob((), x + lam) for lam in tests]
                              for x in samples]
    assert table.exact_query((), samples[0] + (2,)) == block[0, 1]
    assert table.stats.total == 21
    with pytest.raises(WrongOracleMode):
        OracleHandle(TABLE, mode="sampling").sample_joint_levels(1, [[()]])


def test_level_draw_is_the_joint_draw():
    """Same distinct rows as sample_joint, and, however many levels are
    taken before the walk is closed, the stream goes on the same."""
    for dist in [make_parity_hmm(5, alpha=0.3), TABLE]:
        fused = OracleHandle(dist, mode="exact", seed=11)
        plain = OracleHandle(dist, mode="exact", seed=11)
        for taken in [1, dist.horizon, 2]:
            with closing(fused.sample_joint_levels(40, [[()]] * dist.horizon)) as levels:
                for t, (samples, _) in zip(range(1, taken + 1), levels):
                    assert samples == list(dict.fromkeys(plain.sample_joint(t, 40)))
        assert fused.sample_joint(dist.horizon, 30) == plain.sample_joint(dist.horizon, 30)
        assert fused.stats.as_dict() == plain.stats.as_dict()


def test_exact_joints_read_like_a_memo_and_keep_what_a_cut_budget_paid_for():
    hmm = make_parity_hmm(4, alpha=0.3)
    keys = [(1,), (2, 1), (1,), (2, 2, 1), (1, 1)]
    oracle = OracleHandle(hmm, mode="exact")
    assert list(oracle.exact_joints(keys)) == [hmm.conditional_prob((), k) for k in keys]
    assert oracle.stats.as_dict()["exact_queries"] == 4  # the repeat is charged once
    assert oracle.stats.by_history_length == {0: 4}
    for budget in range(4):  # 4 pays for every distinct key
        memo, one_at_a_time = {}, OracleHandle(hmm, mode="exact", budget=budget)
        batched, read = OracleHandle(hmm, mode="exact", budget=budget), []
        with pytest.raises(BudgetExceeded) as ref:
            for k in keys:
                if k not in memo:
                    memo[k] = one_at_a_time.exact_query((), k)
        with pytest.raises(BudgetExceeded) as cut:
            read.extend(batched.exact_joints(keys))
        assert str(cut.value) == str(ref.value)
        assert read == [memo[k] for k in keys[:len(read)]]
        assert len(read) == keys.index(next(k for k in keys if k not in memo))
        assert batched.stats.as_dict() == one_at_a_time.stats.as_dict()
    with pytest.raises(ValueError, match="horizon"):
        next(oracle.exact_joints([(1,), (1, 1, 1, 1, 1)]))
    with pytest.raises(WrongOracleMode):
        next(OracleHandle(hmm, mode="sampling").exact_joints([(1,)]))
    assert oracle.stats.total == 4
