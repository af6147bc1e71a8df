import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condseq import distributions
from condseq.distributions import (
    EnumerationCapError,
    Hmm,
    TableDist,
    ZeroProbabilityHistory,
    enumerate_joint,
    future_table,
    hmm_from_text,
    hmm_to_text,
    load_hmm,
    rank_of,
    save_hmm,
)
from condseq.generators import (
    greedy_spanning_bases,
    make_parity_hmm,
    parity_class_bases,
)
from condseq.metrics import tv_exact
from condseq.oom import construct_exact_operators, to_distribution
from condseq.oracles import BudgetExceeded, OracleHandle
from condseq.sequences import all_seqs, rows_as_seqs, seq_to_index

from _reference import (
    argmax_symbols,
    brute_force_joint,
    conditional_from_root,
    filter_from_root,
    full_hmm_draws,
    full_table_draws,
    never_emits_two,
    random_hmm,
    random_hmm_with_zero_symbols,
)

HAND_TABLE = TableDist(np.array([0.1, 0.2, 0.3, 0.4]), n_symbols=2, horizon=2)


def test_hmm_validation_rejects_bad_parameters():
    good = dict(mu=[1.0], emission=[[0.5], [0.5]], transition=[[1.0]], horizon=2)
    Hmm(**good)
    with pytest.raises(ValueError):
        Hmm(**{**good, "mu": [0.9]})
    with pytest.raises(ValueError):
        Hmm(**{**good, "emission": [[0.7], [0.5]]})
    with pytest.raises(ValueError):
        Hmm(**{**good, "transition": [[0.8]]})
    with pytest.raises(ValueError):
        Hmm(**{**good, "horizon": 0})
    for horizon in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="horizon must be an integer"):
            Hmm(**{**good, "horizon": horizon})
    with pytest.raises(ValueError):
        Hmm(mu=[1.5, -0.5], emission=[[0.5, 0.5], [0.5, 0.5]],
            transition=[[0.5, 0.5], [0.5, 0.5]], horizon=2)


def test_non_finite_entries_are_rejected():
    # NaN fails both the negativity and the sum test, so it used to pass
    with pytest.raises(ValueError, match="mu has non-finite"):
        Hmm(mu=[np.nan, 1.0], emission=np.eye(2), transition=np.eye(2),
            horizon=2)
    with pytest.raises(ValueError, match="emission has non-finite"):
        Hmm(mu=[1.0], emission=[[np.inf], [0.5]], transition=[[1.0]], horizon=2)
    with pytest.raises(ValueError, match="transition has non-finite"):
        Hmm(mu=[1.0], emission=[[0.5], [0.5]], transition=[[np.nan]], horizon=2)
    with pytest.raises(ValueError, match="finite"):
        TableDist(np.array([np.nan, 0.5, 0.25, 0.25]), 2, 2)


def test_hmm_joint_matches_state_path_enumeration():
    rng = np.random.default_rng(7)
    for n_states, n_symbols, horizon in [(2, 2, 3), (3, 2, 4), (2, 3, 3)]:
        hmm = random_hmm(rng, n_states, n_symbols, horizon)
        for seq in all_seqs(n_symbols, horizon):
            assert hmm.joint_prob(seq) == pytest.approx(
                brute_force_joint(hmm, seq), abs=1e-12)
        # prefixes too, not just full-length sequences
        for seq in all_seqs(n_symbols, horizon - 1):
            assert hmm.joint_prob(seq) == pytest.approx(
                brute_force_joint(hmm, seq), abs=1e-12)


def test_hmm_conditional_chain_rule():
    rng = np.random.default_rng(11)
    hmm = random_hmm(rng, 3, 2, 4)
    for hist in all_seqs(2, 2):
        for fut in all_seqs(2, 2):
            lhs = hmm.joint_prob(hist) * hmm.conditional_prob(hist, fut)
            assert lhs == pytest.approx(hmm.joint_prob(hist + fut), abs=1e-12)
    assert hmm.conditional_prob((1, 2), ()) == 1.0


def test_enumerate_joint_order_and_mass():
    rng = np.random.default_rng(3)
    hmm = random_hmm(rng, 2, 3, 3)
    table = enumerate_joint(hmm)
    assert table.shape == (27,)
    assert table.sum() == pytest.approx(1.0, abs=1e-12)
    for seq in all_seqs(3, 3):
        assert table[seq_to_index(seq, 3)] == pytest.approx(
            hmm.joint_prob(seq), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(1, 8),
       st.booleans())
def test_enumerate_joint_matches_filtering_from_the_root(seed, n_symbols,
                                                         horizon, zero_symbols):
    rng = np.random.default_rng(seed)
    if zero_symbols:
        hmm = random_hmm_with_zero_symbols(rng)
    else:
        hmm = random_hmm(rng, int(rng.integers(1, 4)), n_symbols, horizon)
    O, T = hmm.n_symbols, hmm.horizon
    got = enumerate_joint(hmm)
    steps = [math.prod(filter_from_root(hmm, seq)[1]) for seq in all_seqs(O, T)]
    np.testing.assert_allclose(got, steps, rtol=1e-12, atol=1e-15)
    assert np.all(got[np.array(steps) == 0.0] == 0.0)
    if O**T <= 81:
        want = [brute_force_joint(hmm, seq) for seq in all_seqs(O, T)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.data())
def test_enumerate_joint_of_a_prefix_length_sums_the_trailing_symbols(
        seed, zero_symbols, data):
    rng = np.random.default_rng(seed)
    if zero_symbols:
        hmm = random_hmm_with_zero_symbols(rng)
    else:
        hmm = random_hmm(rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)),
                         int(rng.integers(1, 6)))
    O, T = hmm.n_symbols, hmm.horizon
    length = data.draw(st.integers(0, T))
    model = construct_exact_operators(hmm, greedy_spanning_bases(hmm))
    dists = [hmm, TableDist(enumerate_joint(hmm), n_symbols=O, horizon=T),
             to_distribution(model, "raw"), to_distribution(model, "anchored")]
    for dist in dists:
        got = enumerate_joint(dist, length)
        assert got.shape == (O**length,)
        summed = enumerate_joint(dist).reshape(O**length, -1).sum(axis=1)
        np.testing.assert_allclose(got, summed, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            got, [dist.joint_prob(h) for h in all_seqs(O, length)],
            rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError):
        enumerate_joint(hmm, T + 1)


def test_long_horizons_enumerate_short_prefixes():
    # only O**(t + length) is enumerated, not O**T
    hmm = make_parity_hmm(40, alpha=0.2)
    joint, table = future_table(hmm, 2, t=3)
    np.testing.assert_allclose(joint, np.full(8, 1 / 8), rtol=1e-12)
    np.testing.assert_allclose(table, np.full((8, 4), 1 / 4), rtol=1e-12)
    np.testing.assert_allclose(enumerate_joint(hmm, 10),
                               np.full(2**10, 2.0**-10), rtol=1e-12)
    with pytest.raises(EnumerationCapError):
        enumerate_joint(hmm, 21)
    with pytest.raises(EnumerationCapError):
        future_table(hmm, 11, t=10)


def test_enumerate_joint_keeps_no_belief_per_prefix():
    # the forward and backward stacks hold O**(T/2) vectors each, where a
    # belief tree holds one belief for every prefix of every length
    hmm = make_parity_hmm(16, alpha=0.2)
    tracemalloc.start()
    try:
        enumerate_joint(hmm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_tv_exact_of_an_hmm_filters_no_belief_batch(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the HMM's joint table filtered beliefs")

    monkeypatch.setattr(Hmm, "_children", refuse)
    hmm = make_parity_hmm(16, alpha=0.2)
    learned = to_distribution(construct_exact_operators(hmm,
                                                        parity_class_bases(16)))
    assert tv_exact(hmm, learned) <= 1e-9


def test_hmm_zero_probability_history_resets_belief_to_uniform():
    hmm = never_emits_two()
    belief, _, log_prob, _ = hmm._walk((2,))[-1]
    assert log_prob == -math.inf
    np.testing.assert_allclose(belief, [0.5, 0.5])
    assert hmm.joint_prob((2,)) == 0.0
    # conditionals continue from the uniform belief rather than failing
    assert hmm.conditional_prob((2,), (1,)) == pytest.approx(1.0)
    np.testing.assert_allclose(hmm.next_symbol_probs((2,)), [1.0, 0.0])


def test_hand_table_probabilities():
    d = HAND_TABLE
    assert d.joint_prob((1,)) == pytest.approx(0.3)
    assert d.joint_prob((2, 2)) == pytest.approx(0.4)
    assert d.conditional_prob((1,), (2,)) == pytest.approx(0.2 / 0.3)
    np.testing.assert_allclose(d.next_symbol_probs(()), [0.3, 0.7])
    np.testing.assert_allclose(d.next_symbol_probs((2,)), [3 / 7, 4 / 7])


def test_table_zero_history_raises():
    d = TableDist(np.array([0.0, 0.0, 0.6, 0.4]), n_symbols=2, horizon=2)
    with pytest.raises(ZeroProbabilityHistory):
        d.conditional_prob((1,), (2,))
    with pytest.raises(ZeroProbabilityHistory):
        d.next_symbol_probs((1,))
    with pytest.raises(ZeroProbabilityHistory):
        d.sample_futures((1,), np.random.default_rng(0), 1)


def test_table_validation():
    with pytest.raises(ValueError):
        TableDist(np.array([0.5, 0.5, 0.0]), n_symbols=2, horizon=2)
    with pytest.raises(ValueError):
        TableDist(np.array([0.6, 0.6, -0.1, -0.1]), n_symbols=2, horizon=2)
    with pytest.raises(ValueError):
        TableDist(np.array([0.3, 0.3, 0.3, 0.3]), n_symbols=2, horizon=2)


def test_future_table_hand_values():
    # rows are histories (1,) and (2,); columns are futures (1,) and (2,)
    _, table = future_table(HAND_TABLE, 1, t=1)
    np.testing.assert_allclose(table, [[1 / 3, 2 / 3], [3 / 7, 4 / 7]])
    np.testing.assert_allclose(table.sum(axis=1), [1.0, 1.0])


def test_rank_of_product_versus_coupled_table():
    outer = np.outer([0.3, 0.7], [0.4, 0.6]).reshape(-1)
    assert rank_of(TableDist(outer, n_symbols=2, horizon=2)) == 1
    assert rank_of(HAND_TABLE) == 2


def test_rank_of_counts_positive_probability_histories_only():
    # six histories of lengths 1 and 2 have probability 0; the uniform reset
    # of their beliefs must not add a direction the table does not have
    hmm = random_hmm_with_zero_symbols(np.random.default_rng(282))
    table = TableDist(enumerate_joint(hmm), n_symbols=3, horizon=3)
    assert (hmm.n_states, hmm.n_symbols, hmm.horizon) == (3, 3, 3)
    assert sum(hmm.joint_prob(h) == 0.0
               for t in (1, 2) for h in all_seqs(3, t)) == 6
    assert rank_of(hmm) == rank_of(table) == 2


def test_enumeration_cap():
    rng = np.random.default_rng(0)
    big = random_hmm(rng, 2, 4, 11)  # 4**11 > 2**20 sequences
    with pytest.raises(EnumerationCapError):
        enumerate_joint(big)
    with pytest.raises(EnumerationCapError):
        TableDist(np.array([1.0]), n_symbols=2, horizon=21)


def test_hmm_text_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    hmm = random_hmm(rng, 3, 2, 4)
    clone = hmm_from_text(hmm_to_text(hmm))
    assert clone.horizon == hmm.horizon
    np.testing.assert_array_equal(clone.mu, hmm.mu)
    np.testing.assert_array_equal(clone.emission, hmm.emission)
    np.testing.assert_array_equal(clone.transition, hmm.transition)

    path = tmp_path / "model.hmm"
    save_hmm(hmm, path)
    loaded = load_hmm(path)
    np.testing.assert_array_equal(loaded.emission, hmm.emission)


def test_hmm_from_text_rejects_bad_header():
    with pytest.raises(ValueError):
        hmm_from_text("not-a-model\n1 1 1\n")


def test_table_sampling_frequencies():
    rng = np.random.default_rng(42)
    draws = HAND_TABLE.sample_futures((), rng, 4000)
    counts = np.zeros(4)
    for seq in rows_as_seqs(draws):
        counts[seq_to_index(seq, 2)] += 1
    np.testing.assert_allclose(counts / 4000, HAND_TABLE.probs, atol=0.03)


def test_hmm_sampling_matches_conditionals():
    rng = np.random.default_rng(9)
    hmm = random_hmm(rng, 2, 2, 3)
    draws = hmm.sample_futures((1,), rng, 4000)
    assert draws.shape == (4000, 2)
    freq_first = np.mean(draws[:, 0] == 1)
    expected = hmm.conditional_prob((1,), (1,))
    assert freq_first == pytest.approx(expected, abs=0.03)


STREAM_CASES = pytest.mark.parametrize("dist, full_draws", [
    (random_hmm(np.random.default_rng(17), 3, 3, 5), full_hmm_draws),
    (TableDist(np.random.default_rng(18).dirichlet(np.ones(3**4)), n_symbols=3,
               horizon=4), full_table_draws),
], ids=["hmm", "table"])


@STREAM_CASES
def test_truncated_draws_are_prefixes_of_full_draws(dist, full_draws):
    for history in [(), (2,), (3, 1)]:
        length = dist.horizon - len(history)
        for steps in range(length + 1):
            new_rng = np.random.default_rng(steps)
            old_rng = np.random.default_rng(steps)
            got = dist.sample_futures(history, new_rng, 60, steps=steps)
            assert got.dtype == np.int64 and got.shape == (60, steps)
            want = full_draws(dist, history, old_rng, 60)
            assert got.tolist() == [list(f[:steps]) for f in want]
            # the truncated draw left the generator where a full one does
            after = dist.sample_futures(history, new_rng, 25)
            assert after.tolist() == [list(f) for f in full_draws(
                dist, history, old_rng, 25)]


@STREAM_CASES
def test_sampled_rows_as_tuples_are_the_full_draws(dist, full_draws):
    new_rng, old_rng = np.random.default_rng(3), np.random.default_rng(3)
    draws = dist.sample_futures((1,), new_rng, 40)
    assert rows_as_seqs(draws) == full_draws(dist, (1,), old_rng, 40)
    single = dist.sample_futures((1,), new_rng, 1)
    assert rows_as_seqs(single) == full_draws(dist, (1,), old_rng, 1)
    assert rows_as_seqs(dist.sample_futures((1,), new_rng, 0)) == []
    with pytest.raises(ValueError):
        dist.sample_futures((1,), new_rng, 5, steps=dist.horizon)
    with pytest.raises(ValueError):
        dist.sample_futures((1,), new_rng, 5, steps=-1)


@given(st.integers(0, 10_000))
def test_table_chain_rule_property(seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(8))
    d = TableDist(probs, n_symbols=2, horizon=3)
    seq = tuple(int(s) for s in rng.integers(1, 3, size=3))
    prod = 1.0
    for i, o in enumerate(seq):
        prod *= d.next_symbol_probs(seq[:i])[o - 1]
    assert prod == pytest.approx(d.joint_prob(seq), abs=1e-12)


def _path_sum(hmm, seq) -> float:
    return brute_force_joint(hmm, seq) if seq else 1.0


@given(st.integers(0, 10_000))
def test_future_table_matches_state_path_enumeration(seed):
    rng = np.random.default_rng(seed)
    n_states, n_symbols = int(rng.integers(1, 4)), int(rng.integers(2, 4))
    horizon = int(rng.integers(1, 5))
    hmm = random_hmm(rng, n_states, n_symbols, horizon)
    for t in range(horizon + 1):
        hists = list(all_seqs(n_symbols, t))
        for length in range(horizon - t + 1):
            joint, table = future_table(hmm, length, t=t)
            _, listed = future_table(hmm, length, histories=hists[::-1])
            assert table.shape == (len(hists), n_symbols**length)
            for i, h in enumerate(hists):
                p_h = _path_sum(hmm, h)
                assert joint[i] == pytest.approx(p_h, abs=1e-12)
                want = [_path_sum(hmm, h + f) / p_h
                        for f in all_seqs(n_symbols, length)]
                np.testing.assert_allclose(table[i], want, rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(listed[-1 - i], want, rtol=1e-9,
                                           atol=1e-12)


def test_future_table_zero_probability_rows_are_zero():
    hmm = never_emits_two()
    table_dist = TableDist(enumerate_joint(hmm), n_symbols=2, horizon=3)
    hists = list(all_seqs(2, 1))
    for length in range(3):
        # every type, listed or not: the zero-probability history (2,) gets a
        # zero row
        for dist in (hmm, table_dist):
            for joint, table in (future_table(dist, length, t=1),
                                 future_table(dist, length, histories=hists)):
                assert joint.tolist() == [1.0, 0.0]
                want = [hmm.conditional_prob((1,), f)
                        for f in all_seqs(2, length)]
                np.testing.assert_allclose(table[0], want, atol=1e-15)
                assert table[1].tolist() == [0.0] * 2**length
    # the oracle-facing one-row answer keeps the uniform reset
    assert hmm.next_symbol_probs((2,)).tolist() == [1.0, 0.0]
    assert future_table(hmm, 1, histories=[(2,)])[1][0].tolist() == [0.0, 0.0]


def test_future_table_rows_from_a_list_do_not_depend_on_the_list():
    rng = np.random.default_rng(9)
    hmm = random_hmm(rng, 3, 3, 5)
    x = (2, 1, 3, 3)
    prefixes = [x[:t] for t in range(5)]
    _, together = future_table(hmm, 1, histories=prefixes)
    for h, row in zip(prefixes, together):
        _, alone = future_table(hmm, 1, histories=[h])
        assert row.tolist() == alone[0].tolist()
        np.testing.assert_allclose(row, hmm.next_symbol_probs(h), atol=1e-15)


def test_future_table_tables_and_validation():
    joint, table = future_table(HAND_TABLE, 1, t=1)
    np.testing.assert_allclose(joint, [0.3, 0.7])
    np.testing.assert_allclose(table, [[1 / 3, 2 / 3], [3 / 7, 4 / 7]])
    zero = TableDist(np.array([0.0, 0.0, 0.6, 0.4]), n_symbols=2, horizon=2)
    np.testing.assert_allclose(future_table(zero, 1, t=1)[1], [[0, 0], [0.6, 0.4]])
    joint, table = future_table(zero, 1, histories=[(2,), (1,), (2,)])
    assert joint.tolist() == [1.0, 0.0, 1.0]
    np.testing.assert_allclose(table, [[0.6, 0.4], [0, 0], [0.6, 0.4]])
    joint, table = future_table(HAND_TABLE, 1, histories=[(2,), ()])
    np.testing.assert_allclose(joint, [0.7, 1.0])
    np.testing.assert_allclose(table, [[3 / 7, 4 / 7], [0.3, 0.7]])
    with pytest.raises(ValueError):
        future_table(HAND_TABLE, 1, histories=[(3,)])
    with pytest.raises(ValueError):
        future_table(HAND_TABLE, 1)
    with pytest.raises(ValueError):
        future_table(HAND_TABLE, 1, histories=[()], t=0)
    with pytest.raises(ValueError):
        future_table(HAND_TABLE, 2, t=1)
    with pytest.raises(ValueError):
        future_table(HAND_TABLE, 2, histories=[(1,)])


@settings(max_examples=10)
@given(st.integers(0, 10_000))
def test_hmm_text_prefixes_fail_with_the_line(seed):
    rng = np.random.default_rng(seed)
    hmm = random_hmm(rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)),
                     int(rng.integers(1, 6)))
    lines = hmm_to_text(hmm).splitlines(keepends=True)
    for k in range(len(lines)):
        with pytest.raises(ValueError, match=r"^line \d+: "):
            hmm_from_text("".join(lines[:k]))
    clone = hmm_from_text("".join(lines))
    np.testing.assert_array_equal(clone.mu, hmm.mu)
    np.testing.assert_array_equal(clone.emission, hmm.emission)
    np.testing.assert_array_equal(clone.transition, hmm.transition)


def test_hmm_text_rejects_out_of_range_headers_and_non_finite_values():
    lines = hmm_to_text(make_parity_hmm(3, alpha=0.2)).splitlines()
    edits = [(lines.index("S 12"), "S 0", "at least 1"),
             (lines.index("O 2"), "O 0", "at least 1"),
             (lines.index("T 3"), "T 0", "at least 1"),
             (lines.index("T 3"), "T -1", "at least 1")]
    mu = next(i for i, ln in enumerate(lines) if ln.startswith("mu "))
    for row, bad in ((mu, "nan"), (lines.index("emission") + 1, "inf"),
                     (lines.index("transition") + 2, "-inf")):
        words = lines[row].split()
        words[-1] = bad
        edits.append((row, " ".join(words), "non-finite"))
    for row, text, message in edits:
        edited = lines[:row] + [text] + lines[row + 1:]
        with pytest.raises(ValueError, match=rf"^line {row + 1}: .*{message}"):
            hmm_from_text("\n".join(edited))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_prefix_walk_is_bit_identical_to_filtering_from_root(data):
    """Interleaved queries, including zero-probability resets."""
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    hmm = random_hmm_with_zero_symbols(rng)
    O, T = hmm.n_symbols, hmm.horizon
    seen = [()]
    for _ in range(data.draw(st.integers(1, 40))):
        # a prefix of an earlier query, extended: reuses part of the kept path
        base = data.draw(st.sampled_from(seen))
        base = base[:data.draw(st.integers(0, len(base)))]
        seq = base + tuple(data.draw(st.lists(st.integers(1, O),
                                              max_size=T - len(base))))
        seen.append(seq)
        kind = data.draw(st.sampled_from(
            ["conditional", "joint", "filter", "next", "sample"]))
        belief, _, log_prob = filter_from_root(hmm, seq)
        if kind == "conditional":
            cut = data.draw(st.integers(0, len(seq)))
            assert hmm.conditional_prob(seq[:cut], seq[cut:]) == \
                conditional_from_root(hmm, seq[:cut], seq[cut:])
        elif kind == "joint":
            assert hmm.joint_prob(seq) == math.exp(log_prob)
        elif kind == "filter":
            walked, _, walked_log_prob, _ = hmm._walk(seq)[-1]
            assert walked.tobytes() == belief.tobytes()
            assert walked_log_prob == log_prob
        elif kind == "next" and len(seq) < T:
            assert (hmm.next_symbol_probs(seq).tobytes()
                    == (hmm.emission @ belief).tobytes())
        elif kind == "sample":
            seed = data.draw(st.integers(0, 100))
            got = hmm.sample_futures(seq, np.random.default_rng(seed), 3)
            want = full_hmm_draws(hmm, seq, np.random.default_rng(seed), 3)
            assert [tuple(row) for row in got.tolist()] == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sampler_matches_row_by_row_simulation(data):
    """Every truncation of the prefix-tree sampler against plain simulation."""
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    kind = data.draw(st.sampled_from(["random", "zero symbols", "never two"]))
    if kind == "random":
        hmm = random_hmm(rng, data.draw(st.integers(1, 6)),
                         data.draw(st.sampled_from([2, 3, 4])),
                         data.draw(st.integers(1, 8)))
    else:
        hmm = (random_hmm_with_zero_symbols(rng) if kind == "zero symbols"
               else never_emits_two())
    O, T = hmm.n_symbols, hmm.horizon
    # zero-probability histories included: the sampler starts from the reset
    history = tuple(data.draw(st.lists(st.integers(1, O), max_size=T)))
    size = data.draw(st.sampled_from([0, 1, 3, 500]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    old_rng = np.random.default_rng(seed)
    want = full_hmm_draws(hmm, history, old_rng, size)
    after = old_rng.random(4)
    for steps in range(T - len(history) + 1):
        new_rng = np.random.default_rng(seed)
        got = hmm.sample_futures(history, new_rng, size, steps=steps)
        assert got.shape == (size, steps)
        assert got.tolist() == [list(f[:steps]) for f in want]
        assert new_rng.random(4).tobytes() == after.tobytes()


class _FixedUniforms:
    """Generator stand-in whose ``random(n)`` cycles through fixed uniforms."""

    def __init__(self, values) -> None:
        self.values = np.asarray(values, dtype=float)

    def random(self, n: int) -> np.ndarray:
        return np.resize(self.values, n)


@pytest.mark.parametrize("make", [
    never_emits_two,
    lambda: random_hmm(np.random.default_rng(7), 3, 4, 4),
], ids=["never-emits-two", "random-O4"])
def test_draw_kernel_matches_the_argmax_rule_on_cumulative_edges(make):
    """Uniforms on each first-step cumulative edge, one ulp under it, and at 0
    and the largest double under 1.  The edges are formed as the sampler forms
    them (one belief row times the emission matrix), so each uniform sits
    exactly on, or just under, an edge the draw compares against."""
    hmm = make()
    O, T = hmm.n_symbols, hmm.horizon
    extremes = [0.0, 1.0 - 2.0**-53]
    for t in range(T):
        for history in all_seqs(O, t):
            cum = np.cumsum(hmm._walk(history)[-1][0][None, :] @ hmm.emission.T, axis=1)
            cum[:, -1] = np.maximum(cum[:, -1], 1.0)
            edges = cum[0, :-1][cum[0, :-1] < 1.0]
            u = np.concatenate([edges, np.nextafter(edges, 0.0), extremes])
            got = hmm.sample_futures(history, _FixedUniforms(u), u.size, steps=1)
            assert got[:, 0].tolist() == argmax_symbols(
                np.repeat(cum, u.size, axis=0), u).tolist()
            # whole futures at the extremes, against plain simulation
            for values in ([0.0], [1.0 - 2.0**-53], extremes):
                got = hmm.sample_futures(history, _FixedUniforms(values), 5)
                want = full_hmm_draws(hmm, history, _FixedUniforms(values), 5)
                assert got.tolist() == [list(f) for f in want]


def test_sampler_keeps_one_belief_per_distinct_prefix():
    # 10,000 parity draws share at most 2**j prefixes after j steps
    hmm = make_parity_hmm(5, alpha=0.3)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        hmm.sample_futures((), rng, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1024 * 1024


def test_one_row_queries_retain_no_prefix_tree():
    # the walk keeps only the previous call's path, whatever it has answered
    tracemalloc.start()
    try:
        hmm = make_parity_hmm(12, alpha=0.2)
        before = tracemalloc.get_traced_memory()[0]
        for seq in all_seqs(2, 12):
            hmm.joint_prob(seq)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown <= 64 * 1024


def test_hmm_parameters_and_beliefs_are_read_only():
    mu = np.array([0.5, 0.5])
    emission = np.array([[0.9, 0.2], [0.1, 0.8]])
    hmm = Hmm(mu=mu, emission=emission, transition=np.eye(2), horizon=3)
    mu[0] = 1.0  # the HMM holds a copy, and the caller's array stays writable
    assert hmm.mu.tolist() == [0.5, 0.5]
    before = hmm.joint_prob((1, 2))
    for arr in (hmm.mu, hmm.emission, hmm.transition, hmm._walk((1,))[-1][0]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.25
    assert hmm.joint_prob((1, 2)) == before


def test_hmm_rejects_symbols_outside_the_alphabet():
    hmm = never_emits_two()
    want = hmm.joint_prob((1, 1))
    for bad in [(0,), (1, 3), (1, -1)]:
        with pytest.raises(ValueError, match="outside 1..2"):
            hmm.joint_prob(bad)
        with pytest.raises(ValueError, match="outside 1..2"):
            hmm.row_conditionals(np.array([(1,) * (2 - len(bad)) + bad]))
    assert hmm.joint_prob((1, 1)) == want
    with pytest.raises(ValueError, match="longer than horizon"):
        hmm.row_conditionals(np.ones((1, 4), dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_conditionals_match_one_prefix_at_a_time(data):
    """The batched row walk against ``next_symbol_probs``, resets included."""
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    hmm = random_hmm_with_zero_symbols(rng)
    O, T = hmm.n_symbols, hmm.horizon
    length = data.draw(st.integers(0, T))
    symbols = rng.integers(1, O + 1, size=(data.draw(st.integers(0, 12)), length))
    # repeated rows share every prefix, so they share beliefs inside the walk
    symbols = np.vstack([symbols, symbols[: len(symbols) // 2]])
    got = hmm.row_conditionals(symbols)
    assert got.shape == (len(symbols), length, O)
    want = [[hmm.next_symbol_probs(tuple(row[:t])) for t in range(length)]
            for row in symbols.tolist()]
    np.testing.assert_allclose(got, np.array(want).reshape(got.shape),
                               rtol=1e-15, atol=1e-15)


def test_row_conditionals_reset_after_a_zero_probability_symbol():
    # state 1 always emits 1 and holds all the start mass; state 2 emits 1 or
    # 2 evenly; neither moves.  Symbol 2 first has probability zero, and the
    # belief restarts from uniform.
    hmm = Hmm(mu=[1.0, 0.0], emission=[[1.0, 0.5], [0.0, 0.5]],
              transition=np.eye(2), horizon=3)
    got = hmm.row_conditionals(np.array([[2, 1, 1], [1, 1, 2]]))
    np.testing.assert_allclose(got[0], [[1, 0], [0.75, 0.25], [5 / 6, 1 / 6]],
                               rtol=1e-15)
    np.testing.assert_allclose(got[1], [[1, 0], [1, 0], [1, 0]])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sample_joint_levels_match_per_level_draws(data):
    """The first k of L levels against a draw of each level alone: same rows,
    forward x backward blocks against the one-row walk with exact zeros, and
    the same stream after an early close, after exhaustion and after a
    budget cut, in groups of one level, of some and of all."""
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    hmm = random_hmm_with_zero_symbols(rng)
    O, T = hmm.n_symbols, hmm.horizon
    n_levels = data.draw(st.integers(1, T))
    tests_by_level = [data.draw(st.lists(st.lists(st.integers(1, O), max_size=T - t)
                                         .map(tuple), max_size=3))
                      for t in range(1, n_levels + 1)]
    size, seed = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 100))
    cap = data.draw(st.sampled_from([1, 7, distributions._LEVEL_ROWS]))
    end = data.draw(st.sampled_from(["close", "exhaust", "budget"]))
    k = n_levels if end == "exhaust" else data.draw(st.integers(0, n_levels - 1))
    ref = np.random.default_rng(seed)
    oracle = OracleHandle(hmm, mode="exact", seed=seed,
                          budget=size * k if end == "budget" else None)
    with mock.patch.object(distributions, "_LEVEL_ROWS", cap):
        walk = hmm.sample_joint_levels(oracle.rng, size, tests_by_level)
        if end == "budget":
            walk = oracle.sample_joint_levels(size, tests_by_level)
        for t, tests in enumerate(tests_by_level[:k], 1):
            draws, got = next(walk)
            want_draws = list(dict.fromkeys(rows_as_seqs(
                hmm.sample_futures((), ref, size, t))))
            assert rows_as_seqs(np.asarray(draws).reshape(-1, t)) == want_draws
            want = np.array([[hmm.conditional_prob((), x + lam) for lam in tests]
                             for x in want_draws]).reshape(got.shape)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)
            assert np.all(got[want == 0.0] == 0.0)
        if end == "exhaust":
            with pytest.raises(StopIteration):
                next(walk)
        elif end == "close":
            walk.close()
        elif size:
            with pytest.raises(BudgetExceeded):
                next(walk)
        else:  # nothing to charge: the cut never comes
            walk.close()
    assert oracle.rng.random() == ref.random()


@pytest.mark.parametrize("size", [200, 1_500, 5_000])
def test_sample_joint_levels_hold_at_most_a_group_of_rows(monkeypatch, size):
    """A group walks ``max(_LEVEL_ROWS, size)`` rows at most, one
    ``_children`` step per symbol of its longest level."""
    widths = []
    inner = Hmm._children

    def spy(self, beliefs, probs, node, symbols):
        widths.append(len(node))
        return inner(self, beliefs, probs, node, symbols)

    monkeypatch.setattr(Hmm, "_children", spy)
    T = 8
    hmm = make_parity_hmm(T, alpha=0.2)
    levels = list(hmm.sample_joint_levels(np.random.default_rng(0), size,
                                          [[(1,)]] * (T - 1) + [[()]]))
    assert len(levels) == T
    assert max(widths) <= max(distributions._LEVEL_ROWS, size)
    per_group = max(distributions._LEVEL_ROWS // size, 1)
    assert len(widths) == sum(min(start + per_group, T)
                              for start in range(0, T, per_group))


def test_sample_joint_levels_reject_tests_they_cannot_answer():
    hmm = make_parity_hmm(3, alpha=0.2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="horizon"):
        hmm.sample_joint_levels(rng, 2, [[], [(1,), (1, 2)]])
    with pytest.raises(ValueError, match="horizon"):
        hmm.sample_joint_levels(rng, 2, [[]] * 4)
    for tests in [[(1, 3)], [(0,)]]:
        with pytest.raises(ValueError, match="outside"):
            hmm.sample_joint_levels(rng, 2, [tests])
    assert rng.random() == np.random.default_rng(0).random()  # nothing drawn
