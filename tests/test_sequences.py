from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from condseq.sequences import (
    all_seqs,
    distinct_rows,
    format_seq,
    parse_seq,
    seq_count,
    seq_to_index,
    shortlex_rank,
)

from _reference import index_to_seq


def test_all_seqs_lexicographic_order():
    assert list(all_seqs(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert list(all_seqs(3, 1)) == [(1,), (2,), (3,)]
    assert list(all_seqs(2, 0)) == [()]


def test_seq_count_matches_enumeration():
    for o, t in [(2, 0), (2, 3), (3, 2), (4, 4)]:
        assert seq_count(o, t) == o**t == len(list(all_seqs(o, t)))


def test_index_agrees_with_enumeration_order():
    for i, seq in enumerate(all_seqs(3, 3)):
        assert seq_to_index(seq, 3) == i
        assert index_to_seq(i, 3, 3) == seq


@given(st.integers(2, 4), st.lists(st.integers(0, 3), max_size=6))
def test_index_round_trip(n_symbols, raw):
    seq = tuple(1 + (b % n_symbols) for b in raw)
    idx = seq_to_index(seq, n_symbols)
    assert index_to_seq(idx, n_symbols, len(seq)) == seq


def test_seq_to_index_rejects_out_of_range_symbols():
    with pytest.raises(ValueError):
        seq_to_index((1, 3), 2)
    with pytest.raises(ValueError):
        seq_to_index((0,), 2)


def test_parse_and_format_round_trip():
    assert parse_seq("1,2,1") == (1, 2, 1)
    assert parse_seq("") == ()
    assert parse_seq("-") == ()
    assert format_seq((2, 1, 2)) == "2,1,2"
    assert format_seq(()) == "-"
    assert parse_seq(format_seq((3, 1))) == (3, 1)


def test_parse_seq_rejects_garbage():
    with pytest.raises(ValueError):
        parse_seq("1,x,2")


@st.composite
def symbol_rows(draw):
    n_symbols = draw(st.integers(1, 4))
    length = draw(st.integers(0, 6))
    row = st.lists(st.integers(1, n_symbols), min_size=length, max_size=length)
    rows = draw(st.lists(row, max_size=40))
    return n_symbols, np.array(rows, dtype=np.int64).reshape(len(rows), length)


@given(symbol_rows())
def test_distinct_rows_matches_counter_in_order(case):
    n_symbols, rows = case
    assert distinct_rows(rows, n_symbols) == list(
        Counter(map(tuple, rows.tolist())).items())


def test_distinct_rows_code_range():
    longest = np.full((2, 63), 2, dtype=np.int64)
    assert distinct_rows(longest, 2) == [((2,) * 63, 2)]
    with pytest.raises(ValueError):
        distinct_rows(np.ones((1, 64), dtype=np.int64), 2)


@pytest.mark.parametrize("n_symbols,length", [
    (2, 8), (2, 9), (4, 4), (3, 6),      # 2**8 - 1 is the widest uint8 code
    (2, 16), (2, 17), (4, 8), (16, 4),   # 2**16
    (2, 32), (2, 33), (4, 16), (3, 21),  # 2**32
    (2, 62), (2, 63), (7, 22),           # up to the int64 limit
])
def test_distinct_rows_at_code_width_boundaries(n_symbols, length):
    """Codes at and around each dtype boundary must neither wrap nor merge."""
    top = seq_count(n_symbols, length) - 1
    codes = {0, 1, top, top - 1} | {c for b in (8, 16, 32) for c in (2**b - 1, 2**b)
                                    if c <= top}
    rng = np.random.default_rng(length)
    rows = [index_to_seq(c, n_symbols, length) for c in sorted(codes)]
    rows += [rows[i] for i in rng.integers(0, len(rows), size=2 * len(rows))]
    rows += [tuple(int(o) for o in rng.integers(1, n_symbols + 1, size=length))
             for _ in range(5)]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    arr = np.array(rows, dtype=np.int64)
    assert distinct_rows(arr, n_symbols) == list(Counter(rows).items())


def test_distinct_rows_rejects_codes_past_int64():
    with pytest.raises(ValueError, match="overflow"):
        distinct_rows(np.ones((2, 64), dtype=np.int64), 2)


def test_shortlex_rank_orders_by_length_then_code():
    seqs = [s for length in range(4) for s in all_seqs(3, length)]
    assert [shortlex_rank(s, 3) for s in seqs] == list(range(len(seqs)))
    assert shortlex_rank((2, 1, 3), 3) == 3 * shortlex_rank((2, 1), 3) + 3
    with pytest.raises(ValueError):
        shortlex_rank((1, 4), 3)
