"""Observation sequences and their enumeration.

Sequences are tuples of integer symbols from the alphabet ``{1, ..., n_symbols}``.
The empty tuple is the empty history/future.  Lexicographic order of sequences
coincides with the mixed-radix index order used throughout the package:
:func:`seq_to_index` numbers ``all_seqs`` in order.  Sampled batches travel
as ``(k, L)`` int64 arrays of symbols, one sequence per row, and become tuples
through :func:`distinct_rows` or :func:`rows_as_seqs`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

Seq = tuple[int, ...]


def all_seqs(n_symbols: int, length: int) -> Iterator[Seq]:
    """Yield every length-``length`` sequence in lexicographic order."""
    return itertools.product(range(1, n_symbols + 1), repeat=length)


def seq_count(n_symbols: int, length: int) -> int:
    return n_symbols**length


def seq_to_index(seq: Sequence[int], n_symbols: int) -> int:
    """Mixed-radix rank of ``seq`` among sequences of its length.

    The first symbol is the most significant digit, so ranks follow
    lexicographic order.
    """
    idx = 0
    for o in seq:
        if not 1 <= o <= n_symbols:
            raise ValueError(f"symbol {o} outside alphabet 1..{n_symbols}")
        idx = idx * n_symbols + (o - 1)
    return idx


def shortlex_rank(seq: Sequence[int], n_symbols: int) -> int:
    """Rank of ``seq`` among sequences of every length, shorter ones first.

    Its :func:`seq_to_index` code plus the number of shorter sequences, so
    ``()`` has rank 0 and ``s + (o,)`` has rank ``n_symbols * rank(s) + o``.
    """
    return seq_to_index(seq, n_symbols) + sum(n_symbols**i for i in range(len(seq)))


def distinct_rows(rows: np.ndarray, n_symbols: int) -> list[tuple[Seq, int]]:
    """Distinct rows of a ``(k, L)`` symbol array with their multiplicities.

    Rows are collapsed through their :func:`seq_to_index` codes and returned
    in order of first appearance, the order ``Counter(map(tuple,
    rows)).items()`` gives.  The codes sit in the narrowest unsigned dtype
    that holds ``n_symbols ** L - 1`` (``np.min_scalar_type``): uint8 up to
    256 sequences, uint16 up to 65,536, and so on.  ``np.unique`` sorts them
    stably, which numpy does by radix sort for 16-bit codes or narrower.
    ``n_symbols ** L`` must not pass ``2**63``.
    """
    length = rows.shape[1]
    if seq_count(n_symbols, length) > 2**63:
        raise ValueError(f"{n_symbols}^{length} sequences overflow int64 codes")
    code_type = np.min_scalar_type(seq_count(n_symbols, length) - 1)
    radix = (n_symbols ** np.arange(length - 1, -1, -1)).astype(code_type)
    digits = (rows - 1).astype(code_type)
    codes = np.zeros(len(rows), dtype=code_type)
    for k in range(length):
        codes += digits[:, k] * radix[k]
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    order = np.argsort(first)
    return list(zip(map(tuple, rows[first[order]].tolist()),
                    counts[order].tolist()))


def rows_as_seqs(rows: np.ndarray) -> list[Seq]:
    """Rows of a symbol array as tuples, one per row."""
    return list(map(tuple, rows.tolist()))


def parse_seq(text: str) -> Seq:
    """Parse a comma-separated symbol list; empty or '-' is the empty sequence."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    return tuple(int(part) for part in text.split(","))


def format_seq(seq: Sequence[int]) -> str:
    """Inverse of :func:`parse_seq`."""
    if not seq:
        return "-"
    return ",".join(str(o) for o in seq)
