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


def distinct_rows(rows: np.ndarray, n_symbols: int) -> list[tuple[Seq, int]]:
    """Distinct rows of a ``(k, L)`` symbol array with their multiplicities.

    Rows are collapsed through their :func:`seq_to_index` codes and returned
    in order of first appearance, the order ``Counter(map(tuple,
    rows)).items()`` gives.  Codes are int64, so ``n_symbols ** L`` must fit.
    """
    length = rows.shape[1]
    if seq_count(n_symbols, length) > 2**63:
        raise ValueError(f"{n_symbols}^{length} sequences overflow int64 codes")
    radix = n_symbols ** np.arange(length - 1, -1, -1, dtype=np.int64)
    _, first, counts = np.unique((rows - 1) @ radix, return_index=True,
                                 return_counts=True)
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
