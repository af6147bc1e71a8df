"""One BLAS thread: condseq's matrices are too small for a second one.

The largest products and factorisations here are a few hundred wide (an
``S × 2S`` SVD, an ``(O**⌊T/2⌋, S) @ (S, O**⌈T/2⌉)`` product).  At those
sizes OpenBLAS splits some calls across its threads, and each such call
waits until every worker has been scheduled; the workers then spin between
calls.  On two cores that buys nothing and costs steadiness.  Measured on a
2-vCPU VM (numpy 2.4.6, scipy-openblas 0.3.31): a ``referee-enum`` batch
takes 31 ms with two threads and 23 ms with one, at twice the CPU time;
with the other core busy it takes 68 ms against 29 ms; over 300 calls,
``construct_exact_operators(parity T=16)`` has a p99 of 24 ms against 16 ms.
The learners run no slower on one thread.

So importing condseq sets numpy's bundled OpenBLAS to one thread.  A numpy
built against another BLAS, or against an OpenBLAS outside ``numpy.libs``,
is left as it is.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np


def _openblas_function(name: str):
    """``openblas_<name>`` of the OpenBLAS bundled with numpy, or ``None``.

    numpy 2 wheels bundle scipy-openblas, numpy 1 wheels an ``openblas64_``.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
                       f"openblas_{name}"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return fn
    return None


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it has one."""
    fn = _openblas_function("get_num_threads")
    if fn is None:
        return None
    fn.restype = ctypes.c_int
    return int(fn())


def use_one_thread() -> None:
    """Run numpy's bundled OpenBLAS, if it has one, on one thread."""
    fn = _openblas_function("set_num_threads")
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn(1)
