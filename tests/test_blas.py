import condseq  # noqa: F401  (the import sets the thread count)
from condseq import _blas


def test_import_runs_bundled_openblas_on_one_thread():
    # None: numpy is built against a BLAS that condseq leaves as it is
    assert _blas.blas_threads() in (None, 1)
