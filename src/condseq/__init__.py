"""Interactive learning of low-rank sequence distributions and HMMs.

Library and CLI for learning fixed-horizon sequence distributions from two
kinds of oracle access — exact conditional probabilities, or conditional
sampling only — together with exhaustive ground-truth evaluation at desk
scale: exact TV distances, basis fidelity spectra, and rank diagnostics.

Submodules load on first use of one of their names, so importing the
enumeration referee (``distributions``, ``metrics``, ``generators``, ``oom``)
pulls in no learner code.

Importing the package sets numpy's bundled OpenBLAS to one thread (see
:mod:`condseq._blas`).
"""

import importlib

from ._blas import use_one_thread

__version__ = "0.1.0"

use_one_thread()

# Public name -> submodule defining it.
_EXPORTS = {name: module for module, names in {
    "approx_basis": "RoundCapExceeded elliptical_potential "
                    "elliptical_potential_bound find_approx_basis min_capped_ridge",
    "bench": "ExperimentConfig ExperimentReport build_instance run_experiment",
    "distributions": "EnumerationCapError Hmm TableDist ZeroProbabilityHistory "
                     "enumerate_joint load_hmm rank_of save_hmm",
    "estimation": "CondEstimator",
    "exact_learner": "LearnerInvariantError learn_exact",
    "generators": "greedy_spanning_bases make_full_rank_hmm make_overcomplete_hmm "
                  "make_parity_hmm make_random_table one_step_bases "
                  "parity_class_bases perturb_conditionals",
    "metrics": "FidelityReport expected_span_residual fidelity_for_bases "
               "irregular_mass tv_conditional_bound tv_exact",
    "oom": "BasisSpanError OomModel construct_exact_operators eval_prob "
           "load_model save_model to_distribution",
    "oracles": "BudgetExceeded OracleHandle OracleStats WrongOracleMode",
    "sampling_learner": "AlgoParams PrecondEstimates learn_sampling",
    "sequences": "Seq all_seqs format_seq parse_seq",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
