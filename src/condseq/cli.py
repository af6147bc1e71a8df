"""Command-line interface: generate instances, learn, evaluate, inspect.

Each learner subcommand either loads a full YAML experiment config or builds
one from flags (an HMM file plus algorithm parameters); ``--seed`` always
wins over the config.  Exit status is 0 iff the run finished without errors
and every threshold asserted in the config or flags held.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .bench import (ExperimentConfig, build_instance, run_experiment,
                    _enumerable)
from .distributions import Hmm, load_hmm, rank_of, save_hmm
from .generators import (greedy_spanning_bases, one_step_bases,
                         parity_class_bases)
from .metrics import (fidelity_for_bases, robust_sigma_per_level,
                      search_fidelity_bases, tv_conditional_bound, tv_exact)
from .oom import load_model, to_distribution


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s")
    return args.func(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condseq",
        description="Learn low-rank sequence distributions from "
                    "conditional-probability or conditional-sampling oracles.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log per-phase progress")
    sub = parser.add_subparsers(required=True, metavar="command")

    gen = sub.add_parser("generate", help="write a generated HMM to a file")
    gen.add_argument("--kind", required=True,
                     choices=["parity", "full-rank", "overcomplete"])
    gen.add_argument("--horizon", type=int, required=True)
    gen.add_argument("--alpha", type=float, default=0.2,
                     help="parity flip probability")
    gen.add_argument("--subset", type=_int_list,
                     help="parity positions, e.g. 1,3,4 (default: all)")
    gen.add_argument("--n-states", type=int, default=2)
    gen.add_argument("--n-symbols", type=int, default=2)
    gen.add_argument("--sigma-floor", type=float, default=0.15)
    gen.add_argument("--instance-seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output HMM file")
    gen.set_defaults(func=_cmd_generate)

    exact = sub.add_parser("learn-exact",
                           help="run the exact-oracle learner")
    _add_run_flags(exact)
    exact.add_argument("--eps", type=float, help="target accuracy")
    exact.add_argument("--delta", type=float, help="failure budget")
    exact.add_argument("--samples", type=int,
                       help="fixed equivalence-sweep sample count per length")
    exact.set_defaults(func=_cmd_learn_exact)

    samp = sub.add_parser("learn-sampling",
                          help="run the sampling-based spectral learner")
    _add_run_flags(samp)
    samp.add_argument("--basis-size", type=int)
    samp.add_argument("--entry-samples", type=int)
    samp.add_argument("--eig-threshold", type=float)
    samp.add_argument("--ridge", type=float)
    samp.add_argument("--regularity", type=float)
    samp.add_argument("--coeff-norm", type=float)
    samp.add_argument("--step-samples", type=int)
    samp.set_defaults(func=_cmd_learn_sampling)

    basis = sub.add_parser("find-basis",
                           help="search for an approximate basis")
    _add_run_flags(basis)
    basis.add_argument("--t", type=int, help="history length to cover")
    basis.add_argument("--eps", type=float)
    basis.add_argument("--regularity", type=float)
    basis.add_argument("--rank-bound", type=int)
    basis.add_argument("--candidates", type=int,
                       help="candidate histories per round")
    basis.add_argument("--loss-samples", type=int)
    basis.add_argument("--step-samples", type=int)
    basis.add_argument("--residual-threshold", type=float,
                       help="assert the enumerated span residual")
    basis.set_defaults(func=_cmd_find_basis)

    ev = sub.add_parser("eval", help="TV-evaluate a learned model file")
    ev.add_argument("--instance", required=True, help="ground-truth HMM file")
    ev.add_argument("--model", required=True, help="learned model file")
    ev.add_argument("--flavor", default="auto",
                    choices=["auto", "anchored", "raw"])
    ev.add_argument("--tv-threshold", type=float)
    ev.add_argument("--tv-samples", type=int, default=2000)
    ev.add_argument("--seed", type=int, default=0)
    ev.set_defaults(func=_cmd_eval)

    fid = sub.add_parser("fidelity",
                         help="per-level basis spectra of an instance")
    fid.add_argument("--instance", required=True, help="HMM file")
    fid.add_argument("--bases", default="greedy",
                     choices=["greedy", "one-step", "parity", "search"])
    fid.add_argument("--max-size", type=int, default=3,
                     help="basis size cap for --bases search")
    fid.set_defaults(func=_cmd_fidelity)
    return parser


def _add_run_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--config", help="YAML experiment config")
    cmd.add_argument("--instance", help="HMM file (instead of --config)")
    cmd.add_argument("--seed", type=int, help="override the config seed")
    cmd.add_argument("--seeds", type=_int_list, help="batch seeds, e.g. 0,1,2")
    cmd.add_argument("--budget", type=int, help="oracle query budget")
    cmd.add_argument("--tv-threshold", type=float,
                     help="assert enumerated TV per seed")
    cmd.add_argument("--min-pass-fraction", type=float,
                     help="fraction of seeds that must pass the assertions")
    cmd.add_argument("--report", help="write the YAML report here")
    cmd.add_argument("--model-out", help="write learned model file(s) here")


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    spec = {"kind": args.kind, "horizon": args.horizon, "alpha": args.alpha,
            "n_states": args.n_states, "n_symbols": args.n_symbols,
            "sigma_floor": args.sigma_floor, "seed": args.instance_seed}
    if args.subset is not None:
        spec["subset"] = args.subset
    hmm = build_instance(spec)
    save_hmm(hmm, args.out)
    line = (f"wrote {args.kind} HMM to {args.out}: "
            f"{hmm.n_states} states, {hmm.n_symbols} symbols, "
            f"horizon {hmm.horizon}")
    if _enumerable(hmm):
        line += f", rank {rank_of(hmm)}"
    print(line)
    return 0


def _config_from_args(args, algorithm: str, params: dict,
                      eval_cfg: dict) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_file(args.config)
        if config.algorithm != algorithm:
            raise SystemExit(
                f"config algorithm {config.algorithm!r} does not match "
                f"the {algorithm!r} subcommand")
        config.params.update(params)
        config.eval.update(eval_cfg)
    else:
        if not args.instance:
            raise SystemExit("either --config or --instance is required")
        config = ExperimentConfig(
            instance={"kind": "file", "path": args.instance},
            algorithm=algorithm, params=params, eval=eval_cfg)
    if args.seed is not None:
        config.seed = args.seed
        config.seeds = None
    if args.seeds is not None:
        config.seeds = args.seeds
    if args.budget is not None:
        config.budget = args.budget
    if args.report is not None:
        config.output = args.report
    if args.model_out is not None:
        config.model_output = args.model_out
    return config


def _run_and_print(config: ExperimentConfig) -> int:
    report = run_experiment(config)
    if config.output:
        for outcome in report.outcomes:
            bits = [f"seed {outcome['seed']}"]
            if outcome.get("tv") is not None:
                bits.append(f"tv={outcome['tv']:.4g} ({outcome['tv_kind']})")
            if outcome.get("residual") is not None:
                bits.append(f"residual={outcome['residual']:.4g}")
            if outcome["error"]:
                bits.append(f"error: {outcome['error']}")
            print(", ".join(bits))
        print(f"report written to {config.output}; "
              f"passed={report.passed}")
    else:
        print(report.to_yaml(), end="")
    return 0 if report.passed else 1


def _collect(pairs: dict) -> dict:
    return {k: v for k, v in pairs.items() if v is not None}


def _eval_cfg_from_args(args) -> dict:
    return _collect({"tv_threshold": args.tv_threshold,
                     "min_pass_fraction": args.min_pass_fraction})


def _cmd_learn_exact(args) -> int:
    params = _collect({"eps": args.eps, "delta": args.delta,
                       "n_override": args.samples})
    return _run_and_print(
        _config_from_args(args, "exact", params, _eval_cfg_from_args(args)))


def _cmd_learn_sampling(args) -> int:
    params = _collect({
        "basis_size": args.basis_size, "entry_samples": args.entry_samples,
        "eig_threshold": args.eig_threshold, "ridge": args.ridge,
        "regularity": args.regularity, "coeff_norm": args.coeff_norm,
        "step_samples": args.step_samples,
    })
    return _run_and_print(
        _config_from_args(args, "sampling", params, _eval_cfg_from_args(args)))


def _cmd_find_basis(args) -> int:
    params = _collect({
        "t": args.t, "eps": args.eps, "regularity": args.regularity,
        "rank_bound": args.rank_bound,
        "candidates_per_round": args.candidates,
        "loss_samples": args.loss_samples, "step_samples": args.step_samples,
    })
    eval_cfg = _eval_cfg_from_args(args)
    if args.residual_threshold is not None:
        eval_cfg["residual_threshold"] = args.residual_threshold
    config = _config_from_args(args, "approx-basis", params, eval_cfg)
    if "t" not in config.params:
        raise SystemExit("--t is required (or set params.t in the config)")
    return _run_and_print(config)


def _cmd_eval(args) -> int:
    dist = load_hmm(args.instance)
    approx = to_distribution(load_model(args.model), flavor=args.flavor)
    if _enumerable(dist):
        tv = tv_exact(dist, approx)
        print(f"tv_exact {tv:.6g}")
    else:
        tv = tv_conditional_bound(dist, approx, n_samples=args.tv_samples,
                                  rng=np.random.default_rng(args.seed))
        print(f"tv_bound {tv:.6g}")
    if args.tv_threshold is not None:
        return 0 if tv <= args.tv_threshold else 1
    return 0


def _cmd_fidelity(args) -> int:
    dist = load_hmm(args.instance)
    if args.bases == "search":
        bases, report = search_fidelity_bases(dist, max_size=args.max_size)
    else:
        maker = {"greedy": greedy_spanning_bases,
                 "one-step": one_step_bases,
                 "parity": lambda d: parity_class_bases(d.horizon)}[args.bases]
        bases = maker(dist)
        report = fidelity_for_bases(dist, bases)
    robust = robust_sigma_per_level(dist, bases)
    for t, (members, sigma, rob) in enumerate(
            zip(bases, report.sigmas, robust)):
        print(f"level {t}: size {len(members)} fidelity {sigma:.6g} "
              f"robust {rob:.6g}")
    print(f"min fidelity {report.min_sigma:.6g}")
    print(f"min robust {min(robust):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
