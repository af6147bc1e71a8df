"""Command-line interface: generate instances, learn, evaluate, inspect.

Each learner subcommand either loads a full YAML experiment config or builds
one from flags (an HMM file plus algorithm parameters); flags win over the
config, and ``--seed`` replaces its seed list.  Flags are applied before the
config is checked, so they get the same checks as a file.  Exit status is 0
iff the run finished without errors and every threshold asserted in the
config or flags held.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .bench import (CONFIG_KEYS, EVAL_KEYS, ExperimentConfig, build_instance,
                    read_config, run_experiment, _evaluate)
from .distributions import load_hmm, rank_of, save_hmm
from .generators import (greedy_spanning_bases, one_step_bases,
                         parity_class_bases)
from .metrics import (fidelity_for_bases, robust_sigma_per_level,
                      search_fidelity_bases)
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
    gen.add_argument("--instance-seed", type=int, default=0, dest="seed")
    gen.add_argument("--out", required=True, help="output HMM file")
    gen.set_defaults(func=_cmd_generate)

    exact = _add_learner(sub, "learn-exact", "exact",
                         "run the exact-oracle learner")
    exact.add_argument("--eps", type=float, help="target accuracy")
    exact.add_argument("--delta", type=float, help="failure budget")
    exact.add_argument("--samples", type=int, dest="n_override",
                       help="fixed equivalence-sweep sample count per length")

    samp = _add_learner(sub, "learn-sampling", "sampling",
                        "run the sampling-based spectral learner")
    samp.add_argument("--basis-size", type=int)
    samp.add_argument("--entry-samples", type=int)
    samp.add_argument("--eig-threshold", type=float)
    samp.add_argument("--ridge", type=float)
    samp.add_argument("--regularity", type=float)
    samp.add_argument("--coeff-norm", type=float)
    samp.add_argument("--step-samples", type=int)

    basis = _add_learner(sub, "find-basis", "approx-basis",
                         "search for an approximate basis")
    basis.add_argument("--t", type=int, help="history length to cover")
    basis.add_argument("--eps", type=float)
    basis.add_argument("--regularity", type=float)
    basis.add_argument("--rank-bound", type=int)
    basis.add_argument("--candidates", type=int, dest="candidates_per_round",
                       help="candidate histories per round")
    basis.add_argument("--loss-samples", type=int)
    basis.add_argument("--step-samples", type=int)
    basis.add_argument("--residual-threshold", type=float,
                       help="assert the enumerated span residual")

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


def _add_learner(sub, name: str, algorithm: str,
                 summary: str) -> argparse.ArgumentParser:
    """A learner subcommand with the flags every algorithm shares.

    A flag's ``dest`` is the config key it sets: a ``params`` or ``eval``
    key, or a top-level field.
    """
    cmd = sub.add_parser(name, help=summary)
    cmd.set_defaults(func=_cmd_learn, algorithm=algorithm)
    cmd.add_argument("--config", help="YAML experiment config")
    cmd.add_argument("--instance", help="HMM file (instead of --config)")
    cmd.add_argument("--seed", type=int, help="override the config seed")
    cmd.add_argument("--seeds", type=_int_list, help="batch seeds, e.g. 0,1,2")
    cmd.add_argument("--budget", type=int, help="oracle query budget")
    cmd.add_argument("--tv-threshold", type=float,
                     help="assert enumerated TV per seed")
    cmd.add_argument("--min-pass-fraction", type=float,
                     help="fraction of seeds that must pass the assertions")
    cmd.add_argument("--report", dest="output",
                     help="write the YAML report here")
    cmd.add_argument("--model-out", dest="model_output",
                     help="write learned model file(s) here")
    return cmd


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    accepted, _ = CONFIG_KEYS["instance"][args.kind]
    hmm = build_instance({"kind": args.kind, **_given(args, accepted)})
    save_hmm(hmm, args.out)
    print(f"wrote {args.kind} HMM to {args.out}: "
          f"{hmm.n_states} states, {hmm.n_symbols} symbols, "
          f"horizon {hmm.horizon}, rank {rank_of(hmm)}")
    return 0


def _given(args, keys) -> dict:
    """The flags set on the command line whose ``dest`` is one of ``keys``."""
    return {k: v for k, v in vars(args).items() if k in keys and v is not None}


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        raw = read_config(args.config)
        if raw.get("algorithm") != args.algorithm:
            raise SystemExit(
                f"config algorithm {raw.get('algorithm')!r} does not match "
                f"the {args.algorithm!r} subcommand")
    elif args.instance:
        raw = {"instance": {"kind": "file", "path": args.instance},
               "algorithm": args.algorithm}
    else:
        raise SystemExit("either --config or --instance is required")
    accepted, _ = CONFIG_KEYS["params"][args.algorithm]
    for section, keys in (("params", accepted), ("eval", EVAL_KEYS)):
        # a section that is not a mapping is left for the config's own check
        if isinstance(raw.setdefault(section, {}), dict):
            raw[section] = {**raw[section], **_given(args, keys)}
    if args.seed is not None:
        raw.update(seed=args.seed, seeds=None)
    raw.update(_given(args, ("seeds", "budget", "output", "model_output")))
    return ExperimentConfig.from_dict(raw)


def _cmd_learn(args) -> int:
    config = _config_from_args(args)
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


def _cmd_eval(args) -> int:
    out: dict = {}
    _evaluate(load_hmm(args.instance),
              to_distribution(load_model(args.model), flavor=args.flavor),
              {"tv_samples": args.tv_samples}, args.seed, out)
    print(f"tv_{out['tv_kind']} {out['tv']:.6g}")
    if args.tv_threshold is not None:
        return 0 if out["tv"] <= args.tv_threshold else 1
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
