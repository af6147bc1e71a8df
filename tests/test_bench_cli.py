import re

import pytest
import yaml

from condseq.bench import (ExperimentConfig, build_instance, run_experiment,
                           SCHEMA_VERSION)
from condseq.cli import main
from condseq.distributions import Hmm, TableDist, load_hmm, save_hmm
from condseq.generators import make_parity_hmm
from condseq.sequences import all_seqs


@pytest.fixture(scope="module")
def parity_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("instances") / "parity.hmm"
    save_hmm(make_parity_hmm(4, alpha=0.2), path)
    return str(path)


@pytest.fixture
def no_oracle(monkeypatch):
    """Fail any run that gets as far as building an oracle."""
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle was built")
    monkeypatch.setattr("condseq.bench.OracleHandle", refuse)


def _exact_config(parity_file, **overrides):
    base = dict(instance={"kind": "file", "path": parity_file},
                algorithm="exact", params={"n_override": 200},
                eval={"tv_threshold": 1e-6})
    base.update(overrides)
    return ExperimentConfig(**base)


def _strip_seconds(obj):
    if isinstance(obj, dict):
        return {k: _strip_seconds(v) for k, v in obj.items()
                if k != "seconds"}
    if isinstance(obj, list):
        return [_strip_seconds(v) for v in obj]
    return obj


def test_config_validation():
    good = {"instance": {"kind": "parity", "horizon": 4}, "algorithm": "exact"}
    cfg = ExperimentConfig.from_dict(good)
    assert cfg.run_seeds() == [0]
    assert cfg.schema == SCHEMA_VERSION
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({**good, "typo_key": 1})
    with pytest.raises(ValueError, match="algorithm"):
        ExperimentConfig.from_dict({**good, "algorithm": "magic"})
    with pytest.raises(ValueError, match="instance kind"):
        ExperimentConfig.from_dict({**good, "instance": {"kind": "nope"}})
    with pytest.raises(ValueError, match="budget"):
        ExperimentConfig.from_dict({**good, "budget": 0})
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig.from_dict({**good, "seeds": []})
    with pytest.raises(ValueError, match="schema"):
        ExperimentConfig.from_dict({**good, "schema": 99})
    assert ExperimentConfig.from_dict({**good, "seeds": [3, 1]}).run_seeds() \
        == [3, 1]


def test_config_from_file_requires_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ValueError, match="mapping"):
        ExperimentConfig.from_file(path)


def test_build_instance_kinds(tmp_path):
    parity = build_instance({"kind": "parity", "horizon": 4,
                             "subset": [1, 3], "alpha": 0.3})
    direct = make_parity_hmm(4, {1, 3}, 0.3)
    for seq in [(1, 1, 1, 1), (2, 1, 2, 1)]:
        assert parity.joint_prob(seq) == pytest.approx(direct.joint_prob(seq))

    full = build_instance({"kind": "full-rank", "horizon": 3, "seed": 5})
    assert isinstance(full, Hmm) and full.n_states == 2

    over = build_instance({"kind": "overcomplete", "n_states": 4,
                           "horizon": 3})
    assert over.n_states == 4

    table = build_instance({"kind": "random-table", "horizon": 3, "seed": 2})
    assert isinstance(table, TableDist)

    path = tmp_path / "dist.hmm"
    save_hmm(direct, path)
    again = build_instance({"kind": "file", "path": str(path)})
    for seq in all_seqs(2, 4):
        assert again.joint_prob(seq) == pytest.approx(direct.joint_prob(seq))

    with pytest.raises(ValueError):
        build_instance({"kind": "martian"})


def test_run_experiment_exact_parity_passes(parity_file):
    report = run_experiment(_exact_config(parity_file))
    assert report.passed
    assert report.schema == SCHEMA_VERSION
    (outcome,) = report.outcomes
    assert outcome["error"] is None
    assert outcome["tv"] <= 1e-9
    assert outcome["tv_kind"] == "exact"
    assert outcome["basis_sizes"] == [1, 2, 2, 2, 1]
    assert report.summary["instance_rank"] == 2
    assert report.summary["tv_pass"] == 1
    assert report.summary["asserted"] and report.summary["n_errors"] == 0
    assert outcome["queries"]["total"] > 0


def test_run_experiment_deterministic_modulo_timing(parity_file):
    first = run_experiment(_exact_config(parity_file)).as_dict()
    second = run_experiment(_exact_config(parity_file)).as_dict()
    assert _strip_seconds(first) == _strip_seconds(second)


def test_run_experiment_records_budget_error(parity_file):
    report = run_experiment(_exact_config(parity_file, budget=25))
    (outcome,) = report.outcomes
    assert outcome["error"].startswith("BudgetExceeded")
    assert not report.passed
    assert report.summary["n_errors"] == 1


def test_run_experiment_records_invariant_errors_per_seed():
    # oracle seeds 0 and 2 grow a level-3 table that is not full rank
    report = run_experiment(ExperimentConfig(
        instance={"kind": "overcomplete", "n_states": 8, "horizon": 10, "seed": 2},
        algorithm="exact", params={"n_override": 200}, seeds=[0, 1, 2]))
    assert [o["seed"] for o in report.outcomes] == [0, 1, 2]
    errors = [o["error"] for o in report.outcomes]
    for seed in (0, 2):
        assert errors[seed].startswith("LearnerInvariantError: level-3 table lost full rank")
    assert errors[1] is None
    assert report.summary["n_errors"] == 2
    assert not report.passed


def test_run_experiment_sampling_outcome_shape(parity_file):
    config = ExperimentConfig(
        instance={"kind": "parity", "horizon": 3, "alpha": 0.2},
        algorithm="sampling",
        params={"basis_size": 6, "entry_samples": 400, "step_samples": 400},
        eval={"tv_threshold": 0.5})
    report = run_experiment(config)
    (outcome,) = report.outcomes
    assert outcome["error"] is None
    assert len(outcome["kept_dims"]) == 2
    assert all(1 <= k <= 2 for k in outcome["kept_dims"])
    assert outcome["tv"] <= 0.5


def test_exact_tv_past_the_enumeration_cap_is_recorded(monkeypatch):
    # parity T=5 has 32 sequences; the learner runs, then tv_exact hits the cap
    monkeypatch.setattr("condseq.distributions.ENUM_CAP", 16)
    report = run_experiment(ExperimentConfig(
        instance={"kind": "parity", "horizon": 5, "alpha": 0.2},
        algorithm="exact", params={"n_override": 50}, eval={"tv": "exact"}))
    (outcome,) = report.outcomes
    assert outcome["error"].startswith("EnumerationCapError")
    assert outcome["rounds"] >= 1
    assert not report.summary["passed"]


def test_run_experiment_approx_basis_outcome(parity_file):
    config = ExperimentConfig(
        instance={"kind": "file", "path": parity_file},
        algorithm="approx-basis",
        params={"t": 2, "eps": 0.1, "regularity": 0.1, "rank_bound": 2,
                "candidates_per_round": 8, "loss_samples": 2000,
                "step_samples": 4000, "repeat_for_unit_norm": False},
        eval={"residual_threshold": 0.1})
    report = run_experiment(config)
    (outcome,) = report.outcomes
    assert outcome["error"] is None
    assert all(len(m) == 2 for m in outcome["members"])
    assert outcome["residual"] <= 0.1
    assert report.summary["residual_pass"] == 1
    assert report.passed


def test_report_round_trips_through_yaml(parity_file, tmp_path):
    out = tmp_path / "report.yaml"
    config = _exact_config(parity_file, output=str(out))
    report = run_experiment(config)
    assert yaml.safe_load(report.to_yaml()) == report.as_dict()
    assert yaml.safe_load(out.read_text()) == report.as_dict()
    assert report.as_dict()["config"]["output"] == str(out)


def test_model_output_file_per_seed(parity_file, tmp_path):
    model_path = tmp_path / "model.yaml"
    run_experiment(_exact_config(parity_file, seeds=[0, 1],
                                 model_output=str(model_path)))
    assert (tmp_path / "model-0.yaml").exists()
    assert (tmp_path / "model-1.yaml").exists()
    assert not model_path.exists()


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


def test_cli_generate_writes_loadable_hmm(tmp_path, capsys):
    out = tmp_path / "gen.hmm"
    code = main(["generate", "--kind", "parity", "--horizon", "4",
                 "--alpha", "0.25", "--subset", "1,3", "--out", str(out)])
    assert code == 0
    hmm = load_hmm(out)
    direct = make_parity_hmm(4, {1, 3}, 0.25)
    assert hmm.joint_prob((1, 2, 1, 2)) == pytest.approx(direct.joint_prob((1, 2, 1, 2)))
    assert "rank 2" in capsys.readouterr().out


def test_cli_generate_prints_the_rank_past_enumeration(tmp_path, capsys):
    # the rank was printed only up to 2^16 sequences
    assert main(["generate", "--kind", "parity", "--horizon", "20",
                 "--out", str(tmp_path / "p20.hmm")]) == 0
    assert "horizon 20, rank 2" in capsys.readouterr().out


def test_cli_learn_exact_instance_report(parity_file, tmp_path, capsys):
    rpt = tmp_path / "run.yaml"
    code = main(["learn-exact", "--instance", parity_file,
                 "--samples", "200", "--tv-threshold", "1e-6",
                 "--report", str(rpt)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "passed=True" in printed and "tv=" in printed
    loaded = yaml.safe_load(rpt.read_text())
    assert loaded["schema"] == SCHEMA_VERSION
    assert loaded["outcomes"][0]["tv"] <= 1e-9


def test_cli_learn_exact_requires_instance_or_config():
    with pytest.raises(SystemExit):
        main(["learn-exact", "--samples", "50"])


def test_cli_seed_flag_overrides_config_seeds(parity_file, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "instance": {"kind": "file", "path": parity_file},
        "algorithm": "exact", "params": {"n_override": 200},
        "seeds": [0, 1]}))
    rpt = tmp_path / "out.yaml"
    code = main(["learn-exact", "--config", str(cfg), "--seed", "5",
                 "--report", str(rpt)])
    assert code == 0
    loaded = yaml.safe_load(rpt.read_text())
    assert loaded["config"]["seed"] == 5
    assert loaded["config"]["seeds"] is None
    assert [o["seed"] for o in loaded["outcomes"]] == [5]


def test_cli_config_algorithm_mismatch(parity_file, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "instance": {"kind": "file", "path": parity_file},
        "algorithm": "sampling"}))
    with pytest.raises(SystemExit, match="does not match"):
        main(["learn-exact", "--config", str(cfg)])


def test_cli_absurd_threshold_fails_run(parity_file, capsys):
    code = main(["learn-exact", "--instance", parity_file,
                 "--samples", "200", "--tv-threshold", "-1.0"])
    assert code == 1
    assert "passed: false" in capsys.readouterr().out


def test_cli_learn_sampling_small(parity_file, capsys):
    code = main(["learn-sampling", "--instance", parity_file,
                 "--basis-size", "6", "--entry-samples", "400",
                 "--step-samples", "400", "--tv-threshold", "0.5"])
    assert code == 0
    assert "tv_kind: exact" in capsys.readouterr().out


def test_cli_find_basis_requires_t(parity_file):
    with pytest.raises(ValueError, match=r"missing config keys: params \['t'\]"):
        main(["find-basis", "--instance", parity_file])


def test_cli_eval_and_model_out(parity_file, tmp_path, capsys):
    model = tmp_path / "model.yaml"
    assert main(["learn-exact", "--instance", parity_file,
                 "--samples", "200", "--model-out", str(model)]) == 0
    capsys.readouterr()
    assert main(["eval", "--instance", parity_file,
                 "--model", str(model)]) == 0
    assert "tv_exact" in capsys.readouterr().out
    assert main(["eval", "--instance", parity_file, "--model", str(model),
                 "--tv-threshold", "-1.0"]) == 1


def test_cli_fidelity_prints_levels(parity_file, capsys):
    code = main(["fidelity", "--instance", parity_file, "--bases", "parity"])
    assert code == 0
    out = capsys.readouterr().out
    assert "level 0: size 1" in out
    assert "min fidelity 0.18" in out
    assert "min robust" in out


def test_params_an_algorithm_does_not_take_are_rejected(parity_file, tmp_path):
    instance = {"kind": "file", "path": parity_file}
    # knobs that were validated and echoed but never read
    for key in ("rel_accuracy", "eps", "fail_prob", "seed"):
        with pytest.raises(ValueError, match="unknown config keys"):
            run_experiment(ExperimentConfig(instance=instance,
                                            algorithm="sampling",
                                            params={key: 0.1}))
    with pytest.raises(ValueError, match="unknown config keys"):
        run_experiment(_exact_config(parity_file,
                                     params={"n_override": 200, "ridge": 1.0}))
    cfg = tmp_path / "basis.yaml"
    cfg.write_text(yaml.safe_dump({"instance": instance,
                                   "algorithm": "approx-basis",
                                   "params": {"t": 2, "fail_prob": 0.1}}))
    with pytest.raises(ValueError, match="unknown config keys"):
        main(["find-basis", "--config", str(cfg)])
    with pytest.raises(SystemExit):
        main(["learn-sampling", "--instance", parity_file,
              "--rel-accuracy", "0.1"])


def test_misspelt_eval_key_is_rejected_before_any_run():
    # eval: {tv_treshold: ...} used to run, assert nothing and report passed
    with pytest.raises(ValueError, match=r"unknown config keys: eval \['tv_treshold'\]"):
        ExperimentConfig(instance={"kind": "parity", "horizon": 4},
                         algorithm="exact", eval={"tv_treshold": 1e-12})


def test_misspelt_instance_key_is_rejected_before_any_run():
    # instance: {alpah: 0.3} used to learn the default alpha = 0.2
    with pytest.raises(ValueError, match=r"instance \['alpah'\] \(kind 'parity'\)"):
        ExperimentConfig(instance={"kind": "parity", "horizon": 4, "alpah": 0.3},
                         algorithm="exact")
    # a key of another kind is unknown to this one
    with pytest.raises(ValueError, match="sigma_floor"):
        ExperimentConfig(instance={"kind": "overcomplete", "n_states": 3,
                                   "horizon": 4, "sigma_floor": 0.1},
                         algorithm="exact")


def test_unknown_tv_kind_is_rejected_before_any_run():
    # eval: {tv: exct} used to raise only after the learner had run
    with pytest.raises(ValueError, match="eval.tv must be one of"):
        ExperimentConfig(instance={"kind": "parity", "horizon": 4},
                         algorithm="exact", eval={"tv": "exct"})


def test_every_documented_instance_and_eval_key_is_accepted(parity_file):
    specs = [
        {"kind": "parity", "horizon": 3, "subset": [1], "alpha": 0.1},
        {"kind": "full-rank", "n_states": 2, "n_symbols": 2, "horizon": 3,
         "seed": 1, "sigma_floor": 0.1},
        {"kind": "overcomplete", "n_states": 3, "n_symbols": 2, "horizon": 3,
         "seed": 1},
        {"kind": "random-table", "n_symbols": 2, "horizon": 3, "seed": 1,
         "concentration": 2.0},
        {"kind": "file", "path": parity_file},
    ]
    eval_cfg = {"tv": "none", "tv_samples": 10, "tv_threshold": 0.5,
                "residual_threshold": 0.5, "min_pass_fraction": 0.5}
    for spec in specs:
        config = ExperimentConfig(instance=spec, algorithm="exact", eval=eval_cfg)
        assert build_instance(config.instance).horizon in (3, 4)


def test_exact_params_that_cannot_work_are_rejected(parity_file):
    # n_override=0 used to return a rank-one model after 0 rounds, eps=0 and
    # delta=0 to divide by zero, and delta=-1 to give n=3200; the exact
    # learner's equality threshold is a constant, not a key
    for params, name in [({"n_override": 0}, "n_override"),
                         ({"n_override": -1}, "n_override"),
                         ({"eps": 0.0}, "eps"), ({"eps": -0.05}, "eps"),
                         ({"delta": 0.0}, "delta"), ({"delta": -1.0}, "delta"),
                         ({"eq_tol": 1e-9}, r"unknown config keys: params \['eq_tol'\]")]:
        with pytest.raises(ValueError, match=name):
            run_experiment(_exact_config(parity_file, params=params))
    for flag, value, name in [("--samples", "0", "n_override"),
                              ("--eps", "0", "eps"), ("--delta", "-1", "delta")]:
        with pytest.raises(ValueError, match=name):
            main(["learn-exact", "--instance", parity_file, flag, value])


@pytest.mark.parametrize("spec, missing", [
    ({"kind": "parity"}, "['horizon']"),
    ({"kind": "file"}, "['path']"),
    ({"kind": "overcomplete", "horizon": 4}, "['n_states']"),
])
def test_instance_without_a_required_key_is_rejected_before_any_query(
        no_oracle, spec, missing):
    # each used to construct, then raise KeyError inside run_experiment
    kind = spec["kind"]
    with pytest.raises(ValueError, match=re.escape(
            f"missing config keys: instance {missing} (kind {kind!r})")):
        run_experiment(ExperimentConfig(instance=spec, algorithm="exact"))


@pytest.mark.parametrize("spec, name", [
    ({"kind": "parity", "horizon": 5.0}, "horizon"),
    ({"kind": "parity", "horizon": "5"}, "horizon"),
    ({"kind": "parity", "horizon": True}, "horizon"),
    ({"kind": "full-rank", "n_states": 3.0, "n_symbols": 4, "horizon": 4}, "n_states"),
    ({"kind": "full-rank", "n_states": 3, "n_symbols": 4, "horizon": 4.0}, "horizon"),
    ({"kind": "overcomplete", "n_states": 4.0, "horizon": 4}, "n_states"),
    ({"kind": "overcomplete", "n_states": 4, "n_symbols": True, "horizon": 4},
     "n_symbols"),
    ({"kind": "random-table", "horizon": 3.0}, "horizon"),
    ({"kind": "random-table", "n_symbols": "2", "horizon": 3}, "n_symbols"),
])
def test_instance_count_that_is_not_an_integer_is_rejected_before_any_query(
        no_oracle, spec, name):
    # each used to raise TypeError, and horizon: True to build a horizon-1 HMM
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        run_experiment(ExperimentConfig(instance=spec, algorithm="exact"))


def test_basis_search_without_t_is_rejected_before_any_query(no_oracle):
    # used to raise TypeError at run time; only the CLI checked for t
    with pytest.raises(ValueError, match=r"missing config keys: params \['t'\]"):
        run_experiment(ExperimentConfig(
            instance={"kind": "parity", "horizon": 4}, algorithm="approx-basis"))


@pytest.mark.parametrize("flags, message", [
    (["--seeds", ","], "seeds must be nonempty"),
    (["--budget", "0"], "budget must be positive"),
    (["--budget", "-5"], "budget must be positive"),
])
def test_cli_flags_get_the_config_checks(no_oracle, parity_file, flags, message):
    # --seeds , ran zero seeds and passed; --budget skipped its check
    with pytest.raises(ValueError, match=message):
        main(["learn-exact", "--instance", parity_file, "--samples", "50",
              *flags])


@pytest.mark.parametrize("flags, message", [
    (["--tv-samples", "0"], "eval.tv_samples must be an integer >= 1, got 0"),
    (["--tv-samples", "-5"], "eval.tv_samples must be an integer >= 1, got -5"),
    (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
])
def test_cli_eval_flags_get_the_config_checks(tmp_path, flags, message):
    # each used to load both files, then raise inside the TV bound or numpy;
    # the files here do not exist, so the check must come before any read
    with pytest.raises(ValueError, match=re.escape(message)):
        main(["eval", "--instance", str(tmp_path / "missing.hmm"),
              "--model", str(tmp_path / "missing.yaml"), *flags])


@pytest.mark.parametrize("override, message", [
    pytest.param({"instance": None}, "instance must be a mapping", id="instance-null"),
    pytest.param({"instance": [1]}, "instance must be a mapping", id="instance-list"),
    pytest.param({"params": None}, "params must be a mapping", id="params-null"),
    pytest.param({"eval": None}, "eval must be a mapping", id="eval-null"),
    pytest.param({"seed": "a"}, "seed must be an integer >= 0", id="seed-str"),
    pytest.param({"seed": -1}, "seed must be an integer >= 0", id="seed-negative"),
    pytest.param({"seed": True}, "seed must be an integer >= 0", id="seed-bool"),
    pytest.param({"seeds": 3}, "seeds must be a list", id="seeds-int"),
    pytest.param({"seeds": [1, 1.5]}, "seeds must be integers >= 0, got 1.5",
                 id="seeds-float"),
    pytest.param({"seeds": [0, -2]}, "seeds must be integers >= 0, got -2",
                 id="seeds-negative"),
    pytest.param({"budget": "x"}, "budget must be an integer", id="budget-str"),
    pytest.param({"budget": True}, "budget must be an integer", id="budget-bool"),
])
def test_config_types_are_checked_before_any_instance(no_oracle, monkeypatch,
                                                      tmp_path, override, message):
    # each used to raise AttributeError or TypeError, or to fail inside
    # run_experiment, seeds: [1, 1.5] only after seed 1 had run in full
    def refuse(spec):
        raise AssertionError("an instance was built")
    monkeypatch.setattr("condseq.bench.build_instance", refuse)
    raw = {"instance": {"kind": "parity", "horizon": 4}, "algorithm": "exact",
           **override}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_file(path)
    with pytest.raises(ValueError, match=re.escape(message)):
        main(["learn-exact", "--config", str(path)])


@pytest.mark.parametrize("eval_cfg, message", [
    ({"tv_threshold": "abc"}, "eval.tv_threshold must be a real number"),
    ({"residual_threshold": True}, "eval.residual_threshold must be a real number"),
    ({"tv_samples": 0}, r"eval.tv_samples must be an integer >= 1"),
    ({"min_pass_fraction": 1.5}, r"eval.min_pass_fraction must lie in \[0, 1\]"),
])
def test_eval_values_are_checked_before_any_query(no_oracle, eval_cfg, message):
    # tv_threshold: abc used to learn first, then raise TypeError
    with pytest.raises(ValueError, match=message):
        run_experiment(ExperimentConfig(
            instance={"kind": "parity", "horizon": 4}, algorithm="exact",
            eval=eval_cfg))
