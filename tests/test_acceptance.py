import time

import numpy as np

from condseq.approx_basis import (elliptical_potential,
                                  elliptical_potential_bound,
                                  find_approx_basis)
from condseq.distributions import enumerate_joint
from condseq.exact_learner import learn_exact
from condseq.generators import (make_full_rank_hmm, make_parity_hmm,
                                make_random_table, one_step_bases,
                                parity_class_bases, perturb_conditionals,
                                greedy_spanning_bases)
from condseq.metrics import (conditional_gap_exact, expected_span_residual,
                             fidelity_for_bases, irregular_mass,
                             search_fidelity_bases, sequence_two_step_matrix,
                             sigma_matrix, tv_exact)
from condseq.oom import (OomModel, construct_exact_operators,
                         eval_prob, exact_coefficients, to_distribution)
from condseq.oracles import OracleHandle
from condseq.sampling_learner import AlgoParams, learn_sampling
from condseq.sequences import all_seqs

from _reference import random_hmm


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# Shared across criteria 2 and 3: one exact-learner run per seed on the
# noisy-parity family, with the secret index set varied deterministically.
_EXACT_RUNS: list = []


def _parity_instance(seed: int, horizon: int):
    rng = np.random.default_rng(seed)
    mask = rng.integers(0, 2, horizon - 1)
    subset = {i + 1 for i in range(horizon - 1) if mask[i]} or {horizon - 1}
    return make_parity_hmm(horizon, subset, 0.2)


def _exact_runs() -> list:
    if not _EXACT_RUNS:
        for seed in range(20):
            dist = _parity_instance(seed, 6)
            oracle = OracleHandle(dist, mode="exact", seed=seed)
            model, info = learn_exact(oracle, n_override=200)
            _EXACT_RUNS.append((dist, model, info))
    return _EXACT_RUNS


def _enlarged_parity_bases(horizon: int) -> list[list[tuple]]:
    """Parity class bases padded to three members per interior level.

    The extra member keeps the span rank at two, so every interior level has
    a one-dimensional kernel for projection-error injection.
    """
    bases = [list(b) for b in parity_class_bases(horizon)]
    for t in range(1, horizon):
        extra = next((s for s in all_seqs(2, t) if s not in bases[t]),
                     bases[t][0])
        bases[t] = bases[t] + [extra]
    return bases


def _level_projection(dist, members):
    if len(members) == 1:
        return np.eye(1), None, None
    vals, vecs = np.linalg.eigh(sigma_matrix(dist, members))
    assert vals[0] < 1e-9
    top = vecs[:, -2:]
    return top @ top.T, top, vecs[:, 0]


def test_criterion_01_operator_representation_exactness():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n_states = 2 + seed % 3
        n_symbols = 2 + seed % 2
        horizon = 3 + seed % 4
        dist = random_hmm(rng, n_states, n_symbols, horizon)
        model = construct_exact_operators(dist, greedy_spanning_bases(dist))
        for seq in all_seqs(n_symbols, horizon):
            worst = max(worst, abs(eval_prob(model, seq)
                                   - dist.joint_prob(seq)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 60.0
    _verdict(1, "operator representation exactness", ok,
             f"50 instances, max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_exact_learner_accuracy():
    started = time.perf_counter()
    tvs, rounds = [], []
    for dist, model, info in _exact_runs():
        tvs.append(tv_exact(dist, to_distribution(model, flavor="anchored")))
        rounds.append(info["rounds"])
    elapsed = time.perf_counter() - started
    n_pass = sum(tv <= 0.05 for tv in tvs)
    ok = n_pass >= 19 and max(rounds) <= 12 and elapsed < 120.0
    _verdict(2, "exact-oracle learner accuracy", ok,
             f"tv<=0.05 on {n_pass}/20 seeds, max tv {max(tvs):.2e}, "
             f"max rounds {max(rounds)}, {elapsed:.1f}s")


def test_criterion_03_counterexample_rank_progress():
    runs = list(_exact_runs())
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        dist = random_hmm(rng, 3, 2, 4)
        oracle = OracleHandle(dist, mode="exact", seed=seed)
        model, info = learn_exact(oracle, n_override=300)
        runs.append((dist, model, info))

    checked, ok = 0, True
    for dist, _, info in runs:
        for entry in info["trace"]:
            histories = [tuple(h) for h in entry["histories_before"]]
            tests = [tuple(f) for f in entry["tests_before"]]
            before = np.array([[dist.conditional_prob(b, f) for b in histories]
                               for f in tests])
            histories.append(tuple(entry["new_history"]))
            tests.append(tuple(entry["new_test"]))
            after = np.array([[dist.conditional_prob(b, f) for b in histories]
                              for f in tests])
            if np.linalg.matrix_rank(after) != np.linalg.matrix_rank(before) + 1:
                ok = False
            checked += 1
    _verdict(3, "counterexample rank progress", ok and checked > 0,
             f"{checked} counterexamples over {len(runs)} runs, "
             f"each raised the test-matrix rank by 1")


def test_criterion_04_parity_basis_fidelity():
    worst = 0.0
    for horizon in range(3, 7):
        dist = make_parity_hmm(horizon, alpha=0.25)
        report = fidelity_for_bases(dist, parity_class_bases(horizon))
        worst = max(worst, abs(report.min_sigma - 0.125))
    ok = worst <= 1e-6
    _verdict(4, "parity basis fidelity", ok,
             f"T=3..6, max |min-sigma - 0.125| = {worst:.2e}")


def test_criterion_05_full_rank_one_step_fidelity_floor():
    worst, worst_best = np.inf, np.inf
    for seed in range(20):
        dist = make_full_rank_hmm(2, 2, 4, seed, sigma_floor=0.25)
        floor = np.linalg.svd(sequence_two_step_matrix(dist),
                              compute_uv=False)[-1] ** 2
        fixed = fidelity_for_bases(dist, one_step_bases(dist))
        worst = min(worst, fixed.min_sigma - floor)
        _, best = search_fidelity_bases(dist, max_size=2)
        worst_best = min(worst_best, best.min_sigma - floor)
    ok = worst >= -1e-9 and worst_best >= -1e-9
    _verdict(5, "full-rank one-step fidelity floor", ok,
             f"20 seeds, min margin {worst:.2e} (one-step), "
             f"{worst_best:.2e} (best size-2 bases)")


def test_criterion_06_conditional_gap_tv_bound():
    etas = [0.05, 0.15, 0.3]
    worst = -np.inf
    ok = True
    for seed in range(20):
        n_symbols = 2 + seed % 2
        horizon = 3 + seed % 3
        base = make_random_table(n_symbols, horizon, seed=seed)
        noisy = perturb_conditionals(base, etas[seed % 3], seed=seed)
        bound = (horizon + 1) * n_symbols * conditional_gap_exact(base,
                                                                  noisy) / 2
        gap = tv_exact(base, noisy) - bound
        worst = max(worst, gap)
        ok = ok and gap <= 1e-12
    _verdict(6, "conditional-gap TV bound", ok,
             f"20 perturbed pairs, max tv-minus-bound {worst:.2e}")


def test_criterion_07_sampling_learner_accuracy():
    started = time.perf_counter()
    dist = make_parity_hmm(5, alpha=0.3)
    tvs, queries = [], 0
    for seed in range(10):
        oracle = OracleHandle(dist, mode="sampling", seed=seed)
        model, _ = learn_sampling(oracle, AlgoParams())
        tvs.append(tv_exact(dist, to_distribution(model, flavor="raw")))
        queries += oracle.stats.total
    elapsed = time.perf_counter() - started
    n_pass = sum(tv <= 0.15 for tv in tvs)
    ok = n_pass >= 8 and queries < 10**8 and elapsed < 600.0
    _verdict(7, "sampling learner accuracy", ok,
             f"tv<=0.15 on {n_pass}/10 seeds, max tv {max(tvs):.3f}, "
             f"{queries:.2e} queries, {elapsed:.1f}s")


def test_criterion_08_operator_error_decomposition():
    horizon = 4
    a1 = a2 = a3 = 0.01
    dist = make_parity_hmm(horizon, alpha=0.2)
    bases = _enlarged_parity_bases(horizon)

    coeff_bound = 0.0
    for t in range(1, horizon + 1):
        for history in all_seqs(2, t):
            coeff_bound = max(coeff_bound, float(np.linalg.norm(
                exact_coefficients(dist, bases[t], history))))

    theta = np.arcsin(a1)
    levels = [_level_projection(dist, members) for members in bases]
    rotated = []
    for proj, span, kernel in levels:
        if span is None:
            rotated.append(proj.copy())
            continue
        tilted = np.cos(theta) * span[:, -1] + np.sin(theta) * kernel
        noisy = np.outer(tilted, tilted) + np.outer(span[:, 0], span[:, 0])
        assert abs(np.linalg.norm(noisy - proj, 2) - a1) < 1e-12
        rotated.append(noisy)

    bound = 4 * np.sqrt(2) * coeff_bound * a1 \
        + np.sqrt(2) * coeff_bound * a3 + a2 + 1e-9
    worst = 0.0
    ok = True
    for t in range(horizon):
        proj_in, _, _ = levels[t]
        proj_out, span_out, _ = levels[t + 1]
        out_dir = span_out[:, -1] if span_out is not None else np.ones(1)
        for o in range(1, 3):
            beta = np.column_stack([
                exact_coefficients(dist, bases[t + 1], b + (o,))
                for b in bases[t]])
            step = np.array([dist.conditional_prob(b, (o,))
                             for b in bases[t]])
            coeff_noise = a2 * np.outer(out_dir, np.eye(len(bases[t]))[0])
            assert abs(np.linalg.norm(proj_out @ coeff_noise, 2) - a2) < 1e-12
            step_hat = step.copy()
            step_hat[0] += a3
            exact_op = proj_out @ beta @ np.diag(step) @ proj_in
            noisy_op = rotated[t + 1] @ (beta + coeff_noise) \
                @ np.diag(step_hat) @ rotated[t]
            err = np.linalg.norm(noisy_op - exact_op, 2)
            worst = max(worst, err)
            ok = ok and err <= bound
    _verdict(8, "operator error decomposition", ok,
             f"max op-norm error {worst:.4f} vs bound {bound:.4f}, "
             f"coeff bound {coeff_bound:.3f}")


def test_criterion_09_operator_noise_tv_propagation():
    horizon, n_symbols = 5, 2
    dist = make_parity_hmm(horizon, alpha=0.2)
    bases = _enlarged_parity_bases(horizon)
    model = construct_exact_operators(dist, bases)
    seqs = list(all_seqs(n_symbols, horizon))
    truth = enumerate_joint(dist)
    gate = max(abs(eval_prob(model, s) - p) for s, p in zip(seqs, truth))
    assert gate <= 1e-10

    projections = [_level_projection(dist, members)[0] for members in bases]

    def scaled(rng, shape, target):
        mat = rng.normal(size=shape)
        return mat * (target / np.linalg.norm(mat, 2))

    worst_ratio, ok = 0.0, True
    for eps_op in (1e-3, 1e-2):
        bound = 2 * n_symbols * horizon * eps_op
        for trial in range(5):
            rng = np.random.default_rng(trial)
            noisy_ops = []
            for t in range(horizon):
                shape = (len(bases[t + 1]), len(bases[t]))
                span_proj = projections[t + 1]
                kernel_proj = np.eye(shape[0]) - span_proj
                kernel_dim = shape[0] - int(round(np.trace(span_proj)))
                per_symbol = []
                for o in range(n_symbols):
                    delta = span_proj @ scaled(rng, shape,
                                               eps_op / np.sqrt(shape[0]))
                    if kernel_dim > 0:
                        delta = delta + kernel_proj @ scaled(
                            rng, shape, eps_op / np.sqrt(kernel_dim))
                    per_symbol.append(model.operators[t][o] + delta)
                noisy_ops.append(per_symbol)
            noisy = OomModel(n_symbols=n_symbols, horizon=horizon,
                             bases=model.bases, operators=noisy_ops)
            approx = np.array([eval_prob(noisy, s) for s in seqs])
            tv = 0.5 * float(np.abs(approx - truth).sum())
            worst_ratio = max(worst_ratio, tv / bound)
            ok = ok and tv <= bound
    _verdict(9, "operator noise TV propagation", ok,
             f"10 trials at eps 1e-3/1e-2, worst tv/bound {worst_ratio:.3f}")


def test_criterion_10_approximate_basis_recovery():
    dist = make_parity_hmm(4, alpha=0.3)
    residuals, ok = [], True
    for seed in range(10):
        oracle = OracleHandle(dist, mode="sampling", seed=seed)
        members, report = find_approx_basis(
            oracle, t=3, eps=0.1, regularity=0.1, rank_bound=2,
            repeat_for_unit_norm=False, seed=seed)
        ok = ok and len(report["rounds"]) <= report["round_cap"]
        residuals.append(expected_span_residual(dist, members))
    n_pass = sum(r <= 0.1 for r in residuals)
    ok = ok and n_pass >= 8
    _verdict(10, "approximate basis recovery", ok,
             f"residual<=0.1 on {n_pass}/10 seeds, "
             f"max residual {max(residuals):.2e}")


def test_criterion_11_elliptical_potential_bound():
    worst, ok = -np.inf, True
    for trial in range(100):
        rng = np.random.default_rng(trial)
        dim = 1 + trial % 5
        steps = int(rng.integers(1, 51))
        ridge = (0.1, 1.0)[trial % 2]
        vectors = rng.normal(size=(steps, dim)) * rng.uniform(0.05, 3.0)
        cap = float(np.linalg.norm(vectors, axis=1).max())
        gap = elliptical_potential(vectors, ridge) \
            - elliptical_potential_bound(steps, dim, cap, ridge)
        worst = max(worst, gap)
        ok = ok and gap <= 1e-12
    _verdict(11, "elliptical potential bound", ok,
             f"100 trials, max potential-minus-bound {worst:.2e}")


def test_criterion_12_irregular_future_mass_bound():
    worst, ok = -np.inf, True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n_states = 2 + seed % 3
        n_symbols = 2 + seed % 2
        horizon = 3 + seed % 3
        dist = random_hmm(rng, n_states, n_symbols, horizon)
        for alpha in (0.05, 0.1):
            cap = n_symbols * horizon * alpha
            for t in range(horizon):
                for history in all_seqs(n_symbols, t):
                    if dist.joint_prob(history) == 0.0:
                        continue
                    gap = irregular_mass(dist, history, alpha) - cap
                    worst = max(worst, gap)
                    ok = ok and gap <= 1e-12
    _verdict(12, "irregular future mass bound", ok,
             f"20 instances x 2 alphas, max mass-minus-bound {worst:.2e}")
