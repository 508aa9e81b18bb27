"""Acceptance gate: ten primary quantitative checks, one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines; each check
also enforces its wall-clock budget, so a pass certifies both the numbers
and the runtime.
"""

import math
import time

import importlib.resources
import numpy as np

from bifurc.cli import _sde_config
from bifurc.config import build_config
from bifurc.escape_lab import fit_escape_models, read_sweep_csv
from bifurc.experiments import gen_bimodal, read_trajectory_csv
from bifurc.gmm_probe import (
    GmmProbeState,
    ProbeConfig,
    beta_c,
    exact_collapsed,
    grad_step,
    init_collapsed,
    probe_step,
)
from bifurc.hessian import analytic_hessian, channel_spectrum, find_crossing, numerical_hessian
from bifurc.mathcore import covariance, sym_eigen
from bifurc.sde import persistence_stats, simulate_coupled_modes
from bifurc.taxonomy import REGIMES, classify
from oracles import (
    command_config,
    escape_sweep,
    flat_spectrum,
    nll,
    recovery_rate,
    responsibilities,
    toy_logs,
)

FIXTURES = importlib.resources.files("bifurc") / "fixtures"


def _finish(num, budget_s, t0, ok, detail):
    elapsed = time.perf_counter() - t0
    within = elapsed < budget_s
    status = "PASS" if (ok and within) else "FAIL"
    over = "" if within else f" [over {budget_s:.0f}s budget]"
    line = f"criterion {num:02d} {status} ({elapsed:.1f}s{over}): {detail}"
    print(line)
    assert ok and within, line


def test_criterion_01_hessian_calibration():
    t0 = time.perf_counter()
    z = gen_bimodal(2000, seed=0).samples
    cov = covariance(z)
    guess = beta_c(cov)
    report = find_crossing(10, cov, 0.5 * guess, 1.5 * guess)
    gap = abs(report.beta_critical_numeric - report.beta_critical_analytic)
    beta = report.beta_critical_analytic
    state = exact_collapsed(z, 10, math.log(beta))
    deviation = float(
        np.max(np.abs(numerical_hessian(state, z) - analytic_hessian(beta, 10, cov)))
    )
    _finish(
        1,
        10.0,
        t0,
        gap <= 1e-4 and deviation <= 1e-4,
        f"crossing gap {gap:.2e}, max Hessian entry deviation {deviation:.2e} (tol 1e-4)",
    )


def test_criterion_02_channel_spectrum_degeneracies():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        d = int(rng.integers(1, 11))
        beta = float(10.0 ** rng.uniform(-1.0, 0.5))
        a = rng.standard_normal((d, d))
        cov = a @ a.T / d + 0.1 * np.eye(d)
        dense = np.sort(sym_eigen(analytic_hessian(beta, k, cov)).eigenvalues)
        closed = np.sort(flat_spectrum(channel_spectrum(beta, k, sym_eigen(cov).eigenvalues)))
        worst = max(worst, float(np.max(np.abs(dense - closed))))
    _finish(
        2,
        30.0,
        t0,
        worst <= 1e-9,
        f"100 random (beta, K, d, cov) instances, worst spectrum gap {worst:.2e} (tol 1e-9)",
    )


def test_criterion_03_coupled_mode_lottery():
    t0 = time.perf_counter()
    cfg = build_config(preset="appendix-d3")
    rhos = []
    for seed in range(5):
        run = simulate_coupled_modes(_sde_config(cfg, seed))
        rhos.append(float(persistence_stats(run).spearman_rho))
    mean = float(np.mean(rhos))
    _finish(
        3,
        60.0,
        t0,
        0.93 <= mean <= 0.97 and min(rhos) > 0.90,
        f"5-seed Spearman mean {mean:.4f} in [0.93, 0.97], min {min(rhos):.4f} > 0.90",
    )


def test_criterion_04_fixture_refit():
    t0 = time.perf_counter()
    stats = read_sweep_csv(FIXTURES / "table5.csv")
    summary = fit_escape_models(stats)
    p, k = summary.power_law, summary.kramers
    checks = [
        abs(p.coefficients[0] - 9.11) <= 0.01,
        abs(p.coefficients[1] - (-1.225)) <= 0.005,
        abs(p.chi_squared - 1.52) <= 0.02,
        abs(p.aic - 5.52) <= 0.02,
        abs(k.coefficients[0] - 11.65) <= 0.02,
        abs(k.coefficients[1] - (-2.631)) <= 0.01,
        abs(k.chi_squared - 20.78) <= 0.1,
        abs(summary.delta_aic - 19.26) <= 0.1,
    ]
    _finish(
        4,
        1.0,
        t0,
        all(checks),
        f"power ({p.coefficients[0]:.3f}, {p.coefficients[1]:.4f}, chi2 {p.chi_squared:.3f}, "
        f"aic {p.aic:.3f}); exponential ({k.coefficients[0]:.3f}, {k.coefficients[1]:.3f}, "
        f"chi2 {k.chi_squared:.2f}); delta_aic {summary.delta_aic:.2f}",
    )


def test_criterion_05_escape_monotonicity():
    t0 = time.perf_counter()
    cfg = command_config("escape", "sweep")
    summary = escape_sweep(
        cfg.get_float_list("escape", "gammas"), cfg.get_int("escape", "seeds_per_gamma"),
        _sde_config(cfg, cfg.seeds()[0]), cfg.get_float("escape", "tilt_curvature"),
        cfg.get_float("escape", "threshold"), cfg.get_int("escape", "horizon"),
    )
    zero = [s for s in summary.per_gamma if s.gamma == 0.0][0]
    zero_censored = zero.tau_mean is None and zero.n_censored == 3
    positive = [s for s in summary.per_gamma if s.gamma > 0.0]
    means = [s.tau_mean for s in positive]
    monotone = all(m is not None for m in means) and all(
        a > b for a, b in zip(means, means[1:])
    )
    exponent = abs(float(summary.power_law.coefficients[1]))
    _finish(
        5,
        300.0,
        t0,
        zero_censored and monotone and exponent >= 0.9,
        f"gamma=0 censored {zero.n_censored}/3, mean tau strictly decreasing over "
        f"{len(positive)} gamma levels, |power-law exponent| {exponent:.3f} >= 0.9",
    )


def test_criterion_06_endogenous_crossing():
    t0 = time.perf_counter()
    details = []
    ok = True
    # the dynamical output is when activation fires: pinned per seed
    pinned_activation = [6840, 6100, 6060, 6680, 6340]
    for seed in range(5):
        log = toy_logs("endogenous", seed)[""]
        s = log.summary
        crossing = s["crossing_step"]
        activations = s["activation_steps"]
        seed_ok = (
            s["delta0"] < 0.0
            and crossing == 160
            and activations == [pinned_activation[seed]]
        )
        ok = ok and seed_ok
        details.append(f"s{seed}:{crossing}->{min(activations) if activations else None}")
    _finish(
        6,
        60.0,
        t0,
        ok,
        "delta(0) < 0, crossing 160, activation at its pinned step in 5/5 seeds "
        f"({', '.join(details)})",
    )


def test_criterion_07_reverse_traversal():
    t0 = time.perf_counter()
    logs = toy_logs("reverse", 0)
    forward, reverse = logs["_forward"], logs["_reverse"]
    merge_err = abs(reverse.summary["merge_relative_error"])
    overshoot = forward.summary["overshoot_ratio"]
    _finish(
        7,
        60.0,
        t0,
        merge_err <= 0.04 and 1.0 <= overshoot <= 1.6,
        f"reverse merge tracks beta_c within {100 * merge_err:.2f}% (<= 4%), "
        f"overshoot {overshoot:.3f} in [1.0, 1.6]",
    )


def test_criterion_08_hierarchy_two_stage():
    t0 = time.perf_counter()
    events_ok = True
    quad_hits = 0
    details = []
    for seed in range(3):
        log = toy_logs("hierarchy", seed)[""]
        s = log.summary
        events = s["events"]
        seed_events_ok = len(events) == 2 and all(
            abs(e["ratio_to_target"] - 1.0) <= 0.35 for e in events
        )
        events_ok = events_ok and seed_events_ok
        quad = s.get("prototypes_per_super")
        if quad == [2, 2, 2, 2]:
            quad_hits += 1
        ratios = ",".join(f"{e['ratio_to_target']:.2f}" for e in events)
        details.append(f"s{seed}:[{ratios}]{'+quad' if quad == [2, 2, 2, 2] else ''}")
    _finish(
        8,
        120.0,
        t0,
        events_ok and quad_hits >= 2,
        f"both events within 35% of their stage targets in 3/3 seeds, "
        f"2+2+2+2 assignment in {quad_hits}/3 seeds ({'; '.join(details)})",
    )


def test_criterion_09_probe_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst_rel = 0.0
    rows_ok = True
    h = 1e-5
    for _ in range(50):
        k = int(rng.integers(2, 7))
        d = int(rng.integers(1, 5))
        n = int(rng.integers(10, 40))
        z = rng.standard_normal((n, d)) * float(rng.uniform(0.5, 2.0))
        state = GmmProbeState(rng.standard_normal((k, d)), float(rng.uniform(-1, 1)), k, d)
        cfg = ProbeConfig(K_probe=k, lr_means=1.0, lr_logbeta=1.0)
        stepped = grad_step(state, z, cfg)
        grad_means = state.means - stepped.means
        grad_logbeta = state.log_precision - stepped.log_precision
        fd_means = np.zeros_like(state.means)
        for i in range(k):
            for a in range(d):
                up, dn = state.means.copy(), state.means.copy()
                up[i, a] += h
                dn[i, a] -= h
                fd_means[i, a] = (
                    nll(GmmProbeState(up, state.log_precision, k, d), z)
                    - nll(GmmProbeState(dn, state.log_precision, k, d), z)
                ) / (2 * h)
        fd_logbeta = (
            nll(GmmProbeState(state.means, state.log_precision + h, k, d), z)
            - nll(GmmProbeState(state.means, state.log_precision - h, k, d), z)
        ) / (2 * h)
        ref = max(float(np.max(np.abs(fd_means))), abs(fd_logbeta))
        err = max(float(np.max(np.abs(grad_means - fd_means))), abs(grad_logbeta - fd_logbeta))
        worst_rel = max(worst_rel, err / ref)
        p = responsibilities(state, z)
        rows_ok = rows_ok and bool(
            np.all(p >= 0) and np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
        )
    latents = np.random.default_rng(99).standard_normal((200, 3))
    log_bcs = set()
    for k_probe in (2, 5, 9):
        cfg = ProbeConfig(K_probe=k_probe)
        state = init_collapsed(latents, cfg, np.random.default_rng(0))
        _, reading = probe_step(state, latents, cfg)
        log_bcs.add(reading.log_beta_c)
    _finish(
        9,
        30.0,
        t0,
        worst_rel <= 1e-5 and rows_ok and len(log_bcs) == 1,
        f"50-instance gradient check worst relative error {worst_rel:.2e} (tol 1e-5), "
        f"responsibilities row-stochastic, beta_c bit-identical across K_probe in (2, 5, 9)",
    )


def test_criterion_10_taxonomy_recovery():
    t0 = time.perf_counter()
    rates = {regime: recovery_rate(regime, n_trials=200) for regime in REGIMES}
    fixtures = {
        "exemplar_full_v.csv": "FullV",
        "exemplar_fold_back.csv": "FoldBack",
        "exemplar_no_arc.csv": "NoArc",
    }
    fixtures_ok = all(
        classify(read_trajectory_csv(FIXTURES / name)).label == label
        for name, label in fixtures.items()
    )
    _finish(
        10,
        30.0,
        t0,
        all(r >= 0.95 for r in rates.values()) and fixtures_ok,
        "recovery on 200 trajectories/regime "
        + ", ".join(f"{k} {v:.3f}" for k, v in sorted(rates.items()))
        + " (>= 0.95); exemplar fixtures classify FullV/FoldBack/NoArc",
    )
