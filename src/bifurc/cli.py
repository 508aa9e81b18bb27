"""Command-line interface binding the experiments and labs to files.

Subcommands
-----------
calibrate-hessian   closed-form vs finite-difference critical-precision scan
toy bimodal         forward precision traversal on two-cluster data
toy unimodal        the same traversal on a single Gaussian (control)
toy hierarchy       two-stage traversal on nested clusters
toy reverse         anneal-hold forward run plus reverse traversal
toy endogenous      linear-autoencoder + probe co-evolution
sde pitchfork       scalar normal-form integration
sde coupled         multi-mode lottery run with persistence statistics
escape sweep        first-passage sweep over coupling levels, then model fits
escape fit          model comparison on a per-gamma statistics CSV
classify            shape-class report for a trajectory CSV

Every run writes into the output directory (``[run] out``, flag ``--out``);
all outputs embed the 12-hex config hash and the package version. Exit codes:
0 success, 2 configuration or validation problem, 3 numerical failure,
4 I/O failure. Seed sweeps run in a process pool; each per-seed file is
written by exactly one worker and the merged summary by the parent. The seed
list and the keys a command does not read are checked before any worker
starts: a negative or repeated seed, or an unread key away from its default,
exits 2.
"""

import argparse
import importlib.resources
import json
import math
import os
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULTS, build_config
from .csvio import run_identity, write_table
from .errors import ConfigError, NoFitError, NumericalError, ValidationError
from .escape_lab import fit_escape_models, read_sweep_csv, sweep_statistics, write_sweep_csv
from .experiments import (
    HIERARCHY_MAX1_STEPS,
    _quiet_overflow,
    branch_overlap,
    gen_bimodal,
    gen_hierarchical,
    gen_unimodal,
    read_trajectory_csv,
    run_endogenous,
    run_forward_split,
    run_hierarchical,
    run_reverse_traversal,
    trajectory_summary,
    write_trajectory_csv,
)
from .gmm_probe import ProbeConfig, beta_c, exact_collapsed
from .hessian import analytic_hessian, find_crossing, find_crossing_numeric, numerical_hessian
from .mathcore import covariance
from .sde import (
    SdeConfig,
    persistence_stats,
    predict_persistence,
    simulate_coupled_modes,
    simulate_pitchfork_1d,
)
from .svgplot import line_chart
from .taxonomy import ClassifierThresholds, axis_reading, classify

# Per-command defaults layered under any user-provided configuration: each
# experiment keeps the prototype counts, learning rates, and sizes its
# protocol was calibrated with unless the user explicitly overrides them.
_OVERLAYS = {
    ("toy", "bimodal"): {"probe": {"k": "8", "lr_means": "0.02"}},
    ("toy", "unimodal"): {"probe": {"k": "8", "lr_means": "0.02"}},
    ("toy", "hierarchy"): {"probe": {"k": "8", "lr_means": "0.08"},
                           "data": {"n": "4000", "scale": "0.5"}},
    ("toy", "reverse"): {"probe": {"k": "2"}, "data": {"n": "3000"}},
    ("toy", "endogenous"): {"probe": {"k": "8", "lr_means": "0.015"}, "data": {"n": "4000"},
                            "experiment": {"steps": "14000"}},
    ("sde", "pitchfork"): {
        "sde": {"steps": "10000", "init_scale": "1e-3", "eps0": "1e-3"}
    },
    ("sde", "coupled"): {
        "sde": {
            "coupling": "1e-3",
            "noise_intensity": "1e-5",
            "dt": "0.05",
            "steps": "1000",
            "modes": "50",
            "dim": "10",
            "init_scale": "0.05",
        }
    },
    # mu = 1e-5 and alpha = 0.1 put eps* at 0.01; the threshold eps*/2 and start
    # eps*/20 give tau ~= ln(10)/(mu + gamma) time units, so the gamma = 0
    # deterministic control needs ~4.9e6 steps and censors at the 1e6 horizon
    # while every gamma >= 1e-4 escapes well inside it
    ("escape", "sweep"): {"sde": {"growth_rate": "1e-5", "dt": "0.05", "init_scale": "5e-4"}},
}

_ENCODER_KEYS = tuple(("experiment", k) for k in ("encoder_lr", "latent_dim", "init_weight_scale"))
_DRIVE_KEYS = (("experiment", "steps"), ("experiment", "mode"))
# The (section, key) pairs a command does not read, so that a value other than
# its default would move only the config hash: reverse and hierarchy run
# constant drives (reverse's anneal at its own rate, hierarchy's from its own
# start level with no precision channel), only endogenous has an encoder but no
# forward-split mode, the scalar pitchfork has no coupling term, the coupled
# modes start at random, and the escape cells are scalar, start at init_scale,
# run to the [escape] horizon and take their coupling from the gammas.
_UNREAD_KEYS = {
    ("toy", "bimodal"): _ENCODER_KEYS,
    ("toy", "unimodal"): _ENCODER_KEYS,
    ("toy", "reverse"): _DRIVE_KEYS + _ENCODER_KEYS + (("probe", "lr_means"),
                                                       ("probe", "lr_logbeta")),
    ("toy", "hierarchy"): _DRIVE_KEYS + _ENCODER_KEYS + (("probe", "lr_logbeta"),
                                                         ("probe", "log_beta_init")),
    ("toy", "endogenous"): (("experiment", "mode"),),
    ("sde", "pitchfork"): (("sde", "coupling"),),
    ("sde", "coupled"): (("sde", "eps0"),),
    ("escape", "sweep"): tuple(("sde", k) for k in ("coupling", "steps", "modes", "dim", "eps0")),
}

# Keys too bulky for the merged cross-seed summary; they stay in the
# per-seed JSON files.
_BULKY_SUMMARY_KEYS = ("loss_trace", "branch")


# ---------------------------------------------------------------------------
# small shared helpers


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _payload(cfg, **fields):
    return {"config_hash": cfg.config_hash, "version": __version__, **fields}


def _json_fields(record):
    """A dataclass record's fields for JSON, a non-finite float written as null."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in asdict(record).items()}


def _fit_report_dict(report):
    if report is None:
        return None
    return {
        "model": report.model_kind,
        "intercept": float(report.coefficients[0]),
        "slope": float(report.coefficients[1]),
        "chi_squared": float(report.chi_squared),
        "aic": float(report.aic),
    }


def _resolve_input(raw):
    """An existing path, else a bundled fixture of the same name."""
    if raw is None:
        raise ConfigError("this command needs --input PATH")
    p = Path(raw)
    if p.exists():
        return p
    bundled = importlib.resources.files("bifurc") / "fixtures" / raw
    if bundled.is_file():
        return bundled
    raise FileNotFoundError(f"input not found: {raw}")


def _parallel_map(fn, jobs):
    """Map over jobs in a process pool; serial for single jobs or broken pools."""
    jobs = list(jobs)
    if len(jobs) <= 1:
        return [fn(j) for j in jobs]
    workers = min(len(jobs), os.cpu_count() or 1)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    except (BrokenExecutor, OSError):
        return [fn(j) for j in jobs]


def _sweep_seeds(cfg, out_dir, experiment, worker, summarize):
    """Run worker((cfg, seed, out)) for every seed, then summarize in seed order.

    Each worker writes its own per-seed files and returns a tuple whose
    first item is its seed. summarize(results) returns (fields, chart): the
    merged summary's fields (per_seed among them) besides experiment and
    seeds, and line_chart's keyword arguments, or None to draw no chart.
    """
    seeds = cfg.seeds()
    jobs = [(cfg, seed, str(out_dir)) for seed in seeds]
    results = sorted(_parallel_map(worker, jobs), key=lambda r: r[0])
    fields, chart = summarize(results)
    path = out_dir / f"{experiment}_summary.json"
    _write_json(path, _payload(cfg, experiment=experiment, seeds=seeds, **fields))
    if chart is not None:
        line_chart(out_dir / f"{experiment}.svg", **chart)
    print(f"wrote {path}")
    return 0


def _probe_config(cfg):
    return ProbeConfig(
        K_probe=cfg.get_int("probe", "k"),
        lr_means=cfg.get_float("probe", "lr_means"),
        lr_logbeta=cfg.get_float("probe", "lr_logbeta"),
        log_beta_init=cfg.get_float("probe", "log_beta_init"),
    )


def _sde_config(cfg, seed):
    return SdeConfig(
        growth_rate=cfg.get_float("sde", "growth_rate"),
        alpha=cfg.get_float("sde", "alpha"),
        coupling=cfg.get_float("sde", "coupling"),
        noise_intensity=cfg.get_float("sde", "noise_intensity"),
        dt=cfg.get_float("sde", "dt"),
        steps=cfg.get_int("sde", "steps"),
        modes=cfg.get_int("sde", "modes"),
        dim=cfg.get_int("sde", "dim"),
        init_scale=cfg.get_float("sde", "init_scale"),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# calibrate-hessian


@_quiet_overflow()
def _cmd_calibrate_hessian(cfg, out_dir):
    k = cfg.get_int("probe", "k")
    source = cfg.get_choice("hessian", "source", {"bimodal", "identity"})
    seed = cfg.seeds()[0]
    if source == "identity":
        dim = cfg.get_int("data", "dim")
        if dim < 1:
            raise ConfigError("data.dim must be >= 1")
        cov = np.eye(dim)
        samples = None
    else:
        samples = _toy_dataset("bimodal", cfg, seed).samples
        cov = covariance(samples)
    guess = beta_c(cov)
    lo = guess * cfg.get_float("hessian", "bracket_lo_ratio")
    hi = guess * cfg.get_float("hessian", "bracket_hi_ratio")
    report = find_crossing(k, cov, lo, hi)
    result = {
        "k": k,
        "source": source,
        "seed": seed,
        "beta_critical_analytic": float(report.beta_critical_analytic),
        "beta_critical_numeric": float(report.beta_critical_numeric),
        "crossing_gap": float(
            abs(report.beta_critical_numeric - report.beta_critical_analytic)
        ),
        "crossing_iterations": report.iterations,
    }
    if samples is None:
        result.update(
            beta_critical_finite_difference=None,
            finite_difference_gap=None,
            max_abs_hessian_difference=None,
            finite_difference_hessians=None,
        )
    else:
        fd_bc, fd_hessians = find_crossing_numeric(k, samples, lo, hi)
        beta_ref = report.beta_critical_analytic
        state = exact_collapsed(samples, k, math.log(beta_ref))
        numeric = numerical_hessian(state, samples)
        analytic = analytic_hessian(beta_ref, k, cov)
        result.update(
            beta_critical_finite_difference=float(fd_bc),
            finite_difference_gap=float(abs(fd_bc - report.beta_critical_analytic)),
            max_abs_hessian_difference=float(np.max(np.abs(numeric - analytic))),
            finite_difference_hessians=fd_hessians + 1,
        )
    _write_json(out_dir / "hessian_report.json", _payload(cfg, **result))
    xs = [b for b, _ in report.scan_points]
    ys = [v for _, v in report.scan_points]
    line_chart(
        out_dir / "hessian_scan.svg",
        [("lowest eigenvalue", xs, ys), ("zero", [xs[0], xs[-1]], [0.0, 0.0])],
        title="lowest Hessian eigenvalue vs precision",
        x_label="beta",
        y_label="lowest eigenvalue",
    )
    print(f"wrote {out_dir / 'hessian_report.json'}")
    return 0


# ---------------------------------------------------------------------------
# toy experiments


@_quiet_overflow()
def _toy_dataset(sub, cfg, seed):
    """The toy dataset; one whose sample covariance overflows is a validation error.

    Every kind but unimodal is 2-D, so there [data] dim must be 2.
    """
    n = cfg.get_int("data", "n")
    dim = cfg.get_int("data", "dim")
    if sub != "unimodal" and dim != 2:
        raise ConfigError(f"data.dim must be 2: the {sub} data are 2-D, got {dim}")
    if sub in ("bimodal", "reverse", "endogenous"):
        dataset = gen_bimodal(
            n,
            cfg.get_float("data", "center_offset"),
            cfg.get_float("data", "scale"),
            seed=seed,
        )
    elif sub == "unimodal":
        dataset = gen_unimodal(n, dim, cfg.get_float("data", "scale"), seed=seed)
    else:
        dataset = gen_hierarchical(
            n,
            cfg.get_float("data", "super_spacing"),
            cfg.get_float("data", "sub_spacing"),
            cfg.get_float("data", "scale"),
            seed=seed,
        )
    if not np.isfinite(covariance(dataset.samples)).all():
        raise ValidationError("[data] values overflow the sample covariance")
    return dataset


def _toy_logs(sub, cfg, seed):
    """The trajectory logs of one seed of `toy sub`, by CSV suffix.

    The reverse leg's summary also carries the run's reverse_tracking_error
    and branch_overlap.
    """
    dataset = _toy_dataset(sub, cfg, seed)
    probe = _probe_config(cfg)
    record_every = cfg.get_int("experiment", "record_every")
    if sub in ("bimodal", "unimodal"):
        log, _ = run_forward_split(
            dataset, probe, cfg.get_choice("experiment", "mode", {"learned", "anneal"}),
            steps=cfg.get_int("experiment", "steps"), record_every=record_every,
        )
        return {"": log}
    if sub == "reverse":
        forward, state = run_forward_split(dataset, probe, "anneal", record_every=record_every)
        reverse = run_reverse_traversal(dataset, state)
        merge_err = reverse.summary.get("merge_relative_error")
        reverse.summary["reverse_tracking_error"] = (
            None if merge_err is None else abs(float(merge_err))
        )
        reverse.summary["branch_overlap"] = branch_overlap(forward, reverse)
        return {"_forward": forward, "_reverse": reverse}
    if sub == "endogenous":
        return {"": run_endogenous(
            dataset,
            encoder_lr=cfg.get_float("experiment", "encoder_lr"),
            config=probe,
            steps=cfg.get_int("experiment", "steps"),
            latent_dim=cfg.get_int("experiment", "latent_dim"),
            init_weight_scale=cfg.get_float("experiment", "init_weight_scale"),
            record_every=record_every,
        )}
    return {"": run_hierarchical(dataset, probe, record_every)}


def _toy_worker(sub, job):
    """Run one seed of `toy sub` and write its own files.

    Returns (seed, summaries, trace): the summaries by CSV suffix, and the
    (steps, log ratios) of the run's readings (None for `toy reverse`).
    """
    cfg, seed, out = job
    out_dir = Path(out)
    logs = _toy_logs(sub, cfg, seed)
    summaries = {}
    for suffix, log in logs.items():
        log.config_hash = cfg.config_hash
        write_trajectory_csv(log, out_dir / f"toy-{sub}_seed{seed}{suffix}.csv")
        summaries[suffix] = trajectory_summary(log)
    _write_json(out_dir / f"toy-{sub}_seed{seed}.json", _payload(cfg, **{
        "experiment": f"toy-{sub}",
        "seed": seed,
        **(summaries[""] if "" in summaries else {
            "forward": summaries["_forward"],
            "reverse": summaries["_reverse"],
            "reverse_tracking_error": summaries["_reverse"]["reverse_tracking_error"],
        }),
    }))
    log = logs.get("")
    trace = None if log is None else ([r.step for r in log.readings], list(log.column("log_ratio")))
    return seed, summaries, trace


def _prune_summary(summary):
    return {k: v for k, v in summary.items() if k not in _BULKY_SUMMARY_KEYS}


def _toy_summary(sub, results):
    per_seed = {}
    for seed, summaries, _ in results:
        if sub == "hierarchy" and not summaries[""]["events"]:
            print(f"warning: seed {seed}: stage 1 did not activate within HIERARCHY_MAX1_STEPS"
                  f" = {HIERARCHY_MAX1_STEPS} steps; no events recorded", file=sys.stderr)
        if "" in summaries:
            per_seed[str(seed)] = _prune_summary(summaries[""])
        else:
            per_seed[str(seed)] = {
                "forward": _prune_summary(summaries["_forward"]),
                "reverse": _prune_summary(summaries["_reverse"]),
            }
    if sub != "reverse":
        series = [(f"seed {seed}", *trace) for seed, _, trace in results]
        xs = series[0][1]
        series.append(("crossing", [xs[0], xs[-1]], [0.0, 0.0]))
        return {"per_seed": per_seed}, dict(
            series=series, title=f"toy {sub}: precision ratio trajectory",
            x_label="step", y_label="log(beta / beta_c)")
    errors = [run["reverse"]["reverse_tracking_error"] for run in per_seed.values()]
    fields = {
        "per_seed": per_seed,
        "reverse_tracking_error": None if any(e is None for e in errors) else max(errors),
    }
    series = []
    for seed, summaries, _ in results:
        for leg in ("_forward", "_reverse"):
            pts = sorted(summaries[leg].get("branch") or [])
            if pts:
                series.append((f"seed {seed}{leg.replace('_', ' ')}",
                               [p[0] for p in pts], [p[1] for p in pts]))
    if not series:
        return fields, None
    return fields, dict(series=series,
                        title="equilibrium branches: prototype separation vs precision",
                        x_label="beta", y_label="order parameter")


def _cmd_toy(sub, cfg, out_dir):
    return _sweep_seeds(cfg, out_dir, f"toy-{sub}", partial(_toy_worker, sub),
                        partial(_toy_summary, sub))


# ---------------------------------------------------------------------------
# sde


def _pitchfork_worker(job):
    cfg, seed, out = job
    config = _sde_config(cfg, seed)
    run = simulate_pitchfork_1d(config, eps0=cfg.get_optional_float("sde", "eps0"))
    ts = [float(t) for t in run.times]
    eps = [float(e) for e in run.path_samples[:, 0, 0]]
    write_table(Path(out) / f"sde-pitchfork_seed{seed}.csv", ["t", "epsilon"], zip(ts, eps),
                [run_identity("sde-pitchfork", cfg.config_hash, seed)])
    return seed, ts, eps


@_quiet_overflow()
def _cmd_sde_pitchfork(cfg, out_dir):
    def summarize(results):
        base = _sde_config(cfg, cfg.seeds()[0])
        eps_star = float(base.epsilon_star) if base.growth_rate > 0 else 0.0
        per_seed = {
            str(seed): {"final_epsilon": eps[-1], "n_recorded": len(eps)}
            for seed, _, eps in results
        }
        t_lo, t_hi = results[0][1][0], results[0][1][-1]
        series = [(f"seed {s}", ts, eps) for s, ts, eps in results]
        series.append(("saturation", [t_lo, t_hi], [eps_star, eps_star]))
        return {"saturation_amplitude": eps_star, "per_seed": per_seed}, dict(
            series=series, title="pitchfork normal form: amplitude vs time",
            x_label="t", y_label="epsilon")

    return _sweep_seeds(cfg, out_dir, "sde-pitchfork", _pitchfork_worker, summarize)


def _coupled_worker(job):
    cfg, seed, out = job
    run = simulate_coupled_modes(_sde_config(cfg, seed))
    stats = persistence_stats(run)
    cosines = iter(stats.cosines.tolist())  # one per mode that is not excluded
    rows = [(mode, p0, p1, None if mode in stats.excluded_modes else next(cosines))
            for mode, (p0, p1) in enumerate(stats.projection_pairs.tolist())]
    write_table(
        Path(out) / f"sde-coupled_seed{seed}.csv",
        ["mode", "projection_initial", "projection_final", "cosine"],
        rows,
        [run_identity("sde-coupled", cfg.config_hash, seed)],
    )
    mean_cos = float(np.mean(stats.cosines)) if len(stats.cosines) else None
    return seed, float(stats.spearman_rho), mean_cos, len(stats.excluded_modes)


@_quiet_overflow()
def _cmd_sde_coupled(cfg, out_dir):
    modes = cfg.get_int("sde", "modes")
    if modes < 3:
        raise ConfigError(f"sde.modes must be >= 3 for the persistence Spearman, got {modes}")
    prediction = predict_persistence(_sde_config(cfg, cfg.seeds()[0]))

    def summarize(results):
        seeds, rhos, cosines = ([r[i] for r in results] for i in range(3))
        mean_rho = float(np.mean(rhos))
        fields = {
            "mean_spearman_rho": mean_rho,
            "min_spearman_rho": float(np.min(rhos)),
            "per_seed": {
                str(seed): {
                    "spearman_rho": rho,
                    "mean_cosine": mean_cos,
                    "excluded_modes": excluded,
                }
                for seed, rho, mean_cos, excluded in results
            },
            # an infinite time or amplitude (no noise floor) is written as null
            "prediction": _json_fields(prediction),
        }
        series = [
            ("spearman rho", seeds, rhos),
            ("mean", [seeds[0], seeds[-1]], [mean_rho, mean_rho]),
        ]
        if all(c is not None for c in cosines):
            series.append(("mean cosine", seeds, cosines))
        return fields, dict(series=series, title="mode-lottery persistence across seeds",
                            x_label="seed", y_label="statistic")

    return _sweep_seeds(cfg, out_dir, "sde-coupled", _coupled_worker, summarize)


# ---------------------------------------------------------------------------
# escape


def _fit_payload(summary):
    return {
        "power_law": _fit_report_dict(summary.power_law),
        "kramers": _fit_report_dict(summary.kramers),
        "delta_aic": None if summary.delta_aic is None else float(summary.delta_aic),
        "unit_weights_used": bool(summary.unit_weights_used),
    }


def _plot_escape_fit(path, stats, summary):
    points = [
        (s.gamma, s.tau_mean)
        for s in stats
        if s.tau_mean is not None and s.gamma > 0 and s.tau_mean > 0
    ]
    if not points:
        return
    lg = [math.log10(g) for g, _ in points]
    lt = [math.log10(t) for _, t in points]
    series = [("measured", lg, lt)]
    if summary is not None and summary.power_law is not None:
        grid = np.linspace(min(lg), max(lg), 40)
        a, b = summary.power_law.coefficients
        series.append(
            ("power law", list(grid), [(a + b * (x * math.log(10))) / math.log(10) for x in grid])
        )
        a, b = summary.kramers.coefficients
        series.append(
            (
                "exponential",
                list(grid),
                [(a + b * (10.0 ** x)) / math.log(10) for x in grid],
            )
        )
    line_chart(
        path,
        series,
        title="mean escape time vs coupling",
        x_label="log10 gamma",
        y_label="log10 tau",
    )


def _cmd_escape_sweep(cfg, out_dir):
    stats = sweep_statistics(
        cfg.get_float_list("escape", "gammas"),
        cfg.get_int("escape", "seeds_per_gamma"),
        _sde_config(cfg, cfg.seeds()[0]),
        cfg.get_float("escape", "tilt_curvature"),
        cfg.get_float("escape", "threshold"),
        cfg.get_int("escape", "horizon"),
        _parallel_map,
    )
    write_sweep_csv(
        out_dir / "escape-sweep.csv",
        stats,
        preamble=run_identity("escape-sweep", cfg.config_hash),
    )
    warning = None
    summary = None
    try:
        summary = fit_escape_models(stats)
    except NoFitError:
        warning = "all sweep cells censored within the horizon; no model fit performed"
    if summary is not None and summary.power_law is None:
        warning = "fewer than 3 uncensored gamma > 0 levels; no model fit performed"
    payload = {
        "experiment": "escape-sweep",
        "per_gamma": [_json_fields(s) for s in stats],
        "fit": None if summary is None else _fit_payload(summary),
        "warning": warning,
    }
    _write_json(out_dir / "escape-sweep.json", _payload(cfg, **payload))
    _plot_escape_fit(out_dir / "escape-sweep.svg", stats, summary)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {out_dir / 'escape-sweep.json'}")
    return 0


def _cmd_escape_fit(cfg, out_dir, input_arg):
    path = _resolve_input(input_arg)
    stats = read_sweep_csv(path)
    summary = fit_escape_models(stats)
    if summary.power_law is None:
        raise NoFitError("fewer than 3 uncensored gamma > 0 levels: cannot fit")
    payload = {"experiment": "escape-fit", "input": Path(str(path)).name}
    payload.update(_fit_payload(summary))
    _write_json(out_dir / "escape-fit.json", _payload(cfg, **payload))
    _plot_escape_fit(out_dir / "escape-fit.svg", stats, summary)
    print(f"wrote {out_dir / 'escape-fit.json'}")
    return 0


# ---------------------------------------------------------------------------
# classify


def _cmd_classify(cfg, out_dir, input_arg):
    path = _resolve_input(input_arg)
    log = read_trajectory_csv(path)
    thresholds = ClassifierThresholds(
        decoupling_abs_corr=cfg.get_float("taxonomy", "decoupling_abs_corr"),
        plateau_fraction=cfg.get_float("taxonomy", "plateau_fraction"),
        descent_decades=cfg.get_float("taxonomy", "descent_decades"),
        fold_return=cfg.get_float("taxonomy", "fold_return"),
        smooth_window=cfg.get_int("taxonomy", "smooth_window"),
        min_readings=cfg.get_int("taxonomy", "min_readings"),
    )
    horizon = cfg.get_optional_float("taxonomy", "horizon")
    shape = classify(log, horizon=horizon, thresholds=thresholds)
    axes = axis_reading(log, horizon=horizon, thresholds=thresholds)
    payload = _payload(
        cfg,
        input=Path(str(path)).name,
        label=shape.label,
        descent_corr=float(shape.descent_corr),
        descent_sign=int(shape.descent_sign),
        plateau_fraction=float(shape.plateau_fraction),
        decoupling_corr=float(shape.decoupling_corr),
        indeterminate=bool(shape.indeterminate),
        axes={
            "initial_criticality": axes.initial_criticality,
            "rate_ordering": axes.rate_ordering,
            "dissipation_regime": axes.dissipation_regime,
        },
    )
    _write_json(out_dir / "classify.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(parser, with_input=False):
    parser.add_argument("--config", metavar="PATH", help="INI configuration file")
    parser.add_argument("--preset", metavar="NAME", help="bundled preset name")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, metavar="N", help="single RNG seed")
    group.add_argument(
        "--seeds", type=int, metavar="N", help="sweep over seeds 0..N-1"
    )
    parser.add_argument("--out", metavar="DIR", help="output directory")
    if with_input:
        parser.add_argument(
            "--input",
            metavar="PATH",
            help="input CSV (a path, or the name of a bundled fixture)",
        )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bifurc",
        description="Representation-bifurcation toolkit: probes, Hessians, "
        "stochastic simulators, escape fits, and trajectory classification.",
    )
    parser.add_argument(
        "--version", action="version", version=f"bifurc {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "calibrate-hessian",
        help="compare closed-form and finite-difference critical precision",
    )
    _add_common(p)

    p = sub.add_parser("toy", help="run one toy experiment")
    p.add_argument(
        "subcommand",
        choices=["bimodal", "unimodal", "hierarchy", "reverse", "endogenous"],
    )
    _add_common(p)

    p = sub.add_parser("sde", help="run one stochastic simulator")
    p.add_argument("subcommand", choices=["pitchfork", "coupled"])
    _add_common(p)

    p = sub.add_parser("escape", help="escape-time sweep or model fit")
    p.add_argument("subcommand", choices=["sweep", "fit"])
    _add_common(p, with_input=True)

    p = sub.add_parser("classify", help="classify a trajectory CSV")
    _add_common(p, with_input=True)

    return parser


def _flag_overrides(args):
    flags = {}
    if getattr(args, "seed", None) is not None:
        flags.setdefault("run", {})["seeds"] = str(args.seed)
    if getattr(args, "seeds", None) is not None:
        if args.seeds < 1:
            raise ConfigError("--seeds must be >= 1")
        flags.setdefault("run", {})["seeds"] = ",".join(
            str(i) for i in range(args.seeds)
        )
    if getattr(args, "out", None) is not None:
        flags.setdefault("run", {})["out"] = args.out
    return flags


def _dispatch(args):
    sub = getattr(args, "subcommand", None)
    overlay = _OVERLAYS.get((args.command, sub), {})
    cfg = build_config(
        overlay=overlay,
        preset=args.preset,
        path=args.config,
        flags=_flag_overrides(args),
    )
    cfg.seeds()  # every command validates the seed list
    for section, key in _UNREAD_KEYS.get((args.command, sub), ()):
        default = overlay.get(section, {}).get(key, DEFAULTS[section][key])
        if cfg.get(section, key) != default:
            raise ConfigError(
                f"{args.command} {sub} does not read {section}.{key}: keep it at {default!r}")
    out_dir = Path(cfg.get("run", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.command == "calibrate-hessian":
        return _cmd_calibrate_hessian(cfg, out_dir)
    if args.command == "toy":
        return _cmd_toy(sub, cfg, out_dir)
    if args.command == "sde":
        if sub == "pitchfork":
            return _cmd_sde_pitchfork(cfg, out_dir)
        return _cmd_sde_coupled(cfg, out_dir)
    if args.command == "escape":
        if sub == "sweep":
            return _cmd_escape_sweep(cfg, out_dir)
        return _cmd_escape_fit(cfg, out_dir, args.input)
    return _cmd_classify(cfg, out_dir, args.input)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ValidationError as exc:  # includes ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
