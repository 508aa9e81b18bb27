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
written by exactly one worker and the merged summary by the parent. A command
reads its whole configuration in the parent before it creates the output
directory: a negative or repeated seed, or a key the command did not read, in
a section it read from, whose text is not the command's default, exits 2. A
refusal that comes after that (exit 2) removes the directories the command
created while they are still empty.
"""

import argparse
import importlib.resources
import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULTS, MAX_JOBS, build_config
from .csvio import run_identity, write_table
from .errors import ConfigError, NoFitError, NumericalError, ValidationError
from .escape_lab import (
    fit_escape_models,
    fitted_levels,
    read_sweep_csv,
    sweep_statistics,
    write_sweep_csv,
)
from .experiments import (
    HIERARCHY_MAX1_STEPS,
    _quiet_overflow,
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
from .gmm_probe import ProbeConfig, check_rates, critical_spectrum
from .hessian import (analytic_hessian, find_crossing, find_crossing_numeric, lowest_eigenvalue,
                      numerical_hessian)
from .mathcore import MAX_EIGEN_DIM, covariance
from .sde import (
    MAX_SAMPLE_ENTRIES,
    SdeConfig,
    persistence_stats,
    predict_persistence,
    simulate_coupled_modes,
    simulate_pitchfork_1d,
)
from .svgplot import line_chart
from .taxonomy import ClassifierThresholds, classify

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

# Keys too bulky for the merged cross-seed summary; they stay in the
# per-seed JSON files.
_BULKY_SUMMARY_KEYS = ("loss_trace", "branch")


# ---------------------------------------------------------------------------
# small shared helpers


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _payload(config_hash, /, **fields):  # a trajectory summary repeats config_hash
    return {"config_hash": config_hash, "version": __version__, **fields}


def _json_fields(record):
    """A record's fields for JSON, nested records too; a top-level non-finite float is null."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in asdict(record).items()}


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
    """Map over jobs in a process pool; serial for single jobs, or when the pool cannot
    be created or started, or breaks. A job's own exception propagates."""
    jobs = list(jobs)
    if len(jobs) <= 1:
        return [fn(j) for j in jobs]
    # imported here, so that a single-job command does not pay for the pool's import
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    workers = min(len(jobs), os.cpu_count() or 1)
    futures = []
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, j) for j in jobs]  # the first submit starts the workers
            return [f.result() for f in futures]
    except BrokenExecutor:  # a worker died
        return [fn(j) for j in jobs]
    except OSError:
        if futures:  # the pool ran, so the error is a job's own
            raise
        return [fn(j) for j in jobs]


def _sweep_seeds(cfg, ready, experiment, worker, summarize):
    """Run worker((seed, out)) per seed in ready()'s directory, then summarize in seed order.

    Each worker writes its own per-seed files and returns a tuple whose
    first item is its seed. summarize(results) returns (fields, chart): the
    merged summary's fields (per_seed among them) besides experiment and
    seeds, and line_chart's keyword arguments.
    """
    seeds = cfg.seeds()
    out_dir = ready()
    jobs = [(seed, str(out_dir)) for seed in seeds]
    results = sorted(_parallel_map(worker, jobs), key=lambda r: r[0])
    fields, chart = summarize(results)
    path = out_dir / f"{experiment}_summary.json"
    _write_json(path, _payload(cfg.config_hash, experiment=experiment, seeds=seeds, **fields))
    line_chart(out_dir / f"{experiment}.svg", **chart)
    print(f"wrote {path}")
    return 0


def _section(cfg, cls, section, **given):
    """cls from the given values and, for each other field, the [section] key of
    its name, read as the field's type."""
    read = {int: cfg.get_int, float: cfg.get_float}
    return cls(**given, **{f.name: read[f.type](section, f.name)
                           for f in fields(cls) if f.name not in given})


def _check_entries(*sizes):
    """Refuse an array of the given (key, size) dimensions above MAX_SAMPLE_ENTRIES
    entries, naming the keys, before anything of that shape is allocated."""
    if math.prod(size for _, size in sizes) > MAX_SAMPLE_ENTRIES:
        raise ConfigError(f"{' * '.join(key for key, _ in sizes)} must be <= "
                          f"{MAX_SAMPLE_ENTRIES}, got "
                          + ", ".join(f"{key} = {size}" for key, size in sizes))


# ---------------------------------------------------------------------------
# calibrate-hessian


@_quiet_overflow()
def _cmd_calibrate_hessian(cfg, ready):
    k = cfg.get_int("probe", "k")
    if k < 2:  # the anti-symmetric channel has K - 1 directions
        raise ConfigError(f"calibrate-hessian needs probe.k >= 2: one prototype has no "
                          f"anti-symmetric channel, so nothing crosses zero; got {k}")
    source = cfg.get_choice("hessian", "source", {"bimodal", "identity"})
    seed = cfg.seeds()[0]
    if source == "identity":
        dim = cfg.get_int("data", "dim")
        if not 1 <= dim <= MAX_EIGEN_DIM:  # before np.eye, whose size grows as dim**2
            raise ConfigError(f"data.dim must be in [1, {MAX_EIGEN_DIM}], got {dim}")
        cov = np.eye(dim)
        samples = None
    else:
        samples = _toy_dataset(_toy_data("bimodal", cfg), seed).samples
        cov = covariance(samples)
    lam, spectrum = critical_spectrum(cov)
    beta_ref = 1.0 / lam
    lo = beta_ref * cfg.get_float("hessian", "bracket_lo_ratio")
    hi = beta_ref * cfg.get_float("hessian", "bracket_hi_ratio")
    out_dir = ready()
    root, iterations = find_crossing(k, spectrum.eigenvalues, lo, hi)
    result = {
        "k": k,
        "source": source,
        "seed": seed,
        "beta_critical_analytic": beta_ref,
        "beta_critical_numeric": root,
        "crossing_gap": abs(root - beta_ref),
        "crossing_iterations": iterations,
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
        numeric = numerical_hessian(samples, k, math.log(beta_ref))
        analytic = analytic_hessian(beta_ref, k, cov)
        result.update(
            beta_critical_finite_difference=float(fd_bc),
            finite_difference_gap=float(abs(fd_bc - beta_ref)),
            max_abs_hessian_difference=float(np.max(np.abs(numeric - analytic))),
            finite_difference_hessians=fd_hessians + 1,
        )
    _write_json(out_dir / "hessian_report.json", _payload(cfg.config_hash, **result))
    xs = np.linspace(lo, hi, 41).tolist()
    ys = [lowest_eigenvalue(b, k, spectrum.eigenvalues) for b in xs]
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


def _toy_data(sub, cfg):
    """`toy sub`'s dataset generator with its [data] values, a picklable callable of the seed.

    Every kind but unimodal is 2-D, so there [data] dim must be 2.
    """
    n = cfg.get_int("data", "n")
    dim = cfg.get_int("data", "dim")
    if sub != "unimodal" and dim != 2:
        raise ConfigError(f"data.dim must be 2: the {sub} data are 2-D, got {dim}")
    _check_entries(("data.n", n), ("data.dim", dim))
    if sub == "unimodal":
        return partial(gen_unimodal, n, dim, cfg.get_float("data", "scale"))
    if sub == "hierarchy":
        return partial(gen_hierarchical, n, cfg.get_float("data", "super_spacing"),
                       cfg.get_float("data", "sub_spacing"), cfg.get_float("data", "scale"))
    return partial(gen_bimodal, n, cfg.get_float("data", "center_offset"),
                   cfg.get_float("data", "scale"))


@_quiet_overflow()
def _toy_dataset(data, seed):
    """data(seed=seed); a dataset whose sample covariance overflows is a validation error."""
    dataset = data(seed=seed)
    if not np.isfinite(covariance(dataset.samples)).all():
        raise ValidationError("[data] values overflow the sample covariance")
    return dataset


def _toy_protocol(sub, cfg):
    """`toy sub`'s drive with its [probe] and [experiment] values, a picklable
    callable of the dataset.

    The hierarchy ramps from its own start level with no precision channel,
    and the anneal drive (always, for reverse) runs at its own rate and length.
    """
    every = cfg.get_int("experiment", "record_every")
    n = cfg.get_int("data", "n")
    if sub == "hierarchy":
        _check_entries(("K", 8), ("data.n", n))  # the hierarchy's own 8 prototypes
        lr = cfg.get_float("probe", "lr_means")
        check_rates(lr)
        return partial(run_hierarchical, lr=lr, record_every=every)
    k = cfg.get_int("probe", "k")
    if k < 1:
        raise ConfigError(f"probe.k must be >= 1, got {k}")
    _check_entries(("probe.k", k), ("data.n", n))
    log_beta_init = cfg.get_float("probe", "log_beta_init")
    if not math.isfinite(log_beta_init):
        raise ConfigError(f"probe.log_beta_init must be finite, got {log_beta_init}")
    start = dict(k=k, log_beta_init=log_beta_init, record_every=every)
    if sub == "endogenous":
        latent_dim = cfg.get_int("experiment", "latent_dim")
        _check_entries(("data.n", n), ("experiment.latent_dim", latent_dim))
        return partial(run_endogenous, **start, rates=_section(cfg, ProbeConfig, "probe"),
                       encoder_lr=cfg.get_float("experiment", "encoder_lr"),
                       steps=cfg.get_int("experiment", "steps"), latent_dim=latent_dim,
                       init_weight_scale=cfg.get_float("experiment", "init_weight_scale"))
    if sub == "reverse" or cfg.get_choice("experiment", "mode", {"learned", "anneal"}) == "anneal":
        return partial(run_forward_split, **start, rates=None, steps=None)
    return partial(run_forward_split, **start, rates=_section(cfg, ProbeConfig, "probe"),
                   steps=cfg.get_int("experiment", "steps"))


def _toy_logs(sub, data, protocol, seed):
    """The trajectory logs of one seed of `toy sub`, by leg: "" alone, or "forward"
    and "reverse"."""
    dataset = _toy_dataset(data, seed)
    run = protocol(dataset)
    if sub == "reverse":
        return {"forward": run[0], "reverse": run_reverse_traversal(dataset, *run)}
    return {"": run[0] if sub in ("bimodal", "unimodal") else run}


def _toy_worker(sub, data, protocol, config_hash, job):
    """Run one seed of `toy sub` and write its own files: a CSV per leg, named
    after it, and one JSON of the leg summaries.

    Returns (seed, summaries, trace): the summaries by leg, and the (steps,
    log ratios) of the last leg's readings.
    """
    seed, out = job
    out_dir = Path(out)
    summaries = {}
    for leg, log in _toy_logs(sub, data, protocol, seed).items():
        log.config_hash = config_hash
        write_trajectory_csv(log, out_dir / f"toy-{sub}_seed{seed}{leg and '_' + leg}.csv")
        summaries[leg] = trajectory_summary(log)
    body = summaries.get("", summaries)
    if sub == "reverse":  # the pair's file repeats the reverse leg's tracking error on top
        body = {**body, "reverse_tracking_error": body["reverse"]["reverse_tracking_error"]}
    _write_json(out_dir / f"toy-{sub}_seed{seed}.json",
                _payload(config_hash, **{"experiment": f"toy-{sub}", "seed": seed, **body}))
    return seed, summaries, ([r.step for r in log.readings], [r.log_ratio for r in log.readings])


def _toy_summary(sub, results):
    per_seed = {}
    for seed, summaries, _ in results:
        if sub == "hierarchy" and not summaries[""]["events"]:
            print(f"warning: seed {seed}: stage 1 did not activate within HIERARCHY_MAX1_STEPS"
                  f" = {HIERARCHY_MAX1_STEPS} steps; no events recorded", file=sys.stderr)
        pruned = {leg: {k: v for k, v in summary.items() if k not in _BULKY_SUMMARY_KEYS}
                  for leg, summary in summaries.items()}
        per_seed[str(seed)] = pruned.get("", pruned)
    if sub != "reverse":
        series = [(f"seed {seed}", *trace) for seed, _, trace in results]
        span = [min(xs[0] for _, xs, _ in series), max(xs[-1] for _, xs, _ in series)]
        series.append(("crossing", span, [0.0, 0.0]))
        return {"per_seed": per_seed}, dict(
            series=series, title=f"toy {sub}: precision ratio trajectory",
            x_label="step", y_label="log(beta / beta_c)")
    errors = [run["reverse"]["reverse_tracking_error"] for run in per_seed.values()]
    fields = {
        "per_seed": per_seed,
        "reverse_tracking_error": None if None in errors else max(errors),
    }
    series = [(f"seed {seed} {leg}", *zip(*sorted(summary["branch"])))
              for seed, summaries, _ in results for leg, summary in summaries.items()]
    return fields, dict(series=series,
                        title="equilibrium branches: prototype separation vs precision",
                        x_label="beta", y_label="order parameter")


def _cmd_toy(sub, cfg, ready):
    worker = partial(_toy_worker, sub, _toy_data(sub, cfg), _toy_protocol(sub, cfg),
                     cfg.config_hash)
    return _sweep_seeds(cfg, ready, f"toy-{sub}", worker, partial(_toy_summary, sub))


# ---------------------------------------------------------------------------
# sde


def _pitchfork_worker(config, eps0, config_hash, job):
    seed, out = job
    ts, eps = (a.tolist() for a in simulate_pitchfork_1d(replace(config, seed=seed), eps0=eps0))
    write_table(Path(out) / f"sde-pitchfork_seed{seed}.csv", ["t", "epsilon"], zip(ts, eps),
                [run_identity("sde-pitchfork", config_hash, seed)])
    return seed, ts, eps


@_quiet_overflow()
def _cmd_sde_pitchfork(cfg, ready):
    # the scalar normal form: no coupling term, one mode of one dimension
    config = _section(cfg, SdeConfig, "sde", seed=cfg.seeds()[0], coupling=0.0, modes=1, dim=1)
    worker = partial(_pitchfork_worker, config, cfg.get_optional_float("sde", "eps0"),
                     cfg.config_hash)
    eps_star = float(config.epsilon_star) if config.growth_rate > 0 else 0.0

    def summarize(results):
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

    return _sweep_seeds(cfg, ready, "sde-pitchfork", worker, summarize)


def _coupled_worker(config, config_hash, job):
    seed, out = job
    cosines, projections, rho = persistence_stats(
        *simulate_coupled_modes(replace(config, seed=seed)))
    # a NaN cosine is a mode whose final row is zero: an empty field, and excluded
    rows = [(mode, p0, p1, None if math.isnan(c) else c)
            for mode, ((p0, p1), c) in enumerate(zip(projections.tolist(), cosines.tolist()))]
    write_table(
        Path(out) / f"sde-coupled_seed{seed}.csv",
        ["mode", "projection_initial", "projection_final", "cosine"],
        rows,
        [run_identity("sde-coupled", config_hash, seed)],
    )
    kept = cosines[~np.isnan(cosines)]
    mean_cos = float(np.mean(kept)) if len(kept) else None
    return seed, float(rho), mean_cos, len(cosines) - len(kept)


@_quiet_overflow()
def _cmd_sde_coupled(cfg, ready):
    config = _section(cfg, SdeConfig, "sde", seed=cfg.seeds()[0])  # random start: no eps0
    if config.modes < 3:
        raise ConfigError(
            f"sde.modes must be >= 3 for the persistence Spearman, got {config.modes}")
    prediction = predict_persistence(config)

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

    return _sweep_seeds(cfg, ready, "sde-coupled", partial(_coupled_worker, config,
                                                           cfg.config_hash), summarize)


# ---------------------------------------------------------------------------
# escape


def _plot_escape_fit(path, stats, summary):
    points = fitted_levels(stats)
    if not points:
        return
    lg = [math.log10(s.gamma) for s in points]
    lt = [math.log10(s.tau_mean) for s in points]
    series = [("measured", lg, lt)]
    if summary is not None and summary.power_law is not None:
        grid = np.linspace(min(lg), max(lg), 40)
        a, b = summary.power_law.intercept, summary.power_law.slope
        series.append(
            ("power law", list(grid), [(a + b * (x * math.log(10))) / math.log(10) for x in grid])
        )
        a, b = summary.kramers.intercept, summary.kramers.slope
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


def _escape_sweep(cfg):
    """`escape sweep`'s sweep_statistics, a callable of the mapper. The cells are
    scalar, start at init_scale, run for at most [escape] horizon steps, and each
    gamma level raises their growth rate by gamma."""
    horizon = cfg.get_int("escape", "horizon")
    if horizon < 1:
        raise ConfigError(f"escape.horizon must be >= 1, got {horizon}")
    gammas = cfg.get_float_list("escape", "gammas")
    seeds_per_gamma = cfg.get_int("escape", "seeds_per_gamma")
    if len(gammas) * seeds_per_gamma > MAX_JOBS:
        raise ConfigError(f"len(escape.gammas) * escape.seeds_per_gamma must be <= "
                          f"{MAX_JOBS} sweep cells, got {len(gammas)} * {seeds_per_gamma}")
    cell = _section(cfg, SdeConfig, "sde", seed=cfg.seeds()[0], modes=1, dim=1, coupling=0.0,
                    steps=horizon)
    return partial(sweep_statistics, gammas=gammas, seeds_per_gamma=seeds_per_gamma, config=cell,
                   threshold=cfg.get_float("escape", "threshold"))


def _cmd_escape_sweep(cfg, ready):
    sweep = _escape_sweep(cfg)
    out_dir = ready()
    stats = sweep(mapper=_parallel_map)
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
        "fit": None if summary is None else _json_fields(summary),
        "warning": warning,
    }
    _write_json(out_dir / "escape-sweep.json", _payload(cfg.config_hash, **payload))
    _plot_escape_fit(out_dir / "escape-sweep.svg", stats, summary)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {out_dir / 'escape-sweep.json'}")
    return 0


def _cmd_escape_fit(cfg, ready, input_arg):
    path = _resolve_input(input_arg)
    stats = read_sweep_csv(path)
    out_dir = ready()
    summary = fit_escape_models(stats)
    if summary.power_law is None:
        raise NoFitError("fewer than 3 uncensored gamma > 0 levels: cannot fit")
    payload = _payload(cfg.config_hash, experiment="escape-fit", input=Path(str(path)).name,
                       **_json_fields(summary))
    _write_json(out_dir / "escape-fit.json", payload)
    _plot_escape_fit(out_dir / "escape-fit.svg", stats, summary)
    print(f"wrote {out_dir / 'escape-fit.json'}")
    return 0


# ---------------------------------------------------------------------------
# classify


def _cmd_classify(cfg, ready, input_arg):
    path = _resolve_input(input_arg)
    log = read_trajectory_csv(path)
    thresholds = _section(cfg, ClassifierThresholds, "taxonomy")
    horizon = cfg.get_optional_float("taxonomy", "horizon")
    out_dir = ready()
    shape = classify(log, horizon=horizon, thresholds=thresholds)
    payload = _payload(cfg.config_hash, input=Path(str(path)).name, **_json_fields(shape))
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
        if not 1 <= args.seeds <= MAX_JOBS:  # before the list of N seeds is built
            raise ConfigError(f"--seeds must be in [1, {MAX_JOBS}], got {args.seeds}")
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
    created = []  # the directories ready() made, deepest first

    def ready():
        """Create and return the output directory, once the command has read its
        configuration; a key it left unread in a section it read from would move
        only the config hash, so its text must be the command's default."""
        out_dir = Path(cfg.get("run", "out"))
        defaults = {section: {**DEFAULTS[section], **overlay.get(section, {})}
                    for section in sorted({section for section, _ in cfg.read})}
        unread = [f"{section}.{key} = {default!r}"
                  for section, kv in defaults.items() for key, default in kv.items()
                  if (section, key) not in cfg.read and cfg.sections[section][key] != default]
        if unread:
            raise ConfigError(f"{' '.join(filter(None, (args.command, sub)))} does not read "
                              f"these keys; keep them at their defaults: {', '.join(unread)}")
        created.extend(p for p in (out_dir, *out_dir.parents) if not p.exists())
        out_dir.mkdir(parents=True, exist_ok=True)
        return out_dir

    try:
        if args.command == "calibrate-hessian":
            return _cmd_calibrate_hessian(cfg, ready)
        if args.command == "toy":
            return _cmd_toy(sub, cfg, ready)
        if args.command == "sde":
            if sub == "pitchfork":
                return _cmd_sde_pitchfork(cfg, ready)
            return _cmd_sde_coupled(cfg, ready)
        if args.command == "escape":
            if sub == "fit":
                return _cmd_escape_fit(cfg, ready, args.input)
            if args.input is not None:
                raise ConfigError("escape sweep does not read --input")
            return _cmd_escape_sweep(cfg, ready)
        return _cmd_classify(cfg, ready, args.input)
    except ValidationError:
        # a refusal leaves no directory it made empty; one that a seed wrote into stays
        for path in created:
            with suppress(OSError):  # rmdir refuses a directory that is not empty
                path.rmdir()
        raise


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
