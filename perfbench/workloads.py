"""The benchmark's workloads: which ``bifurc`` commands run, and their checks.

Every command runs at its default configuration plus ``--seed S`` and a fresh
``--out`` directory. Each check reads the command's outputs and returns a list
of problems (empty when the outputs are inside the repo's own bands for one
seed). Bands are copied from ``tests/test_acceptance.py`` and
``tests/test_cli.py``; none is new and none is looser. Flags are read as
truthy, so ``1`` and ``true`` pass alike.
"""

import hashlib
import json
import math
from pathlib import Path


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def last_step(csv_path):
    """Step column of the last data row of a trajectory CSV."""
    with open(csv_path, encoding="utf-8") as fh:
        rows = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return int(rows[-1].split(",")[0])


def _band(problems, name, value, lo=None, hi=None, lo_open=False, hi_open=False):
    """Append a problem unless lo <= value <= hi (open ends are strict)."""
    if value is None or not isinstance(value, (int, float)) or math.isnan(value):
        problems.append(f"{name} is {value!r}, not a number")
        return
    if lo is not None and (value <= lo if lo_open else value < lo):
        problems.append(f"{name} = {value!r} below {lo!r}")
    if hi is not None and (value >= hi if hi_open else value > hi):
        problems.append(f"{name} = {value!r} above {hi!r}")


# ---------------------------------------------------------------------------
# checks, one per command kind


def check_hessian(out, seed):
    rep = load_json(out / "hessian_report.json")
    problems = []
    for key in ("crossing_gap", "finite_difference_gap", "max_abs_hessian_difference"):
        _band(problems, key, rep.get(key), hi=1e-4)
    return problems


def check_hierarchy(out, seed):
    run = load_json(out / f"toy-hierarchy_seed{seed}.json")
    problems = []
    if not run.get("second_stage_gate"):
        problems.append("second_stage_gate is not set")
    events = run.get("events") or []
    if len(events) != 2:
        problems.append(f"{len(events)} activation events, expected 2")
    for event in events:
        ratio = event.get("ratio_to_target")
        _band(problems, f"stage {event.get('stage')} |ratio_to_target - 1|",
              None if ratio is None else abs(ratio - 1.0), hi=0.35)
    return problems


def check_reverse(out, seed):
    run = load_json(out / f"toy-reverse_seed{seed}.json")
    fwd, rev = run.get("forward") or {}, run.get("reverse") or {}
    problems = []
    _band(problems, "reverse_tracking_error", rev.get("reverse_tracking_error"), hi=0.04)
    _band(problems, "overshoot_ratio", fwd.get("overshoot_ratio"), lo=1.0, hi=1.6)
    _band(problems, "branch_overlap", rev.get("branch_overlap"), hi=0.10)
    _band(problems, "op_fraction_at_half_beta_c", rev.get("op_fraction_at_half_beta_c"),
          hi=0.10, hi_open=True)
    return problems


def check_endogenous(out, seed):
    run = load_json(out / f"toy-endogenous_seed{seed}.json")
    problems = []
    _band(problems, "delta0", run.get("delta0"), hi=0.0, hi_open=True)
    crossing = run.get("crossing_step")
    activations = run.get("activation_steps") or []
    if crossing is None:
        problems.append("no crossing step")
    elif not activations:
        problems.append("no activation")
    elif min(activations) < crossing:
        problems.append(f"activation {min(activations)} before crossing {crossing}")
    return problems


def check_escape_sweep(out, seed):
    run = load_json(out / "escape-sweep.json")
    problems = []
    levels = run.get("per_gamma") or []
    zero = [s for s in levels if s.get("gamma") == 0.0]
    if not zero or zero[0].get("tau_mean") is not None or zero[0].get("n_censored") != 3:
        problems.append("gamma = 0 is not censored in 3 of 3 seeds")
    taus = [s.get("tau_mean") for s in levels if s.get("gamma", 0.0) > 0.0]
    if not taus or any(t is None for t in taus) or any(a <= b for a, b in zip(taus, taus[1:])):
        problems.append(f"mean escape time not strictly decreasing: {taus}")
    slope = ((run.get("fit") or {}).get("power_law") or {}).get("slope")
    _band(problems, "|power-law slope|", None if slope is None else abs(slope), lo=0.9)
    return problems


# criterion 04: (value, tolerance) for the refit of the bundled table5.csv
TABLE5_BANDS = {
    ("power_law", "intercept"): (9.11, 0.01),
    ("power_law", "slope"): (-1.225, 0.005),
    ("power_law", "chi_squared"): (1.52, 0.02),
    ("power_law", "aic"): (5.52, 0.02),
    ("kramers", "intercept"): (11.65, 0.02),
    ("kramers", "slope"): (-2.631, 0.01),
    ("kramers", "chi_squared"): (20.78, 0.1),
}


def check_escape_fit(out, seed):
    run = load_json(out / "escape-fit.json")
    problems = []
    for (model, key), (target, tol) in TABLE5_BANDS.items():
        value = (run.get(model) or {}).get(key)
        _band(problems, f"{model}.{key}", value, lo=target - tol, hi=target + tol)
    _band(problems, "delta_aic", run.get("delta_aic"), lo=19.26 - 0.1, hi=19.26 + 0.1)
    return problems


def check_coupled(out, seed):
    run = load_json(out / "sde-coupled_summary.json")
    problems = []
    rho = (run.get("per_seed") or {}).get(str(seed), {}).get("spearman_rho")
    _band(problems, "spearman_rho", rho, lo=0.90, lo_open=True)
    return problems


def check_pitchfork(out, seed):
    run = load_json(out / "sde-pitchfork_summary.json")
    problems = []
    eps = (run.get("per_seed") or {}).get(str(seed), {}).get("final_epsilon")
    _band(problems, "|final_epsilon|", None if eps is None else abs(eps), lo=0.98, hi=1.02)
    return problems


def check_label(expected):
    def check(out, seed):
        label = load_json(out / "classify.json").get("label")
        return [] if label == expected else [f"label {label!r}, expected {expected!r}"]

    return check


# ---------------------------------------------------------------------------
# work counts the outputs report (exact; the traced run's per-layer counts)


def counts_hierarchy(out, seed):
    return {"experiments.probe_steps": last_step(out / f"toy-hierarchy_seed{seed}.csv")}


def counts_reverse(out, seed):
    fwd = last_step(out / f"toy-reverse_seed{seed}_forward.csv")
    rev = last_step(out / f"toy-reverse_seed{seed}_reverse.csv")
    acts = load_json(out / f"toy-reverse_seed{seed}.json")["forward"]["activation_steps"]
    return {
        "experiments.forward_steps": fwd,
        "experiments.reverse_steps": rev,
        "experiments.activation_step": acts[0] if acts else 0,
        "experiments.probe_steps": fwd + rev,
    }


def counts_endogenous(out, seed):
    run = load_json(out / f"toy-endogenous_seed{seed}.json")
    return {"experiments.probe_steps": int(run["encoder_steps"])}


def counts_escape_sweep(out, seed):
    """Integrator steps: escape times of the escaped cells plus the horizon per censored cell."""
    from bifurc.config import DEFAULTS

    horizon = int(DEFAULTS["escape"]["horizon"])
    steps = 0.0
    for level in load_json(out / "escape-sweep.json")["per_gamma"]:
        escaped = level["n_seeds"] - level["n_censored"]
        if escaped:
            steps += escaped * level["tau_mean"]
        steps += level["n_censored"] * horizon
    return {"escape_lab.integrator_steps": int(round(steps))}


# ---------------------------------------------------------------------------
# the workload table


class Call:
    """One CLI invocation: argv without --seed/--out, its outputs, check and counts."""

    def __init__(self, argv, outputs, check, counts=None):
        self.argv = list(argv)
        self.outputs = list(outputs)
        self.check = check
        self.counts = counts

    def full_argv(self, seed, out):
        return self.argv + ["--seed", str(seed), "--out", str(out)]

    def expected(self, seed):
        return [name.format(seed=seed) for name in self.outputs]

    @property
    def label(self):
        return " ".join(self.argv)


def _toy(sub, check, counts, csv_suffixes=("",)):
    outputs = [f"toy-{sub}_seed{{seed}}{s}.csv" for s in csv_suffixes] + [
        f"toy-{sub}_seed{{seed}}.json",
        f"toy-{sub}_summary.json",
        f"toy-{sub}.svg",
    ]
    return Call(["toy", sub], outputs, check, counts)


def _classify(fixture, label):
    return Call(["classify", "--input", fixture], ["classify.json"], check_label(label))


WORKLOADS = {
    "hessian-calibrate": [
        Call(["calibrate-hessian"], ["hessian_report.json", "hessian_scan.svg"], check_hessian),
    ],
    "probe-hierarchy": [_toy("hierarchy", check_hierarchy, counts_hierarchy)],
    "anneal-reverse": [
        _toy("reverse", check_reverse, counts_reverse, ("_forward", "_reverse")),
    ],
    "encoder-endogenous": [_toy("endogenous", check_endogenous, counts_endogenous)],
    "sim-mix": [
        Call(["escape", "sweep"],
             ["escape-sweep.csv", "escape-sweep.json", "escape-sweep.svg"],
             check_escape_sweep, counts_escape_sweep),
        Call(["sde", "coupled", "--preset", "appendix-d3"],
             ["sde-coupled_seed{seed}.csv", "sde-coupled_summary.json", "sde-coupled.svg"],
             check_coupled),
        Call(["sde", "pitchfork"],
             ["sde-pitchfork_seed{seed}.csv", "sde-pitchfork_summary.json", "sde-pitchfork.svg"],
             check_pitchfork),
        Call(["escape", "fit", "--input", "table5.csv"],
             ["escape-fit.json", "escape-fit.svg"], check_escape_fit),
        _classify("exemplar_full_v.csv", "FullV"),
        _classify("exemplar_fold_back.csv", "FoldBack"),
        _classify("exemplar_no_arc.csv", "NoArc"),
    ],
}


def digest_dir(out):
    """{file name: sha256 hex} for every file a call wrote."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out).iterdir())
        if p.is_file()
    }
