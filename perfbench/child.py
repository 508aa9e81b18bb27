"""One workload run inside a fresh interpreter; started by ``run.py``.

The child times its own cold ``import bifurc.cli``, then calls
``bifurc.cli.main(argv)`` in-process for each command of the workload, with a
fresh output directory per call. It repeats whole passes of the workload
while another pass still fits in ``--seconds`` (always at least one), checks
every call, and writes its findings as JSON to ``--result``. With ``--trace 1``
it adds one traced pass at the end and derives the per-layer numbers from it.

``--import-only`` times the import and prints the seconds; ``run.py`` uses it
for the extra set-up samples.
"""

import time

_T0 = time.perf_counter()
import bifurc.cli  # noqa: E402  (the timed cold import)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from bifurc.config import build_config  # noqa: E402
from tracer import END, NAME, NOTE, PARENT, START, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, digest_dir  # noqa: E402


def _maxrss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _cpu_s():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Runner:
    """Runs passes of one workload and checks every call against the first pass."""

    def __init__(self, calls, seed, work_dir):
        self.calls = calls
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.first_digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.passes = 0

    def run_pass(self):
        """One pass over the workload's calls; returns (wall of main calls, windows, outs, ok)."""
        index = self.passes
        self.passes += 1
        wall = 0.0
        windows = []
        outs = {}
        ok = True
        for number, call in enumerate(self.calls):
            out = self.work_dir / f"pass{index}" / f"call{number}"
            shutil.rmtree(out, ignore_errors=True)
            out.parent.mkdir(parents=True, exist_ok=True)
            argv = call.full_argv(self.seed, out)
            problems = []
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    code = bifurc.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback out of main is a failed call, not a stop
                code = None
                problems.append("exception out of main:\n" + traceback.format_exc())
            end = time.perf_counter()
            wall += end - start
            windows.append((start, end))
            outs[call.label] = out
            if code is not None and code != 0:
                problems.append(f"exit code {code}")
            if not problems:
                problems += self._check_outputs(call, out, number)
            self.attempted += 1
            if problems:
                ok = False
                self.failed += 1
                self.problems.append(f"pass {index} `{call.label}`: " + "; ".join(problems))
        return wall, windows, outs, ok

    def _check_outputs(self, call, out, number):
        missing = [name for name in call.expected(self.seed) if not (out / name).is_file()]
        if missing:
            return [f"missing output {', '.join(missing)}"]
        try:
            problems = call.check(out, self.seed)
        except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return [f"unreadable output: {exc!r}"]
        digests = digest_dir(out)
        first = self.first_digests.setdefault(number, digests)
        if digests != first:
            differ = sorted(n for n in set(first) | set(digests) if first.get(n) != digests.get(n))
            problems.append(f"output bytes differ from the first pass: {', '.join(differ)}")
        return problems


def _coupled_mode_steps():
    cfg = build_config(preset="appendix-d3", environ={})
    return cfg.get_int("sde", "modes") * cfg.get_int("sde", "steps")


def layer_metrics(calls, seed, spans, windows, outs, untraced_wall, traced_cpu_s):
    """The per-layer metrics of one traced pass."""
    table = summarize(spans)

    def row(name, key):
        return table.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    traced_wall = sum(end - start for start, end in windows)
    top = sorted((s for s in spans if s[PARENT] < 0), key=lambda s: s[START])
    top_s = sum(s[END] - s[START] for s in top)
    inside = all(any(a <= s[START] and s[END] <= b for a, b in windows) for s in top)
    disjoint = all(x[END] <= y[START] for x, y in zip(top, top[1:]))
    other_s = traced_wall - top_s
    if not (inside and disjoint and other_s >= 0.0):
        raise RuntimeError(
            f"span accounting broken: inside={inside} disjoint={disjoint} other_s={other_s}"
        )
    counts = {}
    for call in calls:
        if call.counts is not None:
            counts.update(call.counts(outs[call.label], seed))
    protocol = ("run_forward_split", "run_reverse_traversal", "run_hierarchical", "run_endogenous")
    protocol_s = sum(row(f"experiments.{name}", "self_s") for name in protocol)
    probe_steps = counts.get("experiments.probe_steps", 0)
    nll_calls = row("gmm_probe.nll", "calls")
    coupled_s = row("sde.simulate_coupled_modes", "self_s")
    # only the escape sweep maps over more than one job; the others run serially
    sweep_s = sum(
        s[END] - s[START] for s in spans
        if s[NAME] == "cli._parallel_map" and s[NOTE] > 1
    )
    integrator = counts.get("escape_lab.integrator_steps", 0)
    eig_dims = [s[NOTE] for s in spans if s[NAME] == "mathcore.sym_eigen"]
    metrics = {
        "gmm_probe.nll.calls": (nll_calls, "count"),
        "gmm_probe.nll.self_s": (row("gmm_probe.nll", "self_s"), "s"),
        "gmm_probe.nll.us_per_call": (
            1e6 * row("gmm_probe.nll", "self_s") / nll_calls if nll_calls else 0.0, "us"),
        "hessian.numerical_hessian.calls": (row("hessian.numerical_hessian", "calls"), "count"),
        "hessian.numerical_hessian.self_s": (row("hessian.numerical_hessian", "self_s"), "s"),
        "hessian.find_crossing_numeric.total_s": (
            row("hessian.find_crossing_numeric", "total_s"), "s"),
        "hessian.find_crossing.total_s": (row("hessian.find_crossing", "total_s"), "s"),
        "mathcore.sym_eigen.calls": (row("mathcore.sym_eigen", "calls"), "count"),
        "mathcore.sym_eigen.self_s": (row("mathcore.sym_eigen", "self_s"), "s"),
        "mathcore.sym_eigen.max_dim": (max(eig_dims, default=0), "count"),
        "mathcore.covariance.self_s": (row("mathcore.covariance", "self_s"), "s"),
        "experiments.probe_steps": (probe_steps, "count"),
        "experiments.protocol_self_s": (protocol_s, "s"),
        "experiments.us_per_step": (1e6 * protocol_s / probe_steps if probe_steps else 0.0, "us"),
        "experiments.forward_steps": (counts.get("experiments.forward_steps", 0), "count"),
        "experiments.reverse_steps": (counts.get("experiments.reverse_steps", 0), "count"),
        "experiments.activation_step": (counts.get("experiments.activation_step", 0), "count"),
        "experiments.ToyEncoderState.gd_step.self_s": (
            row("experiments.ToyEncoderState.gd_step", "self_s"), "s"),
        "experiments.nc1.self_s": (row("experiments.nc1", "self_s"), "s"),
        "experiments.write_trajectory_csv.self_s": (
            row("experiments.write_trajectory_csv", "self_s"), "s"),
        "experiments.read_trajectory_csv.self_s": (
            row("experiments.read_trajectory_csv", "self_s"), "s"),
        "sde.simulate_coupled_modes.self_s": (coupled_s, "s"),
        "sde.mode_steps_per_s": (
            _coupled_mode_steps() / coupled_s if coupled_s else 0.0, "1/s"),
        "sde.simulate_pitchfork_1d.self_s": (row("sde.simulate_pitchfork_1d", "self_s"), "s"),
        "sde.persistence_stats.self_s": (row("sde.persistence_stats", "self_s"), "s"),
        "escape_lab.integrator_steps": (integrator, "count"),
        "escape_lab.sweep_s": (sweep_s, "s"),
        "escape_lab.steps_per_s": (integrator / sweep_s if sweep_s else 0.0, "1/s"),
        "escape_lab.fit_escape_models.self_s": (row("escape_lab.fit_escape_models", "self_s"), "s"),
        "taxonomy.classify.calls": (row("taxonomy.classify", "calls"), "count"),
        "taxonomy.classify.self_s": (row("taxonomy.classify", "self_s"), "s"),
        "taxonomy.axis_reading.self_s": (row("taxonomy.axis_reading", "self_s"), "s"),
        "svgplot.line_chart.self_s": (row("svgplot.line_chart", "self_s"), "s"),
        "config.build_config.self_s": (row("config.build_config", "self_s"), "s"),
        "cli.other_s": (other_s, "s"),
        "process.cpu_s": (traced_cpu_s, "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    }
    return metrics


def run(args):
    root = Path(__file__).resolve().parent.parent
    where = Path(bifurc.cli.__file__).resolve()
    if (root / "src") not in where.parents:
        raise SystemExit(f"bifurc was imported from {where}, not from {root / 'src'}")
    work_dir = root / "perfbench" / "_runs" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    runner = Runner(WORKLOADS[args.workload], args.seed, work_dir)
    walls, good_walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wall, _, _, ok = runner.run_pass()
        walls.append(wall)
        if ok:
            good_walls.append(wall)
        now = time.perf_counter()
        if (now - start) + (now - t0) > args.seconds:  # the next pass would not fit
            break
    result = {
        "import_s": IMPORT_S,
        "walls": walls,
        "wall_s": statistics.median(good_walls or walls),
        "peak_rss_mb": _maxrss_mb(),
    }
    if args.trace:
        tracer = Tracer(
            extra=("cli._parallel_map",),
            notes={
                "mathcore.sym_eigen": lambda matrix, *a, **k: len(matrix),
                "cli._parallel_map": lambda fn, jobs: len(jobs),
            },
        )
        cpu0 = _cpu_s()
        with tracer:
            _, windows, outs, _ = runner.run_pass()
        cpu = _cpu_s() - cpu0
        metrics = layer_metrics(
            runner.calls, args.seed, tracer.spans, windows, outs, result["wall_s"], cpu
        )
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        spans_path = root / "perfbench" / "_runs" / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"wrapped": tracer.wrapped, "spans": tracer.spans}, fh)
        result["spans_file"] = str(spans_path.relative_to(root))
    shutil.rmtree(work_dir, ignore_errors=True)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        passes=runner.passes,
        record=_record(),
    )
    return result


def _record():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args()
    if args.import_only:
        print(repr(IMPORT_S))
        return 0
    if not args.workload or not args.result:
        parser.error("--workload and --result are required")
    result = run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
