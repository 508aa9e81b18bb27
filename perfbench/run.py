"""Benchmark of the ``bifurc`` CLI: time to a checked result, per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run starts one fresh child interpreter (``child.py``), which times its cold
``import bifurc.cli`` and then runs whole passes of the workload's commands
in-process for about ``--seconds`` seconds, checking every output. After it
has ended, the run starts ``SETUP_SAMPLES`` more interpreters that only time
the import. Runs are serial: only one child exists at a time, and only the
escape sweep forks the CLI's own worker pool.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (tracing off); with ``--trace 1`` it carries the per-layer
metrics of one extra traced pass. The line before it is the run record:
machine, versions, thread settings, load and commit. Exit status is 0 when a
result was printed, non-zero otherwise (for example when ``src/bifurc`` is
missing).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 8  # import-only interpreters per run, on top of the child's own import
CHILD_TIMEOUT_S = 165.0
RECORDED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "PYTHONDONTWRITEBYTECODE")


def child_env():
    """The caller's environment without bifurc overrides, importing bifurc from ./src."""
    env = {k: v for k, v in os.environ.items() if not k.upper().startswith("BIFURC_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONHOME", None)
    return env


def run_child(argv, timeout):
    """Run one child in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise SystemExit(f"child {argv} ran over {timeout:.0f} s and was killed\n{err[-4000:]}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"child {argv} exited {proc.returncode}\n{err[-4000:]}")
    return out


def cpu_info():
    model = cache = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model is None:
                    model = value.strip()
                elif key == "cache size" and cache is None:
                    cache = value.strip()
    except OSError:
        pass
    return model, cache


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=20, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        return out[1]
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description="bifurc CLI benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bifurc" / "cli.py").is_file():
        print(f"no bifurc sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    runs_dir = HERE / "_runs"
    runs_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs_dir) as tmp:
        result_path = Path(tmp) / "result.json"
        run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--result", str(result_path)],
            CHILD_TIMEOUT_S,
        )
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    setup = [res["import_s"]]
    for _ in range(SETUP_SAMPLES):
        setup.append(float(run_child(["--import-only"], 60.0).strip()))
    load_after = os.getloadavg()

    model, cache = cpu_info()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_size": cache,
        **res["record"],
        "env": {k: os.environ.get(k) for k in RECORDED_ENV},
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "git_commit": git_commit(),
        "passes": res["passes"],
        "pass_walls_s": res["walls"],
        "setup_samples_s": setup,
        "problems": res["problems"],
    }
    if args.trace:
        record["spans_file"] = res["spans_file"]
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": metric(res["wall_s"], "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
            "ok_frac": metric(1.0 - res["failed"] / res["attempted"], "ratio"),
        }
    print("run record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
