"""Benchmark of the ``disd`` CLI: one workload, one seed, one run.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``. The
seed makes the workload's input files (see ``workloads.py``); the program
only reads those files. With ``--trace 0`` the run reports the end-to-end
metrics: the wall and CPU time of the fastest job in a closed loop of jobs
lasting about ``--seconds``, the set-up time of fresh processes run between
those jobs, and the worker's peak resident memory. With ``--trace 1`` it
reports per-layer metrics from spans around every public ``disd`` function,
and the tracing overhead, and writes the spans of the last traced job to
``.bench_out/``.

Every job's output is gated (``workloads.check``); jobs that exit nonzero or
fail the gate count in ``failed``. Human-readable lines come first, each
metric by name with its unit; the last line of standard output is the JSON
result. BLAS is pinned to one thread in every process the benchmark starts.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
# Must be set before numpy is imported here or in any child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# Time a run may take beyond --seconds: making the inputs, the warm-up job and
# probe, the last job's overrun, and MIN_JOBS when --seconds is short.
SLACK_S = 60
# A run must end within 180 s, with room to make its inputs and clean up.
MAX_RUN_S = 170
REQUIRED = (os.path.join("src", "disd", "cli.py"), workloads.PRESET)

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _unit(metric: str) -> str:
    return "s" if metric.endswith(("_s", ".s_per_call", ".s_per_iteration")) else "count"


def _git_commit() -> str:
    # Without this check, a checkout that is not a repository but sits inside
    # one would report the enclosing repository's commit.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "holdout_seed": workloads.HOLDOUT_SEED,
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": BLAS_THREADS,
    }


def _worker(argv: list[str], deadline: float) -> str:
    """Run the worker to completion; its stdout.

    The worker gets a process group of its own, so that a worker killed at the
    deadline takes the set-up probe it may be running with it.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_RUN_S - SLACK_S:
        ap.error(f"--seed must be >= 0 and --seconds in [1, {MAX_RUN_S - SLACK_S}]")
    deadline = time.monotonic() + args.seconds + SLACK_S

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"bench: not a disd checkout, missing {missing} under {ROOT}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        try:
            inputs = workloads.generate(args.workload, args.seed, ROOT, workdir)
        except workloads.WorkloadError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        env = environment(args.workload, args.seed)
        print("env: " + json.dumps(env))

        argv = [sys.executable, os.path.join(BENCH, "worker.py"), "--root", ROOT,
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--workdir", workdir]
        if not args.trace:
            probe = [sys.executable, os.path.join(BENCH, "setup_probe.py"), ROOT,
                     workloads.INPUT_KIND[args.workload], *inputs]
            argv += ["--probe", json.dumps(probe)]
        else:
            spans_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(spans_dir, exist_ok=True)
            argv += ["--spans", os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.json")]
        res = json.loads(_worker(argv, deadline).strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    for msg in res["failures"]:
        print(f"gate: {msg}", file=sys.stderr)
    if args.trace:
        if res["counts_vary"]:
            print(f"bench: counts differ between traced jobs: {res['counts_vary']}", file=sys.stderr)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(res["layers"].items())}
        notes = {}
    else:
        setup = res["setup"]
        values = {
            "setup_s": statistics.median(setup),
            # The fastest job, not the median: on a shared host, other tenants
            # slow jobs down for seconds to minutes at a time, never speed
            # them up, and the median over one run followed that drift.
            "solve_s": min(res["wall"]),
            "cpu_s": min(res["cpu"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        notes = {"setup_s": f"median of {len(setup)} fresh processes; fastest {min(setup):.6g} s",
                 "solve_s": f"fastest of {len(res['wall'])} jobs; median "
                            f"{statistics.median(res['wall']):.6g} s",
                 "cpu_s": f"fastest of {len(res['cpu'])} jobs, user + sys; median "
                          f"{statistics.median(res['cpu']):.6g} s",
                 "peak_rss_mb": "worker high-water resident memory"}
    for key, m in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key} = {m['value']:.6g} {m['unit']}{note}")
    print(f"failed_ratio = {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs "
          f"exited nonzero or failed the output gate)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
