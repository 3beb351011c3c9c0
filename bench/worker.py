"""One benchmark run of one workload, in one process; launched by ``run.py``.

The workload's CLI job runs in-process through ``disd.cli.main([...])`` in a
closed loop with a single caller: the next job starts only when the previous
one has returned. One untimed warm-up job comes first. Jobs are started until
the next one would end past ``--seconds`` (at least three are measured).
Every job's output goes through the gate in ``workloads.check``.

With ``--probe`` (untraced runs) the set-up probe runs once, untimed, before
the warm-up job, and then between jobs, up to ``SETUP_PROBES`` times, spread
evenly over the run. Spread out, the probes are not all caught by one slow
spell of the shared host. A probe is a separate process and runs between
jobs, never beside one.

With ``--trace 1`` the loop alternates an untraced and a traced job, so the
tracing overhead is measured on the same process and inputs. Per-layer
numbers come from the traced jobs only.

Prints one JSON line: per-job wall and CPU seconds, the set-up probes'
seconds, the gate's verdict, the peak resident memory and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

MIN_JOBS = 3
SETUP_PROBES = 16
PROBE_TIMEOUT_S = 60.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    ap.add_argument("--probe", help="argv of the set-up probe, as a JSON list")
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import workloads
    import disd.cli

    if os.path.commonpath([os.path.abspath(disd.cli.__file__), src]) != src:
        print(f"disd was imported from {disd.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    argvs = workloads.job_argvs(args.workload, args.workdir)
    outputs = workloads.output_paths(args.workload, args.workdir)
    failures: list[str] = []
    attempted = 0

    def job() -> None:
        for argv in argvs:
            code = disd.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"'disd {argv[0]}' exited with code {code}")

    def timed():
        c0, t0 = time.process_time(), time.perf_counter()
        job()
        return time.perf_counter() - t0, time.process_time() - c0

    def attempt(runner):
        """Run one job and gate it; None if it did not complete."""
        nonlocal attempted
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        attempted += 1
        try:
            result = runner()
        except Exception as exc:  # a crashing job is a failed job; keep measuring
            failures.append(f"{type(exc).__name__}: {exc}")
            return None
        errs = workloads.check(args.workload, args.seed, args.workdir, bench_dir)
        if errs:
            failures.append("; ".join(errs[:3]))
        return result

    def probe() -> float:
        proc = subprocess.run(json.loads(args.probe), stdout=subprocess.PIPE, text=True,
                              cwd=args.root, timeout=PROBE_TIMEOUT_S, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    if args.probe:
        probe()  # untimed: fills the bytecode and file caches
    attempt(timed)  # warm-up: first LAPACK calls, allocator growth, page faults

    wall, cpu, setup, overheads, layers = [], [], [], [], []
    tracer = None
    if args.trace:
        from tracer import COUNT_METRICS, Tracer
        tracer = Tracer()

        def traced():
            secs, caught = tracer.run(job)
            return secs, tracer.metrics(caught)

    start = time.perf_counter()
    deadline = start + args.seconds
    probe_every = args.seconds / SETUP_PROBES
    measured = 0
    while True:
        t_job = time.perf_counter()
        res = attempt(timed)
        if res is not None:
            wall.append(res[0])
            cpu.append(res[1])
        if tracer is not None:
            plain = res
            res = attempt(traced)
            if res is not None:
                layers.append(res[1])
                if plain is not None:
                    overheads.append(res[0] - plain[0])
        due = min(SETUP_PROBES, int((time.perf_counter() - start) / probe_every) + 1)
        while args.probe and len(setup) < due:
            setup.append(probe())
        measured += 1
        last = time.perf_counter() - t_job
        if measured >= MIN_JOBS and time.perf_counter() + last > deadline:
            break

    if not wall:
        print("no job completed: " + " | ".join(failures[:3]), file=sys.stderr)
        return 1
    out = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "wall": wall,
        "cpu": cpu,
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        if not layers:
            print("no traced job completed: " + " | ".join(failures[:3]), file=sys.stderr)
            return 1
        merged = {}
        for key in layers[0]:
            values = [m[key] for m in layers]
            merged[key] = values[0] if key in COUNT_METRICS else statistics.median(values)
        out["counts_vary"] = [k for k in COUNT_METRICS if len({m[k] for m in layers}) > 1]
        # adjacent untraced/traced pairs, so slow drift in machine speed cancels
        merged["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
        out["layers"] = merged
        if args.spans:
            tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
