"""Write the gate's reference outputs, ``refs/<workload>/<seed>/``, for the published seeds.

usage: python3 bench/make_refs.py

Runs each workload's job once per published seed with the code in this
checkout and stores what it wrote. The references pin the outputs of the
code the benchmark was baselined on; regenerate them only when a change is
meant to alter the program's output, and say so in that change.
"""

from __future__ import annotations

import os
import shutil
import sys

import run  # noqa: F401  (pins the BLAS thread count before numpy loads)
import workloads


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from disd.cli import main as disd_main

    workdir = os.path.join(run.ROOT, ".bench_work", f"refs-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in workloads.WORKLOADS:
            for seed in workloads.PUBLISHED_SEEDS:
                workloads.generate(name, seed, run.ROOT, workdir)
                for argv in workloads.job_argvs(name, workdir):
                    if disd_main(argv) != 0:
                        raise SystemExit(f"{name} seed {seed}: disd {argv[0]} failed")
                dest = workloads.ref_dir(run.BENCH, name, seed)
                os.makedirs(dest, exist_ok=True)
                for path in workloads.output_paths(name, workdir):
                    shutil.copy(path, dest)
                errs = workloads.check(name, seed, workdir, run.BENCH)
                if errs:
                    raise SystemExit(f"{name} seed {seed}: " + "; ".join(errs))
                print(f"{name} seed {seed}: {dest}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
