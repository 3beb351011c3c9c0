"""Time, in a fresh process, what every job needs before it can compute.

That is: import ``disd``, load the job's input files and build the model
(parse the config, build the canonical model and assemble the Hamiltonian),
or, for a unitary file, parse its matrix. Prints the seconds taken.

usage: setup_probe.py ROOT config CONFIG.json
       setup_probe.py ROOT unitary U.json [U.json ...]
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    root, kind, *paths = sys.argv[1:]
    sys.path.insert(0, os.path.join(root, "src"))
    import disd.cli  # noqa: F401  (the entry point the jobs go through)
    from disd import config
    from disd.model import assemble_hamiltonian

    if kind == "config":
        for path in paths:
            assemble_hamiltonian(config.model_from_config(config.load_config(path)))
    elif kind == "unitary":
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                config.matrix_from_json(json.load(fh)["u"])
    else:
        print(f"unknown input kind {kind!r}", file=sys.stderr)
        return 2
    print(time.perf_counter() - T0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
