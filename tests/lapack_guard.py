"""The non-finite LAPACK input guard: numpy's solvers may turn a NaN or an inf into a finite
answer, so each call that passes one is recorded in ``non_finite_lapack_calls``.

``conftest.py`` installs it for the test session. Run as a script, it installs it and runs
another, ``python lapack_guard.py script.py [args]``, or a module as ``python -m`` would,
``python lapack_guard.py -m module [args]``. The run then exits nonzero, naming the calls, if
any of them passed a non-finite input, whatever its own outcome; otherwise it keeps its own
exit status.
"""

import functools
import os
import runpy
import sys
from pathlib import Path

import numpy as np

# each LAPACK entry point of numpy.linalg that the package or its tests reach, and its array
# arguments; a norm reaches LAPACK (an SVD) only as a 2, -2 or nuclear matrix norm
_LAPACK_INPUTS = {
    "eigh": lambda a, *args, **kwargs: (a,),
    "eigvalsh": lambda a, *args, **kwargs: (a,),
    "svd": lambda a, *args, **kwargs: (a,),
    "qr": lambda a, *args, **kwargs: (a,),
    "inv": lambda a, *args, **kwargs: (a,),
    "solve": lambda a, b, *args, **kwargs: (a, b),
    "norm": lambda x, ord=None, axis=None, keepdims=False: (
        (x,) if ord in (2, -2, "nuc") and (np.ndim(x) == 2 if axis is None else np.ndim(axis) == 1)
        else ()),
}
non_finite_lapack_calls = []  # the names of the guarded calls that saw one, until cleared


def _guarded(name, function, inputs):
    @functools.wraps(function)
    def guarded(*args, **kwargs):
        if not all(np.isfinite(x).all() for x in inputs(*args, **kwargs)):
            non_finite_lapack_calls.append(f"np.linalg.{name}")
        return function(*args, **kwargs)

    return guarded


def install():
    """Wrap each entry point of ``_LAPACK_INPUTS`` in ``numpy.linalg`` with the guard."""
    for name, inputs in _LAPACK_INPUTS.items():
        setattr(np.linalg, name, _guarded(name, getattr(np.linalg, name), inputs))


def report() -> str:
    """The failure message for the recorded calls, which it clears: empty if there are none."""
    calls = ", ".join(non_finite_lapack_calls)
    non_finite_lapack_calls.clear()
    return f"non-finite input reached LAPACK in {calls}" if calls else ""


if __name__ == "__main__":
    install()
    if sys.argv[1] == "-m":
        module = sys.argv[2]
        sys.argv = sys.argv[2:]  # run_module's alter_sys sets argv[0] to the module's file
        sys.path[0] = os.getcwd()  # as under python -m
        run = functools.partial(runpy.run_module, module, run_name="__main__", alter_sys=True)
    else:
        script = sys.argv[1]
        sys.argv = sys.argv[1:]
        sys.path[0] = str(Path(script).resolve().parent)  # as if the script were run itself
        run = functools.partial(runpy.run_path, script, run_name="__main__")
    try:
        run()
    finally:
        if non_finite_lapack_calls:
            sys.exit(report())
