"""Command line drivers: deterministic experiment runs emitting CSV/JSON.

Subcommands: ``simulate``, ``sweep``, ``locality``, ``decompose``,
``make-model``. Every command is a pure function of its configuration bytes;
at a fixed BLAS thread count re-running writes byte-identical output. At
another thread count the headers are the same and every number agrees within
1e-12 (tested at one and two OpenBLAS threads). Exit
codes: 0 ok, 1 config error (also a configured size too large to allocate),
2 numerical/validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    _named,
    initial_from_config,
    load_config,
    matrix_to_json,
    model_from_config,
    read_json,
    times_from_config,
    unitary_from_json,
)
from .decompose import planted_sequential, sequential_residual
from .evolve import simulate_columns
from .locality import locality_columns, tau_estimate
from .qcore import Dims, ValidationError, _check_seed

__all__ = [
    "cmd_decompose",
    "cmd_locality",
    "cmd_make_model",
    "cmd_simulate",
    "cmd_sweep",
    "main",
    "sweep_columns",
]


def _csv(columns: dict) -> str:
    """CSV text of named, equally long columns: a header of the names, then one row per index.

    Values are written with 17 significant digits and None as an empty field.
    """
    lines = [",".join(columns)]
    for row in zip(*columns.values()):
        lines.append(",".join("" if x is None else format(float(x), ".17g") for x in row))
    return "\n".join(lines) + "\n"


def cmd_simulate(cfg: RunConfig) -> str:
    times = times_from_config(cfg)
    pd, columns = simulate_columns(model_from_config(cfg), initial_from_config(cfg), times)
    columns = {"t": times, **columns}
    if pd.gap_warnings:
        columns["warn"] = [len(pd.gap_warnings)] * len(times)
    return _csv(columns)


def sweep_columns(cfg: RunConfig) -> dict[str, list]:
    """Evaluate every coupling grid point; each column holds one value per point, in grid order.

    ``tau_est`` is None where the mutual information never crosses the threshold.
    """
    if cfg.sweep_grid is None:
        raise ConfigError("sweep requires a 'sweep' section")
    base = model_from_config(cfg)
    init = initial_from_config(cfg)
    times = times_from_config(cfg)

    columns = {name: [] for name in ("c1", "c2", "ratio", "lambda_sup", "max_residual",
                                     "tau_est", "gap_warnings")}
    for c1, c2 in cfg.sweep_grid:
        pd, point = simulate_columns(dataclasses.replace(base, c1=c1, c2=c2), init, times)
        columns["c1"].append(c1)
        columns["c2"].append(c2)
        columns["ratio"].append(c2 / c1)
        columns["lambda_sup"].append(pd.lambda_sup)
        columns["max_residual"].append(float(point["residual_eq4"].max()))
        columns["tau_est"].append(tau_estimate(times, point["mi_ab_bits"], cfg.threshold_bits))
        columns["gap_warnings"].append(len(pd.gap_warnings))
    return columns


def cmd_sweep(cfg: RunConfig) -> str:
    return _csv(sweep_columns(cfg))


def cmd_locality(cfg: RunConfig) -> str:
    times = times_from_config(cfg)
    return _csv({"t": times, **locality_columns(model_from_config(cfg), initial_from_config(cfg),
                                                times, cfg.n_samples, cfg.seed)})


def cmd_decompose(u: np.ndarray, dims: Dims, seed: int = 0,
                  dump_factors: bool = False) -> dict:
    result = sequential_residual(u, dims, seed=seed)
    report = {
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "restarts_used": result.restarts_used,
    }
    if dump_factors:
        report["v_ac"] = matrix_to_json(result.v_ac)
        report["w_cb"] = matrix_to_json(result.w_cb)
    return report


def cmd_make_model(cfg: RunConfig) -> dict:
    spec = model_from_config(cfg)
    return {
        "dims": {"a": cfg.dims.a, "c": cfg.dims.c, "b": cfg.dims.b},
        "family": cfg.model_family,
        "seed": cfg.seed,
        "c1": spec.c1,
        "c2": spec.c2,
        "robust_index": spec.robust_index,
        "matrices": {name: matrix_to_json(getattr(spec, name))
                     for name in ("h_a", "h_c", "h_b", "h_ac", "h_cb")},
    }


# The subcommands driven by a config file, each mapping it to the output text.
# Each command is looked up by name at call time, so a wrapper installed on
# the module attribute (a profiler or tracer) sees the call.
_CONFIG_COMMANDS = {
    "simulate": lambda cfg: cmd_simulate(cfg),
    "sweep": lambda cfg: cmd_sweep(cfg),
    "locality": lambda cfg: cmd_locality(cfg),
    "make-model": lambda cfg: json.dumps(cmd_make_model(cfg), indent=2) + "\n",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _seed(text: str) -> int | str:
    """The value of ``--seed``: its integer, or the text itself; ``main`` checks it as a seed."""
    try:
        return int(text)
    except ValueError:
        return text


def _plant(text: str) -> int | str:
    """The value of ``--plant``: seed=<int>, a seed that obeys the rule of ``--seed``."""
    key, _, raw = text.partition("=")
    if key != "seed":
        raise argparse.ArgumentTypeError(f"expects seed=<int>, got {text!r}")
    return _seed(raw)


def _build_parser() -> _Parser:
    parser = _Parser(prog="disd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _CONFIG_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        p.add_argument("--seed", type=_seed)

    p = sub.add_parser("decompose")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("unitary", nargs="?")
    source.add_argument("--plant", metavar="seed=<int>", type=_plant)
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--dump-factors", action="store_true")
    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _run_decompose(args) -> None:
    cfg = None
    if args.config:
        cfg = load_config(args.config)
    dims = cfg.dims if cfg is not None else Dims(2, 2, 2)
    seed = args.seed if args.seed is not None else (cfg.seed if cfg else 0)

    if args.plant is not None:
        u = planted_sequential(dims, args.plant)
    else:
        dims, u = unitary_from_json(read_json(args.unitary), dims)

    report = cmd_decompose(u, dims, seed=seed, dump_factors=args.dump_factors)
    _emit(json.dumps(report, indent=2) + "\n", args.out)


def main(argv=None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        for flag in ("seed", "plant"):
            if getattr(args, flag, None) is not None:
                _named(f"argument --{flag}: ", _check_seed, getattr(args, flag))
        if args.command == "decompose":
            _run_decompose(args)
        else:
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=args.seed)
            _emit(_CONFIG_COMMANDS[args.command](cfg), args.out or cfg.output_path)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a configured size too large to allocate, such as a huge time.steps
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        # a numerical failure (a factorization that did not converge), not bad input
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # contract violations that are neither numeric nor parse errors
        # (inconsistent shapes between file fields, bad indices) are the
        # caller's input problem
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
