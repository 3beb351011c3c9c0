"""Command line drivers: deterministic experiment runs emitting CSV/JSON.

Subcommands: ``simulate``, ``sweep``, ``locality``, ``decompose``,
``make-model``. Every command is a pure function of its configuration bytes;
at a fixed BLAS thread count re-running writes byte-identical output. Exit
codes: 0 ok, 1 config error (also a configured size too large to allocate),
2 numerical/validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    dims_from_json,
    initial_from_config,
    load_config,
    matrix_from_json,
    matrix_to_json,
    model_from_config,
    read_json,
    times_from_config,
)
from .decompose import planted_sequential, sequential_residual
from .evolve import perturbation_data, propagate, residuals_along
from .locality import mi_and_entropies, mi_trajectory, signaling_test, tau_estimate
from .qcore import Dims, ValidationError

__all__ = [
    "SweepRow",
    "cmd_decompose",
    "cmd_locality",
    "cmd_make_model",
    "cmd_simulate",
    "cmd_sweep",
    "main",
    "sweep_rows",
]


@dataclass(frozen=True)
class SweepRow:
    """One coupling grid point of a sweep."""

    c1: float
    c2: float
    ratio: float
    lambda_sup: float
    max_residual: float
    tau_est: float | None
    gap_warnings: int


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _csv(header: str, rows: list[list[str]]) -> str:
    lines = [header] + [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def cmd_simulate(cfg: RunConfig) -> str:
    spec = model_from_config(cfg)
    init = initial_from_config(cfg)
    times = times_from_config(cfg)
    pd = perturbation_data(spec)
    traj = propagate(spec, init, times)

    mi, s_a, s_b = mi_and_entropies(traj)
    residuals = residuals_along(traj, pd)
    norms = np.linalg.norm(traj.states, axis=1)
    warn = len(pd.gap_warnings)

    header = "t,mi_ab_bits,entropy_a_bits,entropy_b_bits,residual_eq4,norm_error"
    if warn:
        header += ",warn"
    rows = []
    for k, t in enumerate(times):
        row = [
            _fmt(t),
            _fmt(mi[k]),
            _fmt(s_a[k]),
            _fmt(s_b[k]),
            _fmt(residuals[k]),
            _fmt(abs(norms[k] - 1.0)),
        ]
        if warn:
            row.append(str(warn))
        rows.append(row)
    return _csv(header, rows)


def sweep_rows(cfg: RunConfig) -> list[SweepRow]:
    """Evaluate every coupling grid point; rows come back in grid order."""
    if cfg.sweep_grid is None:
        raise ConfigError("sweep requires a 'sweep' section")
    base = model_from_config(cfg)
    init = initial_from_config(cfg)
    times = times_from_config(cfg)

    out = []
    for c1, c2 in cfg.sweep_grid:
        spec = dataclasses.replace(base, c1=float(c1), c2=float(c2))
        pd = perturbation_data(spec)
        traj = propagate(spec, init, times)
        max_residual = float(residuals_along(traj, pd).max())
        mi = mi_trajectory(traj)
        del traj  # frees this point's states (and eigensystem, if one was built) before the next
        out.append(SweepRow(
            c1=float(c1), c2=float(c2), ratio=float(c2) / float(c1),
            lambda_sup=pd.lambda_sup,
            max_residual=max_residual,
            tau_est=tau_estimate(times, mi, cfg.threshold_bits),
            gap_warnings=len(pd.gap_warnings),
        ))
    return out


def cmd_sweep(cfg: RunConfig) -> str:
    header = "c1,c2,ratio,lambda_sup,max_residual,tau_est,gap_warnings"
    rows = []
    for r in sweep_rows(cfg):
        rows.append([
            _fmt(r.c1), _fmt(r.c2), _fmt(r.ratio), _fmt(r.lambda_sup),
            _fmt(r.max_residual),
            "" if r.tau_est is None else _fmt(r.tau_est),
            str(r.gap_warnings),
        ])
    return _csv(header, rows)


def cmd_locality(cfg: RunConfig) -> str:
    traj = propagate(model_from_config(cfg), initial_from_config(cfg), times_from_config(cfg))
    mi = mi_trajectory(traj)
    b_to_a, a_to_b = (signaling_test(traj, d, cfg.n_samples, cfg.seed) for d in ("b_to_a", "a_to_b"))
    header = "t,signal_b_to_a,signal_a_to_b,mi_ab_bits"
    rows = [[_fmt(t), _fmt(b_to_a[k]), _fmt(a_to_b[k]), _fmt(mi[k])]
            for k, t in enumerate(traj.times)]
    return _csv(header, rows)


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


def _seed(text: str) -> int:
    """The value of ``--seed``: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _build_parser() -> _Parser:
    parser = _Parser(prog="disd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _CONFIG_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        p.add_argument("--seed", type=_seed)

    p = sub.add_parser("decompose")
    p.add_argument("unitary", nargs="?")
    p.add_argument("--plant", metavar="seed=<int>")
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


def _parse_plant(value: str) -> int:
    key, _, raw = value.partition("=")
    if key != "seed" or not raw:
        raise ConfigError(f"--plant expects seed=<int>, got {value!r}")
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"--plant seed must be an integer, got {raw!r}") from exc


def _run_decompose(args) -> None:
    cfg = None
    if args.config:
        cfg = load_config(args.config)
    dims = cfg.dims if cfg is not None else Dims(2, 2, 2)
    seed = args.seed if args.seed is not None else (cfg.seed if cfg else 0)

    if args.plant:
        u = planted_sequential(dims, _parse_plant(args.plant))
    elif args.unitary:
        doc = read_json(args.unitary)
        if not isinstance(doc, dict) or "u" not in doc:
            raise ConfigError("unitary file must be an object with a 'u' matrix")
        if "dims" in doc:
            dims = dims_from_json(doc, "unitary file")
        u = matrix_from_json(doc["u"])
    else:
        raise ConfigError("decompose needs a unitary file or --plant seed=<int>")

    report = cmd_decompose(u, dims, seed=seed, dump_factors=args.dump_factors)
    _emit(json.dumps(report, indent=2) + "\n", args.out)


def main(argv=None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "decompose":
            _run_decompose(args)
        else:
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=args.seed)
            _emit(_CONFIG_COMMANDS[args.command](cfg), args.out or cfg.output_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
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
