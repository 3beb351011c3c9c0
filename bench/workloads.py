"""The three benchmark workloads: seeded inputs, CLI jobs and the output gate.

Each workload turns the workload seed into the input files the ``disd`` CLI
reads (a run config or a unitary file), names the ``main([...])`` calls that
make up one job, and checks what a job wrote. The program itself only ever
sees the generated files.

The gate has two parts. For every seed it checks invariants that any correct
output satisfies. For the published seeds it also compares against the
reference outputs in ``refs/``, made by running the seed code once: numeric
fields must agree within 1e-12 absolute, headers, row counts and integer or
boolean fields exactly. Bytes are not compared, because ``simulate`` output
moves at about 1e-15 with the BLAS thread count.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

WORKLOADS = ("locality-ion-cage", "simulate-dense", "decompose-generic")

#: Seed the benchmark's own results and references are recorded with.
DEFAULT_SEED = 7
#: Seed kept out of tuning, for checking later claims on unseen inputs.
HOLDOUT_SEED = 510072
PUBLISHED_SEEDS = (DEFAULT_SEED, HOLDOUT_SEED)

REF_TOL = 1e-12
# Trace distances and residuals are bounded by 1 in exact arithmetic; allow
# for the last bits of roundoff at the upper end.
UNIT_SLACK = 1e-12

PRESET = os.path.join("presets", "ion-cage.json")
# The part of the preset that fixes the locality workload's size. If the
# preset changes, the workload has changed and must be baselined again.
PRESET_SHAPE = {
    "dims": {"a": 2, "c": 3, "b": 4},
    "time": {"t_max": 20.0, "steps": 401},
    "locality": {"n_samples": 64, "threshold_bits": 0.01},
}

SIM_DIMS = (8, 4, 32)
SIM_STEPS = 200
SIM_T_MAX = 20.0
DEC_DIMS = (4, 4, 8)
DEC_MAX_ITERS = 200
DEC_RESTARTS = 5
PLANTED_MAX_RESIDUAL = 1e-10

LOC_HEADER = ["t", "signal_b_to_a", "signal_a_to_b", "mi_ab_bits"]
SIM_HEADER = ["t", "mi_ab_bits", "entropy_a_bits", "entropy_b_bits",
              "residual_eq4", "norm_error"]
DEC_KEYS = {"residual", "iterations", "converged", "restarts_used"}

# What the set-up probe loads: a run config, or the unitary files.
INPUT_KIND = {
    "locality-ion-cage": "config",
    "simulate-dense": "config",
    "decompose-generic": "unitary",
}
# Output files of one job, in the order the job's calls write them.
OUTPUTS = {
    "locality-ion-cage": ("locality.csv",),
    "simulate-dense": ("simulate.csv",),
    "decompose-generic": ("generic.json", "planted.json"),
}


class WorkloadError(Exception):
    """The workload cannot be set up from this checkout."""


def _pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _unitary_doc(u: np.ndarray) -> dict:
    a, c, b = DEC_DIMS
    return {"dims": {"a": a, "c": c, "b": b}, "u": [_pairs(row) for row in u]}


def generate(name: str, seed: int, root: str, workdir: str) -> list[str]:
    """Write the inputs of workload ``name`` for ``seed``; return their paths."""
    if name == "locality-ion-cage":
        with open(os.path.join(root, PRESET), encoding="utf-8") as fh:
            cfg = json.load(fh)
        for key, want in PRESET_SHAPE.items():
            if cfg.get(key) != want:
                raise WorkloadError(f"{PRESET}: '{key}' is {cfg.get(key)!r}, the "
                                    f"benchmark was defined with {want!r}")
        cfg["seed"] = seed
        paths = [os.path.join(workdir, "locality.json")]
        _write_json(paths[0], cfg)
    elif name == "simulate-dense":
        a, c, b = SIM_DIMS
        cfg = {
            "dims": {"a": a, "c": c, "b": b},
            "seed": seed,
            "couplings": {"c1": 50.0, "c2": 0.5},
            "model": {"family": "disd-canonical", "robust_index": 0},
            "initial": {"alpha": _pairs(np.full(a, 1 / math.sqrt(a), complex)),
                        "chi": _pairs(np.full(b, 1 / math.sqrt(b), complex)),
                        "robust_index": 0},
            "time": {"t_max": SIM_T_MAX, "steps": SIM_STEPS},
        }
        paths = [os.path.join(workdir, "simulate.json")]
        _write_json(paths[0], cfg)
    elif name == "decompose-generic":
        a, c, b = DEC_DIMS
        rng = np.random.default_rng(seed)
        generic = _haar(a * c * b, rng)
        v, w = _haar(a * c, rng), _haar(c * b, rng)
        planted = np.kron(np.eye(a), w) @ np.kron(v, np.eye(b))
        paths = [os.path.join(workdir, "generic_u.json"),
                 os.path.join(workdir, "planted_u.json")]
        _write_json(paths[0], _unitary_doc(generic))
        _write_json(paths[1], _unitary_doc(planted))
    else:
        raise WorkloadError(f"unknown workload {name!r}")
    return paths


def job_argvs(name: str, workdir: str) -> list[list[str]]:
    """The ``disd.cli.main`` argument lists that make up one job."""
    out = [os.path.join(workdir, f) for f in OUTPUTS[name]]
    if name == "locality-ion-cage":
        return [["locality", "--config", os.path.join(workdir, "locality.json"),
                 "--out", out[0]]]
    if name == "simulate-dense":
        return [["simulate", "--config", os.path.join(workdir, "simulate.json"),
                 "--out", out[0]]]
    return [["decompose", os.path.join(workdir, "generic_u.json"), "--out", out[0]],
            ["decompose", os.path.join(workdir, "planted_u.json"), "--out", out[1]]]


def output_paths(name: str, workdir: str) -> list[str]:
    return [os.path.join(workdir, f) for f in OUTPUTS[name]]


def ref_dir(bench_dir: str, name: str, seed: int) -> str:
    return os.path.join(bench_dir, "refs", name, str(seed))


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{os.path.basename(path)} is empty")
    return rows[0], rows[1:]


def _columns(header: list[str], rows: list[list[str]], fname: str) -> dict:
    """Parse every column as floats; flags ragged rows and non-finite values."""
    cols = {h: [] for h in header}
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{fname}: row {k} has {len(row)} fields, header has {len(header)}")
        for h, v in zip(header, row):
            x = float(v)
            if not math.isfinite(x):
                raise ValueError(f"{fname}: {h} is {v} at row {k}")
            cols[h].append(x)
    return cols


def _check_times(cols: dict, t_max: float, steps: int, fname: str) -> list[str]:
    want = np.linspace(0.0, t_max, steps).tolist()
    if cols["t"] != want:
        return [f"{fname}: t column differs from linspace(0, {t_max}, {steps})"]
    return []


def _check_range(cols: dict, key: str, lo: float, hi: float, fname: str) -> list[str]:
    bad = [x for x in cols[key] if not lo <= x <= hi]
    return [f"{fname}: {len(bad)} {key} values outside [{lo}, {hi}], e.g. {bad[0]!r}"] if bad else []


def _invariants_locality(path: str) -> list[str]:
    fname = os.path.basename(path)
    header, rows = _read_csv(path)
    if header != LOC_HEADER:
        return [f"{fname}: header {header}"]
    if len(rows) != PRESET_SHAPE["time"]["steps"]:
        return [f"{fname}: {len(rows)} rows"]
    cols = _columns(header, rows, fname)
    errs = _check_times(cols, PRESET_SHAPE["time"]["t_max"], PRESET_SHAPE["time"]["steps"], fname)
    for key in ("signal_b_to_a", "signal_a_to_b"):
        errs += _check_range(cols, key, 0.0, 1.0 + UNIT_SLACK, fname)
    errs += _check_range(cols, "mi_ab_bits", 0.0, math.inf, fname)
    return errs


def _invariants_simulate(path: str) -> list[str]:
    fname = os.path.basename(path)
    header, rows = _read_csv(path)
    if header not in (SIM_HEADER, SIM_HEADER + ["warn"]):
        return [f"{fname}: header {header}"]
    if len(rows) != SIM_STEPS:
        return [f"{fname}: {len(rows)} rows"]
    cols = _columns(header, rows, fname)
    errs = _check_times(cols, SIM_T_MAX, SIM_STEPS, fname)
    for key in ("mi_ab_bits", "entropy_a_bits", "entropy_b_bits", "residual_eq4"):
        errs += _check_range(cols, key, 0.0, math.inf, fname)
    errs += _check_range(cols, "norm_error", 0.0, 1e-8, fname)
    if "warn" in cols and (len(set(cols["warn"])) != 1 or cols["warn"][0] < 1
                           or any(not r[-1].isdigit() for r in rows)):
        errs.append(f"{fname}: warn column is not one positive integer")
    return errs


def _read_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or set(doc) != DEC_KEYS:
        raise ValueError(f"{os.path.basename(path)}: keys {sorted(doc) if isinstance(doc, dict) else doc!r}")
    return doc


def _invariants_decompose(path: str, planted: bool) -> list[str]:
    fname = os.path.basename(path)
    doc = _read_report(path)
    res, iters, restarts = doc["residual"], doc["iterations"], doc["restarts_used"]
    errs = []
    if not isinstance(res, float) or not 0.0 <= res <= 1.0:
        errs.append(f"{fname}: residual {res!r} outside [0, 1]")
    if type(iters) is not int or not 1 <= iters <= DEC_MAX_ITERS:
        errs.append(f"{fname}: iterations {iters!r} outside [1, {DEC_MAX_ITERS}]")
    if type(restarts) is not int or not 1 <= restarts <= DEC_RESTARTS:
        errs.append(f"{fname}: restarts_used {restarts!r} outside [1, {DEC_RESTARTS}]")
    if not isinstance(doc["converged"], bool):
        errs.append(f"{fname}: converged {doc['converged']!r} is not a boolean")
    if planted and not (isinstance(res, float) and res <= PLANTED_MAX_RESIDUAL):
        errs.append(f"{fname}: planted residual {res!r} > {PLANTED_MAX_RESIDUAL}")
    return errs


def _compare_csv(path: str, ref: str) -> list[str]:
    fname = os.path.basename(path)
    header, rows = _read_csv(path)
    ref_header, ref_rows = _read_csv(ref)
    if header != ref_header:
        return [f"{fname}: header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{fname}: {len(rows)} rows != reference {len(ref_rows)}"]
    worst, where = 0.0, None
    for k, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for h, v, r in zip(header, row, ref_row):
            if h == "warn":
                if v != r:
                    return [f"{fname}: warn {v} != reference {r} at row {k}"]
                continue
            d = abs(float(v) - float(r))
            if not d <= worst:
                worst, where = d, (h, k)
    if worst > REF_TOL:
        return [f"{fname}: {where[0]} differs from the reference by {worst:.3e} at row {where[1]}"]
    return []


def _compare_report(path: str, ref: str) -> list[str]:
    fname = os.path.basename(path)
    doc, want = _read_report(path), _read_report(ref)
    errs = []
    for key in sorted(DEC_KEYS):
        v, r = doc[key], want[key]
        if isinstance(r, float):
            if not abs(v - r) <= REF_TOL:
                errs.append(f"{fname}: {key} {v!r} differs from the reference {r!r}")
        elif v != r or type(v) is not type(r):
            errs.append(f"{fname}: {key} {v!r} != reference {r!r}")
    return errs


def check(name: str, seed: int, workdir: str, bench_dir: str) -> list[str]:
    """Every problem found in one job's outputs; an empty list means correct."""
    errs = []
    refs = ref_dir(bench_dir, name, seed) if seed in PUBLISHED_SEEDS else None
    for k, path in enumerate(output_paths(name, workdir)):
        fname = os.path.basename(path)
        try:
            if name == "locality-ion-cage":
                errs += _invariants_locality(path)
            elif name == "simulate-dense":
                errs += _invariants_simulate(path)
            else:
                errs += _invariants_decompose(path, planted=k == 1)
            if refs is not None:
                ref = os.path.join(refs, fname)
                errs += _compare_csv(path, ref) if fname.endswith(".csv") else _compare_report(path, ref)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errs.append(f"{fname}: {type(exc).__name__}: {exc}")
    return errs
