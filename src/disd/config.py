"""JSON run configurations and the [re, im] matrix wire format.

A configuration is a single JSON document. Complex scalars travel as
``[re, im]`` pairs (bare numbers are accepted and read as real); matrices
are row-major lists of rows of pairs. Floats round-trip exactly through
this format because json serializes them via repr.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from .model import InitialSpec, ModelSpec, build_canonical
from .qcore import Dims

__all__ = [
    "ConfigError",
    "RunConfig",
    "initial_from_config",
    "load_config",
    "matrix_from_json",
    "matrix_to_json",
    "model_from_config",
    "parse_config",
    "times_from_config",
    "vector_from_json",
    "vector_to_json",
]

MODEL_FAMILIES = ("disd-canonical", "explicit")
EXPLICIT_MATRIX_KEYS = ("h_a", "h_c", "h_b", "h_ac", "h_cb")


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


_REAL = (int, float)  # compared by exact type: a bool is not a number here


def _entry_to_complex(x) -> complex:
    if type(x) in _REAL:
        return complex(x)
    if isinstance(x, (list, tuple)) and len(x) == 2 \
            and type(x[0]) in _REAL and type(x[1]) in _REAL:
        return complex(x[0], x[1])
    raise ConfigError(f"expected a number or [re, im] pair, got {x!r}")


def vector_from_json(data) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ConfigError("vector must be a non-empty list")
    try:
        v = np.array([_entry_to_complex(x) for x in data], dtype=complex)
    except OverflowError as exc:
        raise ConfigError(f"vector entry out of range: {exc}") from None
    if not np.isfinite(v).all():
        raise ConfigError("vector entries must be finite")
    return v


def matrix_from_json(data) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ConfigError("matrix must be a non-empty list of rows")
    rows = [vector_from_json(row) for row in data]
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise ConfigError("matrix rows have inconsistent lengths")
    return np.array(rows, dtype=complex)


def vector_to_json(v: np.ndarray) -> list:
    return [[float(np.real(x)), float(np.imag(x))] for x in np.asarray(v)]


def matrix_to_json(m: np.ndarray) -> list:
    return [vector_to_json(row) for row in np.asarray(m)]


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration; optional sections are None when absent."""

    dims: Dims
    seed: int
    c1: float
    c2: float
    model_family: str
    model_robust_index: int
    model_matrices: dict | None
    initial_alpha: np.ndarray | None
    initial_chi: np.ndarray | None
    initial_robust_index: int
    initial_normalize: bool
    t_max: float | None
    steps: int | None
    n_samples: int
    threshold_bits: float
    sweep_c1_values: list | None
    sweep_ratio_values: list | None
    output_path: str | None
    output_format: str

    def with_seed(self, seed: int) -> "RunConfig":
        return dataclasses.replace(self, seed=int(seed))


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", dict: "an object", list: "a list"}


def _check(val, kind, name: str):
    """val as ``kind``; bools are not numbers, and floats must be finite."""
    # the comparison is exact for huge ints and false for nan
    if kind is float and type(val) in _REAL and abs(val) <= sys.float_info.max:
        return float(val)
    if kind is not float and isinstance(val, kind) and (kind is bool or type(val) is not bool):
        return val
    raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {val!r}")


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise ConfigError(f"missing '{key}' in {where}")
    return _check(doc[key], kind, f"{where}.{key}")


def _optional(doc: dict, key: str, kind, where: str, default):
    return _check(doc[key], kind, f"{where}.{key}") if key in doc else default


def _wire(name: str, parse, data):
    """Parse a [re, im] vector or matrix, naming the field on failure."""
    try:
        return parse(data)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _values(sweep: dict, key: str) -> list[float]:
    values = _require(sweep, key, list, "sweep")
    return [_check(x, float, f"sweep.{key}[{i}]") for i, x in enumerate(values)]


_TOP_KEYS = {"dims", "seed", "couplings", "model", "initial", "time",
             "locality", "sweep", "output"}


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")

    dims_doc = _require(doc, "dims", dict, "config")
    try:
        dims = Dims(_require(dims_doc, "a", int, "dims"),
                    _require(dims_doc, "c", int, "dims"),
                    _require(dims_doc, "b", int, "dims"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")

    coup = _require(doc, "couplings", dict, "config")
    c1 = _require(coup, "c1", float, "couplings")
    c2 = _require(coup, "c2", float, "couplings")
    if not c1 > 0:
        raise ConfigError(f"couplings.c1 must be positive, got {c1}")
    if c2 < 0:
        raise ConfigError(f"couplings.c2 must be non-negative, got {c2}")

    model = _require(doc, "model", dict, "config")
    family = _require(model, "family", str, "model")
    if family not in MODEL_FAMILIES:
        raise ConfigError(f"model.family must be one of {MODEL_FAMILIES}, got {family!r}")
    robust_index = _optional(model, "robust_index", int, "model", 0)
    if not 0 <= robust_index < dims.c:
        raise ConfigError(f"model.robust_index {robust_index!r} out of range for d_c = {dims.c}")
    matrices = None
    if family == "explicit":
        raw = _require(model, "matrices", dict, "model")
        missing = [k for k in EXPLICIT_MATRIX_KEYS if k not in raw]
        if missing:
            raise ConfigError(f"model.matrices missing {missing}")
        matrices = {k: _wire(f"model.matrices.{k}", matrix_from_json, raw[k])
                    for k in EXPLICIT_MATRIX_KEYS}

    alpha = chi = None
    init_robust = robust_index
    init_normalize = False
    if "initial" in doc:
        init = doc["initial"]
        if not isinstance(init, dict):
            raise ConfigError("'initial' must be an object")
        alpha = _wire("initial.alpha", vector_from_json, _require(init, "alpha", list, "initial"))
        chi = _wire("initial.chi", vector_from_json, _require(init, "chi", list, "initial"))
        init_robust = _optional(init, "robust_index", int, "initial", robust_index)
        if not 0 <= init_robust < dims.c:
            raise ConfigError(f"initial.robust_index {init_robust!r} out of range")
        if init_robust != robust_index:
            raise ConfigError("initial.robust_index must match model.robust_index")
        init_normalize = _optional(init, "normalize", bool, "initial", False)

    t_max = steps = None
    if "time" in doc:
        tsec = doc["time"]
        if not isinstance(tsec, dict):
            raise ConfigError("'time' must be an object")
        t_max = _require(tsec, "t_max", float, "time")
        steps = _require(tsec, "steps", int, "time")
        if not t_max > 0:
            raise ConfigError(f"time.t_max must be positive, got {t_max}")
        if steps < 2:
            raise ConfigError(f"time.steps must be >= 2, got {steps}")

    n_samples = 64
    threshold_bits = 0.01
    if "locality" in doc:
        loc = doc["locality"]
        if not isinstance(loc, dict):
            raise ConfigError("'locality' must be an object")
        n_samples = _optional(loc, "n_samples", int, "locality", 64)
        threshold_bits = _optional(loc, "threshold_bits", float, "locality", 0.01)
        if n_samples < 1:
            raise ConfigError(f"locality.n_samples must be a positive integer, got {n_samples!r}")
        if not threshold_bits > 0:
            raise ConfigError(f"locality.threshold_bits must be positive, got {threshold_bits}")

    c1_values = ratio_values = None
    if "sweep" in doc:
        sweep = doc["sweep"]
        if not isinstance(sweep, dict):
            raise ConfigError("'sweep' must be an object")
        has_c1 = "c1_values" in sweep
        has_ratio = "ratio_values" in sweep
        if has_c1 == has_ratio:
            raise ConfigError("sweep needs exactly one of 'c1_values' or 'ratio_values'")
        if has_c1:
            c1_values = _values(sweep, "c1_values")
            if not c1_values or any(not v > 0 for v in c1_values):
                raise ConfigError("sweep.c1_values must be a non-empty list of positive numbers")
        else:
            ratio_values = _values(sweep, "ratio_values")
            if not ratio_values or any(v < 0 for v in ratio_values):
                raise ConfigError("sweep.ratio_values must be a non-empty list of non-negative numbers")

    output_path = None
    output_format = "csv"
    if "output" in doc:
        out = doc["output"]
        if not isinstance(out, dict):
            raise ConfigError("'output' must be an object")
        output_path = out.get("path")
        if output_path is not None and not isinstance(output_path, str):
            raise ConfigError("output.path must be a string")
        output_format = out.get("format", "csv")
        if output_format != "csv":
            raise ConfigError(f"output.format must be 'csv', got {output_format!r}")

    return RunConfig(
        dims=dims, seed=seed, c1=c1, c2=c2,
        model_family=family, model_robust_index=robust_index, model_matrices=matrices,
        initial_alpha=alpha, initial_chi=chi,
        initial_robust_index=init_robust, initial_normalize=init_normalize,
        t_max=t_max, steps=steps,
        n_samples=n_samples, threshold_bits=threshold_bits,
        sweep_c1_values=c1_values, sweep_ratio_values=ratio_values,
        output_path=output_path, output_format=output_format,
    )


def load_config(path: str) -> RunConfig:
    """Parse a config file; OSError propagates, bad JSON becomes ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(doc)


def model_from_config(cfg: RunConfig) -> ModelSpec:
    if cfg.model_family == "disd-canonical":
        return build_canonical(cfg.dims, cfg.seed, cfg.c1, cfg.c2, cfg.model_robust_index)
    spec = ModelSpec(dims=cfg.dims, c1=cfg.c1, c2=cfg.c2,
                     robust_index=cfg.model_robust_index, **cfg.model_matrices)
    spec.validate()
    return spec


def initial_from_config(cfg: RunConfig) -> InitialSpec:
    if cfg.initial_alpha is None:
        raise ConfigError("this command requires an 'initial' section")
    return InitialSpec(alpha=cfg.initial_alpha, chi=cfg.initial_chi,
                       robust_index=cfg.initial_robust_index,
                       normalize=cfg.initial_normalize)


def times_from_config(cfg: RunConfig) -> np.ndarray:
    if cfg.t_max is None or cfg.steps is None:
        raise ConfigError("this command requires a 'time' section")
    return np.linspace(0.0, cfg.t_max, cfg.steps)
