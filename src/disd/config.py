"""JSON run configurations and the [re, im] matrix wire format.

A configuration is a single JSON document. Complex scalars travel as
``[re, im]`` pairs (bare numbers are accepted and read as real); matrices
are row-major lists of rows of pairs. Floats round-trip exactly through
this format because json serializes them via repr.
"""

from __future__ import annotations

import json
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

from .model import InitialSpec, ModelSpec, build_canonical
from .qcore import Dims, ValidationError, _norm_and_unit

__all__ = [
    "ConfigError",
    "RunConfig",
    "dims_from_json",
    "initial_from_config",
    "load_config",
    "matrix_from_json",
    "matrix_to_json",
    "model_from_config",
    "parse_config",
    "read_json",
    "times_from_config",
    "unitary_from_json",
    "vector_from_json",
]

MODEL_FAMILIES = ("disd-canonical", "explicit")
MAX_SAMPLES = 100_000  # cap on locality.n_samples; each sample combines the evolved source basis


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


_REAL = (int, float)  # compared by exact type: a bool is not a number here
_BRIEF = reprlib.Repr()  # echoes a rejected value: short ones whole, large or deep ones cut
_BRIEF.maxlevel, _BRIEF.maxstring, _BRIEF.maxother = 2, 40, 40


def _entry_to_complex(x) -> complex:
    if type(x) in _REAL:
        return complex(x)
    if isinstance(x, (list, tuple)) and len(x) == 2 \
            and type(x[0]) in _REAL and type(x[1]) in _REAL:
        return complex(x[0], x[1])
    raise ConfigError(f"expected a number or [re, im] pair, got {_BRIEF.repr(x)}")


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


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


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
    initial: InitialSpec | None
    t_max: float | None
    steps: int | None
    n_samples: int
    threshold_bits: float
    sweep_grid: list | None  # (c1, c2) points in sweep order
    output_path: str | None


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", dict: "an object", list: "a list"}


def _check(val, kind, name: str):
    """val as ``kind``; bools are not numbers, and floats must be finite."""
    # the comparison is exact for huge ints and false for nan
    if kind is float and type(val) in _REAL and abs(val) <= sys.float_info.max:
        return float(val)
    if kind is not float and isinstance(val, kind) and (kind is bool or type(val) is not bool):
        return val
    raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {_BRIEF.repr(val)}")


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise ConfigError(f"missing '{key}' in {where}")
    return _check(doc[key], kind, f"{where}.{key}")


def _optional(doc: dict, key: str, kind, where: str, default):
    return _check(doc[key], kind, f"{where}.{key}") if key in doc else default


def _wire(name: str, parse, data, shape: tuple):
    """Parse a [re, im] vector or matrix of the given shape, naming the field on failure."""
    try:
        value = parse(data)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    if value.shape != shape:
        raise ConfigError(f"{name} has shape {value.shape}, expected {shape} from dims")
    return value


def _known(doc: dict, keys, where: str | None = None) -> None:
    """Reject the keys of ``doc`` outside ``keys``, naming each as a field."""
    unknown = [k if where is None else f"{where}.{k}" for k in doc if k not in keys]
    if unknown:
        raise ConfigError(f"unknown configuration keys: {unknown}")


def _values(sweep: dict, key: str) -> list[float]:
    values = _require(sweep, key, list, "sweep")
    return [_check(x, float, f"sweep.{key}[{i}]") for i, x in enumerate(values)]


def dims_from_json(doc: dict, where: str) -> Dims:
    """The document's ``dims`` object as Dims; each entry an integer >= 2."""
    sub = _require(doc, "dims", dict, where)
    _known(sub, ("a", "c", "b"), "dims")
    factors = [_require(sub, key, int, "dims") for key in ("a", "c", "b")]
    try:
        return Dims(*factors)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def unitary_from_json(doc, dims: Dims) -> tuple[Dims, np.ndarray]:
    """A unitary file's ``dims`` (``dims`` itself when the file has none) and its ``u``."""
    if not isinstance(doc, dict) or "u" not in doc:
        raise ConfigError("unitary file must be an object with a 'u' matrix")
    _known(doc, ("dims", "u"))
    if "dims" in doc:
        dims = dims_from_json(doc, "unitary file")
    return dims, _wire("u", matrix_from_json, doc["u"], (dims.total, dims.total))


_TOP_KEYS = {"dims", "seed", "couplings", "model", "initial", "time",
             "locality", "sweep", "output"}


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    _known(doc, _TOP_KEYS)

    dims = dims_from_json(doc, "config")

    seed = _optional(doc, "seed", int, "config", 0)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {_BRIEF.repr(seed)}")

    coup = _require(doc, "couplings", dict, "config")
    _known(coup, ("c1", "c2"), "couplings")
    c1 = _require(coup, "c1", float, "couplings")
    c2 = _require(coup, "c2", float, "couplings")
    if not c1 > 0:
        raise ConfigError(f"couplings.c1 must be positive, got {c1}")
    if c2 < 0:
        raise ConfigError(f"couplings.c2 must be non-negative, got {c2}")

    model = _require(doc, "model", dict, "config")
    _known(model, ("family", "robust_index", "matrices"), "model")
    family = _require(model, "family", str, "model")
    if family not in MODEL_FAMILIES:
        raise ConfigError(f"model.family must be one of {MODEL_FAMILIES}, got {_BRIEF.repr(family)}")
    robust_index = _optional(model, "robust_index", int, "model", 0)
    if not 0 <= robust_index < dims.c:
        raise ConfigError(f"model.robust_index {_BRIEF.repr(robust_index)} out of range for d_c = {dims.c}")
    matrices = None
    if family == "explicit":
        raw = _require(model, "matrices", dict, "model")
        sizes = {"h_a": dims.a, "h_c": dims.c, "h_b": dims.b,
                 "h_ac": dims.a * dims.c, "h_cb": dims.c * dims.b}
        _known(raw, sizes, "model.matrices")
        missing = [k for k in sizes if k not in raw]
        if missing:
            raise ConfigError(f"model.matrices missing {missing}")
        matrices = {k: _wire(f"model.matrices.{k}", matrix_from_json, raw[k], (n, n))
                    for k, n in sizes.items()}

    initial = None
    init = _optional(doc, "initial", dict, "config", None)
    if init is not None:
        _known(init, ("alpha", "chi", "robust_index", "normalize"), "initial")
        normalize = _optional(init, "normalize", bool, "initial", False)
        vectors = {}
        for key, dim in (("alpha", dims.a), ("chi", dims.b)):
            v = _wire(f"initial.{key}", vector_from_json, _require(init, key, list, "initial"), (dim,))
            if normalize:
                norm, v = _norm_and_unit(v)
                if norm == 0:
                    raise ConfigError(f"initial.{key} is zero and cannot be normalized")
            vectors[key] = v
        # accepted for the configs that carry it; the model alone fixes the C state
        if _optional(init, "robust_index", int, "initial", robust_index) != robust_index:
            raise ConfigError("initial.robust_index must match model.robust_index")
        try:
            initial = InitialSpec(**vectors)
        except ValidationError as exc:
            raise ValidationError(f"initial.{exc}") from None

    t_max = steps = None
    tsec = _optional(doc, "time", dict, "config", None)
    if tsec is not None:
        _known(tsec, ("t_max", "steps"), "time")
        t_max = _require(tsec, "t_max", float, "time")
        steps = _require(tsec, "steps", int, "time")
        if not t_max > 0:
            raise ConfigError(f"time.t_max must be positive, got {t_max}")
        if steps < 2:
            raise ConfigError(f"time.steps must be >= 2, got {steps}")
        # a subnormal step has lost digits and can repeat grid times; int < float compares exactly
        if steps - 1 > t_max / sys.float_info.min:
            raise ConfigError(f"time.t_max {t_max!r} is too small for time.steps "
                              f"{_BRIEF.repr(steps)}: the step t_max/(steps-1) underflows")

    loc = _optional(doc, "locality", dict, "config", {})
    _known(loc, ("n_samples", "threshold_bits"), "locality")
    n_samples = _optional(loc, "n_samples", int, "locality", 64)
    threshold_bits = _optional(loc, "threshold_bits", float, "locality", 0.01)
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ConfigError(
            f"locality.n_samples must be an integer in [1, {MAX_SAMPLES}], got {_BRIEF.repr(n_samples)}")
    if not threshold_bits > 0:
        raise ConfigError(f"locality.threshold_bits must be positive, got {threshold_bits}")

    grid = None
    sweep = _optional(doc, "sweep", dict, "config", None)
    if sweep is not None:
        _known(sweep, ("c1_values", "ratio_values"), "sweep")
        has_c1 = "c1_values" in sweep
        has_ratio = "ratio_values" in sweep
        if has_c1 == has_ratio:
            raise ConfigError("sweep needs exactly one of 'c1_values' or 'ratio_values'")
        if has_c1:
            c1_values = _values(sweep, "c1_values")
            if not c1_values or any(not v > 0 for v in c1_values):
                raise ConfigError("sweep.c1_values must be a non-empty list of positive numbers")
            grid = [(v, c2) for v in c1_values]
        else:
            ratio_values = _values(sweep, "ratio_values")
            if not ratio_values or any(v < 0 for v in ratio_values):
                raise ConfigError("sweep.ratio_values must be a non-empty list of non-negative numbers")
            for i, r in enumerate(ratio_values):
                if not np.isfinite(r * c1):
                    raise ConfigError(f"sweep.ratio_values[{i}] times couplings.c1 must be "
                                      f"finite, got {r!r} * {c1!r}")
            grid = [(c1, r * c1) for r in ratio_values]

    out = _optional(doc, "output", dict, "config", {})
    _known(out, ("path", "format"), "output")
    output_path = out.get("path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output.path must be a string")
    if out.get("format", "csv") != "csv":
        raise ConfigError(f"output.format must be 'csv', got {_BRIEF.repr(out['format'])}")

    return RunConfig(
        dims=dims, seed=seed, c1=c1, c2=c2,
        model_family=family, model_robust_index=robust_index, model_matrices=matrices,
        initial=initial, t_max=t_max, steps=steps,
        n_samples=n_samples, threshold_bits=threshold_bits,
        sweep_grid=grid, output_path=output_path,
    )


def read_json(path: str):
    """A JSON file's document; OSError propagates, bad or too deep JSON is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply to read") from None


def load_config(path: str) -> RunConfig:
    """Parse a config file read by :func:`read_json`."""
    return parse_config(read_json(path))


def model_from_config(cfg: RunConfig) -> ModelSpec:
    if cfg.model_family == "disd-canonical":
        return build_canonical(cfg.dims, cfg.seed, cfg.c1, cfg.c2, cfg.model_robust_index)
    return ModelSpec(dims=cfg.dims, c1=cfg.c1, c2=cfg.c2,
                     robust_index=cfg.model_robust_index, **cfg.model_matrices)


def initial_from_config(cfg: RunConfig) -> InitialSpec:
    if cfg.initial is None:
        raise ConfigError("this command requires an 'initial' section")
    return cfg.initial


def times_from_config(cfg: RunConfig) -> np.ndarray:
    if cfg.t_max is None or cfg.steps is None:
        raise ConfigError("this command requires a 'time' section")
    return np.linspace(0.0, cfg.t_max, cfg.steps)
