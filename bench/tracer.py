"""Spans around the public functions of every ``disd`` module.

A :class:`Tracer` wraps each public function of the layers below, plus the
``Propagator`` methods, in a span recorder. A span records its name, start,
end and parent span. Spans live in compact in-memory arrays and are turned
into per-layer numbers after each traced job. A layer's self time is the time
its spans cover minus the time their child spans cover.

``from .qcore import rdm_from_state`` copies the function reference into the
importing module, so a function is patched under every name, in every
``disd`` module, that refers to it.

The untraced benchmark run never imports this module.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
import warnings
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "config", "model", "evolve", "locality", "qcore", "decompose")
CLASS_METHODS = {"evolve": {"Propagator": ("__init__", "evolve_many", "apply")}}


def _times_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["times"]


# Counts taken at a span boundary from its arguments or result.
HOOKS = {
    "evolve.Propagator.evolve_many":
        lambda c, args, kwargs, out: c.update({"states": np.size(_times_arg(args, kwargs))}),
    "evolve.Propagator.apply": lambda c, args, kwargs, out: c.update({"states": 1}),
    "decompose.sequential_residual":
        lambda c, args, kwargs, out: c.update({"restarts": out.restarts_used}),
}
# The alternating search has no public per-iteration boundary: each iteration
# makes two polar (unitary Procrustes) steps, so they are counted instead.
POLAR_STEP = ("decompose", "_polar_unitary")

# name of per-layer metric -> span names whose top-level spans it sums
GROUPS = {
    "qcore.entropy_s": ("qcore.vn_entropy",),
    "locality.mi_s": ("locality.mi_trajectory", "qcore.mutual_information"),
    "evolve.eigh_s": ("evolve.Propagator.__init__",),
    "evolve.evolve_s": ("evolve.Propagator.evolve_many", "evolve.Propagator.apply"),
    "evolve.perturbation_s": ("evolve.perturbation_data",),
    "evolve.residual_s": ("evolve.residuals_along", "evolve.approx_residual"),
    "model.assemble_s": ("model.assemble_hamiltonian",),
    "model.build_s": ("model.build_canonical",),
}
# name of per-layer metric -> span name it counts
CALLS = {
    "qcore.rdm_calls": "qcore.rdm_from_state",
    "qcore.entropy_calls": "qcore.vn_entropy",
    "qcore.trace_distance_calls": "qcore.trace_distance",
    "qcore.haar_calls": "qcore.haar_unitary",
    "evolve.eigh_calls": "evolve.Propagator.__init__",
    "evolve.evolve_many_calls": "evolve.Propagator.evolve_many",
    "evolve.residual_calls": "evolve.approx_residual",
    "decompose.compose_calls": "decompose.sequential_unitary",
}
#: Per-layer metrics whose value must repeat exactly from job to job.
COUNT_METRICS = tuple(f"{layer}.calls" for layer in LAYERS) + tuple(CALLS) + (
    "evolve.states_evolved", "decompose.iterations", "decompose.restarts", "trace.spans"
) + tuple(f"{layer}.warnings" for layer in LAYERS)


class Tracer:
    """Span recorder for one process; install, run jobs, read metrics, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counts of the previous job."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack: list[int] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("disd")
        modules = {layer: importlib.import_module(f"disd.{layer}") for layer in LAYERS}
        owners = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    span = f"{layer}.{attr}"
                    wrapped = self._wrap(span, fn, HOOKS.get(span))
                    for owner in owners:
                        for key, val in list(vars(owner).items()):
                            if val is fn:
                                self._patch(owner, key, wrapped)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    span = f"{layer}.{cls_name}.{meth}"
                    self._patch(cls, meth, self._wrap(span, vars(cls)[meth], HOOKS.get(span)))
        layer, attr = POLAR_STEP
        step = getattr(modules[layer], attr, None)
        if step is not None:
            self._patch(modules[layer], attr, self._counted("polar_steps", step))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _wrap(self, span: str, fn, hook):
        nid = self._name_id(span)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                hook(tracer.counts, args, kwargs, out)
            return out

        return traced

    def _counted(self, key: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- one traced job ----------------------------------------------------

    def run(self, job):
        """Run ``job()`` traced; return (wall seconds, warnings recorded)."""
        self.reset()
        self.install()
        try:
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                job()
                wall = time.perf_counter() - t0
        finally:
            self.uninstall()
        return wall, list(log)

    def metrics(self, caught) -> dict[str, float]:
        """Per-layer metrics of the spans and warnings of the last job."""
        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.intc)
        layer = layer_of[name] if len(name) else name

        out = {}
        for i, lyr in enumerate(LAYERS):
            mine = layer == i
            out[f"{lyr}.calls"] = int(mine.sum())
            out[f"{lyr}.self_s"] = float(self_time[mine].sum())
        for metric, span in CALLS.items():
            out[metric] = int((name == self._ids[span]).sum()) if span in self._ids else 0
        for metric, spans in GROUPS.items():
            out[metric] = self._top_level_time(name, parent, dur, spans)
        out["evolve.states_evolved"] = self.counts["states"]
        out["decompose.restarts"] = self.counts["restarts"]
        out["decompose.iterations"] = self.counts["polar_steps"] // 2
        out["qcore.s_per_call"] = _ratio(out["qcore.self_s"], out["qcore.calls"])
        out["decompose.s_per_iteration"] = _ratio(out["decompose.self_s"], out["decompose.iterations"])
        by_layer = Counter(os.path.splitext(os.path.basename(w.filename))[0] for w in caught)
        for lyr in LAYERS:
            out[f"{lyr}.warnings"] = by_layer[lyr]
        out["trace.spans"] = len(name)
        return out

    def _top_level_time(self, name, parent, dur, spans) -> float:
        """Time of the spans named in ``spans`` that no such span encloses."""
        ids = [self._ids[s] for s in spans if s in self._ids]
        member = np.isin(name, ids)
        enclosed = np.zeros_like(member)
        anc = parent.copy()
        live = anc >= 0
        while live.any():
            enclosed[live] |= member[anc[live]]
            anc[live] = parent[anc[live]]
            live = anc >= 0
        return float(dur[member & ~enclosed].sum())

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans of the last job as JSON (times relative to its first span)."""
        start = np.frombuffer(self.start)
        t0 = float(start[0]) if len(start) else 0.0
        doc = dict(meta, names=self.names, span_name=self.name.tolist(),
                   span_parent=self.parent.tolist(),
                   span_start=[s - t0 for s in self.start],
                   span_end=[e - t0 for e in self.end])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
