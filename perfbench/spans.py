"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the solver: each layer's public
function is replaced, on the module or class attribute its callers look
up at call time, by a wrapper that records (layer, start, end, parent).
Nothing inside ``src/dgtd`` is edited. A lookup site the program no
longer has is skipped, and the layer is then reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# layer -> the (module, attribute) sites through which callers reach it
FUNCTION_SITES = {
    "mesh.build": [("dgtd.mesh", "structured_square_mesh"),
                   ("dgtd.experiments", "structured_square_mesh")],
    "reference_element.build": [("dgtd.reference_element", "build_reference_element"),
                                ("dgtd.experiments", "build_reference_element"),
                                ("dgtd.stability", "build_reference_element")],
    "materials.face_impedances": [("dgtd.materials", "face_impedances"),
                                  ("dgtd.dg_core", "face_impedances"),
                                  ("dgtd.stability", "face_impedances")],
    "stability.theoretical_bound": [("dgtd.stability", "theoretical_bound"),
                                    ("dgtd.experiments", "theoretical_bound")],
    "dg_core.numerical_flux": [("dgtd.dg_core", "numerical_flux")],
    "leapfrog.step": [("dgtd.leapfrog", "step")],
    "leapfrog.discrete_energy": [("dgtd.leapfrog", "discrete_energy")],
    "leapfrog.run": [("dgtd.leapfrog", "run"), ("dgtd.experiments", "run")],
    "experiments.classify": [("dgtd.experiments", "classify_stability")],
    "experiments.find_dtmax": [("dgtd.experiments", "find_dtmax")],
    "experiments.run_table": [("dgtd.experiments", "run_table")],
}

# layer -> method of dgtd.dg_core.SpatialOperator
METHOD_SITES = {
    "dg_core.operator_init": "__init__",
    "dg_core.rhs_e": "rhs_e",
    "dg_core.rhs_h": "rhs_h",
    "dg_core.traces_all": "traces_all",
}

# per-layer timing metric -> (layer, unit, seconds-to-unit factor)
TIMINGS = {
    "mesh.build_s": ("mesh.build", "s", 1.0),
    "stability.theoretical_bound_s": ("stability.theoretical_bound", "s", 1.0),
    "dg_core.operator_init_s": ("dg_core.operator_init", "s", 1.0),
    "reference_element.build_s": ("reference_element.build", "s", 1.0),
    "materials.face_impedances_s": ("materials.face_impedances", "s", 1.0),
    "leapfrog.step_ms": ("leapfrog.step", "ms", 1e3),
    "dg_core.traces_all_ms": ("dg_core.traces_all", "ms", 1e3),
    "dg_core.numerical_flux_ms": ("dg_core.numerical_flux", "ms", 1e3),
    "dg_core.rhs_e_ms": ("dg_core.rhs_e", "ms", 1e3),
    "dg_core.rhs_h_ms": ("dg_core.rhs_h", "ms", 1e3),
    "leapfrog.discrete_energy_ms": ("leapfrog.discrete_energy", "ms", 1e3),
    "experiments.find_dtmax_s": ("experiments.find_dtmax", "s", 1.0),
    "experiments.classify_s": ("experiments.classify", "s", 1.0),
    "experiments.run_table_s": ("experiments.run_table", "s", 1.0),
}

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _peak_ratio(result) -> float:
    energy = result.energy[:, 2]
    return float(energy.max() / energy[0])


# layer -> observer(args, result) whose value is kept with the span
OBSERVERS = {
    "experiments.classify": lambda args, out: (float(args[0]), bool(out)),
    "leapfrog.run": lambda args, out: _peak_ratio(out),
}


class SpanRecorder:
    """Spans kept in flat arrays; one recorder per benchmark run."""

    def __init__(self):
        self.layers: list[str] = []
        self.layer_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, layer: str) -> int:
        if layer not in self.layer_id:
            self.layer_id[layer] = len(self.layers)
            self.layers.append(layer)
        return self.layer_id[layer]

    def _open(self, layer_id: int) -> int:
        idx = len(self.name)
        self.name.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, layer: str):
        """A span around the benchmark's own code."""
        idx = self._open(self._id(layer))
        self.start[idx] = perf_counter()
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, fn):
        layer_id = self._id(layer)
        observe = OBSERVERS.get(layer)
        open_, start, end, stack, notes = self._open, self.start, self.end, self._stack, self.notes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(layer_id)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                notes[idx] = observe(args, out)
            return out

        return wrapper

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for layer, sites in FUNCTION_SITES.items():
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(layer, fn)
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])
        cls = getattr(importlib.import_module("dgtd.dg_core"), "SpatialOperator", None)
        for layer, attr in METHOD_SITES.items():
            fn = cls.__dict__.get(attr) if cls is not None else None
            if fn is None:
                continue
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(layer, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    @contextmanager
    def installed(self, layer: str):
        """Wrappers on for the duration, inside one root span."""
        self.install()
        try:
            with self.span(layer):
                yield
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        return name, parent, start, end

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 layers=np.array(self.layers))

    def analyse(self, traced_solves: int) -> dict:
        """Per-layer metrics, self times and search records."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time

        def of(layer):
            lid = self.layer_id.get(layer)
            return np.flatnonzero(name == lid) if lid is not None else np.array([], int)

        layers = {}
        for layer in self.layers:
            idx = of(layer)
            layers[layer] = {"n": int(idx.size), "total_s": float(dur[idx].sum()),
                             "self_s": float(self_time[idx].sum())}

        metrics = {}
        for metric, (layer, unit, scale) in TIMINGS.items():
            p50, tail, label, n = _percentiles(dur[of(layer)] * scale)
            metrics[f"{metric}.p50"] = (p50, unit)
            metrics[f"{metric}.tail"] = (tail, unit)
            metrics[f"{metric}.n"] = (n, "count")
            layers.setdefault(layer, {"n": 0})["tail_percentile"] = label

        per_solve = 1.0 / max(traced_solves, 1)
        steps = of("leapfrog.step")
        metrics["leapfrog.step_calls"] = (steps.size * per_solve, "count")
        metrics["dg_core.rhs_calls"] = (
            (of("dg_core.rhs_e").size + of("dg_core.rhs_h").size) * per_solve, "count")
        run_time = dur[of("leapfrog.run")].sum()
        energy_time = dur[of("leapfrog.discrete_energy")].sum()
        metrics["leapfrog.energy_share"] = (
            float(energy_time / run_time) if run_time > 0 else 0.0, "ratio")

        searches = self._searches(name, parent, dur, steps)
        records = [r for s in searches for r in s]
        total = sum(r["steps"] for r in records)
        share = (lambda pick: sum(r["steps"] for r in records if pick(r)) / total
                 if total else 0.0)
        stable = [r["peak_ratio"] for r in records if r["stable"] and r["ran"]]
        unstable = [r["peak_ratio"] for r in records
                    if not r["stable"] and r["ran"] and math.isfinite(r["peak_ratio"])]
        metrics["experiments.classify_calls"] = (len(records) * per_solve, "count")
        metrics["experiments.steps_total"] = (total * per_solve, "count")
        metrics["experiments.doubling_steps_share"] = (
            share(lambda r: r["phase"] == "doubling"), "ratio")
        metrics["experiments.unstable_steps_share"] = (share(lambda r: not r["stable"]), "ratio")
        metrics["experiments.stable_peak_ratio.max"] = (max(stable, default=0.0), "ratio")
        metrics["experiments.unstable_peak_ratio.min"] = (
            min(unstable, default=0.0), "ratio")
        return {"metrics": metrics, "layers": layers, "searches": searches}

    def _searches(self, name, parent, dur, step_idx):
        """Per find_dtmax span: its classifications in call order."""
        owners = parent[step_idx]
        steps_under = np.bincount(owners[owners >= 0], minlength=len(name))
        run_id = self.layer_id.get("leapfrog.run")
        classify_id = self.layer_id.get("experiments.classify")
        find_id = self.layer_id.get("experiments.find_dtmax")
        runs_of = {}
        if run_id is not None:
            for r in np.flatnonzero(name == run_id):
                runs_of.setdefault(int(parent[r]), []).append(int(r))
        searches = []
        if find_id is None or classify_id is None:
            return searches
        classifies = np.flatnonzero(name == classify_id)
        for f in np.flatnonzero(name == find_id):
            records = []
            for c in classifies[parent[classifies] == f]:
                dt, stable = self.notes[int(c)]
                runs = runs_of.get(int(c), [])
                peak = self.notes[runs[0]] if runs else None
                records.append({"dt": dt, "stable": stable, "ran": bool(runs),
                                "steps": int(sum(steps_under[r] for r in runs)),
                                "peak_ratio": peak, "wall_s": float(dur[c])})
            _assign_phases(records)
            searches.append(records)
        return searches


def _assign_phases(records: list[dict]) -> None:
    """Doubling, shrinking or bisection, read off the dt sequence.

    A run at twice the previous dt after a stable verdict is doubling;
    at half the previous dt after an unstable verdict, shrinking; any
    other run is bisection. The first run joins the phase of the second.
    """
    for i, rec in enumerate(records):
        rec["phase"] = "bisection"
        if i == 0:
            continue
        prev = records[i - 1]
        if prev["stable"] and math.isclose(rec["dt"], 2.0 * prev["dt"], rel_tol=1e-12):
            rec["phase"] = "doubling"
        elif not prev["stable"] and math.isclose(rec["dt"], 0.5 * prev["dt"], rel_tol=1e-12):
            rec["phase"] = "shrinking"
    if len(records) > 1 and records[1]["phase"] != "bisection":
        records[0]["phase"] = records[1]["phase"]


def _percentiles(values: np.ndarray) -> tuple[float, float, str, int]:
    """p50, the highest tail percentile with at least 10 samples beyond it
    (the maximum when no percentile has), its label, and the count."""
    n = int(values.size)
    if n == 0:
        return 0.0, 0.0, "absent", 0
    p50 = float(np.percentile(values, 50))
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10:
            return p50, float(np.percentile(values, q)), f"p{q:g}", n
    return p50, float(values.max()), "max", n
