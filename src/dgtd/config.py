"""Line-oriented `key = value` run configuration (INI sections).

A simulation config looks like::

    [mesh]
    kind = structured
    cells = 10
    xmin = -1.0
    xmax = 1.0
    ymin = -1.0
    ymax = 1.0
    diagonal = slash

    [material]
    eps_xx = 5.0
    eps_xy = 1.0
    eps_yx = 1.0
    eps_yy = 3.0
    mu = 1.0

    [discretization]
    order = 1
    alpha = 0.0
    bc = PEC

    [time]
    dt = auto
    safety = 0.5
    final_time = 1.0

    [initial]
    name = pec_cosine

    [output]
    energy_every = 1
    fields = false

A mesh file replaces `kind = structured` with `kind = file` plus
`path = mesh.txt`; a per-element material table replaces the tensor
entries and `mu` with `table = materials.txt` (rows: k exx exy eyx eyy mu).
A key left out takes its default from `SimulationConfig`; every number
given must be finite.

A table sweep file holds only a `[sweep]` section with `cells`, `orders`,
`flux` (central or upwind) or `alpha`, `bc` and `tol`. Each of its rows is
`experiments.benchmark_case`, so it sets no material, final time or
energy threshold.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dg_core import normalize_bc
from .errors import ConfigError
from .experiments import BENCHMARK_EPS, SweepSpec
from .leapfrog import DEFAULT_BLOWUP_FACTOR, default_initial_condition
from .materials import MaterialMap, PermittivityTensor
from .mesh import Mesh2D, load_mesh, structured_square_mesh


@dataclass
class SimulationConfig:
    mesh_kind: str = "structured"
    mesh_path: str | None = None
    cells: int = 10
    xmin: float = -1.0
    xmax: float = 1.0
    ymin: float = -1.0
    ymax: float = 1.0
    diagonal: str = "slash"
    reorient: bool = False

    eps: PermittivityTensor = BENCHMARK_EPS
    material_table: str | None = None
    mu: float = 1.0

    order: int = 1
    alpha: float = 0.0
    bc: str = "PEC"

    dt: float | None = None  # None: safety times the theoretical bound
    safety: float = 0.5
    final_time: float = 1.0

    initial: str = "pec_cosine"
    custom_hz: str | None = None

    energy_every: int = 1
    fields_out: bool = False
    blowup_factor: float = DEFAULT_BLOWUP_FACTOR

    # every key the parse read, with the value it used, as config text
    effective_text: str = field(default="", init=False, repr=False)

    def build_mesh(self) -> Mesh2D:
        if self.mesh_kind == "structured":
            return structured_square_mesh(self.cells, self.xmin, self.xmax,
                                          self.ymin, self.ymax, self.diagonal)
        return load_mesh(self.mesh_path, reorient=self.reorient)

    def build_materials(self, mesh: Mesh2D) -> MaterialMap:
        if self.material_table is not None:
            try:
                rows = np.loadtxt(self.material_table, ndmin=2)
            except (OSError, ValueError) as exc:
                raise ConfigError(
                    f"material table {self.material_table}: {exc}") from exc
            return MaterialMap.from_table(mesh.n_elements, rows)
        return MaterialMap.uniform(mesh.n_elements, self.eps, self.mu)

    def initial_condition(self):
        if self.initial != "custom":
            return self.initial
        expr = self.custom_hz
        names = {name: getattr(np, name) for name in
                 ("sin", "cos", "tan", "exp", "sqrt", "abs", "pi")}

        def custom(x, y, dt):
            return eval(expr, {"__builtins__": {}},
                        dict(names, x=x, y=y, t=dt / 2.0))
        return custom


class _Reader:
    """configparser wrapper with typed getters and error context; it records
    each (section, key) asked for, in order, with the value the parse used."""

    def __init__(self, path):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
        self.parser = parser
        self.path = path
        self.read: dict[tuple[str, str], object] = {}

    def reject_unread(self) -> None:
        """ConfigError on any section or key the parse never asked for."""
        asked_sections = {section for section, _ in self.read}
        for section in self.parser.sections():
            if section not in asked_sections:
                raise ConfigError(f"{self.path}: unknown section [{section}]")
            unread = sorted(key for key in self.parser.options(section)
                            if (section, key) not in self.read)
            if unread:
                raise ConfigError(f"{self.path}: unknown or unused [{section}] "
                                  f"keys: {', '.join(unread)}")

    def effective_text(self) -> str:
        """Config text of the keys read with the values used (true/false
        for a boolean, repr for a number), sections in the order asked."""
        sections: dict[str, list[str]] = {}
        for (section, key), value in self.read.items():
            if isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, (int, float)):
                value = repr(value)
            if value is not None:
                sections.setdefault(section, []).append(f"{key} = {value}")
        return "\n\n".join(f"[{section}]\n" + "\n".join(lines)
                           for section, lines in sections.items()) + "\n"

    def note(self, section: str, key: str, value):
        """Record value as the one the parse used for the key; returns it."""
        self.read[(section, key)] = value
        return value

    def has(self, section: str, key: str | None = None) -> bool:
        if key is None:
            return self.parser.has_section(section)
        return self.parser.has_option(section, key)

    def get(self, section: str, key: str, default=None, required=False) -> str:
        if self.parser.has_option(section, key):
            value = self.parser.get(section, key).strip()
        elif required:
            raise ConfigError(f"{self.path}: missing [{section}] {key}")
        else:
            value = default
        return self.note(section, key, value)

    def _typed(self, caster, section, key, default, required=False):
        raw = self.get(section, key, None, required=required)
        if raw is None:
            return self.note(section, key, default)
        try:
            value = caster(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{self.path}: bad value for [{section}] {key}: {raw!r}"
            ) from exc
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(
                f"{self.path}: [{section}] {key} must be finite, got {raw!r}")
        return self.note(section, key, value)

    def get_float(self, section, key, default=None, required=False):
        return self._typed(float, section, key, default, required)

    def get_int(self, section, key, default=None, required=False):
        return self._typed(int, section, key, default, required)

    def get_bool(self, section, key, default=False):
        raw = self.get(section, key)
        if raw is None:
            return self.note(section, key, default)
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return self.note(section, key, True)
        if low in ("false", "no", "off", "0"):
            return self.note(section, key, False)
        raise ConfigError(f"{self.path}: bad boolean for [{section}] {key}: {raw!r}")

    def get_list(self, section, key, caster, required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return []
        try:
            return [caster(tok) for tok in raw.replace(",", " ").split()]
        except ValueError as exc:
            raise ConfigError(
                f"{self.path}: bad list for [{section}] {key}: {raw!r}"
            ) from exc


def _require_file(path, what: str, config_path):
    if not os.path.isfile(path):
        raise ConfigError(f"{config_path}: {what} file not found: {path}")


def parse_config(path) -> SimulationConfig:
    """Parse and validate a simulation config file; sections and keys the
    parse does not read are errors, not silently ignored."""
    reader = _Reader(path)
    cfg = SimulationConfig()

    cfg.mesh_kind = reader.get("mesh", "kind", cfg.mesh_kind)
    if cfg.mesh_kind == "structured":
        cfg.cells = reader.get_int("mesh", "cells", cfg.cells)
        cfg.xmin = reader.get_float("mesh", "xmin", cfg.xmin)
        cfg.xmax = reader.get_float("mesh", "xmax", cfg.xmax)
        cfg.ymin = reader.get_float("mesh", "ymin", cfg.ymin)
        cfg.ymax = reader.get_float("mesh", "ymax", cfg.ymax)
        cfg.diagonal = reader.get("mesh", "diagonal", cfg.diagonal)
    elif cfg.mesh_kind == "file":
        cfg.mesh_path = reader.get("mesh", "path", required=True)
        cfg.reorient = reader.get_bool("mesh", "reorient", cfg.reorient)
        _require_file(cfg.mesh_path, "mesh", path)
    else:
        raise ConfigError(f"{path}: unknown mesh kind {cfg.mesh_kind!r}")

    cfg.material_table = reader.get("material", "table")
    if cfg.material_table is not None:
        _require_file(cfg.material_table, "material table", path)
    else:
        cfg.eps = PermittivityTensor(
            reader.get_float("material", "eps_xx", cfg.eps.xx),
            reader.get_float("material", "eps_xy", cfg.eps.xy),
            reader.get_float("material", "eps_yx", cfg.eps.yx),
            reader.get_float("material", "eps_yy", cfg.eps.yy),
        )
        cfg.mu = reader.get_float("material", "mu", cfg.mu)

    cfg.order = reader.get_int("discretization", "order", cfg.order)
    cfg.alpha = reader.get_float("discretization", "alpha", cfg.alpha)
    cfg.bc = reader.note("discretization", "bc",
                         normalize_bc(reader.get("discretization", "bc", cfg.bc)))

    if reader.get("time", "dt", "auto") != "auto":
        cfg.dt = reader.get_float("time", "dt")
        if cfg.dt <= 0.0:
            raise ConfigError(f"{path}: dt must be positive")
    cfg.safety = reader.get_float("time", "safety", cfg.safety)
    if not cfg.safety > 0.0:
        raise ConfigError(f"{path}: safety must be positive")
    cfg.final_time = reader.get_float("time", "final_time", cfg.final_time)
    if cfg.final_time <= 0.0:
        raise ConfigError(f"{path}: final_time must be positive")

    cfg.initial = reader.get("initial", "name",
                             default_initial_condition(cfg.bc))
    if cfg.initial == "custom":
        cfg.custom_hz = reader.get("initial", "hz", required=True)

    cfg.energy_every = reader.get_int("output", "energy_every", cfg.energy_every)
    if cfg.energy_every < 1:
        raise ConfigError(f"{path}: [output] energy_every must be >= 1")
    cfg.fields_out = reader.get_bool("output", "fields", cfg.fields_out)
    cfg.blowup_factor = reader.get_float("output", "blowup_factor",
                                         cfg.blowup_factor)
    if not cfg.blowup_factor > 1.0:
        raise ConfigError(f"{path}: [output] blowup_factor must be > 1")
    reader.reject_unread()
    cfg.effective_text = reader.effective_text()
    return cfg


def parse_table_spec(path) -> SweepSpec:
    """Parse a `[sweep]` spec file for table generation; SweepSpec checks it."""
    reader = _Reader(path)
    if not reader.has("sweep"):
        raise ConfigError(f"{path}: missing [sweep] section")

    fields = {
        "cells": reader.get_list("sweep", "cells", int, required=True),
        "orders": reader.get_list("sweep", "orders", int, required=True),
        "bc": reader.get("sweep", "bc", required=True),
    }
    flux = reader.get("sweep", "flux")
    if flux is not None:
        if reader.has("sweep", "alpha"):
            raise ConfigError(f"{path}: give [sweep] flux or alpha, not both")
        if flux not in ("central", "upwind"):
            raise ConfigError(f"{path}: flux must be central or upwind")
        fields["alpha"] = 0.0 if flux == "central" else 1.0
    else:
        fields["alpha"] = reader.get_float("sweep", "alpha", 0.0)
    tol = reader.get_float("sweep", "tol")
    if tol is not None:
        fields["tol"] = tol
    reader.reject_unread()
    return SweepSpec(**fields)
