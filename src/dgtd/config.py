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
entries with `table = materials.txt` (rows: k exx exy eyx eyy mu).
Table sweeps use a `[sweep]` section instead of `[time]`/`[initial]`.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

import numpy as np

from .dg_core import normalize_bc
from .errors import ConfigError
from .experiments import BENCHMARK_EPS, DEFAULT_BOUNDED_FACTOR, SweepSpec
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

    def build_mesh(self) -> Mesh2D:
        if self.mesh_kind == "structured":
            return structured_square_mesh(self.cells, self.xmin, self.xmax,
                                          self.ymin, self.ymax, self.diagonal)
        return load_mesh(self.mesh_path, reorient=self.reorient)

    def build_materials(self, mesh: Mesh2D) -> MaterialMap:
        if self.material_table is not None:
            rows = np.loadtxt(self.material_table, ndmin=2)
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

    def to_text(self) -> str:
        """Serialize the effective configuration (round-trips exactly)."""
        lines = ["[mesh]", f"kind = {self.mesh_kind}"]
        if self.mesh_kind == "structured":
            lines += [
                f"cells = {self.cells}",
                f"xmin = {self.xmin!r}", f"xmax = {self.xmax!r}",
                f"ymin = {self.ymin!r}", f"ymax = {self.ymax!r}",
                f"diagonal = {self.diagonal}",
            ]
        else:
            lines += [f"path = {self.mesh_path}",
                      f"reorient = {str(self.reorient).lower()}"]
        lines += ["", "[material]"]
        if self.material_table is not None:
            lines += [f"table = {self.material_table}"]
        else:
            lines += [
                f"eps_xx = {self.eps.xx!r}", f"eps_xy = {self.eps.xy!r}",
                f"eps_yx = {self.eps.yx!r}", f"eps_yy = {self.eps.yy!r}",
            ]
        lines += [f"mu = {self.mu!r}"]
        lines += [
            "", "[discretization]",
            f"order = {self.order}", f"alpha = {self.alpha!r}", f"bc = {self.bc}",
            "", "[time]",
            "dt = auto" if self.dt is None else f"dt = {self.dt!r}",
            f"safety = {self.safety!r}",
            f"final_time = {self.final_time!r}",
            "", "[initial]",
            f"name = {self.initial}",
        ]
        if self.initial == "custom":
            lines += [f"hz = {self.custom_hz}"]
        lines += [
            "", "[output]",
            f"energy_every = {self.energy_every}",
            f"fields = {str(self.fields_out).lower()}",
            f"blowup_factor = {self.blowup_factor!r}",
        ]
        return "\n".join(lines) + "\n"


class _Reader:
    """configparser wrapper with typed getters and error context."""

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
        self.asked: set[tuple[str, str]] = set()

    def reject_unread(self) -> None:
        """ConfigError on any section or key the parse never asked for."""
        asked_sections = {section for section, _ in self.asked}
        for section in self.parser.sections():
            if section not in asked_sections:
                raise ConfigError(f"{self.path}: unknown section [{section}]")
            unread = sorted(key for key in self.parser.options(section)
                            if (section, key) not in self.asked)
            if unread:
                raise ConfigError(f"{self.path}: unknown or unused [{section}] "
                                  f"keys: {', '.join(unread)}")

    def has(self, section: str, key: str | None = None) -> bool:
        if key is None:
            return self.parser.has_section(section)
        return self.parser.has_option(section, key)

    def get(self, section: str, key: str, default=None, required=False) -> str:
        self.asked.add((section, key))
        if not self.parser.has_option(section, key):
            if required:
                raise ConfigError(f"{self.path}: missing [{section}] {key}")
            return default
        return self.parser.get(section, key).strip()

    def _typed(self, caster, section, key, default, required=False):
        raw = self.get(section, key, None, required=required)
        if raw is None:
            return default
        try:
            return caster(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{self.path}: bad value for [{section}] {key}: {raw!r}"
            ) from exc

    def get_float(self, section, key, default=None, required=False):
        return self._typed(float, section, key, default, required)

    def get_int(self, section, key, default=None, required=False):
        return self._typed(int, section, key, default, required)

    def get_bool(self, section, key, default=False):
        raw = self.get(section, key)
        if raw is None:
            return default
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
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


def _read_material(reader: _Reader, cfg: SimulationConfig):
    if reader.get("material", "table") is not None:
        cfg.material_table = reader.get("material", "table")
        _require_file(cfg.material_table, "material table", reader.path)
    else:
        cfg.eps = PermittivityTensor(
            reader.get_float("material", "eps_xx", BENCHMARK_EPS.xx),
            reader.get_float("material", "eps_xy", BENCHMARK_EPS.xy),
            reader.get_float("material", "eps_yx", BENCHMARK_EPS.yx),
            reader.get_float("material", "eps_yy", BENCHMARK_EPS.yy),
        )
    cfg.mu = reader.get_float("material", "mu", 1.0)


def parse_config(path) -> SimulationConfig:
    """Parse and validate a simulation config file; sections and keys the
    parse does not read are errors, not silently ignored."""
    reader = _Reader(path)
    cfg = SimulationConfig()

    cfg.mesh_kind = reader.get("mesh", "kind", "structured")
    if cfg.mesh_kind == "structured":
        cfg.cells = reader.get_int("mesh", "cells", 10)
        cfg.xmin = reader.get_float("mesh", "xmin", -1.0)
        cfg.xmax = reader.get_float("mesh", "xmax", 1.0)
        cfg.ymin = reader.get_float("mesh", "ymin", -1.0)
        cfg.ymax = reader.get_float("mesh", "ymax", 1.0)
        cfg.diagonal = reader.get("mesh", "diagonal", "slash")
    elif cfg.mesh_kind == "file":
        cfg.mesh_path = reader.get("mesh", "path", required=True)
        cfg.reorient = reader.get_bool("mesh", "reorient", False)
        _require_file(cfg.mesh_path, "mesh", path)
    else:
        raise ConfigError(f"{path}: unknown mesh kind {cfg.mesh_kind!r}")

    _read_material(reader, cfg)

    cfg.order = reader.get_int("discretization", "order", 1)
    cfg.alpha = reader.get_float("discretization", "alpha", 0.0)
    cfg.bc = normalize_bc(reader.get("discretization", "bc", "PEC"))

    dt_raw = reader.get("time", "dt", "auto")
    if dt_raw != "auto":
        try:
            cfg.dt = float(dt_raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: dt must be a number or 'auto'") from exc
        if cfg.dt <= 0.0:
            raise ConfigError(f"{path}: dt must be positive")
    cfg.safety = reader.get_float("time", "safety", 0.5)
    cfg.final_time = reader.get_float("time", "final_time", 1.0)
    if cfg.final_time <= 0.0:
        raise ConfigError(f"{path}: final_time must be positive")

    cfg.initial = reader.get("initial", "name",
                             default_initial_condition(cfg.bc))
    if cfg.initial == "custom":
        cfg.custom_hz = reader.get("initial", "hz", required=True)

    cfg.energy_every = reader.get_int("output", "energy_every", 1)
    cfg.fields_out = reader.get_bool("output", "fields", False)
    cfg.blowup_factor = reader.get_float("output", "blowup_factor",
                                         DEFAULT_BLOWUP_FACTOR)
    reader.reject_unread()
    return cfg


def parse_table_spec(path) -> SweepSpec:
    """Parse a `[sweep]` spec file for table generation."""
    reader = _Reader(path)
    if not reader.has("sweep"):
        raise ConfigError(f"{path}: missing [sweep] section")

    cells = reader.get_list("sweep", "cells", int, required=True)
    orders = reader.get_list("sweep", "orders", int, required=True)

    flux = reader.get("sweep", "flux")
    if flux is not None:
        if reader.has("sweep", "alpha"):
            raise ConfigError(f"{path}: give [sweep] flux or alpha, not both")
        if flux not in ("central", "upwind"):
            raise ConfigError(f"{path}: flux must be central or upwind")
        alpha = 0.0 if flux == "central" else 1.0
    else:
        alpha = reader.get_float("sweep", "alpha", 0.0)

    cfg = SimulationConfig()
    if reader.has("material"):
        _read_material(reader, cfg)
        if cfg.material_table is not None:
            raise ConfigError(f"{path}: sweeps require a constant tensor")

    spec = SweepSpec(
        cells=cells,
        orders=orders,
        alpha=alpha,
        bc=reader.get("sweep", "bc", required=True),
        tol=reader.get_float("sweep", "tol", 1e-2),
        final_time=reader.get_float("sweep", "final_time", 1.0),
        diagonal=reader.get("sweep", "diagonal", "slash"),
        eps=cfg.eps,
        mu=cfg.mu,
        initial=reader.get("sweep", "initial"),
        bounded_factor=reader.get_float("sweep", "bounded_factor",
                                        DEFAULT_BOUNDED_FACTOR),
    )
    if not 0.0 < spec.tol <= 0.1:
        raise ConfigError(f"{path}: tol must lie in (0, 0.1]")
    if any(not math.isfinite(c) or c < 1 for c in cells):
        raise ConfigError(f"{path}: cells entries must be >= 1")
    reader.reject_unread()
    return spec
