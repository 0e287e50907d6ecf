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
    name = custom
    hz = sin(pi * x) * cos(pi * y) * cos(t)

    [output]
    energy_every = 1
    fields = false

A mesh file replaces `kind = structured` with `kind = file` plus
`path = mesh.txt`; a per-element material table replaces the tensor
entries and `mu` with `table = materials.txt` (rows: k exx exy eyx eyy mu).
Each key is read once, by `_Reader.get`: a key left out takes the default
stated at that read, and every number given must be finite. `safety` is
read only under `dt = auto`.
Once every key is read, the parse builds the mesh and the material map
and checks the order and alpha, so a config it returns is one a run can
use.

`[initial] name` is a key of `leapfrog.INITIAL_CONDITIONS` or `custom`;
it defaults to sm_sine under `bc = SM` and pec_cosine otherwise. A
custom `hz` is the initial Hz at t = dt/2: an expression that uses x or
y and is made only of numbers (read as floats), the names x, y, t
(= dt/2) and pi, one-argument calls of sin, cos, tan, exp, sqrt and
abs, `+ - * / **` and unary `+ -`. The parse checks it against that
grammar and compiles it once; `SimulationConfig.initial` holds the
name, or for custom the compiled f(x, y, dt). Nothing else in a config
is evaluated, and `%` is read literally (no interpolation).

A table sweep file holds only a `[sweep]` section with `cells`, `orders`,
`alpha` (0 central, 1 upwind; default 0), `bc` and `tol` (default
`experiments.DEFAULT_TOL`). Each of its rows is
`experiments.benchmark_case`, so it sets no material, final time or
energy threshold.
"""

from __future__ import annotations

import ast
import configparser
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .dg_core import FluxParams, normalize_bc
from .errors import ConfigError
from .experiments import BENCHMARK_EPS, DEFAULT_TOL, SweepSpec
from .leapfrog import (DEFAULT_BLOWUP_FACTOR, INITIAL_CONDITIONS,
                       default_initial_condition)
from .materials import MaterialMap, PermittivityTensor
from .mesh import Mesh2D, load_mesh, structured_square_mesh
from .reference_element import check_order


@dataclass
class SimulationConfig:
    """A parsed simulation config: the mesh and materials it describes,
    built and checked, and the run settings."""

    mesh: Mesh2D
    materials: MaterialMap
    order: int
    alpha: float
    bc: str
    dt: float | None  # None: safety times the theoretical bound
    safety: float | None  # None beside a numeric dt
    final_time: float
    # a name in leapfrog.INITIAL_CONDITIONS, or f(x, y, dt) for custom
    initial: str | Callable
    energy_every: int
    fields_out: bool
    blowup_factor: float
    # every key the parse read, with the value it used, as config text
    effective_text: str = field(repr=False)
    # the (section, key) pairs the file sets, in the order the parse read them
    keys_set: tuple[tuple[str, str], ...] = field(repr=False)


class _Reader:
    """configparser wrapper with one getter, `get`; it records each
    (section, key) asked for once, in order, with the value the parse used."""

    def __init__(self, path):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                           interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                parser.read_file(handle)
        except (OSError, UnicodeDecodeError) as exc:
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

    def get(self, section: str, key: str, default=None, cast=None,
            required=False):
        """The key's value, recorded: cast(raw), or the raw text when cast is
        None. A missing key gives default, or ConfigError when required; a
        ValueError from the cast (a bad `_CAST_NOUNS` word, or "value") and
        a non-finite float are ConfigErrors naming the key."""
        value = default
        if self.parser.has_option(section, key):
            raw = self.parser.get(section, key).strip()
            try:
                value = raw if cast is None else cast(raw)
            except ConfigError:  # a cast's own error (normalize_bc's) stands
                raise
            except ValueError as exc:
                raise ConfigError(f"{self.path}: bad {_CAST_NOUNS.get(cast, 'value')} "
                                  f"for [{section}] {key}: {raw!r}") from exc
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(
                    f"{self.path}: [{section}] {key} must be finite, got {raw!r}")
        elif required:
            raise ConfigError(f"{self.path}: missing [{section}] {key}")
        self.read[(section, key)] = value
        return value


def _boolean(raw: str) -> bool:
    value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
    if value is None:
        raise ValueError(raw)
    return value


def _int_list(raw: str) -> list[int]:
    return [int(token) for token in raw.replace(",", " ").split()]


def _auto_or_float(raw: str) -> str | float:
    return raw if raw == "auto" else float(raw)


# how a bad value of each cast is named in its error; any other is a "value"
_CAST_NOUNS = {_boolean: "boolean", _int_list: "list"}


def _require_file(path, what: str, config_path):
    if not os.path.isfile(path):
        raise ConfigError(f"{config_path}: {what} file not found: {path}")


def _table_materials(table, n_elements: int) -> MaterialMap:
    try:
        rows = np.loadtxt(table, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"material table {table}: {exc}") from exc
    return MaterialMap.from_table(n_elements, rows)


# the `[initial] hz` grammar: numbers (read as floats), these names,
# one-argument calls of these functions, + - * / ** and unary + -
_HZ_FUNCTIONS = {name: getattr(np, name)
                 for name in ("sin", "cos", "tan", "exp", "sqrt", "abs")}
_HZ_NAMES = ("x", "y", "t", "pi")
_HZ_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)


def _outside_hz_grammar(node: ast.expr) -> ast.expr | None:
    """The first part of the tree outside the hz grammar, or None. Each
    number is rewritten in place as a float; a non-finite one is outside."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        node.value = float(node.value)
        return None if math.isfinite(node.value) else node
    if isinstance(node, ast.Name):
        return None if node.id in _HZ_NAMES else node
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _HZ_FUNCTIONS and len(node.args) == 1
            and not node.keywords):
        parts = node.args
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _HZ_OPERATORS):
        parts = (node.left, node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _HZ_OPERATORS):
        parts = (node.operand,)
    else:
        return node
    return next(filter(None, map(_outside_hz_grammar, parts)), None)


def _parse_hz(expr: str, path) -> Callable:
    """`[initial] hz = expr` as f(x, y, dt), with t = dt/2 in the
    expression; ConfigError unless expr is in the hz grammar and uses x
    or y. It is sampled once here, with numpy zeros for x, y and t, so
    that a part with no variable that overflows, divides by zero or is
    complex is refused now; one that does so only at the run's t is
    refused when the run samples it."""
    def refused(why):
        return ConfigError(f"{path}: [initial] hz = {expr!r}: {why}")

    try:
        tree = ast.parse(expr, mode="eval")
        outside = _outside_hz_grammar(tree.body)
    except (SyntaxError, RecursionError, MemoryError, OverflowError) as exc:
        raise refused(f"not a valid expression ({type(exc).__name__})") from exc
    if outside is not None:
        raise refused(f"{ast.unparse(outside)!r} is not allowed; use numbers, "
                      f"{', '.join(_HZ_NAMES)}, calls of "
                      f"{', '.join(_HZ_FUNCTIONS)} and + - * / **")
    if not any(isinstance(node, ast.Name) and node.id in ("x", "y")
               for node in ast.walk(tree)):
        raise refused("it must depend on x or y")
    code = compile(tree, "[initial] hz", "eval")

    def hz(x, y, dt):
        try:
            value = eval(code, {"__builtins__": {}},
                         dict(_HZ_FUNCTIONS, pi=np.pi, x=x, y=y, t=dt / 2.0))
        except ArithmeticError as exc:
            raise refused(f"{type(exc).__name__}: {exc}") from exc
        if np.iscomplexobj(value):  # a negative float to a fractional power
            raise refused("its value is complex")
        return value

    with np.errstate(all="ignore"):
        hz(np.zeros(1), np.zeros(1), np.float64(0.0))
    return hz


def parse_config(path) -> SimulationConfig:
    """Parse and validate a simulation config file; sections and keys the
    parse does not read are errors, not silently ignored. Once every key
    is read it builds the mesh and the material map and checks the order
    and alpha, in the order a run meets them."""
    reader = _Reader(path)

    kind = reader.get("mesh", "kind", "structured")
    if kind == "structured":
        build_mesh = partial(
            structured_square_mesh,
            reader.get("mesh", "cells", 10, int),
            reader.get("mesh", "xmin", -1.0, float),
            reader.get("mesh", "xmax", 1.0, float),
            reader.get("mesh", "ymin", -1.0, float),
            reader.get("mesh", "ymax", 1.0, float),
            reader.get("mesh", "diagonal", "slash"))
    elif kind == "file":
        mesh_path = reader.get("mesh", "path", required=True)
        build_mesh = partial(load_mesh, mesh_path,
                             reorient=reader.get("mesh", "reorient", False, _boolean))
        _require_file(mesh_path, "mesh", path)
    else:
        raise ConfigError(f"{path}: unknown mesh kind {kind!r}")

    table = reader.get("material", "table")
    if table is not None:
        _require_file(table, "material table", path)
        build_materials = partial(_table_materials, table)
    else:
        eps = PermittivityTensor(
            reader.get("material", "eps_xx", BENCHMARK_EPS.xx, float),
            reader.get("material", "eps_xy", BENCHMARK_EPS.xy, float),
            reader.get("material", "eps_yx", BENCHMARK_EPS.yx, float),
            reader.get("material", "eps_yy", BENCHMARK_EPS.yy, float),
        )
        build_materials = partial(MaterialMap.uniform, eps=eps,
                                  mu=reader.get("material", "mu", 1.0, float))

    order = reader.get("discretization", "order", 1, int)
    alpha = reader.get("discretization", "alpha", 0.0, float)
    bc = reader.get("discretization", "bc", "PEC", normalize_bc)

    dt = reader.get("time", "dt", "auto", _auto_or_float)
    safety = None
    if dt == "auto":  # safety scales only the auto dt
        dt, safety = None, reader.get("time", "safety", 0.5, float)
        if not safety > 0.0:
            raise ConfigError(f"{path}: safety must be positive")
    elif dt <= 0.0:
        raise ConfigError(f"{path}: dt must be positive")
    final_time = reader.get("time", "final_time", 1.0, float)
    if final_time <= 0.0:
        raise ConfigError(f"{path}: final_time must be positive")

    initial = reader.get("initial", "name", default_initial_condition(bc))
    if initial == "custom":
        initial = _parse_hz(reader.get("initial", "hz", required=True), path)
    elif initial not in INITIAL_CONDITIONS:
        raise ConfigError(f"{path}: unknown [initial] name {initial!r}; "
                          f"use {', '.join(INITIAL_CONDITIONS)} or custom")

    energy_every = reader.get("output", "energy_every", 1, int)
    if energy_every < 1:
        raise ConfigError(f"{path}: [output] energy_every must be >= 1")
    fields_out = reader.get("output", "fields", False, _boolean)
    blowup_factor = reader.get("output", "blowup_factor",
                               DEFAULT_BLOWUP_FACTOR, float)
    if not blowup_factor > 1.0:
        raise ConfigError(f"{path}: [output] blowup_factor must be > 1")
    reader.reject_unread()

    mesh = build_mesh()
    materials = build_materials(mesh.n_elements)
    check_order(order)
    FluxParams(alpha, bc)
    return SimulationConfig(
        mesh=mesh, materials=materials, order=order, alpha=alpha, bc=bc,
        dt=dt, safety=safety, final_time=final_time, initial=initial,
        energy_every=energy_every, fields_out=fields_out,
        blowup_factor=blowup_factor, effective_text=reader.effective_text(),
        keys_set=tuple(key for key in reader.read if reader.parser.has_option(*key)))


def parse_table_spec(path) -> SweepSpec:
    """Parse a `[sweep]` spec file for table generation; SweepSpec checks it."""
    reader = _Reader(path)
    if not reader.parser.has_section("sweep"):
        raise ConfigError(f"{path}: missing [sweep] section")

    fields = {
        "cells": reader.get("sweep", "cells", cast=_int_list, required=True),
        "orders": reader.get("sweep", "orders", cast=_int_list, required=True),
        "alpha": reader.get("sweep", "alpha", 0.0, float),
        "bc": reader.get("sweep", "bc", required=True),
        "tol": reader.get("sweep", "tol", DEFAULT_TOL, float),
    }
    reader.reject_unread()
    return SweepSpec(**fields)
