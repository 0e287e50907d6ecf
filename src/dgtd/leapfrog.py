"""Staggered explicit leap-frog time integration and the discrete energy.

The electric field lives at integer time levels, the magnetic field at
half-integer ones. One step advances E with the current H, then H with
the freshly updated E; no linear solve is involved beyond the
precomputed per-element inverses inside the spatial operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dg_core import BC_SM, SpatialOperator, normalize_bc
from .errors import ConfigError
from .materials import MaterialMap
from .mesh import Mesh2D
from .reference_element import ReferenceElement

DEFAULT_BLOWUP_FACTOR = 1e6


@dataclass
class FieldState:
    """Staggered solution arrays of shape (K, Np), stored node-major (Fortran order).

    Ex and Ey are values at time level `step`; Hz sits half a step later.
    Times are derived from the step index, never accumulated.
    """

    Ex: np.ndarray
    Ey: np.ndarray
    Hz: np.ndarray
    dt: float
    step: int = 0

    @property
    def time_E(self) -> float:
        return self.step * self.dt

    def copy(self) -> "FieldState":
        return FieldState(self.Ex.copy("K"), self.Ey.copy("K"), self.Hz.copy("K"),
                          self.dt, self.step)


@dataclass
class _RunState(FieldState):
    """A state that only `run` holds, with the n x [E] of its E fields that
    the step which made it gathered for a penalised flux, or None."""

    e_cross: np.ndarray | None = None


def step(state: FieldState, op: SpatialOperator, dt: float) -> FieldState:
    """Advance one full leap-frog step.

    The E update consumes H at the half level and E jumps at the current
    level; the H update then consumes the new E. [Hz] is gathered once for
    both half-steps, and n x [E] at the new level once for the H update.
    Under a penalised flux (some alpha > 0) the E update reads n x [E] at
    the current level: a state from `run` brings it; for any other, it is
    gathered here.
    dt must be the state's own dt, so that its times stay step * dt:
    ConfigError otherwise. The input arrays are left unchanged; the new
    fields are new, writable Fortran-order arrays. Non-finite values are
    stepped like any others; `run` is what checks for them.
    """
    if dt != state.dt:
        raise ConfigError(f"step dt {dt!r} differs from the state's dt {state.dt!r}")
    hz_jump = op.hz_jump(state.Hz)
    e_cross = getattr(state, "e_cross", None)
    if e_cross is None and op.penalised:
        e_cross = op.e_cross(state.Ex, state.Ey)
    ex1, ey1 = op.rhs_e(state.Hz, hz_jump, e_cross)
    ex1 *= dt
    ex1 += state.Ex
    ey1 *= dt
    ey1 += state.Ey
    e_cross = op.e_cross(ex1, ey1)
    hz1 = op.rhs_h(ex1, ey1, e_cross, hz_jump)
    hz1 *= dt
    hz1 += state.Hz
    if isinstance(state, _RunState):
        # a central flux never reads it, so it is not kept
        return _RunState(ex1, ey1, hz1, dt, state.step + 1,
                         e_cross if op.penalised else None)
    return FieldState(ex1, ey1, hz1, dt, state.step + 1)


def discrete_energy(state: FieldState, mesh: Mesh2D, materials: MaterialMap,
                    elem: ReferenceElement) -> float:
    """Sum over elements of the material-weighted squared L2 norms.

    Integrates E . eps E + mu Hz^2 exactly through the reference mass
    matrix; nonnegative, and zero only for the zero state.
    """
    m = elem.mass
    # node-major (Np, K) views of the fields, so each sum runs along K
    ex, ey, hz = state.Ex.T, state.Ey.T, state.Hz.T
    mey = m @ ey
    i_xx = np.einsum("ik,ik->k", ex, m @ ex)
    i_xy = np.einsum("ik,ik->k", ex, mey)
    i_yy = np.einsum("ik,ik->k", ey, mey)
    i_hh = np.einsum("ik,ik->k", hz, m @ hz)
    eps = materials.eps
    total = (
        eps[:, 0, 0] * i_xx + 2.0 * eps[:, 0, 1] * i_xy + eps[:, 1, 1] * i_yy
        + materials.mu * i_hh
    )
    return float(np.dot(mesh.jac, total))


@dataclass
class RunConfig:
    dt: float
    final_time: float
    record_energy_every: int = 1
    blowup_factor: float = DEFAULT_BLOWUP_FACTOR

    def __post_init__(self):
        if not (0.0 <= self.dt < math.inf and 0.0 < self.final_time < math.inf):
            raise ConfigError("dt must be finite and >= 0, and final_time "
                              f"finite and > 0; got {self.dt}, {self.final_time}")
        every = self.record_energy_every
        if (isinstance(every, bool) or not isinstance(every, (int, np.integer))
                or every < 1):
            raise ConfigError(f"record_energy_every must be an integer >= 1, got {every!r}")
        if not self.blowup_factor > 1.0:
            raise ConfigError("blowup_factor must be > 1")

    @property
    def n_steps(self) -> int:
        # skip any final partial step
        return int(math.floor(self.final_time / self.dt + 1e-9)) if self.dt > 0 else 0


@dataclass
class RunResult:
    state: FieldState
    energy: np.ndarray  # rows of (step, time, energy)
    blowup_step: int | None = None

    @property
    def completed(self) -> bool:
        return self.blowup_step is None

    @property
    def status(self) -> str:
        return "completed" if self.completed else "blewup"

    @property
    def final_energy(self) -> float:
        return float(self.energy[-1, 2])


def run(state0: FieldState, op: SpatialOperator, config: RunConfig) -> RunResult:
    """March the leap-frog scheme to the final time, tracking energy.

    Aborts with a "blewup" status (not an exception) at the first step
    whose fields are not finite, or at the first recorded step (every
    record_energy_every steps, and the last) whose energy is not finite or
    exceeds blowup_factor times its initial value. The fields themselves are
    checked only where no finite energy vouches for them. Non-finite fields
    end the trace with an inf row and the state of the step before; an
    energy stop returns the state it recorded. Overflow on the way to a
    blowup is that status, so numpy does not warn about it. config.dt must
    be state0.dt (see `step`).
    """
    mesh, materials, elem = op.mesh, op.materials, op.elem
    state = _RunState(state0.Ex, state0.Ey, state0.Hz, state0.dt, state0.step)
    e0 = discrete_energy(state, mesh, materials, elem)
    trace = [(state.step, state.time_E, e0)]
    threshold = config.blowup_factor * e0

    n_steps = config.n_steps
    every = config.record_energy_every
    blowup_step = None
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(n_steps):
            new = step(state, op, config.dt)
            recorded = (m + 1) % every == 0 or m + 1 == n_steps
            energy = discrete_energy(new, mesh, materials, elem) if recorded else math.nan
            if not math.isfinite(energy) and not all(
                    np.isfinite(u).all() for u in (new.Ex, new.Ey, new.Hz)):
                trace.append((new.step, new.time_E, math.inf))
                blowup_step = new.step
                break
            state = new
            if recorded:
                trace.append((state.step, state.time_E, energy))
                if not math.isfinite(energy) or energy > threshold:
                    blowup_step = state.step
                    break
    fields = FieldState(state.Ex, state.Ey, state.Hz, state.dt, state.step)
    return RunResult(fields, np.array(trace), blowup_step)


def write_energy_csv(path, result: RunResult) -> None:
    """Energy trace as CSV with columns step,time,energy."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("step,time,energy\n")
        for row in result.energy:
            out.write(f"{int(row[0])},{float(row[1])!r},{float(row[2])!r}\n")


# Hz at t = dt/2 of each named initial state (see initial_conditions)
INITIAL_CONDITIONS = {
    "pec_cosine": lambda x, y, materials, dt: (
        np.cos(np.pi * x) * np.cos(np.pi * y)
        * math.cos(standing_mode_frequency(materials) * dt / 2.0)),
    "sm_sine": lambda x, y, materials, dt: (
        math.sin(math.pi * dt / 2.0) * np.sin(np.pi * x * y)),
    "zero": lambda x, y, materials, dt: np.zeros_like(x),
}


def initial_conditions(name, mesh: Mesh2D, elem: ReferenceElement,
                       materials: MaterialMap, dt: float) -> FieldState:
    """Sample a named initial state: E at t = 0, Hz at t = dt/2.

    "pec_cosine" is the seed cos(pi x) cos(pi y) cos(w dt/2) with
    w = standing_mode_frequency(materials). On the PEC square (-1, 1)^2 it
    is a standing mode only for a diagonal tensor with mu = 1; on the
    tables' (5, 1; 1, 3) it is only a seed, since w ignores eps_xy and mu.
    "sm_sine" is sin(pi dt/2) sin(pi x y); "zero" is the zero state. A
    callable f(x, y, dt) may be passed instead to fill Hz.
    """
    x, y = mesh.map_reference_nodes(elem.r, elem.s)
    if callable(name):
        hz = np.asfortranarray(name(x, y, dt), dtype=float)
        if hz.shape != x.shape:
            raise ConfigError("custom initial condition returned a bad shape")
    elif name in INITIAL_CONDITIONS:
        hz = INITIAL_CONDITIONS[name](x, y, materials, dt)
    else:
        raise ConfigError(f"unknown initial condition {name!r}")
    return FieldState(np.zeros_like(x), np.zeros_like(x), hz, dt=dt, step=0)


def standing_mode_frequency(materials: MaterialMap) -> float:
    """pi * sqrt(1/eps_xx + 1/eps_yy) from the first element's tensor.

    The frequency of the pec_cosine mode for a diagonal tensor with
    mu = 1. It ignores eps_xy and mu, so for any other material, the
    tables' (5, 1; 1, 3) among them, pec_cosine is a seed, not a mode.
    """
    exx = materials.eps[0, 0, 0]
    eyy = materials.eps[0, 1, 1]
    return math.pi * math.sqrt(1.0 / exx + 1.0 / eyy)


def default_initial_condition(bc: str) -> str:
    return "sm_sine" if normalize_bc(bc) == BC_SM else "pec_cosine"
