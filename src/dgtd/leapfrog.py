"""Staggered explicit leap-frog time integration and the discrete energy.

The electric field lives at integer time levels, the magnetic field at
half-integer ones. One step advances E with the current H, then H with
the freshly updated E; no linear solve is involved beyond the
precomputed per-element inverses inside the spatial operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dg_core import BC_SM, SpatialOperator
from .errors import BlowupDetected, ConfigError
from .materials import MaterialMap
from .mesh import Mesh2D
from .reference_element import ReferenceElement

DEFAULT_BLOWUP_FACTOR = 1e6


@dataclass
class FieldState:
    """Staggered solution arrays of shape (K, Np), stored node-major (Fortran order).

    Ex and Ey are values at time level `step`; Hz sits half a step later.
    Times are derived from the step index, never accumulated.

    A state made by `step` under a penalised flux (some alpha > 0) carries
    the n x [E] it built for its H update, so that the next step's E
    update need not gather it again. Its Ex and Ey are then read-only. The
    next step reuses it only with the operator that built it and only
    while Ex and Ey are the arrays it was built from. A hand-built or
    copied state, one given new Ex or Ey arrays (also by
    dataclasses.replace), or one stepped by another operator recomputes it.
    """

    Ex: np.ndarray
    Ey: np.ndarray
    Hz: np.ndarray
    dt: float
    step: int = 0
    # (operator, Ex, Ey, n x [E]) from the step that made this state
    _e_cross: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def time_E(self) -> float:
        return self.step * self.dt

    @property
    def time_H(self) -> float:
        return (self.step + 0.5) * self.dt

    def copy(self) -> "FieldState":
        return FieldState(self.Ex.copy("K"), self.Ey.copy("K"), self.Hz.copy("K"),
                          self.dt, self.step)


def step(state: FieldState, op: SpatialOperator, dt: float) -> FieldState:
    """Advance one full leap-frog step.

    The E update consumes H at the half level and E jumps at the current
    level; the H update then consumes the new E. [Hz] is gathered once for
    both half-steps, and n x [E] at the new level once for the H update
    and, through the returned state, the next step's E update. The input
    arrays are left unchanged and the new fields are Fortran-order. Raises
    BlowupDetected, carrying the index of the step it would have made, if
    non-finite values appear.
    """
    hz_jump = op.hz_jump(state.Hz)
    carried = state._e_cross
    e_cross = None
    if (carried is not None and carried[0] is op and carried[1] is state.Ex
            and carried[2] is state.Ey):
        e_cross = carried[3]
    elif op.penalised:
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
    if not (np.isfinite(hz1).all() and np.isfinite(ex1).all()
            and np.isfinite(ey1).all()):
        raise BlowupDetected(state.step + 1)
    new = FieldState(ex1, ey1, hz1, dt, state.step + 1)
    if op.penalised:
        ex1.flags.writeable = ey1.flags.writeable = False
        new._e_cross = (op, ex1, ey1, e_cross)
    return new


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
        if self.record_energy_every < 1:
            raise ConfigError("record_energy_every must be >= 1")
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
    record_energy_every steps, and the last) whose energy exceeds
    blowup_factor times its initial value; the energy between recorded
    steps is not checked. Overflow on the way to a blowup is that status,
    so numpy does not warn about it.
    """
    mesh, materials, elem = op.mesh, op.materials, op.elem
    state = state0
    e0 = discrete_energy(state, mesh, materials, elem)
    trace = [(state.step, state.time_E, e0)]
    threshold = config.blowup_factor * e0

    n_steps = config.n_steps
    every = config.record_energy_every
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(n_steps):
            try:
                state = step(state, op, config.dt)
            except BlowupDetected as blow:
                trace.append((blow.step, blow.step * config.dt, math.inf))
                return RunResult(state, np.array(trace), blow.step)
            if (m + 1) % every == 0 or m + 1 == n_steps:
                energy = discrete_energy(state, mesh, materials, elem)
                trace.append((state.step, state.time_E, energy))
                if not math.isfinite(energy) or energy > threshold:
                    return RunResult(state, np.array(trace), state.step)
    return RunResult(state, np.array(trace))


def write_energy_csv(path, result: RunResult) -> None:
    """Energy trace as CSV with columns step,time,energy."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("step,time,energy\n")
        for row in result.energy:
            out.write(f"{int(row[0])},{float(row[1])!r},{float(row[2])!r}\n")


def initial_conditions(name, mesh: Mesh2D, elem: ReferenceElement,
                       materials: MaterialMap, dt: float) -> FieldState:
    """Sample a named initial state: E at t = 0, Hz at t = dt/2.

    "pec_cosine" is the standing-mode seed cos(pi x) cos(pi y) cos(w dt/2)
    with w = pi sqrt(1/eps_xx + 1/eps_yy) taken from the first element's
    tensor; "sm_sine" is sin(pi dt/2) sin(pi x y); "zero" is the zero
    state. A callable f(x, y, dt) may be passed instead to fill Hz.
    """
    x, y = mesh.map_reference_nodes(elem.r, elem.s)
    zeros = np.zeros_like(x)
    if callable(name):
        hz = np.asfortranarray(name(x, y, dt), dtype=float)
        if hz.shape != x.shape:
            raise ConfigError("custom initial condition returned a bad shape")
    elif name == "pec_cosine":
        omega = standing_mode_frequency(materials)
        hz = np.cos(np.pi * x) * np.cos(np.pi * y) * math.cos(omega * dt / 2.0)
    elif name == "sm_sine":
        hz = math.sin(math.pi * dt / 2.0) * np.sin(np.pi * x * y)
    elif name == "zero":
        hz = zeros.copy("K")
    else:
        raise ConfigError(f"unknown initial condition {name!r}")
    return FieldState(zeros.copy("K"), zeros.copy("K"), hz, dt=dt, step=0)


def standing_mode_frequency(materials: MaterialMap) -> float:
    """pi * sqrt(1/eps_xx + 1/eps_yy) from the first element's tensor."""
    exx = materials.eps[0, 0, 0]
    eyy = materials.eps[0, 1, 1]
    return math.pi * math.sqrt(1.0 / exx + 1.0 / eyy)


def default_initial_condition(bc: str) -> str:
    return "sm_sine" if bc == BC_SM else "pec_cosine"
