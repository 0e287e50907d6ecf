"""Empirical stability sweeps: locate dt_max by bisection, extract CFL
constants, and regenerate the stability tables as CSV.

A "case" fixes everything except the time step: mesh, materials, order,
flux parameters and initial data, integrated to the final time. The
stable/unstable classification of a given dt is a run that either
reaches the final time with bounded energy or stops at the first energy
above the bound. The maximum stable step is bracketed by doubling or
halving from the largest doubling of the theoretical bound that does
not exceed a loose Lanczos estimate of the spectral leap-frog limit of
the operator's central part, and then bisected to a relative
tolerance. A search runs only its bracketing and bisection steps; the
theoretical bound is classified where it is checked, in the tests.

A table row is `find_dtmax(benchmark_case(cells, order, alpha, bc), tol)`:
every row shares the tables' tensor BENCHMARK_EPS, mu = 1, final time 1
and DEFAULT_BOUNDED_FACTOR, and a `SweepSpec` sets only the grid, the
flux, the boundary condition and the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence

from .dg_core import FluxParams, SpatialOperator, normalize_bc
from .errors import DomainError, SweepError
from .leapfrog import (
    RunConfig,
    default_initial_condition,
    initial_conditions,
    run,
)
from .materials import MaterialMap, PermittivityTensor
from .mesh import Mesh2D, structured_square_mesh
from .reference_element import build_reference_element, check_order
from .stability import StabilityConstants, spectral_dt, theoretical_bound

DT_CAP = 10.0
MAX_HALVINGS = 60
# Lanczos tolerance of the start estimate: the search reads only its power
# of two, and a Ritz value can only put it above the limit, where the
# worst case is one extra unstable run, which stops early.
START_TOL = 1e-2

# constant anisotropic tensor used throughout the benchmark sweeps
BENCHMARK_EPS = PermittivityTensor(5.0, 1.0, 1.0, 3.0)


# Verdict threshold on max(energy)/initial. Moving it from 2 to 20 moves
# dt_max (tol 1e-3, T = 1) on the 24 acceptance rows by 2.9-7.5% at
# cells 5, 0.8-2.8% at cells 10 and 0.28-1.21% at cells 20, shrinking
# under refinement in every (table, N) column (acceptance criterion 10).
DEFAULT_BOUNDED_FACTOR = 5.0


@dataclass
class StabilityCase:
    """Everything about a run except the time step."""

    mesh: Mesh2D
    materials: MaterialMap
    order: int
    alpha: float
    bc: str
    initial: str | Callable | None = None
    final_time: float = 1.0
    bounded_factor: float = DEFAULT_BOUNDED_FACTOR

    def __post_init__(self):
        self.bc = normalize_bc(self.bc)
        if self.initial is None:
            self.initial = default_initial_condition(self.bc)
        self.elem = build_reference_element(self.order)
        self.op = SpatialOperator(
            self.mesh, self.materials, self.elem,
            FluxParams(alpha=self.alpha, bc=self.bc),
        )

    def theory(self) -> StabilityConstants:
        return theoretical_bound(self.mesh, self.materials, self.order,
                                 self.alpha, self.bc)


def benchmark_case(cells: int, order: int, alpha: float, bc: str) -> StabilityCase:
    """The anisotropic square-cavity setup used by the CFL tables:
    domain (-1,1)^2, constant tensor BENCHMARK_EPS, mu = 1, T = 1."""
    mesh = structured_square_mesh(cells)
    materials = MaterialMap.uniform(mesh.n_elements, BENCHMARK_EPS, 1.0)
    return StabilityCase(mesh, materials, order, alpha, bc)


def classify_stability(dt: float, case: StabilityCase) -> bool:
    """Run the case to its final time; True iff the energy stayed bounded.

    Bounded means the energy never exceeded bounded_factor times its
    initial value (see DEFAULT_BOUNDED_FACTOR for the measured margins).
    The energy is checked after every step and the run stops at the first
    value above that or the first non-finite one, so a run that completes
    is stable. A dt too large to complete even one step before final_time
    proves nothing and classifies as unstable.
    """
    config = RunConfig(dt=dt, final_time=case.final_time,
                       record_energy_every=1,
                       blowup_factor=case.bounded_factor)
    if config.n_steps == 0:
        return False
    state0 = initial_conditions(case.initial, case.mesh, case.elem,
                                case.materials, dt)
    return run(state0, case.op, config).completed


@dataclass
class DtMaxSearch:
    dt_max: float
    iterations: int
    runs: int
    theory_bound: float


def check_tol(tol: float) -> None:
    """DomainError unless the relative bisection tolerance lies in (0, 0.1]."""
    if not 0.0 < tol <= 0.1:
        raise DomainError(f"tolerance must lie in (0, 0.1], got {tol}")


def find_dtmax(case: StabilityCase, tol: float = 1e-2) -> DtMaxSearch:
    """Largest stable time step, located by bracketing plus bisection.

    Bracketing starts from the largest doubling theory * 2^k of the
    theoretical bound that does not exceed
    `spectral_dt(case.op, tol=START_TOL)` (the bound itself if ARPACK
    does not converge). On that lattice the search meets the same
    bracket and midpoints as doubling up from the bound would, without
    the runs below the estimate, so dt_max is unchanged wherever the
    verdict is monotone along the lattice. From the start it steps away
    from the verdict, doubling while stable (up to DT_CAP) or halving
    while unstable (at most MAX_HALVINGS times), until the verdict
    flips, then bisects the bracket to the relative tolerance and
    returns the last stable iterate.
    """
    check_tol(tol)
    theory = case.theory().dt_bound
    try:
        estimate = spectral_dt(case.op, tol=START_TOL)
    except ArpackNoConvergence:
        estimate = math.nan
    dt = theory
    if not math.isnan(estimate):
        dt *= 2.0 ** math.floor(math.log2(estimate / theory))
    # every dt the search classifies is new: bracketing moves one way
    # along the lattice and each midpoint lies strictly inside the bracket
    stable = classify_stability(dt, case)
    bracketing_runs = 1
    lo, hi = (dt, None) if stable else (None, dt)
    while lo is None or hi is None:
        if hi is None and dt >= DT_CAP:
            raise SweepError(f"no unstable time step found below the cap {DT_CAP}")
        if lo is None and bracketing_runs > MAX_HALVINGS:
            raise SweepError("no stable time step found while shrinking")
        dt *= 2.0 if stable else 0.5
        bracketing_runs += 1
        if classify_stability(dt, case):
            lo = dt
        else:
            hi = dt

    iterations = 0
    while (hi - lo) > tol * lo:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if classify_stability(mid, case):
            lo = mid
        else:
            hi = mid
    return DtMaxSearch(dt_max=lo, iterations=iterations,
                       runs=bracketing_runs + iterations, theory_bound=theory)


def cfl_constant(dt_max: float, order: int, h_min: float) -> float:
    """C in dt_max = C / ((N+1)(N+2)) * h_min."""
    return dt_max * (order + 1) * (order + 2) / h_min


@dataclass
class SweepSpec:
    """Grid of (mesh refinement, order) benchmark cases sharing one flux
    and boundary condition; a bad tol, cells or orders entry raises
    DomainError, and a bad alpha or bc ConfigError, before any case runs."""

    cells: list[int]
    orders: list[int]
    alpha: float
    bc: str
    tol: float = 1e-2

    def __post_init__(self):
        # FluxParams owns the alpha range and the bc spellings
        self.bc = FluxParams(self.alpha, self.bc).bc
        check_tol(self.tol)
        if any(c < 1 for c in self.cells):
            raise DomainError(f"cells entries must be >= 1, got {self.cells}")
        for order in self.orders:
            check_order(order)


@dataclass
class SweepRow:
    h_min: float
    order: int
    dt_max: float = np.nan
    c: float = np.nan
    theory_bound: float = np.nan
    error: str | None = None


def flux_name(alpha: float) -> str:
    if alpha == 0.0:
        return "central"
    if alpha == 1.0:
        return "upwind"
    return f"alpha{alpha:g}"


def table_filename(bc: str, alpha: float) -> str:
    return f"table_{normalize_bc(bc).lower()}_{flux_name(alpha)}.csv"


def _run_one(spec: SweepSpec, cells: int, order: int) -> SweepRow:
    case = benchmark_case(cells, order, spec.alpha, spec.bc)
    row = SweepRow(h_min=case.mesh.h_min, order=order)
    try:
        search = find_dtmax(case, tol=spec.tol)
        row.dt_max = search.dt_max
        row.c = cfl_constant(search.dt_max, order, case.mesh.h_min)
        row.theory_bound = search.theory_bound
    except Exception as exc:  # record, keep the rest of the table going
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def run_table(spec: SweepSpec,
              progress: Callable[[SweepRow], None] | None = None) -> list[SweepRow]:
    """Run the whole (cells x orders) grid; failures are recorded per row."""
    rows = []
    for cells in spec.cells:
        for order in spec.orders:
            rows.append(_run_one(spec, cells, order))
            if progress is not None:
                progress(rows[-1])
    return rows


def write_table_csv(rows: list[SweepRow], path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("h_min,N,dt_max,C,theory_bound\n")
        for row in rows:
            out.write(f"{row.h_min:.6g},{row.order},{row.dt_max:.6g},"
                      f"{row.c:.6g},{row.theory_bound:.6g}\n")
