"""The benchmark's workloads: inputs, set-up, solve, and output checks.

Every call into the solver goes through a module attribute looked up at
call time (``experiments.run_table``, ``leapfrog.run``, ...), so the
traced run sees it.

cfl_table      The restricted grid (cells 5/10/20 x N 1/2, tol 1e-2,
               T = 1) of the PEC/central and SM/upwind tables: 12 dt_max
               searches on small meshes, where the search strategy and
               per-call overhead dominate. Its inputs are frozen; the
               seed does not change them.
cavity_160_n1  PEC, central flux, 160 cells (K = 51200), N = 1,
               20 steps: the largest mesh the shipped table configs
               ask for. Set-up is mostly mesh building; trace gather and
               flux are a large part of a step.
cavity_40_n5_sm  Silver-Muller, upwind flux, 40 cells (K = 3200),
               N = 5, 100 steps: volume-derivative and LIFT products
               dominate, and the SM ghost branch runs.

The seed draws the cavities' SPD permittivity tensor and mu; seed 0 is
the frozen benchmark tensor with mu = 1.

``solve(ctx, tick)`` calls ``tick()`` between independent pieces of a
solve (after each table row), so that the timing loop can gauge the
host's speed there; a cavity solve is one piece.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dgtd.dg_core as dg_core
import dgtd.experiments as experiments
import dgtd.leapfrog as leapfrog
import dgtd.materials as materials
import dgtd.mesh as mesh_mod
import dgtd.reference_element as reference_element
import dgtd.stability as stability

REFERENCE_PATH = Path(__file__).with_name("reference.json")

TABLES = (("PEC", 0.0), ("SM", 1.0))
C_TOLERANCE = 0.20         # |C - paper C| / paper C
DT_TOLERANCE_TOLS = 2.0    # |dt_max - frozen| / frozen, in units of the search tol
ENERGY_RTOL = 1e-10        # seed-0 energy trace against the frozen one, relative to E0
DT_FRACTION = 0.9          # cavity dt as a fraction of the theoretical bound


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as src:
        return json.load(src)


def draw_materials(seed: int) -> tuple[materials.PermittivityTensor, float]:
    """Seed 0: the benchmark tensor with mu = 1; otherwise a random SPD tensor."""
    if seed == 0:
        return experiments.BENCHMARK_EPS, 1.0
    rng = np.random.default_rng(seed)
    lam = rng.uniform(1.0, 5.0, size=2)
    theta = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    e = rot @ np.diag(lam) @ rot.T
    off = 0.5 * (e[0, 1] + e[1, 0])
    return materials.PermittivityTensor(e[0, 0], off, off, e[1, 1]), float(rng.uniform(0.5, 2.0))


def row_key(bc: str, alpha: float, cells: int, order: int) -> str:
    return f"{bc}/{experiments.flux_name(alpha)}/c{cells}/n{order}"


@dataclass(frozen=True)
class Outcome:
    attempted: int
    failed: int
    problems: list[str]


@dataclass(frozen=True)
class TableWorkload:
    cells: tuple[int, ...]
    orders: tuple[int, ...]
    tol: float

    def jobs(self):
        return [(bc, alpha, cells, order) for bc, alpha in TABLES
                for cells in self.cells for order in self.orders]

    def work_key(self) -> str:
        cells = "-".join(map(str, self.cells))
        orders = "-".join(map(str, self.orders))
        return f"table/c{cells}/n{orders}/tol{self.tol:g}"

    def setup(self, seed: int):
        """Build every case of the grid, as run_table will."""
        return [experiments.benchmark_case(cells, order, alpha, bc)
                for bc, alpha, cells, order in self.jobs()]

    def solve(self, cases, tick):
        rows = []
        for bc, alpha in TABLES:
            spec = experiments.SweepSpec(list(self.cells), list(self.orders), alpha, bc,
                                         tol=self.tol)
            rows += experiments.run_table(spec, progress=lambda row: tick())
        return rows

    def check(self, rows, seed: int, ref: dict) -> Outcome:
        jobs = self.jobs()
        problems = []
        failed = max(len(jobs) - len(rows), 0)
        if failed:
            problems.append(f"expected {len(jobs)} rows, got {len(rows)}")
        for (bc, alpha, cells, order), row in zip(jobs, rows):
            key = row_key(bc, alpha, cells, order)
            found = []
            want = ref["dt_max"].get(f"{key}/tol{self.tol:g}")
            paper = ref["paper_c"].get(key)
            if row.error is not None or not math.isfinite(row.dt_max):
                found.append(f"search failed: {row.error}")
            elif want is None:
                found.append("no frozen dt_max")
            elif abs(row.dt_max - want) > DT_TOLERANCE_TOLS * self.tol * want:
                found.append(f"dt_max {row.dt_max:.6g}, frozen {want:.6g}")
            if paper is not None and not abs(row.c - paper) <= C_TOLERANCE * paper:
                found.append(f"C {row.c:.4g}, paper {paper:.4g}")
            failed += bool(found)
            problems += [f"{key}: {p}" for p in found]
        return Outcome(len(jobs), failed, problems)

    def dof_updates(self, ctx, ref: dict) -> float:
        """DOF updates the seed commit's searches perform on this grid (frozen)."""
        return float(ref["dof_updates"][self.work_key()])


@dataclass
class CavitySetup:
    op: object
    dt: float
    state0: object


@dataclass(frozen=True)
class CavityWorkload:
    cells: int
    order: int
    bc: str
    alpha: float
    steps: int

    def energy_key(self) -> str:
        return (f"{self.bc}/{experiments.flux_name(self.alpha)}/c{self.cells}"
                f"/n{self.order}/steps{self.steps}")

    def setup(self, seed: int) -> CavitySetup:
        eps, mu = draw_materials(seed)
        mesh = mesh_mod.structured_square_mesh(self.cells)
        mats = materials.MaterialMap.uniform(mesh.n_elements, eps, mu)
        elem = reference_element.build_reference_element(self.order)
        op = dg_core.SpatialOperator(mesh, mats, elem,
                                     dg_core.FluxParams(alpha=self.alpha, bc=self.bc))
        bound = stability.theoretical_bound(mesh, mats, self.order, self.alpha, self.bc)
        dt = DT_FRACTION * bound.dt_bound
        initial = leapfrog.default_initial_condition(op.flux.bc)
        state0 = leapfrog.initial_conditions(initial, mesh, elem, mats, dt)
        return CavitySetup(op, dt, state0)

    def solve(self, ctx: CavitySetup, tick):
        config = leapfrog.RunConfig(dt=ctx.dt, final_time=self.steps * ctx.dt)
        return leapfrog.run(ctx.state0, ctx.op, config)

    def check(self, result, seed: int, ref: dict) -> Outcome:
        problems = []
        energy = result.energy[:, 2]
        if not result.completed:
            problems.append(f"run {result.status} at step {result.blowup_step}")
        elif len(energy) != self.steps + 1:
            problems.append(f"{len(energy) - 1} steps, expected {self.steps}")
        elif energy.max() > experiments.DEFAULT_BOUNDED_FACTOR * energy[0]:
            problems.append(f"max E/E0 {energy.max() / energy[0]:.4g}")
        elif seed == 0:
            want = ref["energy"].get(self.energy_key())
            if want is None:
                problems.append(f"no frozen energy trace for {self.energy_key()}")
            else:
                err = np.max(np.abs(energy - np.asarray(want))) / energy[0]
                if not err <= ENERGY_RTOL:
                    problems.append(f"energy trace differs from frozen by {err:.3g} E0")
        return Outcome(1, int(bool(problems)), problems)

    def dof_updates(self, ctx: CavitySetup, ref: dict) -> float:
        """Three fields on every node of every element, once per step."""
        return 3.0 * ctx.state0.Hz.size * self.steps


WORKLOADS = {
    "cfl_table": {"full": TableWorkload((5, 10, 20), (1, 2), 1e-2),
                  "toy": TableWorkload((2, 4), (1,), 1e-1)},
    "cavity_160_n1": {"full": CavityWorkload(160, 1, "PEC", 0.0, 20),
                      "toy": CavityWorkload(4, 1, "PEC", 0.0, 5)},
    "cavity_40_n5_sm": {"full": CavityWorkload(40, 5, "SM", 1.0, 100),
                        "toy": CavityWorkload(4, 5, "SM", 1.0, 10)},
}
