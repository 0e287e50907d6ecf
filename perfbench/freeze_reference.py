"""Record the values the benchmark checks its outputs against.

    python3 perfbench/freeze_reference.py

Writes perfbench/reference.json from the solver in the checkout: the
dt_max of every table row, the DOF updates each table search performs,
and the seed-0 energy trace of every cavity workload, for the full and
the toy sizes. The paper's CFL constants are copied from the acceptance
suite's REFERENCE_C. Run it only on a commit whose outputs are the
reference; the benchmark compares later commits against the file.
"""

from __future__ import annotations

import json
import os
import sys

# the paper's restricted-grid CFL constants C for the two benchmarked tables
PAPER_C = {
    "PEC/central": {(5, 1): 1.80, (5, 2): 2.12, (10, 1): 1.87, (10, 2): 2.12,
                    (20, 1): 1.87, (20, 2): 2.04},
    "SM/upwind": {(5, 1): 1.17, (5, 2): 1.21, (10, 1): 1.08, (10, 2): 1.10,
                  (20, 1): 0.98, (20, 2): 1.02},
}


def main() -> int:
    import run
    run.import_program()
    import dgtd.leapfrog as leapfrog
    from workloads import WORKLOADS, CavityWorkload, TableWorkload, row_key

    ref = {"paper_c": {f"{table}/c{c}/n{n}": value
                       for table, values in PAPER_C.items()
                       for (c, n), value in values.items()},
           "dt_max": {}, "dof_updates": {}, "energy": {}}

    dof = [0]
    step = leapfrog.step

    def counted_step(state, op, dt):
        dof[0] += 3 * state.Hz.size
        return step(state, op, dt)

    for sizes in WORKLOADS.values():
        for wl in sizes.values():
            if isinstance(wl, TableWorkload):
                dof[0] = 0
                leapfrog.step = counted_step
                try:
                    rows = wl.solve(None, tick=lambda: None)
                finally:
                    leapfrog.step = step
                ref["dof_updates"][wl.work_key()] = dof[0]
                for job, row in zip(wl.jobs(), rows):
                    if row.error is not None:
                        raise SystemExit(f"search failed: {row.error}")
                    ref["dt_max"][f"{row_key(*job)}/tol{wl.tol:g}"] = row.dt_max
            elif isinstance(wl, CavityWorkload):
                result = wl.solve(wl.setup(seed=0), tick=lambda: None)
                ref["energy"][wl.energy_key()] = [float(e) for e in result.energy[:, 2]]

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(ref, out, indent=1)
        out.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(main())
