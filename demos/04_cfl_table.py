"""Regenerate a CFL table: dt_max and C = dt_max (N+1)(N+2) / h_min.

Sweeps mesh refinements and polynomial orders for one boundary
condition / flux combination and writes the table as CSV. The constants
C land near 1.8-2.3 for the central flux and near 1.0-1.2 for the
upwind flux, and stay nearly constant down each column: dt_max is
proportional to h_min and inversely proportional to (N+1)(N+2).

The full benchmark grids go down to h_min = 0.0177 (cells = 160) and
N = 5; that takes a while, so this demo sweeps a smaller corner. Adjust
CELLS/ORDERS (or use the CLI `table` subcommand with a sweep config) for
the full grid.
"""

from dgtd import SweepSpec, run_table, write_table_csv
from dgtd.experiments import table_filename

CELLS = [5, 10, 20]
ORDERS = [1, 2, 3]

for alpha, flux in ((0.0, "central"), (1.0, "upwind")):
    spec = SweepSpec(cells=CELLS, orders=ORDERS, alpha=alpha, bc="PEC")
    print(f"--- PEC, {flux} flux")
    print(f"{'h_min':>8} {'N':>2} {'dt_max':>10} {'C':>7} {'theory':>10}")

    def show(row):
        print(f"{row.h_min:8.4f} {row.order:2d} {row.dt_max:10.5f} "
              f"{row.c:7.3f} {row.theory_bound:10.2e}")

    rows = run_table(spec, progress=show)
    path = table_filename(spec.bc, spec.alpha)
    write_table_csv(rows, path)
    print(f"written to {path}\n")
