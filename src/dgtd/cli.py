"""Command-line front end.

Subcommands: simulate, bound, dtmax-sweep, table. Exit codes: 0 success,
2 configuration error, 3 blowup during simulate, 4 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback

from .config import parse_config, parse_table_spec
from .errors import ConfigError, DgtdError, DomainError, MaterialError, MeshError
from .experiments import (
    StabilityCase,
    cfl_constant,
    find_dtmax,
    run_table,
    table_filename,
    write_table_csv,
)
from .leapfrog import (
    RunConfig,
    initial_conditions,
    run,
    write_energy_csv,
)
from .materials import face_impedances
from .stability import spectral_dt, stability_bound, theoretical_bound

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgtd",
        description="Leap-frog DG solver for 2D TE Maxwell equations "
                    "with a CFL stability toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to config file")
        p.add_argument("--out", default=".", help="output directory")

    def tolerance(p):
        p.add_argument("--tol", type=float, default=None,
                       help="relative bisection tolerance override")

    p_sim = sub.add_parser("simulate", help="run one simulation")
    common(p_sim)

    p_bound = sub.add_parser("bound", help="evaluate the theoretical dt bound")
    common(p_bound)
    p_bound.add_argument("--three-d", action="store_true",
                         help="also evaluate the 3D bound formula")
    p_bound.add_argument("--h-min-3d", type=float, default=None,
                         help="h_min for the 3D bound (defaults to the 2D mesh value)")

    p_dtmax = sub.add_parser("dtmax-sweep",
                             help="bisect the maximum stable dt for one case")
    common(p_dtmax)
    tolerance(p_dtmax)

    p_table = sub.add_parser("table", help="regenerate a CFL table as CSV")
    common(p_table)
    tolerance(p_table)
    return parser


def _build_case(cfg) -> StabilityCase:
    mesh = cfg.build_mesh()
    return StabilityCase(mesh, cfg.build_materials(mesh), cfg.order,
                         cfg.alpha, cfg.bc, initial=cfg.initial_condition(),
                         final_time=cfg.final_time)


def _cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    case = _build_case(cfg)

    if cfg.dt is None:
        bound = case.theory()
        dt = cfg.safety * bound.dt_bound
        print(f"auto dt: {dt!r} (bound {bound.dt_bound!r}, safety {cfg.safety})")
    else:
        dt = cfg.dt

    state0 = initial_conditions(case.initial, case.mesh, case.elem,
                                case.materials, dt)
    config = RunConfig(dt=dt, final_time=case.final_time,
                       record_energy_every=cfg.energy_every,
                       blowup_factor=cfg.blowup_factor)
    result = run(state0, case.op, config)

    os.makedirs(args.out, exist_ok=True)
    write_energy_csv(os.path.join(args.out, "energy.csv"), result)
    with open(os.path.join(args.out, "effective.cfg"), "w",
              encoding="utf-8") as handle:
        handle.write(cfg.effective_text)
    if cfg.fields_out:
        _write_fields(os.path.join(args.out, "fields.csv"), case.op, result.state)

    if not result.completed:
        print(f"blowup at step {result.blowup_step} "
              f"(t = {result.blowup_step * dt!r})", file=sys.stderr)
        return EXIT_BLOWUP
    print(f"completed {config.n_steps} steps to t = {result.state.time_E!r}; "
          f"final energy {result.final_energy!r}")
    return EXIT_OK


def _write_fields(path, op, state) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("element,node,x,y,Ex,Ey,Hz\n")
        n_p = op.elem.node_count
        for k in range(op.mesh.n_elements):
            for i in range(n_p):
                vals = (op.x[k, i], op.y[k, i], state.Ex[k, i],
                        state.Ey[k, i], state.Hz[k, i])
                out.write(f"{k},{i}," + ",".join(repr(float(v)) for v in vals) + "\n")


def _cmd_bound(args) -> int:
    if args.h_min_3d is not None and not args.three_d:
        raise ConfigError("--h-min-3d is used only with --three-d")
    cfg = parse_config(args.config)
    mesh = cfg.build_mesh()
    materials = cfg.build_materials(mesh)
    bound = theoretical_bound(mesh, materials, cfg.order, cfg.alpha, cfg.bc)
    # every bound is evaluated, and so checked, before anything is printed
    bounds = [("2", f"2D bound for order {cfg.order}, alpha {cfg.alpha}, "
                    f"bc {cfg.bc}, h_min {mesh.h_min!r}:", bound)]
    if args.three_d:
        imp = face_impedances(materials, mesh)
        h3 = args.h_min_3d if args.h_min_3d is not None else mesh.h_min
        bounds.append(("3", f"\n3D bound (h_min {h3!r}):", stability_bound(
            3, cfg.order, h3, materials.eps_lower, materials.mu_lower,
            imp.z_min, imp.y_min, cfg.alpha, cfg.bc,
            bound.c_inv, bound.c_tau,
        )))

    rows = [("dim", *(f.name for f in dataclasses.fields(bound)))]
    for dim, title, evaluated in bounds:
        print(title)
        print(evaluated.report())
        rows.append((dim, *map(repr, dataclasses.astuple(evaluated))))

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "bound.csv"), "w",
              encoding="utf-8") as out:
        for row in rows:
            out.write(",".join(row) + "\n")
    return EXIT_OK


def _cmd_dtmax(args) -> int:
    case = _build_case(parse_config(args.config))
    search = find_dtmax(case) if args.tol is None else find_dtmax(case, tol=args.tol)
    c = cfl_constant(search.dt_max, case.order, case.mesh.h_min)
    print(f"h_min        = {case.mesh.h_min!r}")
    print(f"dt_max       = {search.dt_max!r}")
    print(f"C            = {c!r}")
    print(f"theory bound = {search.theory_bound!r}")
    print(f"spectral dt  = {spectral_dt(case.op)!r}")
    print(f"bisection iterations = {search.iterations}, runs = {search.runs}")
    return EXIT_OK


def _cmd_table(args) -> int:
    spec = parse_table_spec(args.config)
    if args.tol is not None:
        spec = dataclasses.replace(spec, tol=args.tol)

    def progress(row):
        if row.error is None:
            print(f"h_min {row.h_min:.4f}  N {row.order}  "
                  f"dt_max {row.dt_max:.6g}  C {row.c:.4g}")
        else:
            print(f"h_min {row.h_min:.4f}  N {row.order}  FAILED: {row.error}")

    rows = run_table(spec, progress=progress)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, table_filename(spec.bc, spec.alpha))
    write_table_csv(rows, path)
    print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "bound": _cmd_bound,
        "dtmax-sweep": _cmd_dtmax,
        "table": _cmd_table,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, DomainError, MeshError, MaterialError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DgtdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
