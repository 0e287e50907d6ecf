"""dgtd benchmark: CFL-table search and two fine-mesh cavity runs.

    python3 perfbench/run.py --workload cfl_table --seed 1 --seconds 10 --trace 0

Run from the repository root; the solver is imported from ``src/``.
The script sets up the workload at least five times and for at least
four seconds, then solves and checks it repeatedly until ``--seconds``
have passed. A fixed calibration kernel (calibrate.py) runs between the
set-ups and between the pieces of each solve, and every time is divided
by the kernel time measured around it: the shared host's speed drifts
by 15% and more over minutes, and this takes the drift out. The medians
of these normalised times are ``setup_s`` and ``solve_norm_s``. Every
metric is printed by name and unit, and the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

``--trace 0`` reports the end-to-end metrics from untraced solves.
``--trace 1`` alternates untraced and traced solves and reports the
per-layer metrics from the spans (see spans.py), plus the tracing
overhead; the spans and a summary with self times and per-search
records go to ``perfbench/out/``.

OpenBLAS is pinned to one thread before numpy loads: the machine has two
shared cores, and a multithreaded (K, Np) @ (Np, Np) product makes the
timings depend on what else runs there.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
# set-up runs at least this many times and for at least this long
SETUP_REPEATS = 5
SETUP_SECONDS = 4.0


def import_program():
    """Put the checkout's src/ first on the path; fail if it is missing."""
    package = SRC / "dgtd"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no dgtd sources at {package}")
    sys.path.insert(0, str(SRC))
    import dgtd
    if Path(dgtd.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported dgtd from {dgtd.__file__}, not {package}")


def environment() -> dict:
    import ctypes

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_version, "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}


def timed_pass(wl, ctx, seed: int, ref: dict, cal, per_piece: bool):
    """Solve and check once; return (wall seconds, normalised seconds, outcome).

    The calibration kernel runs before the pass and, with ``per_piece``,
    after each piece the workload marks with ``tick``, else only after
    the pass (see calibrate.Calibrator.normalise). Kernel runs are not
    part of either time.
    """
    wall = norm = 0.0
    cal.start()
    t0 = perf_counter()

    def tick():
        nonlocal wall, norm, t0
        elapsed = perf_counter() - t0
        wall += elapsed
        norm += cal.normalise(elapsed)
        t0 = perf_counter()

    outcome = wl.check(wl.solve(ctx, tick if per_piece else lambda: None), seed, ref)
    tick()
    return wall, norm, outcome


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  toy: bool = False, out_dir: Path = OUT_DIR) -> dict:
    """Set up, solve and check one workload; return metrics and checks."""
    from calibrate import Calibrator
    from spans import SpanRecorder
    from workloads import WORKLOADS, load_reference

    wl = WORKLOADS[workload]["toy" if toy else "full"]
    ref = load_reference()
    recorder = SpanRecorder() if trace else None

    def traced(layer):
        return recorder.installed(layer) if recorder is not None else nullcontext()

    cal = Calibrator()
    cal.measure()  # warm the kernel's caches and code paths
    setups = []  # (wall seconds, normalised seconds)
    min_setup_s = 0.0 if toy else SETUP_SECONDS
    cal.start()
    while len(setups) < SETUP_REPEATS or sum(w for w, _ in setups) < min_setup_s:
        with traced("bench.setup"):
            t0 = perf_counter()
            ctx = wl.setup(seed)
            wall = perf_counter() - t0
        setups.append((wall, cal.normalise(wall)))

    # traced passes gauge the host only around the whole pass, so that
    # no kernel run falls inside a layer's span
    passes = {False: [], True: []}
    attempted = failed = 0
    problems = []
    start = perf_counter()
    while True:
        with_trace = trace and len(passes[True]) < len(passes[False])
        with traced("bench.solve") if with_trace else nullcontext():
            wall, norm, outcome = timed_pass(wl, ctx, seed, ref, cal, not with_trace)
        passes[with_trace].append((wall, norm))
        attempted += outcome.attempted
        failed += outcome.failed
        problems += outcome.problems
        if perf_counter() - start >= seconds and (not trace or passes[True]):
            break

    untraced = statistics.median(norm for _, norm in passes[False])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "problems": problems, "env": environment(),
              "setups": setups,
              "passes": {"untraced": passes[False], "traced": passes[True]}}
    if not trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {
            "setup_s": (statistics.median(norm for _, norm in setups), "s"),
            "solve_norm_s": (untraced, "s"),
            "dof_updates_per_norm_s": (wl.dof_updates(ctx, ref) / untraced, "1/s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        return result

    summary = recorder.analyse(traced_solves=len(passes[True]))
    metrics = summary["metrics"]
    traced_norm = statistics.median(norm for _, norm in passes[True])
    metrics["trace.overhead_ratio"] = (traced_norm / untraced, "ratio")
    result["metrics"] = metrics
    result["layers"] = summary["layers"]
    result["searches"] = summary["searches"]
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder.save(out_dir / f"{workload}.spans.npz")
    with open(out_dir / f"{workload}.summary.json", "w", encoding="utf-8") as out:
        json.dump(result, out, indent=1, default=float)
    return result


def report(workload: str, seed: int, result: dict) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    env = result["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    passes = result["passes"]
    setups = result["setups"]
    print(f"workload {workload} seed {seed}: {len(setups)} set-ups, median "
          f"{statistics.median(w for w, _ in setups):.4g} s wall / "
          f"{statistics.median(n for _, n in setups):.4g} s normalised; "
          "solve times (wall s / normalised s): "
          + " ".join(f"{w:.4g}/{n:.4g}" for w, n in passes["untraced"]) + " untraced, "
          + " ".join(f"{w:.4g}/{n:.4g}" for w, n in passes["traced"]) + " traced")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(f"fail_ratio = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for name, info in result.get("layers", {}).items():
        if info.get("n"):
            print(f"layer {name}: n={info['n']} total={info['total_s']:.6g} s "
                  f"self={info['self_s']:.6g} s tail={info.get('tail_percentile', '-')}")
        else:
            print(f"layer {name}: absent")
    for i, search in enumerate(result.get("searches", [])):
        phases = {}
        for rec in search:
            phases[rec["phase"]] = phases.get(rec["phase"], 0) + rec["steps"]
        print(f"search {i}: {len(search)} runs, steps by phase {phases}")
    metrics = {name: {"value": float(value), "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cfl_table", "cavity_160_n1", "cavity_40_n5_sm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_program()
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, result)
    return 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported
    sys.exit(main())
