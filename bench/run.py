#!/usr/bin/env python3
"""Seeded benchmark of hdcrypt.

    python3 bench/run.py --workload text-train --seed 1 --seconds 30 --trace 0

Runs one workload (text-train, text-crypt or image-cell) from the source
tree beside this directory, checks its outputs and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics; `--trace 1` wraps hdcrypt's
public functions, runs the same workload and reports the per-layer
metrics instead. Every run also writes a result file with the
environment, every sample and every check to bench/results/.
"""

import argparse
import glob
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("text-train", "text-crypt", "image-cell"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def limit_blas_threads():
    """One BLAS thread; must precede numpy's import.

    On a 2-core host a second thread bought no wall time on text cells
    but kept the second core busy spinning, which left every timing at
    the mercy of whatever else ran there.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def blas_info():
    """BLAS name, version and the thread count it is actually using."""
    import ctypes

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment():
    import numpy as np
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def result_path(workload, seed, seconds, trace):
    return RESULTS_DIR / f"{workload}-seed{seed}-{seconds:g}s-trace{trace}.json"


def compare_with_untraced(args, run, metrics):
    """Tracing overhead per end-to-end metric, and whether the traced run's
    seeded results equal those of the untraced run of the same seed."""
    path = result_path(args.workload, args.seed, args.seconds, 0)
    if not path.is_file():
        return {"untraced_result": None,
                "note": "no untraced run of this workload, seed and length to compare"}
    with open(path, encoding="utf-8") as fh:
        untraced = json.load(fh)
    common = min(len(untraced["seeded"]), len(run.seeded))
    same = untraced["seeded"][:common] == json.loads(json.dumps(run.seeded[:common]))
    if not same:
        run.check("traced run's seeded results differ from the untraced run's")
    base = untraced["metrics"]
    return {
        "untraced_result": path.name,
        "rounds_compared": common,
        "seeded_results_equal": same,
        "overhead": {name: value - base[name] for name, value in metrics.items() if name in base},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hdcrypt" / "__init__.py").is_file():
        print(f"error: no hdcrypt sources at {SRC}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import hdcrypt
    if Path(hdcrypt.__file__).resolve().parent != (SRC / "hdcrypt").resolve():
        print(f"error: imported hdcrypt from {hdcrypt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(args.seed, args.seconds, tracer, str(workdir))
    if tracer:
        tracer.install()
    try:
        workloads.WORKLOADS[args.workload](run, workloads.FULL_SIZES[args.workload])
    finally:
        if tracer:
            tracer.restore()
    e2e = run.metrics()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": workloads.FULL_SIZES[args.workload].__dict__,
        "environment": environment(),
        "rounds": run.rounds, "samples": run.samples, "wall_samples": run.wall_samples,
        "metrics": e2e,
        "seeded": run.seeded, "errors": run.errors,
    }
    if tracer:
        record["tracing"] = compare_with_untraced(args, run, e2e)
        layer = tracer.metrics()
        record["per_layer"] = {name: value for name, (value, _) in layer.items()}
        printed = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        printed = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in workloads.END_TO_END.items()}
    record["check_failures"] = run.failures
    summary = {"correct": not run.failures, "attempted": run.attempted,
               "failed": run.failed, "metrics": printed}
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(result_path(args.workload, args.seed, args.seconds, args.trace), "w",
              encoding="utf-8") as fh:
        json.dump({**record, "summary": summary}, fh, indent=1)
        fh.write("\n")
    for reason in run.failures + run.errors:
        print(f"{args.workload}: {reason}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
