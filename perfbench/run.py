"""The repository benchmark: one command, every metric, every output checked.

    python3 perfbench/run.py --workload cad_join --seed 1 --seconds 20 \\
        --trace 0

Run it from the repository root; it imports the package from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes one traced pass over the same session and reports
the per-layer metrics (see ``session.py`` for both, ``layers.py`` for
how the trace folds into per-layer self time).  Every metric is printed
as ``name value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The BLAS and OpenMP thread settings are left as the user's environment
has them, since that is what users run with; they are recorded, with
the commit, the core count and the library versions, on the ``env``
line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("cad_join", "uniform_sparse", "store_churn",
                  "cad_durable_parallel")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _git_head() -> str:
    # The ceiling keeps git from searching the directories above the
    # checkout, which may belong to another repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=20)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def _openblas_threads():
    """Threads the loaded OpenBLAS will use, or ``None`` if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas_get_num_threads",
                     "scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workers: int) -> dict:
    import numpy as np

    cores = len(os.sched_getaffinity(0))
    env = {
        "commit": _git_head(),
        "cpu_count": os.cpu_count(),
        "affinity_cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": _openblas_threads(),
    }
    env.update({var.lower(): os.environ.get(var, "unset")
                for var in THREAD_VARS})
    env["workers"] = workers
    # A parallel figure from fewer cores than workers measures time
    # slicing, not parallelism.
    env["parallel_meaningful"] = workers < 2 or cores >= workers
    return env


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import session
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}",
              file=sys.stderr)
        return 2

    wl = session.WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root)
    # The program's anonymous disks and its worker processes write their
    # scratch files here, inside the checkout.
    tempfile.tempdir = work_dir
    os.environ["TMPDIR"] = work_dir
    try:
        print("env " + json.dumps(environment(wl.workers), sort_keys=True))
        run = session.run_traced if args.trace else session.run_untraced
        out = run(wl, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    for name, (value, unit) in out.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {out.failed / max(1, out.attempted):.6g} ratio "
          f"({out.failed} of {out.attempted} operations)")
    for problem in out.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
