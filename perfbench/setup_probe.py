"""Set-up cost of one workload in a fresh interpreter.

Set-up is what a user pays before the first result: importing `dicke4`
(numpy and scipy included) plus the cold first-call work of the workload,
such as the sector tables at each Z and the first LAPACK call.  This module
imports only the standard library at top level, so that when it runs first
in a fresh interpreter the import of `dicke4` is cold.

    python3 perfbench/setup_probe.py <workload>

prints one JSON line {"import_s": ..., "setup_s": ..., "reference_s": ...}:
wall seconds, and the mean of the reference times taken before and after.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread, in this process and in every interpreter it starts.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Put the checkout's `src` first on the path, so the benchmark measures
    the code beside it and never an installed copy."""
    if not (SRC / "dicke4" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dicke4 sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def reference_time() -> float:
    """Seconds this host takes for a fixed piece of interpreter work owned by
    the benchmark: the median of five timings of the same mix of integer
    arithmetic, `Fraction` arithmetic and string and dict churn, the three
    kinds of interpreter work the program does, about 0.7 ms each.

    On a shared virtual machine the speed can swing by up to 50% within
    seconds (on a 2-vCPU Xeon VM a 3-second median of an integer loop moved
    between 20.6 and 30.7 ms within one minute), so each time the benchmark
    reports is scaled by REFERENCE_S over the reference time measured next
    to it."""
    from fractions import Fraction
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc += i * i
        for _ in range(2):
            frac = Fraction(0)
            for i in range(1, 120):
                frac += Fraction(1, i)
        table = {}
        for i in range(1_500):
            key = "w" + str(i)
            table[key] = len(key)
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


# Reported times are in reference seconds: seconds on a host where
# `reference_time()` returns 2 ms.
REFERENCE_S = 0.002


def _warm_trajectory() -> None:
    from dicke4 import lindblad_solver, symmetric_sector
    for z in (20, 40, 60):
        symmetric_sector.basis(z)
        lindblad_solver.ladder_matrices(z)


def _warm_readout() -> None:
    import numpy as np
    from dicke4 import observables, symmetric_sector
    for z in (6, 7, 8, 9):
        symmetric_sector.basis(z)
    observables.matrix_entropy(np.eye(2) / 2.0)   # first LAPACK call


def _warm_verify() -> None:
    # The battery's first result is the battery itself: a `dicke4 verify`
    # user pays the import plus one cold run on every invocation.
    from dicke4 import cli
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    rc = cli.main(["verify", "--out", str(out / "setup-verify.txt")])
    if rc != 0:
        raise SystemExit(f"perfbench: cold verify run exited {rc}")


WARMUPS = {
    "trajectory-large-z": _warm_trajectory,
    "readout-dense": _warm_readout,
    "verify-battery": _warm_verify,
}


def measure_setup(workload: str, after_import=None) -> dict:
    """Import `dicke4` and run the workload's warm-up, timing both.

    `after_import` runs between the two, outside the timed region; the
    traced run uses it to install its span wrappers before the cold calls.
    """
    warm = WARMUPS[workload]
    use_checkout_source()
    ref = reference_time()
    t0 = time.perf_counter()
    import dicke4  # noqa: F401
    t1 = time.perf_counter()
    if after_import is not None:
        after_import()
    t2 = time.perf_counter()
    warm()
    t3 = time.perf_counter()
    ref = 0.5 * (ref + reference_time())
    return {"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2), "reference_s": ref}


if __name__ == "__main__":
    pin_blas_threads()
    print(json.dumps(measure_setup(sys.argv[1])))
