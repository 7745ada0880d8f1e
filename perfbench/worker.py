"""One workload in one process: set up, measure whole rounds, check outputs.

Started by ``run.py`` with the BLAS thread count pinned in its environment
and ``src`` on ``PYTHONPATH``.  The last line on standard output is one JSON
object for ``run.py``.  Set-up time runs from ``--spawned-at``, a
``time.perf_counter`` reading the parent took just before starting this
process (the clock is system-wide on Linux), to the start of the first
timed operation, so it covers interpreter start, imports, input
generation, ``FrameSetup`` construction and warm-up.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy
import scipy.linalg

import tracer as tracing
import workloads


def blas_facts():
    """BLAS name and version as numpy was built, and the live thread count of each OpenBLAS."""
    facts = {"blas": "unknown", "blas_threads": {}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    for module in (np, scipy):
        libs = os.path.join(os.path.dirname(module.__file__), os.pardir, f"{module.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    facts["blas_threads"][os.path.basename(path)] = fn()
                    break
    return facts


def machine_facts():
    facts = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    facts.update(blas_facts())
    return facts


# Host speed on a shared machine drifts by up to 1.7x over tens of seconds
# (the same fixed kernel ran at 1450 to 2500 iterations per second within
# one minute, CPU time equal to wall time).  A fixed kernel that does not
# use qrf_lab runs between steps, and every timing is scaled to the host
# speed at which that kernel takes its reference time.  Each workload names
# the kernel that tracked its own operations best: small NumPy calls driven
# from Python for the catalog, the wide frames and set-up (imports), a
# dense complex Schur decomposition for the projector ladder.  The small
# kernel's reference is the Schur reference (20 ms) times their median time
# ratio on the reference machine, 0.133.
_RNG = np.random.default_rng(0)
_SCHUR = _RNG.normal(size=(100, 100)) + 1j * _RNG.normal(size=(100, 100))
_SMALL = [g + g.conj().T for g in _RNG.normal(size=(50, 4, 4)) + 1j * _RNG.normal(size=(50, 4, 4))]


def _schur_kernel():
    scipy.linalg.schur(_SCHUR, output="complex")


def _small_kernel():
    for h in _SMALL:
        np.linalg.eigh(h)
        np.kron(h, h)
        np.trace(h @ h)


KERNELS = {"schur": (_schur_kernel, 0.020), "small": (_small_kernel, 0.020 * 0.133)}


def calibrate(kernel):
    """Seconds one run of the named kernel took, over its reference time."""
    run, reference_s = KERNELS[kernel]
    start = time.perf_counter()
    run()
    return (time.perf_counter() - start) / reference_s


class Timings:
    """Raw and host-speed-scaled time of every attempted operation.

    ``calibrations`` holds each kernel run's time over its reference time,
    so 1.0 is the reference host speed and 1.3 a host 30% slower.
    """

    def __init__(self):
        self.raw, self.scaled, self.calibrations = [], [], []

    def scale(self, op_index):
        return self.scaled[op_index] / self.raw[op_index] if self.raw[op_index] else 1.0


def run_rounds(workload, budget_s, tracer=None):
    """Attempt whole rounds until the raw operation times add up to budget_s."""
    timings = Timings()
    failures, problems, points = [], [], 0
    before = calibrate(workload.KERNEL)
    while True:
        for op in workload.round():
            if tracer is not None:
                tracer.op_index = len(timings.raw)
            raw = scaled = 0.0
            outputs = []
            try:
                for step in op:
                    start = time.perf_counter()
                    try:
                        outputs.append(step())
                    finally:
                        took = time.perf_counter() - start
                        after = calibrate(workload.KERNEL)
                        timings.calibrations.append(after)
                        raw += took
                        scaled += took / (0.5 * (before + after))
                        before = after
            except Exception as exc:  # an operation that raises counts as failed
                failures.append(f"failed: {type(exc).__name__}: {exc}")
            else:
                problems += workload.check(op, outputs)
                points += workload.grid_points(op)
            timings.raw.append(raw)
            timings.scaled.append(scaled)
        if sum(timings.raw) >= budget_s:
            return timings, failures, problems, points


def per_layer(tracer, timings, points, overhead_ms):
    ops = len(timings.raw)
    names = tracer.names
    calls = dict.fromkeys(names, 0)
    self_ms = dict.fromkeys(names, 0.0)
    for index, op, self_s in tracer.self_times():
        calls[names[index]] += 1
        self_ms[names[index]] += 1e3 * self_s * timings.scale(op)
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = calls[name] / ops
        metrics[f"{name}.self_ms"] = self_ms[name] / ops
    keys = len(tracer.perspective_keys)
    metrics["frames.perspective_unitary.calls_per_key"] = (
        calls["frames.perspective_unitary"] / keys if keys else 0.0)
    metrics["dynamics.evolve.calls_per_point"] = (
        calls["dynamics.evolve"] / points if points else 0.0)
    metrics["operators.fixed_space_projector.max_dim"] = float(tracer.max_superop_dim)
    metrics["trace.overhead_ms_per_op"] = overhead_ms
    metrics["host.slowdown"] = statistics.median(timings.calibrations)
    return metrics


def scaled_setup(setup_s):
    return setup_s / statistics.median(calibrate("small") for _ in range(3))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    for call in workload.warm_up_calls():
        try:
            call()
        except Exception:  # the timed rounds count and report the same failure
            pass
    setup_s = time.perf_counter() - args.spawned_at
    result = {"setup_s": scaled_setup(setup_s), "setup_raw_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        # Half the time untraced, half traced; the difference of the mean
        # operation times is the cost of tracing.
        plain, failed_a, problems_a, _ = run_rounds(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(workloads)
        try:
            traced, failed_b, problems_b, points = run_rounds(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(args.out_dir, f"trace-{args.workload}-{args.seed}.csv"))
        overhead_ms = 1e3 * (statistics.fmean(traced.scaled) - statistics.fmean(plain.scaled))
        result["metrics"] = per_layer(tracer, traced, points, overhead_ms)
        result["absent"] = tracer.absent
        attempted = len(plain.raw) + len(traced.raw)
        failures, problems = failed_a + failed_b, problems_a + problems_b
    else:
        timings, failures, problems, _ = run_rounds(workload, args.seconds)
        result["metrics"] = {
            "ops_per_s": len(timings.scaled) / sum(timings.scaled),
            "op_ms_p50": 1e3 * statistics.median(timings.scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["raw"] = {
            "ops_per_s": len(timings.raw) / sum(timings.raw),
            "op_ms_p50": 1e3 * statistics.median(timings.raw),
            "host_slowdown": statistics.median(timings.calibrations),
        }
        attempted = len(timings.raw)
    result.update(
        attempted=attempted,
        failed=len(failures),
        problems=(failures + problems)[:20],
        correct=not problems,
        facts=machine_facts(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
