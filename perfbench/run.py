"""Benchmark for qrf_lab: one workload, or all of them, with a seed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn.  Each workload runs in its
own process (``worker.py``) with the BLAS thread count pinned to one in
that process's environment and ``src`` on ``PYTHONPATH``.  With
``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json;
set-up time is the median over several fresh processes.  With
``--trace 1`` it holds the per-layer metrics from a traced run.  The last
line printed is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_PROCESSES = 5          # fresh processes whose set-up time is pooled
DEADLINE_S = 170.0           # a run must end within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(root):
    env = dict(os.environ, **PINNED)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def spawn(args, root, deadline, setup_only=False, trace=0):
    """Run worker.py once and return its JSON result."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload_name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--out-dir", os.path.join(root, OUT_DIR)]
    if setup_only:
        command.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for another process")
    command += ["--spawned-at", repr(time.perf_counter())]
    done = subprocess.run(command, env=child_env(root), cwd=root, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {args.workload_name} exited with {done.returncode}")
    return json.loads(lines[-1])


def run_workload(args, bench, root, deadline):
    if args.trace:
        result = spawn(args, root, deadline, trace=1)
        wanted = bench["per_layer"]
    else:
        setups = [spawn(args, root, deadline, setup_only=True)
                  for _ in range(SETUP_PROCESSES - 1)]
        result = spawn(args, root, deadline)
        setups.append(result)
        result["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        result["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
        wanted = bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        if spec["name"] not in result["metrics"]:
            raise RuntimeError(f"worker reported no metric {spec['name']}")
        metrics[spec["name"]] = {"value": result["metrics"][spec["name"]], "unit": spec["unit"]}
    result["metrics"] = metrics
    return result


def report(name, result):
    facts = result["facts"]
    threads = ", ".join(f"{lib}={n}" for lib, n in facts["blas_threads"].items()) or "unknown"
    print(f"[{name}] python {facts['python']}, numpy {facts['numpy']}, scipy {facts['scipy']}, "
          f"BLAS {facts['blas']}, BLAS threads {threads}, nproc {facts['nproc']} "
          f"(cpu_count {facts['cpu_count']})")
    for metric, value in result["metrics"].items():
        print(f"[{name}] {metric} = {value['value']!r} {value['unit']}")
    print(f"[{name}] attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    if "raw" in result:
        print(f"[{name}] unscaled: " + ", ".join(f"{k} = {v!r}" for k, v in result["raw"].items()))
    for absent in result.get("absent", []):
        print(f"[{name}] absent: {absent} is no longer in qrf_lab; reported as 0")
    for problem in result["problems"]:
        print(f"[{name}] {problem}")


def main(argv=None):
    root = os.getcwd()
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "qrf_lab", "__init__.py")):
        print("error: run from the root of a qrf_lab checkout (src/qrf_lab is missing)",
              file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)

    selected = names if args.workload == "all" else [args.workload]
    results = {}
    for name in selected:
        args.workload_name = name
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[name] = run_workload(args, bench, root, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, results[name])

    if len(selected) == 1:
        metrics = results[selected[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": value for name, result in results.items()
                   for metric, value in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
