#!/usr/bin/env python3
"""Run one paulipatch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid16-patch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. The run sets up the workload's inputs from the seed, then
makes passes until ``--seconds`` have elapsed (at least one), checking every
pass's outputs. It prints one line per metric, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` passes alternate untraced and traced and the metrics are the
per-layer ones. A result file with the environment stamp, the fingerprint and
(when traced) every span goes to ``.perfbench_out/`` in the checkout.

``setup_s`` is the median over several fresh interpreters, each started as
``run.py --setup-probe``, from launch to inputs ready.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("heavyhex-kz", "grid16-patch", "mixed10-verify")

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "build_s": "s", "sweep_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the inputs, print 'ready' and exit")
    return parser.parse_args(argv)


def import_package():
    """Import paulipatch from this checkout's src, never from anywhere else."""
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ.setdefault(var, str(NPROC))
    sys.path.insert(0, str(SRC))
    import paulipatch

    where = Path(paulipatch.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise ImportError(f"paulipatch imported from {where}, expected {SRC}")
    return paulipatch


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": NPROC,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }


def measure_setup(args) -> list[float]:
    """Launch-to-ready time of SETUP_PROBES fresh interpreters, one at a time."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        times.append(ready - start)
    return times


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_pass(workloads, run, inputs, tracer, work_dir) -> dict:
    bench = workloads.Bench(work_dir=work_dir)
    error = None
    start = time.perf_counter()
    try:
        with tracer.span("pass"):
            run(inputs, bench)
    except Exception:  # any library failure is a failed operation, not a crash
        bench.attempted += 1
        bench.failed += 1
        error = traceback.format_exc()
    wall = time.perf_counter() - start - bench.phase_s["untimed"]
    result = {"wall_s": wall, "build_s": bench.phase_s["build"],
              "sweep_s": bench.phase_s["sweep"], "attempted": bench.attempted,
              "failed": bench.failed, "failures": bench.failures[:20], "error": error,
              "fingerprint": bench.fingerprint()}
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import paulipatch from {SRC}: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup(args.seed, tracing.NullTracer())
        print("ready", flush=True)
        return 0

    env = environment(args)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    inputs = setup(args.seed, tracer)
    setup_times = [] if args.trace else measure_setup(args)

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    passes, traced = [], []
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            result = one_pass(workloads, run, inputs, tracing.NullTracer(), work_dir)
            passes.append(result)
            if args.trace and not result["failed"]:
                tracer.trace_id = f"pass{len(traced)}"
                with tracing.instrumented(tracer):
                    result = one_pass(workloads, run, inputs, tracer, work_dir)
                traced.append(result)
            if result["failed"] or time.perf_counter() >= deadline:
                break
        probe = None
        if args.trace and args.workload == "grid16-patch":
            tracer.trace_id = "probe"
            with tracing.instrumented(tracer):
                probe = workloads.mean_squares_probe(inputs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    every = passes + traced
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    fingerprints = sorted({p["fingerprint"] for p in every})
    attempted += 1  # one more check: the passes of one run agree
    failed += int(len(fingerprints) > 1)
    correct = failed == 0

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} traced_passes={len(traced)}")
    print("env " + json.dumps(env, sort_keys=True))
    print("fingerprint " + " ".join(fingerprints))
    for p in every:
        for failure in p["failures"]:
            print("FAILED " + failure)
        if p["error"]:
            print("ERROR " + p["error"].rstrip().replace("\n", "\n  "))

    if args.trace:
        per_pass = [tracing.layer_metrics(tracer, f"pass{i}") for i in range(len(traced))]
        metrics = {}
        for name, (_, unit) in (per_pass[0].items() if per_pass else ()):
            metrics[name] = {"value": statistics.median(m[name][0] for m in per_pass),
                             "unit": unit}
        if traced:
            overhead = (statistics.median(p["wall_s"] for p in traced)
                        - statistics.median(p["wall_s"] for p in passes))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        # the eff1norm-avg probe runs on grid16-patch only; elsewhere it reads 0 and 0
        probe_counts = probe or {"attempts": 0, "failed": 0}
        for key in ("attempts", "failed"):
            metrics[f"surrogate.mean_squares.{key}"] = {"value": probe_counts[key],
                                                        "unit": "count"}
        if probe is not None:
            print(f"probe eff1norm-avg: {probe['attempts']} attempt, {probe['failed']} "
                  f"failed, exception {probe['exception']}: {probe['message']}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "build_s": statistics.median(p["build_s"] for p in passes),
            "sweep_s": statistics.median(p["sweep_s"] for p in passes),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"fail_share {failed / max(attempted, 1):.6g} ratio "
          f"({failed} failed of {attempted} attempted)")

    OUT_DIR.mkdir(exist_ok=True)
    doc = {"env": env, "fingerprint": fingerprints, "passes": passes, "traced": traced,
           "setup_s_samples": setup_times, "metrics": metrics, "correct": correct,
           "attempted": attempted, "failed": failed}
    if args.trace:
        doc["probe"] = probe
        doc["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(doc, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
