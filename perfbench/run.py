#!/usr/bin/env python3
"""qapprox end-to-end benchmark: one run of one workload.

    python3 perfbench/run.py --workload tfim_dm --seed 3 --seconds 20 --trace 0

Run from the root of a checkout. Builds the library and the benchmark binary
(perfbench/src) from source into .bench_build/ (or $CARGO_TARGET_DIR), runs
the workload in .bench_run/<workload>-seed<seed>-trace<t>/, and prints, as
the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (plus trace.json in the run directory, loadable in
Perfetto). A human-readable table of the same metrics goes to stderr.
perfbench/README.md describes the workloads and every metric.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SETUP_PROBES = 29         # extra set-up-only launches per run (median taken)
RUN_DEADLINE_S = 170.0    # whole run, build excluded
BATCH = ("tfim_dm", "tfim_hw", "toffoli_dm")
# Per-layer metrics of layers a workload does not drive read 0 there.
NOT_DRIVEN = {
    "batch": ("serve.", "loadgen.", "synth.cache.entries", "wall.goodput_per_s"),
    "serve_mix": ("approx.", "trace.", "scaling.", "check.", "wall.figure_s"),
}


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def num_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir, jobs):
    """Configures (first time) and builds the benchmark binary; output to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "qapprox_e2e",
                    "-j", str(jobs)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "qapprox_e2e")


def launch(cmd, env, cwd, deadline):
    """Runs the benchmark binary; returns (wall seconds from spawn to its ready
    line, CPU seconds the binary used to reach it, parsed result line or None).
    Kills and reaps it at `deadline`."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(max(0.0, deadline - start), proc.kill)
    killer.start()
    ready_s, ready_cpu_s, result = None, None, None
    try:
        for line in proc.stdout:
            if ready_s is None and line.startswith('{"ready"'):
                ready_s = time.monotonic() - start
                ready_cpu_s = json.loads(line)["cpu_s"]
            elif line.startswith("{"):
                result = json.loads(line)
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        die(f"{' '.join(cmd)} exited with {proc.returncode}", 1)
    if ready_s is None:
        die(f"{' '.join(cmd)} never reported set-up done", 1)
    return ready_s, ready_cpu_s, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found; run from the root of a checkout")
    spec = json.load(open(spec_path))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("the qapprox sources (CMakeLists.txt, src/) are not in this "
            "directory; nothing to build")

    cpus = num_cpus()
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir, cpus)

    run_dir = os.path.join(ROOT, ".bench_run",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # Only the pinned thread count reaches the program: no inherited
    # QAPPROX_* knob (faults, deadlines, caches, exports) changes the run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("QAPPROX_")}
    env["QAPPROX_THREADS"] = str(cpus)
    env["QAPPROX_LOG"] = "error"
    reference = os.path.join(HERE, "reference.json")

    def bench_cmd(*extra):
        return [binary, "--workload", args.workload, "--seed", str(args.seed),
                "--reference", reference, *extra]

    deadline = time.monotonic() + RUN_DEADLINE_S
    # Set-up time is the CPU time to the ready line; the wall time to it
    # also holds whatever the host's other tenants take meanwhile.
    setup = [launch(bench_cmd("--setup-only"), env, run_dir, deadline)[:2]
             for _ in range(SETUP_PROBES)]
    traced = ["--trace"] if args.trace else []
    ready_s, ready_cpu_s, result = launch(
        bench_cmd("--seconds", str(args.seconds), *traced), env, run_dir, deadline)
    setup.append((ready_s, ready_cpu_s))
    if result is None:
        die("the benchmark binary printed no result", 1)
    metrics = dict(result["metrics"])
    notes = result["failures"] + result["notes"]

    if args.trace:
        wanted = spec["per_layer"]
        not_driven = NOT_DRIVEN["batch" if args.workload in BATCH else args.workload]
        if args.workload in BATCH and cpus > 1:
            # Thread scaling: one traced figure at 1 thread against the
            # N-thread traced figures above.
            _, _, one = launch(bench_cmd("--repeats", "1", "--trace"),
                            dict(env, QAPPROX_THREADS="1"), run_dir, deadline)
            if one is None:
                die("the 1-thread run printed no result", 1)
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            notes += one["failures"]
            m1 = one["metrics"]
            metrics["scaling.threads1.figure_s"] = m1["trace.figure_s"]
            for layer, key in (("figure", "trace.figure_s"), ("harvest", "approx.harvest_s"),
                               ("execute", "approx.execute_s")):
                n = metrics[key]["value"]
                metrics[f"scaling.speedup.{layer}"] = {
                    "value": m1[key]["value"] / n if n > 0 else 0.0, "unit": "x"}
        elif args.workload in BATCH:
            notes.append("thread scaling not measured: 1 CPU")
            not_driven += ("scaling.",)
        metrics["failed_frac"] = {"value": result["failed"] / max(1, result["attempted"]),
                                  "unit": "ratio"}
        metrics["wall.setup_s"] = {"value": statistics.median(w for w, _ in setup),
                                   "unit": "s"}
    else:
        wanted = spec["end_to_end"]
        metrics["setup_s"] = {"value": statistics.median(c for _, c in setup), "unit": "s"}
        not_driven = ()

    out = {}
    for m in wanted:
        name = m["name"]
        if name in metrics:
            out[name] = {"value": metrics[name]["value"], "unit": m["unit"]}
        elif name.startswith(not_driven):
            out[name] = {"value": 0.0, "unit": m["unit"]}
        else:
            die(f"the benchmark binary did not report {name}", 1)

    print(f"{args.workload} seed {args.seed} on {cpus} CPUs: "
          f"{result['attempted']} operations, {result['failed']} failed", file=sys.stderr)
    for name, v in out.items():
        print(f"  {name:36s} {v['value']:16.6g} {v['unit']}", file=sys.stderr)
    for line in notes:
        print(f"  note: {line}", file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": max(1, result["attempted"]),
                      "failed": result["failed"],
                      "metrics": out}))


if __name__ == "__main__":
    main()
