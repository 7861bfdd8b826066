#!/usr/bin/env python3
"""Interleaved A/B of perfbench/run.py between a base ref and a change.

    python3 scripts/ab.py HEAD~1 --workloads serve_mix --seeds 3 --pairs 10

Run from the root of a checkout. Each side is exported into a fresh
directory under --workdir: the base from `git archive <base-ref>`, the change
from `git archive <change-ref>` or, by default, from the working tree (the
tracked and the untracked, not ignored, files). perfbench/run.py builds each
side's own .bench_build there on its first run, before any timed probe, so no
run reuses a build tree of another commit.

For every workload and seed it runs --pairs pairs of perfbench/run.py, one
run per side, alternating which side goes first. It prints every run, and per
metric the medians, the quartiles, the base's interquartile range, the
change's median difference and the pairs the change won (lower wins, or
higher for the metrics BENCHMARK.json marks "better": "higher"). --trace 1
compares the per-layer metrics instead of the end-to-end ones.

Exits 1 when any run reports "correct": false or fails, 0 otherwise.
"""
import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def export_ref(repo, ref, dest):
    """Writes the tree of `ref` into dest."""
    data = git("archive", "--format=tar", ref, cwd=repo)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def export_worktree(repo, dest, skip):
    """Copies the working tree's tracked and untracked, not ignored, files,
    leaving out everything under `skip` (the exports themselves)."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=repo)
    for name in names.decode().split("\0"):
        src = os.path.join(repo, name)
        # Deleted files are still in the index; the exports may sit in the tree.
        if not name or not os.path.isfile(src) or os.path.abspath(src).startswith(skip + os.sep):
            continue
        os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, name))


def run_once(side_dir, workload, seed, seconds, trace):
    """One perfbench/run.py run; returns its result object."""
    # run.py builds in $CARGO_TARGET_DIR when set; each side keeps its own tree.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=side_dir, env=env, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "failed": -1, "metrics": {}}
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload, seed, metrics_spec, runs, wanted):
    print(f"\n== {workload} seed {seed}: {len(runs)} pairs (base | change)")
    for spec in metrics_spec:
        name = spec["name"]
        if wanted and name not in wanted:
            continue
        base = [r["base"]["metrics"].get(name, {}).get("value") for r in runs]
        change = [r["change"]["metrics"].get(name, {}).get("value") for r in runs]
        if None in base or None in change:
            continue
        higher = spec.get("better", "lower") == "higher"
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        rel = (cmed - bmed) / bmed * 100.0 if bmed else 0.0
        print(f"{name} [{spec['unit']}]")
        print("  base:   " + " ".join(f"{v:.4g}" for v in base))
        print("  change: " + " ".join(f"{v:.4g}" for v in change))
        print(f"  median {bmed:.4g} ({bq1:.4g}-{bq3:.4g}) -> {cmed:.4g} ({cq1:.4g}-{cq3:.4g}), "
              f"{rel:+.1f}%, |difference| {abs(cmed - bmed):.4g} vs base IQR {bq3 - bq1:.4g}, "
              f"change better in {wins}/{len(runs)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base_ref")
    ap.add_argument("--change-ref", help="a ref for the change side (default: the working tree)")
    ap.add_argument("--workloads", default="tfim_dm,tfim_hw,toffoli_dm,serve_mix")
    ap.add_argument("--seeds", default="3")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--metrics", default="", help="comma-separated metric names to report "
                    "(default: every end-to-end, or with --trace 1 every per-layer, metric)")
    ap.add_argument("--workdir", default=".ab", help="where both sides are exported "
                    "(emptied first)")
    args = ap.parse_args()

    repo = os.getcwd()
    if not os.path.isfile(os.path.join(repo, "BENCHMARK.json")):
        sys.exit("ab.py: run from the root of a checkout")
    workdir = os.path.abspath(args.workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    sides = {"base": os.path.join(workdir, "base"), "change": os.path.join(workdir, "change")}
    for side_dir in sides.values():
        os.makedirs(side_dir)
    export_ref(repo, args.base_ref, sides["base"])
    if args.change_ref:
        export_ref(repo, args.change_ref, sides["change"])
    else:
        export_worktree(repo, sides["change"], workdir)
    spec = json.load(open(os.path.join(sides["base"], "BENCHMARK.json")))
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    wanted = set(filter(None, args.metrics.split(",")))
    all_ok = True
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            runs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {}
                for side in order:
                    pair[side] = run_once(sides[side], workload, seed, args.seconds, args.trace)
                    ok = pair[side]["correct"] and pair[side]["failed"] == 0
                    all_ok = all_ok and ok
                    m = pair[side]["metrics"]
                    shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in m.items()
                                      if not wanted or k in wanted)
                    print(f"{workload} seed {seed} pair {i + 1} {side:6s} correct={ok} {shown}",
                          flush=True)
                runs.append(pair)
            report(workload, seed, metrics_spec, runs, wanted)
    if not all_ok:
        print("\nab.py: some run was not correct", file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
