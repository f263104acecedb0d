#!/usr/bin/env python3
"""End-to-end training benchmark of the SAPS-PSGD simulator.

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Builds perfbench/ (CMake, Release, into .bench_build/) on first use, then
runs the workload's spec in fresh child processes for --seconds seconds:

  --trace 0  end-to-end metrics.  Every repetition is a whole training run,
             set-up included, through scenario::Runner::run with tracing
             off; timings are medians over the repetitions.
  --trace 1  per-layer metrics.  Each repetition pairs an untraced run with
             a traced composition of the same run; the traced run must
             reproduce the untraced outputs bit for bit before any of its
             spans are reported.  Both runs use the workload's
             TRACE_THREADS engine threads.  Its spans are written as Chrome
             trace-event JSON (open in Perfetto) next to a per-layer summary
             in .bench_out/.

--workload all interleaves every workload within each repetition, so a slow
spell on a shared host lands on all of them.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; metric names and units come from BENCHMARK.json.  Exits 1 without
that line when the benchmark cannot be built or set up.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perfbench"
CHILD_TIMEOUT_S = 60
MIN_REPS = 3

# Test accuracy each workload's time_to_target_s waits for.  Each sits
# between the accuracies of two consecutive evaluation points, with a margin
# over the 12 (topk) to 48 (fedavg) training seeds checked, so every seed
# crosses it at the same point, after the first evaluation and before the
# last (checked on every run).
TARGETS = {
    "saps-cnn32": 0.86,  # epoch 2 of 4: 0.76-0.84, epoch 3: 0.885-0.955
    "topk-mlp16": 0.75,  # epoch 1 of 3: 0.58-0.66, epoch 2: 0.83-0.88
    "fedavg-pop": 0.4,   # round 1 of 9: 0.12-0.28, round 2: 0.49-0.58
}

# Engine threads of the --trace 1 runs.  The end-to-end runs are serial:
# on a 2-thread pool their wall times spread 17-27% between runs on a shared
# 4-vCPU host.  Per-layer metrics carry no bound, so the traced breakdown
# runs the engine pool where the workload uses it (SAPS local steps and
# pair exchange, FedAvg cohort steps and server mean), and
# sim.local_step_idle_frac there is the pool's idle share.  Outputs are
# bit-identical for every thread count.
TRACE_THREADS = {"saps-cnn32": 2, "topk-mlp16": 0, "fedavg-pop": 2}

# Outputs that are a pure function of the seed; every run of one seed must
# agree on them exactly.
DETERMINISTIC = ("final_accuracy", "traffic_mb", "sim_comm_s")
# Outputs the traced composition must reproduce bit for bit.
FAITHFUL = ("final_accuracy", "final_loss", "traffic_mb", "sim_comm_s",
            "samples")

# Loop phases: the spans the traced compositions open directly under the
# loop span (perfbench/src/compose.cpp).
PHASES = ("core.plan", "core.control", "sim.cohort", "sim.local_step",
          "compress.select", "net.encode", "sim.exchange", "net.decode",
          "algos.merge", "sim.eval")
SETUP_SPANS = ("scenario.spec", "data.workload_build", "sim.engine_build")


# --- arithmetic (self-tested in perfbench/tests) ---------------------------

def time_to_target(points, target):
    """(seconds, index) of the first evaluation point whose accuracy is at
    least `target`; points are [seconds since set-up ended, round,
    accuracy].  None when no point reaches it."""
    for index, (seconds, _round, accuracy) in enumerate(points):
        if accuracy >= target:
            return seconds, index
    return None


def samples_per_s(samples, loop_s):
    """Training throughput over the whole loop, evaluations included."""
    return samples / loop_s


def run_failure(out, target):
    """Why one untraced run failed, or None."""
    hit = time_to_target(out["points"], target)
    if hit is None:
        return f"never reached accuracy {target}"
    if not 0 < hit[1] < len(out["points"]) - 1:
        return (f"crossed accuracy {target} at evaluation {hit[1]} of "
                f"{len(out['points'])}, not strictly inside the run")
    return None


def split_by_outputs(outs):
    """Partitions runs of one seed into those agreeing with the most common
    deterministic outputs and those that differ."""
    key = lambda o: tuple(o[k] for k in DETERMINISTIC)
    if not outs:
        return [], []
    reference = collections.Counter(map(key, outs)).most_common(1)[0][0]
    return ([o for o in outs if key(o) == reference],
            [o for o in outs if key(o) != reference])


def end_to_end(runs, target):
    """End-to-end metric values from agreeing untraced runs: medians of the
    timings, outputs from the first run."""
    first = runs[0]
    return {
        "time_to_target_s": statistics.median(
            time_to_target(o["points"], target)[0] for o in runs),
        "samples_per_s": statistics.median(
            samples_per_s(o["samples"], o["loop_s"]) for o in runs),
        "setup_s": statistics.median(o["setup_s"] for o in runs),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in runs),
        "final_accuracy": first["final_accuracy"],
        "traffic_mb": first["traffic_mb"],
        "sim_comm_s": first["sim_comm_s"],
    }


def phase_breakdown(events, threads):
    """Per-phase busy seconds and loop shares, coverage and local-step idle
    share from Chrome trace events ("X" events; wall microseconds)."""
    spans = [e for e in events if e.get("ph") == "X"]
    loops = [e for e in spans if e["name"] == "algos.loop"]
    if len(loops) != 1:
        raise ValueError(f"expected one algos.loop span, found {len(loops)}")
    loop = loops[0]
    loop_s = loop["dur"] / 1e6
    phases = [e for e in spans if e["args"]["parent"] == loop["args"]["id"]]
    unknown = {e["name"] for e in phases} - set(PHASES)
    if unknown:
        raise ValueError(f"unknown loop phases {sorted(unknown)}")
    out = {}
    for name in PHASES:
        busy = sum(e["dur"] for e in phases if e["name"] == name) / 1e6
        out[f"{name}_s"] = busy
        out[f"{name}_share"] = busy / loop_s
    covered = 0.0
    end = float("-inf")
    for e in sorted(phases, key=lambda e: e["ts"]):
        start, stop = max(e["ts"], end), e["ts"] + e["dur"]
        if stop > start:
            covered += stop - start
        end = max(end, stop)
    out["trace.coverage"] = covered / 1e6 / loop_s
    out["algos.other_s"] = loop_s - covered / 1e6
    sections = {e["args"]["id"]: e["dur"] for e in phases
                if e["name"] == "sim.local_step"}
    busy = sum(e["dur"] for e in spans if e["args"]["parent"] in sections)
    wall = sum(sections.values())
    out["sim.local_step_idle_frac"] = (
        1.0 - busy / (max(1, threads) * wall) if wall > 0 else 0.0)
    for name in SETUP_SPANS:
        out[f"{name}_s"] = sum(e["dur"] for e in spans
                               if e["name"] == name) / 1e6
    out["trace.loop_s"] = loop_s
    return out


def per_layer(events, traced, untraced_loop_s):
    """Every per-layer metric of one traced run."""
    out = phase_breakdown(events, traced["threads"])
    out.update(traced["counters"])
    out["sim.rss_after_setup_mb"] = traced["rss_after_setup_mb"]
    out["trace.overhead"] = out.pop("trace.loop_s") / untraced_loop_s - 1.0
    return out


def diverged(traced, untraced):
    """Names of the outputs the traced run failed to reproduce exactly."""
    return [k for k in FAITHFUL if traced[k] != untraced[k]]


def with_units(values, declared):
    """{name: {"value", "unit"}} for exactly the declared metrics."""
    if set(values) != set(declared):
        raise ValueError("metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(declared) - set(values))}, "
                         f"extra {sorted(set(values) - set(declared))}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()}


# --- processes -------------------------------------------------------------

def build():
    BUILD_DIR.mkdir(exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    log = BUILD_DIR / "build.log"
    tmp = BUILD_DIR / "tmp"  # keeps compiler temporaries in the checkout
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write("perfbench: build failed\n")
                raise SystemExit(1)


def child(mode, workload, seed, threads, *extra):
    """Runs one perfbench child; returns (parsed last line, error)."""
    cmd = [str(BINARY), mode, "--spec",
           str(HERE / "workloads" / f"{workload}.spec"), "--seed", str(seed),
           "--threads", str(threads), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-400:] or f"exit {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unparseable child output"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(out):
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "compiler": out["compiler"], "build_type": out["build_type"],
            "git_commit": git_commit(), "engine_threads": out["threads"],
            "data_seed": out["data_seed"], "spec_text": out["spec_text"]}


class Tally:
    """Runs attempted and failed for one workload, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.errors = []

    def record(self, error):
        self.attempted += 1
        if error:
            self.errors.append(error)


# --- modes -----------------------------------------------------------------

def repetitions(seconds, minimum):
    """Yields repetition indices for about `seconds` of wall time: at least
    `minimum`, and no new repetition once it would end more than half of a
    typical repetition past the budget."""
    start = time.monotonic()
    durations = []
    while True:
        began = time.monotonic()
        yield len(durations)
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if (len(durations) >= minimum and
                elapsed + statistics.median(durations) / 2 >= seconds):
            return


def measure_end_to_end(workloads, seed, seconds):
    runs = {w: [] for w in workloads}
    tallies = {w: Tally() for w in workloads}
    for _ in repetitions(seconds, MIN_REPS):
        for w in workloads:
            out, error = child("run", w, seed, 0)
            if out and not error:
                error = run_failure(out, TARGETS[w])
            tallies[w].record(error)
            if out and not error:
                runs[w].append(out)
    results = {}
    for w in workloads:
        agreeing, differing = split_by_outputs(runs[w])
        for _ in differing:
            tallies[w].errors.append("deterministic outputs differ")
        values = end_to_end(agreeing, TARGETS[w]) if agreeing else None
        results[w] = (values, tallies[w], agreeing)
    return results


def measure_per_layer(workloads, seed, seconds):
    OUT_DIR.mkdir(exist_ok=True)
    layers = {w: [] for w in workloads}
    tallies = {w: Tally() for w in workloads}
    last = {}
    for _ in repetitions(seconds, 1):
        for w in workloads:
            trace_path = OUT_DIR / f"{w}-seed{seed}.trace.json"
            untraced, error = child("run", w, seed, TRACE_THREADS[w])
            if untraced:
                error = run_failure(untraced, TARGETS[w])
            traced = None
            if untraced and not error:
                traced, error = child("trace", w, seed, TRACE_THREADS[w],
                                      "--trace-out", str(trace_path))
            if traced:
                bad = diverged(traced, untraced)
                if bad:
                    error = "traced run diverged on " + ", ".join(bad)
            tallies[w].record(error)
            if error:
                continue
            events = json.loads(trace_path.read_text())["traceEvents"]
            layers[w].append(per_layer(events, traced, untraced["loop_s"]))
            last[w] = traced
    results = {}
    for w in workloads:
        values = None
        if layers[w] and not tallies[w].errors:
            values = {name: statistics.median(l[name] for l in layers[w])
                      for name in layers[w][0]}
        results[w] = (values, tallies[w], [last[w]] if w in last else [])
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TARGETS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    build()

    workloads = sorted(TARGETS) if args.workload == "all" else [args.workload]
    measure = measure_per_layer if args.trace else measure_end_to_end
    results = measure(workloads, args.seed, args.seconds)

    OUT_DIR.mkdir(exist_ok=True)
    metrics = {}
    attempted = failed = 0
    for w, (values, tally, outs) in results.items():
        attempted += tally.attempted
        failed += len(tally.errors)
        print(f"{w}: {tally.attempted} runs attempted, "
              f"{len(tally.errors)} failed (seed {args.seed}, "
              f"target accuracy {TARGETS[w]})")
        for error in sorted(set(tally.errors)):
            print(f"  failed: {error}")
        report = {"workload": w, "seed": args.seed, "trace": args.trace,
                  "attempted": tally.attempted, "errors": tally.errors,
                  "runs": outs}
        if outs:
            report["provenance"] = provenance(outs[0])
            print("  " + " ".join(f"{k}={v}" for k, v in
                                  report["provenance"].items()
                                  if k != "spec_text"))
        if values is not None:
            for name, unit in declared.items():
                print(f"  {name:<28} {values[name]:>14.6g} {unit}")
            named = with_units(values, declared)
            report["metrics"] = named
            if args.workload == "all":
                named = {f"{w}.{k}": v for k, v in named.items()}
            metrics.update(named)
        suffix = "layers" if args.trace else "e2e"
        (OUT_DIR / f"{w}-seed{args.seed}.{suffix}.json").write_text(
            json.dumps(report, indent=1) + "\n")
    correct = failed == 0 and len(metrics) == len(declared) * len(workloads)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
