#!/usr/bin/env python3
"""Repository benchmark: builds the worker from source, runs one workload,
checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload fig3_paper --seed 1 --seconds 20 --trace 0

Run it from the root of the repository. Every round runs in a fresh worker
process, so each round pays its own set-up and has its own heap. With
--trace 0 the rounds run with tracing off and the last line of standard
output is the end-to-end result; with --trace 1 the benchmark times two
untraced rounds, then runs one round with the metrics registry on and
reports the per-layer metrics. Both modes first run the library's own entry
point once on the same inputs and check every round's outputs against it.
The metric names and units come from BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKER = os.path.join("_build", "default", "perfbench", "worker.exe")
DEADLINE_S = 170.0  # the whole invocation, build included, ends before 180 s

# Wall times are reported at a reference machine speed: each round's times
# are multiplied by KERNEL_REF_S over the time of the worker's reference
# kernel just before and just after that round, run in as many concurrent
# processes as the workload uses domains (README, "Machine-speed
# reference"). KERNEL_REF_S is the kernel's typical time on the 2-vCPU box
# the benchmark was defined on.
KERNEL_REF_S = 0.05

# Timed rounds pin the pool to one domain. The sweep's traced runs use the
# default pool, sized by the machine's recommended domain count (None), so
# that the per-layer metrics show the pool engaging; on two shared vCPUs a
# two-domain sweep's wall times move too much with the neighbours' load to
# hold a bound (README, finding 2).
WORKLOADS = {
    "fig3_paper": {"domains": 1, "traced_domains": 1, "min_rounds": 3},
    "bursty_cross": {"domains": 1, "traced_domains": 1, "min_rounds": 5},
    "fig3_sweep": {"domains": 1, "traced_domains": None, "min_rounds": 3},
    "reno_crowd": {"domains": 1, "traced_domains": 1, "min_rounds": 3},
}


class BenchError(Exception):
    pass


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def remaining(started):
    return DEADLINE_S - (time.monotonic() - started)


def build(started):
    """Build the worker from the sources in this checkout."""
    for required in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(required):
            fail("no %s here: run from the root of a checkout of the repository" % required)
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/worker.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=dict(os.environ, DUNE_CACHE="disabled"),
            timeout=max(1.0, remaining(started)),
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.exists(WORKER):
        fail("build failed (dune exit code %d)" % proc.returncode)


def worker_env(domains):
    env = dict(os.environ)
    if domains is None:
        env.pop("UTC_DOMAINS", None)
    else:
        env["UTC_DOMAINS"] = str(domains)
    return env


def worker_command(workload, seed, mode):
    return [WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]


def run_worker(workload, seed, mode, domains, started):
    """One worker process, waited for (and killed if it overruns the
    deadline); returns its JSON record."""
    budget = remaining(started)
    if budget <= 1.0:
        raise BenchError("out of time before a %s run" % mode)
    try:
        proc = subprocess.run(
            worker_command(workload, seed, mode),
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            env=worker_env(domains),
            timeout=budget,
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s run overran the deadline" % mode)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker failed in %s mode (exit code %d)" % (mode, proc.returncode))
    return json.loads(lines[-1])


def kernel_s(workload, seed, domains, started):
    """Times of the reference kernel, run at once in one process per domain
    the workload uses; every process is waited for."""
    copies = domains or os.cpu_count() or 1
    procs = [
        subprocess.Popen(
            worker_command(workload, seed, "kernel"),
            stdout=subprocess.PIPE,
            env=worker_env(domains),
            text=True,
        )
        for _ in range(copies)
    ]
    outputs = []
    try:
        for proc in procs:
            outputs.append(proc.communicate(timeout=max(1.0, remaining(started)))[0])
    except subprocess.TimeoutExpired:
        for proc in procs:
            proc.kill()
            proc.wait()
        raise BenchError("the reference kernel overran the deadline")
    if any(proc.returncode != 0 for proc in procs):
        raise BenchError("the reference kernel failed")
    return [json.loads(out.strip().splitlines()[-1])["kernel_s"] for out in outputs]


def scale(record):
    """Factor that takes this round's wall times to the reference speed. With
    several domains the slowest kernel copy stands for the machine: a fork
    and join waits for its slowest domain."""
    return KERNEL_REF_S / statistics.mean(max(times) for times in record["kernel_s"])


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def end_to_end(rounds):
    samples = sorted(scale(r) * ms for r in rounds for ms in r["decide_ms"])
    if not samples:
        raise BenchError("no decisions were timed")
    values = {
        "setup_s": statistics.median(scale(r) * r["setup_s"] for r in rounds),
        "sim_s_per_wall_s": statistics.median(
            r["sim_s"] / (scale(r) * r["wall_s"]) for r in rounds
        ),
        "decide_ms_p50": percentile(samples, 50),
        "decide_ms_p90": percentile(samples, 90),
        "alloc_mwords": statistics.median(r["alloc_words"] for r in rounds) / 1e6,
        "peak_heap_mb": statistics.median(r["top_heap_words"] * r["word_bytes"] for r in rounds)
        / 1e6,
        "utility_bps": statistics.median(r["utility_bps"] for r in rounds),
    }
    return values, {"decide_samples": len(samples)}


def per_layer(rounds, traced):
    values = dict(traced["layers"])
    values["obs.trace_overhead_ratio"] = (scale(traced) * traced["wall_s"]) / statistics.median(
        scale(r) * r["wall_s"] for r in rounds
    )
    return values, {"fan_site_reasons": traced["reasons"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    build(started)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    domains = WORKLOADS[args.workload]["traced_domains" if args.trace else "domains"]

    attempted = failed = 0
    try:
        reference = run_worker(args.workload, args.seed, "reference", domains, started)["check"]

        def run_round(mode):
            nonlocal attempted, failed
            attempted += 1
            before = kernel_s(args.workload, args.seed, domains, started)
            record = run_worker(args.workload, args.seed, mode, domains, started)
            record["kernel_s"] = (before, kernel_s(args.workload, args.seed, domains, started))
            if record["check"] != reference:
                failed += 1
                print(
                    "perfbench: round %d outputs differ from the library's:\n%s\nexpected:\n%s"
                    % (attempted, record["check"], reference),
                    file=sys.stderr,
                )
            return record

        if args.trace:
            rounds = [run_round("round") for _ in range(2)]
            traced = run_round("traced")
            values, info = per_layer(rounds, traced)
            rounds.append(traced)
        else:
            rounds = []
            timed_start = time.monotonic()
            min_rounds = WORKLOADS[args.workload]["min_rounds"]
            while len(rounds) < min_rounds or time.monotonic() - timed_start < args.seconds:
                rounds.append(run_round("round"))
            values, info = end_to_end(rounds)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    except (BenchError, KeyError, ValueError) as e:
        print("perfbench: %r" % e, file=sys.stderr)
        sys.exit(1)

    last = rounds[-1]
    info.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "rounds": len(rounds),
            "round_wall_s": [r["wall_s"] for r in rounds],
            "round_scale": [scale(r) for r in rounds],
            "environment": {
                "nproc": os.cpu_count(),
                "recommended_domains": last["recommended_domains"],
                "pool_domains": last["pool_domains"],
                "ocaml": last["ocaml"],
                "UTC_DOMAINS": worker_env(domains).get("UTC_DOMAINS"),
                "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM"),
                "gc_words": "exact: read after every worker domain has been joined",
            },
        }
    )
    print(json.dumps(info))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


if __name__ == "__main__":
    main()
