#!/usr/bin/env python3
"""Runs one KSpot benchmark workload and prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload snapshot_steady --seed 7 --seconds 30 --trace 0

`--workload all` runs every workload in turn.

The script builds perfbench/ (which pulls in the repository's library
through its own CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset. It then runs the workload
in a fresh process. With --trace 1 it first makes an untraced run and then a
traced one. It checks that both simulated the same outcome and reports the
per-layer metrics together with the tracing overhead.

Every line before the last is for people. The last line is one JSON object
with the keys correct, attempted, failed and metrics. The workloads and the
metric names and units come from BENCHMARK.json at the repository root;
perfbench/README.md describes them.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
# Every benchmark process of one invocation must end within this budget.
RUN_BUDGET_S = 170


def load_spec():
    """Workloads and metric units, from BENCHMARK.json at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return workloads, e2e, layers


def log(message):
    print(message, flush=True)


def run_process(cmd, timeout, cwd=ROOT):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then builds incrementally; returns the binary path."""
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", bdir, "--target", "kspot_perfbench", "-j", jobs])
    for cmd in steps:
        code, out = run_process(cmd, BUILD_TIMEOUT_S)
        with open(os.path.join(bdir, "build.log"), "a") as f:
            f.write(out)
        if code != 0:
            sys.stderr.write(out[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "kspot_perfbench")


def host_facts(binary_host):
    """Facts that say which machine and which code a result belongs to."""
    facts = dict(binary_host)
    code, out = 1, ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            code, out = run_process(["git", "rev-parse", "HEAD"], 30)
        except (OSError, RuntimeError):
            code = 1
    facts["commit"] = out.strip() if code == 0 else "unknown"
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for dirpath, _, names in os.walk(os.path.join(ROOT, "src")):
        files.extend(os.path.join(dirpath, n) for n in names)
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    facts["source_sha256"] = digest.hexdigest()[:16]
    return facts


def run_process_json(binary, workload, args, seconds, trace, deadline, trace_out=None):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    code, out = run_process(cmd, max(1, int(deadline - time.monotonic())))
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out[-4000:])
        raise RuntimeError("benchmark process exited with code %d" % code)
    return json.loads(lines[-1])


def run_workload(binary, workload, args, e2e_units, layer_units, results_dir):
    """Runs one workload, prints its report, returns its result object."""
    stem = "%s-seed%d-trace%d" % (workload, args.seed, args.trace)
    # A traced invocation makes an untraced and a traced run, each for half
    # the time, so it takes about as long as an untraced one.
    seconds = args.seconds / 2 if args.trace else args.seconds
    deadline = time.monotonic() + RUN_BUDGET_S
    plain = run_process_json(binary, workload, args, seconds, False, deadline)
    runs = [plain]
    traced = None
    if args.trace:
        trace_path = os.path.join(results_dir, stem + ".trace.json")
        traced = run_process_json(binary, workload, args, seconds, True, deadline,
                                  trace_out=trace_path)
        runs.append(traced)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    if traced is not None:
        # Tracing must not change a single simulated bit.
        attempted += 1
        if traced["sim"] != plain["sim"]:
            failed += 1
            errors.append("traced run simulated a different outcome: %s vs %s"
                          % (traced["sim"], plain["sim"]))

    host = host_facts(plain["host"])
    log("host: " + json.dumps(host, sort_keys=True))
    log("workload %s seed %d: %d rounds of %d epochs, %d steady epoch samples"
        % (workload, args.seed, plain["rounds"], plain["epochs_per_round"],
           plain["epoch_samples"]))
    log("error_ratio %.6g (%d of %d operations failed)"
        % (failed / max(attempted, 1), failed, attempted))
    for e in errors:
        log("error: " + e)
    log("host gauge: median pass %.1f us over %d passes; end-to-end times below are at"
        " the reference speed (%s in plain host time)"
        % (plain["gauge_us_p50"], plain["gauge_samples"],
           ", ".join("%s %.6g" % kv for kv in plain["host_time"].items())))
    for name, unit in e2e_units.items():
        log("  %-32s %16.6g %s" % (name, plain["metrics"][name], unit))

    if traced is None:
        metrics = {n: {"value": plain["metrics"][n], "unit": u} for n, u in e2e_units.items()}
    else:
        layers = dict(traced["per_layer"])
        # Share of untraced throughput the traced run lost (negative = noise).
        traced_rate = traced["metrics"]["epochs_per_s"]
        layers["trace.overhead"] = (plain["metrics"]["epochs_per_s"] / traced_rate - 1.0
                                    if traced_rate > 0 else 0.0)
        log("traced run: %d spans written to %s" % (layers.pop("trace.spans"), trace_path))
        log("layer replay sent %.6g times the coordinator's messages"
            % layers.pop("replay.msgs_ratio"))
        for name, unit in layer_units.items():
            log("  %-32s %16.6g %s" % (name, layers[name], unit))
        metrics = {n: {"value": layers[n], "unit": u} for n, u in layer_units.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump({"host": host, "errors": errors, "runs": runs, "result": result}, f,
                  indent=1, sort_keys=True)
    return result


def main():
    workloads, e2e_units, layer_units = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    results_dir = os.path.join(bdir, "results")
    os.makedirs(results_dir, exist_ok=True)

    if args.workload != "all":
        result = run_workload(binary, args.workload, args, e2e_units, layer_units,
                              results_dir)
    else:
        # Every workload in turn, each in its own process; metric names in
        # the combined result carry the workload as a prefix.
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads:
            one = run_workload(binary, workload, args, e2e_units, layer_units, results_dir)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for name, metric in one["metrics"].items():
                result["metrics"][workload + "." + name] = metric
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        sys.exit(1)
