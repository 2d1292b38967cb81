#!/usr/bin/env python3
"""Two-clock benchmark of the MyRaft reproduction.

Builds perfbench/ (which compiles the repository's src/ from source) and
runs one workload, then prints one JSON line as the last line of stdout:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload ring_sysbench --seed 1 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer metrics, from an untraced run plus a separate SIGPROF-sampled run
whose samples are attributed offline to src/<module>/ with addr2line -i.
The build directory is $CARGO_TARGET_DIR/perfbench (default .bench_build).
A failed correctness gate prints "correct": false without metrics and
exits 1. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ring_sysbench", "fleet_quiet", "failover_reads")

# Layers the sampler attributes CPU to: the innermost src/<module>/ frame
# on the stack, with util/ split by file. "bench" is the driver's own code
# (perfbench/) when it is the innermost frame of this repository; its
# counting allocator (host.cc) is skipped, so an allocation is charged to
# the code that asked for it. "libc" is a stack with no frame of this
# repository at all.
UTIL_SPLIT = ("crc32c", "compression", "coding", "trace")
MODULES = ("sim", "proxy", "raft", "server", "binlog", "wire", "storage",
           "flexiraft", "fleet", "obs", "plugin")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no src/ tree next to perfbench/; nothing to build")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_driver")


def run_driver(binary, workload, seed, seconds, setups=3, profile_out=None):
    """Runs one workload; returns the driver's JSON report."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--setups", str(setups)]
    if profile_out:
        cmd += ["--profile-out", profile_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"driver exited {proc.returncode} without a report")
    report = json.loads(lines[-1])
    if proc.returncode != 0 and report.get("correct", False):
        raise RuntimeError(f"driver exited {proc.returncode}")
    return report


# --- Offline attribution of the traced run -------------------------------------

def resolve(binary, addresses):
    """Maps each file address to its inline chain of source paths,
    innermost first (addr2line -i)."""
    if not addresses:
        return {}
    text = "\n".join(f"{a:x}" for a in addresses) + "\n"
    out = subprocess.run(["addr2line", "-e", binary, "-a", "-i", "-f", "-C"],
                         input=text, stdout=subprocess.PIPE, text=True,
                         check=True).stdout.splitlines()
    chains, current, i = {}, None, 0
    while i < len(out):
        line = out[i]
        if re.fullmatch(r"0x[0-9a-f]+", line):
            current = int(line, 16)
            chains[current] = []
            i += 1
            continue
        # A frame is two lines: function, then file:line.
        if current is not None and i + 1 < len(out):
            chains[current].append(out[i + 1].rsplit(":", 1)[0])
        i += 2
    return chains


def module_of(path, src_prefixes, bench_prefixes):
    for prefix in src_prefixes:
        if path.startswith(prefix):
            parts = path[len(prefix):].split("/")
            if len(parts) < 2:
                return None
            module = parts[0]
            if module == "util":
                stem = parts[1].split(".")[0]
                return "util." + (stem if stem in UTIL_SPLIT else "other")
            return module
    for prefix in bench_prefixes:
        if path.startswith(prefix):
            return None if path[len(prefix):].startswith("host.") else "bench"
    return None


def attribute(binary, samples_path):
    """Returns {layer: sample count} for the traced run's samples."""
    with open(samples_path) as f:
        bias = int(f.readline().split()[1], 16)
        stacks = [[int(x, 16) for x in line.split()] for line in f if line.strip()]
    # Return addresses point after the call; step back into it.
    frames = [[pc - bias if d == 0 else pc - 1 - bias
               for d, pc in enumerate(stack)] for stack in stacks]
    chains = resolve(binary, sorted({a for stack in frames for a in stack}))
    roots = {os.path.abspath(ROOT), os.path.realpath(ROOT)}
    src_prefixes = [os.path.join(r, "src") + "/" for r in roots]
    bench_prefixes = [os.path.join(r, "perfbench") + "/" for r in roots]
    counts = {}
    for stack in frames:
        layer = next((module for address in stack
                      for path in chains.get(address, [])
                      if (module := module_of(path, src_prefixes,
                                              bench_prefixes)) is not None),
                     "libc")
        counts[layer] = counts.get(layer, 0) + 1
    return counts


# --- Metrics -------------------------------------------------------------------

def end_to_end(report):
    values = dict(report["exact"])
    values.update(report["host"])
    return values


def per_layer(binary, workload, seed, seconds):
    untraced = run_driver(binary, workload, seed, seconds, setups=1)
    if not untraced["correct"]:
        return untraced, {}
    samples_path = os.path.join(build_dir(), f"samples-{workload}-{seed}.txt")
    traced = run_driver(binary, workload, seed, seconds, setups=1,
                        profile_out=samples_path)
    if not traced["correct"]:
        return traced, {}
    counts = attribute(binary, samples_path)
    os.remove(samples_path)
    total = sum(counts.values()) or 1
    ops = max(1.0, traced["samples"]["window_ops"])
    window_us = traced["host"]["window_cpu_s"] * 1e6
    values = dict(traced["exact"])
    values["fleet.rss_kb_per_ring"] = traced["host"]["fleet.rss_kb_per_ring"]
    layers = list(MODULES) + ["util." + s for s in UTIL_SPLIT] + \
        ["util.other", "libc", "bench"]
    for layer in layers:
        values[layer + ".self_us_per_op"] = \
            counts.get(layer, 0) / total * window_us / ops
    for layer in sorted(counts):
        if layer not in layers:
            log(f"unattributed src module in samples: {layer}")
    values["profile.samples"] = traced["samples"]["profile_samples"]
    values["profile.overhead_us_per_op"] = (
        traced["host"]["host_us_per_op"] - untraced["host"]["host_us_per_op"])
    log("traced-run CPU share by layer: " + ", ".join(
        f"{k} {v / total:.1%}" for k, v in
        sorted(counts.items(), key=lambda kv: -kv[1])))
    return traced, values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    if args.trace:
        report, values = per_layer(binary, args.workload, args.seed,
                                   args.seconds)
        wanted = spec["per_layer"]
    else:
        report = run_driver(binary, args.workload, args.seed, args.seconds)
        values = end_to_end(report)
        wanted = spec["end_to_end"]

    result = {"correct": bool(report["correct"]),
              "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": {}}
    if not report["correct"]:
        log("correctness gate failed: " + report["gate"])
        print(json.dumps(result))
        return 1
    samples = report["samples"]
    log("samples: " + ", ".join(f"{k}={v:g}" for k, v in sorted(samples.items())))
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            raise RuntimeError(f"driver did not report {name}")
        result["metrics"][name] = {"value": values[name], "unit": metric["unit"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.CalledProcessError,
            json.JSONDecodeError, KeyError) as error:
        log(f"perfbench: {error}")
        sys.exit(2)
