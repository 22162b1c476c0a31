#!/usr/bin/env python3
"""The TReX benchmark: three closed-loop workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 trexbench/run.py --workload era_base --seed 7 --seconds 15 --trace 0

Builds the driver (trexbench/, linked against ../src) into .bench_build/ on
first use, runs one workload in its own process and prints one line per
metric, then as the last line a JSON object with `correct`, `attempted`,
`failed` and `metrics`. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` the per-layer ones, from a traced run (spans
around the driver's calls into each module, work counters, the sampling
profiler) plus a run with the library's instrumentation disabled. See
trexbench/README.md for the workloads and what each metric means.
"""

import argparse
import bisect
import collections
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "trexbench")
BINARY = os.path.join(BUILD_DIR, "trexbench")
# Compiler and driver temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)
ENV.pop("TREX_OBS_DISABLED", None)
RUN_TIMEOUT_S = 170

# Library archives by module; `common` is transparent (its helpers are
# charged to the module that called them) and `corpus` only makes inputs.
MODULES = ["trex", "nexi", "summary", "retrieval", "index", "storage",
           "advisor", "text", "xml", "obs"]
LIB_MODULE = {m: m for m in MODULES}
LIB_MODULE.update({"core": "trex", "corpus": "other", "common": None})
MIN_PROFILE_SAMPLES = 1000


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]],
            [w["name"] for w in spec["workloads"]])


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no TReX sources under src/ to build")
    os.makedirs(TMP_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=ENV, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "trexbench"],
                   stdout=sys.stderr, env=ENV, check=True)


def source_identity():
    """The git commit when there is one, and a digest of src/ always."""
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_driver(args, mode, work_dir, extra_args=()):
    """Runs the driver once; returns (human lines, result object)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--work-dir", work_dir] + list(extra_args)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=ENV,
                          timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise RuntimeError(f"driver ({mode}) exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


# ---------------------------------------------------------------------
# Profile attribution: collapsed stacks -> module CPU shares.

def nm(path):
    """(address, type, demangled name) of every defined symbol."""
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         capture_output=True, text=True, check=True).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "TtWw":
            symbols.append((int(parts[0], 16), parts[1], parts[2]))
    return symbols


def symbol_modules():
    """Maps each library symbol to the module whose archive defines it.

    A strong definition decides; a weak one (inline or template code)
    decides only when a single module emits it, else the scope's strong
    symbols decide (trex::BPTree::... belongs where BPTree is defined).
    """
    strong, weak, scopes = {}, collections.defaultdict(set), {}
    lib_dir = os.path.join(BUILD_DIR, "trex")
    for name in sorted(os.listdir(lib_dir)):
        if not (name.startswith("libtrex_") and name.endswith(".a")):
            continue
        module = LIB_MODULE.get(name[len("libtrex_"):-2], "other")
        for _, kind, symbol in nm(os.path.join(lib_dir, name)):
            if kind in "Tt":
                strong.setdefault(symbol, module)
                scopes.setdefault(scope_of(symbol), module)
            else:
                weak[symbol].add(module)
    for symbol, modules in weak.items():
        if symbol in strong:
            continue
        if len(modules) == 1:
            strong[symbol] = next(iter(modules))
        elif scope_of(symbol) in scopes:
            strong[symbol] = scopes[scope_of(symbol)]
    return strong


def scope_of(symbol):
    """"ns::Class::method(args) [clone]" -> "ns::Class"."""
    head = symbol.split("(", 1)[0]
    if " " in head:  # A return type precedes template functions.
        head = head.rsplit(" ", 1)[-1]
    return head.rsplit("::", 1)[0] if "::" in head else ""


def binary_symbols():
    """Addresses and names of the driver binary's symbols, sorted, to
    resolve frames the profiler could only print as trexbench+0x<offset>."""
    table = sorted((addr, name) for addr, _, name in nm(BINARY))
    return [a for a, _ in table], [n for _, n in table]


def resolve(frame, table):
    if not frame.startswith("trexbench+0x"):
        return frame
    addrs, names = table
    i = bisect.bisect_right(addrs, int(frame[len("trexbench+0x"):], 16)) - 1
    return names[i] if i >= 0 else frame


def cpu_shares(collapsed_path):
    """Per-module share of the profiled samples: each sample is charged
    to the innermost frame that belongs to a module (so libc and common
    helpers count for their caller); samples in the driver's own code or
    in no known frame count as `other`."""
    modules = symbol_modules()
    table = binary_symbols()
    counts = collections.Counter()
    with open(collapsed_path) as f:
        for line in f:
            stack, _, count = line.rstrip("\n").rpartition(" ")
            if not stack:
                continue
            owner = "other"
            # Frame 0 is the thread's label; the leaf is last.
            for frame in reversed(stack.split(";")[1:]):
                name = resolve(frame, table)
                module = modules.get(name)
                if module is None and name.startswith("trex::obs::"):
                    module = "obs"
                if module:
                    owner = module
                    break
                if "trexbench" in name:  # The driver's own code.
                    break
            counts[owner] += int(count)
    total = sum(counts.values())
    return {m: counts[m] / total if total else 0.0
            for m in MODULES + ["other"]}


# ---------------------------------------------------------------------

def traced_metrics(args, work_dir):
    """The per-layer run: the obs on/off A/B pass, then the traced one."""
    spans = os.path.join(BUILD_DIR, "spans",
                         f"{args.workload}-seed{args.seed}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    _, ab = run_driver(args, "obs_ab", work_dir)
    lines, traced = run_driver(args, "traced", work_dir,
                               extra_args=["--span-file", spans])
    metrics = traced["metrics"]
    extra = {k: (v["value"], v["unit"]) for k, v in ab["metrics"].items()}
    samples = int(metrics.get("profiler.samples", {}).get("value", 0))
    missing = {}
    collapsed = spans + ".collapsed"
    if samples >= MIN_PROFILE_SAMPLES and os.path.exists(collapsed):
        for module, share in cpu_shares(collapsed).items():
            extra[f"{module}.cpu_share"] = (share, "ratio")
    else:
        for module in MODULES + ["other"]:
            missing[f"{module}.cpu_share"] = (
                f"only {samples} profiler samples, fewer than "
                f"{MIN_PROFILE_SAMPLES}")
    for name, (value, unit) in extra.items():
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<40} {value:16.6f} {unit}")
    for name, why in missing.items():
        lines.append(f"  {name:<40} {'n/a':>16} ratio ({why})")
    lines.append(f"  spans written to {os.path.relpath(spans, ROOT)}")
    result = {
        "correct": traced["correct"] and ab["correct"],
        "attempted": traced["attempted"] + ab["attempted"],
        "failed": traced["failed"] + ab["failed"],
        "metrics": metrics,
    }
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        end_to_end, per_layer, workloads = load_spec()
        if args.workload not in workloads:
            raise RuntimeError(f"unknown workload {args.workload!r}")
        build()
        git_sha, src_digest = source_identity()
        work_dir = os.path.join(ROOT, ".bench_build", "work",
                                f"{args.workload}-{os.getpid()}")
        try:
            if args.trace:
                lines, result = traced_metrics(args, work_dir)
                wanted = per_layer
            else:
                lines, result = run_driver(args, "timed", work_dir)
                wanted = end_to_end
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"trexbench: {e}")
        return 1

    absent = [m for m in wanted if m not in result["metrics"]]
    print(f"trexbench git_sha {git_sha} src_sha256 {src_digest} "
          f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("\n".join(lines))
    if absent:
        log(f"trexbench: no value for {', '.join(absent)}")
        return 1
    result["metrics"] = {m: result["metrics"][m] for m in wanted}
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
