#!/usr/bin/env python3
"""The smtflex performance ledger.

Builds the ledger binary from source, runs one workload (or all four) in a
pinned environment, checks every output against its reference, and prints
the measurements. Run from the repository root:

    python3 ledger/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0
    python3 ledger/run.py --workload all --seed 1      # every workload, table
    python3 ledger/run.py --self-test                  # oracle self-test

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1). See ledger/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_CACHE = "smtflex_cache.txt"
BUILD_TYPE = "Release"
WORKLOADS = ["sweep-cold", "sim-long", "parsec-tick", "serve-warm"]
# Seconds one workload process may take before it is stopped.
RUN_TIMEOUT = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def check_tree():
    """The ledger builds the simulator from the checkout's sources."""
    needed = [SEED_CACHE, "src/CMakeLists.txt", "BENCHMARK.json",
              "ledger/CMakeLists.txt", "ledger/golden_sim_long.txt"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log("ledger: not a smtflex checkout, missing:", ", ".join(missing))
        sys.exit(2)


def build():
    out = build_dir()
    jobs = str(max(1, min(nproc(), 4)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "smtflex_ledger")


def thread_budget(workload, cpus):
    """(SMTFLEX_JOBS, client connections). JOBS=N>1 runs N pool workers
    plus the caller, which helps in every join; JOBS=1 runs inline."""
    if workload == "sweep-cold":
        return (cpus - 1 if cpus >= 3 else 1), 0
    if workload == "serve-warm":
        # One dispatcher (inline pool), the I/O thread, the connections.
        return 1, max(1, cpus - 2)
    return 1, 0


def pinned_env(jobs, cache_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMTFLEX_")}
    pins = {
        "SMTFLEX_BUDGET": "12000",
        "SMTFLEX_WARMUP": "3000",
        "SMTFLEX_MIXES": "12",
        "SMTFLEX_SEED": "12345",
        "SMTFLEX_FULLSWEEP": "0",
        "SMTFLEX_NO_FASTFWD": "0",
        "SMTFLEX_CACHE": cache_path,
        "SMTFLEX_CACHE_FSYNC": "0",
        "SMTFLEX_JOBS": str(jobs),
        "SMTFLEX_PIN": "0",
    }
    env.update(pins)
    # SMTFLEX_CKPT and SMTFLEX_FAULT stay unset: no checkpointing, no
    # fault injection.
    return env, dict(pins, SMTFLEX_CKPT="(unset)", SMTFLEX_FAULT="(unset)")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def git(*args):
    try:
        r = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout if r.returncode == 0 else None


def tree_state():
    """What a run must leave unchanged: the seed cache bytes and, in a git
    work tree, the status listing."""
    return sha256(os.path.join(ROOT, SEED_CACHE)), git("status", "--porcelain")


def stamp():
    compiler = "unknown"
    cache = os.path.join(build_dir(), "CMakeCache.txt")
    if os.path.exists(cache):
        for line in open(cache):
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1].strip()
                try:
                    compiler = subprocess.run([cxx, "--version"], capture_output=True,
                                              text=True).stdout.splitlines()[0]
                except (OSError, IndexError):
                    compiler = cxx
    src = hashlib.sha256()
    for base in ("src", "ledger"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, ROOT).encode())
                src.update(sha256(path).encode())
    sha = git("rev-parse", "HEAD")
    return {
        "git_sha": sha.strip() if sha else "none (not a git work tree)",
        "source_sha256": src.hexdigest()[:16],
        "host": platform.node(),
        "nproc": nproc(),
        "build_type": BUILD_TYPE,
        "compiler": compiler,
    }


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload process; returns its parsed result line."""
    cpus = nproc()
    jobs, connections = thread_budget(workload, cpus)
    tmp = os.path.join(build_dir(), "ledger-tmp", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    env, pins = pinned_env(jobs, os.path.join(tmp, "unused-cache.txt"))
    busy = (jobs + 1 if jobs > 1 else 1) + (connections + 1 if connections else 0)
    log("ledger: %s seed=%d seconds=%g trace=%d nproc=%d jobs=%d connections=%d "
        "busy_threads=%d" % (workload, seed, seconds, trace, cpus, jobs, connections,
                             busy))
    log("ledger: env " + " ".join("%s=%s" % kv for kv in sorted(pins.items())))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--seed-cache", os.path.join(ROOT, SEED_CACHE),
           "--golden", os.path.join(HERE, "golden_sim_long.txt"),
           "--tmp", tmp, "--connections", str(max(1, connections))]
    if trace:
        cmd += ["--trace-out",
                os.path.join(build_dir(), "ledger-trace-%s.json" % workload)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no result (exit %d)" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["jobs"] = jobs
    result["connections"] = connections
    return result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def contract_line(result, spec, trace):
    section = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["layers"] if trace else result["e2e"]
    metrics = {}
    missing = []
    for m in section:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            missing.append(m["name"])
    if missing:
        raise RuntimeError("metrics not produced: " + ", ".join(missing))
    return metrics


def exact_lines(result):
    """The exact counters and digests, printed apart from the timings."""
    exact = ["sim.cycles", "uarch.retired", "sim.ff_fraction", "study.cache_stores",
             "digest.output", "digest.sim"]
    layers = result["layers"]
    return ["# exact %s=%s" % (k, repr(layers[k])) for k in exact if k in layers]


def one(args, spec):
    binary = build()
    before = tree_state()
    result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    after = tree_state()
    correct = bool(result["correct"]) and result["exit"] == 0
    failed = int(result["failed"])
    if before[0] != after[0]:
        log("ledger: FAIL %s changed during the run" % SEED_CACHE)
        correct = False
    if before[1] != after[1]:
        log("ledger: FAIL git status changed during the run")
        correct = False
    metrics = contract_line(result, spec, args.trace)
    for key, value in sorted(stamp().items()):
        print("# stamp %s=%s" % (key, value))
    jobs = result["jobs"]
    print("# threads nproc=%d SMTFLEX_JOBS=%d exec.threads=%d connections=%d" % (
        nproc(), jobs, jobs + 1 if jobs > 1 else 1, result["connections"]))
    for line in exact_lines(result):
        print(line)
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def table(args, spec):
    """All four workloads, each its own process, as one table."""
    binary = build()
    before = tree_state()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    extra = [("serve.rps", "1/s"), ("serve.p50_us", "us"), ("serve.p99_us", "us"),
             ("serve.p50_us.run", "us"), ("serve.p50_us.sweep", "us")]
    correct = True
    attempted = failed = 0
    summary = {}
    for key, value in sorted(stamp().items()):
        print("# stamp %s=%s" % (key, value))
    for workload in WORKLOADS:
        r = run_workload(binary, workload, args.seed, args.seconds, 0)
        ok = bool(r["correct"]) and r["exit"] == 0
        correct = correct and ok
        attempted += int(r["attempted"])
        failed += int(r["failed"])
        share = float(r["failed"]) / max(1, int(r["attempted"]))
        print("%-12s %s attempted=%d failed=%d error_share=%.6f" % (
            workload, "ok  " if ok else "FAIL", r["attempted"], r["failed"], share))
        for name, unit in list(units.items()) + extra:
            value = r["e2e"].get(name, r["layers"].get(name))
            if value is None:
                continue
            print("    %-20s %14.6g %s" % (name, value, unit))
            summary["%s:%s" % (workload, name)] = {"value": value, "unit": unit}
        for line in exact_lines(r):
            print("    " + line)
    after = tree_state()
    if before != after:
        log("ledger: FAIL the run changed %s or the git status" % SEED_CACHE)
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if correct else 1


def self_test():
    """Oracle self-test, then the wiring: a one-digit change in a golden
    digest must fail a real sim-long run and its exit code."""
    binary = build()
    tmp = os.path.join(build_dir(), "ledger-tmp", "self-test-%d" % os.getpid())
    env, _ = pinned_env(1, os.path.join(tmp, "unused-cache.txt"))
    failures = 0
    r = subprocess.run([binary, "--self-test", "--seed-cache",
                        os.path.join(ROOT, SEED_CACHE), "--tmp", tmp], env=env,
                       cwd=ROOT, timeout=RUN_TIMEOUT)
    failures += r.returncode != 0
    os.makedirs(tmp, exist_ok=True)
    golden = os.path.join(tmp, "golden.txt")
    with open(os.path.join(HERE, "golden_sim_long.txt")) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            digit = line[-1]
            lines[i] = line[:-1] + ("0" if digit != "0" else "1")
            break
    with open(golden, "w") as f:
        f.write("\n".join(lines) + "\n")
    r = subprocess.run([binary, "--workload", "sim-long", "--seed", "0",
                        "--seconds", "0", "--trace", "0", "--seed-cache",
                        os.path.join(ROOT, SEED_CACHE), "--golden", golden,
                        "--tmp", os.path.join(tmp, "run")], env=env, cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT)
    shutil.rmtree(tmp, ignore_errors=True)
    result = json.loads(r.stdout.strip().splitlines()[-1]) if r.stdout.strip() else {}
    caught = r.returncode != 0 and result.get("failed", 0) >= 1 and \
        result.get("correct") is False
    print("self-test %s: perturbed golden digest fails sim-long (exit %d, failed %s)" % (
        "ok  " if caught else "FAIL", r.returncode, result.get("failed")))
    failures += not caught
    print(json.dumps({"correct": failures == 0, "attempted": 2,
                      "failed": int(failures), "metrics": {}}))
    return 0 if failures == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    if not args.self_test and not args.workload:
        p.error("--workload or --self-test is required")
    check_tree()
    started = time.time()
    try:
        if args.self_test:
            code = self_test()
        elif args.workload == "all":
            code = table(args, load_spec())
        else:
            code = one(args, load_spec())
    except (RuntimeError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, ValueError, KeyError) as e:
        log("ledger: FAIL", e)
        return 1
    log("ledger: done in %.1f s" % (time.time() - started))
    return code


if __name__ == "__main__":
    sys.exit(main())
