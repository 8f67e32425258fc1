#!/usr/bin/env python3
"""End-to-end benchmark of the macross pipeline and the macrossd daemon.

Builds the library, macrossd and the benchmark binary from the
repository sources (CMake, Release), runs one workload in it,
and prints its metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, measured in a traced run.

  python3 perfbench/run.py --workload suite-steady --seed 1 \
      --seconds 20 --trace 0
  python3 perfbench/run.py --all --seed 1 --seconds 20
  python3 perfbench/run.py --compare A.json B.json

Run it from the repository root. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ["suite-steady", "cold-compile", "service"]
# Provenance fields two result sets must share to be compared.
SAME_HOST_FIELDS = ["hostKey", "compiler", "compilerVersion", "buildType"]
BINARY_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_benchmark_json():
    path = os.path.join(REPO, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(REPO, base)
    return os.path.join(base, "perfbench")


def build(root):
    """Configure and build the benchmark binary and macrossd; return
    the bin dir."""
    for needed in ("src/CMakeLists.txt", "tools/macrossd.cpp",
                   "examples/programs/equalizer.str"):
        if not os.path.isfile(os.path.join(REPO, needed)):
            fail("repository sources missing (%s); run from a full "
                 "checkout" % needed, 2)
    bdir = os.path.join(root, "build")
    jobs = str(min(4, os.cpu_count() or 1))
    cmds = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"] + gen)
    cmds.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return bdir


def git_commit():
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_binary(bdir, root, workload, seed, seconds, trace,
               corrupt=None):
    work = os.path.join(root, "work")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    out = os.path.join(work, "raw-%s-%d.json" % (workload, trace))
    if os.path.exists(out):
        os.remove(out)
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(work, "tmp")
    for var in ("MACROSS_CACHE_DIR", "MACROSS_NATIVE_EXTRA_FLAGS",
                "MACROSS_NATIVE_CXX"):
        env.pop(var, None)
    cmd = [os.path.join(bdir, "macross_perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--bin-dir", bdir, "--out", out]
    if corrupt is not None:
        cmd += ["--corrupt-reference", str(corrupt)]
    # Own process group, so a timeout stops the binary and any
    # macrossd or compiler it started.
    proc = subprocess.Popen(cmd, env=env, cwd=REPO,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    try:
        # Nothing may outlive the run, also after a crash or timeout.
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if stdout is None:
        fail("benchmark binary timed out after %d s" % BINARY_TIMEOUT_S)
    sys.stderr.write(stdout)
    if proc.returncode != 0:
        fail("benchmark binary exited with code %d" % proc.returncode)
    with open(out) as f:
        return json.load(f)


# ---------------------------------------------------------------- stats

def median(xs):
    return statistics.median(xs) if xs else 0.0


def geomean(xs):
    xs = [x for x in xs if x > 0]
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def rounds_of(doc, traced):
    return [r["values"] for r in doc["rounds"] if r["traced"] == traced]


def med_key(rounds, key):
    return median([r[key] for r in rounds if key in r])


def programs(rounds, prefix):
    names = set()
    for r in rounds:
        names.update(k[len(prefix):] for k in r if k.startswith(prefix))
    return sorted(names)


def end_to_end(doc, rounds, setup, peak_rss):
    """The five end-to-end metrics of one workload from @p rounds."""
    w = doc["workload"]
    m = {"setup_s": median(setup)}
    if w == "suite-steady":
        names = programs(rounds, "native.ns_per_elem.")
        m["throughput_per_s"] = geomean(
            [1e9 / med_key(rounds, "native.ns_per_elem." + p)
             for p in names])
        run = [med_key(rounds, "native.run_ms." + p) for p in names]
        m["latency_p50_ms"] = median(run)
        m["latency_tail_ms"] = max(run)
        m["peak_rss_mb"] = peak_rss
    elif w == "cold-compile":
        names = programs(rounds, "cold_ms.")
        m["throughput_per_s"] = len(names) / med_key(rounds,
                                                     "cold_total_s")
        cold = [med_key(rounds, "cold_ms." + p) for p in names]
        m["latency_p50_ms"] = median(cold)
        m["latency_tail_ms"] = max(cold)
        m["peak_rss_mb"] = peak_rss
    else:
        m["throughput_per_s"] = med_key(rounds, "req_per_s")
        m["latency_p50_ms"] = med_key(rounds, "req_p50_us") / 1e3
        m["latency_tail_ms"] = med_key(rounds, "req_p99_us") / 1e3
        m["peak_rss_mb"] = med_key(rounds, "daemon_hwm_mb")
    return m


def named_figures(doc, rounds):
    """The named end-to-end figures of perfbench/README.md."""
    w = doc["workload"]
    v = {}
    if w == "suite-steady":
        names = programs(rounds, "native.ns_per_elem.")
        for engine, prefix in (("native", "native.ns_per_elem."),
                               ("parallel", "parallel.ns_per_elem."),
                               ("vm", "interp.vm_ns_per_elem.")):
            v[engine + "_elems_per_s"] = (geomean(
                [1e9 / med_key(rounds, prefix + p) for p in names]),
                "elem/s")
        v["warm_start_ms"] = (sum(
            med_key(rounds, "native.warm_start_ms." + p)
            for p in names), "ms")
    elif w == "cold-compile":
        v["cold_compile_s"] = (med_key(rounds, "cold_total_s"), "s")
    else:
        v["req_per_s"] = (med_key(rounds, "req_per_s"), "1/s")
        samples = int(med_key(rounds, "req_samples"))
        v["req_p50_us"] = (med_key(rounds, "req_p50_us"),
                           "us (n=%d per round)" % samples)
        v["req_p99_us"] = (med_key(rounds, "req_p99_us"),
                           "us (n=%d per round)" % samples)
        v["daemon_rss_mb"] = (med_key(rounds, "daemon_hwm_mb"), "MB")
    return v


def span_analysis(spans, traced_setups, traced_rounds):
    """Self time per layer (ms in one traced setup plus one traced
    round) and child coverage per root kind."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[2] >= 0:
            children[s[2]].append(i)
    self_ms = {}
    cover = {}
    in_setup = [False] * len(spans)
    for i, (name, _op, parent, start, end) in enumerate(spans):
        in_setup[i] = name == "setup" or (parent >= 0 and
                                          in_setup[parent])
        covered = sum(spans[c][4] - spans[c][3] for c in children[i])
        own = (end - start) - covered
        per = traced_setups if in_setup[i] else traced_rounds
        layer = name.split(".")[0]
        self_ms[layer] = self_ms.get(layer, 0.0) + own / 1e3 / max(1, per)
        key = "op" if name.startswith("op.") else {
            "setup": "setup", "round": "round"}.get(name)
        if key:
            tot, cov = cover.get(key, (0.0, 0.0))
            cover[key] = (tot + end - start, cov + covered)
    return self_ms, {k: (c / t if t > 0 else 0.0)
                     for k, (t, c) in cover.items()}


def per_layer(doc, names):
    """Every per-layer metric of BENCHMARK.json (0 = the layer is not
    exercised or not recorded on this workload; see README.md)."""
    w = doc["workload"]
    r1 = rounds_of(doc, True)
    r0 = rounds_of(doc, False)
    layers = doc["layers"]
    v = {}

    def timer(name):
        key = "trace_timer.vectorizer." + name
        return layers[key] if key in layers else med_key(r1, key)

    def per_prog_sum(prefix):
        return sum(med_key(r1, prefix + p) for p in programs(r1, prefix))

    for p in ("prepass", "hierarchy", "flatten", "tape_opt", "schedule"):
        v["vectorizer.pass_ms." + p] = timer(p)
    v["graph.flatten_ms"] = timer("flatten")
    v["schedule.make_ms"] = timer("schedule")
    if w == "suite-steady":
        progs = programs(r1, "native.ns_per_elem.")
        v["vectorizer.simdize_ms"] = timer("macroSimdize")
        for k in ("single", "vertical", "horizontal"):
            v["vectorizer.accepted." + k] = layers[
                "vectorizer.accepted." + k]
        for p in progs:
            v["machine.modeled_cycles_per_elem." + p] = layers[
                "machine.modeled_cycles_per_elem." + p]
            v["native.ns_per_elem." + p] = med_key(
                r1, "native.ns_per_elem." + p)
            v["interp.vm_ns_per_elem." + p] = med_key(
                r1, "interp.vm_ns_per_elem." + p)
            v["parallel.ns_per_elem." + p] = med_key(
                r1, "parallel.ns_per_elem." + p)
        v["codegen.emit_ms"] = per_prog_sum("codegen.emit_ms.")
        v["codegen.emit_bytes"] = per_prog_sum("codegen.emit_bytes.")
        v["native.so_bytes"] = layers["native.so_bytes"]
        v["native.load_ms"] = per_prog_sum("native.load_ms.")
        v["native.init_ms"] = per_prog_sum("native.init_ms.")
        v["native.warm_start_ms"] = per_prog_sum("native.warm_start_ms.")
        v["interp.vm_start_ms"] = per_prog_sum("interp.vm_start_ms.")
        v["multicore.partition_us"] = sum(
            layers["multicore.partition_us." + p] for p in progs)
        v["multicore.crossing_words"] = sum(
            layers["multicore.crossing_words." + p] for p in progs)
        v["multicore.max_core_share"] = geomean(
            [layers["multicore.max_core_share." + p] for p in progs])
        v["parallel.imbalance"] = geomean(
            [med_key(r1, "parallel.imbalance." + p) for p in progs])
        for name, prefix in (("native.elems_per_s", "native.ns_per_elem."),
                             ("parallel.elems_per_s",
                              "parallel.ns_per_elem."),
                             ("interp.vm_elems_per_s",
                              "interp.vm_ns_per_elem.")):
            v[name] = geomean(
                [1e9 / med_key(r1, prefix + p) for p in progs])
        v["parallel.t1_over_serial"] = geomean(
            [med_key(r1, "native.ns_per_elem." + p) /
             med_key(r1, "parallel_t1.ns_per_elem." + p) for p in progs])
    elif w == "cold-compile":
        for k in ("frontend.parse_ms", "vectorizer.simdize_ms",
                  "codegen.emit_ms", "codegen.emit_bytes",
                  "native.host_compile_ms", "native.so_bytes",
                  "native.load_ms", "native.init_ms",
                  "vectorizer.accepted.single",
                  "vectorizer.accepted.vertical",
                  "vectorizer.accepted.horizontal"):
            v[k] = med_key(r1, k)
    else:
        for k in names:
            if k.startswith("service.") or k.startswith("protocol."):
                v[k] = med_key(r1, k)

    self_ms, cover = span_analysis(doc.get("spans", []),
                                   len(doc["tracedSetupSeconds"]), len(r1))
    for k in names:
        if k.startswith("self_ms."):
            v[k] = self_ms.get(k[len("self_ms."):], 0.0)
        elif k.startswith("trace.coverage."):
            v[k] = cover.get(k[len("trace.coverage."):], 0.0)
    untraced = end_to_end(doc, r0, doc["setupSeconds"], doc["peakRssMb"])
    traced = end_to_end(doc, r1, doc["tracedSetupSeconds"],
                        doc["tracedPeakRssMb"])
    for k in untraced:
        v["trace.overhead." + k] = traced[k] - untraced[k]
    for k in names:
        v.setdefault(k, 0.0)
    return v


# --------------------------------------------------------------- output

def result_set(doc, bench, trace):
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    names = [m["name"] for m in wanted]
    if trace:
        values = per_layer(doc, names)
    else:
        values = end_to_end(doc, rounds_of(doc, False),
                            doc["setupSeconds"], doc["peakRssMb"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    prov = dict(doc["provenance"])
    prov["commit"] = git_commit()
    prov["workload"] = doc["workload"]
    prov["trace"] = bool(trace)
    return {"provenance": prov,
            "correct": doc["failed"] == 0 and doc["attempted"] > 0,
            "attempted": doc["attempted"], "failed": doc["failed"],
            "failures": doc["failures"], "metrics": metrics}


def print_report(doc, rs):
    p = rs["provenance"]
    print("workload %s seed %d trace %d: %d rounds, %d checked, "
          "%d failed" % (doc["workload"], p["seed"], int(p["trace"]),
                         len(doc["rounds"]), rs["attempted"],
                         rs["failed"]))
    print("host %s | nproc %d T %d C %d | %s | flags %s | %s build | "
          "commit %s" % (p["hostKey"], p["nproc"], p["threads"],
                         p["clients"], p["compilerVersion"],
                         p["nativeFlags"], p["buildType"], p["commit"]))
    for f in rs["failures"]:
        print("FAILED: " + f)
    for name, (value, unit) in named_figures(
            doc, rounds_of(doc, p["trace"])).items():
        print("  %-22s %14.4f %s" % (name, value, unit))
    for name, m in rs["metrics"].items():
        print("  %-44s %14.4f %s" % (name, m["value"], m["unit"]))


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for field in SAME_HOST_FIELDS:
        if a["provenance"].get(field) != b["provenance"].get(field):
            fail("refusing to compare: %s differs (%r vs %r)" % (
                field, a["provenance"].get(field),
                b["provenance"].get(field)), 3)
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print("%-44s %14.4f %14.4f  x%.3f %s" % (
            name, ma["value"], mb["value"], ratio, ma["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print every metric")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two result sets (results/*.json)")
    ap.add_argument("--corrupt-reference", type=int, default=None,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.compare:
        compare(*args.compare)
        return
    bench = load_benchmark_json()
    seconds = args.seconds or bench["run_seconds"]
    workloads = WORKLOADS if args.all else [args.workload]
    if workloads == [None]:
        fail("give --workload NAME or --all", 2)
    root = build_root()
    bdir = build(root)
    results = {}
    for w in workloads:
        doc = run_binary(bdir, root, w, args.seed, seconds, args.trace,
                         args.corrupt_reference)
        rs = result_set(doc, bench, args.trace)
        print_report(doc, rs)
        results[w] = rs
        os.makedirs(os.path.join(root, "results"), exist_ok=True)
        path = os.path.join(root, "results", "%s-seed%d-trace%d.json" % (
            w, args.seed, args.trace))
        with open(path, "w") as f:
            json.dump(rs, f, indent=1)
    last = results[workloads[-1]]
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": last["metrics"] if not args.all else {
                   w + "/" + k: m for w, r in results.items()
                   for k, m in r["metrics"].items()}}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
