/**
 * @file
 * macross_perfbench: runs one workload of the end-to-end benchmark and
 * writes its raw measurements (setup samples, per-round values, exact
 * per-layer values, failures, provenance and — traced runs only — the
 * span log) as one JSON document. run.py builds this binary, runs it
 * and turns the document into the reported metrics.
 *
 *   macross_perfbench --workload suite-steady|cold-compile|service
 *                    --seed N --seconds S --trace 0|1
 *                    --work-dir DIR --bin-dir DIR --out FILE
 *                    [--corrupt-reference K]
 *
 * Run from the repository root (it reads examples/programs/).
 *
 * Exit codes: 0 ran (failed checks are reported in the document),
 * 1 fatal error, 2 usage error.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common.h"
#include "native/host_fingerprint.h"
#include "native/native_cache.h"
#include "native/native_engine.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "macross_perfbench: %s\n"
                 "usage: macross_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR --bin-dir DIR "
                 "--out FILE [--corrupt-reference K]\n",
                 msg);
    return 2;
}

/** First line of `<compiler> --version`. */
std::string
compilerVersion(const std::string& compiler)
{
    std::string cmd = compiler + " --version 2>/dev/null";
    std::string line;
    if (FILE* p = ::popen(cmd.c_str(), "r")) {
        char buf[512];
        if (std::fgets(buf, sizeof buf, p))
            line = buf;
        ::pclose(p);
    }
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
    return line;
}

json::Value
provenance(const Options& opt)
{
    macross::native::NativeOptions nopts;
    std::string compiler = macross::native::detectHostCompiler();
    std::string flags = nopts.flags;
    std::string extra = macross::native::detail::extraCompileFlags();
    if (!extra.empty())
        flags += " " + extra;
    json::Value v = json::Value::object();
    v["host"] = macross::native::hostFingerprint().toJson();
    v["hostKey"] = macross::native::hostFingerprint().key();
    v["nproc"] = static_cast<std::int64_t>(
        std::max(1u, std::thread::hardware_concurrency()));
    v["threads"] = opt.threads;
    v["clients"] = opt.clients;
    v["compiler"] = compiler;
    v["compilerVersion"] = compilerVersion(compiler);
    v["nativeFlags"] = flags;
    v["buildType"] = PERFBENCH_BUILD_TYPE;
    v["seed"] = static_cast<std::int64_t>(opt.seed);
    return v;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    std::string out;
    std::string traceArg;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        std::string val = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end)
                return usage("--seed wants a non-negative integer");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(opt.seconds > 0))
                return usage("--seconds wants a positive number");
        } else if (arg == "--trace") {
            traceArg = val;
            opt.trace = val == "1";
        } else if (arg == "--work-dir") {
            opt.workDir = val;
        } else if (arg == "--bin-dir") {
            opt.binDir = val;
        } else if (arg == "--out") {
            out = val;
        } else if (arg == "--corrupt-reference") {
            opt.corruptReference = std::strtoll(val.c_str(), &end, 10);
            if (val.empty() || *end)
                return usage("--corrupt-reference wants an integer");
        } else {
            return usage(("unknown option " + arg).c_str());
        }
    }
    if (traceArg != "0" && traceArg != "1")
        return usage("--trace must be 0 or 1");
    if (opt.workDir.empty() || opt.binDir.empty() || out.empty())
        return usage("--work-dir, --bin-dir and --out are required");

    unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    opt.threads = static_cast<int>(std::min(4u, nproc));
    opt.clients = static_cast<int>(nproc);

    Result res;
    res.corruptReference = opt.corruptReference;
    json::Value doc = json::Value::object();
    try {
        doc["provenance"] = provenance(opt);
        if (opt.workload == "suite-steady")
            runSuiteSteady(opt, res);
        else if (opt.workload == "cold-compile")
            runColdCompile(opt, res);
        else if (opt.workload == "service")
            runService(opt, res);
        else
            return usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "macross_perfbench: %s\n", e.what());
        return 1;
    }

    doc["workload"] = opt.workload;
    doc["trace"] = opt.trace;
    doc["attempted"] = res.attempted;
    doc["failed"] = res.failed;
    json::Value failures = json::Value::array();
    for (const std::string& f : res.failures)
        failures.push(f);
    doc["failures"] = std::move(failures);
    json::Value setup = json::Value::array();
    for (double s : res.setupSeconds)
        setup.push(s);
    doc["setupSeconds"] = std::move(setup);
    json::Value tracedSetup = json::Value::array();
    for (double s : res.tracedSetupSeconds)
        tracedSetup.push(s);
    doc["tracedSetupSeconds"] = std::move(tracedSetup);
    doc["rounds"] = std::move(res.rounds);
    doc["layers"] = std::move(res.layers);
    doc["peakRssMb"] = res.peakRssMb;
    doc["tracedPeakRssMb"] = res.tracedPeakRssMb;
    if (opt.trace)
        doc["spans"] = SpanLog::instance().toJson();

    std::ofstream f(out);
    f << doc.dump() << "\n";
    if (!f) {
        std::fprintf(stderr, "macross_perfbench: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    return 0;
}
