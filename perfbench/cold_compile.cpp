/**
 * @file
 * Workload cold-compile: a fixed program set — the two example .str
 * files, the 12 suite programs and a seeded draw of random programs
 * — each taken one at a time from source to its first verified
 * output on an empty private native cache:
 * parse (.str only) → vectorizer::macroSimdize → native::NativeProgram
 * (emit, sandboxed host compile, dlopen) → init → a few iterations.
 * The host compile dominates; steady state is not measured here.
 */
#include <filesystem>
#include <memory>

#include "benchmarks/random_graph.h"
#include "benchmarks/suite.h"
#include "codegen/emit_cpp.h"
#include "common.h"
#include "frontend/parser.h"
#include "native/native_engine.h"
#include "service/protocol.h"
#include "support/diagnostics.h"

namespace perfbench {

namespace {

using namespace macross;

constexpr int kSetupReps = 3;
constexpr int kRandomPrograms = 2;
/** Steady iterations run to reach the first verified output. */
constexpr int kFirstIters = 4;

/** One member of the set: a .str file or an in-memory program. */
struct Entry {
    std::string name;
    std::string path;  ///< Parsed in the timed path when non-empty.
    graph::StreamPtr program;
};

std::vector<Entry>
buildSet(const Options& opt)
{
    std::vector<Entry> set;
    for (const char* file : {"equalizer.str", "sorter.str"}) {
        std::string path = kExamplesDir + file;
        fatalIf(fileBytes(path) == 0, "missing example program ", path);
        set.push_back({file, path, nullptr});
    }
    for (auto& b : benchmarks::standardSuite())
        set.push_back({b.name, "", b.program});
    std::uint64_t state = opt.seed;
    for (int i = 0; i < kRandomPrograms; ++i) {
        std::uint64_t draw = splitmix64(state);
        set.push_back({"random-" + service::hex64(draw), "",
                       benchmarks::randomProgram(draw)});
    }
    return set;
}

/** Setup: build the program set and prime the host toolchain with one
 *  compile from an empty cache, so the first measured program does
 *  not pay the compiler's first load from disk. */
std::vector<Entry>
setupOnce(const Options& opt)
{
    Span root("setup");
    std::vector<Entry> set = buildSet(opt);
    std::string dir = opt.workDir + "/prime-cache";
    resetDir(dir);
    native::NativeOptions nopts;
    nopts.cacheDir = dir;
    auto compiled = vectorizer::macroSimdize(
        benchmarks::makeRunningExample(), vectorizer::SimdizeOptions{});
    {
        Span s("native.build", "prime");
        native::NativeProgram np(compiled.graph, compiled.schedule,
                                 nopts);
        np.init();
    }
    return set;
}

void
runPass(const Options& opt, const std::vector<Entry>& set, bool traced,
        support::Trace* trace, Result& res, json::Value& vals)
{
    std::string dir = opt.workDir + "/cold-cache";
    resetDir(dir);
    native::NativeOptions nopts;
    nopts.cacheDir = dir;
    vectorizer::SimdizeOptions sopts;
    sopts.trace = trace;

    double totalMs = 0, parseMs = 0, simdizeMs = 0, compileMs = 0,
           loadMs = 0, initMs = 0, emitMs = 0;
    std::int64_t soBytes = 0, emitBytes = 0, cacheHits = 0;
    std::int64_t accepted[3] = {0, 0, 0};
    for (const Entry& e : set) {
        vectorizer::CompiledProgram compiled;
        std::unique_ptr<native::NativeProgram> np;
        {
            Span root("op.cold_start", e.name);
            auto t0 = Clock::now();
            graph::StreamPtr program = e.program;
            if (!e.path.empty()) {
                Span s("frontend.parse", e.name);
                auto tp = Clock::now();
                program = frontend::parseProgramFile(e.path);
                parseMs += msSince(tp);
            }
            {
                Span s("vectorizer.simdize", e.name);
                auto ts = Clock::now();
                compiled = vectorizer::macroSimdize(program, sopts);
                simdizeMs += msSince(ts);
            }
            const report::CompilationReport& rep = compiled.report;
            accepted[0] += rep.countKind(report::TransformKind::SingleActor);
            accepted[1] +=
                rep.countKind(report::TransformKind::VerticalFusion);
            accepted[2] += rep.countKind(report::TransformKind::Horizontal);
            {
                Span s("native.build", e.name);
                auto tb = Clock::now();
                np = std::make_unique<native::NativeProgram>(
                    compiled.graph, compiled.schedule, nopts);
                double buildMs = msSince(tb);
                compileMs += np->stats().compileMillis;
                loadMs += buildMs - np->stats().compileMillis;
            }
            {
                Span s("native.init", e.name);
                auto ti = Clock::now();
                np->init();
                initMs += msSince(ti);
            }
            {
                Span s("native.first_iterations", e.name);
                np->runSteady(kFirstIters);
            }
            double ms = msSince(t0);
            vals["cold_ms." + e.name] = ms;
            totalMs += ms;
        }
        soBytes += fileBytes(np->stats().soPath);
        cacheHits += np->stats().cacheHit ? 1 : 0;

        Span s("reference.check", e.name);
        ReferenceStream ref(compiled);
        auto out = np->captured();
        res.check(out.size() > 0 &&
                      out.size() == ref.prefixElements(kFirstIters),
                  e.name + " cold: no output or element count differs "
                           "from the VM");
        res.checkDigest(e.name + " cold", service::checksumLanes(out),
                        ref.prefixDigest(kFirstIters));
        if (traced) {
            Span s("codegen.emit", e.name);
            codegen::EmitOptions eo;
            eo.mode = codegen::EmitMode::Library;
            auto te = Clock::now();
            std::string tu = codegen::emitCpp(compiled.graph,
                                              compiled.schedule, eo);
            emitMs += msSince(te);
            emitBytes += static_cast<std::int64_t>(tu.size());
        }
    }
    vals["cold_total_s"] = totalMs / 1e3;
    vals["frontend.parse_ms"] = parseMs;
    vals["vectorizer.simdize_ms"] = simdizeMs;
    vals["native.host_compile_ms"] = compileMs;
    vals["native.load_ms"] = loadMs;
    vals["native.init_ms"] = initMs;
    vals["native.so_bytes"] = soBytes;
    vals["native.cache_hits"] = cacheHits;
    vals["vectorizer.accepted.single"] = accepted[0];
    vals["vectorizer.accepted.vertical"] = accepted[1];
    vals["vectorizer.accepted.horizontal"] = accepted[2];
    if (traced) {
        vals["codegen.emit_ms"] = emitMs;
        vals["codegen.emit_bytes"] = emitBytes;
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

} // namespace

void
runColdCompile(const Options& opt, Result& res)
{
    std::vector<Entry> set;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        auto t0 = Clock::now();
        set = setupOnce(opt);
        res.setupSeconds.push_back(secondsSince(t0));
    }
    if (opt.trace) {
        SpanLog::instance().enable(true);
        auto t0 = Clock::now();
        set = setupOnce(opt);
        res.tracedSetupSeconds.push_back(secondsSince(t0));
        SpanLog::instance().enable(false);
    }

    // A pass is long (one host compile per program), so start another
    // only when the last one suggests it fits in the budget. Trace
    // runs make one untraced and one traced pass at least.
    const auto start = Clock::now();
    double lastPass = 0.0;
    for (int pass = 0;; ++pass) {
        bool traced = opt.trace && pass % 2 == 1;
        double elapsed = secondsSince(start);
        bool needMore = pass == 0 || (opt.trace && pass == 1);
        if (!needMore && elapsed + lastPass > opt.seconds &&
            (!opt.trace || pass % 2 == 0))
            break;
        support::Trace trace;
        SpanLog::instance().enable(traced);
        json::Value vals = json::Value::object();
        auto t0 = Clock::now();
        {
            Span root("round");
            runPass(opt, set, traced, traced ? &trace : nullptr, res,
                    vals);
        }
        lastPass = secondsSince(t0);
        SpanLog::instance().enable(false);
        if (traced) {
            for (const auto& [name, stat] : trace.timers())
                vals["trace_timer." + name] = stat.totalMs;
        }
        json::Value r = json::Value::object();
        r["traced"] = traced;
        r["values"] = std::move(vals);
        res.rounds.push(std::move(r));
        if (!traced)
            res.peakRssMb = procStatusMb(0, "VmHWM");
        else
            res.tracedPeakRssMb = procStatusMb(0, "VmHWM");
    }
}

} // namespace perfbench
