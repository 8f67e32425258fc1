/**
 * @file
 * Workload suite-steady: the 12 suite programs, macro-SIMDized with
 * default SimdizeOptions, each run for a fixed number of steady
 * iterations on three engines per round — serial native
 * (native::NativeProgram), partitioned native over
 * interp::ParallelRunner at T workers, and the bytecode VM
 * (interp::Runner). Every engine starts from a fresh instance on a
 * cache hit, so the per-round warm start is measured too and no
 * captured stream grows across rounds.
 */
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "benchmarks/suite.h"
#include "codegen/emit_cpp.h"
#include "common.h"
#include "interp/parallel_runner.h"
#include "machine/cost_sink.h"
#include "multicore/partition.h"
#include "native/native_engine.h"
#include "native/native_partitioned.h"
#include "service/protocol.h"

namespace perfbench {

namespace {

using namespace macross;

constexpr int kSetupReps = 5;
constexpr int kProfileIters = 8;
/** Sink elements per timed run; iterations derive from these. */
constexpr double kNativeElems = 1 << 17;
constexpr double kParallelElems = 1 << 17;
constexpr double kVmElems = 1 << 12;
/** Multicore cost-model constants (as in bench/fig13_multicore). */
constexpr double kPerWordCycles = 12.0;
constexpr double kSyncCycles = 200.0;

struct Program {
    std::string name;
    vectorizer::CompiledProgram compiled;
    multicore::Partition part;   ///< T cores.
    multicore::Partition part1;  ///< 1 core (traced runs only).
    double elemsPerIter = 1.0;
    /** VM reference after init + N steady iterations, for every N
     *  an engine runs to. */
    struct Expect {
        std::uint64_t digest = 0;
        std::size_t elements = 0;
    };
    std::map<std::int64_t, Expect> expect;
};

/** Timed steady iterations and untimed warm-up (incl. the first). */
struct Iters {
    std::int64_t warm = 1;
    std::int64_t timed = 1;
    std::int64_t total() const { return warm + timed; }
};

Iters
itersFor(double targetElems, double elemsPerIter)
{
    Iters it;
    it.timed = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(targetElems / elemsPerIter)));
    it.warm = std::max<std::int64_t>(1, it.timed / 4);
    return it;
}

struct Engines {
    native::NativeOptions native;
    codegen::SimdSpec simd;
    interp::EngineConfig parallel() const
    {
        interp::EngineConfig c(interp::ExecEngine::Native);
        c.native = native;
        c.simd = simd;
        return c;
    }
};

/** One setup pass: compile, profile, partition, fill or hit the
 *  native cache for every shape the rounds load. */
std::vector<std::unique_ptr<Program>>
setupOnce(const Options& opt, const Engines& eng, Result& res,
          support::Trace* trace)
{
    Span root("setup");
    vectorizer::SimdizeOptions sopts;
    sopts.trace = trace;
    std::vector<std::unique_ptr<Program>> out;
    double accepted[3] = {0, 0, 0};
    std::int64_t soBytes = 0;
    for (const auto& bench : benchmarks::standardSuite()) {
        auto p = std::make_unique<Program>();
        p->name = bench.name;
        {
            Span s("vectorizer.simdize", p->name);
            p->compiled = vectorizer::macroSimdize(bench.program, sopts);
        }
        const auto& g = p->compiled.graph;
        const auto& sched = p->compiled.schedule;
        p->elemsPerIter = sinkElementsPerIteration(p->compiled);
        const report::CompilationReport& rep = p->compiled.report;
        accepted[0] += rep.countKind(report::TransformKind::SingleActor);
        accepted[1] +=
            rep.countKind(report::TransformKind::VerticalFusion);
        accepted[2] += rep.countKind(report::TransformKind::Horizontal);

        std::vector<double> cycles(g.actors.size(), 0.0);
        {
            Span s("machine.profile", p->name);
            machine::CostSink cost(sopts.machine);
            interp::Runner r(g, sched, &cost);
            r.runInit();
            std::size_t before = r.captured().size();
            r.runSteady(kProfileIters);
            for (const auto& a : g.actors)
                cycles[a.id] = cost.actorCycles(a.id) / kProfileIters;
            double produced =
                static_cast<double>(r.captured().size() - before);
            res.layers["machine.modeled_cycles_per_elem." + p->name] =
                produced > 0 ? cost.totalCycles() / produced : 0.0;
        }
        {
            Span s("multicore.partition", p->name);
            auto t0 = Clock::now();
            p->part = multicore::partitionGreedy(g, sched, cycles,
                                                 opt.threads);
            auto est = multicore::estimateMulticore(
                g, sched, p->part, kPerWordCycles, kSyncCycles);
            res.layers["multicore.partition_us." + p->name] =
                msSince(t0) * 1e3;
            if (opt.trace)
                p->part1 =
                    multicore::partitionGreedy(g, sched, cycles, 1);
            std::int64_t words = 0;
            for (std::int64_t w : est.edgeCrossWords)
                words += w;
            double total = 0.0, most = 0.0;
            for (double l : p->part.coreLoad) {
                total += l;
                most = std::max(most, l);
            }
            res.layers["multicore.crossing_words." + p->name] = words;
            res.layers["multicore.max_core_share." + p->name] =
                total > 0 ? most / total : 0.0;
        }
        {
            Span s("native.load", p->name);
            native::NativeProgram np(g, sched, eng.native, eng.simd);
            soBytes += fileBytes(np.stats().soPath);
        }
        {
            Span s("parallel.load", p->name);
            native::NativePartitionedProgram pp(
                g, sched, p->part.cores, p->part.coreOf, eng.native,
                eng.simd);
            if (opt.trace) {
                native::NativePartitionedProgram pp1(
                    g, sched, 1, p->part1.coreOf, eng.native, eng.simd);
            }
        }
        out.push_back(std::move(p));
    }
    res.layers["vectorizer.accepted.single"] = accepted[0];
    res.layers["vectorizer.accepted.vertical"] = accepted[1];
    res.layers["vectorizer.accepted.horizontal"] = accepted[2];
    res.layers["native.so_bytes"] = soBytes;
    return out;
}

/** Serial native: warm start, warm-up, timed steady run, check. */
void
runNative(Program& p, const Engines& eng, Result& res,
          json::Value& vals)
{
    const auto& c = p.compiled;
    Iters it = itersFor(kNativeElems, p.elemsPerIter);
    std::unique_ptr<native::NativeProgram> np;
    // Constructing a NativeProgram forks the caller (host-compiler
    // detection), and fork time grows with the caller's resident set.
    // Hand the heap the previous checks freed back to the system, so
    // the warm start sees this process at the same small size every
    // time instead of whatever glibc happened to retain.
    ::malloc_trim(0);
    auto ms = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
    };
    Clock::time_point t[6];
    {
        // The whole fixed run a user waits for: compiled graph →
        // NativeProgram on a cache hit → init → warm-up → timed run.
        Span root("op.run", p.name);
        t[0] = Clock::now();
        {
            Span s("native.load", p.name);
            np = std::make_unique<native::NativeProgram>(
                c.graph, c.schedule, eng.native, eng.simd);
        }
        t[1] = Clock::now();
        {
            Span s("native.init", p.name);
            np->init();
        }
        t[2] = Clock::now();
        {
            Span s("native.first_iteration", p.name);
            np->runSteady(1);
        }
        t[3] = Clock::now();
        if (it.warm > 1) {
            Span s("native.warm_up", p.name);
            np->runSteady(static_cast<int>(it.warm - 1));
        }
        t[4] = Clock::now();
        {
            Span s("native.steady", p.name);
            np->runSteady(static_cast<int>(it.timed));
        }
        t[5] = Clock::now();
    }
    vals["native.run_ms." + p.name] = ms(t[0], t[5]);
    vals["native.warm_start_ms." + p.name] = ms(t[0], t[3]);
    vals["native.load_ms." + p.name] = ms(t[0], t[1]);
    vals["native.init_ms." + p.name] = ms(t[1], t[2]);
    vals["native.ns_per_elem." + p.name] =
        ms(t[4], t[5]) * 1e6 /
        (static_cast<double>(it.timed) * p.elemsPerIter);
    Span s("reference.check", p.name);
    auto out = np->captured();
    res.check(out.size() == p.expect.at(it.total()).elements,
              p.name + " native: element count differs from the VM");
    res.checkDigest(p.name + " native",
                    service::checksumLanes(out),
                    p.expect.at(it.total()).digest);
}

/** Partitioned native at @p part's core count. */
void
runParallel(Program& p, const multicore::Partition& part,
            const std::string& key, const Engines& eng, Result& res,
            json::Value& vals)
{
    const auto& c = p.compiled;
    Iters it = itersFor(kParallelElems, p.elemsPerIter);
    std::unique_ptr<interp::ParallelRunner> pr;
    {
        Span s("parallel.load", p.name);
        pr = std::make_unique<interp::ParallelRunner>(
            c.graph, c.schedule, part, nullptr, eng.parallel());
    }
    {
        Span s("parallel.init", p.name);
        pr->runInit();
    }
    pr->runSteady(static_cast<int>(it.warm));
    double ms;
    {
        Span s("parallel.steady", p.name);
        auto t0 = Clock::now();
        pr->runSteady(static_cast<int>(it.timed));
        ms = msSince(t0);
    }
    vals[key + ".ns_per_elem." + p.name] =
        ms * 1e6 / (static_cast<double>(it.timed) * p.elemsPerIter);
    json::Value stats = pr->statsToJson();
    if (const json::Value* par = stats.find("parallel")) {
        const json::Value* nat = par->find("native");
        const json::Value* wall =
            nat ? nat->find("partitionWallMicros") : nullptr;
        if (wall && wall->size() > 0) {
            double most = 0.0, sum = 0.0;
            for (const json::Value& w : wall->items()) {
                most = std::max(most, w.asDouble());
                sum += w.asDouble();
            }
            if (sum > 0)
                vals[key + ".imbalance." + p.name] =
                    most / (sum / static_cast<double>(wall->size()));
        }
    }
    Span s("reference.check", p.name);
    const auto& out = pr->captured();
    res.check(!pr->degradedToSerial(),
              p.name + " " + key + ": degraded to serial");
    res.check(out.size() == p.expect.at(it.total()).elements,
              p.name + " " + key + ": element count differs from the VM");
    res.checkDigest(p.name + " " + key, service::checksumLanes(out),
                    p.expect.at(it.total()).digest);
}

/** Bytecode VM: start (compile + verify + init), timed run, check. */
void
runVm(Program& p, Result& res, json::Value& vals)
{
    const auto& c = p.compiled;
    Iters it = itersFor(kVmElems, p.elemsPerIter);
    std::unique_ptr<interp::Runner> vm;
    {
        Span s("interp.vm_start", p.name);
        auto t0 = Clock::now();
        vm = std::make_unique<interp::Runner>(c.graph, c.schedule);
        vm->runInit();
        vals["interp.vm_start_ms." + p.name] = msSince(t0);
    }
    vm->runSteady(static_cast<int>(it.warm));
    double ms;
    {
        Span s("interp.vm_steady", p.name);
        auto t0 = Clock::now();
        vm->runSteady(static_cast<int>(it.timed));
        ms = msSince(t0);
    }
    vals["interp.vm_ns_per_elem." + p.name] =
        ms * 1e6 / (static_cast<double>(it.timed) * p.elemsPerIter);
    Span s("reference.check", p.name);
    res.checkDigest(p.name + " vm",
                    service::checksumLanes(vm->captured()),
                    p.expect.at(it.total()).digest);
}

/** Traced rounds only: the emitted library TU, timed on its own
 *  (NativeProgram emits internally, out of the benchmark's sight). */
void
emitOnce(const Program& p, const Engines& eng, json::Value& vals)
{
    Span s("codegen.emit", p.name);
    codegen::EmitOptions eo;
    eo.mode = codegen::EmitMode::Library;
    eo.simd = eng.simd;
    auto t0 = Clock::now();
    std::string tu =
        codegen::emitCpp(p.compiled.graph, p.compiled.schedule, eo);
    vals["codegen.emit_ms." + p.name] = msSince(t0);
    vals["codegen.emit_bytes." + p.name] =
        static_cast<std::int64_t>(tu.size());
}

} // namespace

void
runSuiteSteady(const Options& opt, Result& res)
{
    Engines eng;
    eng.native.cacheDir = opt.workDir + "/native-cache";

    std::vector<std::unique_ptr<Program>> progs;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        auto t0 = Clock::now();
        progs = setupOnce(opt, eng, res, nullptr);
        res.setupSeconds.push_back(secondsSince(t0));
    }
    if (opt.trace) {
        support::Trace trace;
        SpanLog::instance().enable(true);
        auto t0 = Clock::now();
        progs = setupOnce(opt, eng, res, &trace);
        res.tracedSetupSeconds.push_back(secondsSince(t0));
        SpanLog::instance().enable(false);
        for (const auto& [name, stat] : trace.timers())
            res.layers["trace_timer." + name] = stat.totalMs;
    }

    // References: the VM's digest at every run length an engine
    // uses. Not part of setup_s: it is the benchmark's check, not work
    // the system does. The VM stream is dropped afterwards so its
    // captured elements do not inflate this process during rounds.
    for (auto& p : progs) {
        ReferenceStream ref(p->compiled);
        for (double target : {kNativeElems, kParallelElems, kVmElems}) {
            std::int64_t n = itersFor(target, p->elemsPerIter).total();
            p->expect[n] = {ref.prefixDigest(n), ref.prefixElements(n)};
        }
    }

    const auto start = Clock::now();
    bool tracedHalf = false;
    for (int round = 0;; ++round) {
        double elapsed = secondsSince(start);
        if (round > 0 && elapsed >= opt.seconds) {
            if (!opt.trace || tracedHalf)
                break;
        }
        // Trace runs: untraced rounds for the first half, then traced.
        if (opt.trace && !tracedHalf && round > 0 &&
            elapsed >= opt.seconds / 2) {
            tracedHalf = true;
            res.peakRssMb = procStatusMb(0, "VmHWM");
        }
        SpanLog::instance().enable(tracedHalf);
        json::Value vals = json::Value::object();
        {
            Span root("round");
            for (auto& p : progs) {
                runNative(*p, eng, res, vals);
                runParallel(*p, p->part, "parallel", eng, res, vals);
                runVm(*p, res, vals);
                if (tracedHalf) {
                    runParallel(*p, p->part1, "parallel_t1", eng, res,
                                vals);
                    emitOnce(*p, eng, vals);
                }
            }
        }
        SpanLog::instance().enable(false);
        json::Value r = json::Value::object();
        r["traced"] = tracedHalf;
        r["values"] = std::move(vals);
        res.rounds.push(std::move(r));
    }
    double hwm = procStatusMb(0, "VmHWM");
    if (opt.trace)
        res.tracedPeakRssMb = hwm;
    else
        res.peakRssMb = hwm;
}

} // namespace perfbench
