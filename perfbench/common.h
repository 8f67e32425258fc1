/**
 * @file
 * Shared pieces of the end-to-end benchmark binary: options, the
 * result record every workload fills, the bytecode-VM reference
 * stream outputs are checked against, and the in-memory span log of
 * the traced run.
 *
 * The benchmark times calls into the library's public functions from
 * outside. Spans are recorded only in traced rounds; untraced rounds
 * never touch the log, so the end-to-end numbers carry no tracing
 * cost.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "interp/runner.h"
#include "support/json.h"
#include "vectorizer/pipeline.h"

namespace perfbench {

namespace json = macross::json;
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e3;
}

/** Command-line options of the benchmark binary (see main.cpp). */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory inside the checkout (caches, socket). */
    std::string workDir;
    /** Directory holding the built macrossd binary. */
    std::string binDir;
    /** Test hook: corrupt the reference digest of check number N. */
    std::int64_t corruptReference = -1;
    /** Parallel workers T = min(4, nproc). */
    int threads = 1;
    /** Service clients C = nproc. */
    int clients = 1;
};

/** The example programs, relative to the repository root (the
 *  benchmark's working directory). */
inline const std::string kExamplesDir = "examples/programs/";

/** splitmix64: derives every seeded draw from the workload seed. */
inline std::uint64_t
splitmix64(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * What one workload run reports back: operation counts, setup
 * samples, per-round measured values, exact per-layer values, and
 * the span log of traced rounds. Not thread-safe; workloads verify
 * outputs on the main thread.
 */
struct Result {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<double> setupSeconds;
    /** Setup repeated with tracing on (trace runs only). */
    std::vector<double> tracedSetupSeconds;
    /** [{"traced": bool, "values": {name: number}}] per round. */
    json::Value rounds = json::Value::array();
    /** Values that are exact or measured once per run. */
    json::Value layers = json::Value::object();
    /** Peak RSS (MB) after the untraced and the traced rounds. */
    double peakRssMb = 0.0;
    double tracedPeakRssMb = 0.0;
    std::int64_t corruptReference = -1;

    /** Count one operation; record @p what when it failed. */
    void check(bool ok, const std::string& what);

    /**
     * Compare an output digest with its bytecode-VM reference. The
     * test hook corrupts the reference of one numbered check so the
     * failure path can be exercised end to end.
     */
    void checkDigest(const std::string& what, std::uint64_t got,
                     std::uint64_t want);

  private:
    std::int64_t digestChecks_ = 0;
};

/**
 * Bytecode-VM reference for one compiled program: a Runner advanced
 * on demand, with the additive lane digest (service::checksumLanes)
 * and element count recorded at every steady-iteration boundary, so
 * any engine's output over any iteration range can be checked.
 */
class ReferenceStream {
  public:
    /** @p program must outlive the stream. */
    explicit ReferenceStream(const macross::vectorizer::CompiledProgram&
                                 program);

    /** Digest of everything captured after init + @p iters. */
    std::uint64_t prefixDigest(std::int64_t iters);
    std::size_t prefixElements(std::int64_t iters);

    /** Digest / count / raw lanes of steady iterations [from, to). */
    std::uint64_t rangeDigest(std::int64_t from, std::int64_t to);
    std::size_t rangeElements(std::int64_t from, std::int64_t to);
    std::vector<std::uint32_t> rangeLanes(std::int64_t from,
                                          std::int64_t to);

  private:
    void extend(std::int64_t iters);

    macross::interp::Runner runner_;
    std::vector<std::uint64_t> digest_;  ///< After init + i iters.
    std::vector<std::size_t> elements_;
};

/** Sink elements one steady iteration produces (from the schedule). */
double sinkElementsPerIteration(
    const macross::vectorizer::CompiledProgram& p);

/**
 * In-memory span log of the traced run: name, op id, parent, start
 * and end (microseconds since the log's epoch). Thread-safe; the
 * parent is the innermost span open on the calling thread.
 */
class SpanLog {
  public:
    static SpanLog& instance();

    void enable(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(); }

    std::int64_t open(const char* name, const std::string& op);
    void close(std::int64_t id);

    /** [[name, op, parent, startUs, endUs], ...] */
    json::Value toJson() const;

  private:
    struct Record {
        const char* name;
        std::string op;
        std::int64_t parent;
        double startUs;
        double endUs;
    };

    std::atomic<bool> enabled_{false};
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Record> records_;  ///< Guarded by mu_.
};

/** RAII span; inert unless the log is enabled. */
class Span {
  public:
    explicit Span(const char* name, const std::string& op = {});
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    std::int64_t id_ = -1;
};

/** A field of /proc/<pid>/status in MB ("VmHWM", "VmRSS"); pid 0 =
 *  this process. Returns 0 when unreadable. */
double procStatusMb(long pid, const char* field);

/** File size in bytes (0 when missing). */
std::int64_t fileBytes(const std::string& path);

/** Remove @p dir recursively and create it empty. */
void resetDir(const std::string& dir);

/** Workload entry points (one translation unit each). */
void runSuiteSteady(const Options& opt, Result& res);
void runColdCompile(const Options& opt, Result& res);
void runService(const Options& opt, Result& res);

} // namespace perfbench
