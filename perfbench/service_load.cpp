/**
 * @file
 * Workload service: tools/macrossd as a child process
 * (--workers = nproc) on the benchmark's private native cache, driven
 * by C closed-loop client threads, one connection each.
 *
 * A round starts a fresh daemon, warms every tenant and artifact the
 * mix uses (setup), then sends a fixed, seeded request mix per client
 * and reads the daemon's stats and /proc counters. Each round is a
 * fresh process because tenants keep every element they captured: a
 * fixed request count keeps memory and counters comparable across
 * commits. Latency is wire to wire at the client; the per-response
 * timing fields of the daemon are never read.
 */
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "benchmarks/suite.h"
#include "common.h"
#include "frontend/parser.h"
#include "service/client.h"
#include "service/protocol.h"
#include "support/diagnostics.h"
#include "tuner/tune_config.h"

extern char** environ;

namespace perfbench {

namespace {

using namespace macross;
using service::Request;
using service::RequestOp;

constexpr int kSmallIters = 2;
constexpr int kLargeIters = 32;
/**
 * Requests per client by class: the counts are fixed and the seed
 * only shuffles their order, so every seed sends the same work.
 */
struct Quota {
    const char* cls;
    int count;
};
constexpr Quota kQuotas[] = {{"warm", 550},  {"large", 100},
                             {"source", 100}, {"output", 100},
                             {"flip", 100},  {"stats", 50}};
/** Benchmarks the clients' tenants rotate through: four sink
 *  elements per iteration each, so a request does little steady-state
 *  work and per-call overhead dominates. */
const char* const kBenchPool[] = {"FMRadio", "FilterBank",
                                  "ChannelVocoder", "BeamFormer"};
const char* const kSourcePool[] = {"equalizer.str", "sorter.str"};

/** One request of the mix plus what its check needs. */
struct Planned {
    std::string cls;
    Request req;
    std::string program;  ///< Reference key ("" for stats).
};

struct ClientPlan {
    std::string bench;
    std::string source;  ///< Example file name.
    std::vector<Planned> warmup;
    std::vector<Planned> requests;
};

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot read ", path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

Planned
runRequest(const std::string& cls, const std::string& id,
           const std::string& tenant, const std::string& bench,
           const std::string& source, const std::string& program,
           int iters, int laneWidth, bool wantOutput)
{
    Planned p;
    p.cls = cls;
    p.program = program;
    p.req.op = RequestOp::Run;
    p.req.id = id;
    p.req.tenant = tenant;
    p.req.bench = bench;
    p.req.source = source;
    p.req.iters = iters;
    p.req.wantOutput = wantOutput;
    p.req.config.laneWidth = laneWidth;
    return p;
}

/** The seeded mix: per-client tenants, a seeded rotation of benches
 *  and sources over the clients, and a seeded order of each client's
 *  fixed class quotas. */
std::vector<ClientPlan>
planMix(const Options& opt, const std::map<std::string, std::string>&
                                sources)
{
    std::uint64_t state = opt.seed ^ 0x5e41ce5eull;
    const std::uint64_t benchShift = splitmix64(state);
    const std::uint64_t sourceShift = splitmix64(state);
    std::vector<ClientPlan> plans(static_cast<std::size_t>(opt.clients));
    for (int c = 0; c < opt.clients; ++c) {
        ClientPlan& cp = plans[static_cast<std::size_t>(c)];
        const auto k = static_cast<std::uint64_t>(c);
        cp.bench = kBenchPool[(k + benchShift) % std::size(kBenchPool)];
        cp.source =
            kSourcePool[(k + sourceShift) % std::size(kSourcePool)];
        std::vector<const char*> order;
        for (const Quota& q : kQuotas)
            order.insert(order.end(), static_cast<std::size_t>(q.count),
                         q.cls);
        for (std::size_t i = order.size() - 1; i > 0; --i)
            std::swap(order[i], order[splitmix64(state) % (i + 1)]);
        const std::string pre = "c" + std::to_string(c);
        const std::string benchKey = "bench:" + cp.bench;
        const std::string srcKey = "src:" + cp.source;
        const std::string& text = sources.at(cp.source);
        // Warm-up: every tenant live, both flip widths compiled and
        // marked warm, the flip tenant left at W4.
        cp.warmup = {
            runRequest("warm", pre + "-w0", pre + ".bench", cp.bench, "",
                       benchKey, 1, 4, false),
            runRequest("source", pre + "-w1", pre + ".src", "", text,
                       srcKey, 1, 4, false),
            runRequest("flip", pre + "-w2", pre + ".flip", cp.bench, "",
                       benchKey, 1, 1, false),
            runRequest("flip", pre + "-w3", pre + ".flip", cp.bench, "",
                       benchKey, 1, 4, false),
        };
        int flipWidth = 4;
        for (std::size_t i = 0; i < order.size(); ++i) {
            const std::string id = pre + "-" + std::to_string(i);
            const std::string cls = order[i];
            if (cls == "warm") {
                cp.requests.push_back(
                    runRequest("warm", id, pre + ".bench", cp.bench, "",
                               benchKey, kSmallIters, 4, false));
            } else if (cls == "large") {
                cp.requests.push_back(
                    runRequest("large", id, pre + ".bench", cp.bench,
                               "", benchKey, kLargeIters, 4, false));
            } else if (cls == "source") {
                cp.requests.push_back(
                    runRequest("source", id, pre + ".src", "", text,
                               srcKey, kSmallIters, 4, false));
            } else if (cls == "output") {
                cp.requests.push_back(
                    runRequest("output", id, pre + ".bench", cp.bench,
                               "", benchKey, kSmallIters, 4, true));
            } else if (cls == "flip") {
                flipWidth = flipWidth == 4 ? 1 : 4;
                cp.requests.push_back(
                    runRequest("flip", id, pre + ".flip", cp.bench, "",
                               benchKey, kSmallIters, flipWidth,
                               false));
            } else {
                Planned p;
                p.cls = "stats";
                p.req.op = RequestOp::Stats;
                p.req.id = id;
                cp.requests.push_back(std::move(p));
            }
        }
    }
    return plans;
}

/** macrossd as a child process; stopped and reaped on destruction. */
class DaemonProcess {
  public:
    DaemonProcess(const Options& opt, const std::string& socket,
                  const std::string& cacheDir)
    {
        std::string bin = opt.binDir + "/macrossd";
        std::string log = opt.workDir + "/macrossd.log";
        std::vector<std::string> args = {
            bin, "--socket", socket, "--workers",
            std::to_string(std::max(1u,
                                    std::thread::hardware_concurrency())),
            "--cache-dir", cacheDir};
        std::vector<char*> argv;
        for (auto& a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0600);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr,
                             argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        fatalIf(rc != 0, "cannot start ", bin, ": ", std::strerror(rc));
    }

    ~DaemonProcess() { stop(); }
    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    long pid() const { return pid_; }

    /** Wait up to @p ms for exit; true once reaped. */
    bool waitExit(int ms)
    {
        for (int waited = 0; pid_ > 0; waited += 10) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                break;
            }
            if (waited >= ms)
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return true;
    }

    void stop()
    {
        if (pid_ <= 0)
            return;
        if (waitExit(0))
            return;
        ::kill(pid_, SIGTERM);
        if (!waitExit(5000)) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            ::waitpid(pid_, &status, 0);
            pid_ = -1;
        }
    }

  private:
    pid_t pid_ = -1;
};

/** Connect once the daemon's socket accepts (or fail after 20 s). */
std::unique_ptr<service::Client>
connectWhenReady(const std::string& socket, DaemonProcess& d)
{
    auto t0 = Clock::now();
    for (;;) {
        try {
            auto c = std::make_unique<service::Client>(socket);
            if (c->ping()["ok"].asBool())
                return c;
        } catch (const std::exception&) {
        }
        fatalIf(d.waitExit(0), "macrossd exited during startup");
        fatalIf(secondsSince(t0) > 20.0,
                "macrossd did not accept connections within 20 s");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto i = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(i, v.size() - 1)];
}

std::int64_t
counter(const json::Value& stats, const char* name)
{
    const json::Value* c = stats.find("counters");
    const json::Value* v = c ? c->find(name) : nullptr;
    return v ? v->asInt() : 0;
}

/** Bytecode-VM references per program key, kept across rounds. */
class References {
  public:
    explicit References(
        const std::map<std::string, std::string>& sources)
    {
        sopts_ = tuner::TuneConfig{}.simdizeOptions();
        for (const char* b : kBenchPool)
            programs_["bench:" + std::string(b)] =
                benchmarks::benchmarkByName(b);
        for (const auto& [name, text] : sources)
            programs_["src:" + name] = frontend::parseProgram(text);
    }

    ReferenceStream& at(const std::string& key)
    {
        auto it = streams_.find(key);
        if (it == streams_.end()) {
            compiled_[key] = std::make_unique<vectorizer::CompiledProgram>(
                vectorizer::macroSimdize(programs_.at(key), sopts_));
            it = streams_
                     .emplace(key, std::make_unique<ReferenceStream>(
                                       *compiled_[key]))
                     .first;
        }
        return *it->second;
    }

  private:
    vectorizer::SimdizeOptions sopts_;
    std::map<std::string, graph::StreamPtr> programs_;
    std::map<std::string, std::unique_ptr<vectorizer::CompiledProgram>>
        compiled_;
    std::map<std::string, std::unique_ptr<ReferenceStream>> streams_;
};

/** Where each tenant's stream stands, for range checks. */
struct TenantState {
    std::int64_t pos = 0;
    int laneWidth = 0;
};

void
verifyResponse(const Planned& p, const json::Value& resp,
               References& refs,
               std::map<std::string, TenantState>& tenants, Result& res)
{
    const std::string what = p.cls + " request " + p.req.id;
    const json::Value* ok = resp.find("ok");
    if (!ok || !ok->asBool()) {
        const json::Value* kind = resp.find("kind");
        res.check(false, what + " failed: " +
                             (kind ? kind->asString() : resp.dump()));
        return;
    }
    if (p.req.op == RequestOp::Stats) {
        res.check(resp.find("counters") != nullptr,
                  what + ": no counters");
        return;
    }
    TenantState& t = tenants[p.req.tenant];
    if (t.laneWidth != p.req.config.laneWidth) {
        // A new artifact rebuilds the tenant's runner: the daemon
        // reports the fresh stream from its first steady iteration.
        t.pos = 0;
        t.laneWidth = p.req.config.laneWidth;
    }
    ReferenceStream& ref = refs.at(p.program);
    std::int64_t from = t.pos, to = t.pos + p.req.iters;
    t.pos = to;
    const json::Value* elements = resp.find("elements");
    const json::Value* checksum = resp.find("checksum");
    if (!elements || !checksum) {
        res.check(false, what + ": result without elements/checksum");
        return;
    }
    res.check(elements->asInt() ==
                  static_cast<std::int64_t>(ref.rangeElements(from, to)),
              what + ": element count differs from the VM");
    std::uint64_t got = std::stoull(checksum->asString(), nullptr, 16);
    res.checkDigest(what, got, ref.rangeDigest(from, to));
    if (p.req.wantOutput) {
        std::vector<std::uint32_t> want = ref.rangeLanes(from, to);
        const json::Value* out = resp.find("output");
        bool same = out && out->size() == want.size();
        for (std::size_t i = 0; same && i < want.size(); ++i)
            same = static_cast<std::uint32_t>(out->at(i).asInt()) ==
                   want[i];
        res.check(same, what + ": output lanes differ from the VM");
    }
}

/** In-process protocol cost over the recorded mix. */
void
timeProtocol(const std::vector<ClientPlan>& plans, json::Value& vals)
{
    constexpr int kPasses = 5;
    std::vector<std::string> lines;
    double serializeUs = 0.0, parseUs = 0.0;
    std::size_t n = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
        lines.clear();
        auto t0 = Clock::now();
        for (const ClientPlan& cp : plans)
            for (const Planned& p : cp.requests)
                lines.push_back(p.req.toJson().dump());
        serializeUs += msSince(t0) * 1e3;
        auto t1 = Clock::now();
        std::size_t parsed = 0;
        for (const std::string& line : lines)
            parsed += Request::fromJson(json::parse(line)).id.size();
        parseUs += msSince(t1) * 1e3;
        n += lines.size();
        fatalIf(parsed == 0, "protocol round trip lost every id");
    }
    vals["protocol.serialize_us"] = serializeUs / static_cast<double>(n);
    vals["protocol.parse_us"] = parseUs / static_cast<double>(n);
}

/** One round: fresh daemon, warm-up (setup), measured mix, checks. */
void
runRound(const Options& opt, const std::vector<ClientPlan>& plans,
         References& refs, bool traced, Result& res,
         std::vector<double>& setupOut, json::Value& vals)
{
    const std::string socket = opt.workDir + "/macrossd.sock";
    const std::string cacheDir = opt.workDir + "/native-cache";
    std::map<std::string, TenantState> tenants;
    std::vector<json::Value> warmed;

    auto setupStart = Clock::now();
    std::unique_ptr<DaemonProcess> daemon;
    std::unique_ptr<service::Client> admin;
    {
        Span root("setup");
        {
            Span s("service.spawn");
            daemon = std::make_unique<DaemonProcess>(opt, socket,
                                                     cacheDir);
            admin = connectWhenReady(socket, *daemon);
        }
        Span s("service.warmup");
        for (const ClientPlan& cp : plans)
            for (const Planned& p : cp.warmup)
                warmed.push_back(admin->call(p.req));
    }
    setupOut.push_back(secondsSince(setupStart));
    std::size_t w = 0;
    for (const ClientPlan& cp : plans)
        for (const Planned& p : cp.warmup)
            verifyResponse(p, warmed[w++], refs, tenants, res);
    json::Value before = admin->stats();
    double rssWarm = procStatusMb(daemon->pid(), "VmRSS");

    // Measured phase: C closed-loop clients, one connection each.
    std::vector<std::unique_ptr<service::Client>> conns;
    for (std::size_t c = 0; c < plans.size(); ++c)
        conns.push_back(std::make_unique<service::Client>(socket));
    std::vector<std::vector<json::Value>> responses(plans.size());
    std::vector<std::vector<double>> latencyUs(plans.size());
    std::vector<std::string> errors(plans.size());
    auto phaseStart = Clock::now();
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < plans.size(); ++c) {
            threads.emplace_back([&, c] {
                try {
                    for (const Planned& p : plans[c].requests) {
                        Span s("op.request", p.req.id);
                        auto t0 = Clock::now();
                        responses[c].push_back(conns[c]->call(p.req));
                        latencyUs[c].push_back(msSince(t0) * 1e3);
                    }
                } catch (const std::exception& e) {
                    errors[c] = e.what();
                }
            });
        }
        for (auto& t : threads)
            t.join();
    }
    double phaseS = secondsSince(phaseStart);
    json::Value after = admin->stats();
    double hwm = procStatusMb(daemon->pid(), "VmHWM");
    double rssEnd = procStatusMb(daemon->pid(), "VmRSS");
    conns.clear();
    try {
        admin->shutdown();
    } catch (const std::exception&) {
        // The reply may race the daemon closing the socket.
    }
    admin.reset();
    if (!daemon->waitExit(10000))
        res.check(false, "macrossd did not exit after shutdown");
    daemon->stop();

    // Checks and statistics, outside the timed phase.
    std::map<std::string, std::vector<double>> byClass;
    std::vector<double> all;
    std::int64_t sent = 0;
    for (std::size_t c = 0; c < plans.size(); ++c) {
        res.check(errors[c].empty(),
                  "client " + std::to_string(c) + ": " + errors[c]);
        for (std::size_t i = 0; i < responses[c].size(); ++i) {
            const Planned& p = plans[c].requests[i];
            verifyResponse(p, responses[c][i], refs, tenants, res);
            byClass[p.cls].push_back(latencyUs[c][i]);
            all.push_back(latencyUs[c][i]);
        }
        sent += static_cast<std::int64_t>(plans[c].requests.size());
    }
    vals["req_per_s"] = static_cast<double>(sent) / phaseS;
    vals["req_p50_us"] = percentile(all, 0.50);
    vals["req_p99_us"] = percentile(all, 0.99);
    vals["req_samples"] = static_cast<std::int64_t>(all.size());
    vals["daemon_hwm_mb"] = hwm;
    vals["service.rss_growth_mb"] = rssEnd - rssWarm;
    for (const Quota& q : kQuotas) {
        const std::string cls = q.cls;
        const auto& v = byClass[cls];
        vals["service.latency_us." + cls + ".p50"] = percentile(v, 0.50);
        vals["service.latency_us." + cls + ".p99"] = percentile(v, 0.99);
        vals["service.samples." + cls] =
            static_cast<std::int64_t>(v.size());
    }
    auto delta = [&](const char* name) {
        return counter(after, name) - counter(before, name);
    };
    vals["service.compiles"] = delta("compiles");
    vals["service.cache_hits"] = delta("cacheHits");
    vals["service.coalesced"] = delta("coalesced");
    vals["service.overloaded"] = delta("overloaded");
    std::int64_t batches = delta("batchesAdmitted");
    vals["service.jobs_per_batch"] =
        batches > 0 ? static_cast<double>(delta("jobsAdmitted")) /
                          static_cast<double>(batches)
                    : 0.0;
    res.check(delta("compiles") == 0,
              "host compiles during the measured phase");
    if (traced)
        timeProtocol(plans, vals);
}

} // namespace

void
runService(const Options& opt, Result& res)
{
    std::map<std::string, std::string> sources;
    for (const char* name : kSourcePool)
        sources[name] =
            readFile(kExamplesDir + name);
    std::vector<ClientPlan> plans = planMix(opt, sources);
    References refs(sources);

    const auto start = Clock::now();
    for (int round = 0;; ++round) {
        double elapsed = secondsSince(start);
        bool traced = opt.trace && round % 2 == 1;
        bool needMore = round == 0 || (opt.trace && round == 1);
        if (!needMore && elapsed >= opt.seconds &&
            (!opt.trace || round % 2 == 0))
            break;
        SpanLog::instance().enable(traced);
        json::Value vals = json::Value::object();
        runRound(opt, plans, refs, traced, res,
                 traced ? res.tracedSetupSeconds : res.setupSeconds,
                 vals);
        SpanLog::instance().enable(false);
        json::Value r = json::Value::object();
        r["traced"] = traced;
        r["values"] = std::move(vals);
        res.rounds.push(std::move(r));
    }
}

} // namespace perfbench
