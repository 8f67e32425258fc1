/**
 * @file
 * Result bookkeeping, the VM reference stream and the span log.
 */
#include "common.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "service/protocol.h"

namespace perfbench {

namespace fs = std::filesystem;
using macross::service::checksumLanes;
using macross::service::flattenLanes;
using macross::service::hex64;

void
Result::check(bool ok, const std::string& what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    // Keep the report readable when one defect fails every round.
    if (failures.size() < 20)
        failures.push_back(what);
}

void
Result::checkDigest(const std::string& what, std::uint64_t got,
                    std::uint64_t want)
{
    if (digestChecks_++ == corruptReference)
        want ^= 1;
    check(got == want, what + ": digest " + hex64(got) +
                           " != VM reference " + hex64(want));
}

ReferenceStream::ReferenceStream(
    const macross::vectorizer::CompiledProgram& program)
    : runner_(program.graph, program.schedule)
{
    runner_.runInit();
    digest_.push_back(checksumLanes(runner_.captured()));
    elements_.push_back(runner_.captured().size());
}

void
ReferenceStream::extend(std::int64_t iters)
{
    while (static_cast<std::int64_t>(digest_.size()) <= iters) {
        std::size_t before = runner_.captured().size();
        runner_.runSteady(1);
        digest_.push_back(digest_.back() +
                          checksumLanes(runner_.captured(), before));
        elements_.push_back(runner_.captured().size());
    }
}

std::uint64_t
ReferenceStream::prefixDigest(std::int64_t iters)
{
    extend(iters);
    return digest_[static_cast<std::size_t>(iters)];
}

std::size_t
ReferenceStream::prefixElements(std::int64_t iters)
{
    extend(iters);
    return elements_[static_cast<std::size_t>(iters)];
}

std::uint64_t
ReferenceStream::rangeDigest(std::int64_t from, std::int64_t to)
{
    // Lane sums are additive mod 2^64, so a range is a difference.
    return prefixDigest(to) - prefixDigest(from);
}

std::size_t
ReferenceStream::rangeElements(std::int64_t from, std::int64_t to)
{
    return prefixElements(to) - prefixElements(from);
}

std::vector<std::uint32_t>
ReferenceStream::rangeLanes(std::int64_t from, std::int64_t to)
{
    extend(to);
    std::vector<std::uint32_t> lanes =
        flattenLanes(runner_.captured(), prefixElements(from));
    std::size_t keep = 0;
    for (std::size_t i = prefixElements(from); i < prefixElements(to);
         ++i)
        keep += static_cast<std::size_t>(runner_.captured()[i].lanes());
    lanes.resize(keep);
    return lanes;
}

double
sinkElementsPerIteration(const macross::vectorizer::CompiledProgram& p)
{
    for (const auto& a : p.graph.actors) {
        if (a.isFilter() && a.outputs.empty() && !a.inputs.empty())
            return static_cast<double>(p.schedule.reps[a.id] *
                                       a.def->pop);
    }
    return 1.0;
}

SpanLog&
SpanLog::instance()
{
    static SpanLog log;
    return log;
}

namespace {
/** Open spans of the calling thread, innermost last. */
thread_local std::vector<std::int64_t> openSpans;
} // namespace

std::int64_t
SpanLog::open(const char* name, const std::string& op)
{
    double now = std::chrono::duration<double, std::micro>(
                     Clock::now() - epoch_)
                     .count();
    std::int64_t parent = openSpans.empty() ? -1 : openSpans.back();
    std::int64_t id;
    {
        std::lock_guard<std::mutex> lk(mu_);
        id = static_cast<std::int64_t>(records_.size());
        records_.push_back({name, op, parent, now, now});
    }
    openSpans.push_back(id);
    return id;
}

void
SpanLog::close(std::int64_t id)
{
    double now = std::chrono::duration<double, std::micro>(
                     Clock::now() - epoch_)
                     .count();
    if (!openSpans.empty() && openSpans.back() == id)
        openSpans.pop_back();
    std::lock_guard<std::mutex> lk(mu_);
    records_[static_cast<std::size_t>(id)].endUs = now;
}

json::Value
SpanLog::toJson() const
{
    std::lock_guard<std::mutex> lk(mu_);
    json::Value out = json::Value::array();
    for (const Record& r : records_) {
        json::Value s = json::Value::array();
        s.push(r.name);
        s.push(r.op);
        s.push(r.parent);
        s.push(r.startUs);
        s.push(r.endUs);
        out.push(std::move(s));
    }
    return out;
}

Span::Span(const char* name, const std::string& op)
{
    SpanLog& log = SpanLog::instance();
    if (log.enabled())
        id_ = log.open(name, op);
}

Span::~Span()
{
    if (id_ >= 0)
        SpanLog::instance().close(id_);
}

double
procStatusMb(long pid, const char* field)
{
    std::string path = pid == 0 ? "/proc/self/status"
                                : "/proc/" + std::to_string(pid) +
                                      "/status";
    std::ifstream in(path);
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0) {
            std::istringstream fields(line.substr(key.size()));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

std::int64_t
fileBytes(const std::string& path)
{
    std::error_code ec;
    auto n = fs::file_size(path, ec);
    return ec ? 0 : static_cast<std::int64_t>(n);
}

void
resetDir(const std::string& dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
}

} // namespace perfbench
