#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>

namespace revbench::trace
{

namespace
{

using Clock = std::chrono::steady_clock;

std::atomic<bool> gEnabled{false};
std::atomic<rev::u32> gNextId{1};
const Clock::time_point gEpoch = Clock::now();

std::mutex gLock;
std::vector<Span> gSpans; // guarded by gLock

thread_local std::vector<rev::u32> tStack;

std::string
layerOf(const std::string &name)
{
    const std::size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

} // namespace

void
setEnabled(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

double
now()
{
    return std::chrono::duration<double>(Clock::now() - gEpoch).count();
}

rev::u32
record(const std::string &name, double start, double end, rev::u32 parent,
       rev::u64 session)
{
    if (!enabled())
        return 0;
    const rev::u32 id = gNextId.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(gLock);
    gSpans.push_back({name, start, end, id, parent, session});
    return id;
}

rev::u32
current()
{
    return tStack.empty() ? 0 : tStack.back();
}

Scope::Scope(const char *name, rev::u64 session)
    : name_(name), session_(session)
{
    if (!enabled())
        return;
    id_ = gNextId.fetch_add(1, std::memory_order_relaxed);
    parent_ = current();
    tStack.push_back(id_);
    start_ = now();
}

Scope::~Scope()
{
    if (id_ == 0)
        return;
    const double end = now();
    tStack.pop_back();
    std::lock_guard<std::mutex> lock(gLock);
    gSpans.push_back({name_, start_, end, id_, parent_, session_});
}

std::vector<Span>
spans()
{
    std::lock_guard<std::mutex> lock(gLock);
    return gSpans;
}

std::map<std::string, double>
selfTimeByLayer()
{
    const std::vector<Span> all = spans();
    std::map<rev::u32, std::vector<const Span *>> children;
    for (const Span &s : all)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    for (const Span &s : all) {
        double covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            // Union of the children's intervals, clipped to the parent.
            std::vector<std::pair<double, double>> iv;
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->start, s.start),
                                std::min(c->end, s.end));
            std::sort(iv.begin(), iv.end());
            double lo = 0, hi = 0;
            bool open = false;
            for (const auto &[a, b] : iv) {
                if (b <= a)
                    continue;
                if (open && a <= hi) {
                    hi = std::max(hi, b);
                    continue;
                }
                if (open)
                    covered += hi - lo;
                lo = a;
                hi = b;
                open = true;
            }
            if (open)
                covered += hi - lo;
        }
        self[layerOf(s.name)] += std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

bool
writeJson(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[\n";
    bool first = true;
    for (const Span &s : spans()) {
        os << (first ? "" : ",\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.session
           << ",\"ts\":" << s.start * 1e6
           << ",\"dur\":" << (s.end - s.start) * 1e6
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"session\":" << s.session << "}}";
        first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace revbench::trace
