#include "trace.hh"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfledger {

double
nowMicros()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

std::uint32_t
Tracer::newId()
{
    if (!on)
        return 0;
    std::lock_guard<std::mutex> lock(mu);
    return ++lastId;
}

void
Tracer::record(std::uint32_t id, const char *name, double start,
               double end, std::uint32_t parent, std::uint64_t request)
{
    if (!on || id == 0)
        return;
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(Span{name, start, end, id, parent, request});
}

std::uint32_t
Tracer::record(const char *name, double start, double end,
               std::uint32_t parent, std::uint64_t request)
{
    const std::uint32_t id = newId();
    record(id, name, start, end, parent, request);
    return id;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return spans.size();
}

bool
Tracer::writeJsonLines(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mu);
    char line[256];
    for (const Span &s : spans) {
        std::snprintf(line, sizeof(line),
                      "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                      "\"id\":%u,\"parent\":%u,\"request\":%llu}\n",
                      s.name, s.start, s.end, s.id, s.parent,
                      static_cast<unsigned long long>(s.request));
        out << line;
    }
    out.flush();
    return static_cast<bool>(out);
}

double
Tracer::recordCostMicros()
{
    constexpr int kSpans = 100000;
    Tracer probe(true);
    probe.spans.reserve(kSpans / 4);  // Growth is part of the cost.
    const double t0 = nowMicros();
    for (int i = 0; i < kSpans; ++i) {
        const double s = nowMicros();
        probe.record("overhead.probe", s, nowMicros(), 1,
                       static_cast<std::uint64_t>(i));
    }
    return (nowMicros() - t0) / kSpans;
}

ScopedSpan::ScopedSpan(Tracer &tracer_, const char *name_,
                       std::uint32_t parent_, std::uint64_t request_)
    : tracer(tracer_), name(name_), parent(parent_), request(request_),
      id(tracer_.newId()), start(nowMicros())
{
}

ScopedSpan::~ScopedSpan()
{
    close();
}

void
ScopedSpan::close()
{
    if (end < 0.0) {
        end = nowMicros();
        tracer.record(id, name, start, end, parent, request);
    }
}

double
ScopedSpan::micros() const
{
    return (end < 0.0 ? nowMicros() : end) - start;
}

} // namespace perfledger
