/**
 * @file
 * Spans recorded by the benchmark around its own calls into each
 * layer of the library. Spans are kept in memory and written as JSON
 * lines when the run ends; nothing is written while measuring.
 */

#ifndef PERFLEDGER_TRACE_HH
#define PERFLEDGER_TRACE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfledger {

/** One timed interval. Times are microseconds since the process's
 *  clock origin (see nowMicros()). */
struct Span
{
    const char *name = "";       //!< Static string: the layer call.
    double start = 0.0;
    double end = 0.0;
    std::uint32_t id = 0;        //!< 1-based; 0 means "no span".
    std::uint32_t parent = 0;    //!< The span that caused this one.
    std::uint64_t request = 0;   //!< Request id; 0 when not a request.
};

/** Microseconds on the steady clock since the first call. */
double nowMicros();

/** In-memory span store. Disabled tracers record nothing and hand out
 *  id 0, so call sites need no branches. Thread-safe. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    /** Reserve a span id, so children can name a parent that has not
     *  ended yet. @return 0 when disabled. */
    std::uint32_t newId();

    /** Record a finished span under a reserved @p id (no-op for id 0). */
    void record(std::uint32_t id, const char *name, double start,
                double end, std::uint32_t parent = 0,
                std::uint64_t request = 0);

    /** Reserve an id and record a finished span; @return its id. */
    std::uint32_t record(const char *name, double start, double end,
                         std::uint32_t parent = 0,
                         std::uint64_t request = 0);

    /** Spans recorded so far. */
    std::size_t size() const;

    /** Write every span as one JSON object per line. @return false on
     *  I/O failure. */
    bool writeJsonLines(const std::string &path) const;

    /** Microseconds one record() call costs, measured on a throwaway
     *  tracer (the tracing overhead per span). */
    static double recordCostMicros();

  private:
    bool on;
    mutable std::mutex mu;
    std::uint32_t lastId = 0;
    std::vector<Span> spans;
};

/** Times a scope and records it on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::uint32_t parent = 0,
               std::uint64_t request = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** End now (idempotent). */
    void close();

    /** This span's id, valid from construction (0 when disabled). */
    std::uint32_t spanId() const { return id; }

    /** Elapsed microseconds so far (or total, once closed). */
    double micros() const;

  private:
    Tracer &tracer;
    const char *name;
    std::uint32_t parent;
    std::uint64_t request;
    std::uint32_t id;
    double start;
    double end = -1.0;
};

} // namespace perfledger

#endif // PERFLEDGER_TRACE_HH
