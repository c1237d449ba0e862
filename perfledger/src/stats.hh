/**
 * @file
 * The benchmark's own arithmetic: percentiles with their sample
 * support, open-loop request accounting, failure accounting, and
 * duplicate counting. Kept apart from the workloads so the self-tests
 * (tests/selftest.cc) pin every number the benchmark reports.
 */

#ifndef PERFLEDGER_STATS_HH
#define PERFLEDGER_STATS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rtl/design.hh"

namespace perfledger {

/** A percentile is reported as supported only when at least this many
 *  samples lie beyond it. */
constexpr std::size_t kMinSamplesBeyond = 10;

/** One percentile of a sample, with the counts that qualify it. */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0;  //!< Sample size.
    std::size_t beyond = 0;   //!< Samples ranked above the reported one.
    bool supported = false;   //!< beyond >= kMinSamplesBeyond.
};

/**
 * Nearest-rank percentile: the ceil(p * n)-th smallest sample (1-based,
 * at least the first), so the value is always an observed sample and
 * `beyond` is exactly the count of samples ranked above it. An empty
 * sample yields value 0, unsupported.
 */
Percentile percentile(std::vector<double> samples, double p);

/** Median of @p samples (nearest rank; 0 when empty). */
double median(std::vector<double> samples);

/** A sample stamped with when it was taken. */
struct TimedSample
{
    double at = 0.0;     //!< Microseconds from the measured phase's start.
    double value = 0.0;
};

/**
 * The median, over consecutive windows of @p window_us, of each
 * window's @p p percentile. Only whole windows inside
 * [0, @p span_us) count. A burst that disturbs one window moves one
 * of the medianed values, not the reported one. `samples` is the
 * number of samples in counted windows; `beyond` the fewest samples
 * beyond the percentile in any window, and `supported` holds when
 * every window has at least kMinSamplesBeyond there.
 */
Percentile windowedPercentile(const std::vector<TimedSample> &samples,
                              double span_us, double window_us, double p);

/**
 * The median, over the same whole windows as windowedPercentile(), of
 * each window's event rate per second. @p at holds event times in
 * microseconds from the phase's start; `samples` counts events in
 * whole windows.
 */
Percentile windowedRate(const std::vector<double> &at, double span_us,
                        double window_us);

/**
 * The median, over consecutive whole blocks of @p block events, of each
 * block's event rate per second: @p block over the time from the
 * previous block's last event (from 0 for the first block) to this
 * block's last. @p at holds ascending event times in microseconds from
 * the phase's start. A stall lengthens the blocks it falls in, not the
 * median one. `samples` counts events in whole blocks.
 */
Percentile blockRate(const std::vector<double> &at, std::size_t block);

/** One request of an open-loop run, in microseconds on one clock. */
struct OpenLoopStamp
{
    double due = 0.0;   //!< When the schedule wanted it sent.
    double sent = 0.0;  //!< When the generator actually submitted it.
    double done = 0.0;  //!< When its reply arrived.
};

/** A request's latency, timed from when it was due: a generator or
 *  system stall delays every request scheduled during it, and that
 *  wait is counted. */
inline double
openLoopLatency(const OpenLoopStamp &s)
{
    return s.done - s.due;
}

/** How late the generator submitted a request. */
inline double
generatorLateness(const OpenLoopStamp &s)
{
    return s.sent - s.due;
}

/** One scheduled send of a periodic device. */
struct Arrival
{
    double due = 0.0;          //!< Microseconds from the run's start.
    std::uint32_t device = 0;
    std::uint32_t seq = 0;     //!< The device's frame, and job index.
};

/**
 * Merge the schedules of @p devices devices that each send one request
 * per frame of @p period_us, at offset(device, frame) into the frame
 * (a value in [0, @p period_us)), up to (excluding) @p horizon_us.
 * Sorted by due time, ties by device.
 */
template <class Offset>
std::vector<Arrival>
frameSchedule(std::size_t devices, double period_us, double horizon_us,
              Offset offset)
{
    std::vector<Arrival> out;
    for (std::size_t d = 0; d < devices; ++d) {
        for (std::uint32_t frame = 0; frame * period_us < horizon_us;
             ++frame) {
            const double due = frame * period_us + offset(d, frame);
            if (due < horizon_us)
                out.push_back({due, static_cast<std::uint32_t>(d), frame});
        }
    }
    std::sort(out.begin(), out.end(),
              [](const Arrival &a, const Arrival &b) {
                  return a.due != b.due ? a.due < b.due
                                        : a.device < b.device;
              });
    return out;
}

/**
 * Walk @p schedule open loop: wait for each due time, stamp the send,
 * submit. The reply side stamps `done` itself. Clock and wait are the
 * caller's, so tests can drive the generator on a fake clock.
 *
 * @param now      double() — current time, microseconds.
 * @param wait     void(double due) — block until @p due (may return
 *                 late; lateness is what the stamps record).
 * @param submit   void(std::size_t index, const Arrival &) — send.
 */
template <class Now, class Wait, class Submit>
void
driveOpenLoop(const std::vector<Arrival> &schedule,
              std::vector<OpenLoopStamp> &stamps, double start, Now now,
              Wait wait, Submit submit)
{
    stamps.assign(schedule.size(), OpenLoopStamp{});
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const double due = start + schedule[i].due;
        stamps[i].due = due;
        if (now() < due)
            wait(due);
        stamps[i].sent = now();
        submit(i, schedule[i]);
    }
}

/**
 * Failure accounting. A request fails when the server refused it
 * (each Busy reply counts once), it expired (DeadlineExceeded), the
 * transport lost it, or its reply differed from the in-process
 * reference. A request retried after Busy counts as failed even if a
 * later attempt succeeded: the caller did not get its answer in time.
 */
struct FailureLedger
{
    std::uint64_t attempted = 0;
    std::uint64_t busy = 0;
    std::uint64_t deadline = 0;
    std::uint64_t transport = 0;
    std::uint64_t mismatch = 0;

    /** Failed requests, never more than attempted. */
    std::uint64_t failed() const;

    /** failed() as a percentage of attempted (0 when none). */
    double failedPct() const;
};

/** 64-bit content hash of a job's field vectors (item and field counts
 *  included, so different shapes never collide by concatenation). */
std::uint64_t jobContentHash(const predvfs::rtl::JobInput &job);

/**
 * Counts jobs whose content equals an earlier job's within one
 * stream. Exact: a 64-bit content hash selects candidates, the field
 * vectors decide. Jobs are held by pointer; they must outlive the
 * counter.
 */
class DuplicateCounter
{
  public:
    /** @return true when @p job duplicates an earlier one. */
    bool add(const predvfs::rtl::JobInput &job);

    /** Forget earlier jobs (start a new stream); totals are kept. */
    void newStream();

    std::uint64_t jobs() const { return seen; }
    std::uint64_t duplicates() const { return dups; }

    /** duplicates / jobs (0 when empty). */
    double share() const;

  private:
    std::unordered_map<std::uint64_t,
                       std::vector<const predvfs::rtl::JobInput *>>
        byHash;
    std::uint64_t seen = 0;
    std::uint64_t dups = 0;
};

} // namespace perfledger

#endif // PERFLEDGER_STATS_HH
