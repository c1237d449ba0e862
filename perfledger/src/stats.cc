#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfledger {

Percentile
percentile(std::vector<double> samples, double p)
{
    Percentile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    const double n = static_cast<double>(samples.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(p * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    out.value = samples[rank - 1];
    out.beyond = samples.size() - rank;
    out.supported = out.beyond >= kMinSamplesBeyond;
    return out;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5).value;
}

Percentile
windowedPercentile(const std::vector<TimedSample> &samples, double span_us,
                   double window_us, double p)
{
    const std::size_t windows =
        static_cast<std::size_t>(std::floor(span_us / window_us));
    std::vector<std::vector<double>> byWindow(windows);
    for (const TimedSample &s : samples) {
        if (s.at < 0.0)
            continue;
        const std::size_t w = static_cast<std::size_t>(s.at / window_us);
        if (w < windows)
            byWindow[w].push_back(s.value);
    }
    Percentile out;
    std::vector<double> perWindow;
    out.beyond = samples.size();
    for (std::vector<double> &values : byWindow) {
        const Percentile wp = percentile(std::move(values), p);
        if (wp.samples == 0)
            continue;
        perWindow.push_back(wp.value);
        out.samples += wp.samples;
        out.beyond = std::min(out.beyond, wp.beyond);
    }
    if (perWindow.empty())
        return Percentile{};
    out.value = median(std::move(perWindow));
    out.supported = out.beyond >= kMinSamplesBeyond;
    return out;
}

Percentile
windowedRate(const std::vector<double> &at, double span_us, double window_us)
{
    const std::size_t windows =
        static_cast<std::size_t>(std::floor(span_us / window_us));
    std::vector<double> counts(windows, 0.0);
    Percentile out;
    for (const double t : at) {
        if (t < 0.0)
            continue;
        const std::size_t w = static_cast<std::size_t>(t / window_us);
        if (w < windows) {
            counts[w] += 1.0;
            ++out.samples;
        }
    }
    if (windows == 0)
        return out;
    out.value = median(std::move(counts)) * 1e6 / window_us;
    out.beyond = windows / 2;
    out.supported = true;
    return out;
}

Percentile
blockRate(const std::vector<double> &at, std::size_t block)
{
    Percentile out;
    if (block == 0)
        return out;
    std::vector<double> rates;
    double from = 0.0;
    for (std::size_t last = block; last <= at.size(); last += block) {
        rates.push_back(static_cast<double>(block) * 1e6 /
                        (at[last - 1] - from));
        from = at[last - 1];
    }
    if (rates.empty())
        return out;
    out.samples = rates.size() * block;
    out.beyond = rates.size() / 2;
    out.supported = true;
    out.value = median(std::move(rates));
    return out;
}

std::uint64_t
FailureLedger::failed() const
{
    return std::min(attempted, busy + deadline + transport + mismatch);
}

double
FailureLedger::failedPct() const
{
    return attempted == 0 ? 0.0
                          : 100.0 * static_cast<double>(failed()) /
                                static_cast<double>(attempted);
}

std::uint64_t
jobContentHash(const predvfs::rtl::JobInput &job)
{
    // Word-at-a-time multiply-xorshift over (item count, per item:
    // field count, fields).
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
    };
    mix(job.items.size());
    for (const predvfs::rtl::WorkItem &item : job.items) {
        mix(item.fields.size());
        for (const std::int64_t f : item.fields)
            mix(static_cast<std::uint64_t>(f));
    }
    return h;
}

namespace {

/** Field-by-field equality of two jobs. */
bool
sameJob(const predvfs::rtl::JobInput &a, const predvfs::rtl::JobInput &b)
{
    if (a.items.size() != b.items.size())
        return false;
    for (std::size_t i = 0; i < a.items.size(); ++i) {
        if (a.items[i].fields != b.items[i].fields)
            return false;
    }
    return true;
}

} // namespace

bool
DuplicateCounter::add(const predvfs::rtl::JobInput &job)
{
    ++seen;
    std::vector<const predvfs::rtl::JobInput *> &bucket =
        byHash[jobContentHash(job)];
    for (const predvfs::rtl::JobInput *earlier : bucket) {
        if (sameJob(*earlier, job)) {
            ++dups;
            return true;
        }
    }
    bucket.push_back(&job);
    return false;
}

void
DuplicateCounter::newStream()
{
    byHash.clear();
}

double
DuplicateCounter::share() const
{
    return seen == 0 ? 0.0
                     : static_cast<double>(dups) / static_cast<double>(seen);
}

} // namespace perfledger
