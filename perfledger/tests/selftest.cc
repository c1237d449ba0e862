/**
 * @file
 * Self-tests of the benchmark's own arithmetic: percentile choice and
 * support, open-loop timing from the scheduled send, failure
 * accounting, and duplicate counting. run.py runs them before every
 * measurement; a failure stops the run.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "stats.hh"

using namespace perfledger;
using predvfs::rtl::JobInput;
using predvfs::rtl::WorkItem;

namespace {

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

JobInput
job(std::vector<std::vector<std::int64_t>> items)
{
    JobInput j;
    for (auto &fields : items)
        j.items.push_back(WorkItem{std::move(fields)});
    return j;
}

} // namespace

TEST(Percentile, NearestRankOnObservedSamples)
{
    const std::vector<double> v = {7, 1, 5, 3, 6, 2, 4};
    const Percentile p50 = percentile(v, 0.5);
    EXPECT_EQ(p50.value, 4.0);  // rank ceil(3.5) = 4 of 7
    EXPECT_EQ(p50.samples, 7u);
    EXPECT_EQ(p50.beyond, 3u);
    EXPECT_EQ(percentile(v, 0.0).value, 1.0);
    EXPECT_EQ(percentile(v, 1.0).value, 7.0);
    EXPECT_EQ(percentile(oneTo(10), 0.9).value, 9.0);
    EXPECT_EQ(median(oneTo(10)), 5.0);
}

TEST(Percentile, SupportNeedsTenSamplesBeyond)
{
    // p90 of 100 leaves exactly 10 above it; of 99 only 9.
    EXPECT_TRUE(percentile(oneTo(100), 0.9).supported);
    EXPECT_EQ(percentile(oneTo(100), 0.9).beyond, 10u);
    EXPECT_FALSE(percentile(oneTo(99), 0.9).supported);
    EXPECT_EQ(percentile(oneTo(99), 0.9).beyond, 9u);
    // p99 needs a thousand samples.
    EXPECT_TRUE(percentile(oneTo(1000), 0.99).supported);
    EXPECT_FALSE(percentile(oneTo(999), 0.99).supported);
    // The median needs twenty.
    EXPECT_TRUE(percentile(oneTo(20), 0.5).supported);
    EXPECT_FALSE(percentile(oneTo(19), 0.5).supported);
}

TEST(Percentile, EmptySampleIsUnsupportedZero)
{
    const Percentile p = percentile({}, 0.5);
    EXPECT_EQ(p.value, 0.0);
    EXPECT_EQ(p.samples, 0u);
    EXPECT_FALSE(p.supported);
}

TEST(Percentile, WindowedMedianIgnoresOneBurstWindow)
{
    // Five 1000 us windows of 100 samples each; window 2 is a burst.
    std::vector<TimedSample> s;
    for (int w = 0; w < 5; ++w) {
        for (int i = 1; i <= 100; ++i) {
            const double base = w == 2 ? 1000.0 : 0.0;
            s.push_back({w * 1000.0 + i * 9.0, base + i});
        }
    }
    s.push_back({5200.0, 1e9});  // Partial trailing window: ignored.
    const Percentile p90 = windowedPercentile(s, 5500.0, 1000.0, 0.9);
    EXPECT_EQ(p90.value, 90.0);
    EXPECT_EQ(p90.samples, 500u);
    EXPECT_EQ(p90.beyond, 10u);
    EXPECT_TRUE(p90.supported);
    // The pooled percentile is what the burst would have moved.
    std::vector<double> pooled;
    for (const TimedSample &x : s)
        pooled.push_back(x.value);
    EXPECT_GT(percentile(pooled, 0.9).value, 1000.0);
    // Too few samples per window: reported, but unsupported.
    EXPECT_FALSE(windowedPercentile(s, 5500.0, 100.0, 0.9).supported);
    EXPECT_EQ(windowedPercentile({}, 5500.0, 1000.0, 0.9).value, 0.0);
}

TEST(Percentile, WindowedRateIsTheMedianWindowsRate)
{
    // Windows of 500 us hold 3, 1 (a stall), 3, 4 events; the
    // trailing partial window and negative times are ignored.
    const std::vector<double> at = {-5, 10, 20, 30, 600, 1100, 1200,
                                    1300, 1600, 1700, 1800, 1900, 2100};
    const Percentile r = windowedRate(at, 2200.0, 500.0);
    EXPECT_EQ(r.value, 6000.0);  // Median count 3 per 500 us.
    EXPECT_EQ(r.samples, 11u);
    EXPECT_EQ(windowedRate(at, 400.0, 500.0).value, 0.0);
}

TEST(Percentile, BlockRateIsTheMedianBlocksRate)
{
    // Blocks of 2 events take 200, 200, 1000 (a stall), 250 and 200 us;
    // the trailing partial block is ignored.
    const std::vector<double> at = {100, 200,  300,  400,  900,
                                    1400, 1500, 1650, 1750, 1850, 1900};
    const Percentile r = blockRate(at, 2);
    EXPECT_EQ(r.value, 10000.0);  // Median block: 2 events per 200 us.
    EXPECT_EQ(r.samples, 10u);
    EXPECT_TRUE(r.supported);
    EXPECT_EQ(blockRate({100, 200}, 3).value, 0.0);
    EXPECT_EQ(blockRate(at, 0).samples, 0u);
}

TEST(OpenLoop, ScheduleMergesDevicesInDueOrder)
{
    const std::vector<double> phase = {0.0, 500.0};
    const std::vector<Arrival> s = frameSchedule(
        2, 1000.0, 3000.0,
        [&](std::size_t d, std::uint32_t) { return phase[d]; });
    ASSERT_EQ(s.size(), 6u);
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(s[i].due, 500.0 * static_cast<double>(i));
        EXPECT_EQ(s[i].device, i % 2);
        EXPECT_EQ(s[i].seq, i / 2);
    }
}

TEST(OpenLoop, OneRequestPerDevicePerFrame)
{
    // Offsets that move every frame keep every send inside its frame.
    const std::vector<Arrival> s = frameSchedule(
        3, 1000.0, 5500.0, [](std::size_t d, std::uint32_t f) {
            return static_cast<double>((d * 7 + f * 13) % 10) * 99.0;
        });
    std::vector<std::vector<int>> perFrame(3, std::vector<int>(6, 0));
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_GE(s[i].due, s[i].seq * 1000.0);
        EXPECT_LT(s[i].due, (s[i].seq + 1) * 1000.0);
        EXPECT_LT(s[i].due, 5500.0);
        if (i > 0) {
            EXPECT_LE(s[i - 1].due, s[i].due);
        }
        ++perFrame[s[i].device][s[i].seq];
    }
    for (std::size_t d = 0; d < 3; ++d) {
        for (std::size_t f = 0; f < 5; ++f)
            EXPECT_EQ(perFrame[d][f], 1);
    }
}

TEST(OpenLoop, StallInflatesLaterRequestsFromTheirDueTime)
{
    // One device every 1000 us; the generator stalls 5000 us while
    // submitting request 3; every reply takes 100 us after its send.
    const std::vector<Arrival> schedule = frameSchedule(
        1, 1000.0, 10000.0, [](std::size_t, std::uint32_t) { return 0.0; });
    double clock = 0.0;
    std::vector<OpenLoopStamp> stamps;
    driveOpenLoop(
        schedule, stamps, 0.0, [&] { return clock; },
        [&](double due) { clock = due; },
        [&](std::size_t i, const Arrival &) {
            stamps[i].done = clock + 100.0;
            if (i == 3)
                clock += 5000.0;
        });
    ASSERT_EQ(stamps.size(), 10u);
    EXPECT_EQ(openLoopLatency(stamps[2]), 100.0);
    EXPECT_EQ(openLoopLatency(stamps[3]), 100.0);
    // Requests 4..7 were due during the stall and went out at 8000.
    EXPECT_EQ(generatorLateness(stamps[4]), 4000.0);
    EXPECT_EQ(openLoopLatency(stamps[4]), 4100.0);
    EXPECT_EQ(openLoopLatency(stamps[7]), 1100.0);
    // Timed from the actual send, the stall would vanish.
    EXPECT_EQ(stamps[4].done - stamps[4].sent, 100.0);
    // The generator has caught up by request 8.
    EXPECT_EQ(generatorLateness(stamps[8]), 0.0);
    EXPECT_EQ(openLoopLatency(stamps[8]), 100.0);

    std::vector<double> lat;
    for (const OpenLoopStamp &s : stamps)
        lat.push_back(openLoopLatency(s));
    // Sorted: six at 100, then 1100, 2100, 3100, 4100; rank 9 of 10.
    EXPECT_EQ(percentile(lat, 0.9).value, 3100.0);
}

TEST(Failures, EachKindCountsAgainstAttempted)
{
    FailureLedger f;
    EXPECT_EQ(f.failedPct(), 0.0);
    f.attempted = 200;
    f.busy = 2;
    f.deadline = 3;
    f.mismatch = 1;
    EXPECT_EQ(f.failed(), 6u);
    EXPECT_DOUBLE_EQ(f.failedPct(), 3.0);
    f.transport = 4;
    EXPECT_EQ(f.failed(), 10u);

    FailureLedger g;
    g.attempted = 2;
    g.busy = 5;  // Repeated Busy on two requests.
    EXPECT_EQ(g.failed(), 2u);
    EXPECT_DOUBLE_EQ(g.failedPct(), 100.0);
}

TEST(Duplicates, ExactContentWithinAStream)
{
    const JobInput a = job({{1, 2}, {3}});
    const JobInput a2 = job({{1, 2}, {3}});
    const JobInput b = job({{1}, {2, 3}});  // Same fields, other shape.
    const JobInput c = job({{4}});
    DuplicateCounter dups;
    EXPECT_FALSE(dups.add(a));
    EXPECT_FALSE(dups.add(b));
    EXPECT_TRUE(dups.add(a2));
    EXPECT_FALSE(dups.add(c));
    EXPECT_TRUE(dups.add(b));
    EXPECT_EQ(dups.jobs(), 5u);
    EXPECT_EQ(dups.duplicates(), 2u);
    EXPECT_DOUBLE_EQ(dups.share(), 0.4);

    // A new stream forgets earlier jobs but keeps the totals.
    dups.newStream();
    EXPECT_FALSE(dups.add(a));
    EXPECT_EQ(dups.jobs(), 6u);
    EXPECT_DOUBLE_EQ(dups.share(), 2.0 / 6.0);
}
