/**
 * @file
 * JobCache: content addressing (exact canonical keys, stream-key
 * separation), LRU eviction determinism across capacities, and the
 * memoised SimulationEngine::prepare — duplicate-heavy and all-unique
 * workloads, byte-identity with direct interpretation, and the
 * clean-simulation-only invariant under an active FaultSchedule.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_set>

#include "accel/registry.hh"
#include "core/flow.hh"
#include "rtl/interpreter.hh"
#include "sim/engine.hh"
#include "sim/fault.hh"
#include "sim/job_cache.hh"
#include "util/env.hh"
#include "workload/suite.hh"

using namespace predvfs;
using namespace predvfs::sim;

namespace {

/** A one-item job whose single field is @p value. */
rtl::JobInput
jobOf(std::int64_t value)
{
    rtl::JobInput job;
    rtl::WorkItem item;
    item.fields = {value};
    job.items.push_back(std::move(item));
    return job;
}

CachedJob
payloadOf(double seed)
{
    CachedJob value;
    value.cycles = static_cast<std::uint64_t>(seed * 100.0);
    value.energyUnits = seed;
    value.sliceCycles = static_cast<std::uint64_t>(seed * 10.0);
    value.sliceEnergyUnits = seed * 0.5;
    value.predictedCycles = seed * 99.0;
    return value;
}

} // namespace

TEST(JobCache, StreamingHashMatchesFlattenedKeyHash)
{
    // lookup() hashes the job in place; insert() hashes the flattened
    // key. The two must agree or every probe after an insert misses.
    std::vector<rtl::JobInput> jobs;
    jobs.push_back(rtl::JobInput{});  // No items at all.
    jobs.push_back(jobOf(0));
    jobs.push_back(jobOf(-1));
    rtl::JobInput mixed;
    for (int i = 0; i < 5; ++i) {
        rtl::WorkItem item;
        for (int f = 0; f <= i; ++f)
            item.fields.push_back(i * 1000 + f);
        mixed.items.push_back(std::move(item));
    }
    mixed.items.push_back(rtl::WorkItem{});  // Field-less item.
    jobs.push_back(std::move(mixed));

    for (const std::uint64_t stream : {0ull, 7ull, ~0ull}) {
        for (const rtl::JobInput &job : jobs) {
            const std::vector<std::int64_t> key =
                JobCache::canonicalKey(stream, job);
            EXPECT_EQ(JobCache::hashJob(stream, job),
                      JobCache::hashBytes(
                          key.data(),
                          key.size() * sizeof(std::int64_t)));
            EXPECT_TRUE(JobCache::keyMatchesJob(key, stream, job));
            EXPECT_FALSE(JobCache::keyMatchesJob(key, stream + 1, job));
        }
    }
}

TEST(JobCache, LookupReturnsExactInsertedPayload)
{
    JobCache cache(1 << 20);
    const rtl::JobInput job = jobOf(42);
    const CachedJob in = payloadOf(1.75);
    cache.insert(7, job, in);

    CachedJob out;
    ASSERT_TRUE(cache.lookup(7, job, out));
    EXPECT_EQ(out.cycles, in.cycles);
    EXPECT_EQ(out.energyUnits, in.energyUnits);
    EXPECT_EQ(out.sliceCycles, in.sliceCycles);
    EXPECT_EQ(out.sliceEnergyUnits, in.sliceEnergyUnits);
    EXPECT_EQ(out.predictedCycles, in.predictedCycles);

    const JobCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(JobCache, KeysSeparateJobsAndStreams)
{
    JobCache cache(1 << 20);
    cache.insert(1, jobOf(5), payloadOf(1.0));

    CachedJob out;
    // Different field value, different stream, and structurally
    // different jobs (field split across items) all miss.
    EXPECT_FALSE(cache.lookup(1, jobOf(6), out));
    EXPECT_FALSE(cache.lookup(2, jobOf(5), out));
    rtl::JobInput two_items = jobOf(5);
    two_items.items.push_back(two_items.items.front());
    EXPECT_FALSE(cache.lookup(1, two_items, out));
    EXPECT_TRUE(cache.lookup(1, jobOf(5), out));
    EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(JobCache, ZeroCapacityNeverStores)
{
    JobCache cache(0);
    cache.insert(1, jobOf(5), payloadOf(1.0));
    CachedJob out;
    EXPECT_FALSE(cache.lookup(1, jobOf(5), out));
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(JobCache, LruEvictionIsDeterministicPerCapacity)
{
    // The same probe/insert sequence replayed against fresh caches of
    // equal capacity must produce the identical hit/miss/eviction
    // history; shrinking the capacity only adds evictions.
    const auto replay = [](JobCache &cache) {
        for (int round = 0; round < 3; ++round) {
            for (std::int64_t v = 0; v < 64; ++v) {
                const rtl::JobInput job = jobOf(v);
                CachedJob out;
                if (!cache.lookup(9, job, out))
                    cache.insert(9, job, payloadOf(1.0 + double(v)));
            }
        }
    };

    std::size_t prev_evictions = 0;
    bool first = true;
    for (const std::size_t capacity :
         {std::size_t(1) << 20, std::size_t(8192), std::size_t(4096)}) {
        JobCache a(capacity), b(capacity);
        replay(a);
        replay(b);
        const JobCache::Stats sa = a.stats(), sb = b.stats();
        EXPECT_EQ(sa.hits, sb.hits) << "capacity " << capacity;
        EXPECT_EQ(sa.misses, sb.misses) << "capacity " << capacity;
        EXPECT_EQ(sa.evictions, sb.evictions) << "capacity " << capacity;
        EXPECT_EQ(sa.entries, sb.entries) << "capacity " << capacity;
        EXPECT_EQ(sa.bytes, sb.bytes) << "capacity " << capacity;
        EXPECT_LE(sa.bytes, capacity);
        if (!first) {
            EXPECT_GE(sa.evictions, prev_evictions)
                << "capacity " << capacity;
        }
        prev_evictions = sa.evictions;
        first = false;
    }

    // The big cache holds the whole working set: rounds 2 and 3 hit.
    JobCache big(std::size_t(1) << 20);
    replay(big);
    EXPECT_EQ(big.stats().misses, 64u);
    EXPECT_EQ(big.stats().hits, 128u);
    EXPECT_EQ(big.stats().evictions, 0u);
}

TEST(JobCache, EvictionKeepsMostRecentlyUsed)
{
    // Size the cache for roughly two entries, touch the first entry,
    // insert a third: the untouched second entry is the victim.
    JobCache probe(1 << 20);
    probe.insert(3, jobOf(0), payloadOf(1.0));
    const std::size_t one_entry = probe.stats().bytes;

    JobCache cache(2 * one_entry + one_entry / 2);
    cache.insert(3, jobOf(0), payloadOf(1.0));
    cache.insert(3, jobOf(1), payloadOf(2.0));
    CachedJob out;
    ASSERT_TRUE(cache.lookup(3, jobOf(0), out));  // Refresh entry 0.
    cache.insert(3, jobOf(2), payloadOf(3.0));

    EXPECT_TRUE(cache.lookup(3, jobOf(0), out));
    EXPECT_FALSE(cache.lookup(3, jobOf(1), out));
    EXPECT_TRUE(cache.lookup(3, jobOf(2), out));
    EXPECT_EQ(cache.stats().evictions, 1u);
}

namespace {

struct EngineFixture
{
    std::shared_ptr<const accel::Accelerator> acc =
        accel::makeAccelerator("sha");
    workload::BenchmarkWorkload work = workload::makeWorkload(*acc);
    power::VfModel vf =
        power::VfModel::asic65nm(acc->nominalFrequencyHz());
    power::OperatingPointTable table =
        power::OperatingPointTable::asic(vf, true);
    SimulationEngine engine{*acc, table, EngineConfig{}};
};

void
expectPreparedIdentical(const std::vector<core::PreparedJob> &a,
                        const std::vector<core::PreparedJob> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cycles, b[i].cycles) << "job " << i;
        EXPECT_EQ(a[i].energyUnits, b[i].energyUnits) << "job " << i;
        EXPECT_EQ(a[i].sliceCycles, b[i].sliceCycles) << "job " << i;
        EXPECT_EQ(a[i].sliceEnergyUnits, b[i].sliceEnergyUnits)
            << "job " << i;
        EXPECT_EQ(a[i].predictedCycles, b[i].predictedCycles)
            << "job " << i;
    }
}

} // namespace

TEST(MemoizedPrepare, DuplicateHeavyStreamSimulatesUniquesOnly)
{
    EngineFixture f;

    // 4 unique jobs, each repeated 8 times.
    std::vector<rtl::JobInput> jobs;
    for (int rep = 0; rep < 8; ++rep)
        for (std::size_t u = 0; u < 4; ++u)
            jobs.push_back(f.work.test.at(u));

    JobCache::global().clear();
    const auto before = JobCache::global().stats();
    const auto prepared = f.engine.prepare(jobs);
    const auto after = JobCache::global().stats();
    EXPECT_EQ(after.misses - before.misses, jobs.size());
    EXPECT_EQ(after.insertions - before.insertions, 4u);

    // Every record matches direct interpretation — fan-out copies
    // included.
    rtl::Interpreter interp(f.acc->design());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const rtl::JobResult direct = interp.run(jobs[i]);
        EXPECT_EQ(prepared[i].input, &jobs[i]);
        EXPECT_EQ(prepared[i].cycles, direct.cycles);
        EXPECT_EQ(prepared[i].energyUnits, direct.energyUnits);
    }

    // Re-preparing the same stream is all hits, with identical bits.
    const auto warm_before = JobCache::global().stats();
    const auto warm = f.engine.prepare(jobs);
    const auto warm_after = JobCache::global().stats();
    EXPECT_EQ(warm_after.hits - warm_before.hits, jobs.size());
    EXPECT_EQ(warm_after.misses, warm_before.misses);
    expectPreparedIdentical(prepared, warm);
}

TEST(MemoizedPrepare, AllUniqueStreamMissesOncePerJob)
{
    EngineFixture f;
    const core::FlowResult flow =
        core::buildPredictor(f.acc->design(), f.work.train, {});

    JobCache::global().clear();
    const auto prepared =
        f.engine.prepare(f.work.test, flow.predictor.get());
    const auto stats = JobCache::global().stats();
    // The generated test stream may contain natural duplicates, but
    // each unique vector simulates (and inserts) exactly once.
    EXPECT_EQ(stats.hits + stats.misses, f.work.test.size());
    EXPECT_EQ(stats.insertions, stats.entries);
    EXPECT_LE(stats.insertions, f.work.test.size());

    // Slice features memoise with the stream: a warm re-prepare
    // reproduces predictor outputs bit for bit.
    const auto warm = f.engine.prepare(f.work.test, flow.predictor.get());
    expectPreparedIdentical(prepared, warm);
}

TEST(MemoizedPrepare, FaultsNeverPoisonTheCache)
{
    EngineFixture f;
    const core::FlowResult flow =
        core::buildPredictor(f.acc->design(), f.work.train, {});

    FaultPlan plan(555);
    plan.sliceReadout(FaultTrigger::every(3))
        .sliceStall(FaultTrigger::every(5, 1), 25.0)
        .oodSpike(FaultTrigger::every(7, 2), 4.0);
    const FaultSchedule schedule = plan.instantiate(f.work.test.size());

    // Cold faulted prepare, then a fully-warm faulted prepare: the
    // cache holds only the clean simulation, and applyPrepareFaults
    // re-mutates the fan-out copies identically both times.
    JobCache::global().clear();
    const auto cold = f.engine.prepare(f.work.test, flow.predictor.get(),
                                       &schedule);
    const auto warm = f.engine.prepare(f.work.test, flow.predictor.get(),
                                       &schedule);
    expectPreparedIdentical(cold, warm);

    // A clean prepare after the faulted ones sees clean records: the
    // faulted values never entered the cache.
    const auto clean =
        f.engine.prepare(f.work.test, flow.predictor.get());
    rtl::Interpreter interp(f.acc->design());
    for (std::size_t i = 0; i < clean.size(); ++i) {
        const rtl::JobResult direct = interp.run(f.work.test[i]);
        EXPECT_EQ(clean[i].cycles, direct.cycles);
        EXPECT_EQ(clean[i].energyUnits, direct.energyUnits);
    }

    // And the faulted records differ from clean where the schedule
    // fired (sanity that the schedule actually did something).
    bool any_fault_effect = false;
    for (std::size_t i = 0; i < clean.size(); ++i) {
        if (cold[i].sliceCycles != clean[i].sliceCycles ||
            cold[i].predictedCycles != clean[i].predictedCycles)
            any_fault_effect = true;
    }
    EXPECT_TRUE(any_fault_effect);
}

// ---------------------------------------------------------------
// Crash-safe snapshot persistence: atomic-rename writes, per-entry
// and whole-file checksums, fingerprint filtering. Loading must
// reject torn, corrupt, or foreign data entry by entry and never
// crash — the worst possible snapshot is a cold start.
// ---------------------------------------------------------------

namespace {

std::string
snapshotPath(const char *leaf)
{
    return testing::TempDir() + leaf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void
expectPayloadBits(const CachedJob &got, const CachedJob &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.energyUnits, want.energyUnits);
    EXPECT_EQ(got.sliceCycles, want.sliceCycles);
    EXPECT_EQ(got.sliceEnergyUnits, want.sliceEnergyUnits);
    EXPECT_EQ(got.predictedCycles, want.predictedCycles);
}

} // namespace

TEST(JobCacheSnapshot, RoundTripRestoresEveryEntryBitForBit)
{
    const std::string path = snapshotPath("jobcache_roundtrip.snap");
    JobCache source(1 << 20);
    for (std::int64_t v = 0; v < 8; ++v)
        source.insert(1, jobOf(v), payloadOf(1.0 + double(v) / 7.0));
    // Negative values, NaN-adjacent doubles, and a second stream all
    // have to survive the text format.
    CachedJob odd = payloadOf(2.5);
    odd.energyUnits = -0.0;
    odd.predictedCycles = 5e-324;  // Subnormal.
    source.insert(2, jobOf(-9), odd);
    ASSERT_TRUE(source.saveSnapshotFile(path));

    JobCache restored(1 << 20);
    const JobCache::SnapshotLoadStats stats =
        restored.loadSnapshotFile(path);
    EXPECT_EQ(stats.loaded, 9u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_FALSE(stats.tornTail);

    CachedJob out;
    for (std::int64_t v = 0; v < 8; ++v) {
        ASSERT_TRUE(restored.lookup(1, jobOf(v), out)) << "job " << v;
        expectPayloadBits(out, payloadOf(1.0 + double(v) / 7.0));
    }
    ASSERT_TRUE(restored.lookup(2, jobOf(-9), out));
    expectPayloadBits(out, odd);
    std::remove(path.c_str());
}

TEST(JobCacheSnapshot, FingerprintFilterRejectsForeignStreams)
{
    const std::string path = snapshotPath("jobcache_filter.snap");
    JobCache source(1 << 20);
    for (std::int64_t v = 0; v < 5; ++v)
        source.insert(10, jobOf(v), payloadOf(1.0));
    for (std::int64_t v = 0; v < 3; ++v)
        source.insert(20, jobOf(v), payloadOf(2.0));
    ASSERT_TRUE(source.saveSnapshotFile(path));

    // Only stream 10 is "registered": stream 20's entries are a stale
    // design or retrained predictor and must not be resurrected.
    const std::unordered_set<std::uint64_t> accept = {10};
    JobCache restored(1 << 20);
    const JobCache::SnapshotLoadStats stats =
        restored.loadSnapshotFile(path, &accept);
    EXPECT_EQ(stats.loaded, 5u);
    EXPECT_EQ(stats.rejected, 3u);
    EXPECT_FALSE(stats.tornTail);
    CachedJob out;
    EXPECT_TRUE(restored.lookup(10, jobOf(0), out));
    EXPECT_FALSE(restored.lookup(20, jobOf(0), out));
    std::remove(path.c_str());
}

TEST(JobCacheSnapshot, TornTailLoadsValidatedPrefixOnly)
{
    const std::string path = snapshotPath("jobcache_torn.snap");
    JobCache source(1 << 20);
    for (std::int64_t v = 0; v < 6; ++v)
        source.insert(1, jobOf(v), payloadOf(1.0 + double(v)));
    ASSERT_TRUE(source.saveSnapshotFile(path));

    // Cut the file mid-entry: the intact prefix loads, the ragged
    // tail is rejected, and the missing footer marks the tear.
    const std::string text = readFile(path);
    writeFile(path, text.substr(0, text.size() * 2 / 3));
    JobCache restored(1 << 20);
    const JobCache::SnapshotLoadStats stats =
        restored.loadSnapshotFile(path);
    EXPECT_TRUE(stats.tornTail);
    EXPECT_LT(stats.loaded, 6u);
    EXPECT_GT(stats.loaded, 0u);
    CachedJob out;
    EXPECT_TRUE(restored.lookup(1, jobOf(0), out));
    std::remove(path.c_str());
}

TEST(JobCacheSnapshot, CorruptEntryIsRejectedOthersSurvive)
{
    const std::string path = snapshotPath("jobcache_corrupt.snap");
    JobCache source(1 << 20);
    for (std::int64_t v = 0; v < 4; ++v)
        source.insert(1, jobOf(v), payloadOf(1.0 + double(v)));
    ASSERT_TRUE(source.saveSnapshotFile(path));

    // Flip one digit inside the second entry line: its CRC no longer
    // matches, so only that entry dies. The whole-file checksum also
    // fails, which reads as a torn tail — suspicion, not a crash.
    std::string text = readFile(path);
    const std::size_t second = text.find("\nentry ", text.find("entry "));
    ASSERT_NE(second, std::string::npos);
    const std::size_t digit =
        text.find_first_of("0123456789", second + 7);
    ASSERT_NE(digit, std::string::npos);
    text[digit] = text[digit] == '9' ? '3' : '9';
    writeFile(path, text);

    JobCache restored(1 << 20);
    const JobCache::SnapshotLoadStats stats =
        restored.loadSnapshotFile(path);
    EXPECT_EQ(stats.loaded, 3u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_TRUE(stats.tornTail);
    std::remove(path.c_str());
}

TEST(JobCacheSnapshot, HostileFilesDegradeToColdStart)
{
    JobCache cache(1 << 20);
    // Missing file: the normal first boot, not even a warning.
    {
        const JobCache::SnapshotLoadStats stats = cache.loadSnapshotFile(
            snapshotPath("jobcache_never_written.snap"));
        EXPECT_EQ(stats.loaded, 0u);
        EXPECT_FALSE(stats.tornTail);
    }
    // Wrong magic, binary junk, a forged footer: all rejected whole.
    const char *hostile[] = {
        "some other file format\n",
        "\x00\xFF\x7F binary junk",
        "predvfs-jobcache-v1\nentry 2 bogus\nfooter count 1 "
        "checksum 0000000000000000\n",
        "predvfs-jobcache-v1\nfooter count 7 checksum dead\n",
    };
    for (const char *text : hostile) {
        const std::string path = snapshotPath("jobcache_hostile.snap");
        writeFile(path, text);
        const JobCache::SnapshotLoadStats stats =
            cache.loadSnapshotFile(path);
        EXPECT_EQ(stats.loaded, 0u) << "file: " << text;
        EXPECT_TRUE(stats.tornTail) << "file: " << text;
        std::remove(path.c_str());
    }
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(JobCacheSnapshot, SaveToUnwritablePathFailsGracefully)
{
    JobCache cache(1 << 20);
    cache.insert(1, jobOf(1), payloadOf(1.0));
    EXPECT_FALSE(cache.saveSnapshotFile(
        "/nonexistent-predvfs-dir/cache.snap"));
}

// ---------------------------------------------------------------
// Hardened env-knob parsing (shared by JobCache::global() and the
// serving layer's PREDVFS_SERVE_* knobs). JobCache::global() itself
// is first-read-wins, so these exercise the helpers directly: every
// malformed value must warn and fall back, never abort or wrap.
// ---------------------------------------------------------------

namespace {

/** RAII setenv/unsetenv so a failing expectation cannot leak state
 *  into later tests. */
struct ScopedEnv
{
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv() { ::unsetenv(name); }
    const char *name;
};

} // namespace

TEST(EnvKnobs, WellFormedValuesParse)
{
    {
        ScopedEnv env("PREDVFS_TEST_KNOB", "12345");
        EXPECT_EQ(util::envUint("PREDVFS_TEST_KNOB", 7), 12345u);
        EXPECT_EQ(util::envSizeBytes("PREDVFS_TEST_KNOB", 7), 12345u);
    }
    {
        ScopedEnv env("PREDVFS_TEST_KNOB", "0");
        EXPECT_EQ(util::envUint("PREDVFS_TEST_KNOB", 7), 0u);
    }
    {
        ScopedEnv env("PREDVFS_TEST_KNOB", nullptr);
        EXPECT_EQ(util::envUint("PREDVFS_TEST_KNOB", 7), 7u);
    }
}

TEST(EnvKnobs, MalformedValuesFallBackInsteadOfAborting)
{
    const char *bad[] = {
        "",            // Empty.
        "  ",          // Whitespace only.
        "cats",        // Non-numeric.
        "64k",         // Trailing junk (no size suffixes).
        "12 34",       // Embedded junk.
        "0x10",        // Hex is not accepted.
        "+5",          // Sign characters rejected outright...
    };
    for (const char *value : bad) {
        ScopedEnv env("PREDVFS_TEST_KNOB", value);
        EXPECT_EQ(util::envUint("PREDVFS_TEST_KNOB", 99), 99u)
            << "value: '" << value << "'";
        EXPECT_EQ(util::envSizeBytes("PREDVFS_TEST_KNOB", 4096), 4096u)
            << "value: '" << value << "'";
    }
    {
        // ...especially "-5", which strtoull would silently wrap to
        // 18446744073709551611.
        ScopedEnv env("PREDVFS_TEST_KNOB", "-5");
        EXPECT_EQ(util::envUint("PREDVFS_TEST_KNOB", 99), 99u);
    }
    {
        // Overflow past 2^64.
        ScopedEnv env("PREDVFS_TEST_KNOB", "99999999999999999999999");
        EXPECT_EQ(util::envUint("PREDVFS_TEST_KNOB", 99), 99u);
    }
}

TEST(EnvKnobs, OutOfRangeValuesFallBackNotClamp)
{
    {
        ScopedEnv env("PREDVFS_TEST_KNOB", "500");
        // A wildly wrong setting should be loud, not silently pulled
        // to the nearest bound.
        EXPECT_EQ(util::envUint("PREDVFS_TEST_KNOB", 8, 1, 64), 8u);
    }
    {
        ScopedEnv env("PREDVFS_TEST_KNOB", "0");
        EXPECT_EQ(util::envUint("PREDVFS_TEST_KNOB", 8, 1, 64), 8u);
    }
    {
        ScopedEnv env("PREDVFS_TEST_KNOB", "64");
        EXPECT_EQ(util::envUint("PREDVFS_TEST_KNOB", 8, 1, 64), 64u);
    }
}
