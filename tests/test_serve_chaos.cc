/**
 * @file
 * Fault tolerance of the prediction service, end to end: a seeded
 * chaos soak (partial writes, delayed flushes, mid-frame disconnects,
 * short reads) where every delivered reply must byte-equal the
 * in-process pipeline; overload against a tiny bounded queue where
 * backpressure must be explicit (Busy) and the retrying client must
 * converge with no lost or duplicated replies; deadline expiry as a
 * typed, queue-time-only outcome; and a kill-restart cycle through
 * the checksummed cache snapshot — warm, byte-identical restarts from
 * a good file, clean cold starts from torn or garbage ones. Also the
 * hardened PREDVFS_SERVE_QUEUE / PREDVFS_SNAPSHOT knob parsing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/chaos.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/experiment.hh"
#include "sim/job_cache.hh"
#include "workload/replay.hh"

using namespace predvfs;

namespace {

constexpr const char *kBench = "sha";
constexpr std::size_t kClients = 4;
constexpr std::uint64_t kChaosSeed = 20150815;

void
expectReplyMatchesRecord(const serve::PredictReplyMsg &got,
                         const core::PreparedJob &want,
                         const std::string &context)
{
    ASSERT_EQ(got.cycles, want.cycles) << context;
    ASSERT_EQ(got.energyUnits, want.energyUnits) << context;
    ASSERT_EQ(got.sliceCycles, want.sliceCycles) << context;
    ASSERT_EQ(got.sliceEnergyUnits, want.sliceEnergyUnits) << context;
    ASSERT_EQ(got.predictedCycles, want.predictedCycles) << context;
}

void
expectTelemetryIdentity(const serve::StreamTelemetry &t)
{
    EXPECT_TRUE(t.balanced()) << "stream " << t.benchmark;
}

/** A connect factory producing chaos-wrapped loopback connections
 *  with a distinct, reproducible index per dial. */
serve::RetryOptions
chaosRetryOptions(serve::PredictionServer &server, double fault_rate,
                  std::size_t client_index)
{
    serve::RetryOptions ropts;
    ropts.enabled = true;
    ropts.jitterSeed =
        client_index + 1 + static_cast<std::uint64_t>(fault_rate * 1e4);
    auto dials = std::make_shared<std::uint64_t>(0);
    ropts.connect = [&server, fault_rate, client_index, dials] {
        const serve::ChaosPlan plan =
            serve::ChaosPlan::uniform(kChaosSeed, fault_rate);
        return serve::chaosWrap(server.connectLoopback(), plan,
                                client_index * 1000 + (*dials)++);
    };
    return ropts;
}

} // namespace

namespace {

/** Four retrying clients replay duplicate-heavy bursts of @p bench
 *  over chaos-wrapped loopback connections at each fault rate. */
void
soakAtFaultRates(const char *bench, std::size_t queue_bound,
                 std::initializer_list<double> rates,
                 std::size_t requests_per_client, std::size_t hot_jobs)
{
    SCOPED_TRACE(std::string(bench) + " queue bound " +
                 std::to_string(queue_bound));
    // The in-process reference records the served replies must match
    // byte for byte, chaos or no chaos.
    sim::Experiment exp(bench, sim::ExperimentOptions{});
    const std::vector<rtl::JobInput> &jobs = exp.workload().test;
    const std::vector<core::PreparedJob> &records = exp.testPrepared();
    // Serve cold: a dispatcher answering only the hits the Experiment
    // left in the cache drains a small queue as fast as a sanitizer
    // build's clients can fill it, and Busy would never fire.
    sim::JobCache::global().clear();

    serve::ServerOptions sopts;
    sopts.workers = 2;
    sopts.batchWindowMicros = 200;
    sopts.queueBound = queue_bound;
    serve::PredictionServer server(sopts);
    server.registerBenchmark(bench);

    for (const double rate : rates) {
        const std::vector<workload::ReplayPlan> plans =
            workload::duplicateHeavyPlans(jobs.size(), kClients,
                                          requests_per_client, hot_jobs,
                                          workload::defaultSeed);
        std::vector<std::vector<serve::PredictOutcome>> outcomes(
            kClients);
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                serve::PredictionClient client(
                    chaosRetryOptions(server, rate, c));
                const std::uint32_t sid = client.openStream(bench);
                std::vector<rtl::JobInput> burst;
                burst.reserve(plans[c].indices.size());
                for (const std::size_t index : plans[c].indices)
                    burst.push_back(jobs[index]);
                outcomes[c] = client.predictManyOutcomes(sid, burst);
            });
        }
        for (std::thread &t : threads)
            t.join();

        // No silent drops: every request produced exactly one
        // outcome, every outcome is a successful reply, and every
        // reply carries the reference bytes.
        for (std::size_t c = 0; c < kClients; ++c) {
            ASSERT_EQ(outcomes[c].size(), plans[c].indices.size());
            for (std::size_t i = 0; i < outcomes[c].size(); ++i) {
                std::ostringstream context;
                context << "rate " << rate << " client " << c
                        << " request " << i;
                ASSERT_TRUE(outcomes[c][i].ok) << context.str();
                expectReplyMatchesRecord(
                    outcomes[c][i].reply,
                    records[plans[c].indices[i]], context.str());
            }
        }

        // The identity holds at every fault rate: chaos re-sends show
        // up as new accepted requests, never as unaccounted ones.
        const serve::StreamTelemetry t = server.telemetry(bench);
        expectTelemetryIdentity(t);
        EXPECT_EQ(t.expired, 0u);  // No deadlines in this soak.
        if (queue_bound < serve::ServerOptions{}.queueBound) {
            EXPECT_GT(t.busy, 0u);
        }
    }
    server.stop();
}

} // namespace

TEST(ServeChaos, SoakDeliversByteIdenticalRepliesAtEveryFaultRate)
{
    soakAtFaultRates(kBench, serve::ServerOptions{}.queueBound,
                     {0.02, 0.05, 0.10}, /*requests_per_client=*/120,
                     /*hot_jobs=*/6);
    // A queue of 16, which the pipelined bursts overflow: Busy
    // backpressure and chaos hit the retrying clients together.
    for (const char *bench : {"sha", "cjpeg"})
        soakAtFaultRates(bench, /*queue_bound=*/16, {0.05},
                         /*requests_per_client=*/200, /*hot_jobs=*/8);
}

TEST(ServeChaos, SoakOverTcpDeliversByteIdenticalRepliesAtEveryFaultRate)
{
    if (!serve::tcpSocketsAvailable())
        GTEST_SKIP() << "no TCP sockets on this platform";

    // The same seeded fault schedule as the loopback soak, but the
    // chaos wrapper shears real TCP segments: same rates, same seed,
    // same bar — every delivered reply byte-equals the reference.
    sim::Experiment exp(kBench, sim::ExperimentOptions{});
    const std::vector<rtl::JobInput> &jobs = exp.workload().test;
    const std::vector<core::PreparedJob> &records = exp.testPrepared();

    serve::ServerOptions sopts;
    sopts.workers = 2;
    sopts.batchWindowMicros = 200;
    serve::PredictionServer server(sopts);
    server.registerBenchmark(kBench);
    const std::string addr = server.listen("tcp://127.0.0.1:0");

    for (const double rate : {0.02, 0.05, 0.10}) {
        const std::vector<workload::ReplayPlan> plans =
            workload::duplicateHeavyPlans(jobs.size(), kClients,
                                          /*requests_per_client=*/120,
                                          /*hot_jobs=*/6,
                                          workload::defaultSeed);
        std::vector<std::vector<serve::PredictOutcome>> outcomes(
            kClients);
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                serve::RetryOptions ropts;
                ropts.enabled = true;
                ropts.jitterSeed = c + 1 +
                    static_cast<std::uint64_t>(rate * 1e4);
                auto dials = std::make_shared<std::uint64_t>(0);
                ropts.connect = [&addr, rate, c, dials]()
                    -> std::unique_ptr<serve::Connection> {
                    std::unique_ptr<serve::Connection> raw =
                        serve::connectEndpoint(addr,
                                               /*timeout_ms=*/5000);
                    if (!raw)
                        return nullptr;
                    const serve::ChaosPlan plan =
                        serve::ChaosPlan::uniform(kChaosSeed, rate);
                    return serve::chaosWrap(std::move(raw), plan,
                                            c * 1000 + (*dials)++);
                };
                serve::PredictionClient client(ropts);
                const std::uint32_t sid = client.openStream(kBench);
                std::vector<rtl::JobInput> burst;
                burst.reserve(plans[c].indices.size());
                for (const std::size_t index : plans[c].indices)
                    burst.push_back(jobs[index]);
                outcomes[c] = client.predictManyOutcomes(sid, burst);
            });
        }
        for (std::thread &t : threads)
            t.join();

        for (std::size_t c = 0; c < kClients; ++c) {
            ASSERT_EQ(outcomes[c].size(), plans[c].indices.size());
            for (std::size_t i = 0; i < outcomes[c].size(); ++i) {
                std::ostringstream context;
                context << "tcp rate " << rate << " client " << c
                        << " request " << i;
                ASSERT_TRUE(outcomes[c][i].ok) << context.str();
                expectReplyMatchesRecord(
                    outcomes[c][i].reply,
                    records[plans[c].indices[i]], context.str());
            }
        }
        const serve::StreamTelemetry t = server.telemetry(kBench);
        expectTelemetryIdentity(t);
        EXPECT_EQ(t.expired, 0u);
    }
    server.stop();
}

TEST(ServeChaos, OverloadBoundsQueueEmitsBusyAndConverges)
{
    sim::Experiment exp(kBench, sim::ExperimentOptions{});
    const std::vector<rtl::JobInput> &jobs = exp.workload().test;
    const std::vector<core::PreparedJob> &records = exp.testPrepared();

    serve::ServerOptions sopts;
    sopts.workers = 2;
    // A long window and a tiny bound: four pipelined bursts hit a
    // full queue long before the dispatcher drains it.
    sopts.batchWindowMicros = 2000;
    sopts.queueBound = 8;
    serve::PredictionServer server(sopts);
    server.registerBenchmark(kBench);

    const std::vector<workload::ReplayPlan> plans =
        workload::duplicateHeavyPlans(jobs.size(), kClients,
                                      /*requests_per_client=*/100,
                                      /*hot_jobs=*/6,
                                      workload::defaultSeed);
    std::vector<std::vector<serve::PredictOutcome>> outcomes(kClients);
    std::vector<serve::ClientStats> stats(kClients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            serve::RetryOptions ropts;
            ropts.enabled = true;
            ropts.jitterSeed = 31 + c;
            serve::PredictionClient client(server.connectLoopback(),
                                           ropts);
            const std::uint32_t sid = client.openStream(kBench);
            std::vector<rtl::JobInput> burst;
            burst.reserve(plans[c].indices.size());
            for (const std::size_t index : plans[c].indices)
                burst.push_back(jobs[index]);
            outcomes[c] = client.predictManyOutcomes(sid, burst);
            stats[c] = client.stats();
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Convergence with zero lost and zero duplicated replies: exactly
    // one successful, byte-exact outcome per request.
    std::uint64_t client_busy = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
        ASSERT_EQ(outcomes[c].size(), plans[c].indices.size());
        for (std::size_t i = 0; i < outcomes[c].size(); ++i) {
            ASSERT_TRUE(outcomes[c][i].ok)
                << "client " << c << " request " << i;
            expectReplyMatchesRecord(outcomes[c][i].reply,
                                     records[plans[c].indices[i]],
                                     "overload");
        }
        client_busy += stats[c].busyReplies;
    }

    // The bound held, backpressure was explicit, and the client saw
    // exactly the rejections the server counted.
    const serve::StreamTelemetry t = server.telemetry(kBench);
    EXPECT_GT(t.busy, 0u);
    EXPECT_EQ(t.busy, client_busy);
    EXPECT_LE(t.peakQueueDepth, sopts.queueBound);
    EXPECT_LE(server.maxQueueDepth(), sopts.queueBound);
    expectTelemetryIdentity(t);
    server.stop();
}

TEST(ServeChaos, DeadlinesExpireOnlyWhileQueuedAndAreTyped)
{
    sim::Experiment exp(kBench, sim::ExperimentOptions{});
    const std::vector<rtl::JobInput> &jobs = exp.workload().test;
    const std::vector<core::PreparedJob> &records = exp.testPrepared();

    serve::ServerOptions sopts;
    sopts.workers = 2;
    // The window keeps requests queued for ~2ms, so a 1us deadline
    // expires while queued — the only place expiry is allowed.
    sopts.batchWindowMicros = 2000;
    serve::PredictionServer server(sopts);
    server.registerBenchmark(kBench);

    serve::RetryOptions ropts;
    ropts.enabled = true;
    serve::PredictionClient client(server.connectLoopback(), ropts);
    const std::uint32_t sid = client.openStream(kBench);

    const std::vector<workload::ReplayPlan> plans =
        workload::duplicateHeavyPlans(jobs.size(), 2,
                                      /*requests_per_client=*/120,
                                      /*hot_jobs=*/6,
                                      workload::defaultSeed);
    std::vector<rtl::JobInput> burst;
    for (const std::size_t index : plans[0].indices)
        burst.push_back(jobs[index]);

    // No deadline: every job must come back, bytes exact.
    const std::vector<serve::PredictOutcome> unhurried =
        client.predictManyOutcomes(sid, burst, /*deadline_micros=*/0);
    ASSERT_EQ(unhurried.size(), burst.size());
    for (std::size_t i = 0; i < unhurried.size(); ++i) {
        ASSERT_TRUE(unhurried[i].ok) << "request " << i;
        expectReplyMatchesRecord(unhurried[i].reply,
                                 records[plans[0].indices[i]],
                                 "no deadline");
    }

    // 1us deadline: each request either made it into a batch before
    // expiring (then its bytes are exact — values are never computed
    // for an expired request, and never stale for a live one) or came
    // back as a typed DeadlineExceeded. Nothing is lost either way.
    const std::vector<serve::PredictOutcome> hurried =
        client.predictManyOutcomes(sid, burst, /*deadline_micros=*/1);
    ASSERT_EQ(hurried.size(), burst.size());
    std::uint64_t expired = 0;
    for (std::size_t i = 0; i < hurried.size(); ++i) {
        if (!hurried[i].ok) {
            EXPECT_EQ(hurried[i].error,
                      serve::ErrorCode::DeadlineExceeded);
            ++expired;
            continue;
        }
        expectReplyMatchesRecord(hurried[i].reply,
                                 records[plans[0].indices[i]],
                                 "1us deadline");
    }
    EXPECT_GT(expired, 0u);
    EXPECT_EQ(client.stats().deadlineExpired, expired);

    const serve::StreamTelemetry t = server.telemetry(kBench);
    EXPECT_EQ(t.expired, expired);
    expectTelemetryIdentity(t);
    server.stop();
}

TEST(ServeChaos, KillRestartWarmStartsFromSnapshotByteIdentically)
{
    sim::Experiment exp(kBench, sim::ExperimentOptions{});
    const std::vector<rtl::JobInput> &jobs = exp.workload().test;
    const std::vector<core::PreparedJob> &records = exp.testPrepared();
    const std::vector<workload::ReplayPlan> plans =
        workload::duplicateHeavyPlans(jobs.size(), 1,
                                      /*requests_per_client=*/200,
                                      /*hot_jobs=*/8,
                                      workload::defaultSeed);
    std::vector<rtl::JobInput> burst;
    for (const std::size_t index : plans[0].indices)
        burst.push_back(jobs[index]);

    const auto serveBurst = [&](serve::PredictionServer &server,
                                const std::string &context) {
        serve::PredictionClient client(server.connectLoopback());
        const std::uint32_t sid = client.openStream(kBench);
        const std::vector<serve::PredictReplyMsg> replies =
            client.predictMany(sid, burst);
        ASSERT_EQ(replies.size(), burst.size());
        for (std::size_t i = 0; i < replies.size(); ++i)
            expectReplyMatchesRecord(replies[i],
                                     records[plans[0].indices[i]],
                                     context);
    };

    const std::string path =
        testing::TempDir() + "predvfs_chaos_cache.snapshot";
    const std::string torn_path = path + ".torn";
    const std::string garbage_path = path + ".garbage";

    // First life: serve the burst, snapshot, die (SIGKILL loses the
    // process, so the in-memory cache is simply gone).
    {
        sim::JobCache::global().clear();
        serve::PredictionServer server;
        server.registerBenchmark(kBench);
        serveBurst(server, "first life");
        ASSERT_TRUE(server.saveSnapshot(path));
        server.stop();
    }
    sim::JobCache::global().clear();

    // Second life: a fresh server warm-starts from the snapshot and
    // serves the identical bytes without a single fresh simulation.
    {
        serve::PredictionServer server;
        server.registerBenchmark(kBench);
        const sim::JobCache::SnapshotLoadStats loaded =
            server.loadSnapshot(path);
        EXPECT_GT(loaded.loaded, 0u);
        EXPECT_FALSE(loaded.tornTail);
        serveBurst(server, "warm restart");

        const serve::StreamTelemetry t = server.telemetry(kBench);
        EXPECT_EQ(t.simulated, 0u);
        EXPECT_GT(t.hitRate(), 0.5);
        expectTelemetryIdentity(t);
        server.stop();
    }

    // A torn snapshot (SIGKILL mid-write of a *non-atomic* copy): the
    // validated prefix may load, the tail is detected, and serving
    // still produces the exact bytes — just colder.
    {
        std::ifstream in(path, std::ios::binary);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        ASSERT_GT(text.size(), 40u);
        std::ofstream out(torn_path, std::ios::binary);
        out.write(text.data(),
                  static_cast<std::streamsize>(text.size() / 2));
    }
    {
        sim::JobCache::global().clear();
        serve::PredictionServer server;
        server.registerBenchmark(kBench);
        const sim::JobCache::SnapshotLoadStats loaded =
            server.loadSnapshot(torn_path);
        EXPECT_TRUE(loaded.tornTail);
        serveBurst(server, "torn snapshot");
        server.stop();
    }

    // Garbage at the snapshot path: rejected outright, cold start,
    // same bytes.
    {
        std::ofstream out(garbage_path, std::ios::binary);
        out << "definitely not a predvfs snapshot\n";
    }
    {
        sim::JobCache::global().clear();
        serve::PredictionServer server;
        server.registerBenchmark(kBench);
        const sim::JobCache::SnapshotLoadStats loaded =
            server.loadSnapshot(garbage_path);
        EXPECT_EQ(loaded.loaded, 0u);
        EXPECT_TRUE(loaded.tornTail);
        serveBurst(server, "garbage snapshot");
        server.stop();
    }

    std::remove(path.c_str());
    std::remove(torn_path.c_str());
    std::remove(garbage_path.c_str());
}

// ---------------------------------------------------------------
// Hardened parsing for the serving env knobs.
// ---------------------------------------------------------------

namespace {

/** RAII setenv/unsetenv (mirrors the job-cache test helper). */
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

TEST(ServeEnvKnobs, MalformedQueueBoundWarnsAndKeepsBase)
{
    serve::ServerOptions base;
    base.queueBound = 77;
    const char *bad[] = {"", "  ", "cats", "1k", "-3", "0x10",
                         "99999999999999999999999"};
    for (const char *value : bad) {
        ScopedEnv env("PREDVFS_SERVE_QUEUE", value);
        EXPECT_EQ(serve::serverOptionsFromEnv(base).queueBound, 77u)
            << "value: '" << value << "'";
    }
    {
        // Out of range falls back rather than clamping: a queue bound
        // of 0 would deadlock every Predict, so it must be loud.
        ScopedEnv env("PREDVFS_SERVE_QUEUE", "0");
        EXPECT_EQ(serve::serverOptionsFromEnv(base).queueBound, 77u);
    }
    {
        ScopedEnv env("PREDVFS_SERVE_QUEUE", "256");
        EXPECT_EQ(serve::serverOptionsFromEnv(base).queueBound, 256u);
    }
}

TEST(ServeEnvKnobs, SnapshotPathAcceptsAnyNonEmptyString)
{
    serve::ServerOptions base;
    base.snapshotPath = "base.snapshot";
    {
        ScopedEnv env("PREDVFS_SNAPSHOT", "/tmp/warm.snapshot");
        EXPECT_EQ(serve::serverOptionsFromEnv(base).snapshotPath,
                  "/tmp/warm.snapshot");
    }
    {
        // Set-but-empty is a configuration mistake, not a request for
        // an empty path: warn and keep the base.
        ScopedEnv env("PREDVFS_SNAPSHOT", "");
        EXPECT_EQ(serve::serverOptionsFromEnv(base).snapshotPath,
                  "base.snapshot");
    }
    {
        ScopedEnv env("PREDVFS_SNAPSHOT", nullptr);
        EXPECT_EQ(serve::serverOptionsFromEnv(base).snapshotPath,
                  "base.snapshot");
    }
}
