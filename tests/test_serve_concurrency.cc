/**
 * @file
 * Concurrency determinism of the prediction service: several client
 * threads hammer one server with duplicate-heavy replay plans, and
 * every per-job response must be byte-identical to the in-process
 * pipeline at 1, 2, and 4 server workers — batching, coalescing, and
 * cache state change only latency. The telemetry identity
 * (requests == hits + coalesced + simulated) must hold exactly.
 */

#include <gtest/gtest.h>

#include <thread>

#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/experiment.hh"
#include "workload/replay.hh"

using namespace predvfs;

namespace {

constexpr const char *kBench = "sha";
constexpr std::size_t kClients = 4;
constexpr std::size_t kRequestsPerClient = 120;
constexpr std::size_t kHotJobs = 6;

struct ClientRun
{
    workload::ReplayPlan plan;
    std::vector<serve::PredictReplyMsg> replies;
};

/** Replay duplicate-heavy plans from kClients threads; @return each
 *  thread's replies in plan order. */
std::vector<ClientRun>
hammer(serve::PredictionServer &server,
       const std::vector<rtl::JobInput> &jobs)
{
    const std::vector<workload::ReplayPlan> plans =
        workload::duplicateHeavyPlans(jobs.size(), kClients,
                                      kRequestsPerClient, kHotJobs,
                                      workload::defaultSeed);
    std::vector<ClientRun> runs(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        runs[c].plan = plans[c];
        threads.emplace_back([&server, &jobs, &runs, c] {
            serve::PredictionClient client(server.connectLoopback());
            const std::uint32_t sid = client.openStream(kBench);
            std::vector<rtl::JobInput> burst;
            burst.reserve(runs[c].plan.indices.size());
            for (const std::size_t index : runs[c].plan.indices)
                burst.push_back(jobs[index]);
            runs[c].replies = client.predictMany(sid, burst);
        });
    }
    for (std::thread &t : threads)
        t.join();
    return runs;
}

} // namespace

TEST(ServeConcurrency, DuplicateHeavyStreamsAreDeterministicAcrossWorkers)
{
    // The in-process reference records.
    sim::Experiment exp(kBench, sim::ExperimentOptions{});
    const std::vector<rtl::JobInput> &jobs = exp.workload().test;
    const std::vector<core::PreparedJob> &records = exp.testPrepared();
    ASSERT_GT(jobs.size(), kHotJobs);

    for (const unsigned workers : {1u, 2u, 4u}) {
        serve::ServerOptions sopts;
        sopts.workers = workers;
        // A small window so concurrent bursts actually coalesce.
        sopts.batchWindowMicros = 500;
        serve::PredictionServer server(sopts);
        server.registerBenchmark(kBench);

        const std::vector<ClientRun> runs = hammer(server, jobs);

        // Every reply must byte-equal the reference record of the job
        // it asked about, regardless of worker count, interleaving,
        // or how the accumulation window sliced the traffic.
        std::size_t total = 0;
        for (const ClientRun &run : runs) {
            ASSERT_EQ(run.replies.size(), run.plan.indices.size());
            for (std::size_t i = 0; i < run.replies.size(); ++i) {
                const core::PreparedJob &want =
                    records[run.plan.indices[i]];
                const serve::PredictReplyMsg &got = run.replies[i];
                ASSERT_EQ(got.cycles, want.cycles);
                ASSERT_EQ(got.energyUnits, want.energyUnits);
                ASSERT_EQ(got.sliceCycles, want.sliceCycles);
                ASSERT_EQ(got.sliceEnergyUnits, want.sliceEnergyUnits);
                ASSERT_EQ(got.predictedCycles, want.predictedCycles);
            }
            total += run.replies.size();
        }
        EXPECT_EQ(total, kClients * kRequestsPerClient);

        // Telemetry identity, exact: hits + misses == requests.
        const serve::StreamTelemetry t = server.telemetry(kBench);
        EXPECT_EQ(t.requests, total);
        EXPECT_EQ(t.requests, t.cacheHits + t.coalesced + t.simulated);
        EXPECT_EQ(t.batchJobs, t.requests);
        EXPECT_GT(t.batches, 0u);
        EXPECT_GE(t.meanBatchOccupancy(), 1.0);
        // The hot set dominates the plans; after its first resolution
        // (cache or coalescing) everything else is a non-simulated
        // answer. Duplicate-heavy traffic must not look
        // duplicate-free.
        EXPECT_GE(t.cacheHits + t.coalesced, total / 2);
        server.stop();
    }
}

TEST(ServeConcurrency, QueueDepthAndStatsStayCoherentUnderLoad)
{
    serve::ServerOptions sopts;
    sopts.workers = 2;
    sopts.batchWindowMicros = 200;
    serve::PredictionServer server(sopts);
    server.registerBenchmark(kBench);

    sim::Experiment exp(kBench, sim::ExperimentOptions{});
    hammer(server, exp.workload().test);

    EXPECT_GE(server.maxQueueDepth(), 1u);
    const std::string json = server.telemetryJson();
    EXPECT_NE(json.find("\"benchmark\": \"sha\""), std::string::npos);
    EXPECT_NE(json.find("\"peak_queue_depth\""), std::string::npos);
    EXPECT_NE(json.find("\"mean_batch_occupancy\""),
              std::string::npos);
}
