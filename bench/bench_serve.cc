/**
 * @file
 * Serving-layer benchmark: the prediction service driven over the
 * loopback transport.
 *
 * For each measured benchmark this times the full test workload as a
 * pipelined client burst, cold (empty JobCache) and warm (all hits),
 * then hammers the server with duplicate-heavy multi-client traffic
 * to exercise batching. This stage runs the server's default options,
 * so its occupancy is what natural batching (no accumulation window)
 * achieves under a burst. Reported per benchmark in
 * BENCH_serve.json (path overridable via argv[1]): requests/s cold
 * and warm, the stream's cache hit rate, mean batch lane occupancy,
 * p50/p99 service time, and peak queue depth.
 *
 * The cold and warm replays are also golden-compared: any byte-level
 * divergence between them (cache state leaking into response bytes)
 * exits non-zero, so CI catches it the way it catches a failing test.
 *
 * A second stage reruns the duplicate-heavy traffic through the
 * fault-tolerance path: a small queue bound so Busy backpressure
 * actually fires, chaos-wrapped connections at a fixed fault rate,
 * and retrying clients. Every delivered reply must byte-equal the
 * clean run's reply for the same job (divergence exits non-zero) and
 * the JSON gains the client retry/busy/deadline counters plus the p99
 * under chaos, so the cost of fault tolerance is tracked run to run.
 *
 * A third stage drives two benchmarks concurrently through a sharded
 * dispatcher (N shards) and through a single-dispatcher reference,
 * byte-compares every reply between the two (divergence exits
 * non-zero), and reports each shard's stream count, peak queue depth,
 * drain count, and mean batch occupancy in the JSON, so shard balance
 * and the cost of removing cross-stream head-of-line blocking are
 * tracked run to run.
 */

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accel/registry.hh"
#include "serve/chaos.hh"
#include "serve/client.hh"
#include "serve/golden.hh"
#include "serve/server.hh"
#include "sim/job_cache.hh"
#include "workload/replay.hh"
#include "workload/suite.hh"

using namespace predvfs;

namespace {

struct ServeResult
{
    std::string name;
    std::size_t jobs = 0;
    double coldSeconds = 0.0;
    double warmSeconds = 0.0;
    double coldRequestsPerSec = 0.0;
    double warmRequestsPerSec = 0.0;
    double hitRate = 0.0;
    double meanBatchOccupancy = 0.0;
    double p50ServiceMicros = 0.0;
    double p99ServiceMicros = 0.0;
    std::size_t peakQueueDepth = 0;
    bool coldWarmIdentical = false;
};

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One benchmark's numbers from the chaos/backpressure stage. */
struct ChaosStageResult
{
    std::string name;
    double faultRate = 0.0;
    std::size_t clients = 0;
    std::size_t requests = 0;
    serve::ClientStats client;       //!< Summed over all clients.
    std::uint64_t serverBusy = 0;
    std::uint64_t serverExpired = 0;
    double p99ServiceMicros = 0.0;
    bool identityBalances = false;
    bool byteIdentical = false;
};

/** Bit-pattern double equality: the wire ships IEEE-754 bits, so the
 *  comparison must too (a NaN payload is still a byte). */
bool
bitsEqual(double a, double b)
{
    std::uint64_t ba = 0;
    std::uint64_t bb = 0;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    return ba == bb;
}

bool
sameValues(const serve::PredictReplyMsg &a,
           const serve::PredictReplyMsg &b)
{
    return a.cycles == b.cycles &&
           bitsEqual(a.energyUnits, b.energyUnits) &&
           a.sliceCycles == b.sliceCycles &&
           bitsEqual(a.sliceEnergyUnits, b.sliceEnergyUnits) &&
           bitsEqual(a.predictedCycles, b.predictedCycles);
}

ChaosStageResult
measureChaos(const std::string &bench, double fault_rate)
{
    const sim::ExperimentOptions eopts;
    serve::ServerOptions sopts;
    sopts.workers = 2;
    sopts.batchWindowMicros = 200;
    // Small enough that a pipelined burst overflows it: the Busy path
    // is part of what this stage measures.
    sopts.queueBound = 16;
    sopts.experiment = eopts;

    serve::PredictionServer server(sopts);
    server.registerBenchmark(bench);

    const workload::BenchmarkWorkload work = workload::makeWorkload(
        *accel::makeAccelerator(bench), eopts.seed);
    const std::size_t clients = 4;
    const std::vector<workload::ReplayPlan> plans =
        workload::duplicateHeavyPlans(work.test.size(), clients,
                                      /*requests_per_client=*/200,
                                      /*hot_jobs=*/8,
                                      workload::defaultSeed);

    ChaosStageResult r;
    r.name = bench;
    r.faultRate = fault_rate;
    r.clients = clients;

    // Clean pass: same plans over undisturbed loopback. The replies
    // collected here are the byte-level reference for the chaos pass
    // (the cache warming up in between is irrelevant — replies are
    // byte-deterministic either way). The retry policy is on because
    // the small queue bound makes Busy a normal event even without
    // chaos.
    std::vector<std::vector<serve::PredictReplyMsg>> expected(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        serve::RetryOptions ropts;
        ropts.enabled = true;
        ropts.jitterSeed = 100 + c;
        serve::PredictionClient client(server.connectLoopback(),
                                       ropts);
        const std::uint32_t sid = client.openStream(bench);
        std::vector<rtl::JobInput> burst;
        burst.reserve(plans[c].indices.size());
        for (const std::size_t index : plans[c].indices)
            burst.push_back(work.test[index]);
        for (const serve::PredictOutcome &o :
             client.predictManyOutcomes(sid, burst)) {
            if (o.ok)
                expected[c].push_back(o.reply);
        }
    }

    // Chaos pass: every dialled connection is wrapped in the seeded
    // fault decorator; a disconnect mid-burst exercises the full
    // reconnect + idempotent re-send path.
    std::vector<serve::ClientStats> stats(clients);
    std::vector<bool> identical(clients, false);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            auto dials = std::make_shared<std::uint64_t>(0);
            serve::RetryOptions ropts;
            ropts.enabled = true;
            ropts.jitterSeed = 200 + c;
            ropts.connect = [&server, fault_rate, c, dials] {
                const serve::ChaosPlan plan =
                    serve::ChaosPlan::uniform(42, fault_rate);
                return serve::chaosWrap(server.connectLoopback(),
                                        plan,
                                        c * 1000 + (*dials)++);
            };
            serve::PredictionClient client(ropts);
            const std::uint32_t sid = client.openStream(bench);
            std::vector<rtl::JobInput> burst;
            burst.reserve(plans[c].indices.size());
            for (const std::size_t index : plans[c].indices)
                burst.push_back(work.test[index]);
            const std::vector<serve::PredictOutcome> outcomes =
                client.predictManyOutcomes(sid, burst);
            bool ok = outcomes.size() == expected[c].size();
            for (std::size_t i = 0; ok && i < outcomes.size(); ++i)
                ok = outcomes[i].ok &&
                     sameValues(outcomes[i].reply, expected[c][i]);
            identical[c] = ok;
            stats[c] = client.stats();
        });
    }
    for (std::thread &t : threads)
        t.join();

    r.requests = clients * plans[0].indices.size();
    r.byteIdentical = true;
    for (std::size_t c = 0; c < clients; ++c) {
        r.byteIdentical = r.byteIdentical && identical[c];
        r.client.requestsSent += stats[c].requestsSent;
        r.client.busyReplies += stats[c].busyReplies;
        r.client.retries += stats[c].retries;
        r.client.backoffSleeps += stats[c].backoffSleeps;
        r.client.reconnects += stats[c].reconnects;
        r.client.deadlineExpired += stats[c].deadlineExpired;
        r.client.duplicateReplies += stats[c].duplicateReplies;
    }

    const serve::StreamTelemetry telem = server.telemetry(bench);
    r.serverBusy = telem.busy;
    r.serverExpired = telem.expired;
    r.p99ServiceMicros = telem.p99ServiceMicros;
    r.identityBalances =
        telem.requests == telem.cacheHits + telem.coalesced +
                              telem.simulated + telem.busy +
                              telem.expired + telem.shutdown;
    server.stop();
    return r;
}

/** One shard's gauges for the JSON report. */
struct ShardStat
{
    unsigned index = 0;
    std::size_t streams = 0;
    std::size_t peakQueueDepth = 0;
    std::uint64_t drains = 0;
    std::uint64_t requests = 0;
    double meanBatchOccupancy = 0.0;
};

/** The sharded-vs-single-dispatcher stage over a benchmark pair. */
struct ShardedStageResult
{
    unsigned shards = 0;
    std::size_t requests = 0;
    double requestsPerSec = 0.0;
    std::vector<ShardStat> perShard;
    bool byteIdentical = false;    //!< Sharded == single dispatcher.
    bool identityBalances = false; //!< Per shard and in aggregate.
};

ShardedStageResult
measureSharded(const std::vector<std::string> &benches, unsigned shards)
{
    const sim::ExperimentOptions eopts;
    const std::size_t clients_per_bench = 2;

    // Shared plans and workloads, so both servers see identical
    // traffic.
    std::vector<workload::BenchmarkWorkload> works;
    std::vector<std::vector<workload::ReplayPlan>> plans;
    for (const std::string &bench : benches) {
        works.push_back(workload::makeWorkload(
            *accel::makeAccelerator(bench), eopts.seed));
        plans.push_back(workload::duplicateHeavyPlans(
            works.back().test.size(), clients_per_bench,
            /*requests_per_client=*/200, /*hot_jobs=*/8,
            workload::defaultSeed));
    }

    // Reference: one dispatcher, sequential bursts.
    std::vector<std::vector<std::vector<serve::PredictReplyMsg>>>
        expected(benches.size());
    {
        serve::ServerOptions sopts;
        sopts.workers = 2;
        sopts.batchWindowMicros = 200;
        sopts.experiment = eopts;
        serve::PredictionServer reference(sopts);
        for (const std::string &bench : benches)
            reference.registerBenchmark(bench);
        for (std::size_t b = 0; b < benches.size(); ++b) {
            expected[b].resize(clients_per_bench);
            for (std::size_t c = 0; c < clients_per_bench; ++c) {
                serve::PredictionClient client(
                    reference.connectLoopback());
                const std::uint32_t sid =
                    client.openStream(benches[b]);
                std::vector<rtl::JobInput> burst;
                for (const std::size_t index : plans[b][c].indices)
                    burst.push_back(works[b].test[index]);
                expected[b][c] = client.predictMany(sid, burst);
            }
        }
        reference.stop();
    }

    // Sharded: the same bursts, all clients concurrent, N shards.
    ShardedStageResult r;
    r.shards = shards;
    serve::ServerOptions sopts;
    sopts.workers = 2;
    sopts.shards = shards;
    sopts.batchWindowMicros = 200;
    sopts.experiment = eopts;
    serve::PredictionServer server(sopts);
    for (const std::string &bench : benches)
        server.registerBenchmark(bench);

    std::vector<std::vector<bool>> identical(
        benches.size(), std::vector<bool>(clients_per_bench, false));
    std::vector<std::thread> threads;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t b = 0; b < benches.size(); ++b) {
        for (std::size_t c = 0; c < clients_per_bench; ++c) {
            threads.emplace_back([&, b, c] {
                serve::PredictionClient client(
                    server.connectLoopback());
                const std::uint32_t sid =
                    client.openStream(benches[b]);
                std::vector<rtl::JobInput> burst;
                for (const std::size_t index : plans[b][c].indices)
                    burst.push_back(works[b].test[index]);
                const std::vector<serve::PredictReplyMsg> replies =
                    client.predictMany(sid, burst);
                bool ok = replies.size() == expected[b][c].size();
                for (std::size_t i = 0; ok && i < replies.size(); ++i)
                    ok = sameValues(replies[i], expected[b][c][i]);
                identical[b][c] = ok;
            });
        }
    }
    for (std::thread &t : threads)
        t.join();
    const double elapsed = secondsSince(t0);

    r.byteIdentical = true;
    for (std::size_t b = 0; b < benches.size(); ++b) {
        r.requests += clients_per_bench * plans[b][0].indices.size();
        for (std::size_t c = 0; c < clients_per_bench; ++c)
            r.byteIdentical = r.byteIdentical && identical[b][c];
    }
    r.requestsPerSec = static_cast<double>(r.requests) / elapsed;

    r.identityBalances = true;
    std::uint64_t shard_requests = 0;
    for (const serve::ShardTelemetry &s : server.shardTelemetry()) {
        ShardStat stat;
        stat.index = s.index;
        stat.streams = s.streams;
        stat.peakQueueDepth = s.peakQueueDepth;
        stat.drains = s.drains;
        stat.requests = s.requests;
        stat.meanBatchOccupancy = s.meanBatchOccupancy();
        r.perShard.push_back(stat);
        shard_requests += s.requests;
        r.identityBalances =
            r.identityBalances &&
            s.requests == s.cacheHits + s.coalesced + s.simulated +
                              s.busy + s.expired + s.shutdown;
    }
    std::uint64_t stream_requests = 0;
    for (const std::string &bench : benches)
        stream_requests += server.telemetry(bench).requests;
    r.identityBalances =
        r.identityBalances && shard_requests == stream_requests;
    server.stop();
    return r;
}

ServeResult
measure(const std::string &bench)
{
    const sim::ExperimentOptions eopts;
    serve::ServerOptions sopts;
    sopts.workers = 2;
    sopts.experiment = eopts;

    serve::PredictionServer server(sopts);
    server.registerBenchmark(bench);

    ServeResult r;
    r.name = bench;

    // Cold: nothing in the cache (when it is enabled at all).
    sim::JobCache::global().clear();
    serve::GoldenReport cold;
    {
        serve::PredictionClient client(server.connectLoopback());
        const std::uint32_t sid = client.openStream(bench);
        const auto t0 = std::chrono::steady_clock::now();
        cold = serve::buildGoldenReport(client, sid, bench, eopts);
        r.coldSeconds = secondsSince(t0);
    }

    // Warm: the same burst again, now answerable from the cache.
    serve::GoldenReport warm;
    {
        serve::PredictionClient client(server.connectLoopback());
        const std::uint32_t sid = client.openStream(bench);
        const auto t0 = std::chrono::steady_clock::now();
        warm = serve::buildGoldenReport(client, sid, bench, eopts);
        r.warmSeconds = secondsSince(t0);
    }

    r.jobs = cold.jobs;
    r.coldRequestsPerSec =
        static_cast<double>(cold.jobs) / r.coldSeconds;
    r.warmRequestsPerSec =
        static_cast<double>(warm.jobs) / r.warmSeconds;
    r.coldWarmIdentical = cold == warm;

    // Duplicate-heavy multi-client traffic for the batching/telemetry
    // numbers.
    const workload::BenchmarkWorkload work = workload::makeWorkload(
        *accel::makeAccelerator(bench), eopts.seed);
    const std::size_t clients = 4;
    const std::vector<workload::ReplayPlan> plans =
        workload::duplicateHeavyPlans(work.test.size(), clients,
                                      /*requests_per_client=*/200,
                                      /*hot_jobs=*/8,
                                      workload::defaultSeed);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&server, &work, &plans, &bench, c] {
            serve::PredictionClient client(server.connectLoopback());
            const std::uint32_t sid = client.openStream(bench);
            std::vector<rtl::JobInput> burst;
            burst.reserve(plans[c].indices.size());
            for (const std::size_t index : plans[c].indices)
                burst.push_back(work.test[index]);
            client.predictMany(sid, burst);
        });
    }
    for (std::thread &t : threads)
        t.join();

    const serve::StreamTelemetry telem = server.telemetry(bench);
    r.hitRate = telem.hitRate();
    r.meanBatchOccupancy = telem.meanBatchOccupancy();
    r.p50ServiceMicros = telem.p50ServiceMicros;
    r.p99ServiceMicros = telem.p99ServiceMicros;
    r.peakQueueDepth = server.maxQueueDepth();
    server.stop();
    return r;
}

void
writeJson(std::ostream &os, const std::vector<ServeResult> &results,
          const std::vector<ChaosStageResult> &chaos,
          const ShardedStageResult &sharded)
{
    os.precision(6);
    os << "{\n  \"bench\": \"serve\",\n  \"cache_enabled\": "
       << (sim::JobCache::enabledByEnv() ? "true" : "false")
       << ",\n  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ServeResult &r = results[i];
        os << "    {\n"
           << "      \"name\": \"" << r.name << "\",\n"
           << "      \"jobs\": " << r.jobs << ",\n"
           << "      \"cold_seconds\": " << r.coldSeconds << ",\n"
           << "      \"warm_seconds\": " << r.warmSeconds << ",\n"
           << "      \"cold_requests_per_sec\": "
           << r.coldRequestsPerSec << ",\n"
           << "      \"warm_requests_per_sec\": "
           << r.warmRequestsPerSec << ",\n"
           << "      \"cache_hit_rate\": " << r.hitRate << ",\n"
           << "      \"mean_batch_occupancy\": "
           << r.meanBatchOccupancy << ",\n"
           << "      \"p50_service_us\": " << r.p50ServiceMicros
           << ",\n"
           << "      \"p99_service_us\": " << r.p99ServiceMicros
           << ",\n"
           << "      \"peak_queue_depth\": " << r.peakQueueDepth
           << ",\n"
           << "      \"cold_warm_identical\": "
           << (r.coldWarmIdentical ? "true" : "false") << "\n    }"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"chaos\": [\n";
    for (std::size_t i = 0; i < chaos.size(); ++i) {
        const ChaosStageResult &c = chaos[i];
        os << "    {\n"
           << "      \"name\": \"" << c.name << "\",\n"
           << "      \"fault_rate\": " << c.faultRate << ",\n"
           << "      \"clients\": " << c.clients << ",\n"
           << "      \"requests\": " << c.requests << ",\n"
           << "      \"requests_sent\": " << c.client.requestsSent
           << ",\n"
           << "      \"busy_replies\": " << c.client.busyReplies
           << ",\n"
           << "      \"retries\": " << c.client.retries << ",\n"
           << "      \"backoff_sleeps\": " << c.client.backoffSleeps
           << ",\n"
           << "      \"reconnects\": " << c.client.reconnects << ",\n"
           << "      \"deadline_expired\": "
           << c.client.deadlineExpired << ",\n"
           << "      \"duplicate_replies\": "
           << c.client.duplicateReplies << ",\n"
           << "      \"server_busy\": " << c.serverBusy << ",\n"
           << "      \"server_expired\": " << c.serverExpired << ",\n"
           << "      \"p99_service_us\": " << c.p99ServiceMicros
           << ",\n"
           << "      \"telemetry_identity\": "
           << (c.identityBalances ? "true" : "false") << ",\n"
           << "      \"byte_identical\": "
           << (c.byteIdentical ? "true" : "false") << "\n    }"
           << (i + 1 < chaos.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"sharded\": {\n"
       << "    \"shards\": " << sharded.shards << ",\n"
       << "    \"requests\": " << sharded.requests << ",\n"
       << "    \"requests_per_sec\": " << sharded.requestsPerSec
       << ",\n"
       << "    \"byte_identical\": "
       << (sharded.byteIdentical ? "true" : "false") << ",\n"
       << "    \"telemetry_identity\": "
       << (sharded.identityBalances ? "true" : "false") << ",\n"
       << "    \"per_shard\": [\n";
    for (std::size_t i = 0; i < sharded.perShard.size(); ++i) {
        const ShardStat &s = sharded.perShard[i];
        os << "      {\n"
           << "        \"index\": " << s.index << ",\n"
           << "        \"streams\": " << s.streams << ",\n"
           << "        \"peak_queue_depth\": " << s.peakQueueDepth
           << ",\n"
           << "        \"drains\": " << s.drains << ",\n"
           << "        \"requests\": " << s.requests << ",\n"
           << "        \"mean_batch_occupancy\": "
           << s.meanBatchOccupancy << "\n      }"
           << (i + 1 < sharded.perShard.size() ? "," : "") << "\n";
    }
    os << "    ]\n  }\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_serve.json";

    std::vector<ServeResult> results;
    bool ok = true;
    for (const char *bench : {"sha", "cjpeg"}) {
        ServeResult r = measure(bench);
        std::cout << bench << ": " << r.jobs << " jobs, cold "
                  << r.coldRequestsPerSec << " req/s, warm "
                  << r.warmRequestsPerSec << " req/s, hit rate "
                  << r.hitRate << ", occupancy "
                  << r.meanBatchOccupancy << "\n";
        if (!r.coldWarmIdentical) {
            std::cerr << bench
                      << ": cold and warm replies DIVERGED\n";
            ok = false;
        }
        results.push_back(std::move(r));
    }

    std::vector<ChaosStageResult> chaos;
    for (const char *bench : {"sha", "cjpeg"}) {
        ChaosStageResult c = measureChaos(bench, /*fault_rate=*/0.05);
        std::cout << bench << " chaos: " << c.client.requestsSent
                  << " sends for " << c.requests << " requests, "
                  << c.client.busyReplies << " busy, "
                  << c.client.reconnects << " reconnects, p99 "
                  << c.p99ServiceMicros << " us\n";
        if (!c.byteIdentical) {
            std::cerr << bench
                      << ": chaos replies DIVERGED from clean run\n";
            ok = false;
        }
        if (!c.identityBalances) {
            std::cerr << bench
                      << ": chaos telemetry identity broken\n";
            ok = false;
        }
        chaos.push_back(std::move(c));
    }

    const ShardedStageResult sharded =
        measureSharded({"sha", "cjpeg"}, /*shards=*/4);
    std::cout << "sharded: " << sharded.shards << " shards, "
              << sharded.requests << " requests, "
              << sharded.requestsPerSec << " req/s\n";
    for (const ShardStat &s : sharded.perShard)
        std::cout << "  shard " << s.index << ": " << s.streams
                  << " stream(s), peak depth " << s.peakQueueDepth
                  << ", " << s.drains << " drains, occupancy "
                  << s.meanBatchOccupancy << "\n";
    if (!sharded.byteIdentical) {
        std::cerr
            << "sharded replies DIVERGED from single dispatcher\n";
        ok = false;
    }
    if (!sharded.identityBalances) {
        std::cerr << "sharded telemetry identity broken\n";
        ok = false;
    }

    std::ofstream out(out_path);
    writeJson(out, results, chaos, sharded);
    std::cout << "wrote " << out_path << "\n";
    return ok ? 0 : 1;
}
