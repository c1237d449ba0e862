/**
 * @file
 * The distributed serving tier, end to end: the same replay plan is
 * driven against one server with 1 and N dispatcher shards, against
 * two server instances splitting the benchmark set, and over all
 * three transports (loopback, Unix socket, TCP), and every reply must
 * be byte-identical to the in-process SimulationEngine pipeline and
 * to the committed golden fixtures — including under seeded chaos
 * faults on the TCP path and across a deterministic mid-run
 * sever-and-reconnect. The async pipelined client is held to the same
 * bar: completions may arrive out of submission order (the harness
 * provokes and pins one such reordering), but aggregated by requestId
 * its replies, digests, and retry counters match the synchronous
 * client exactly. Both clients are driven through the same redials: a
 * reconnect that lands on a server numbering its streams differently,
 * a cut right after the handshake, and a server stopped under a queued
 * burst. A server stopped with requests still queued answers and
 * counts every one of them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/registry.hh"
#include "serve/chaos.hh"
#include "serve/client.hh"
#include "serve/golden.hh"
#include "serve/server.hh"
#include "serve/transport.hh"
#include "sim/experiment.hh"
#include "sim/job_cache.hh"
#include "workload/replay.hh"
#include "workload/suite.hh"

using namespace predvfs;

namespace {

constexpr std::uint64_t kChaosSeed = 20150815;

std::string
goldenPath(const std::string &benchmark)
{
    return std::string(PREDVFS_SOURCE_DIR) + "/tests/goldens/serve_" +
        benchmark + ".golden";
}

/** Build a golden report over an arbitrary ready-made client. */
serve::GoldenReport
reportVia(serve::PredictionClient &client, const std::string &bench,
          const sim::ExperimentOptions &eopts)
{
    const std::uint32_t sid = client.openStream(bench);
    return serve::buildGoldenReport(client, sid, bench, eopts);
}

/** The fixture every transport / shard count / process split must
 *  reproduce bit for bit. */
void
expectMatchesFixture(const serve::GoldenReport &got,
                     const std::string &bench,
                     const std::string &context)
{
    const serve::GoldenReport want =
        serve::loadGoldenReport(goldenPath(bench));
    EXPECT_TRUE(got == want)
        << context << ": served report diverged from "
        << goldenPath(bench) << "\nserved:\n"
        << serve::formatGoldenReport(got) << "golden:\n"
        << serve::formatGoldenReport(want);
}

void
expectStreamIdentity(const serve::StreamTelemetry &t)
{
    EXPECT_TRUE(t.balanced()) << "stream " << t.benchmark;
}

void
expectShardIdentity(const serve::ShardTelemetry &s)
{
    EXPECT_TRUE(s.balanced()) << "shard " << s.index;
}

/** Expect the telemetryJson() object whose first member is @p head to
 *  carry each of @p c's nine counters, with the same value. */
void
expectJsonCounters(const std::string &json, const std::string &head,
                   const serve::ServeCounters &c)
{
    const std::size_t begin = json.find(head);
    ASSERT_NE(begin, std::string::npos) << head;
    const std::string object =
        json.substr(begin, json.find('}', begin) - begin);
    const std::pair<const char *, std::uint64_t> counters[] = {
        {"requests", c.requests},   {"cache_hits", c.cacheHits},
        {"coalesced", c.coalesced}, {"simulated", c.simulated},
        {"busy", c.busy},           {"expired", c.expired},
        {"shutdown", c.shutdown},   {"batches", c.batches},
        {"batch_jobs", c.batchJobs},
    };
    for (const auto &[key, value] : counters) {
        const std::string member = "\"" + std::string(key) +
            "\": " + std::to_string(value) + ",";
        EXPECT_NE(object.find(member), std::string::npos)
            << head << " lacks " << member << " in\n" << object;
    }
}

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** Mirror of golden.cc's reply digest, so the async client's replies
 *  can be chained in submission order and compared to the fixture. */
std::uint64_t
digestReply(std::uint64_t seed, const serve::PredictReplyMsg &reply)
{
    const std::uint64_t words[5] = {
        reply.cycles,
        doubleBits(reply.energyUnits),
        reply.sliceCycles,
        doubleBits(reply.sliceEnergyUnits),
        doubleBits(reply.predictedCycles),
    };
    return sim::JobCache::hashBytes(words, sizeof(words), seed);
}

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

/** A connection that severs itself (hard close, failed write) after a
 *  fixed number of writeAll() calls — a deterministic mid-run cut,
 *  unlike the probabilistic chaos wrapper. */
class SeverAfter : public serve::Connection
{
  public:
    SeverAfter(std::unique_ptr<serve::Connection> inner,
               std::uint64_t writes)
        : inner(std::move(inner)), remaining(writes)
    {
    }

    std::size_t read(void *buf, std::size_t max) override
    {
        return inner->read(buf, max);
    }

    bool writeAll(const void *buf, std::size_t n) override
    {
        if (remaining == 0) {
            inner->close();
            return false;
        }
        --remaining;
        return inner->writeAll(buf, n);
    }

    void close() override { inner->close(); }

  private:
    std::unique_ptr<serve::Connection> inner;
    std::uint64_t remaining;
};

/** A connection that logs the type of the first frame written on it,
 *  so a test can require every dialled connection to open with a
 *  Hello (the server itself does not insist on one). */
class OpeningFrameLog : public serve::Connection
{
  public:
    OpeningFrameLog(std::unique_ptr<serve::Connection> inner,
                    std::shared_ptr<std::vector<std::uint16_t>> log)
        : inner(std::move(inner)), log(std::move(log))
    {
    }

    std::size_t read(void *buf, std::size_t max) override
    {
        return inner->read(buf, max);
    }

    bool writeAll(const void *buf, std::size_t n) override
    {
        // Clients write one whole frame per call; the type is the u16
        // after the u32 payload length.
        if (!opened && n >= 6) {
            const auto *p = static_cast<const std::uint8_t *>(buf);
            log->push_back(static_cast<std::uint16_t>(p[4] | p[5] << 8));
            opened = true;
        }
        return inner->writeAll(buf, n);
    }

    void close() override { inner->close(); }

  private:
    std::unique_ptr<serve::Connection> inner;
    std::shared_ptr<std::vector<std::uint16_t>> log;
    bool opened = false;
};

enum class ClientKind { Sync, Async };

const char *
clientName(ClientKind kind)
{
    return kind == ClientKind::Sync ? "sync" : "async";
}

/** What one client run returned, stream by stream. */
struct ClientRun
{
    /** Each stream's outcomes, in job order. */
    std::vector<std::vector<serve::PredictOutcome>> outcomes;
    std::vector<std::uint64_t> keys;  //!< streamKey() per stream.
    std::vector<std::uint32_t> handles;  //!< openStream() per stream.
    serve::ClientStats stats;
};

/** Two streams sharing one handle cannot be told apart on the wire. */
bool
distinctHandles(const std::vector<std::uint32_t> &handles)
{
    return std::set<std::uint32_t>(handles.begin(), handles.end())
               .size() == handles.size();
}

/**
 * Dial a client of @p kind through @p ropts, open @p benches in order,
 * and send jobs[b] on stream b: the sync client one burst per stream
 * on a helper thread, the async client every job before it drains.
 * If two streams got the same handle, nothing is sent.
 * @p while_queued runs on this thread while the sync bursts run, or
 * once the async client has submitted everything.
 */
ClientRun
runClient(ClientKind kind, const serve::RetryOptions &ropts,
          const std::vector<std::string> &benches,
          const std::vector<std::vector<rtl::JobInput>> &jobs,
          const std::function<void()> &while_queued = {})
{
    ClientRun run;
    run.outcomes.resize(benches.size());
    if (kind == ClientKind::Sync) {
        std::thread bursts([&] {
            serve::PredictionClient client(ropts);
            std::vector<std::uint32_t> sids;
            for (const std::string &bench : benches)
                sids.push_back(client.openStream(bench));
            run.handles = sids;
            if (!distinctHandles(sids))
                return;
            for (std::size_t b = 0; b < benches.size(); ++b)
                run.outcomes[b] =
                    client.predictManyOutcomes(sids[b], jobs[b]);
            for (const std::uint32_t sid : sids)
                run.keys.push_back(client.streamKey(sid));
            run.stats = client.stats();
        });
        if (while_queued)
            while_queued();
        bursts.join();
        return run;
    }

    serve::AsyncPredictionClient client(ropts);
    std::vector<std::uint32_t> sids;
    for (const std::string &bench : benches)
        sids.push_back(client.openStream(bench));
    run.handles = sids;
    if (!distinctHandles(sids))
        return run;
    std::mutex mu;
    std::map<std::uint64_t, serve::PredictOutcome> by_id;
    std::vector<std::vector<std::uint64_t>> ids(benches.size());
    for (std::size_t b = 0; b < benches.size(); ++b) {
        for (const rtl::JobInput &job : jobs[b]) {
            ids[b].push_back(client.submit(
                sids[b], job,
                [&](std::uint64_t id,
                    const serve::PredictOutcome &outcome) {
                    std::lock_guard<std::mutex> lock(mu);
                    by_id[id] = outcome;
                }));
        }
    }
    if (while_queued)
        while_queued();
    client.drain();
    for (std::size_t b = 0; b < benches.size(); ++b) {
        for (const std::uint64_t id : ids[b])
            run.outcomes[b].push_back(by_id[id]);
    }
    for (const std::uint32_t sid : sids)
        run.keys.push_back(client.streamKey(sid));
    run.stats = client.stats();
    client.close();
    return run;
}

/** Every outcome a reply equal to the in-process record. */
void
expectRecords(const std::vector<serve::PredictOutcome> &outcomes,
              const std::vector<core::PreparedJob> &records,
              const std::string &context)
{
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        std::ostringstream where;
        where << context << ", request " << i;
        ASSERT_TRUE(outcomes[i].ok) << where.str();
        expectReplyMatchesRecord(outcomes[i].reply, records[i],
                                 where.str());
    }
}

} // namespace

// ---------------------------------------------------------------
// 1 shard vs N shards: identical bytes, per-shard accounting exact.
// ---------------------------------------------------------------

TEST(ServeDistributed, ShardCountsServeIdenticalBytes)
{
    const std::vector<std::string> benches = {"sha", "cjpeg"};
    const sim::ExperimentOptions eopts;

    for (const unsigned shards : {1u, 4u}) {
        serve::ServerOptions sopts;
        sopts.shards = shards;
        sopts.workers = 2;
        sopts.experiment = eopts;
        serve::PredictionServer server(sopts);
        for (const std::string &bench : benches)
            server.registerBenchmark(bench);

        // Replay both benchmarks concurrently so shards actually run
        // in parallel; each must still reproduce its fixture exactly.
        std::vector<serve::GoldenReport> reports(benches.size());
        std::vector<std::thread> threads;
        for (std::size_t b = 0; b < benches.size(); ++b) {
            threads.emplace_back([&, b] {
                serve::PredictionClient client(
                    server.connectLoopback());
                reports[b] = reportVia(client, benches[b], eopts);
            });
        }
        for (std::thread &t : threads)
            t.join();
        for (std::size_t b = 0; b < benches.size(); ++b) {
            std::ostringstream context;
            context << benches[b] << " @ " << shards << " shard(s)";
            expectMatchesFixture(reports[b], benches[b],
                                 context.str());
        }

        // Stream placement is the stable fingerprint hash, and the
        // telemetry identity holds per stream, per shard, and in
        // aggregate — no request crossed a shard boundary.
        const std::vector<serve::ShardTelemetry> shardStats =
            server.shardTelemetry();
        ASSERT_EQ(shardStats.size(), shards);
        std::uint64_t stream_requests = 0;
        std::map<unsigned, std::uint64_t> per_shard_requests;
        for (const std::string &bench : benches) {
            const serve::StreamTelemetry t = server.telemetry(bench);
            expectStreamIdentity(t);
            EXPECT_EQ(t.shard, server.streamKeyOf(bench) % shards)
                << bench;
            stream_requests += t.requests;
            per_shard_requests[t.shard] += t.requests;
        }
        std::uint64_t shard_requests = 0;
        std::size_t placed_streams = 0;
        std::size_t deepest = 0;
        for (const serve::ShardTelemetry &s : shardStats) {
            expectShardIdentity(s);
            shard_requests += s.requests;
            placed_streams += s.streams;
            deepest = std::max(deepest, s.peakQueueDepth);
            EXPECT_EQ(s.requests, per_shard_requests[s.index]);
            if (s.requests > 0) {
                EXPECT_GT(s.drains, 0u);
            }
        }
        EXPECT_EQ(shard_requests, stream_requests);
        EXPECT_EQ(placed_streams, benches.size());
        EXPECT_EQ(server.maxQueueDepth(), deepest);

        // The Stats document carries every counter of every stream and
        // shard, with the value the in-process snapshots report.
        const std::string json = server.telemetryJson();
        for (const std::string &bench : benches) {
            expectJsonCounters(json, "\"benchmark\": \"" + bench + "\"",
                               server.telemetry(bench));
        }
        for (const serve::ShardTelemetry &s : shardStats) {
            expectJsonCounters(
                json, "\"index\": " + std::to_string(s.index) + ",", s);
        }
        server.stop();
    }
}

// ---------------------------------------------------------------
// Two server instances splitting the benchmark set, over TCP, Unix,
// and loopback at once: every path reproduces the fixtures.
// ---------------------------------------------------------------

TEST(ServeDistributed, ServerSplitAcrossTransportsServesIdenticalBytes)
{
    if (!serve::tcpSocketsAvailable() ||
        !serve::unixSocketsAvailable())
        GTEST_SKIP() << "socket transports unavailable";

    const sim::ExperimentOptions eopts;

    // Server A takes sha behind TCP (ephemeral port, sharded);
    // server B takes cjpeg behind a Unix socket. Together they serve
    // the split benchmark set of a two-process deployment.
    serve::ServerOptions aopts;
    aopts.shards = 2;
    aopts.workers = 2;
    aopts.experiment = eopts;
    serve::PredictionServer serverA(aopts);
    serverA.registerBenchmark("sha");
    const std::string tcpAddr = serverA.listen("tcp://127.0.0.1:0");

    serve::Endpoint parsed;
    ASSERT_TRUE(serve::tryParseEndpoint(tcpAddr, parsed));
    ASSERT_EQ(parsed.kind, serve::Endpoint::Kind::Tcp);
    ASSERT_NE(parsed.port, 0) << "listen() must report the bound port";

    serve::ServerOptions bopts;
    bopts.experiment = eopts;
    serve::PredictionServer serverB(bopts);
    serverB.registerBenchmark("cjpeg");
    const std::string unixPath =
        testing::TempDir() + "predvfs_distributed.sock";
    const std::string unixAddr = serverB.listen(unixPath);
    ASSERT_EQ(unixAddr, unixPath);

    // TCP to A, Unix to B, loopback to A — all three transports must
    // carry the exact fixture bytes.
    {
        std::unique_ptr<serve::Connection> conn =
            serve::connectEndpoint(tcpAddr, /*timeout_ms=*/2000);
        ASSERT_NE(conn, nullptr);
        serve::PredictionClient client(std::move(conn));
        expectMatchesFixture(reportVia(client, "sha", eopts), "sha",
                             "tcp to server A");
    }
    {
        std::unique_ptr<serve::Connection> conn =
            serve::connectEndpoint(unixAddr, /*timeout_ms=*/2000);
        ASSERT_NE(conn, nullptr);
        serve::PredictionClient client(std::move(conn));
        expectMatchesFixture(reportVia(client, "cjpeg", eopts),
                             "cjpeg", "unix to server B");
    }
    {
        serve::PredictionClient client(serverA.connectLoopback());
        expectMatchesFixture(reportVia(client, "sha", eopts), "sha",
                             "loopback to server A");
    }

    // The split is clean: each server accounted only its own
    // benchmark, and the identities hold on both.
    expectStreamIdentity(serverA.telemetry("sha"));
    expectStreamIdentity(serverB.telemetry("cjpeg"));
    for (const serve::ShardTelemetry &s : serverA.shardTelemetry())
        expectShardIdentity(s);

    serverA.stop();
    serverB.stop();
}

// ---------------------------------------------------------------
// Chaos over TCP: the same seeded fault schedule as the Unix/loopback
// soak, byte-exact replies at every fault rate.
// ---------------------------------------------------------------

TEST(ServeDistributed, ChaosOverTcpDeliversByteIdenticalReplies)
{
    if (!serve::tcpSocketsAvailable())
        GTEST_SKIP() << "TCP transport unavailable";

    sim::Experiment exp("sha", sim::ExperimentOptions{});
    const std::vector<rtl::JobInput> &jobs = exp.workload().test;
    const std::vector<core::PreparedJob> &records = exp.testPrepared();

    serve::ServerOptions sopts;
    sopts.shards = 2;
    sopts.workers = 2;
    sopts.batchWindowMicros = 200;
    serve::PredictionServer server(sopts);
    server.registerBenchmark("sha");
    const std::string addr = server.listen("tcp://127.0.0.1:0");

    constexpr std::size_t kClients = 3;
    for (const double rate : {0.02, 0.10}) {
        const std::vector<workload::ReplayPlan> plans =
            workload::duplicateHeavyPlans(jobs.size(), kClients,
                                          /*requests_per_client=*/80,
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
                                               /*timeout_ms=*/2000);
                    if (!raw)
                        return nullptr;
                    const serve::ChaosPlan plan =
                        serve::ChaosPlan::uniform(kChaosSeed, rate);
                    return serve::chaosWrap(std::move(raw), plan,
                                            c * 1000 + (*dials)++);
                };
                serve::PredictionClient client(ropts);
                const std::uint32_t sid = client.openStream("sha");
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
        expectStreamIdentity(server.telemetry("sha"));
        for (const serve::ShardTelemetry &s : server.shardTelemetry())
            expectShardIdentity(s);
    }
    server.stop();
}

// ---------------------------------------------------------------
// A deterministic mid-run sever: the connection dies after a fixed
// number of writes, the client re-dials, and the finished report is
// still byte-identical to the fixture.
// ---------------------------------------------------------------

TEST(ServeDistributed, MidRunSeverAndReconnectOverTcp)
{
    if (!serve::tcpSocketsAvailable())
        GTEST_SKIP() << "TCP transport unavailable";

    const sim::ExperimentOptions eopts;
    serve::ServerOptions sopts;
    sopts.shards = 2;
    sopts.experiment = eopts;
    serve::PredictionServer server(sopts);
    server.registerBenchmark("sha");
    const std::string addr = server.listen("tcp://127.0.0.1:0");

    // The first dial gets a connection that cuts out mid-burst (the
    // handshake and stream-open writes fit well inside the budget);
    // every redial gets a clean one.
    auto dials = std::make_shared<std::uint64_t>(0);
    serve::RetryOptions ropts;
    ropts.enabled = true;
    ropts.connect = [&addr, dials]()
        -> std::unique_ptr<serve::Connection> {
        std::unique_ptr<serve::Connection> raw =
            serve::connectEndpoint(addr, /*timeout_ms=*/2000);
        if (!raw)
            return nullptr;
        if ((*dials)++ == 0)
            return std::make_unique<SeverAfter>(std::move(raw),
                                                /*writes=*/12);
        return raw;
    };

    serve::PredictionClient client(ropts);
    expectMatchesFixture(reportVia(client, "sha", eopts), "sha",
                         "severed mid-run");
    EXPECT_GE(client.stats().reconnects, 1u);
    EXPECT_GE(client.stats().retries, 1u);

    expectStreamIdentity(server.telemetry("sha"));
    server.stop();
}

// ---------------------------------------------------------------
// Async pipelined client: provoke an out-of-submission-order
// completion and pin it; aggregate by requestId and require bytes,
// digests, and counters identical to the synchronous client.
// ---------------------------------------------------------------

TEST(ServeDistributed, AsyncCompletionsArriveOutOfSubmissionOrder)
{
    sim::Experiment exp("sha", sim::ExperimentOptions{});
    const std::vector<rtl::JobInput> &jobs = exp.workload().test;
    const std::vector<core::PreparedJob> &records = exp.testPrepared();
    ASSERT_GE(jobs.size(), 2u);

    // A long accumulation window keeps both requests queued in one
    // batch; the dispatcher answers the expired one before any value
    // reply in that drain, so the second submission completes first.
    serve::ServerOptions sopts;
    sopts.batchWindowMicros = 50000;
    serve::PredictionServer server(sopts);
    server.registerBenchmark("sha");

    serve::AsyncPredictionClient client(server.connectLoopback());
    const std::uint32_t sid = client.openStream("sha");

    std::mutex order_mu;
    std::vector<std::uint64_t> completion_order;
    std::map<std::uint64_t, serve::PredictOutcome> by_id;
    auto record = [&](std::uint64_t id,
                      const serve::PredictOutcome &outcome) {
        std::lock_guard<std::mutex> lock(order_mu);
        completion_order.push_back(id);
        by_id[id] = outcome;
    };

    const std::uint64_t unhurried =
        client.submit(sid, jobs[0], record, /*deadline_micros=*/0);
    const std::uint64_t hurried =
        client.submit(sid, jobs[1], record, /*deadline_micros=*/1);
    client.drain();

    ASSERT_EQ(completion_order.size(), 2u);
    // Submitted second, completed first: the adversarial ordering the
    // callback contract warns about actually happened.
    EXPECT_EQ(completion_order[0], hurried);
    EXPECT_EQ(completion_order[1], unhurried);

    // Aggregated by requestId the outcomes are exact: a typed expiry
    // for the hurried request, fixture bytes for the unhurried one.
    ASSERT_FALSE(by_id[hurried].ok);
    EXPECT_EQ(by_id[hurried].error,
              serve::ErrorCode::DeadlineExceeded);
    ASSERT_TRUE(by_id[unhurried].ok);
    expectReplyMatchesRecord(by_id[unhurried].reply, records[0],
                             "async out-of-order");

    EXPECT_EQ(client.stats().deadlineExpired, 1u);
    const serve::StreamTelemetry t = server.telemetry("sha");
    EXPECT_EQ(t.expired, 1u);
    expectStreamIdentity(t);
    client.close();
    server.stop();
}

TEST(ServeDistributed, AsyncClientMatchesSyncBytesAndCounters)
{
    sim::Experiment exp("sha", sim::ExperimentOptions{});
    const std::vector<rtl::JobInput> &jobs = exp.workload().test;

    serve::PredictionServer server;
    server.registerBenchmark("sha");

    // Synchronous reference burst over the same server.
    std::vector<serve::PredictReplyMsg> syncReplies;
    serve::ClientStats syncStats;
    {
        serve::PredictionClient client(server.connectLoopback());
        const std::uint32_t sid = client.openStream("sha");
        syncReplies = client.predictMany(sid, jobs);
        syncStats = client.stats();
    }

    // Async burst: ship everything without waiting, aggregate by
    // requestId, then re-order into submission order.
    std::mutex mu;
    std::map<std::uint64_t, serve::PredictReplyMsg> by_id;
    std::atomic<std::uint64_t> failures{0};
    serve::AsyncPredictionClient client(server.connectLoopback());
    const std::uint32_t sid = client.openStream("sha");
    std::vector<std::uint64_t> ids;
    ids.reserve(jobs.size());
    for (const rtl::JobInput &job : jobs) {
        ids.push_back(client.submit(
            sid, job,
            [&](std::uint64_t id,
                const serve::PredictOutcome &outcome) {
                if (!outcome.ok) {
                    ++failures;
                    return;
                }
                std::lock_guard<std::mutex> lock(mu);
                by_id[id] = outcome.reply;
            }));
    }
    client.drain();
    ASSERT_EQ(failures.load(), 0u);
    ASSERT_EQ(by_id.size(), jobs.size());

    // Byte-identical replies, request by request, and the chained
    // digest (submission order) equals both the sync digest and the
    // committed fixture's.
    ASSERT_EQ(syncReplies.size(), jobs.size());
    std::uint64_t asyncDigest = 0;
    std::uint64_t syncDigest = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const serve::PredictReplyMsg &a = by_id[ids[i]];
        std::ostringstream context;
        context << "async vs sync, job " << i;
        ASSERT_EQ(a.cycles, syncReplies[i].cycles) << context.str();
        ASSERT_EQ(doubleBits(a.energyUnits),
                  doubleBits(syncReplies[i].energyUnits))
            << context.str();
        ASSERT_EQ(a.sliceCycles, syncReplies[i].sliceCycles)
            << context.str();
        ASSERT_EQ(doubleBits(a.sliceEnergyUnits),
                  doubleBits(syncReplies[i].sliceEnergyUnits))
            << context.str();
        ASSERT_EQ(doubleBits(a.predictedCycles),
                  doubleBits(syncReplies[i].predictedCycles))
            << context.str();
        asyncDigest = digestReply(asyncDigest, a);
        syncDigest = digestReply(syncDigest, syncReplies[i]);
    }
    EXPECT_EQ(asyncDigest, syncDigest);
    const serve::GoldenReport fixture =
        serve::loadGoldenReport(goldenPath("sha"));
    EXPECT_EQ(asyncDigest, fixture.responseDigest);

    // On a clean transport the fault counters agree too: nothing was
    // retried, rejected, or duplicated on either client.
    const serve::ClientStats asyncStats = client.stats();
    EXPECT_EQ(asyncStats.busyReplies, syncStats.busyReplies);
    EXPECT_EQ(asyncStats.retries, syncStats.retries);
    EXPECT_EQ(asyncStats.duplicateReplies, syncStats.duplicateReplies);
    EXPECT_EQ(asyncStats.deadlineExpired, 0u);
    EXPECT_EQ(asyncStats.requestsSent, jobs.size());

    expectStreamIdentity(server.telemetry("sha"));
    client.close();
    server.stop();
}

TEST(ServeDistributed, AsyncClientAbsorbsBusyAndConverges)
{
    sim::Experiment exp("sha", sim::ExperimentOptions{});
    const std::vector<rtl::JobInput> &jobs = exp.workload().test;
    const std::vector<core::PreparedJob> &records = exp.testPrepared();

    // A tiny bound and a long window force Busy rejections the async
    // client must absorb with backed-off re-sends.
    serve::ServerOptions sopts;
    sopts.batchWindowMicros = 2000;
    sopts.queueBound = 8;
    serve::PredictionServer server(sopts);
    server.registerBenchmark("sha");

    const std::vector<workload::ReplayPlan> plans =
        workload::duplicateHeavyPlans(jobs.size(), 1,
                                      /*requests_per_client=*/150,
                                      /*hot_jobs=*/6,
                                      workload::defaultSeed);

    serve::RetryOptions ropts;
    ropts.enabled = true;
    ropts.jitterSeed = 7;
    serve::AsyncPredictionClient client(server.connectLoopback(),
                                        ropts);
    const std::uint32_t sid = client.openStream("sha");

    std::mutex mu;
    std::map<std::uint64_t, serve::PredictOutcome> by_id;
    std::vector<std::uint64_t> ids;
    for (const std::size_t index : plans[0].indices) {
        ids.push_back(client.submit(
            sid, jobs[index],
            [&](std::uint64_t id,
                const serve::PredictOutcome &outcome) {
                std::lock_guard<std::mutex> lock(mu);
                by_id[id] = outcome;
            }));
    }
    client.drain();

    ASSERT_EQ(by_id.size(), plans[0].indices.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const serve::PredictOutcome &outcome = by_id[ids[i]];
        ASSERT_TRUE(outcome.ok) << "request " << i;
        expectReplyMatchesRecord(outcome.reply,
                                 records[plans[0].indices[i]],
                                 "async overload");
    }

    // Backpressure was explicit and fully accounted: the server's
    // Busy count is exactly what this (only) client absorbed.
    const serve::ClientStats stats = client.stats();
    EXPECT_GT(stats.busyReplies, 0u);
    const serve::StreamTelemetry t = server.telemetry("sha");
    EXPECT_EQ(t.busy, stats.busyReplies);
    EXPECT_LE(t.peakQueueDepth, sopts.queueBound);
    expectStreamIdentity(t);
    client.close();
    server.stop();
}

// ---------------------------------------------------------------
// A reconnect that lands on a server numbering its streams the other
// way round: both clients must address every unanswered request by
// its new id (the async client re-encodes the frames it encoded once)
// and still get fixture bytes, and streamKey() must keep answering
// for the caller's id, not for whichever stream now has that wire id.
// ---------------------------------------------------------------

TEST(ServeDistributed, ClientsRemapStreamsAfterStreamIdsChange)
{
    const std::vector<std::string> benches = {"aes", "sha"};
    std::vector<std::unique_ptr<sim::Experiment>> exps;
    std::vector<std::vector<rtl::JobInput>> jobs;
    for (const std::string &bench : benches) {
        exps.push_back(std::make_unique<sim::Experiment>(
            bench, sim::ExperimentOptions{}));
        jobs.push_back(exps.back()->workload().test);
        ASSERT_GT(jobs.back().size(), 4u);
    }

    for (const ClientKind kind : {ClientKind::Sync, ClientKind::Async}) {
        // The first server numbers aes 1 and sha 2, the second the
        // other way round.
        serve::PredictionServer first;
        first.registerBenchmark("aes");
        first.registerBenchmark("sha");
        serve::PredictionServer second;
        second.registerBenchmark("sha");
        second.registerBenchmark("aes");

        // The first dial cuts out after the handshake, the two stream
        // opens and four requests; the redial reaches the second
        // server.
        auto dials = std::make_shared<std::uint64_t>(0);
        serve::RetryOptions ropts;
        ropts.enabled = true;
        ropts.connect = [&first, &second,
                         dials]() -> std::unique_ptr<serve::Connection> {
            if ((*dials)++ == 0)
                return std::make_unique<SeverAfter>(
                    first.connectLoopback(), /*writes=*/7);
            return second.connectLoopback();
        };
        const ClientRun run = runClient(kind, ropts, benches, jobs);

        for (std::size_t b = 0; b < benches.size(); ++b) {
            const std::string context = std::string(clientName(kind)) +
                " " + benches[b] + " after a renumbering reconnect";
            ASSERT_EQ(run.outcomes[b].size(), jobs[b].size()) << context;
            expectRecords(run.outcomes[b], exps[b]->testPrepared(),
                          context);
            EXPECT_EQ(run.keys[b], second.streamKeyOf(benches[b]))
                << context;
        }
        EXPECT_EQ(run.stats.reconnects, 1u) << clientName(kind);

        // Stopped first, so requests the first server took before the
        // cut are settled one way or another before the identity is
        // checked.
        first.stop();
        second.stop();
        for (const std::string &bench : benches) {
            EXPECT_GT(second.telemetry(bench).requests, 0u) << bench;
            expectStreamIdentity(first.telemetry(bench));
            expectStreamIdentity(second.telemetry(bench));
        }
    }
}

// ---------------------------------------------------------------
// A stream opened after a renumbering redial: the first server numbers
// aes 1, the second numbers sha 1 and aes 2. After the redial aes
// keeps handle 1 (now wire id 2), so sha must not take its wire id 1
// as a handle too; the two streams need distinct handles that each
// keep answering for their own benchmark.
// ---------------------------------------------------------------

TEST(ServeDistributed, StreamOpenedAfterRenumberingRedialGetsFreeHandle)
{
    const std::vector<std::string> benches = {"aes", "sha"};
    std::vector<std::unique_ptr<sim::Experiment>> exps;
    std::vector<std::vector<rtl::JobInput>> jobs;
    for (const std::string &bench : benches) {
        exps.push_back(std::make_unique<sim::Experiment>(
            bench, sim::ExperimentOptions{}));
        const auto &test = exps.back()->workload().test;
        ASSERT_GT(test.size(), 4u);
        jobs.emplace_back(test.begin(), test.begin() + 4);
    }

    for (const ClientKind kind : {ClientKind::Sync, ClientKind::Async}) {
        serve::PredictionServer first;
        first.registerBenchmark("aes");
        first.registerBenchmark("sha");
        serve::PredictionServer second;
        second.registerBenchmark("sha");
        second.registerBenchmark("aes");

        // The first dial carries the Hello and aes's OpenStream, then
        // cuts, so openStream("sha") redials to the second server.
        auto dials = std::make_shared<std::uint64_t>(0);
        serve::RetryOptions ropts;
        ropts.enabled = true;
        ropts.connect = [&first, &second,
                         dials]() -> std::unique_ptr<serve::Connection> {
            if ((*dials)++ == 0)
                return std::make_unique<SeverAfter>(
                    first.connectLoopback(), /*writes=*/2);
            return second.connectLoopback();
        };
        const ClientRun run = runClient(kind, ropts, benches, jobs);

        const std::string context = clientName(kind);
        ASSERT_EQ(run.handles.size(), 2u) << context;
        if (run.handles[0] == run.handles[1]) {
            ADD_FAILURE() << context << ": aes and sha share handle "
                          << run.handles[0];
            continue;
        }
        EXPECT_EQ(run.stats.reconnects, 1u) << context;
        for (std::size_t b = 0; b < benches.size(); ++b) {
            const std::string where =
                context + " " + benches[b] + " opened around a redial";
            EXPECT_EQ(run.keys[b], second.streamKeyOf(benches[b]))
                << where;
            ASSERT_EQ(run.outcomes[b].size(), jobs[b].size()) << where;
            expectRecords(run.outcomes[b], exps[b]->testPrepared(),
                          where);
        }
        first.stop();
        second.stop();
    }
}

// ---------------------------------------------------------------
// The two redials no other test reaches, on both clients: a cut right
// after the Hello, so openStream() must redial, and a server stopped
// with the burst still queued, whose ShuttingDown answers move the
// burst to a second server. Every dialled connection must open with a
// Hello.
// ---------------------------------------------------------------

TEST(ServeDistributed, ClientsRedialFromStreamOpenAndShuttingDown)
{
    sim::Experiment exp("sha", sim::ExperimentOptions{});
    constexpr std::size_t kQueued = 8;
    ASSERT_GE(exp.workload().test.size(), kQueued);
    const std::vector<rtl::JobInput> jobs(
        exp.workload().test.begin(),
        exp.workload().test.begin() + kQueued);

    for (const ClientKind kind : {ClientKind::Sync, ClientKind::Async}) {
        for (const bool stop_while_queued : {false, true}) {
            const std::string context =
                std::string(clientName(kind)) +
                (stop_while_queued ? ", server stopped while queued"
                                   : ", cut after the Hello");

            // As in StopWithQueuedRequestsKeepsTheIdentity, a window
            // far longer than the test keeps the burst queued on the
            // first server until stop().
            serve::ServerOptions sopts;
            if (stop_while_queued)
                sopts.batchWindowMicros = 10000000;
            serve::PredictionServer first(sopts);
            first.registerBenchmark("sha");
            serve::PredictionServer second;
            second.registerBenchmark("sha");

            auto dials = std::make_shared<std::uint64_t>(0);
            auto opening = std::make_shared<std::vector<std::uint16_t>>();
            serve::RetryOptions ropts;
            ropts.enabled = true;
            ropts.connect = [&first, &second, stop_while_queued, dials,
                             opening]() -> std::unique_ptr<serve::Connection> {
                std::unique_ptr<serve::Connection> conn;
                if ((*dials)++ > 0)
                    conn = second.connectLoopback();
                else if (stop_while_queued)
                    conn = first.connectLoopback();
                else
                    conn = std::make_unique<SeverAfter>(
                        first.connectLoopback(), /*writes=*/1);
                return std::make_unique<OpeningFrameLog>(std::move(conn),
                                                         opening);
            };
            const auto stop_first = [&first] {
                const auto give_up = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
                while (first.telemetry("sha").requests < kQueued &&
                       std::chrono::steady_clock::now() < give_up)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                first.stop();
            };
            const ClientRun run = runClient(
                kind, ropts, {"sha"}, {jobs},
                stop_while_queued ? std::function<void()>(stop_first)
                                  : std::function<void()>());

            ASSERT_EQ(run.outcomes[0].size(), kQueued) << context;
            expectRecords(run.outcomes[0], exp.testPrepared(), context);
            EXPECT_EQ(run.stats.reconnects, 1u) << context;
            EXPECT_EQ(*opening,
                      std::vector<std::uint16_t>(
                          2, static_cast<std::uint16_t>(
                                 serve::MsgType::Hello)))
                << context;

            first.stop();
            second.stop();
            if (stop_while_queued) {
                EXPECT_EQ(first.telemetry("sha").shutdown, kQueued)
                    << context;
            }
            expectStreamIdentity(first.telemetry("sha"));
            expectStreamIdentity(second.telemetry("sha"));
        }
    }
}

// ---------------------------------------------------------------
// stop() with requests still queued: every one is answered
// ShuttingDown and counted, so the identity holds per stream and per
// shard.
// ---------------------------------------------------------------

TEST(ServeDistributed, StopWithQueuedRequestsKeepsTheIdentity)
{
    const std::vector<rtl::JobInput> jobs =
        workload::makeWorkload(*accel::makeAccelerator("sha")).test;
    constexpr std::uint64_t kQueued = 8;
    ASSERT_GE(jobs.size(), kQueued);

    // A window far longer than the test keeps every request queued
    // until stop(), which wakes the dispatcher at once: no host stall
    // can let the dispatcher drain them first.
    serve::ServerOptions sopts;
    sopts.batchWindowMicros = 10000000;
    serve::PredictionServer server(sopts);
    server.registerBenchmark("sha");

    // Raw frames, because a client treats ShuttingDown as fatal.
    const std::unique_ptr<serve::Connection> conn =
        server.connectLoopback();
    serve::FrameDecoder decoder;
    const auto send = [&conn](serve::MsgType type,
                              const std::vector<std::uint8_t> &payload) {
        const std::vector<std::uint8_t> frame =
            serve::encodeFrame(type, payload);
        return conn->writeAll(frame.data(), frame.size());
    };
    const auto receive = [&conn, &decoder](serve::Frame &frame) {
        std::uint8_t buffer[512];
        while (decoder.next(frame) != serve::FrameDecoder::Status::Ready) {
            const std::size_t n = conn->read(buffer, sizeof(buffer));
            if (n == 0)
                return false;
            decoder.feed(buffer, n);
        }
        return true;
    };

    serve::Frame reply;
    ASSERT_TRUE(send(serve::MsgType::Hello,
                     serve::encodeHello(serve::HelloMsg{})));
    ASSERT_TRUE(receive(reply));
    ASSERT_EQ(static_cast<serve::MsgType>(reply.type),
              serve::MsgType::HelloOk);
    serve::OpenStreamMsg open;
    open.benchmark = "sha";
    ASSERT_TRUE(send(serve::MsgType::OpenStream,
                     serve::encodeOpenStream(open)));
    ASSERT_TRUE(receive(reply));
    serve::StreamOpenedMsg opened;
    ASSERT_TRUE(serve::decodeStreamOpened(reply.payload, opened));
    for (std::uint64_t i = 0; i < kQueued; ++i) {
        ASSERT_TRUE(send(serve::MsgType::Predict,
                         serve::encodePredict(opened.streamId, i + 1, 0,
                                              jobs[i])));
    }

    // requests counts each Predict as the server accepts it.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.telemetry("sha").requests < kQueued) {
        ASSERT_LT(std::chrono::steady_clock::now(), give_up);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.stop();

    const serve::StreamTelemetry t = server.telemetry("sha");
    EXPECT_EQ(t.requests, kQueued);
    EXPECT_EQ(t.shutdown, kQueued);
    expectStreamIdentity(t);
    std::uint64_t shard_shutdown = 0;
    for (const serve::ShardTelemetry &s : server.shardTelemetry()) {
        expectShardIdentity(s);
        shard_shutdown += s.shutdown;
    }
    EXPECT_EQ(shard_shutdown, kQueued);
    EXPECT_NE(server.telemetryJson().find("\"shutdown\": 8"),
              std::string::npos);
}
