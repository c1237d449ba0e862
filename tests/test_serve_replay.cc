/**
 * @file
 * End-to-end replay of the prediction service: every benchmark's full
 * test workload is driven through a loopback server and the replies
 * are checked three ways — byte-identical to the in-process pipeline
 * (Experiment), stable across fresh / cache-warm / warm-restart
 * serving, and equal to the checked-in golden report. The goldens do
 * not depend on what the cache holds, because caching and batching
 * never change response bytes.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "serve/client.hh"
#include "serve/golden.hh"
#include "serve/server.hh"
#include "sim/experiment.hh"

#include "run_metrics.hh"

using namespace predvfs;

namespace {

std::string
goldenPath(const std::string &benchmark)
{
    return std::string(PREDVFS_SOURCE_DIR) + "/tests/goldens/serve_" +
        benchmark + ".golden";
}

serve::GoldenReport
replayOnce(serve::PredictionServer &server, const std::string &bench,
           const sim::ExperimentOptions &eopts)
{
    serve::PredictionClient client(server.connectLoopback());
    const std::uint32_t sid = client.openStream(bench);
    return serve::buildGoldenReport(client, sid, bench, eopts);
}

void
checkBenchmark(const std::string &bench)
{
    const sim::ExperimentOptions eopts;
    serve::ServerOptions sopts;
    sopts.experiment = eopts;
    serve::PredictionServer server(sopts);
    server.registerBenchmark(bench);

    // Fresh then cache-warm: replies must not depend on cache state.
    const serve::GoldenReport fresh = replayOnce(server, bench, eopts);
    const serve::GoldenReport warm = replayOnce(server, bench, eopts);
    EXPECT_TRUE(fresh == warm);

    // Byte-identity with the in-process pipeline, record by record.
    sim::Experiment exp(bench, eopts);
    EXPECT_EQ(fresh.streamKey,
              exp.engine().streamKey(&exp.predictor()));
    ASSERT_EQ(fresh.jobs, exp.testPrepared().size());
    {
        serve::PredictionClient client(server.connectLoopback());
        const std::uint32_t sid = client.openStream(bench);
        const std::vector<serve::PredictReplyMsg> replies =
            client.predictMany(sid, exp.workload().test);
        ASSERT_EQ(replies.size(), exp.testPrepared().size());
        for (std::size_t i = 0; i < replies.size(); ++i) {
            const core::PreparedJob &record = exp.testPrepared()[i];
            EXPECT_EQ(replies[i].cycles, record.cycles);
            EXPECT_EQ(replies[i].energyUnits, record.energyUnits);
            EXPECT_EQ(replies[i].sliceCycles, record.sliceCycles);
            EXPECT_EQ(replies[i].sliceEnergyUnits,
                      record.sliceEnergyUnits);
            EXPECT_EQ(replies[i].predictedCycles,
                      record.predictedCycles);
        }
    }
    test::expectMetricsIdentical(fresh.baseline,
                                 exp.runScheme(sim::Scheme::Baseline));
    test::expectMetricsIdentical(fresh.prediction,
                                 exp.runScheme(sim::Scheme::Prediction));

    // Telemetry identity: every request was a hit, a coalesced
    // duplicate, or a fresh simulation.
    const serve::StreamTelemetry t = server.telemetry(bench);
    EXPECT_EQ(t.requests, t.cacheHits + t.coalesced + t.simulated);
    EXPECT_GE(t.requests, 3 * fresh.jobs);
    EXPECT_GT(t.batches, 0u);
    EXPECT_GT(t.meanBatchOccupancy(), 0.0);
    // The warm and record-check replays were answerable from the
    // cache outright.
    EXPECT_GE(t.cacheHits, 2 * fresh.jobs);

    // Warm restart: a brand-new server (fresh engine, retrained
    // predictor) must serve the same bytes.
    serve::PredictionServer restartedServer(sopts);
    restartedServer.registerBenchmark(bench);
    const serve::GoldenReport restarted =
        replayOnce(restartedServer, bench, eopts);
    EXPECT_TRUE(fresh == restarted);

    // And everything above must match the checked-in golden.
    const serve::GoldenReport golden =
        serve::loadGoldenReport(goldenPath(bench));
    EXPECT_TRUE(golden == fresh)
        << "served report diverges from " << goldenPath(bench)
        << "\nserved:\n" << serve::formatGoldenReport(fresh);
}

} // namespace

TEST(ServeReplay, H264) { checkBenchmark("h264"); }
TEST(ServeReplay, Cjpeg) { checkBenchmark("cjpeg"); }
TEST(ServeReplay, Djpeg) { checkBenchmark("djpeg"); }
TEST(ServeReplay, Md) { checkBenchmark("md"); }
TEST(ServeReplay, Stencil) { checkBenchmark("stencil"); }
TEST(ServeReplay, Aes) { checkBenchmark("aes"); }
TEST(ServeReplay, Sha) { checkBenchmark("sha"); }

TEST(ServeReplay, GoldenFormatRoundTrips)
{
    serve::GoldenReport report;
    report.benchmark = "sha";
    report.streamKey = 0xDEADBEEFCAFEF00Dull;
    report.jobs = 40;
    report.responseDigest = 123456789;
    report.baseline.jobs = 40;
    report.baseline.execEnergyJoules = 0.1 + 0.2;  // Not representable
    report.baseline.execSeconds = 1.0 / 3.0;       // exactly in decimal.
    report.prediction.jobs = 40;
    report.prediction.overheadEnergyJoules = 6.02214076e23;
    report.prediction.overheadSeconds = 5e-324;  // Subnormal.

    std::istringstream in(serve::formatGoldenReport(report));
    const serve::GoldenReport parsed = serve::parseGoldenReport(in);
    EXPECT_TRUE(parsed == report);
}
