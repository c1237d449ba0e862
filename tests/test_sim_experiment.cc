/**
 * @file
 * The Experiment driver: construction wiring, scheme caching, option
 * plumbing (platform, deadlines, slice mode, seeds), overhead
 * summaries, and trace/metric consistency (per-job trace energies sum
 * to the aggregate).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/registry.hh"
#include "sim/experiment.hh"

#include "run_metrics.hh"

using namespace predvfs;
using namespace predvfs::sim;

TEST(Experiment, WiresComponentsConsistently)
{
    Experiment exp("sha");
    EXPECT_EQ(exp.accelerator().name(), "sha");
    EXPECT_EQ(exp.testPrepared().size(), exp.workload().test.size());
    EXPECT_EQ(exp.trainPrepared().size(),
              exp.workload().train.size());
    // Prepared records point into the workload the experiment owns.
    EXPECT_EQ(exp.testPrepared().front().input,
              &exp.workload().test.front());
    // The table has the boost level appended.
    EXPECT_TRUE(exp.table().hasBoost());
}

TEST(Experiment, SchemeResultsAreCached)
{
    Experiment exp("stencil");
    const auto a = exp.runScheme(Scheme::Prediction);
    const auto b = exp.runScheme(Scheme::Prediction);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_DOUBLE_EQ(a.totalEnergyJoules(), b.totalEnergyJoules());
}

TEST(Experiment, TraceEnergiesSumToMetrics)
{
    Experiment exp("aes");
    std::vector<JobTrace> trace;
    const auto metrics = exp.runScheme(Scheme::Prediction, &trace);
    ASSERT_EQ(trace.size(), metrics.jobs);
    double sum = 0.0;
    std::size_t misses = 0;
    for (const auto &t : trace) {
        sum += t.energyJoules;
        misses += t.missed ? 1 : 0;
    }
    EXPECT_NEAR(sum, metrics.totalEnergyJoules(),
                1e-9 * std::fabs(sum));
    EXPECT_EQ(misses, metrics.misses);
}

TEST(Experiment, SeedChangesWorkload)
{
    ExperimentOptions other_seed;
    other_seed.seed = 4242;
    Experiment a("md");
    Experiment b("md", other_seed);
    // Different workloads -> different total cycles with near
    // certainty.
    std::uint64_t ca = 0;
    std::uint64_t cb = 0;
    for (const auto &job : a.testPrepared())
        ca += job.cycles;
    for (const auto &job : b.testPrepared())
        cb += job.cycles;
    EXPECT_NE(ca, cb);
}

TEST(Experiment, FpgaPlatformChangesTableAndEnergy)
{
    ExperimentOptions fpga;
    fpga.platform = Platform::Fpga;
    Experiment asic("sha");
    Experiment exp("sha", fpga);
    // 7 non-boost levels + boost on FPGA vs 6 + boost on ASIC.
    EXPECT_EQ(exp.table().size(), 8u);
    EXPECT_EQ(asic.table().size(), 7u);
    // FPGA joules are higher at the same workload and scheme.
    EXPECT_GT(exp.runScheme(Scheme::Baseline).totalEnergyJoules(),
              asic.runScheme(Scheme::Baseline).totalEnergyJoules());
}

TEST(Experiment, HlsSliceModeReducesSliceTime)
{
    ExperimentOptions rtl_opts;
    ExperimentOptions hls_opts;
    hls_opts.sliceOptions.mode = rtl::SliceOptions::Mode::Hls;
    Experiment rtl_exp("md", rtl_opts);
    Experiment hls_exp("md", hls_opts);
    EXPECT_LT(hls_exp.meanSliceTimeFraction(),
              rtl_exp.meanSliceTimeFraction());
}

TEST(Experiment, OverheadSummariesInRange)
{
    Experiment exp("h264");
    EXPECT_GT(exp.sliceAreaFraction(), 0.0);
    EXPECT_LT(exp.sliceAreaFraction(), 0.5);
    EXPECT_GT(exp.sliceResourceFraction(),
              exp.sliceAreaFraction());  // LUT discount inflates it.
    EXPECT_GE(exp.meanSliceTimeFraction(), 0.0);
    EXPECT_LT(exp.meanSliceTimeFraction(), 0.2);
    EXPECT_GT(exp.meanSliceEnergyFraction(), 0.0);
    EXPECT_LT(exp.meanSliceEnergyFraction(), 0.1);
}

TEST(Experiment, PidTuningIsStable)
{
    Experiment exp("cjpeg");
    const auto &a = exp.pidConfig();
    const auto &b = exp.pidConfig();
    EXPECT_DOUBLE_EQ(a.kp, b.kp);
    EXPECT_DOUBLE_EQ(a.ki, b.ki);
    EXPECT_DOUBLE_EQ(a.kd, b.kd);
    EXPECT_GT(a.kp, 0.0);
}

TEST(Experiment, SchemeNamesStable)
{
    EXPECT_STREQ(schemeName(Scheme::Baseline), "baseline");
    EXPECT_STREQ(schemeName(Scheme::Pid), "pid");
    EXPECT_STREQ(schemeName(Scheme::Table), "table");
    EXPECT_STREQ(schemeName(Scheme::Prediction), "prediction");
    EXPECT_STREQ(schemeName(Scheme::Oracle), "oracle");
}

TEST(Experiment, ShorterDeadlineNeverSavesMoreEnergy)
{
    ExperimentOptions tight;
    tight.deadlineSeconds = 0.8 / 60.0;
    Experiment tight_exp("sha", tight);
    Experiment normal_exp("sha");
    EXPECT_GE(tight_exp.normalizedEnergy(Scheme::Prediction),
              normal_exp.normalizedEnergy(Scheme::Prediction) - 1e-9);
}

TEST(Experiment, CellsShareOnePreparedStream)
{
    for (const std::string &name : accel::benchmarkNames()) {
        SCOPED_TRACE(name);
        clearSharedStreams();
        ExperimentOptions base;
        Experiment a(name, base);

        // A cell differing only in deadline/switch time/platform
        // replays the same immutable stream: identical addresses, not
        // just values.
        ExperimentOptions other = base;
        other.deadlineSeconds = 0.5 / 60.0;
        other.switchTimeSeconds = 250e-6;
        other.platform = Platform::Fpga;
        Experiment b(name, other);
        EXPECT_EQ(&a.testPrepared(), &b.testPrepared());
        EXPECT_EQ(&a.trainPrepared(), &b.trainPrepared());
        EXPECT_EQ(&a.predictor(), &b.predictor());

        // Opting out builds privately, with identical record values,
        // and replays to exactly the shared cell's metrics.
        ExperimentOptions priv = other;
        priv.shareStreams = false;
        Experiment d(name, priv);
        EXPECT_NE(&a.testPrepared(), &d.testPrepared());
        ASSERT_EQ(a.testPrepared().size(), d.testPrepared().size());
        for (std::size_t i = 0; i < a.testPrepared().size(); ++i) {
            EXPECT_EQ(a.testPrepared()[i].cycles,
                      d.testPrepared()[i].cycles);
            EXPECT_EQ(a.testPrepared()[i].energyUnits,
                      d.testPrepared()[i].energyUnits);
            EXPECT_EQ(a.testPrepared()[i].predictedCycles,
                      d.testPrepared()[i].predictedCycles);
        }
        test::expectMetricsIdentical(b.runScheme(Scheme::Prediction),
                                     d.runScheme(Scheme::Prediction));
    }

    // Different seed means a different stream.
    clearSharedStreams();
    ExperimentOptions base;
    Experiment a("sha", base);
    ExperimentOptions reseeded = base;
    reseeded.seed = base.seed + 17;
    Experiment c("sha", reseeded);
    EXPECT_NE(&a.testPrepared(), &c.testPrepared());
    clearSharedStreams();
}
