/**
 * @file
 * GuardedPredictiveController: bit-for-bit identical to the plain
 * predictive controller on fault-free streams (the zero-overhead
 * wrapper invariant, on every benchmark), trips to the fallback under
 * persistent model corruption and beats the plain controller there,
 * and re-promotes back to Healthy after a transient fault burst.
 */

#include <gtest/gtest.h>

#include "accel/registry.hh"
#include "core/guarded_controller.hh"
#include "core/predictive_controller.hh"
#include "sim/experiment.hh"
#include "sim/fault.hh"

#include "run_metrics.hh"

using namespace predvfs;
using namespace predvfs::sim;

namespace {

core::DvfsModelConfig
dvfsConfig(const Experiment &exp)
{
    core::DvfsModelConfig dvfs;
    dvfs.deadlineSeconds = exp.options().deadlineSeconds;
    dvfs.switchTimeSeconds = exp.options().switchTimeSeconds;
    dvfs.marginFraction = exp.options().predictionMargin;
    return dvfs;
}

} // namespace

class GuardedCleanRun : public ::testing::TestWithParam<std::string>
{
};

// Acceptance criterion: with faults disabled the guarded controller
// must match the plain predictive controller bit for bit.
TEST_P(GuardedCleanRun, MatchesPlainControllerBitForBit)
{
    Experiment exp(GetParam());
    const auto plain = exp.runScheme(Scheme::Prediction);
    const auto guarded = exp.runScheme(Scheme::GuardedPrediction);

    // Exact double equality on purpose: Healthy must delegate
    // verbatim, not merely approximately.
    test::expectMetricsIdentical(guarded, plain);

    // The watchdog must never have left Healthy on the clean stream.
    const double f0 = exp.accelerator().nominalFrequencyHz();
    core::GuardedPredictiveController direct(
        exp.table(), f0, dvfsConfig(exp), exp.pidConfig());
    exp.engine().run(direct, exp.testPrepared());
    EXPECT_EQ(direct.watchdog().state(), core::HealthState::Healthy);
    EXPECT_EQ(direct.watchdog().escalations(), 0u);
    EXPECT_EQ(direct.stats().warningJobs, 0u);
    EXPECT_EQ(direct.stats().fallbackJobs, 0u);
    EXPECT_EQ(direct.stats().safeModeJobs, 0u);
    EXPECT_EQ(direct.stats().healthyJobs, exp.testPrepared().size());
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, GuardedCleanRun,
    ::testing::ValuesIn(accel::benchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Guarded, TripsAndBeatsPlainUnderPersistentCorruption)
{
    Experiment exp("sha");
    const double f0 = exp.accelerator().nominalFrequencyHz();
    const core::DvfsModelConfig dvfs = dvfsConfig(exp);
    const std::size_t n = exp.testPrepared().size();

    // Model coefficients corrupted (x0.4) from a quarter in: every
    // later prediction is scaled down, the systematic failure mode.
    FaultPlan plan(1);
    plan.modelCorruption(FaultTrigger::scripted({n / 4}), 0.4);
    const FaultSchedule schedule = plan.instantiate(n);
    std::vector<core::PreparedJob> faulted = exp.testPrepared();
    schedule.applyPrepareFaults(faulted);

    core::PredictiveController plain(exp.table(), f0, dvfs);
    core::GuardedPredictiveController guarded(
        exp.table(), f0, dvfs, exp.pidConfig());
    const auto m_plain =
        exp.engine().run(plain, faulted, nullptr, &schedule);
    const auto m_guard =
        exp.engine().run(guarded, faulted, nullptr, &schedule);

    EXPECT_GT(m_plain.misses, 0u);
    EXPECT_LT(m_guard.misses, m_plain.misses);
    EXPECT_GT(guarded.watchdog().escalations(), 0u);
    EXPECT_GT(guarded.stats().fallbackJobs, 0u);
}

TEST(Guarded, RepromotesAfterTransientBurst)
{
    Experiment exp("sha");
    const double f0 = exp.accelerator().nominalFrequencyHz();
    const std::size_t n = exp.testPrepared().size();
    ASSERT_GE(n, 60u);

    // A burst of corrupted readouts early in the stream, then clean:
    // the ladder must escalate during the burst and walk all the way
    // back down to Healthy before the stream ends.
    FaultPlan plan(2);
    plan.sliceReadout(
        FaultTrigger::scripted({10, 11, 12, 13, 14}));
    const FaultSchedule schedule = plan.instantiate(n);
    std::vector<core::PreparedJob> faulted = exp.testPrepared();
    schedule.applyPrepareFaults(faulted);

    core::GuardedPredictiveController guarded(
        exp.table(), f0, dvfsConfig(exp), exp.pidConfig());
    exp.engine().run(guarded, faulted, nullptr, &schedule);

    EXPECT_GT(guarded.watchdog().escalations(), 0u);
    EXPECT_GT(guarded.watchdog().repromotions(), 0u);
    EXPECT_EQ(guarded.watchdog().state(),
              core::HealthState::Healthy);
    EXPECT_GT(guarded.stats().healthyJobs, n / 2);
}

TEST(Guarded, ResetRestoresInitialBehaviour)
{
    Experiment exp("sha");
    const double f0 = exp.accelerator().nominalFrequencyHz();
    const std::size_t n = exp.testPrepared().size();

    FaultPlan plan(3);
    plan.sliceReadout(FaultTrigger::probabilistic(0.05));
    const FaultSchedule schedule = plan.instantiate(n);
    std::vector<core::PreparedJob> faulted = exp.testPrepared();
    schedule.applyPrepareFaults(faulted);

    core::GuardedPredictiveController guarded(
        exp.table(), f0, dvfsConfig(exp), exp.pidConfig());
    const auto first =
        exp.engine().run(guarded, faulted, nullptr, &schedule);
    // run() resets the controller up front, so a second replay must
    // reproduce the first bit for bit.
    const auto second =
        exp.engine().run(guarded, faulted, nullptr, &schedule);
    EXPECT_EQ(first.misses, second.misses);
    EXPECT_EQ(first.switches, second.switches);
    EXPECT_EQ(first.totalEnergyJoules(), second.totalEnergyJoules());
}
