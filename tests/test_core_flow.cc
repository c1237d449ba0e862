/**
 * @file
 * The offline flow end to end on synthetic designs and on a real
 * benchmark: model quality, sparsity, slice/feature agreement, and
 * the conservativeness of the deployed predictor.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "accel/registry.hh"
#include "core/features.hh"
#include "core/flow.hh"
#include "rtl/analysis.hh"
#include "rtl/expr.hh"
#include "rtl/interpreter.hh"
#include "util/random.hh"
#include "workload/suite.hh"

#include "golden_file.hh"

using namespace predvfs;
using namespace predvfs::rtl;

namespace {

/** Design with two counters and a redundant third feature source. */
Design
twoKnobDesign()
{
    Design d("twoknob");
    const auto a = d.addField("a");
    const auto b = d.addField("b");
    const auto ca = d.addCounter(
        "ca", CounterDir::Down,
        Expr::add(lit(5), Expr::mul(fld(a), lit(7))), 16);
    const auto cb = d.addCounter(
        "cb", CounterDir::Up,
        Expr::add(lit(3), Expr::mul(fld(b), lit(2))), 16);

    const auto fsm = d.addFsm("main");
    State s0;
    s0.name = "A";
    s0.kind = LatencyKind::CounterWait;
    s0.counter = ca;
    const auto id0 = d.addState(fsm, std::move(s0));
    State s1;
    s1.name = "B";
    s1.kind = LatencyKind::CounterWait;
    s1.counter = cb;
    const auto id1 = d.addState(fsm, std::move(s1));
    State s2;
    s2.name = "Done";
    s2.terminal = true;
    const auto id2 = d.addState(fsm, std::move(s2));
    d.addTransition(fsm, id0, nullptr, id1);
    d.addTransition(fsm, id1, nullptr, id2);
    d.validate();
    return d;
}

std::vector<JobInput>
twoKnobJobs(std::size_t count, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<JobInput> jobs;
    for (std::size_t j = 0; j < count; ++j) {
        JobInput job;
        const auto items = rng.uniformInt(2, 25);
        for (std::int64_t i = 0; i < items; ++i)
            job.items.push_back(
                {{rng.uniformInt(0, 60), rng.uniformInt(0, 40)}});
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace

TEST(Flow, NearExactOnLinearDesign)
{
    const Design d = twoKnobDesign();
    const auto train = twoKnobJobs(80, 1);
    const auto flow = core::buildPredictor(d, train);

    Interpreter interp(d);
    const auto test = twoKnobJobs(40, 2);
    for (const auto &job : test) {
        const double actual =
            static_cast<double>(interp.run(job).cycles);
        const auto run = flow.predictor->run(job);
        EXPECT_NEAR(run.predictedCycles / actual, 1.0, 0.02);
    }
}

TEST(Flow, SelectsSparseModel)
{
    const Design d = twoKnobDesign();
    const auto flow = core::buildPredictor(d, twoKnobJobs(80, 3));
    // Plenty of features detected, few kept.
    EXPECT_GT(flow.report.featuresDetected,
              flow.report.featuresSelected);
    EXPECT_LE(flow.report.featuresSelected, 4u);
    EXPECT_GE(flow.report.featuresSelected, 1u);
}

TEST(Flow, SliceOutputMatchesPredictionInputs)
{
    // The predictor's SliceRun must be self-consistent: predicting
    // from the recorded feature vector equals the reported value.
    const Design d = twoKnobDesign();
    const auto flow = core::buildPredictor(d, twoKnobJobs(60, 4));
    const auto test = twoKnobJobs(10, 5);
    for (const auto &job : test) {
        const auto run = flow.predictor->run(job);
        EXPECT_GT(run.sliceCycles, 0u);
        EXPECT_GT(run.predictedCycles, 0.0);
    }
}

TEST(Flow, ReportErrorsAreBounded)
{
    const Design d = twoKnobDesign();
    const auto flow = core::buildPredictor(d, twoKnobJobs(80, 6));
    EXPECT_LT(flow.report.trainMaxOverError, 0.2);
    EXPECT_GT(flow.report.trainMaxUnderError, -0.2);
    EXPECT_GE(flow.report.trainMaxOverError, 0.0);
    EXPECT_LE(flow.report.trainMaxUnderError, 0.0);
}

TEST(Flow, ConservativeOnRealBenchmark)
{
    // djpeg has genuine unmodellable variance; the deployed predictor
    // must still under-predict only rarely and mildly.
    const auto acc = accel::makeAccelerator("djpeg");
    const auto work = workload::makeWorkload(*acc);
    const auto flow =
        core::buildPredictor(acc->design(), work.train);

    Interpreter interp(acc->design());
    std::size_t bad_under = 0;
    for (const auto &job : work.test) {
        const double actual =
            static_cast<double>(interp.run(job).cycles);
        const auto run = flow.predictor->run(job);
        const double err = (run.predictedCycles - actual) / actual;
        if (err < -0.05)  // Under-prediction beyond the 5% margin.
            ++bad_under;
    }
    EXPECT_LE(bad_under, work.test.size() / 20);
}

TEST(Flow, SliceMuchFasterThanAccelerator)
{
    const auto acc = accel::makeAccelerator("h264");
    const auto work = workload::makeWorkload(*acc);
    const auto flow =
        core::buildPredictor(acc->design(), work.train);

    Interpreter interp(acc->design());
    const auto &job = work.test.front();
    const auto full = interp.run(job).cycles;
    const auto slice = flow.predictor->run(job).sliceCycles;
    EXPECT_LT(slice, full / 5);  // Paper: 5-15% of the decoder time.
}

TEST(Flow, HlsSliceFasterThanRtlSlice)
{
    const auto acc = accel::makeAccelerator("md");
    const auto work = workload::makeWorkload(*acc);

    core::FlowConfig rtl_cfg;
    core::FlowConfig hls_cfg;
    hls_cfg.sliceOptions.mode = SliceOptions::Mode::Hls;

    const auto rtl_flow =
        core::buildPredictor(acc->design(), work.train, rtl_cfg);
    const auto hls_flow =
        core::buildPredictor(acc->design(), work.train, hls_cfg);

    const auto &job = work.test.front();
    EXPECT_LT(hls_flow.predictor->run(job).sliceCycles,
              rtl_flow.predictor->run(job).sliceCycles);

    // Same prediction values regardless of slicing level.
    EXPECT_NEAR(hls_flow.predictor->run(job).predictedCycles,
                rtl_flow.predictor->run(job).predictedCycles,
                1e-6 * rtl_flow.predictor->run(job).predictedCycles);
}

namespace {

/** 64-bit FNV-1a over raw bytes, chained through @p h. */
std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t h = 1469598103934665603ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

TEST(Flow, TrainingFeaturesMatchGolden)
{
    // The inputs of Figure 10's models: every design's all-candidate
    // feature matrix, targets, cycles and energy on its training set,
    // pinned bit for bit by digest.
    std::ostringstream os;
    for (const auto &name : accel::benchmarkNames()) {
        const auto acc = accel::makeAccelerator(name);
        const auto work = workload::makeWorkload(*acc);
        const auto features = analyze(acc->design()).features;
        const core::FeatureDataset ds =
            core::collectDataset(acc->design(), features, work.train);

        std::uint64_t x = fnv1a(nullptr, 0);
        for (std::size_t r = 0; r < ds.x.rows(); ++r)
            for (std::size_t c = 0; c < ds.x.cols(); ++c) {
                const double v = ds.x.at(r, c);
                x = fnv1a(&v, sizeof(v), x);
            }
        os << name << " jobs=" << ds.x.rows()
           << " features=" << ds.x.cols() << " x=" << hex64(x)
           << " y=" << hex64(fnv1a(ds.y.values().data(),
                                  ds.y.size() * sizeof(double)))
           << " cycles=" << hex64(fnv1a(ds.cycles.data(),
                                       ds.cycles.size() *
                                           sizeof(std::uint64_t)))
           << " energy=" << hex64(fnv1a(ds.energyUnits.data(),
                                       ds.energyUnits.size() *
                                           sizeof(double)))
           << "\n";
    }
    predvfs::test::expectMatchesGolden("flow_training_features",
                                       os.str());
}

TEST(FlowDeath, RequiresConservativeAlpha)
{
    const Design d = twoKnobDesign();
    core::FlowConfig config;
    config.alpha = 1.0;
    EXPECT_DEATH(core::buildPredictor(d, twoKnobJobs(10, 7), config),
                 "alpha");
}

TEST(FlowDeath, RequiresTrainingJobs)
{
    const Design d = twoKnobDesign();
    EXPECT_DEATH(core::buildPredictor(d, {}), "no training jobs");
}
