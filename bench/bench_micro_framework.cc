/**
 * @file
 * google-benchmark microbenchmarks of the framework's hot paths:
 * cycle-level interpretation of a full design vs its slice, model
 * evaluation, instrumented runs, and the training fit. These back the
 * "low overhead" engineering claims and catch performance regressions
 * in the simulator itself.
 */

#include <benchmark/benchmark.h>

#include "accel/registry.hh"
#include "core/flow.hh"
#include "opt/lasso.hh"
#include "rtl/analysis.hh"
#include "rtl/interpreter.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/suite.hh"

using namespace predvfs;

namespace {

/** Shared fixture: h264 accelerator, workload, trained predictor. */
struct Setup
{
    std::shared_ptr<const accel::Accelerator> acc;
    workload::BenchmarkWorkload work;
    core::FlowResult flow;

    Setup()
    {
        util::setVerbose(false);
        acc = accel::makeAccelerator("h264");
        work = workload::makeWorkload(*acc);
        flow = core::buildPredictor(acc->design(), work.train);
    }
};

Setup &
setup()
{
    static Setup s;
    return s;
}

} // namespace

static void
BM_InterpretFullDesign(benchmark::State &state)
{
    auto &s = setup();
    rtl::Interpreter interp(s.acc->design());
    const auto &job = s.work.test.front();
    for (auto _ : state) {
        benchmark::DoNotOptimize(interp.run(job).cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(job.items.size()));
}
BENCHMARK(BM_InterpretFullDesign);

static void
BM_InterpretInstrumented(benchmark::State &state)
{
    auto &s = setup();
    const auto analysis = rtl::analyze(s.acc->design());
    rtl::Interpreter interp(s.acc->design(), analysis.features);
    rtl::FeatureValues values;
    const auto &job = s.work.test.front();
    for (auto _ : state) {
        benchmark::DoNotOptimize(interp.run(job, &values).cycles);
    }
}
BENCHMARK(BM_InterpretInstrumented);

static void
BM_SlicePredict(benchmark::State &state)
{
    auto &s = setup();
    const auto &job = s.work.test.front();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            s.flow.predictor->run(job).predictedCycles);
    }
}
BENCHMARK(BM_SlicePredict);

static void
BM_ModelEvalOnly(benchmark::State &state)
{
    auto &s = setup();
    rtl::FeatureValues values(s.flow.predictor->numFeatures(), 1234.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            s.flow.predictor->predictCycles(values));
    }
}
BENCHMARK(BM_ModelEvalOnly);

static void
BM_LassoFit(benchmark::State &state)
{
    // Synthetic regression problem sized like a real training set.
    const std::size_t n = 256;
    const std::size_t p = 32;
    util::Rng rng(7);
    opt::Matrix x(n, p);
    opt::Vector y(n);
    for (std::size_t r = 0; r < n; ++r) {
        double target = 3.0;
        for (std::size_t c = 0; c < p; ++c) {
            const double v = rng.normal();
            x.at(r, c) = v;
            if (c < 4)
                target += (static_cast<double>(c) + 1.0) * v;
        }
        y[r] = target + 0.01 * rng.normal();
    }
    opt::LassoConfig config;
    config.gamma = 0.5;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            opt::AsymmetricLasso::fit(x, y, config).objective);
    }
}
BENCHMARK(BM_LassoFit);

BENCHMARK_MAIN();
