/**
 * @file
 * Feature taps against the oracle: on all 28 artifacts the repo runs
 * with features — every registry design tapped with its analyze()
 * features, its trained slice, and its all-feature RTL and HLS slices
 * — a tapped run() must reproduce runReference() plus an Instrumenter
 * exactly: cycles, energy, per-item cycles and every feature value. A
 * crafted design whose counter sums cross 2^53 must take the fallback
 * and still match.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/builder.hh"
#include "accel/registry.hh"
#include "core/flow.hh"
#include "rtl/analysis.hh"
#include "rtl/compile.hh"
#include "rtl/instrument.hh"
#include "rtl/interpreter.hh"
#include "rtl/slicer.hh"
#include "util/random.hh"
#include "workload/suite.hh"

using namespace predvfs;
using namespace predvfs::rtl;
using accel::doneState;
using accel::fixedState;
using accel::waitState;

namespace {

/** A random field vector inside the design's declared bounds. */
std::vector<std::int64_t>
randomFields(const Design &design, util::Rng &rng)
{
    std::vector<std::int64_t> fields;
    for (const FieldBounds &b : design.fieldBounds()) {
        const std::int64_t lo = std::max<std::int64_t>(b.lo, -100000);
        const std::int64_t hi = std::min<std::int64_t>(b.hi, 100000);
        fields.push_back(rng.uniformInt(lo, std::max(lo, hi)));
    }
    return fields;
}

/**
 * Run every job tapped and on the oracle; all four outputs must be
 * equal — energy and features with ==, not a tolerance.
 */
void
expectTapsMatchReference(const Design &design,
                         const std::vector<FeatureSpec> &features,
                         const std::vector<JobInput> &jobs,
                         const std::string &what)
{
    const Interpreter interp(design, features);
    ASSERT_EQ(interp.compiled()->features(), features) << what;
    Instrumenter instr(design, features);
    FeatureValues values;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const std::string where = what + ", job " + std::to_string(j);
        std::vector<std::uint64_t> got_items, want_items;
        const JobResult got = interp.run(jobs[j], &values, &got_items);
        instr.reset();
        const JobResult want =
            interp.runReference(jobs[j], &instr, &want_items);
        EXPECT_EQ(got.cycles, want.cycles) << where;
        EXPECT_EQ(got.energyUnits, want.energyUnits) << where;
        EXPECT_EQ(got_items, want_items) << where;
        ASSERT_EQ(values.size(), features.size()) << where;
        for (std::size_t k = 0; k < features.size(); ++k)
            EXPECT_EQ(values[k], instr.values()[k])
                << where << ", feature " << features[k].name;
    }
}

} // namespace

class TapBenchmarks : public ::testing::TestWithParam<std::string>
{};

TEST_P(TapBenchmarks, TappedRunsMatchReferenceOnAllFourArtifacts)
{
    const auto acc = accel::makeAccelerator(GetParam());
    const Design &design = acc->design();
    const workload::BenchmarkWorkload work = workload::makeWorkload(*acc);

    // Real test jobs plus random-field jobs (fields the workload never
    // produces, so every edge and clamp gets exercised).
    std::vector<JobInput> jobs(
        work.test.begin(),
        work.test.begin() + std::min<std::size_t>(work.test.size(), 24));
    util::Rng rng(0x7a95 + GetParam().size());
    for (int t = 0; t < 12; ++t) {
        JobInput job;
        const auto items = rng.uniformInt(1, 20);
        for (std::int64_t i = 0; i < items; ++i)
            job.items.push_back({randomFields(design, rng)});
        jobs.push_back(std::move(job));
    }
    jobs.push_back(JobInput{});

    const std::vector<FeatureSpec> candidates = analyze(design).features;
    expectTapsMatchReference(design, candidates, jobs, "full design");

    const core::FlowResult flow = core::buildPredictor(design, work.train);
    const SliceResult &trained = flow.predictor->slice();
    expectTapsMatchReference(trained.design, trained.features, jobs,
                             "trained slice");

    for (const auto mode :
         {SliceOptions::Mode::Rtl, SliceOptions::Mode::Hls}) {
        SliceOptions options;
        options.mode = mode;
        const SliceResult slice = makeSlice(design, candidates, options);
        expectTapsMatchReference(
            slice.design, slice.features, jobs,
            mode == SliceOptions::Mode::Rtl ? "RTL slice" : "HLS slice");
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, TapBenchmarks,
    ::testing::ValuesIn(accel::benchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

namespace {

/**
 * Counter ranges read straight from fields bounded near 2^62, so a few
 * items push SIV and SPV past 2^53: a down-counter waited out in a
 * segment (dwell-dynamic slot), an up-counter, and a down-counter armed
 * at a branch-dynamic state.
 */
Design
hugeSumDesign()
{
    Design d("huge");
    const FieldId x = d.addField("x");
    const FieldId y = d.addField("y");
    d.setFieldRange(x, 1, std::int64_t{1} << 62);
    d.setFieldRange(y, 1, std::int64_t{1} << 62);
    const CounterId down = d.addCounter("down", CounterDir::Down, fld(x));
    const CounterId up = d.addCounter("up", CounterDir::Up, fld(y));
    const CounterId branch =
        d.addCounter("branch", CounterDir::Down, fld(x));

    const FsmId f = d.addFsm("main");
    const StateId s0 = d.addState(f, fixedState("S0", 2));
    const StateId w0 = d.addState(f, waitState("WaitDown", down));
    const StateId w1 = d.addState(f, waitState("WaitUp", up));
    const StateId w2 = d.addState(f, waitState("WaitBranch", branch));
    const StateId a = d.addState(f, fixedState("A", 1));
    const StateId done = d.addState(f, doneState("Done"));
    d.addTransition(f, s0, nullptr, w0);
    d.addTransition(f, w0, nullptr, w1);
    d.addTransition(f, w1, nullptr, w2);
    d.addTransition(f, w2, Expr::gt(fld(y), lit(5)), a);
    d.addTransition(f, w2, nullptr, done);
    d.addTransition(f, a, nullptr, done);
    d.validate();
    return d;
}

} // namespace

TEST(Taps, SumsPastTwoToThe53FallBackAndMatch)
{
    const Design d = hugeSumDesign();
    const std::vector<FeatureSpec> features = analyze(d).features;

    // Three items of 2^52 + 1: the Instrumenter's running double sum
    // rounds at the third add (3 * 2^52 + 3 lies halfway between two
    // doubles and goes to 3 * 2^52 + 4), which neither the saturated
    // accumulator nor the exact integer sum reproduces.
    const std::int64_t big = (std::int64_t{1} << 52) + 1;
    JobInput crossing;
    for (int i = 0; i < 3; ++i)
        crossing.items.push_back({{big, big}});
    JobInput small;
    small.items.push_back({{7, 3}});
    small.items.push_back({{2, 9}});
    // Four items of 2^62 sum to 2^64: the accumulators must saturate,
    // not overflow and wrap back below the limit.
    const std::int64_t huge = std::int64_t{1} << 62;
    JobInput wrapping;
    for (int i = 0; i < 4; ++i)
        wrapping.items.push_back({{huge, huge}});

    const std::vector<JobInput> jobs = {crossing, small, wrapping,
                                        crossing};
    expectTapsMatchReference(d, features, jobs, "huge sums");

    const Interpreter interp(d, features);
    FeatureValues values;
    interp.run(crossing, &values);
    const double rounded = 3.0 * 4503599627370496.0 + 4.0;
    std::size_t crossed = 0;
    for (std::size_t k = 0; k < features.size(); ++k) {
        if (features[k].kind == FeatureKind::Siv ||
            features[k].kind == FeatureKind::Spv) {
            EXPECT_EQ(values[k], rounded) << features[k].name;
            ++crossed;
        }
    }
    EXPECT_EQ(crossed, 3u);  // SIV down, SPV up, SIV branch.
}
