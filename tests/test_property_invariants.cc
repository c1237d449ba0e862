/**
 * @file
 * Property-based invariants swept across every benchmark accelerator
 * and randomised inputs:
 *
 *  - slice/full feature equivalence (the paper's correctness core);
 *  - interpreter metamorphic laws: determinism, additivity over job
 *    concatenation, item-permutation invariance of totals;
 *  - predictor determinism and linearity in the feature vector;
 *  - expression-tree fuzzing: random ASTs evaluate deterministically
 *    and collectFields() over-approximates the fields read.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "accel/registry.hh"
#include "core/flow.hh"
#include "rtl/analysis.hh"
#include "rtl/interpreter.hh"
#include "util/random.hh"
#include "workload/suite.hh"

using namespace predvfs;
using namespace predvfs::rtl;

namespace {

/** Random work items with field values in a plausible range. */
JobInput
randomJob(const Design &design, util::Rng &rng, int max_items = 24)
{
    JobInput job;
    const auto items = rng.uniformInt(1, max_items);
    for (std::int64_t i = 0; i < items; ++i) {
        WorkItem item;
        item.fields.reserve(design.numFields());
        for (std::size_t f = 0; f < design.numFields(); ++f)
            item.fields.push_back(rng.uniformInt(0, 64));
        job.items.push_back(std::move(item));
    }
    return job;
}

} // namespace

class BenchmarkProperties : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        acc = accel::makeAccelerator(GetParam());
    }

    std::shared_ptr<const accel::Accelerator> acc;
};

TEST_P(BenchmarkProperties, InterpreterDeterministic)
{
    Interpreter interp(acc->design());
    util::Rng rng(101);
    for (int t = 0; t < 10; ++t) {
        const JobInput job = randomJob(acc->design(), rng);
        const auto a = interp.run(job);
        const auto b = interp.run(job);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_DOUBLE_EQ(a.energyUnits, b.energyUnits);
    }
}

TEST_P(BenchmarkProperties, CyclesAdditiveOverConcatenation)
{
    // cycles(A ++ B) == cycles(A) + cycles(B) - overhead (the per-job
    // overhead is charged once per job).
    Interpreter interp(acc->design());
    util::Rng rng(102);
    for (int t = 0; t < 10; ++t) {
        const JobInput a = randomJob(acc->design(), rng);
        const JobInput b = randomJob(acc->design(), rng);
        JobInput ab = a;
        for (const auto &item : b.items)
            ab.items.push_back(item);

        const auto ca = interp.run(a).cycles;
        const auto cb = interp.run(b).cycles;
        const auto cab = interp.run(ab).cycles;
        EXPECT_EQ(cab,
                  ca + cb - acc->design().perJobOverheadCycles());
    }
}

TEST_P(BenchmarkProperties, CyclesInvariantUnderItemPermutation)
{
    // Items are independent; reversing their order cannot change the
    // total (there is no cross-item state in the IR).
    Interpreter interp(acc->design());
    util::Rng rng(103);
    for (int t = 0; t < 10; ++t) {
        JobInput job = randomJob(acc->design(), rng);
        const auto forward = interp.run(job).cycles;
        std::reverse(job.items.begin(), job.items.end());
        EXPECT_EQ(interp.run(job).cycles, forward);
    }
}

TEST_P(BenchmarkProperties, SliceFeaturesMatchFullDesign)
{
    // The fundamental slicing property, on random (not just
    // workload-shaped) inputs, for the features a real flow selects.
    const auto work = workload::makeWorkload(*acc);
    const auto flow = core::buildPredictor(acc->design(), work.train);
    const auto &selected = flow.report.selectedFeatures;
    ASSERT_FALSE(selected.empty());
    const auto &slice = flow.predictor->slice();

    Interpreter full(acc->design(), selected);
    Interpreter fast(slice.design, slice.features);
    FeatureValues full_values;
    FeatureValues slice_values;

    util::Rng rng(104);
    for (int t = 0; t < 10; ++t) {
        const JobInput job = randomJob(acc->design(), rng);
        full.run(job, &full_values);
        fast.run(job, &slice_values);
        for (std::size_t i = 0; i < selected.size(); ++i) {
            EXPECT_DOUBLE_EQ(full_values[i], slice_values[i])
                << selected[i].name;
        }
    }
}

TEST_P(BenchmarkProperties, PredictionLinearInFeatures)
{
    const auto work = workload::makeWorkload(*acc);
    const auto flow = core::buildPredictor(acc->design(), work.train);
    const auto &predictor = *flow.predictor;

    const std::size_t p = predictor.numFeatures();
    FeatureValues zero(p, 0.0);
    const double intercept = predictor.predictCycles(zero);
    EXPECT_DOUBLE_EQ(intercept, predictor.intercept());

    util::Rng rng(105);
    for (int t = 0; t < 10; ++t) {
        FeatureValues a(p);
        FeatureValues b(p);
        for (std::size_t i = 0; i < p; ++i) {
            a[i] = rng.uniform(0.0, 1e4);
            b[i] = rng.uniform(0.0, 1e4);
        }
        FeatureValues sum(p);
        for (std::size_t i = 0; i < p; ++i)
            sum[i] = a[i] + b[i];
        // f(a+b) + f(0) == f(a) + f(b) for affine f.
        EXPECT_NEAR(predictor.predictCycles(sum) + intercept,
                    predictor.predictCycles(a) +
                        predictor.predictCycles(b),
                    1e-6 * std::fabs(predictor.predictCycles(sum)) +
                        1e-6);
    }
}

TEST_P(BenchmarkProperties, EnergyMonotoneInWork)
{
    // Appending items can only add energy.
    Interpreter interp(acc->design());
    util::Rng rng(106);
    JobInput job = randomJob(acc->design(), rng);
    const double e1 = interp.run(job).energyUnits;
    job.items.push_back(job.items.front());
    const double e2 = interp.run(job).energyUnits;
    EXPECT_GT(e2, e1);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkProperties,
    ::testing::ValuesIn(accel::benchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---- Expression-tree fuzzing. ---------------------------------------

namespace {

/** Build a random expression tree over @p num_fields fields. */
ExprPtr
randomExpr(util::Rng &rng, int num_fields, int depth)
{
    if (depth <= 0 || rng.bernoulli(0.3)) {
        if (rng.bernoulli(0.5))
            return lit(rng.uniformInt(-20, 100));
        return fld(static_cast<FieldId>(
            rng.uniformInt(0, num_fields - 1)));
    }
    const auto a = randomExpr(rng, num_fields, depth - 1);
    const auto b = randomExpr(rng, num_fields, depth - 1);
    switch (rng.uniformInt(0, 9)) {
      case 0: return Expr::add(a, b);
      case 1: return Expr::sub(a, b);
      case 2: return Expr::mul(a, b);
      case 3: return Expr::div(a, b);
      case 4: return Expr::mod(a, b);
      case 5: return Expr::min(a, b);
      case 6: return Expr::max(a, b);
      case 7: return Expr::lt(a, b);
      case 8: return Expr::logicalAnd(a, b);
      default:
        return Expr::select(a, b,
                            randomExpr(rng, num_fields, depth - 1));
    }
}

} // namespace

TEST(ExprFuzz, DeterministicAndFieldSound)
{
    util::Rng rng(2001);
    constexpr int num_fields = 6;
    for (int t = 0; t < 400; ++t) {
        const ExprPtr e = randomExpr(rng, num_fields, 5);

        std::vector<std::int64_t> fields(num_fields);
        for (auto &f : fields)
            f = rng.uniformInt(-50, 200);

        // Deterministic.
        EXPECT_EQ(e->eval(fields), e->eval(fields));

        // Changing a field NOT in collectFields() never changes the
        // value (field-collection soundness).
        std::set<FieldId> used;
        e->collectFields(used);
        const auto base = e->eval(fields);
        for (int f = 0; f < num_fields; ++f) {
            if (used.count(f))
                continue;
            auto mutated = fields;
            mutated[f] += 997;
            EXPECT_EQ(e->eval(mutated), base);
        }

        // toString never crashes and is non-empty.
        EXPECT_FALSE(e->toString().empty());
    }
}

TEST(ExprFuzz, SelectConsistentWithGuards)
{
    util::Rng rng(2002);
    for (int t = 0; t < 200; ++t) {
        const auto cond = randomExpr(rng, 3, 3);
        const auto then_e = randomExpr(rng, 3, 3);
        const auto else_e = randomExpr(rng, 3, 3);
        const auto sel = Expr::select(cond, then_e, else_e);

        std::vector<std::int64_t> fields = {
            rng.uniformInt(-10, 60), rng.uniformInt(-10, 60),
            rng.uniformInt(-10, 60)};
        const auto expected = cond->eval(fields) != 0
            ? then_e->eval(fields)
            : else_e->eval(fields);
        EXPECT_EQ(sel->eval(fields), expected);
    }
}
