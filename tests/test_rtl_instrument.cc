/**
 * @file
 * Instrumenter: feature accumulation equals hand-computed counts, and
 * the "record the sum, not the average" convention of the paper.
 */

#include <gtest/gtest.h>

#include "rtl/analysis.hh"
#include "rtl/expr.hh"
#include "rtl/instrument.hh"
#include "rtl/interpreter.hh"

using namespace predvfs::rtl;

namespace {

/** Design with a branch and both counter directions. */
struct Fixture
{
    Design d{"fix"};
    FieldId x;
    CounterId down;
    CounterId up;
    StateId s_pick, s_down, s_up, s_done;
    FsmId fsm;

    Fixture()
    {
        x = d.addField("x");
        down = d.addCounter("down", CounterDir::Down,
                            Expr::add(fld(x), lit(1)), 16);
        up = d.addCounter("up", CounterDir::Up,
                          Expr::mul(fld(x), lit(2)), 16);
        fsm = d.addFsm("main");
        State pick;
        pick.name = "Pick";
        s_pick = d.addState(fsm, std::move(pick));
        State sd;
        sd.name = "Down";
        sd.kind = LatencyKind::CounterWait;
        sd.counter = down;
        s_down = d.addState(fsm, std::move(sd));
        State su;
        su.name = "Up";
        su.kind = LatencyKind::CounterWait;
        su.counter = up;
        s_up = d.addState(fsm, std::move(su));
        State done;
        done.name = "Done";
        done.terminal = true;
        s_done = d.addState(fsm, std::move(done));

        d.addTransition(fsm, s_pick, Expr::ge(fld(x), lit(10)), s_down);
        d.addTransition(fsm, s_pick, nullptr, s_up);
        d.addTransition(fsm, s_down, nullptr, s_done);
        d.addTransition(fsm, s_up, nullptr, s_done);
        d.validate();
    }
};

JobInput
makeJob(std::vector<std::int64_t> xs)
{
    JobInput job;
    for (auto v : xs)
        job.items.push_back({{v}});
    return job;
}

} // namespace

TEST(Instrumenter, StcCountsPerEdge)
{
    Fixture f;
    const auto report = analyze(f.d);
    Instrumenter instr(f.d, report.features);
    Interpreter interp(f.d);

    // x >= 10 takes the Down path; else the Up path.
    interp.runReference(makeJob({12, 3, 15, 4, 5}), &instr);

    // The compiled taps read out the same values.
    const Interpreter tapped(f.d, report.features);
    FeatureValues tapped_values;
    tapped.run(makeJob({12, 3, 15, 4, 5}), &tapped_values);
    EXPECT_EQ(tapped_values, instr.values());

    const auto &values = instr.values();
    const auto &specs = instr.specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].name == "stc:main.Pick->Down") {
            EXPECT_DOUBLE_EQ(values[i], 2.0);
        }
        if (specs[i].name == "stc:main.Pick->Up") {
            EXPECT_DOUBLE_EQ(values[i], 3.0);
        }
        if (specs[i].name == "stc:main.Down->Done") {
            EXPECT_DOUBLE_EQ(values[i], 2.0);
        }
    }
}

TEST(Instrumenter, CounterSums)
{
    Fixture f;
    const auto report = analyze(f.d);
    Instrumenter instr(f.d, report.features);
    Interpreter interp(f.d);

    interp.runReference(makeJob({12, 15, 3}), &instr);

    const Interpreter tapped(f.d, report.features);
    FeatureValues tapped_values;
    tapped.run(makeJob({12, 15, 3}), &tapped_values);
    EXPECT_EQ(tapped_values, instr.values());

    const auto &values = instr.values();
    const auto &specs = instr.specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].name == "ic:down") {
            EXPECT_DOUBLE_EQ(values[i], 2.0);
        }
        if (specs[i].name == "siv:down") {  // (12+1) + (15+1).
            EXPECT_DOUBLE_EQ(values[i], 29.0);
        }
        if (specs[i].name == "ic:up") {
            EXPECT_DOUBLE_EQ(values[i], 1.0);
        }
        if (specs[i].name == "spv:up") {  // 3*2.
            EXPECT_DOUBLE_EQ(values[i], 6.0);
        }
    }
}

TEST(Instrumenter, ResetClearsAccumulators)
{
    Fixture f;
    const auto report = analyze(f.d);
    Instrumenter instr(f.d, report.features);
    Interpreter interp(f.d);

    interp.runReference(makeJob({12}), &instr);
    instr.reset();
    for (double v : instr.values())
        EXPECT_DOUBLE_EQ(v, 0.0);

    interp.runReference(makeJob({3}), &instr);
    double total = 0.0;
    for (double v : instr.values())
        total += v;
    EXPECT_GT(total, 0.0);
}

TEST(Instrumenter, SubsetOfFeatures)
{
    Fixture f;
    const auto report = analyze(f.d);
    // Record only the down-counter's SIV.
    std::vector<FeatureSpec> subset;
    for (const auto &spec : report.features)
        if (spec.name == "siv:down")
            subset.push_back(spec);
    ASSERT_EQ(subset.size(), 1u);

    Instrumenter instr(f.d, subset);
    Interpreter interp(f.d);
    interp.runReference(makeJob({12, 15}), &instr);
    EXPECT_DOUBLE_EQ(instr.values()[0], 29.0);
}

TEST(Instrumenter, AreaScalesWithFeatureCount)
{
    Fixture f;
    const auto report = analyze(f.d);
    Instrumenter all(f.d, report.features);
    Instrumenter one(f.d, {report.features.front()});
    EXPECT_GT(all.areaUnits(), one.areaUnits());
}

TEST(InstrumenterDeath, DuplicateFeatureRejected)
{
    Fixture f;
    const auto report = analyze(f.d);
    std::vector<FeatureSpec> dup = {report.features.front(),
                                    report.features.front()};
    EXPECT_DEATH(Instrumenter(f.d, dup), "duplicate");
}
