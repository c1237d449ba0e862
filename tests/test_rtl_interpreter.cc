/**
 * @file
 * Interpreter semantics: dwell times, guarded transitions, counter
 * arming, parallel/sequential FSM composition, energy accounting.
 */

#include <gtest/gtest.h>

#include "rtl/design.hh"
#include "rtl/expr.hh"
#include "rtl/interpreter.hh"

using namespace predvfs;
using rtl::CounterDir;
using rtl::Design;
using rtl::Expr;
using rtl::fld;
using rtl::LatencyKind;
using rtl::lit;
using rtl::State;

namespace {

/** Build a one-FSM design: Read(1cy) -> Work(counter f0) -> Done. */
Design
simpleCounterDesign()
{
    Design d("simple");
    const auto len = d.addField("len");
    const auto cnt =
        d.addCounter("work_len", CounterDir::Down, fld(len));

    const auto fsm = d.addFsm("main");
    State read;
    read.name = "Read";
    read.fixedCycles = 1;
    const auto s_read = d.addState(fsm, std::move(read));

    State work;
    work.name = "Work";
    work.kind = LatencyKind::CounterWait;
    work.counter = cnt;
    const auto s_work = d.addState(fsm, std::move(work));

    State done;
    done.name = "Done";
    done.terminal = true;
    const auto s_done = d.addState(fsm, std::move(done));

    d.addTransition(fsm, s_read, nullptr, s_work);
    d.addTransition(fsm, s_work, nullptr, s_done);
    d.validate();
    return d;
}

rtl::JobInput
jobWithLens(const std::vector<std::int64_t> &lens)
{
    rtl::JobInput job;
    for (auto len : lens)
        job.items.push_back({{len}});
    return job;
}

/** Records counter arm events for inspection. */
class ArmLog : public rtl::Recorder
{
  public:
    struct Arm
    {
        rtl::CounterId counter;
        std::int64_t init;
        std::int64_t final;
    };
    std::vector<Arm> arms;
    std::vector<std::tuple<rtl::FsmId, rtl::StateId, rtl::StateId>>
        transitions;

    void
    onTransition(rtl::FsmId fsm, rtl::StateId src,
                 rtl::StateId dst) override
    {
        transitions.emplace_back(fsm, src, dst);
    }

    void
    onCounterArm(rtl::CounterId counter, std::int64_t init,
                 std::int64_t final) override
    {
        arms.push_back({counter, init, final});
    }
};

} // namespace

TEST(Interpreter, CounterWaitDwellMatchesRange)
{
    const Design d = simpleCounterDesign();
    rtl::Interpreter interp(d);
    // Per item: 1 (Read) + len (Work) + 1 (Done).
    const auto result = interp.run(jobWithLens({10}));
    EXPECT_EQ(result.cycles, 1u + 10u + 1u);
}

TEST(Interpreter, CyclesSumOverItems)
{
    const Design d = simpleCounterDesign();
    rtl::Interpreter interp(d);
    const auto result = interp.run(jobWithLens({10, 20, 30}));
    EXPECT_EQ(result.cycles, 3u * 2u + 60u);
}

TEST(Interpreter, CounterRangeClampedToOne)
{
    const Design d = simpleCounterDesign();
    rtl::Interpreter interp(d);
    // A zero/negative range still takes one cycle (hardware cannot
    // wait less than a cycle).
    const auto result = interp.run(jobWithLens({0}));
    EXPECT_EQ(result.cycles, 1u + 1u + 1u);
}

TEST(Interpreter, PerJobOverheadAdded)
{
    Design d = simpleCounterDesign();
    // Cannot mutate after validate; rebuild with overhead.
    Design d2("overhead");
    const auto len = d2.addField("len");
    const auto cnt =
        d2.addCounter("work_len", CounterDir::Down, fld(len));
    const auto fsm = d2.addFsm("main");
    State work;
    work.name = "Work";
    work.kind = LatencyKind::CounterWait;
    work.counter = cnt;
    work.terminal = true;
    d2.addState(fsm, std::move(work));
    d2.setPerJobOverheadCycles(100);
    d2.validate();

    rtl::Interpreter interp(d2);
    const auto result = interp.run(jobWithLens({5}));
    EXPECT_EQ(result.cycles, 100u + 5u);
    (void)d;
}

TEST(Interpreter, GuardedTransitionsSelectPath)
{
    Design d("branchy");
    const auto mode = d.addField("mode");
    const auto fsm = d.addFsm("main");

    State start;
    start.name = "Start";
    const auto s_start = d.addState(fsm, std::move(start));

    State fast;
    fast.name = "Fast";
    fast.fixedCycles = 2;
    const auto s_fast = d.addState(fsm, std::move(fast));

    State slow;
    slow.name = "Slow";
    slow.fixedCycles = 50;
    const auto s_slow = d.addState(fsm, std::move(slow));

    State done;
    done.name = "Done";
    done.terminal = true;
    const auto s_done = d.addState(fsm, std::move(done));

    d.addTransition(fsm, s_start, Expr::eq(fld(mode), lit(0)), s_fast);
    d.addTransition(fsm, s_start, nullptr, s_slow);
    d.addTransition(fsm, s_fast, nullptr, s_done);
    d.addTransition(fsm, s_slow, nullptr, s_done);
    d.validate();

    rtl::Interpreter interp(d);
    rtl::JobInput fast_job;
    fast_job.items.push_back({{0}});
    rtl::JobInput slow_job;
    slow_job.items.push_back({{1}});

    EXPECT_EQ(interp.run(fast_job).cycles, 1u + 2u + 1u);
    EXPECT_EQ(interp.run(slow_job).cycles, 1u + 50u + 1u);
}

TEST(Interpreter, ParallelFsmsTakeMaxLatency)
{
    Design d("parallel");
    const auto a = d.addField("a");
    const auto b = d.addField("b");
    const auto ca = d.addCounter("ca", CounterDir::Down, fld(a));
    const auto cb = d.addCounter("cb", CounterDir::Down, fld(b));

    for (int i = 0; i < 2; ++i) {
        const auto fsm = d.addFsm(i == 0 ? "fa" : "fb");
        State work;
        work.name = "Work";
        work.kind = LatencyKind::CounterWait;
        work.counter = i == 0 ? ca : cb;
        work.terminal = true;
        d.addState(fsm, std::move(work));
    }
    d.validate();

    rtl::Interpreter interp(d);
    rtl::JobInput job;
    job.items.push_back({{30, 7}});
    EXPECT_EQ(interp.run(job).cycles, 30u);

    rtl::JobInput job2;
    job2.items.push_back({{3, 70}});
    EXPECT_EQ(interp.run(job2).cycles, 70u);
}

TEST(Interpreter, SequentialFsmsChainLatency)
{
    Design d("sequential");
    const auto a = d.addField("a");
    const auto b = d.addField("b");
    const auto ca = d.addCounter("ca", CounterDir::Down, fld(a));
    const auto cb = d.addCounter("cb", CounterDir::Down, fld(b));

    const auto first = d.addFsm("first");
    {
        State work;
        work.name = "Work";
        work.kind = LatencyKind::CounterWait;
        work.counter = ca;
        work.terminal = true;
        d.addState(first, std::move(work));
    }
    const auto second = d.addFsm("second", first);
    {
        State work;
        work.name = "Work";
        work.kind = LatencyKind::CounterWait;
        work.counter = cb;
        work.terminal = true;
        d.addState(second, std::move(work));
    }
    d.validate();

    rtl::Interpreter interp(d);
    rtl::JobInput job;
    job.items.push_back({{30, 7}});
    EXPECT_EQ(interp.run(job).cycles, 37u);
}

TEST(Interpreter, RecorderSeesTransitionsAndArms)
{
    const Design d = simpleCounterDesign();
    rtl::Interpreter interp(d);
    ArmLog log;
    interp.runReference(jobWithLens({12, 4}), &log);

    ASSERT_EQ(log.arms.size(), 2u);
    EXPECT_EQ(log.arms[0].init, 12);
    EXPECT_EQ(log.arms[0].final, 0);  // Down-counter.
    EXPECT_EQ(log.arms[1].init, 4);
    // Per item: Read->Work, Work->Done.
    EXPECT_EQ(log.transitions.size(), 4u);
}

TEST(Interpreter, UpCounterReportsFinalValue)
{
    Design d("up");
    const auto len = d.addField("len");
    const auto cnt = d.addCounter("up_len", CounterDir::Up, fld(len));
    const auto fsm = d.addFsm("main");
    State work;
    work.name = "Work";
    work.kind = LatencyKind::CounterWait;
    work.counter = cnt;
    work.terminal = true;
    d.addState(fsm, std::move(work));
    d.validate();

    rtl::Interpreter interp(d);
    ArmLog log;
    interp.runReference(jobWithLens({9}), &log);
    ASSERT_EQ(log.arms.size(), 1u);
    EXPECT_EQ(log.arms[0].init, 0);
    EXPECT_EQ(log.arms[0].final, 9);
}

TEST(Interpreter, ImplicitLatencyFollowsExpression)
{
    Design d("implicit");
    const auto x = d.addField("x");
    const auto fsm = d.addFsm("main");
    State work;
    work.name = "Work";
    work.kind = LatencyKind::Implicit;
    work.implicitLatency =
        Expr::add(lit(3), Expr::mod(fld(x), lit(5)));
    work.terminal = true;
    d.addState(fsm, std::move(work));
    d.validate();

    rtl::Interpreter interp(d);
    rtl::JobInput job;
    job.items.push_back({{7}});  // 3 + 7%5 = 5.
    EXPECT_EQ(interp.run(job).cycles, 5u);
}

TEST(Interpreter, ArmOnlyStateDwellsOneCycle)
{
    Design d("armonly");
    const auto len = d.addField("len");
    const auto cnt =
        d.addCounter("work_len", CounterDir::Down, fld(len));
    const auto fsm = d.addFsm("main");
    State work;
    work.name = "Work";
    work.kind = LatencyKind::CounterWait;
    work.counter = cnt;
    work.armOnly = true;
    work.terminal = true;
    d.addState(fsm, std::move(work));
    d.validate();

    rtl::Interpreter interp(d);
    ArmLog log;
    const auto result = interp.runReference(jobWithLens({500}), &log);
    EXPECT_EQ(result.cycles, 1u);  // Elided wait.
    EXPECT_EQ(interp.run(jobWithLens({500})).cycles, 1u);
    ASSERT_EQ(log.arms.size(), 1u);
    EXPECT_EQ(log.arms[0].init, 500);  // Full range still recorded.
}

TEST(Interpreter, WaitScaleCompressesDwell)
{
    Design d("scaled");
    const auto len = d.addField("len");
    const auto cnt =
        d.addCounter("work_len", CounterDir::Down, fld(len));
    const auto fsm = d.addFsm("main");
    State work;
    work.name = "Work";
    work.kind = LatencyKind::CounterWait;
    work.counter = cnt;
    work.waitScale = 4;
    work.terminal = true;
    d.addState(fsm, std::move(work));
    d.validate();

    rtl::Interpreter interp(d);
    ArmLog log;
    const auto result = interp.runReference(jobWithLens({100}), &log);
    EXPECT_EQ(result.cycles, 25u);
    EXPECT_EQ(interp.run(jobWithLens({100})).cycles, 25u);
    EXPECT_EQ(log.arms[0].init, 100);  // Feature value unchanged.
}

TEST(Interpreter, EnergyCountsControlAndDatapath)
{
    Design d("energy");
    const auto len = d.addField("len");
    const auto cnt =
        d.addCounter("work_len", CounterDir::Down, fld(len));
    const auto blk = d.addBlock("dp", 100.0, 2.0);
    const auto fsm = d.addFsm("main");
    State work;
    work.name = "Work";
    work.kind = LatencyKind::CounterWait;
    work.counter = cnt;
    work.block = blk;
    work.dpOpsPerCycle = 3.0;
    work.terminal = true;
    d.addState(fsm, std::move(work));
    d.setControlEnergyPerCycle(1.0);
    d.validate();

    rtl::Interpreter interp(d);
    const auto result = interp.run(jobWithLens({10}));
    // 10 cycles x (1 control + 3 ops x 2.0 energy/op) = 70.
    EXPECT_DOUBLE_EQ(result.energyUnits, 70.0);
}
