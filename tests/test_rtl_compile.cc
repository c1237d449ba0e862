/**
 * @file
 * Differential tests for the expression bytecode compiler: the
 * compiled path must be value-identical to the tree walker on every
 * registry design and on crafted edge cases (division by zero,
 * INT64_MIN wrap, nested selects, saturation boundaries), and a
 * CompiledDesign must reproduce the tree-walking interpreter
 * bit-for-bit — cycles, energy, per-item latencies, and the exact
 * Recorder event stream.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "accel/builder.hh"
#include "accel/registry.hh"
#include "rtl/analysis.hh"
#include "rtl/compile.hh"
#include "rtl/instrument.hh"
#include "rtl/interpreter.hh"
#include "util/random.hh"
#include "workload/suite.hh"

using namespace predvfs;
using namespace predvfs::rtl;

namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/** Every expression a design contains (guards, ranges, latencies). */
std::vector<ExprPtr>
collectExprs(const Design &design)
{
    std::vector<ExprPtr> out;
    for (const Counter &c : design.counters())
        out.push_back(c.range);
    for (const Fsm &fsm : design.fsms()) {
        for (const State &st : fsm.states) {
            if (st.implicitLatency)
                out.push_back(st.implicitLatency);
            for (const Transition &t : st.transitions)
                if (t.guard)
                    out.push_back(t.guard);
        }
    }
    return out;
}

/** A random field vector honouring the design's declared bounds. */
std::vector<std::int64_t>
randomFields(const Design &design, util::Rng &rng)
{
    std::vector<std::int64_t> fields;
    fields.reserve(design.numFields());
    for (const FieldBounds &b : design.fieldBounds()) {
        // Clip undeclared (full-range) bounds so products of fields
        // stay far from the overflow edge; declared bounds are what
        // the workload generators honour anyway.
        const std::int64_t lo = std::max<std::int64_t>(b.lo, -100000);
        const std::int64_t hi = std::min<std::int64_t>(b.hi, 100000);
        fields.push_back(rng.uniformInt(lo, std::max(lo, hi)));
    }
    return fields;
}

/** Captures the exact Recorder event stream for comparison. */
struct EventLog : Recorder
{
    using Event = std::tuple<int, int, int, std::int64_t, std::int64_t>;
    std::vector<Event> events;

    void
    onTransition(FsmId fsm, StateId src, StateId dst) override
    {
        events.emplace_back(0, fsm, src, dst, 0);
    }

    void
    onCounterArm(CounterId counter, std::int64_t init_value,
                 std::int64_t final_value) override
    {
        events.emplace_back(1, counter, 0, init_value, final_value);
    }
};

} // namespace

class CompileBenchmarks : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        acc = accel::makeAccelerator(GetParam());
    }

    std::shared_ptr<const accel::Accelerator> acc;
};

TEST_P(CompileBenchmarks, BytecodeMatchesTreeOnRandomFields)
{
    const Design &design = acc->design();
    const auto exprs = collectExprs(design);
    ASSERT_FALSE(exprs.empty());

    util::Rng rng(0x5eedull + GetParam().size());
    std::vector<ExprProgram> programs;
    programs.reserve(exprs.size());
    for (const ExprPtr &e : exprs)
        programs.emplace_back(e);

    for (int trial = 0; trial < 2000; ++trial) {
        const auto fields = randomFields(design, rng);
        for (std::size_t i = 0; i < exprs.size(); ++i) {
            ASSERT_EQ(programs[i].eval(fields), exprs[i]->eval(fields))
                << design.name() << " expr " << i << ": "
                << exprs[i]->toString(&design.fieldNames());
        }
    }
}

TEST_P(CompileBenchmarks, CompiledJobBitForBitEqualsTreeWalk)
{
    const Interpreter interp(acc->design());
    const workload::BenchmarkWorkload work = workload::makeWorkload(*acc);

    // Real workload jobs plus a random tail; both paths must agree on
    // every bit, including the floating-point energy accumulation.
    std::vector<JobInput> jobs(work.test.begin(),
                               work.test.begin() +
                                   std::min<std::size_t>(
                                       work.test.size(), 16));
    util::Rng rng(0xabc);
    for (int t = 0; t < 8; ++t) {
        JobInput job;
        const auto items = rng.uniformInt(1, 24);
        for (std::int64_t i = 0; i < items; ++i) {
            WorkItem item;
            item.fields = randomFields(acc->design(), rng);
            job.items.push_back(std::move(item));
        }
        jobs.push_back(std::move(job));
    }

    for (const JobInput &job : jobs) {
        EventLog fast_log, ref_log;
        std::vector<std::uint64_t> fast_items, ref_items;
        const JobResult fast = interp.run(job, &fast_log, &fast_items);
        const JobResult ref =
            interp.runReference(job, &ref_log, &ref_items);

        EXPECT_EQ(fast.cycles, ref.cycles);
        // Exact binary equality, not a tolerance: the compiled path
        // preserves the reference operation order.
        EXPECT_EQ(fast.energyUnits, ref.energyUnits);
        EXPECT_EQ(fast_items, ref_items);
        EXPECT_EQ(fast_log.events, ref_log.events);
    }
}

TEST_P(CompileBenchmarks, BatchKernelBitForBitEqualsScalar)
{
    const CompiledDesign compiled(acc->design());
    const Interpreter interp(acc->design());
    const workload::BenchmarkWorkload work = workload::makeWorkload(*acc);

    // A mixed batch: real workload jobs, exact duplicates, an empty
    // job, and random tails of different lengths so lanes retire at
    // different lockstep steps.
    std::vector<JobInput> jobs(work.test.begin(),
                               work.test.begin() +
                                   std::min<std::size_t>(
                                       work.test.size(), 12));
    jobs.push_back(jobs.front());
    jobs.push_back(JobInput{});
    util::Rng rng(0xba7c4);
    for (int t = 0; t < 6; ++t) {
        JobInput job;
        const auto items = rng.uniformInt(1, 30);
        for (std::int64_t i = 0; i < items; ++i) {
            WorkItem item;
            item.fields = randomFields(acc->design(), rng);
            job.items.push_back(std::move(item));
        }
        jobs.push_back(std::move(job));
    }

    std::vector<const JobInput *> ptrs;
    ptrs.reserve(jobs.size());
    for (const JobInput &job : jobs)
        ptrs.push_back(&job);

    const std::vector<JobResult> batch = compiled.runBatch(ptrs);
    ASSERT_EQ(batch.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobResult scalar = compiled.run(jobs[i]);
        const JobResult ref = interp.runReference(jobs[i]);
        EXPECT_EQ(batch[i].cycles, scalar.cycles) << "lane " << i;
        // Exact binary equality: each lane's accumulator sees the
        // scalar path's addition sequence.
        EXPECT_EQ(batch[i].energyUnits, scalar.energyUnits)
            << "lane " << i;
        EXPECT_EQ(batch[i].cycles, ref.cycles) << "lane " << i;
        EXPECT_EQ(batch[i].energyUnits, ref.energyUnits) << "lane " << i;
    }

    // Grouping must not matter: any partition of the batch produces
    // the same per-job bits.
    const std::size_t half = jobs.size() / 2;
    const std::vector<JobResult> front = compiled.runBatch(
        std::vector<const JobInput *>(ptrs.begin(), ptrs.begin() + half));
    for (std::size_t i = 0; i < half; ++i) {
        EXPECT_EQ(front[i].cycles, batch[i].cycles);
        EXPECT_EQ(front[i].energyUnits, batch[i].energyUnits);
    }
    const std::vector<JobResult> single =
        compiled.runBatch(std::vector<const JobInput *>{ptrs.back()});
    EXPECT_EQ(single.at(0).cycles, batch.back().cycles);
    EXPECT_EQ(single.at(0).energyUnits, batch.back().energyUnits);

    EXPECT_TRUE(compiled.runBatch(std::vector<const JobInput *>{})
                    .empty());
    // Straight-line pipelines are statically routed end to end and
    // run as SoA sweeps; FSMs with per-item mode dispatch (e.g. the
    // H.264 control) fall back to the scalar per-lane walk, so both
    // paths were exercised across the suite.
    EXPECT_LE(compiled.numLockstepFsms(), acc->design().fsms().size());
    if (GetParam() == "stencil" || GetParam() == "sha") {
        EXPECT_EQ(compiled.numLockstepFsms(),
                  acc->design().fsms().size());
    }
}

namespace {

/** All non-constant guard trees of a design (speculation subjects). */
std::vector<ExprPtr>
dynamicGuards(const Design &design)
{
    std::vector<ExprPtr> out;
    for (const Fsm &fsm : design.fsms())
        for (const State &st : fsm.states)
            for (const Transition &t : st.transitions)
                if (t.guard && !t.guard->isConstant())
                    out.push_back(t.guard);
    return out;
}

/**
 * Rejection-sample a field vector on which every dynamic guard of the
 * design evaluates to @p want — the building block of adversarial
 * streams with a known per-branch outcome. Returns false when the
 * conjunction resists sampling (the caller then skips that stream).
 */
bool
sampleGuardFields(const Design &design,
                  const std::vector<ExprPtr> &guards, bool want,
                  util::Rng &rng, std::vector<std::int64_t> &out)
{
    for (int attempt = 0; attempt < 20000; ++attempt) {
        out = randomFields(design, rng);
        bool ok = true;
        for (const ExprPtr &g : guards) {
            if ((g->eval(out) != 0) != want) {
                ok = false;
                break;
            }
        }
        if (ok)
            return true;
    }
    return false;
}

} // namespace

TEST_P(CompileBenchmarks, SpeculativeBatchBitExactOnAdversarialStreams)
{
    CompiledDesign compiled(acc->design());
    const Interpreter interp(acc->design());
    const Design &design = acc->design();

    const auto guards = dynamicGuards(design);
    if (guards.empty())
        GTEST_SKIP() << "fully static-routed design: nothing to "
                        "speculate";

    // Field pools where every dynamic guard goes one known way, so a
    // stream's misprediction rate is ours to choose.
    util::Rng rng(0x5becull + GetParam().size());
    std::vector<std::int64_t> f;
    std::vector<std::vector<std::int64_t>> true_pool, false_pool;
    for (int i = 0;
         i < 24 && sampleGuardFields(design, guards, true, rng, f); ++i)
        true_pool.push_back(f);
    for (int i = 0;
         i < 24 && sampleGuardFields(design, guards, false, rng, f);
         ++i)
        false_pool.push_back(f);
    if (true_pool.empty())
        GTEST_SKIP() << "all-taken field pool resisted sampling";

    const auto make_jobs =
        [](const std::vector<std::vector<std::int64_t>> &pool) {
            std::vector<JobInput> jobs;
            std::size_t k = 0;
            for (int j = 0; j < 8; ++j) {
                JobInput job;
                for (int i = 0; i < 3 + j; ++i) {
                    WorkItem item;
                    item.fields = pool[k++ % pool.size()];
                    job.items.push_back(std::move(item));
                }
                jobs.push_back(std::move(job));
            }
            return jobs;
        };

    // Every lane of every batch must be byte-identical to both the
    // scalar compiled walk and the tree-walking reference, whatever
    // the misprediction rate.
    const auto check_batch = [&](const std::vector<JobInput> &jobs,
                                 BatchStats &stats) {
        std::vector<const JobInput *> ptrs;
        for (const JobInput &job : jobs)
            ptrs.push_back(&job);
        std::vector<JobResult> out(jobs.size());
        compiled.runBatch(ptrs.data(), ptrs.size(), out.data(), &stats);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const JobResult scalar = compiled.run(jobs[i]);
            const JobResult ref = interp.runReference(jobs[i]);
            ASSERT_EQ(out[i].cycles, scalar.cycles) << "lane " << i;
            ASSERT_EQ(out[i].energyUnits, scalar.energyUnits)
                << "lane " << i;
            ASSERT_EQ(out[i].cycles, ref.cycles) << "lane " << i;
            ASSERT_EQ(out[i].energyUnits, ref.energyUnits)
                << "lane " << i;
        }
    };
    const auto totals = [](const BatchStats &stats) {
        std::pair<std::uint64_t, std::uint64_t> t{0, 0};
        for (const BatchFsmStats &fs : stats.fsms) {
            t.first += fs.branchChecks;
            t.second += fs.mispredicts;
        }
        return t;
    };

    // Train on the all-taken stream: every branch predicts taken, and
    // (speculation audit included) the artifact re-verifies.
    const std::vector<JobInput> taken_jobs = make_jobs(true_pool);
    compiled.speculate(taken_jobs);
    // Every branch-dynamic FSM in the suite has a speculable two-way
    // head, so routing is total: lockstep or speculated, never scalar.
    EXPECT_EQ(compiled.numLockstepFsms() + compiled.numSpeculatedFsms(),
              design.fsms().size());

    // 0% misprediction: the stream matches the profile exactly.
    BatchStats match_stats;
    check_batch(taken_jobs, match_stats);
    const auto match = totals(match_stats);
    EXPECT_GT(match.first, 0u);
    EXPECT_EQ(match.second, 0u);

    if (!false_pool.empty()) {
        // 100% misprediction: every guard check goes against the
        // prediction and demotes its lane.
        BatchStats foe_stats;
        check_batch(make_jobs(false_pool), foe_stats);
        const auto foe = totals(foe_stats);
        EXPECT_GT(foe.first, 0u);
        EXPECT_EQ(foe.second, foe.first);

        // ~50%: alternate matching and adversarial items.
        std::vector<std::vector<std::int64_t>> mixed;
        const std::size_t pairs =
            std::min(true_pool.size(), false_pool.size());
        for (std::size_t i = 0; i < pairs; ++i) {
            mixed.push_back(true_pool[i]);
            mixed.push_back(false_pool[i]);
        }
        BatchStats mix_stats;
        check_batch(make_jobs(mixed), mix_stats);
        const auto mix = totals(mix_stats);
        EXPECT_GT(mix.second, 0u);
        EXPECT_LT(mix.second, mix.first);
        EXPECT_GT(mix_stats.mispredictRate(), 0.0);
        EXPECT_LT(mix_stats.mispredictRate(), 1.0);
    }

    // Worst-case tables: invert every prediction (re-audited) and run
    // the stream they were trained on — still bit-exact.
    compiled.invertSpeculation();
    BatchStats inv_stats;
    check_batch(taken_jobs, inv_stats);
    const auto inv = totals(inv_stats);
    EXPECT_EQ(inv.second, inv.first);
}

TEST_P(CompileBenchmarks, RootProgramsMatchSourceTrees)
{
    // The (tree, program) pairs a CompiledDesign exposes — the exact
    // list the perf harness times — must agree with their source trees
    // on random field vectors and on real workload items.
    const Design &design = acc->design();
    const CompiledDesign compiled(design);
    const auto &roots = compiled.rootExprs();
    ASSERT_FALSE(roots.empty());
    std::vector<std::int64_t> scratch(
        std::max<std::size_t>(compiled.scratchSize(), 1));

    util::Rng rng(0x5007ull + GetParam().size());
    for (int trial = 0; trial < 2000; ++trial) {
        const auto fields = randomFields(design, rng);
        for (std::size_t i = 0; i < roots.size(); ++i) {
            ASSERT_EQ(compiled.evalProgram(roots[i].second,
                                           fields.data(),
                                           scratch.data()),
                      roots[i].first->eval(fields))
                << design.name() << " root " << i << ": "
                << roots[i].first->toString(&design.fieldNames());
        }
    }

    const workload::BenchmarkWorkload work = workload::makeWorkload(*acc);
    for (std::size_t j = 0; j < std::min<std::size_t>(4, work.test.size());
         ++j) {
        for (const WorkItem &item : work.test[j].items) {
            for (std::size_t i = 0; i < roots.size(); ++i) {
                ASSERT_EQ(compiled.evalProgram(roots[i].second,
                                               item.fields.data(),
                                               scratch.data()),
                          roots[i].first->eval(item.fields));
            }
        }
    }
}

TEST_P(CompileBenchmarks, CompiledDesignIntrospection)
{
    const CompiledDesign compiled(acc->design());
    EXPECT_GT(compiled.numPrograms(), 0u);
    EXPECT_EQ(compiled.topoOrder().size(), acc->design().fsms().size());
    // Specialised (const/field) programs never enter the code pool, so
    // total instructions bound the non-specialised program count.
    EXPECT_GE(compiled.codeSize(),
              compiled.numPrograms() - compiled.numSpecialised());
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, CompileBenchmarks,
                         ::testing::ValuesIn(accel::benchmarkNames()));

TEST(Compile, DivModByZeroAndWrapEdgeCases)
{
    const ExprPtr div_e = Expr::div(fld(0), fld(1));
    const ExprPtr mod_e = Expr::mod(fld(0), fld(1));
    const ExprProgram div_p(div_e);
    const ExprProgram mod_p(mod_e);

    const std::vector<std::pair<std::int64_t, std::int64_t>> cases = {
        {5, 0}, {-5, 0}, {0, 0}, {kMax, 0}, {kMin, 0},
        {7, -1}, {-7, -1}, {kMin, -1}, {kMax, -1},
        {kMin, 1}, {kMin, 2}, {kMax, -2}, {100, 7}, {-100, 7},
    };
    for (const auto &[a, b] : cases) {
        const std::vector<std::int64_t> fields = {a, b};
        EXPECT_EQ(div_p.eval(fields), safeDiv(a, b))
            << a << " / " << b;
        EXPECT_EQ(mod_p.eval(fields), safeMod(a, b))
            << a << " % " << b;
        EXPECT_EQ(div_p.eval(fields), div_e->eval(fields));
        EXPECT_EQ(mod_p.eval(fields), mod_e->eval(fields));
    }
    // The wrap case the corner-sampling interval domain special-cases.
    EXPECT_EQ(safeDiv(kMin, -1), kMin);
    EXPECT_EQ(safeMod(kMin, -1), 0);
}

TEST(Compile, NestedSelectMatchesTree)
{
    // Eager bytecode evaluates both arms; the tree walker only the
    // taken one. Totality makes them agree anyway — including when the
    // untaken arm divides by zero.
    const ExprPtr e = Expr::select(
        Expr::lt(fld(0), fld(1)),
        Expr::select(Expr::eq(fld(2), lit(0)),
                     Expr::div(fld(0), fld(2)),   // f2 == 0 here!
                     Expr::add(fld(0), lit(7))),
        Expr::select(Expr::ge(fld(0), lit(50)),
                     Expr::mul(fld(1), lit(3)),
                     Expr::sub(fld(1), fld(2))));
    const ExprProgram p(e);

    util::Rng rng(77);
    for (int t = 0; t < 4000; ++t) {
        const std::vector<std::int64_t> fields = {
            rng.uniformInt(-100, 100), rng.uniformInt(-100, 100),
            rng.uniformInt(-3, 3),
        };
        ASSERT_EQ(p.eval(fields), e->eval(fields));
    }
}

TEST(Compile, MinMaxSaturationBoundaries)
{
    const ExprPtr e = Expr::min(
        Expr::max(fld(0), Expr::constant(kMin + 1)),
        Expr::constant(kMax - 1));
    const ExprProgram p(e);

    for (const std::int64_t v :
         {kMin, kMin + 1, kMin + 2, std::int64_t{-1}, std::int64_t{0},
          std::int64_t{1}, kMax - 2, kMax - 1, kMax}) {
        const std::vector<std::int64_t> fields = {v};
        EXPECT_EQ(p.eval(fields), e->eval(fields)) << v;
    }
}

TEST(Compile, RepeatedSubtreesMatchTree)
{
    // Three structurally identical (but distinct) products; each is
    // computed where it occurs.
    const ExprPtr prod_a = Expr::mul(fld(0), fld(1));
    const ExprPtr prod_b = Expr::mul(fld(0), fld(1));
    const ExprPtr e =
        Expr::add(Expr::add(prod_a, prod_b),
                  Expr::mul(Expr::mul(fld(0), fld(1)), fld(2)));
    const ExprProgram p(e);

    util::Rng rng(31);
    for (int t = 0; t < 1000; ++t) {
        const std::vector<std::int64_t> fields = {
            rng.uniformInt(-1000, 1000), rng.uniformInt(-1000, 1000),
            rng.uniformInt(-1000, 1000),
        };
        ASSERT_EQ(p.eval(fields), e->eval(fields));
    }
}

TEST(Compile, SpecialisesConstantAndFieldPrograms)
{
    // Factory folding collapses the sum; the program needs no code.
    const ExprProgram c(Expr::add(lit(2), lit(3)));
    EXPECT_EQ(c.codeLength(), 0u);
    EXPECT_EQ(c.eval({}), 5);

    const ExprProgram f(fld(2));
    EXPECT_EQ(f.codeLength(), 0u);
    EXPECT_EQ(f.eval({10, 20, 30}), 30);
}

TEST(Compile, ShortCircuitOperatorsAgreeEagerly)
{
    // Tree And/Or short-circuit; bytecode evaluates both operands.
    const ExprPtr e = Expr::logicalOr(
        Expr::logicalAnd(Expr::gt(fld(0), lit(0)),
                         Expr::lt(Expr::div(lit(100), fld(0)), lit(20))),
        Expr::eq(fld(1), lit(0)));
    const ExprProgram p(e);

    for (const std::int64_t a : {-5, -1, 0, 1, 4, 5, 6, 100}) {
        for (const std::int64_t b : {0, 1, 2}) {
            const std::vector<std::int64_t> fields = {a, b};
            EXPECT_EQ(p.eval(fields), e->eval(fields))
                << "a=" << a << " b=" << b;
        }
    }
}

namespace {

/**
 * A crafted design whose guards and dwells take the expression shapes
 * the benchmark designs never produce: field-field compares and
 * binaries, constant-op-field, constant minus field, Not, selects with
 * non-constant arms, and a repeated subtree. The `lock` FSM is
 * statically routed, so the batch kernel evaluates its dwells over
 * whole lane vectors; `branch` is branch-dynamic with two-way heads,
 * so speculate() routes it.
 */
Design
shapesDesign()
{
    using accel::doneState;
    using accel::fixedState;
    using accel::implicitState;
    using accel::waitState;

    Design d("shapes");
    const FieldId x = d.addField("x");
    const FieldId y = d.addField("y");
    const FieldId z = d.addField("z");
    d.setFieldRange(x, 0, 9);
    d.setFieldRange(y, 1, 8);
    d.setFieldRange(z, 0, 3);
    const BlockId dp = d.addBlock("dp", 100.0, 0.7);

    const ExprPtr t = Expr::add(Expr::mul(fld(x), fld(y)), lit(1));
    const CounterId c0 = d.addCounter(
        "c0", CounterDir::Down,
        Expr::add(Expr::mul(Expr::logicalNot(fld(z)), lit(5)), fld(y)),
        16);

    const FsmId lock = d.addFsm("lock");
    const StateId l0 = d.addState(
        lock, implicitState("SelectArms",
                            Expr::select(Expr::gt(fld(x), lit(4)),
                                         Expr::mul(fld(y), lit(2)),
                                         Expr::add(fld(x), lit(3))),
                            dp, 1.5));
    const StateId l1 = d.addState(
        lock, implicitState("ConstDivField", Expr::div(lit(60), fld(y)),
                            dp, 0.5));
    const StateId l2 = d.addState(
        lock, implicitState("ConstMinusField", Expr::sub(lit(20), fld(x))));
    const StateId l3 = d.addState(
        lock, implicitState("Repeated",
                            Expr::add(Expr::mod(Expr::mul(t, t), lit(50)),
                                      t),
                            dp, 2.0));
    const StateId l4 = d.addState(
        lock, implicitState("FieldMax", Expr::max(fld(x), fld(y))));
    const StateId w0 = d.addState(lock, waitState("NotRange", c0, dp, 1.0));
    const StateId ld = d.addState(lock, doneState("LockDone"));
    d.addTransition(lock, l0, nullptr, l1);
    d.addTransition(lock, l1, nullptr, l2);
    d.addTransition(lock, l2, nullptr, l3);
    d.addTransition(lock, l3, nullptr, l4);
    d.addTransition(lock, l4, nullptr, w0);
    d.addTransition(lock, w0, nullptr, ld);

    const FsmId branch = d.addFsm("branch");
    const StateId s0 = d.addState(branch, fixedState("S0", 2, dp, 1.0));
    const StateId a = d.addState(
        branch, implicitState("A", Expr::sub(fld(y), fld(x)), dp, 0.25));
    const StateId b = d.addState(
        branch, implicitState("B",
                              Expr::select(Expr::eq(fld(z), lit(1)),
                                           fld(x), fld(y))));
    const StateId c = d.addState(branch, fixedState("C", 3, dp, 0.5));
    const StateId e = d.addState(branch, fixedState("E", 1));
    const StateId bd = d.addState(branch, doneState("BranchDone"));
    d.addTransition(branch, s0, Expr::lt(fld(x), fld(y)), a);
    d.addTransition(branch, s0, nullptr, b);
    d.addTransition(branch, a, Expr::logicalNot(fld(z)), c);
    d.addTransition(branch, a, nullptr, e);
    d.addTransition(branch, b,
                    Expr::gt(Expr::sub(lit(5), fld(x)), lit(0)), c);
    d.addTransition(branch, b, nullptr, e);
    d.addTransition(branch, c,
                    Expr::select(Expr::gt(fld(z), lit(1)), fld(x),
                                 Expr::lt(lit(3), fld(y))),
                    e);
    d.addTransition(branch, c, nullptr, bd);
    d.addTransition(branch, e, nullptr, bd);

    d.validate();
    return d;
}

void
expectSameResult(const JobResult &got, const JobResult &want,
                 const std::string &where)
{
    EXPECT_EQ(got.cycles, want.cycles) << where;
    EXPECT_EQ(got.energyUnits, want.energyUnits) << where;
}

} // namespace

TEST(Compile, ShapesWithoutTheirOwnNodeKindsMatchReference)
{
    const Design d = shapesDesign();
    CompiledDesign compiled(d);
    const Interpreter interp(d);
    ASSERT_EQ(compiled.numLockstepFsms(), 1u);
    ASSERT_LT(compiled.numSpecialised(), compiled.numPrograms());

    util::Rng rng(0x5ba9e5);
    std::vector<JobInput> jobs;
    for (int j = 0; j < 40; ++j) {
        JobInput job;
        const auto items = rng.uniformInt(1, 24);
        for (std::int64_t i = 0; i < items; ++i) {
            WorkItem item;
            item.fields = randomFields(d, rng);
            job.items.push_back(std::move(item));
        }
        jobs.push_back(std::move(job));
    }
    std::vector<const JobInput *> ptrs;
    for (const JobInput &job : jobs)
        ptrs.push_back(&job);

    const std::vector<FeatureSpec> features = analyze(d).features;
    ASSERT_FALSE(features.empty());
    Instrumenter got_instr(d, features);
    Instrumenter ref_instr(d, features);
    std::vector<JobResult> refs;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string where = "job " + std::to_string(i);
        std::vector<std::uint64_t> got_items, ref_items;
        const JobResult ref =
            interp.runReference(jobs[i], nullptr, &ref_items);
        refs.push_back(ref);
        expectSameResult(compiled.run(jobs[i], nullptr, &got_items), ref,
                         where);
        EXPECT_EQ(got_items, ref_items) << where;

        got_instr.reset();
        ref_instr.reset();
        expectSameResult(compiled.run(jobs[i], &got_instr), ref,
                         where + ", instrumented");
        interp.runReference(jobs[i], &ref_instr);
        EXPECT_EQ(got_instr.values(), ref_instr.values()) << where;
    }

    const auto expectBatch = [&](const std::string &what) {
        const std::vector<JobResult> batch = compiled.runBatch(ptrs);
        ASSERT_EQ(batch.size(), refs.size());
        for (std::size_t i = 0; i < refs.size(); ++i)
            expectSameResult(batch[i], refs[i],
                             what + ", lane " + std::to_string(i));
    };
    expectBatch("lockstep batch");
    compiled.speculate(ptrs.data(), 8);
    ASSERT_EQ(compiled.numSpeculatedFsms(), 1u);
    expectBatch("speculative batch");
    compiled.invertSpeculation();
    expectBatch("inverted speculative batch");
}

TEST(CompileDeath, RejectsUnvalidatedDesign)
{
    Design d("unvalidated");
    EXPECT_DEATH(CompiledDesign compiled(d), "not validated");
}
