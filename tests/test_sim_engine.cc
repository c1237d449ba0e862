/**
 * @file
 * SimulationEngine: preparation agrees with direct interpretation,
 * replay accounting (energy, misses, switches, carryover), and trace
 * contents.
 */

#include <gtest/gtest.h>

#include "accel/registry.hh"
#include "core/flow.hh"
#include "core/oracle_controller.hh"
#include "rtl/instrument.hh"
#include "rtl/interpreter.hh"
#include "sim/engine.hh"
#include "sim/job_cache.hh"
#include "util/thread_pool.hh"
#include "workload/suite.hh"

#include "run_metrics.hh"

using namespace predvfs;
using namespace predvfs::sim;

namespace {

struct Fixture
{
    std::shared_ptr<const accel::Accelerator> acc =
        accel::makeAccelerator("sha");
    workload::BenchmarkWorkload work = workload::makeWorkload(*acc);
    power::VfModel vf =
        power::VfModel::asic65nm(acc->nominalFrequencyHz());
    power::OperatingPointTable table =
        power::OperatingPointTable::asic(vf, true);
    EngineConfig config;
    SimulationEngine engine{*acc, table, config};
};

/** Forces a specific level for every job. */
class PinnedController : public core::DvfsController
{
  public:
    explicit PinnedController(std::size_t level) : level(level) {}

    std::string name() const override { return "pinned"; }

    core::Decision
    decide(const core::PreparedJob &, std::size_t, double) override
    {
        core::Decision d;
        d.level = level;
        return d;
    }

  private:
    std::size_t level;
};

} // namespace

TEST(EngineDeath, RejectsNonPositiveDeadline)
{
    Fixture f;
    EngineConfig bad;
    bad.deadlineSeconds = 0.0;
    EXPECT_DEATH(SimulationEngine(*f.acc, f.table, bad),
                 "deadlineSeconds");
    bad.deadlineSeconds = -1.0 / 60.0;
    EXPECT_DEATH(SimulationEngine(*f.acc, f.table, bad),
                 "deadlineSeconds");
}

TEST(EngineDeath, RejectsNegativeSwitchTime)
{
    Fixture f;
    EngineConfig bad;
    bad.switchTimeSeconds = -100e-6;
    EXPECT_DEATH(SimulationEngine(*f.acc, f.table, bad),
                 "switchTimeSeconds");
}

TEST(Engine, PrepareMatchesInterpretation)
{
    Fixture f;
    const auto prepared = f.engine.prepare(f.work.test);
    ASSERT_EQ(prepared.size(), f.work.test.size());
    rtl::Interpreter interp(f.acc->design());
    for (std::size_t j = 0; j < 5; ++j) {
        EXPECT_EQ(prepared[j].cycles,
                  interp.run(f.work.test[j]).cycles);
        EXPECT_EQ(prepared[j].input, &f.work.test[j]);
        EXPECT_EQ(prepared[j].sliceCycles, 0u);  // No predictor.
    }
}

TEST(Engine, BaselineNeverMissesOnThisWorkload)
{
    Fixture f;
    const auto prepared = f.engine.prepare(f.work.test);
    core::ConstantController baseline(f.table.nominalIndex());
    const auto metrics = f.engine.run(baseline, prepared);
    EXPECT_EQ(metrics.jobs, prepared.size());
    EXPECT_EQ(metrics.misses, 0u);
    EXPECT_EQ(metrics.switches, 0u);
    EXPECT_GT(metrics.totalEnergyJoules(), 0.0);
}

TEST(Engine, LowerLevelLowerEnergyLongerTime)
{
    Fixture f;
    const auto prepared = f.engine.prepare(f.work.test);
    PinnedController fast(f.table.nominalIndex());
    PinnedController slow(0);
    const auto m_fast = f.engine.run(fast, prepared);
    const auto m_slow = f.engine.run(slow, prepared);
    EXPECT_LT(m_slow.totalEnergyJoules(), m_fast.totalEnergyJoules());
    EXPECT_GT(m_slow.execSeconds, m_fast.execSeconds);
}

TEST(Engine, PinnedSlowControllerMisses)
{
    Fixture f;
    const auto prepared = f.engine.prepare(f.work.test);
    PinnedController slow(0);
    const auto metrics = f.engine.run(slow, prepared);
    // sha jobs up to ~13 ms cannot all fit at the slowest level.
    EXPECT_GT(metrics.misses, 0u);
}

TEST(Engine, SwitchCountsOnlyLevelChanges)
{
    Fixture f;
    const auto prepared = f.engine.prepare(f.work.test);
    PinnedController pinned(2);
    const auto metrics = f.engine.run(pinned, prepared);
    // One switch from the starting nominal level to level 2.
    EXPECT_EQ(metrics.switches, 1u);
}

TEST(Engine, CarryoverCascadesMisses)
{
    Fixture f;
    // Two identical jobs, each taking ~0.9 deadlines at the chosen
    // level plus a bit; the first fits, the second starts late.
    std::vector<rtl::JobInput> inputs(2);
    auto prepared = f.engine.prepare(f.work.test);
    // Pick the largest job and duplicate it.
    std::size_t big = 0;
    for (std::size_t j = 0; j < prepared.size(); ++j)
        if (prepared[j].cycles > prepared[big].cycles)
            big = j;
    std::vector<core::PreparedJob> two = {prepared[big],
                                          prepared[big]};

    // Run at a level where one job takes ~60-95% of the deadline;
    // find it.
    const double nominal_seconds = f.engine.nominalSeconds(two[0]);
    std::size_t level = f.table.nominalIndex();
    for (std::size_t l = 0; l < f.table.size(); ++l) {
        const double t = nominal_seconds *
            f.acc->nominalFrequencyHz() / f.table[l].frequencyHz;
        if (t > 0.55 / 60.0 && t < 0.95 / 60.0) {
            level = l;
            break;
        }
    }
    PinnedController pinned(level);
    std::vector<JobTrace> trace;
    const auto metrics = f.engine.run(pinned, two, &trace);
    (void)metrics;
    ASSERT_EQ(trace.size(), 2u);
    // If neither job missed, carryover is zero; otherwise the second
    // job's miss state must account for the first one's overrun.
    if (trace[0].missed) {
        EXPECT_TRUE(trace[1].missed);
    }
}

TEST(Engine, TraceFieldsConsistent)
{
    Fixture f;
    const auto prepared = f.engine.prepare(f.work.test);
    core::ConstantController baseline(f.table.nominalIndex());
    std::vector<JobTrace> trace;
    f.engine.run(baseline, prepared, &trace);
    ASSERT_EQ(trace.size(), prepared.size());
    for (std::size_t j = 0; j < trace.size(); ++j) {
        EXPECT_EQ(trace[j].level, f.table.nominalIndex());
        EXPECT_NEAR(trace[j].actualNominalSeconds,
                    f.engine.nominalSeconds(prepared[j]), 1e-12);
        EXPECT_NEAR(trace[j].execSeconds,
                    trace[j].actualNominalSeconds, 1e-12);
        EXPECT_GT(trace[j].energyJoules, 0.0);
    }
}

TEST(Engine, OracleBeatsBaselineEnergy)
{
    Fixture f;
    const auto prepared = f.engine.prepare(f.work.test);
    core::ConstantController baseline(f.table.nominalIndex());
    core::OracleController oracle(f.table,
                                  f.acc->nominalFrequencyHz(), {});
    const auto m_base = f.engine.run(baseline, prepared);
    const auto m_oracle = f.engine.run(oracle, prepared);
    EXPECT_LT(m_oracle.totalEnergyJoules(),
              m_base.totalEnergyJoules());
    EXPECT_EQ(m_oracle.misses, 0u);
}

TEST(Engine, FpgaEnergyOverrideApplies)
{
    Fixture f;
    power::EnergyParams fpga = f.acc->energyParams();
    fpga.joulesPerUnit *= 3.0;
    SimulationEngine fpga_engine(*f.acc, f.table, f.config, fpga);
    const auto prepared = fpga_engine.prepare(f.work.test);
    core::ConstantController baseline(f.table.nominalIndex());
    const auto m_asic = f.engine.run(
        baseline, f.engine.prepare(f.work.test));
    const auto m_fpga = fpga_engine.run(baseline, prepared);
    EXPECT_GT(m_fpga.totalEnergyJoules(), m_asic.totalEnergyJoules());
}

TEST(Metrics, MissRateAndTotals)
{
    RunMetrics m;
    m.jobs = 200;
    m.misses = 5;
    m.execEnergyJoules = 1.0;
    m.overheadEnergyJoules = 0.25;
    EXPECT_DOUBLE_EQ(m.missRate(), 0.025);
    EXPECT_DOUBLE_EQ(m.totalEnergyJoules(), 1.25);
    RunMetrics empty;
    EXPECT_DOUBLE_EQ(empty.missRate(), 0.0);
}

namespace {

/** Exact (bit-level) equality of two prepared streams. */
void
expectPreparedIdentical(const std::vector<core::PreparedJob> &a,
                        const std::vector<core::PreparedJob> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].input, b[i].input) << "job " << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << "job " << i;
        EXPECT_EQ(a[i].energyUnits, b[i].energyUnits) << "job " << i;
        EXPECT_EQ(a[i].sliceCycles, b[i].sliceCycles) << "job " << i;
        EXPECT_EQ(a[i].sliceEnergyUnits, b[i].sliceEnergyUnits)
            << "job " << i;
        EXPECT_EQ(a[i].predictedCycles, b[i].predictedCycles)
            << "job " << i;
    }
}

/** One benchmark's engine and trained predictor. */
struct DesignFixture
{
    explicit DesignFixture(const std::string &name)
        : acc(accel::makeAccelerator(name)),
          work(workload::makeWorkload(*acc)),
          table(power::OperatingPointTable::asic(
              power::VfModel::asic65nm(acc->nominalFrequencyHz()),
              true)),
          flow(core::buildPredictor(acc->design(), work.train, {}))
    {
    }

    std::shared_ptr<const accel::Accelerator> acc;
    workload::BenchmarkWorkload work;
    power::OperatingPointTable table;
    SimulationEngine engine{*acc, table, {}};
    core::FlowResult flow;
};

/**
 * The tree walker's records for @p jobs: the full design through
 * runReference, the slice through runReference with an Instrumenter
 * and the predictor.
 */
std::vector<core::PreparedJob>
treeWalkOracle(const accel::Accelerator &acc,
               const core::SlicePredictor &pred,
               const std::vector<rtl::JobInput> &jobs)
{
    const rtl::Interpreter full_tree(acc.design());
    const rtl::SliceResult &slice = pred.slice();
    const rtl::Interpreter slice_tree(slice.design);
    rtl::Instrumenter instr(slice.design, slice.features);
    std::vector<core::PreparedJob> oracle;
    for (const rtl::JobInput &job : jobs) {
        core::PreparedJob record;
        record.input = &job;
        const rtl::JobResult full = full_tree.runReference(job);
        record.cycles = full.cycles;
        record.energyUnits = full.energyUnits;
        instr.reset();
        const rtl::JobResult sliced =
            slice_tree.runReference(job, &instr);
        record.sliceCycles = sliced.cycles;
        record.sliceEnergyUnits = sliced.energyUnits;
        record.predictedCycles = pred.predictCycles(instr.values());
        oracle.push_back(record);
    }
    return oracle;
}

} // namespace

TEST(Engine, ParallelPrepareBitIdenticalToSerial)
{
    Fixture f;
    const core::FlowResult flow =
        core::buildPredictor(f.acc->design(), f.work.train, {});
    const auto serial =
        f.engine.prepare(f.work.test, flow.predictor.get());

    for (const unsigned workers : {1u, 2u, 4u, 7u}) {
        util::ThreadPool pool(workers);
        // From an emptied cache, so the pool simulates every job.
        JobCache::global().clear();
        const auto parallel = f.engine.prepare(
            f.work.test, flow.predictor.get(), nullptr, &pool);
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectPreparedIdentical(serial, parallel);
    }
}

// The engine self-speculates on its first prepare() (profiling a
// slice of the stream to retune the batch kernel's lockstep routes)
// and memoises what it simulates. Across all seven benchmarks, prove
// both invisible: cold (empty cache) and warm prepared records equal
// the tree walker's field for field — the full design through
// runReference, the slice through runReference with an Instrumenter
// and the predictor — clean and under a fault schedule (applied to
// the oracle with applyPrepareFaults), and serial vs pooled prepare
// agree byte for byte under the schedule. The stream ends with a
// repeat of its first jobs, so duplicates fan out of one simulation
// before the schedule mutates each copy by its index.
TEST(Engine, AllDesignsPrepareBitExactUnderFaultsAfterSpeculation)
{
    for (const std::string &name : accel::benchmarkNames()) {
        SCOPED_TRACE(name);
        const DesignFixture d(name);
        const SimulationEngine &engine = d.engine;
        const core::SlicePredictor &pred = *d.flow.predictor;

        std::vector<rtl::JobInput> jobs = d.work.test;
        jobs.insert(jobs.end(), d.work.test.begin(),
                    d.work.test.begin() +
                        std::min<std::size_t>(8, d.work.test.size()));
        const std::vector<core::PreparedJob> oracle =
            treeWalkOracle(*d.acc, pred, jobs);

        // The first prepare triggers self-speculation.
        JobCache::global().clear();
        expectPreparedIdentical(engine.prepare(jobs, &pred), oracle);
        expectPreparedIdentical(engine.prepare(jobs, &pred), oracle);

        FaultPlan plan(987 + jobs.size());
        plan.sliceReadout(FaultTrigger::every(7))
            .sliceStall(FaultTrigger::every(11, 2), 15.0)
            .oodSpike(FaultTrigger::every(13, 5), 2.0);
        const FaultSchedule schedule = plan.instantiate(jobs.size());
        std::vector<core::PreparedJob> faulted_oracle = oracle;
        schedule.applyPrepareFaults(faulted_oracle);

        JobCache::global().clear();
        const auto serial = engine.prepare(jobs, &pred, &schedule);
        expectPreparedIdentical(serial, faulted_oracle);
        expectPreparedIdentical(engine.prepare(jobs, &pred, &schedule),
                                faulted_oracle);
        // Emptied again, so the pool simulates rather than fans out
        // the serial run's cache entries.
        util::ThreadPool pool(4);
        JobCache::global().clear();
        expectPreparedIdentical(
            serial, engine.prepare(jobs, &pred, &schedule, &pool));
    }
}

// A served cold prediction is a prepare() with one or two misses, so
// it takes the pooled path at its smallest: at two workers the caller
// runs the full design and the helper the slice; at three the full
// pass is cut in two chunks, one of them empty for a single miss. For
// all seven designs, prepare the first 8 test jobs from an emptied
// cache one, two and three at a time on 2- and 3-worker pools: every
// chunk's records and counts equal the serial prepare's, and the
// records equal the tree walker's, clean and under a fault schedule.
TEST(Engine, PooledSmallMissPreparesMatchSerialAndOracle)
{
    FaultPlan plan(4321);
    plan.sliceReadout(FaultTrigger::every(2))
        .sliceStall(FaultTrigger::every(3, 1), 15.0)
        .oodSpike(FaultTrigger::every(2, 1), 2.0);
    const FaultSchedule schedule = plan.instantiate(3);

    for (const std::string &name : accel::benchmarkNames()) {
        SCOPED_TRACE(name);
        const DesignFixture d(name);
        const core::SlicePredictor &pred = *d.flow.predictor;
        const std::vector<rtl::JobInput> jobs(
            d.work.test.begin(),
            d.work.test.begin() +
                std::min<std::size_t>(8, d.work.test.size()));

        for (const std::size_t step : {1u, 2u, 3u}) {
            std::vector<std::vector<rtl::JobInput>> chunks;
            for (std::size_t b = 0; b < jobs.size(); b += step)
                chunks.emplace_back(
                    jobs.begin() + b,
                    jobs.begin() + std::min(jobs.size(), b + step));
            std::vector<std::vector<core::PreparedJob>> oracle;
            for (const auto &chunk : chunks)
                oracle.push_back(treeWalkOracle(*d.acc, pred, chunk));

            for (const FaultSchedule *faults : {
                     static_cast<const FaultSchedule *>(nullptr),
                     &schedule}) {
                JobCache::global().clear();
                std::vector<std::vector<core::PreparedJob>> serial;
                std::vector<PrepareStats> serialStats(chunks.size());
                for (std::size_t c = 0; c < chunks.size(); ++c)
                    serial.push_back(d.engine.prepare(
                        chunks[c], &pred, faults, nullptr,
                        &serialStats[c]));

                for (const unsigned workers : {2u, 3u}) {
                    SCOPED_TRACE("step=" + std::to_string(step) +
                                 " workers=" + std::to_string(workers) +
                                 (faults ? " faulted" : " clean"));
                    util::ThreadPool pool(workers);
                    JobCache::global().clear();
                    for (std::size_t c = 0; c < chunks.size(); ++c) {
                        PrepareStats stats;
                        const auto pooled = d.engine.prepare(
                            chunks[c], &pred, faults, &pool, &stats);
                        expectPreparedIdentical(pooled, serial[c]);
                        EXPECT_EQ(stats.simulated,
                                  serialStats[c].simulated);
                        EXPECT_EQ(stats.cacheHits,
                                  serialStats[c].cacheHits);
                        EXPECT_EQ(stats.coalesced,
                                  serialStats[c].coalesced);
                        std::vector<core::PreparedJob> expect =
                            oracle[c];
                        if (faults)
                            faults->applyPrepareFaults(expect);
                        expectPreparedIdentical(pooled, expect);
                    }
                }
            }
        }
    }
}

TEST(Engine, ParallelPrepareWithFaultsMatchesSerialRun)
{
    Fixture f;
    const core::FlowResult flow =
        core::buildPredictor(f.acc->design(), f.work.train, {});

    FaultPlan plan(1234);
    plan.sliceReadout(FaultTrigger::every(9))
        .sliceStall(FaultTrigger::every(13, 3), 20.0)
        .switchDenied(FaultTrigger::every(5, 1))
        .switchSettle(FaultTrigger::every(11, 2), 10.0)
        .oodSpike(FaultTrigger::every(17, 4), 3.0);
    const FaultSchedule schedule =
        plan.instantiate(f.work.test.size());

    const auto serial =
        f.engine.prepare(f.work.test, flow.predictor.get(), &schedule);

    for (const unsigned workers : {2u, 4u, 7u}) {
        util::ThreadPool pool(workers);
        JobCache::global().clear();
        const auto parallel = f.engine.prepare(
            f.work.test, flow.predictor.get(), &schedule, &pool);
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectPreparedIdentical(serial, parallel);

        // Identical records must replay to identical metrics — run
        // both anyway so a record-comparison gap cannot hide drift.
        core::OracleController a(f.table,
                                 f.acc->nominalFrequencyHz(), {});
        core::OracleController b(f.table,
                                 f.acc->nominalFrequencyHz(), {});
        test::expectMetricsIdentical(
            f.engine.run(a, serial, nullptr, &schedule),
            f.engine.run(b, parallel, nullptr, &schedule));
    }
}
