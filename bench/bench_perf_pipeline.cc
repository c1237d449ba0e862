/**
 * @file
 * Timing gates for the simulation pipeline.
 *
 * For every benchmark accelerator, at fixed seeds, this times seven
 * pairs of paths that compute the same records and fails when a path
 * built to be faster stops beating its reference:
 *
 *  - interp:  every compiled root expression of the design (guards,
 *             counter ranges, implicit latencies) over the real
 *             test-stream field vectors, tree walker (Expr::eval) vs
 *             compiled evaluator (CompiledDesign::evalProgram);
 *  - job_sim: the test stream through the tree-walking reference
 *             (runReference) vs the compiled engine (run);
 *  - batch:   the scalar compiled run vs the lockstep SoA batch
 *             kernel (runBatch) over the same jobs;
 *  - prepare: the seed-style prepare loop (tree-walk full design +
 *             instrumented slice + prediction per job) vs the engine's
 *             serial prepare with an empty JobCache;
 *  - memo:    a duplicate-heavy stream prepared cold (empty JobCache)
 *             vs warm (all hits);
 *  - sweep:   a figure-style grid of experiment cells (deadline x
 *             switch time), end to end, without vs with cross-cell
 *             prepared-stream reuse;
 *  - verify:  one static proof of the compiled full design and of the
 *             tapped trained slice vs a cold serial prepare.
 *
 * The first six gates require side A / side B >= 1 on every design;
 * verify requires it <= 0.10. Each pair runs kRounds rounds of
 * {side A, side B} and gates the median of the per-round ratios: the
 * two sides of a round run back to back, so a slow host phase
 * (frequency step, co-tenant load) lands on both, and a phase that
 * starts or ends inside a round spoils that round only. Per-side
 * minima do not have this property: a phase that begins after side
 * A's first round and outlasts side B's last compares a fast A with
 * a slow B. That the two sides agree byte for byte is checked by the
 * test suite, not here.
 *
 * Each gate's ratio and bound per design go to BENCH_perf.json (path
 * overridable via argv[1]); the process exits non-zero if any gate
 * fails, so CI catches a perf regression the way it catches a failing
 * test.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "accel/registry.hh"
#include "core/flow.hh"
#include "power/operating_points.hh"
#include "power/vf_model.hh"
#include "rtl/compile.hh"
#include "rtl/instrument.hh"
#include "rtl/interpreter.hh"
#include "rtl/verify.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/job_cache.hh"
#include "util/logging.hh"
#include "workload/suite.hh"

using namespace predvfs;

namespace {

/** Interleaved rounds per gate. */
constexpr int kRounds = 5;

template <typename Fn>
double
secondsOf(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** The median over kRounds rounds of side A's time over side B's,
 *  each round running side A then side B. */
template <typename A, typename B>
double
timeRatio(A &&side_a, B &&side_b)
{
    std::array<double, kRounds> ratios{};
    for (double &ratio : ratios) {
        const double a = secondsOf(side_a);
        ratio = a / secondsOf(side_b);
    }
    std::nth_element(ratios.begin(), ratios.begin() + kRounds / 2,
                     ratios.end());
    return ratios[kRounds / 2];
}

/** One gate on one design: the measured ratio and its bound. */
struct Gate
{
    const char *name;
    double ratio;
    double bound;
    bool atMost;  //!< ratio <= bound passes; otherwise ratio >= bound.

    bool pass() const { return atMost ? ratio <= bound : ratio >= bound; }
};

/** Keeps timed results observable, so no timed work is optimised away. */
void
keep(std::uint64_t value)
{
    static volatile std::uint64_t sink;
    sink = sink + value;
}

std::vector<Gate>
measureGates(const std::string &name)
{
    const auto acc = accel::makeAccelerator(name);
    const rtl::Design &design = acc->design();
    const workload::BenchmarkWorkload work = workload::makeWorkload(*acc);
    const std::vector<rtl::JobInput> &jobs = work.test;
    const core::FlowResult flow =
        core::buildPredictor(design, work.train, {});
    const core::SlicePredictor *pred = flow.predictor.get();

    // Retune the batch kernel's speculative lockstep routes from a
    // slice of the *training* stream — the test stream stays unseen,
    // so the timed batch run below meets realistic (mis)predictions.
    const rtl::Interpreter interp(design);
    interp.speculate(std::vector<rtl::JobInput>(
        work.train.begin(),
        work.train.begin() +
            std::min<std::size_t>(32, work.train.size())));
    const rtl::CompiledDesign &comp = *interp.compiled();

    std::vector<Gate> gates;
    std::uint64_t sum = 0;

    const auto &roots = comp.rootExprs();
    std::vector<std::int64_t> scratch(
        std::max<std::size_t>(comp.scratchSize(), 1));
    std::vector<const rtl::WorkItem *> stream;
    for (const rtl::JobInput &job : jobs)
        for (const rtl::WorkItem &item : job.items)
            stream.push_back(&item);
    gates.push_back(
        {"interp",
         timeRatio(
             [&] {
                 for (const rtl::WorkItem *item : stream)
                     for (const auto &root : roots)
                         sum += static_cast<std::uint64_t>(
                             root.first->eval(item->fields));
             },
             [&] {
                 for (const rtl::WorkItem *item : stream)
                     for (const auto &root : roots)
                         sum += static_cast<std::uint64_t>(
                             comp.evalProgram(root.second,
                                              item->fields.data(),
                                              scratch.data()));
             }),
         1.0, false});

    const auto scalar_run = [&] {
        for (const rtl::JobInput &job : jobs)
            sum += interp.run(job).cycles;
    };
    gates.push_back({"job_sim",
                     timeRatio(
                         [&] {
                             for (const rtl::JobInput &job : jobs)
                                 sum += interp.runReference(job).cycles;
                         },
                         scalar_run),
                     1.0, false});

    std::vector<const rtl::JobInput *> lanes;
    for (const rtl::JobInput &job : jobs)
        lanes.push_back(&job);
    std::vector<rtl::JobResult> batch_out(jobs.size());
    gates.push_back({"batch",
                     timeRatio(scalar_run,
                               [&] {
                                   comp.runBatch(lanes.data(),
                                                 lanes.size(),
                                                 batch_out.data());
                                   sum += batch_out.back().cycles;
                               }),
                     1.0, false});

    // The baseline interpreters are built once, outside the timed
    // region: the seed constructed its Interpreter inside prepare(),
    // but that constructor only topo-sorted the FSMs — charging
    // today's compiling constructor to the baseline would overstate
    // it.
    const power::VfModel vf =
        power::VfModel::asic65nm(acc->nominalFrequencyHz());
    const power::OperatingPointTable table =
        power::OperatingPointTable::asic(vf, true);
    const sim::SimulationEngine engine(*acc, table, {});
    const rtl::SliceResult &slice = pred->slice();
    const rtl::Interpreter full_tree(design);
    const rtl::Interpreter slice_tree(slice.design);
    rtl::Instrumenter instr(slice.design, slice.features);
    const auto cold_prepare = [&] {
        sim::JobCache::global().clear();
        sum += engine.prepare(jobs, pred).back().cycles;
    };
    gates.push_back(
        {"prepare",
         timeRatio(
             [&] {
                 std::vector<core::PreparedJob> base;
                 base.reserve(jobs.size());
                 for (const rtl::JobInput &job : jobs) {
                     core::PreparedJob record;
                     record.input = &job;
                     const rtl::JobResult r = full_tree.runReference(job);
                     record.cycles = r.cycles;
                     record.energyUnits = r.energyUnits;
                     instr.reset();
                     const rtl::JobResult s =
                         slice_tree.runReference(job, &instr);
                     record.sliceCycles = s.cycles;
                     record.sliceEnergyUnits = s.energyUnits;
                     record.predictedCycles =
                         pred->predictCycles(instr.values());
                     base.push_back(record);
                 }
                 sum += base.back().cycles;
             },
             cold_prepare),
         1.0, false});

    // Three repetitions of eight unique jobs, as the figures replay
    // one job mix across grid cells. Side B runs right after side A,
    // so it finds the cache side A filled.
    const std::size_t unique_n = std::min<std::size_t>(8, jobs.size());
    std::vector<rtl::JobInput> dup;
    for (int rep = 0; rep < 3; ++rep)
        dup.insert(dup.end(), jobs.begin(), jobs.begin() + unique_n);
    gates.push_back(
        {"memo",
         timeRatio(
             [&] {
                 sim::JobCache::global().clear();
                 sum += engine.prepare(dup, pred).back().cycles;
             },
             [&] { sum += engine.prepare(dup, pred).back().cycles; }),
         1.0, false});

    const auto sweep = [&](bool share) {
        sim::clearSharedStreams();
        sim::JobCache::global().clear();
        for (const double deadline : {1.0 / 60.0, 0.5 / 60.0})
            for (const double switch_time : {100e-6, 250e-6}) {
                sim::ExperimentOptions cell;
                cell.deadlineSeconds = deadline;
                cell.switchTimeSeconds = switch_time;
                cell.shareStreams = share;
                sim::Experiment exp(name, cell);
                sum += exp.runScheme(sim::Scheme::Prediction).switches;
            }
    };
    gates.push_back({"sweep",
                     timeRatio([&] { sweep(false); },
                               [&] { sweep(true); }),
                     1.0, false});
    sim::clearSharedStreams();

    // Verification amortises against the cold prepare of the same
    // stream: both are one-time costs of standing a design up.
    const rtl::CompiledDesign slice_comp(slice.design, slice.features);
    gates.push_back({"verify",
                     timeRatio(
                         [&] {
                             sum += rtl::verifyCompiledDesign(comp)
                                        .numErrors() +
                                 rtl::verifyCompiledDesign(slice_comp)
                                     .numErrors();
                         },
                         cold_prepare),
                     0.10, true});

    keep(sum);
    return gates;
}

} // namespace

int
main(int argc, char **argv)
{
    util::setVerbose(false);
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_perf.json";
    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot open " << out_path << " for writing\n";
        return 1;
    }

    const std::vector<std::string> names = accel::benchmarkNames();
    bool pass = true;
    out << "{\n"
        << "  \"generated_by\": \"bench_perf_pipeline\",\n"
        << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::cout << names[i] << ":" << std::flush;
        const std::vector<Gate> gates = measureGates(names[i]);
        out << "    {\"name\": \"" << names[i] << "\", \"gates\": [\n";
        for (std::size_t g = 0; g < gates.size(); ++g) {
            const Gate &gate = gates[g];
            std::cout << " " << gate.name << " " << gate.ratio;
            out << "      {\"gate\": \"" << gate.name
                << "\", \"ratio\": " << gate.ratio << ", \""
                << (gate.atMost ? "max" : "min")
                << "\": " << gate.bound << "}"
                << (g + 1 < gates.size() ? "," : "") << "\n";
            if (!gate.pass()) {
                std::cerr << "\nREGRESSION: " << gate.name << " on "
                          << names[i] << " reads " << gate.ratio
                          << ", must be "
                          << (gate.atMost ? "<= " : ">= ") << gate.bound
                          << "\n";
                pass = false;
            }
        }
        out << "    ]}" << (i + 1 < names.size() ? "," : "") << "\n";
        std::cout << "\n";
    }
    out << "  ],\n"
        << "  \"pass\": " << (pass ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "wrote " << out_path << "\n";
    return pass ? 0 : 1;
}
