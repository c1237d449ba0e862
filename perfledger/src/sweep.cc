/**
 * @file
 * paper_sweep — the researcher re-running the paper's evaluation:
 * single-threaded sim::runExperimentMatrix over all seven designs and
 * all eight schemes, in process. The serving layers do nothing here;
 * the offline flow, the compiled batch kernel and the engine do nearly
 * all the work, on whole streams.
 *
 * Set-up is the matrix at the paper's own seed (repeated from an empty
 * cache and registry; setup_s is the median). Its Scheme::Prediction
 * energy and misses are the exact paper quantities. The timed phase
 * then runs a fixed number of further seeds, each timed as a whole:
 * no per-cell percentiles, since cells span tens of milliseconds to
 * seconds.
 */

#include <algorithm>
#include <cmath>

#include "accel/registry.hh"
#include "rtl/interpreter.hh"
#include "sim/experiment.hh"
#include "sim/job_cache.hh"
#include "util/random.hh"
#include "workload/suite.hh"
#include "workloads.hh"

namespace perfledger {

using namespace predvfs;

namespace {

constexpr std::size_t kSetupRepeats = 3;

/** Timed seeds per second of --seconds (one seed takes ~1.5 s on a
 *  4-core x86 VM). */
constexpr double kSeedsPerSecond = 1.0 / 1.5;

/** Records per design and seed re-simulated on the tree walker. */
constexpr std::size_t kReferenceSamples = 4;

/** Jobs the engine's first prepare() speculates from (its first
 *  32-job sample of the training stream). */
constexpr std::size_t kSpecJobs = 32;

const std::vector<sim::Scheme> &
allSchemes()
{
    static const std::vector<sim::Scheme> schemes = {
        sim::Scheme::Baseline,
        sim::Scheme::Pid,
        sim::Scheme::Table,
        sim::Scheme::Prediction,
        sim::Scheme::PredictionNoOverhead,
        sim::Scheme::PredictionBoost,
        sim::Scheme::Oracle,
        sim::Scheme::GuardedPrediction,
    };
    return schemes;
}

/** Cells equal in every reported field, bit for bit. */
bool
sameCells(const std::vector<sim::MatrixCell> &a,
          const std::vector<sim::MatrixCell> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const sim::RunMetrics &x = a[i].metrics;
        const sim::RunMetrics &y = b[i].metrics;
        if (a[i].benchmark != b[i].benchmark || a[i].scheme != b[i].scheme
            || x.jobs != y.jobs || x.misses != y.misses
            || x.switches != y.switches
            || !bitsEqual(x.execEnergyJoules, y.execEnergyJoules)
            || !bitsEqual(x.overheadEnergyJoules, y.overheadEnergyJoules)
            || !bitsEqual(a[i].normalizedEnergy, b[i].normalizedEnergy))
            return false;
    }
    return true;
}

PaperQuantities
paperOf(const std::vector<sim::MatrixCell> &cells)
{
    PaperQuantities q;
    double n = 0.0;
    for (const sim::MatrixCell &c : cells) {
        if (c.scheme != sim::Scheme::Prediction)
            continue;
        q.energyVsBaseline += c.normalizedEnergy;
        q.deadlineMissPct += 100.0 * c.metrics.missRate();
        n += 1.0;
    }
    q.energyVsBaseline /= n;
    q.deadlineMissPct /= n;
    return q;
}

} // namespace

void
runPaperSweep(const Options &opt, Tracer &tracer, Report &report,
              LedgerInputs &ledger)
{
    const std::vector<std::string> &names = designs();

    std::vector<double> setups;
    std::vector<sim::MatrixCell> paperCells;
    for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
        sim::clearSharedStreams();
        sim::JobCache::global().clear();
        ScopedSpan span(tracer, "setup");
        std::vector<sim::MatrixCell> cells =
            sim::runExperimentMatrix(names, allSchemes());
        span.close();
        setups.push_back(span.micros() / 1e6);
        if (rep == 0)
            paperCells = std::move(cells);
        else if (!sameCells(paperCells, cells))
            ++report.failures.mismatch;
    }
    sim::clearSharedStreams();
    report.e2e("setup_s", median(setups), "s");
    const PaperQuantities paper = paperOf(paperCells);
    report.e2e("energy_vs_baseline", paper.energyVsBaseline, "ratio");
    report.e2e("deadline_miss_pct", paper.deadlineMissPct, "%");

    // The tree-walking oracle per design, built outside the timing.
    std::vector<std::unique_ptr<rtl::Interpreter>> oracle;
    std::vector<std::shared_ptr<const accel::Accelerator>> accels;
    for (const std::string &d : names) {
        accels.push_back(accel::makeAccelerator(d));
        oracle.push_back(
            std::make_unique<rtl::Interpreter>(accels.back()->design()));
    }

    const std::size_t seeds = std::max<std::size_t>(
        3, static_cast<std::size_t>(std::lround(opt.seconds *
                                                kSeedsPerSecond)));
    util::Rng pick(deriveSeed(opt.seed, 7));
    DuplicateCounter dups;
    std::vector<double> seedMicros;
    double inputBytes = 0.0;
    std::size_t jobs = 0;
    const sim::JobCache::Stats cacheBefore = sim::JobCache::global().stats();
    const std::uint32_t runSpan = tracer.newId();
    const double start = nowMicros();
    for (std::size_t k = 0; k < seeds; ++k) {
        sim::ExperimentOptions o;
        o.seed = deriveSeed(opt.seed, 6, k);
        const double t0 = nowMicros();
        const std::vector<sim::MatrixCell> cells =
            sim::runExperimentMatrix(names, allSchemes(), o);
        const double t1 = nowMicros();
        tracer.record("sim.runExperimentMatrix", t0, t1, runSpan, k + 1);
        seedMicros.push_back(t1 - t0);
        if (cells.size() != names.size() * allSchemes().size())
            ++report.failures.mismatch;

        // Untimed: reopen each design's shared stream, count its jobs
        // and re-simulate a seeded sample of records on the oracle.
        for (std::size_t d = 0; d < names.size(); ++d) {
            const sim::Experiment exp(names[d], o);
            for (const auto *batch :
                 {&exp.trainPrepared(), &exp.testPrepared()}) {
                dups.newStream();
                for (const core::PreparedJob &p : *batch) {
                    dups.add(*p.input);
                    inputBytes += static_cast<double>(jobBytes(*p.input));
                }
                jobs += batch->size();
                for (std::size_t s = 0; s < kReferenceSamples / 2; ++s) {
                    const core::PreparedJob &p =
                        (*batch)[static_cast<std::size_t>(pick.uniformInt(
                            0, static_cast<std::int64_t>(batch->size()) -
                                   1))];
                    const rtl::JobResult ref =
                        oracle[d]->runReference(*p.input);
                    if (ref.cycles != p.cycles ||
                        !bitsEqual(ref.energyUnits, p.energyUnits))
                        ++report.failures.mismatch;
                }
            }
            if (k == 0) {
                const std::vector<rtl::JobInput> &train =
                    exp.workload().train;
                const std::vector<rtl::JobInput> &test = exp.workload().test;
                ledger.seedJobs[names[d]] = train.size() + test.size();
                ledger.seedTestJobs[names[d]] = test.size();
                std::vector<rtl::JobInput> &sample = ledger.sample[names[d]];
                const std::size_t n = std::min(kProbeJobs, test.size());
                for (std::size_t i = 0; i < n; ++i)
                    sample.push_back(test[i * test.size() / n]);
                ledger.specSample[names[d]].assign(
                    train.begin(),
                    train.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(kSpecJobs, train.size())));
            }
        }
        sim::clearSharedStreams();
    }
    tracer.record(runSpan, "workload.paper_sweep", start, nowMicros());
    report.e2e("peak_rss_mb", peakRssMb(), "MB");

    double timed = 0.0;
    for (const double us : seedMicros)
        timed += us;
    ledger.timedMicros = timed;
    ledger.timedSpans = seeds;
    // Every job the timed seeds ran is attempted; the oracle checks a
    // seeded sample of them.
    report.failures.attempted = jobs;
    ledger.seedMicros = median(seedMicros);

    report.e2e("latency_p50_us", percentile(seedMicros, 0.5), "us");
    report.e2e("latency_p90_us", percentile(seedMicros, 0.9), "us");
    report.e2e("throughput_rps",
               static_cast<double>(seeds) / (timed / 1e6), "1/s");
    report.e2e("jobs_per_s", static_cast<double>(jobs) / (timed / 1e6),
               "1/s");
    report.note("paper_sweep: " + std::to_string(seeds) +
                " timed seeds; a request is one seed's whole matrix (" +
                std::to_string(jobs / seeds) + " jobs)");

    const sim::JobCache::Stats cache = sim::JobCache::global().stats();
    const double hits = static_cast<double>(cache.hits - cacheBefore.hits);
    const double probes =
        hits + static_cast<double>(cache.misses - cacheBefore.misses);
    report.layer("sim.job_cache.hit_ratio", probes == 0 ? 0 : hits / probes,
                 "ratio");
    report.layer("sim.job_cache.evictions",
                 static_cast<double>(cache.evictions - cacheBefore.evictions),
                 "count");
    report.layer("sim.job_cache.mb",
                 static_cast<double>(cache.bytes) / (1024.0 * 1024.0), "MB");
    report.layer("workload.duplicate_share", dups.share(), "ratio");
    report.layer("harness.gen_late_p90_us", 0.0, "us");
    report.layer("harness.input_mb", inputBytes / (1024.0 * 1024.0), "MB");
}

} // namespace perfledger
