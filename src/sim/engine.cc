#include "sim/engine.hh"

#include <algorithm>
#include <unordered_map>

#include "rtl/compile.hh"
#include "rtl/interpreter.hh"
#include "sim/job_cache.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace predvfs {
namespace sim {

using util::fatalIf;
using util::panicIf;

namespace {

/**
 * The serial memoised path sends unique-miss batches smaller than this
 * through the scalar run(), one job at a time. Measured per design
 * (DESIGN.md, "Measured and kept"): at one and two jobs the scalar
 * path is faster on every design; at three the batch kernel already
 * wins on md and stencil. Both paths are proven equal to the source,
 * so the choice cannot move a byte.
 */
constexpr std::size_t kMinBatchJobs = 3;

} // namespace

SimulationEngine::SimulationEngine(
    const accel::Accelerator &accelerator,
    const power::OperatingPointTable &table, EngineConfig config,
    std::optional<power::EnergyParams> energy_params)
    : accel(accelerator),
      opTable(table),
      engineConfig(config),
      energyModel(energy_params ? *energy_params
                                : accelerator.energyParams()),
      fullInterp(accelerator.design()),
      designHash(JobCache::hashDesign(accelerator.design()))
{
    // Config mistakes here would otherwise surface as NaN-shaped
    // metrics several layers away; reject them up front.
    fatalIf(engineConfig.deadlineSeconds <= 0.0,
            "SimulationEngine: deadlineSeconds must be positive, got ",
            engineConfig.deadlineSeconds);
    fatalIf(engineConfig.switchTimeSeconds < 0.0,
            "SimulationEngine: switchTimeSeconds must be "
            "non-negative, got ", engineConfig.switchTimeSeconds);
}

std::uint64_t
SimulationEngine::streamKey(const core::SlicePredictor *predictor) const
{
    std::uint64_t h = designHash;
    if (predictor) {
        // The predictor memoises its content fingerprint (slice design
        // text, coefficients, intercept) at construction; re-deriving
        // it here would serialise the slice design on every prepare().
        const std::uint64_t fp = predictor->fingerprint();
        h = JobCache::hashBytes(&fp, sizeof(fp), h);
    } else {
        h = JobCache::hashBytes("no-slice", 8, h);
    }
    return h;
}

std::vector<core::PreparedJob>
SimulationEngine::prepare(const std::vector<rtl::JobInput> &jobs,
                          const core::SlicePredictor *predictor,
                          const FaultSchedule *faults,
                          util::ThreadPool *pool,
                          PrepareStats *stats) const
{
    std::vector<core::PreparedJob> prepared(jobs.size());
    if (stats)
        *stats = PrepareStats{};

    // One-time self-speculation: profile a slice of the first stream
    // this engine prepares and retune the batch kernel's speculative
    // lockstep routes to it. Bit-identical either way; the sample cap
    // bounds the profiling pass on huge streams.
    if (!jobs.empty()) {
        std::call_once(specOnce, [&] {
            constexpr std::size_t kSpecSample = 32;
            const std::size_t n =
                std::min(jobs.size(), kSpecSample);
            const std::vector<rtl::JobInput> sample(jobs.begin(),
                                                    jobs.begin() + n);
            fullInterp.speculate(sample);
        });
    }

    // Record i depends only on job i and both runs are reentrant, so
    // any sharding of the index range produces the same vector.
    const auto sliceInto = [&](const rtl::JobInput &job,
                               core::PreparedJob &record) {
        const core::SliceRun slice = predictor->run(job);
        record.sliceCycles = slice.sliceCycles;
        record.sliceEnergyUnits = slice.sliceEnergyUnits;
        record.predictedCycles = slice.predictedCycles;
    };
    const auto fill = [&](const rtl::JobInput &job,
                          core::PreparedJob &record) {
        record.input = &job;
        const rtl::JobResult result = fullInterp.run(job);
        record.cycles = result.cycles;
        record.energyUnits = result.energyUnits;
        if (predictor)
            sliceInto(job, record);
    };

    // Phase 1 (serial): probe the global cache once per job and
    // deduplicate the misses within this batch, keeping
    // first-occurrence order. Serial probing makes the cache's LRU
    // history a pure function of the job sequence — the worker count
    // only shards phase 2, which touches no shared state.
    JobCache &cache = JobCache::global();
    const std::uint64_t key = streamKey(predictor);

    std::vector<std::size_t> uniq;          //!< Indices to simulate.
    std::vector<std::vector<std::int64_t>> uniqKeys;
    std::vector<std::uint64_t> uniqHashes;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> byHash;
    // copyFrom[i] == i: simulate; == j < i: duplicate of job j;
    // == SIZE_MAX: already filled from the cache.
    std::vector<std::size_t> copyFrom(jobs.size());

    // One content-key buffer for the whole probe loop: lookup()
    // rewrites it in place, and only unique misses steal its storage.
    // The fresh-vector-per-job version showed up as allocator churn on
    // item-heavy streams (the h264 serial-prepare regression).
    std::vector<std::int64_t> ck;
    CachedJob hit;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        prepared[i].input = &jobs[i];
        ck.clear();
        std::uint64_t h = 0;
        if (cache.lookup(key, jobs[i], hit, &ck, &h)) {
            prepared[i].cycles = hit.cycles;
            prepared[i].energyUnits = hit.energyUnits;
            prepared[i].sliceCycles = hit.sliceCycles;
            prepared[i].sliceEnergyUnits = hit.sliceEnergyUnits;
            prepared[i].predictedCycles = hit.predictedCycles;
            copyFrom[i] = static_cast<std::size_t>(-1);
            continue;
        }
        std::vector<std::size_t> &slot = byHash[h];
        std::size_t rep = static_cast<std::size_t>(-1);
        for (const std::size_t u : slot) {
            if (uniqKeys[u] == ck) {
                rep = uniq[u];
                break;
            }
        }
        if (rep != static_cast<std::size_t>(-1)) {
            copyFrom[i] = rep;
            continue;
        }
        copyFrom[i] = i;
        slot.push_back(uniq.size());
        uniq.push_back(i);
        uniqKeys.push_back(std::move(ck));
        uniqHashes.push_back(h);
    }

    // Phase 2: simulate only the unique misses. Sharded over the pool
    // when available; the serial path pushes the full-design
    // simulation of batches of kMinBatchJobs or more through the
    // lockstep batch kernel (bit-identical to per-job run() by
    // construction).
    if (pool && pool->workers() > 1 && uniq.size() > 1) {
        pool->run(uniq.size(), [&](unsigned, std::size_t k) {
            fill(jobs[uniq[k]], prepared[uniq[k]]);
        });
    } else if (uniq.size() < kMinBatchJobs) {
        for (const std::size_t i : uniq)
            fill(jobs[i], prepared[i]);
    } else {
        std::vector<const rtl::JobInput *> batch;
        batch.reserve(uniq.size());
        for (const std::size_t i : uniq)
            batch.push_back(&jobs[i]);
        const std::vector<rtl::JobResult> results =
            fullInterp.compiled()->runBatch(batch);
        for (std::size_t k = 0; k < uniq.size(); ++k) {
            core::PreparedJob &record = prepared[uniq[k]];
            record.cycles = results[k].cycles;
            record.energyUnits = results[k].energyUnits;
            if (predictor)
                sliceInto(jobs[uniq[k]], record);
        }
    }

    // Phase 3 (serial, first-occurrence order): publish the clean
    // results, then fan out to batch-level duplicates.
    for (std::size_t k = 0; k < uniq.size(); ++k) {
        const core::PreparedJob &record = prepared[uniq[k]];
        CachedJob value;
        value.cycles = record.cycles;
        value.energyUnits = record.energyUnits;
        value.sliceCycles = record.sliceCycles;
        value.sliceEnergyUnits = record.sliceEnergyUnits;
        value.predictedCycles = record.predictedCycles;
        cache.insert(std::move(uniqKeys[k]), uniqHashes[k], value);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::size_t src = copyFrom[i];
        if (src == static_cast<std::size_t>(-1) || src == i)
            continue;
        prepared[i].cycles = prepared[src].cycles;
        prepared[i].energyUnits = prepared[src].energyUnits;
        prepared[i].sliceCycles = prepared[src].sliceCycles;
        prepared[i].sliceEnergyUnits = prepared[src].sliceEnergyUnits;
        prepared[i].predictedCycles = prepared[src].predictedCycles;
    }

    // Faults mutate the per-index copies only — the cache holds the
    // clean simulation, so a faulted stream can never poison a later
    // prepare.
    if (faults)
        faults->applyPrepareFaults(prepared);
    if (stats) {
        stats->jobs = jobs.size();
        stats->simulated = uniq.size();
        // Phase 1 classified every job exactly once: cache hit,
        // duplicate of an earlier miss, or fresh simulation.
        std::size_t hits = 0;
        for (const std::size_t src : copyFrom)
            hits += src == static_cast<std::size_t>(-1) ? 1 : 0;
        stats->cacheHits = hits;
        stats->coalesced = jobs.size() - hits - uniq.size();
    }
    return prepared;
}

double
SimulationEngine::nominalSeconds(const core::PreparedJob &job) const
{
    return static_cast<double>(job.cycles) / accel.nominalFrequencyHz();
}

RunMetrics
SimulationEngine::run(core::DvfsController &controller,
                      const std::vector<core::PreparedJob> &jobs,
                      std::vector<JobTrace> *trace,
                      const FaultSchedule *faults) const
{
    controller.reset();
    if (trace) {
        trace->clear();
        trace->reserve(jobs.size());
    }

    RunMetrics metrics;
    const double v_nominal = energyModel.params().vNominal;
    std::size_t current_level = opTable.nominalIndex();

    // Jobs are periodic (one per deadline interval, Figure 1): when a
    // job overruns its deadline, the accelerator is still busy when
    // the next job is released, so the successor starts late and has
    // less than a full period of budget.
    double carry_seconds = 0.0;

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto &job = jobs[i];
        const double budget =
            engineConfig.deadlineSeconds - carry_seconds;
        const core::Decision decision =
            controller.decide(job, current_level,
                              std::max(budget, 1e-9));
        panicIf(decision.level >= opTable.size(),
                "controller '", controller.name(),
                "' chose invalid level ", decision.level);

        // DVFS switch faults: a denied transition leaves the
        // accelerator at its current level (the controller learns of
        // it through current_level on the next decide()); a settle
        // fault inflates the switch time.
        const JobFaults *fault = faults ? &faults->at(i) : nullptr;
        std::size_t effective_level = decision.level;
        if (fault && fault->switchDenied &&
            effective_level != current_level)
            effective_level = current_level;
        const auto &op = opTable[effective_level];

        const bool switched = effective_level != current_level;
        double switch_seconds = (switched && decision.chargeSwitch)
            ? engineConfig.switchTimeSeconds
            : 0.0;
        if (fault)
            switch_seconds *= fault->settleFactor;
        current_level = effective_level;

        const double exec_seconds =
            static_cast<double>(job.cycles) / op.frequencyHz;
        const double total_seconds = decision.overheadSeconds +
            switch_seconds + exec_seconds;

        const double exec_energy =
            energyModel.jobEnergy(job.energyUnits, job.cycles, op);
        // The predictor slice runs at nominal voltage/frequency (it is
        // a separate small block, Figure 5); charge its dynamic energy
        // plus leakage for its runtime.
        const double overhead_energy =
            energyModel.dynamicEnergy(decision.overheadEnergyUnits,
                                      v_nominal) +
            (decision.overheadEnergyUnits > 0.0
                 ? energyModel.leakagePower(v_nominal) *
                       decision.overheadSeconds
                 : 0.0) +
            decision.overheadEnergyJoules;

        const double finish_seconds = carry_seconds + total_seconds;
        const bool missed =
            finish_seconds > engineConfig.deadlineSeconds;
        carry_seconds = std::max(
            0.0, finish_seconds - engineConfig.deadlineSeconds);

        metrics.jobs += 1;
        metrics.misses += missed ? 1 : 0;
        metrics.switches += switched ? 1 : 0;
        metrics.execEnergyJoules += exec_energy;
        metrics.overheadEnergyJoules += overhead_energy;
        metrics.execSeconds += exec_seconds;
        metrics.overheadSeconds +=
            decision.overheadSeconds + switch_seconds;

        const double nominal_seconds = nominalSeconds(job);
        controller.observe(job, nominal_seconds);

        if (trace) {
            JobTrace t;
            t.level = effective_level;
            t.actualNominalSeconds = nominal_seconds;
            t.predictedNominalSeconds =
                decision.predictedNominalSeconds;
            t.execSeconds = exec_seconds;
            t.totalSeconds = total_seconds;
            t.energyJoules = exec_energy + overhead_energy;
            t.missed = missed;
            trace->push_back(t);
        }
    }
    return metrics;
}

} // namespace sim
} // namespace predvfs
