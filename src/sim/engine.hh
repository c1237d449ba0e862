/**
 * @file
 * The simulation engine ties everything together: it RTL-simulates
 * each job once (full design, and the slice when a predictor is
 * given), then replays the resulting per-job records under any DVFS
 * controller, accounting time, energy, switching, and deadline
 * misses. Replaying precomputed records is exact because execution is
 * compute-bound: cycles are frequency-independent, so time at any
 * level is cycles / f(level).
 */

#ifndef PREDVFS_SIM_ENGINE_HH
#define PREDVFS_SIM_ENGINE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "accel/accelerator.hh"
#include "core/controller.hh"
#include "core/predictor.hh"
#include "power/energy_model.hh"
#include "power/operating_points.hh"
#include "sim/fault.hh"
#include "sim/metrics.hh"

namespace predvfs {

namespace util {
class ThreadPool;
} // namespace util

namespace sim {

/** Timing parameters of a simulated deployment. */
struct EngineConfig
{
    double deadlineSeconds = 1.0 / 60.0;  //!< 60 fps refresh budget.
    double switchTimeSeconds = 100e-6;    //!< DVFS settle time.
};

/**
 * How one prepare() call was answered. jobs always equals
 * cacheHits + coalesced + simulated; the serving layer's telemetry is
 * built from these, and hit/miss accounting in tests leans on the
 * identity.
 */
struct PrepareStats
{
    std::size_t jobs = 0;       //!< Records requested.
    std::size_t cacheHits = 0;  //!< Answered from the global JobCache.
    std::size_t coalesced = 0;  //!< In-batch duplicates fanned out.
    std::size_t simulated = 0;  //!< Unique jobs actually simulated.

    PrepareStats &operator+=(const PrepareStats &other)
    {
        jobs += other.jobs;
        cacheHits += other.cacheHits;
        coalesced += other.coalesced;
        simulated += other.simulated;
        return *this;
    }
};

/** Precomputes job records and replays them under controllers. */
class SimulationEngine
{
  public:
    /**
     * @param accelerator   Benchmark accelerator (design + calibration).
     * @param table         Operating points; must outlive the engine.
     * @param config        Deadline and switch time.
     * @param energy_params Optional override of the accelerator's
     *                      energy calibration (e.g. the FPGA variant).
     */
    SimulationEngine(const accel::Accelerator &accelerator,
                     const power::OperatingPointTable &table,
                     EngineConfig config,
                     std::optional<power::EnergyParams> energy_params =
                         std::nullopt);

    /**
     * RTL-simulate @p jobs once, with the optional predictor's slice.
     *
     * The returned records keep pointers into @p jobs; the caller must
     * keep the job vector alive while the records are used.
     *
     * The simulation is memoised through the process-global JobCache:
     * a record's value fields are a pure function of (design,
     * predictor, job fields), so only *unique* field vectors are
     * simulated — batch-level duplicates fan out from one simulation,
     * and repeat streams (grid sweeps, repeated experiments) hit the
     * cache outright. The unique-job miss path runs the full design
     * through CompiledDesign::runBatch, or through the scalar run()
     * per job when only one or two jobs miss (below the measured
     * crossover the batch kernel is slower). All of this is
     * bit-identical to simulating every job from scratch.
     *
     * @param faults Optional fault schedule; its prepare-stage effects
     *        (readout corruption, slice stalls, model corruption, OOD
     *        spikes) are applied to the returned records. Only the
     *        clean simulation is memoised: faults mutate per-index
     *        copies after cache fan-out, exactly as they mutate
     *        freshly-simulated records, so cached and uncached prepare
     *        agree byte for byte under any schedule. Sweeping fault
     *        plans over a fixed stream is cheaper via
     *        FaultSchedule::applyPrepareFaults() on a copy of a
     *        fault-free prepared stream.
     * @param pool Optional thread pool; unique jobs are sharded over
     *        its workers. The result is bit-identical to the serial
     *        path at any worker count (each record depends only on its
     *        own job; cache probes and inserts stay serial and
     *        ordered, so the LRU history is deterministic too).
     * @param stats Optional counters describing how the call was
     *        answered (cache hits, in-batch duplicates, fresh
     *        simulations).
     */
    std::vector<core::PreparedJob>
    prepare(const std::vector<rtl::JobInput> &jobs,
            const core::SlicePredictor *predictor = nullptr,
            const FaultSchedule *faults = nullptr,
            util::ThreadPool *pool = nullptr,
            PrepareStats *stats = nullptr) const;

    /**
     * The content-addressed identity of this engine's prepared
     * streams: the design's content hash folded with a fingerprint of
     * @p predictor (slice design content, coefficients, intercept).
     * Two engines with equal stream keys produce equal records for
     * equal jobs — EngineConfig and energy-parameter overrides are
     * deliberately outside the key because no record value depends on
     * them.
     */
    std::uint64_t
    streamKey(const core::SlicePredictor *predictor) const;

    /**
     * Replay a prepared stream under @p controller.
     *
     * @param controller The DVFS policy (reset() is called first).
     * @param jobs       Prepared records.
     * @param trace      Optional per-job trace output.
     * @param faults     Optional fault schedule; its replay-stage
     *        effects (denied switches, inflated settle times) are
     *        applied per job index, identically for every controller.
     */
    RunMetrics run(core::DvfsController &controller,
                   const std::vector<core::PreparedJob> &jobs,
                   std::vector<JobTrace> *trace = nullptr,
                   const FaultSchedule *faults = nullptr) const;

    const accel::Accelerator &accelerator() const { return accel; }
    const power::OperatingPointTable &table() const { return opTable; }
    const EngineConfig &config() const { return engineConfig; }

    /** Nominal execution seconds of a prepared job. */
    double nominalSeconds(const core::PreparedJob &job) const;

    /** Energy model in effect (after any platform override). */
    const power::EnergyModel &energy() const { return energyModel; }

  private:
    const accel::Accelerator &accel;
    const power::OperatingPointTable &opTable;
    EngineConfig engineConfig;
    power::EnergyModel energyModel;
    // The design is compiled once here, not per prepare() call; the
    // interpreter is const and reentrant, so parallel prepare shares it.
    rtl::Interpreter fullInterp;
    std::uint64_t designHash;  //!< Content hash of the full design.
    // The first prepare() call profiles a slice of its stream and
    // builds speculative lockstep routes for branch-dynamic FSMs
    // (results are bit-identical; only batch throughput changes).
    // call_once gives the retuned tables a happens-before edge over
    // every later prepare, including concurrent first calls.
    mutable std::once_flag specOnce;
};

} // namespace sim
} // namespace predvfs

#endif // PREDVFS_SIM_ENGINE_HH
