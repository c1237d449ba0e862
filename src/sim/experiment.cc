#include "sim/experiment.hh"

#include <future>
#include <iomanip>
#include <mutex>
#include <sstream>

#include "accel/registry.hh"
#include "core/guarded_controller.hh"
#include "core/oracle_controller.hh"
#include "core/predictive_controller.hh"
#include "core/table_controller.hh"
#include "util/logging.hh"

namespace predvfs {
namespace sim {

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Baseline: return "baseline";
      case Scheme::Pid: return "pid";
      case Scheme::Table: return "table";
      case Scheme::Prediction: return "prediction";
      case Scheme::PredictionNoOverhead: return "prediction w/o overhead";
      case Scheme::PredictionBoost: return "prediction w/ boost";
      case Scheme::Oracle: return "oracle";
      case Scheme::GuardedPrediction: return "guarded prediction";
    }
    return "?";
}

namespace {

/** Fraction of each design's area implemented in FPGA hard blocks
 *  (DSP/BRAM); the rest maps to LUTs. Datapath-heavy designs like
 *  stencil have a tiny LUT footprint, which inflates the *relative*
 *  resource overhead of their (LUT-only) slice — paper Figure 17. */
double
fpgaLutShare(const std::string &name)
{
    if (name == "h264") return 0.72;
    if (name == "cjpeg") return 0.78;
    if (name == "djpeg") return 0.74;
    if (name == "md") return 0.45;
    if (name == "stencil") return 0.24;
    if (name == "aes") return 0.80;
    if (name == "sha") return 0.62;
    return 0.7;
}

/**
 * Registry of prepared streams, keyed by every option that can change
 * a stream's content. A shared_future per key lets concurrent matrix
 * workers build *different* streams in parallel while same-key
 * requesters wait for the first builder instead of duplicating the
 * flow training and the simulation.
 */
std::mutex streamMu;
std::map<std::string,
         std::shared_future<std::shared_ptr<const PreparedStream>>>
    streamRegistry;

/**
 * Everything the prepared records and the trained predictor depend
 * on. Platform, deadline, switch time, and margins are deliberately
 * absent: they configure replay, not preparation.
 */
std::string
streamKeyOf(const std::string &benchmark, const ExperimentOptions &opts)
{
    std::ostringstream key;
    key << std::setprecision(17);
    const core::FlowConfig &fc = opts.flowConfig;
    key << benchmark << '|' << opts.seed << '|'
        << (opts.sliceOptions.mode == rtl::SliceOptions::Mode::Hls
                ? "hls" : "rtl")
        << '|' << opts.sliceOptions.hlsSpeedup << '|' << fc.alpha << '|'
        << fc.accuracyTolerance << '|' << fc.absoluteLossFloor << '|'
        << fc.validationFraction << '|' << fc.coefficientThreshold;
    for (const double gamma : fc.gammaSweep)
        key << ',' << gamma;
    return key.str();
}

} // namespace

power::EnergyParams
platformEnergyParams(power::EnergyParams params, Platform platform)
{
    if (platform == Platform::Fpga) {
        // FPGA fabric: higher switched capacitance per op and much
        // higher static power than a 65 nm ASIC.
        params.joulesPerUnit *= 3.0;
        params.leakageWattsNominal *= 6.0;
    }
    return params;
}

BenchmarkEngine
makeBenchmarkEngine(const accel::Accelerator &accelerator,
                    const ExperimentOptions &options)
{
    BenchmarkEngine b;
    const double f0 = accelerator.nominalFrequencyHz();
    if (options.platform == Platform::Asic) {
        b.vf = std::make_unique<power::VfModel>(
            power::VfModel::asic65nm(f0));
        b.table = std::make_unique<power::OperatingPointTable>(
            power::OperatingPointTable::asic(*b.vf, /*with_boost=*/true));
    } else {
        b.vf = std::make_unique<power::VfModel>(
            power::VfModel::fpga28nm(f0));
        b.table = std::make_unique<power::OperatingPointTable>(
            power::OperatingPointTable::fpga(*b.vf, /*with_boost=*/true));
    }

    EngineConfig engine_config;
    engine_config.deadlineSeconds = options.deadlineSeconds;
    engine_config.switchTimeSeconds = options.switchTimeSeconds;

    // The engine's energy model follows the platform.
    b.engine = std::make_unique<SimulationEngine>(
        accelerator, *b.table, engine_config,
        platformEnergyParams(accelerator.energyParams(),
                             options.platform));
    return b;
}

core::FlowResult
trainPredictor(const accel::Accelerator &accelerator,
               const std::vector<rtl::JobInput> &train,
               const ExperimentOptions &options)
{
    core::FlowConfig flow_config = options.flowConfig;
    flow_config.sliceOptions = options.sliceOptions;
    return core::buildPredictor(accelerator.design(), train, flow_config);
}

void
clearSharedStreams()
{
    std::lock_guard<std::mutex> lock(streamMu);
    streamRegistry.clear();
}

Experiment::Experiment(const std::string &benchmark,
                       ExperimentOptions options)
    : opts(std::move(options)),
      accelPtr(accel::makeAccelerator(benchmark)),
      setup(makeBenchmarkEngine(*accelPtr, opts))
{
    // Offline flow + stream preparation, shared across cells. The
    // records are independent of the engine config, so whichever
    // cell's engine runs prepare() first produces the stream every
    // later cell replays.
    const auto build = [&]() -> std::shared_ptr<const PreparedStream> {
        auto s = std::make_shared<PreparedStream>();
        s->work = workload::makeWorkload(*accelPtr, opts.seed);
        s->flow = trainPredictor(*accelPtr, s->work.train, opts);
        s->trainJobs = setup.engine->prepare(s->work.train,
                                             s->flow.predictor.get());
        s->testJobs = setup.engine->prepare(s->work.test,
                                            s->flow.predictor.get());
        return s;
    };

    // A custom featureFilter has no content identity a key could
    // capture; such experiments always build privately.
    const bool share = opts.shareStreams && !opts.flowConfig.featureFilter;
    if (!share) {
        stream = build();
        return;
    }

    const std::string key = streamKeyOf(benchmark, opts);
    std::promise<std::shared_ptr<const PreparedStream>> promise;
    std::shared_future<std::shared_ptr<const PreparedStream>> future;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(streamMu);
        const auto it = streamRegistry.find(key);
        if (it != streamRegistry.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            streamRegistry.emplace(key, future);
            builder = true;
        }
    }
    if (builder) {
        try {
            promise.set_value(build());
        } catch (...) {
            promise.set_exception(std::current_exception());
            throw;
        }
    }
    stream = future.get();
}

const core::PidConfig &
Experiment::pidConfig()
{
    if (!tunedPid) {
        std::vector<double> nominal;
        nominal.reserve(stream->trainJobs.size());
        for (const auto &job : stream->trainJobs)
            nominal.push_back(setup.engine->nominalSeconds(job));
        tunedPid =
            core::PidController::tune(nominal, opts.pidMargin);
    }
    return *tunedPid;
}

std::unique_ptr<core::DvfsController>
Experiment::makeController(Scheme scheme)
{
    const double f0 = accelPtr->nominalFrequencyHz();

    core::DvfsModelConfig dvfs;
    dvfs.deadlineSeconds = opts.deadlineSeconds;
    dvfs.switchTimeSeconds = opts.switchTimeSeconds;
    dvfs.marginFraction = opts.predictionMargin;

    switch (scheme) {
      case Scheme::Baseline:
        return std::make_unique<core::ConstantController>(
            setup.table->nominalIndex());
      case Scheme::Pid:
        return std::make_unique<core::PidController>(
            *setup.table, f0, dvfs, pidConfig());
      case Scheme::Table: {
        std::vector<std::pair<std::size_t, double>> profile;
        profile.reserve(stream->trainJobs.size());
        for (const auto &job : stream->trainJobs)
            profile.emplace_back(job.input->items.size(),
                                 setup.engine->nominalSeconds(job));
        core::DvfsModelConfig table_dvfs = dvfs;
        table_dvfs.marginFraction = 0.0;  // Worst case is the margin.
        return std::make_unique<core::TableController>(
            *setup.table, f0, table_dvfs, profile);
      }
      case Scheme::Prediction:
        return std::make_unique<core::PredictiveController>(
            *setup.table, f0, dvfs);
      case Scheme::PredictionNoOverhead: {
        core::DvfsModelConfig no_ovh = dvfs;
        no_ovh.ignoreOverheads = true;
        return std::make_unique<core::PredictiveController>(
            *setup.table, f0, no_ovh);
      }
      case Scheme::PredictionBoost: {
        core::DvfsModelConfig boost = dvfs;
        boost.allowBoost = true;
        return std::make_unique<core::PredictiveController>(
            *setup.table, f0, boost);
      }
      case Scheme::Oracle:
        return std::make_unique<core::OracleController>(
            *setup.table, f0, dvfs);
      case Scheme::GuardedPrediction:
        return std::make_unique<core::GuardedPredictiveController>(
            *setup.table, f0, dvfs, pidConfig());
    }
    util::panic("unknown scheme");
    return nullptr;
}

RunMetrics
Experiment::runScheme(Scheme scheme, std::vector<JobTrace> *trace)
{
    if (!trace) {
        const auto it = cache.find(scheme);
        if (it != cache.end())
            return it->second;
    }
    auto controller = makeController(scheme);
    const RunMetrics metrics =
        setup.engine->run(*controller, stream->testJobs, trace);
    cache[scheme] = metrics;
    return metrics;
}

double
Experiment::normalizedEnergy(Scheme scheme)
{
    const double base =
        runScheme(Scheme::Baseline).totalEnergyJoules();
    util::panicIf(base <= 0.0, "baseline energy is zero");
    return runScheme(scheme).totalEnergyJoules() / base;
}

double
Experiment::sliceAreaFraction() const
{
    const auto &slice = stream->flow.predictor->slice();
    return slice.areaUnits() / accelPtr->design().areaUnits();
}

double
Experiment::sliceResourceFraction() const
{
    const auto &slice = stream->flow.predictor->slice();
    const double lut_share = fpgaLutShare(accelPtr->name());
    // The slice is control logic and maps entirely to LUTs; relate it
    // to the accelerator's LUT footprint (hard blocks are excluded
    // the way LUT-utilisation reports exclude DSPs).
    return slice.areaUnits() /
        (accelPtr->design().areaUnits() * lut_share);
}

double
Experiment::meanSliceTimeFraction() const
{
    if (stream->testJobs.empty())
        return 0.0;
    const double f0 = accelPtr->nominalFrequencyHz();
    double total = 0.0;
    for (const auto &job : stream->testJobs)
        total += static_cast<double>(job.sliceCycles) / f0;
    return (total / static_cast<double>(stream->testJobs.size())) /
        opts.deadlineSeconds;
}

double
Experiment::meanSliceEnergyFraction() const
{
    if (stream->testJobs.empty())
        return 0.0;
    double slice_units = 0.0;
    double job_units = 0.0;
    for (const auto &job : stream->testJobs) {
        slice_units += job.sliceEnergyUnits;
        job_units += job.energyUnits;
    }
    return job_units > 0.0 ? slice_units / job_units : 0.0;
}

std::vector<MatrixCell>
runExperimentMatrix(const std::vector<std::string> &benchmarks,
                    const std::vector<Scheme> &schemes,
                    const ExperimentOptions &options)
{
    std::vector<MatrixCell> cells(benchmarks.size() * schemes.size());

    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        Experiment exp(benchmarks[b], options);
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            MatrixCell &cell = cells[b * schemes.size() + s];
            cell.benchmark = benchmarks[b];
            cell.scheme = schemes[s];
            cell.metrics = exp.runScheme(schemes[s]);
            cell.normalizedEnergy = exp.normalizedEnergy(schemes[s]);
        }
    }
    return cells;
}

} // namespace sim
} // namespace predvfs
