#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>

#include "accel/registry.hh"
#include "sim/experiment.hh"
#include "sim/job_cache.hh"
#include "workload/suite.hh"

namespace perfledger {

using namespace predvfs;

void
Report::e2e(const std::string &name, double value, const char *unit)
{
    endToEnd[name] = Metric{value, unit, 0, true};
}

void
Report::e2e(const std::string &name, const Percentile &p,
            const char *unit)
{
    endToEnd[name] = Metric{p.value, unit, p.samples, p.supported};
}

void
Report::layer(const std::string &name, double value, const char *unit)
{
    perLayer[name] = Metric{value, unit, 0, true};
}

void
Report::layer(const std::string &name, const Percentile &p,
              const char *unit)
{
    perLayer[name] = Metric{p.value, unit, p.samples, p.supported};
}

const std::vector<MetricSpec> &
endToEndSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"latency_p50_us", "us"},     {"latency_p90_us", "us"},
        {"throughput_rps", "1/s"},    {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"energy_vs_baseline", "ratio"},
        {"deadline_miss_pct", "%"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerSpecs()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s;
        const auto perDesign = [&s](const std::string &base,
                                    const std::string &unit) {
            for (const std::string &d : designs())
                s.push_back({base + "." + d, unit});
        };
        perDesign("serve.client.latency_p50_us", "us");
        s.push_back({"serve.client.latency_p99_us", "us"});
        s.push_back({"serve.client.retries", "count"});
        s.push_back({"serve.client.busy_replies", "count"});
        s.push_back({"serve.client.deadline_expired", "count"});
        perDesign("serve.protocol.request_kb", "KB");
        perDesign("serve.protocol.codec_us", "us");
        perDesign("serve.transport.echo_us", "us");
        s.push_back({"serve.server.service_p50_us", "us"});
        s.push_back({"serve.server.batch_jobs_mean", "jobs"});
        s.push_back({"serve.server.peak_queue_depth", "count"});
        s.push_back({"serve.server.busy", "count"});
        s.push_back({"serve.server.expired", "count"});
        perDesign("serve.server.first_batch_jobs", "jobs");
        perDesign("sim.engine.prepare_cold_us", "us");
        perDesign("sim.engine.prepare_hot_us", "us");
        s.push_back({"sim.engine.run_us", "us"});
        s.push_back({"sim.engine.construct_s", "s"});
        s.push_back({"sim.job_cache.hit_ratio", "ratio"});
        s.push_back({"sim.job_cache.evictions", "count"});
        s.push_back({"sim.job_cache.mb", "MB"});
        s.push_back({"workload.duplicate_share", "ratio"});
        perDesign("rtl.compile.ns_per_item", "ns");
        perDesign("rtl.compile.mispredict_rate", "ratio");
        perDesign("rtl.compile.lane_occupancy", "ratio");
        perDesign("core.flow.build_s", "s");
        s.push_back({"rtl.verify.s", "s"});
        s.push_back({"rtl.lint.s", "s"});
        s.push_back({"harness.residual_us", "us"});
        s.push_back({"harness.gen_late_p90_us", "us"});
        s.push_back({"harness.trace_overhead_pct", "%"});
        s.push_back({"harness.input_mb", "MB"});
        s.push_back({"host.calib_ms", "ms"});
        return s;
    }();
    return specs;
}

namespace {

std::string
jsonNumber(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** @p specs, then any metric in @p values they do not name (an
 *  ungated workload's own metrics), in name order. */
std::vector<MetricSpec>
withExtras(const std::vector<MetricSpec> &specs,
           const std::map<std::string, Metric> &values)
{
    std::vector<MetricSpec> all = specs;
    for (const auto &[name, m] : values) {
        const bool named =
            std::any_of(specs.begin(), specs.end(),
                        [&](const MetricSpec &s) { return s.name == name; });
        if (!named)
            all.push_back({name, m.unit});
    }
    return all;
}

void
printTable(const char *title, const std::vector<MetricSpec> &specs,
           const std::map<std::string, Metric> &values)
{
    std::cout << "# " << title << '\n';
    for (const MetricSpec &spec : withExtras(specs, values)) {
        const auto it = values.find(spec.name);
        char line[256];
        if (it == values.end()) {
            std::snprintf(line, sizeof(line), "  %-40s %14s %-6s",
                          spec.name.c_str(), "-", spec.unit.c_str());
            std::cout << line << " (not exercised)\n";
            continue;
        }
        const Metric &m = it->second;
        std::snprintf(line, sizeof(line), "  %-40s %14.6g %-6s",
                      spec.name.c_str(), m.value, spec.unit.c_str());
        std::cout << line;
        if (m.samples > 0) {
            std::cout << " n=" << m.samples;
            if (!m.supported)
                std::cout << " (fewer than 10 samples beyond)";
        }
        std::cout << '\n';
    }
}

} // namespace

bool
printReport(const Report &report, bool traced)
{
    for (const std::string &line : report.notes)
        std::cout << "# " << line << '\n';
    printTable(traced ? "end-to-end (traced run: not the result)"
                      : "end-to-end",
               endToEndSpecs(), report.endToEnd);
    if (traced)
        printTable("per-layer (traced run)", perLayerSpecs(),
                   report.perLayer);
    const FailureLedger &f = report.failures;
    std::cout << "# failed_pct " << fmt(f.failedPct(), 4) << " % of "
              << f.attempted << " attempted (busy " << f.busy
              << ", deadline " << f.deadline << ", transport "
              << f.transport << ", mismatch " << f.mismatch << ")\n";

    std::ostringstream json;
    json << "{\"correct\": " << (f.mismatch == 0 ? "true" : "false")
         << ", \"attempted\": " << std::max<std::uint64_t>(f.attempted, 1)
         << ", \"failed\": " << f.failed() << ", \"metrics\": {";
    const std::map<std::string, Metric> &values =
        traced ? report.perLayer : report.endToEnd;
    bool first = true;
    bool complete = true;
    for (const MetricSpec &spec :
         withExtras(traced ? perLayerSpecs() : endToEndSpecs(), values)) {
        const auto it = values.find(spec.name);
        double value = 0.0;
        if (it != values.end() && std::isfinite(it->second.value))
            value = it->second.value;
        else if (!traced)
            complete = false;
        json << (first ? "" : ", ") << '"' << spec.name
             << "\": {\"value\": " << jsonNumber(value)
             << ", \"unit\": \"" << spec.unit << "\"}";
        first = false;
    }
    json << "}}";
    if (!complete) {
        std::cerr << "perfledger: an end-to-end metric was not "
                     "measured\n";
        return false;
    }
    std::cout << json.str() << std::endl;
    return true;
}

const std::vector<std::string> &
designs()
{
    return accel::benchmarkNames();
}

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t a, std::uint64_t b,
           std::uint64_t c)
{
    std::uint64_t h = base;
    for (const std::uint64_t part : {a, b, c}) {
        h += 0x9e3779b97f4a7c15ull + part;
        std::uint64_t z = h;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        h = z ^ (z >> 31);
    }
    if (h == workload::defaultSeed || h == kWarmupSeed)
        h ^= 0x1;
    return h;
}

std::vector<rtl::JobInput>
jobStream(const accel::Accelerator &accel, std::uint64_t seed)
{
    workload::BenchmarkWorkload w = workload::makeWorkload(accel, seed);
    std::vector<rtl::JobInput> jobs = std::move(w.train);
    for (rtl::JobInput &job : w.test)
        jobs.push_back(std::move(job));
    return jobs;
}

rtl::JobInput
warmupJob(const std::string &design)
{
    return jobStream(*accel::makeAccelerator(design), kWarmupSeed)
        .front();
}

std::size_t
jobBytes(const rtl::JobInput &job)
{
    std::size_t bytes = 0;
    for (const rtl::WorkItem &item : job.items)
        bytes += item.fields.size() * sizeof(std::int64_t);
    return bytes;
}

bool
bitsEqual(double a, double b)
{
    std::uint64_t ba = 0;
    std::uint64_t bb = 0;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    return ba == bb;
}

bool
sameValues(const RecordValues &e, const serve::PredictReplyMsg &r)
{
    return e.cycles == r.cycles && bitsEqual(e.energyUnits, r.energyUnits)
        && e.sliceCycles == r.sliceCycles
        && bitsEqual(e.sliceEnergyUnits, r.sliceEnergyUnits)
        && bitsEqual(e.predictedCycles, r.predictedCycles);
}

bool
sameAsOracle(const rtl::JobResult &oracle, const serve::PredictReplyMsg &r)
{
    return oracle.cycles == r.cycles &&
           bitsEqual(oracle.energyUnits, r.energyUnits);
}

struct Reference::Impl
{
    std::map<std::string, std::unique_ptr<sim::Experiment>> exps;
};

Reference::Reference() : impl(std::make_unique<Impl>())
{
    sim::JobCache::global().clear();
    // The server registers with default ServerOptions::experiment, so
    // default ExperimentOptions build the identical predictor.
    for (const std::string &d : designs())
        impl->exps[d] = std::make_unique<sim::Experiment>(d);
}

Reference::~Reference() = default;

std::vector<RecordValues>
Reference::records(const std::string &design,
                   const std::vector<rtl::JobInput> &jobs)
{
    sim::Experiment &exp = *impl->exps.at(design);
    const std::vector<core::PreparedJob> prepared =
        exp.engine().prepare(jobs, &exp.predictor());
    std::vector<RecordValues> out(prepared.size());
    for (std::size_t i = 0; i < prepared.size(); ++i) {
        const core::PreparedJob &p = prepared[i];
        out[i] = RecordValues{p.cycles, p.energyUnits, p.sliceCycles,
                              p.sliceEnergyUnits, p.predictedCycles};
    }
    return out;
}

PaperQuantities
Reference::paper()
{
    PaperQuantities q;
    for (auto &[name, exp] : impl->exps) {
        q.energyVsBaseline +=
            exp->normalizedEnergy(sim::Scheme::Prediction);
        q.deadlineMissPct +=
            100.0 * exp->runScheme(sim::Scheme::Prediction).missRate();
    }
    const double n = static_cast<double>(impl->exps.size());
    q.energyVsBaseline /= n;
    q.deadlineMissPct /= n;
    return q;
}

void
Reference::release()
{
    impl->exps.clear();
    sim::clearSharedStreams();
    sim::JobCache::global().clear();
}

namespace {

/** Keeps the calibration loop's result observable. */
volatile std::uint64_t calibSink = 0;

} // namespace

double
hostCalibMs()
{
    constexpr std::size_t kWords = std::size_t{1} << 19;  // 4 MiB.
    constexpr std::size_t kSteps = std::size_t{1} << 22;
    std::vector<std::uint64_t> buf(kWords, 1);
    std::uint64_t x = 88172645463325252ull;
    const double t0 = nowMicros();
    for (std::size_t i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buf[x & (kWords - 1)] += x;
    }
    const double ms = (nowMicros() - t0) / 1000.0;
    std::uint64_t sum = 0;
    for (const std::uint64_t w : buf)
        sum += w;
    calibSink = sum;
    return ms;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB.
}

std::string
fmt(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    return buf;
}

} // namespace perfledger
