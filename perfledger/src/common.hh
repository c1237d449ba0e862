/**
 * @file
 * Pieces every workload shares: options, the metric report and its
 * printer, seeds and job streams, the in-process reference records
 * served replies are checked against, and host diagnostics.
 */

#ifndef PERFLEDGER_COMMON_HH
#define PERFLEDGER_COMMON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "rtl/design.hh"
#include "rtl/interpreter.hh"
#include "serve/protocol.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfledger {

/** Command-line settings of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;   //!< Where a traced run writes its spans.
    std::string runDir;      //!< Socket files live here.
};

/** One reported number. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  //!< 0 = not a sampled statistic.
    bool supported = true;    //!< Percentile has 10+ samples beyond.
};

/** Everything a run measured. */
struct Report
{
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    FailureLedger failures;
    std::vector<std::string> notes;  //!< Printed before the result.

    void e2e(const std::string &name, double value, const char *unit);
    void e2e(const std::string &name, const Percentile &p,
             const char *unit);
    void layer(const std::string &name, double value, const char *unit);
    void layer(const std::string &name, const Percentile &p,
               const char *unit);
    void note(const std::string &line) { notes.push_back(line); }
};

/** Name and unit of a metric the benchmark reports. */
struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** Every end-to-end metric, in BENCHMARK.json order. */
const std::vector<MetricSpec> &endToEndSpecs();

/** Every per-layer metric (per-design ones expanded), in
 *  BENCHMARK.json order. */
const std::vector<MetricSpec> &perLayerSpecs();

/**
 * Print the human-readable table (every measured metric with unit and
 * sample count) and, as the last line, the JSON result: end-to-end
 * metrics, or per-layer ones when @p traced. Per-layer metrics a
 * workload does not exercise print as 0.
 * @return false when an end-to-end metric is missing (a bug).
 */
bool printReport(const Report &report, bool traced);

/** The served designs, in registry order. */
const std::vector<std::string> &designs();

/** Deterministic seed derivation (splitmix64 over the parts). Never
 *  returns the paper's training seed or the warm-up seed. */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t a,
                         std::uint64_t b = 0, std::uint64_t c = 0);

/** Seed of the warm-up jobs; no timed phase draws from it. */
constexpr std::uint64_t kWarmupSeed = 0x5eedf00dull;

/** A design's Table 3 train and test jobs for @p seed, concatenated. */
std::vector<predvfs::rtl::JobInput>
jobStream(const predvfs::accel::Accelerator &accel, std::uint64_t seed);

/** The warm-up job of @p design (first job of the warm-up stream). */
predvfs::rtl::JobInput warmupJob(const std::string &design);

/** Bytes of a job's field data. */
std::size_t jobBytes(const predvfs::rtl::JobInput &job);

/** The value fields of one prepared record. */
struct RecordValues
{
    std::uint64_t cycles = 0;
    double energyUnits = 0.0;
    std::uint64_t sliceCycles = 0;
    double sliceEnergyUnits = 0.0;
    double predictedCycles = 0.0;
};

/** IEEE-bit equality of two doubles. */
bool bitsEqual(double a, double b);

/** IEEE-bit equality of every value field (the wire ships the bits,
 *  so the comparison must too). */
bool sameValues(const RecordValues &expected,
                const predvfs::serve::PredictReplyMsg &reply);

/** Cycles and energy of @p reply equal the tree walker's
 *  (Interpreter::runReference) result @p oracle, bit for bit. */
bool sameAsOracle(const predvfs::rtl::JobResult &oracle,
                  const predvfs::serve::PredictReplyMsg &reply);

/** The paper's headline quantities for Scheme::Prediction at the
 *  paper's seed, averaged over the seven designs. */
struct PaperQuantities
{
    double energyVsBaseline = 0.0;  //!< Normalized energy.
    double deadlineMissPct = 0.0;   //!< Jobs missed, percent.
};

/**
 * In-process reference for served workloads: one sim::Experiment per
 * design (paper options and seed, the server's settings), whose engine
 * prepares the records replies must equal. Build it only once the
 * server is gone and the process-global JobCache is empty, so no
 * record is answered from an entry the server inserted; release()
 * empties the cache again.
 */
class Reference
{
  public:
    Reference();
    ~Reference();

    /** Records for @p jobs of @p design through the Experiment's
     *  engine and trained predictor. */
    std::vector<RecordValues>
    records(const std::string &design,
            const std::vector<predvfs::rtl::JobInput> &jobs);

    /** Scheme::Prediction energy and misses, paper seed. */
    PaperQuantities paper();

    /** Drop the experiments, the shared streams and the JobCache. */
    void release();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/** Fixed ALU + memory loop, milliseconds: a host-speed yardstick taken
 *  at the start and end of every run. Gates nothing. */
double hostCalibMs();

/** Peak resident set of this process, MB. */
double peakRssMb();

/** @p value with @p precision significant digits, for notes. */
std::string fmt(double value, int precision = 4);

} // namespace perfledger

#endif // PERFLEDGER_COMMON_HH
