/**
 * @file
 * The three workloads and the traced run's layer probes.
 *
 * Each workload measures its end-to-end metrics (and the per-layer
 * counters only it exercises) into a Report, and hands the probes the
 * inputs it used, so a traced run times each layer on the same jobs.
 */

#ifndef PERFLEDGER_WORKLOADS_HH
#define PERFLEDGER_WORKLOADS_HH

#include <map>
#include <string>
#include <vector>

#include "common.hh"

namespace perfledger {

/** Jobs per design the layer probes time. */
constexpr std::size_t kProbeJobs = 16;

/** What the layer probes need from the workload that ran. */
struct LedgerInputs
{
    /** Per design: jobs the probes time (drawn from what the workload
     *  sent or simulated). */
    std::map<std::string, std::vector<predvfs::rtl::JobInput>> sample;

    /** Per design: the jobs the workload's engine tuned its
     *  speculative routes on (its first prepare() batch). */
    std::map<std::string, std::vector<predvfs::rtl::JobInput>>
        specSample;

    /** Served workloads: each timed request's design and latency, µs. */
    std::vector<std::pair<std::string, double>> requests;

    /** Served workloads: the server's p50 service time per design. */
    std::map<std::string, double> serviceP50;

    /** paper_sweep: median wall time of one timed seed, µs, and the
     *  jobs one seed prepares (train + test) and replays (test) per
     *  design. */
    double seedMicros = 0.0;
    std::map<std::string, std::size_t> seedJobs;
    std::map<std::string, std::size_t> seedTestJobs;

    /** Wall time of the timed phase, µs, and the spans recorded inside
     *  it (the tracing overhead's base and count). */
    double timedMicros = 0.0;
    std::size_t timedSpans = 0;
};

/**
 * One synchronous client over a Unix socket, one request in flight,
 * round-robin over the designs. Hot (solo_hot): each design cycles a
 * small primed set, so every timed request is a JobCache hit. Cold
 * (solo_cold): each design sends fresh jobs, so requests miss.
 */
void runSolo(const Options &opt, bool cold, Tracer &tracer,
             Report &report, LedgerInputs &ledger);
void runFleetCold(const Options &opt, Tracer &tracer, Report &report,
                  LedgerInputs &ledger);
void runPaperSweep(const Options &opt, Tracer &tracer, Report &report,
                   LedgerInputs &ledger);

/**
 * The traced run's per-layer probes: time the library's public
 * functions layer by layer on @p ledger's inputs, then derive the
 * attribution residual against the workload's end-to-end samples.
 */
void runLayerProbes(const Options &opt, Tracer &tracer, Report &report,
                    const LedgerInputs &ledger);

} // namespace perfledger

#endif // PERFLEDGER_WORKLOADS_HH
