/**
 * @file
 * perfledger: one workload per run, end-to-end metrics untraced or
 * per-layer metrics traced, the result as the last line of stdout.
 *
 *   perfledger --workload solo_hot|solo_cold|fleet_cold|paper_sweep
 *              --seed N
 *              --seconds S --trace 0|1 --run-dir DIR [--spans FILE]
 *
 * Exits 1 on bad arguments, on any reply or record that differs from
 * its in-process reference, or on an internal error.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hh"

using namespace perfledger;

namespace {

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = value;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                return false;
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(opt.seconds > 0.0))
                return false;
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return false;
            opt.trace = value == "1";
        } else if (key == "--spans") {
            opt.spansPath = value;
        } else if (key == "--run-dir") {
            opt.runDir = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !opt.runDir.empty() &&
           (opt.workload == "solo_hot" || opt.workload == "solo_cold" ||
            opt.workload == "fleet_cold" || opt.workload == "paper_sweep");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::cerr << "usage: perfledger --workload "
                     "solo_hot|solo_cold|fleet_cold|paper_sweep --seed N "
                     "--seconds S "
                     "--trace 0|1 --run-dir DIR [--spans FILE]\n";
        return 1;
    }
    try {
        Tracer tracer(opt.trace);
        Report report;
        LedgerInputs ledger;
        const double calibStart = hostCalibMs();
        if (opt.workload == "solo_hot" || opt.workload == "solo_cold")
            runSolo(opt, opt.workload == "solo_cold", tracer, report, ledger);
        else if (opt.workload == "fleet_cold")
            runFleetCold(opt, tracer, report, ledger);
        else
            runPaperSweep(opt, tracer, report, ledger);
        if (opt.trace)
            runLayerProbes(opt, tracer, report, ledger);
        const double calibEnd = hostCalibMs();
        report.layer("host.calib_ms", (calibStart + calibEnd) / 2.0, "ms");
        report.note("host.calib_ms start " + fmt(calibStart) + " end " +
                    fmt(calibEnd));
        if (opt.trace && !opt.spansPath.empty()) {
            if (!tracer.writeJsonLines(opt.spansPath)) {
                std::cerr << "perfledger: cannot write " << opt.spansPath
                          << '\n';
                return 1;
            }
            report.note(std::to_string(tracer.size()) + " spans written to " +
                        opt.spansPath);
        }
        if (!printReport(report, opt.trace))
            return 1;
        return report.failures.mismatch == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "perfledger: " << e.what() << '\n';
        return 1;
    }
}
