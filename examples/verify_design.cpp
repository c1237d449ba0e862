/**
 * @file
 * Example/CLI: run the predvfs-verify translation validator over
 * benchmark accelerators — compile each design (and its RTL and HLS
 * slices) to bytecode and statically prove the compiled artifact
 * equivalent to the source: symbolic root equivalence, bytecode
 * well-formedness with interval-checked division sites, fused-segment
 * audit, and per-FSM lockstep routability certificates. Two tapped
 * artifacts per design follow: the full design with every candidate
 * feature (what training records) and the trained slice with its
 * selected features (what a prediction runs); their feature taps are
 * audited too.
 *
 * Usage:
 *   example_verify_design [benchmark|all] [--json]
 *   example_verify_design sha
 *   example_verify_design all --json
 *
 * Exit status is 1 if any compiled design has an error-severity
 * finding, so the binary drops straight into CI.
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "accel/registry.hh"
#include "core/flow.hh"
#include "rtl/analysis.hh"
#include "rtl/compile.hh"
#include "rtl/report.hh"
#include "rtl/slicer.hh"
#include "rtl/verify.hh"
#include "util/logging.hh"
#include "workload/suite.hh"

using namespace predvfs;

namespace {

/**
 * Prints reports either as compiler-style text or as one JSON array
 * over every verified design (so `--json` output parses as a single
 * document even for `all`).
 */
class Printer
{
  public:
    explicit Printer(bool json) : json(json)
    {
        if (json)
            std::cout << "[\n";
    }

    ~Printer()
    {
        if (json)
            std::cout << "]\n";
    }

    void
    print(const rtl::Design &design, const rtl::VerifyReport &report)
    {
        if (!json) {
            rtl::writeVerifyReport(std::cout, design, report);
            return;
        }
        if (!first)
            std::cout << ",\n";
        first = false;
        rtl::writeVerifyReportJson(std::cout, design, report);
    }

  private:
    const bool json;
    bool first = true;
};

/** Compile and verify one design (with feature taps for @p features);
 *  returns its error count. */
std::size_t
verifyOne(const rtl::Design &design, Printer &out,
          const std::vector<rtl::FeatureSpec> &features = {})
{
    const rtl::CompiledDesign compiled(design, features);
    const rtl::VerifyReport report = rtl::verifyCompiledDesign(compiled);
    out.print(design, report);
    return report.numErrors();
}

/** Compile and verify a slice of a design; returns its error count. */
std::size_t
verifySliceOf(const rtl::Design &design, rtl::SliceOptions::Mode mode,
              Printer &out)
{
    const auto analysis = rtl::analyze(design);
    rtl::SliceOptions options;
    options.mode = mode;
    const rtl::SliceResult slice =
        rtl::makeSlice(design, analysis.features, options);
    return verifyOne(slice.design, out);
}

} // namespace

int
main(int argc, char **argv)
{
    util::setVerbose(false);

    std::string benchmark = "all";
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else
            benchmark = argv[i];
    }

    std::vector<std::string> targets;
    if (benchmark == "all") {
        targets = accel::benchmarkNames();
    } else {
        bool known = false;
        for (const auto &name : accel::benchmarkNames())
            known |= name == benchmark;
        if (!known) {
            std::cerr << "unknown benchmark '" << benchmark
                      << "'; choose 'all' or one of:";
            for (const auto &name : accel::benchmarkNames())
                std::cerr << " " << name;
            std::cerr << "\n";
            return 1;
        }
        targets.push_back(benchmark);
    }

    std::size_t errors = 0;
    {
        Printer out(json);
        for (const auto &name : targets) {
            const auto acc = accel::makeAccelerator(name);
            errors += verifyOne(acc->design(), out);
            errors += verifySliceOf(acc->design(),
                                    rtl::SliceOptions::Mode::Rtl, out);
            errors += verifySliceOf(acc->design(),
                                    rtl::SliceOptions::Mode::Hls, out);
            errors += verifyOne(acc->design(), out,
                                rtl::analyze(acc->design()).features);
            const core::FlowResult flow = core::buildPredictor(
                acc->design(), workload::makeWorkload(*acc).train);
            const rtl::SliceResult &trained = flow.predictor->slice();
            errors += verifyOne(trained.design, out, trained.features);
        }
    }

    if (!json)
        std::cout << (errors ? "VERIFY FAILED\n" : "VERIFY OK\n");
    return errors ? 1 : 0;
}
