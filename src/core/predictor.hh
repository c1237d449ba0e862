/**
 * @file
 * The runtime execution-time predictor: a hardware slice plus a linear
 * model over the features the slice computes (paper Figure 6, online
 * part). Running the slice on a job's input yields the feature vector;
 * one dot product yields the predicted cycle count of the full
 * accelerator at nominal frequency.
 */

#ifndef PREDVFS_CORE_PREDICTOR_HH
#define PREDVFS_CORE_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "opt/matrix.hh"
#include "rtl/interpreter.hh"
#include "rtl/slicer.hh"

namespace predvfs {
namespace core {

/** Everything a slice run produces for one job. */
struct SliceRun
{
    std::uint64_t sliceCycles = 0;   //!< Slice latency (its own clock).
    double sliceEnergyUnits = 0.0;   //!< Slice activity units.
    double predictedCycles = 0.0;    //!< Predicted full-design cycles.
};

/**
 * A trained slice-based predictor.
 *
 * Immutable once constructed by the PredictorFlow; safe to share
 * between controllers.
 */
class SlicePredictor
{
  public:
    /**
     * @param slice     Slicer output (design + rebased features).
     * @param beta      Raw-space coefficients, aligned with
     *                  slice.features.
     * @param intercept Raw-space intercept.
     */
    SlicePredictor(rtl::SliceResult slice, opt::Vector beta,
                   double intercept);

    /**
     * Run the slice on a job's input and predict execution time. The
     * features come from the slice's compiled feature taps; const and
     * reentrant, so any number of threads may share one predictor.
     */
    SliceRun run(const rtl::JobInput &job) const;

    /** Predict from an already-recorded feature vector. */
    double predictCycles(const rtl::FeatureValues &values) const;

    /** @return the slice design (for area/energy reporting). */
    const rtl::SliceResult &slice() const { return sliceResult; }

    /** @return the model coefficients. */
    const opt::Vector &coefficients() const { return betaRaw; }

    /** @return the model intercept. */
    double intercept() const { return interceptRaw; }

    /** @return number of features the slice computes. */
    std::size_t numFeatures() const { return betaRaw.size(); }

    /**
     * Content fingerprint of the predictor: slice design text,
     * coefficients, and intercept. Computed once at construction (the
     * object is immutable) so per-prepare consumers — the job cache's
     * stream keys — never re-serialise the slice design.
     */
    std::uint64_t fingerprint() const { return contentFp; }

  private:
    rtl::SliceResult sliceResult;
    opt::Vector betaRaw;
    double interceptRaw;
    std::uint64_t contentFp;
    rtl::Interpreter sliceInterp;  //!< Tapped with slice features.
};

} // namespace core
} // namespace predvfs

#endif // PREDVFS_CORE_PREDICTOR_HH
