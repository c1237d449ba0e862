/**
 * @file
 * Static analysis of a Design: discovers the FSMs and counters that can
 * source prediction features (paper Section 3.3) and enumerates the
 * feature set of Table 1:
 *
 *  - STC: one feature per distinct (source, destination) state pair of
 *    every FSM;
 *  - IC:  one feature per counter (number of times it is armed);
 *  - SIV: per down-counter, the running sum of initial values (the
 *    model recovers the paper's "average initial value" by combining
 *    SIV with IC — as the paper notes, recording the sum suffices);
 *  - SPV: per up-counter, the running sum of pre-reset values.
 *
 * The pass also reports the structures the feature set *cannot* model:
 * implicit-latency states, i.e. states that dwell for an
 * input-dependent time not exposed by any counter. These are the cause
 * of the JPEG decoder's wider error distribution in the paper's
 * Figure 10.
 */

#ifndef PREDVFS_RTL_ANALYSIS_HH
#define PREDVFS_RTL_ANALYSIS_HH

#include <string>
#include <vector>

#include "rtl/design.hh"

namespace predvfs {
namespace rtl {

/** Classes of features extractable from the control unit. */
enum class FeatureKind
{
    Stc,  //!< State transition count for one (src, dst) pair.
    Ic,   //!< Initialisation count of one counter.
    Siv,  //!< Sum of initial values of one down-counter.
    Spv   //!< Sum of pre-reset values of one up-counter.
};

/** @return a short mnemonic for a feature kind ("STC", "IC", ...). */
const char *featureKindName(FeatureKind kind);

/** Identity of one extractable feature. */
struct FeatureSpec
{
    FeatureKind kind = FeatureKind::Stc;
    FsmId fsm = -1;          //!< For Stc.
    StateId src = -1;        //!< For Stc.
    StateId dst = -1;        //!< For Stc.
    CounterId counter = -1;  //!< For Ic/Siv/Spv.
    std::string name;        //!< Human-readable, e.g. "stc:parser.S1->S2".

    bool operator==(const FeatureSpec &other) const;
};

/** A job's feature readout, indexed like the FeatureSpec list. */
using FeatureValues = std::vector<double>;

/** A state whose latency varies with input but has no counter. */
struct ImplicitStateInfo
{
    FsmId fsm = -1;
    StateId state = -1;
    std::string name;
};

/** Everything the static analysis learns about a design. */
struct AnalysisReport
{
    std::vector<FeatureSpec> features;
    std::vector<ImplicitStateInfo> implicitStates;
    std::size_t numFsms = 0;
    std::size_t numCounters = 0;
    std::size_t numStates = 0;
    std::size_t numTransitions = 0;

    /** @return features.size(). */
    std::size_t numFeatures() const { return features.size(); }
};

/**
 * Run the discovery pass over a validated design.
 *
 * Deterministic: feature order depends only on the design's structure
 * (FSM index, then state indices; counters after all FSMs).
 */
AnalysisReport analyze(const Design &design);

} // namespace rtl
} // namespace predvfs

#endif // PREDVFS_RTL_ANALYSIS_HH
