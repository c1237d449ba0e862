/**
 * @file
 * The all-events feature set shared by the tap tests: every event the
 * reference walker reports to a Recorder becomes a feature.
 */

#ifndef PREDVFS_TESTS_EVENT_FEATURES_HH
#define PREDVFS_TESTS_EVENT_FEATURES_HH

#include <set>
#include <utility>
#include <vector>

#include "rtl/analysis.hh"

namespace predvfs {
namespace test {

/**
 * Every distinct (src, dst) transition of every FSM as an STC feature,
 * plus IC, SIV and SPV on every counter (SIV of an up-counter and SPV
 * of a down-counter read 0, as on the reference walker).
 */
inline std::vector<rtl::FeatureSpec>
allEventFeatures(const rtl::Design &design)
{
    std::vector<rtl::FeatureSpec> out;
    for (std::size_t f = 0; f < design.fsms().size(); ++f) {
        const rtl::Fsm &fsm = design.fsms()[f];
        for (std::size_t s = 0; s < fsm.states.size(); ++s) {
            std::set<rtl::StateId> seen;
            for (const rtl::Transition &t : fsm.states[s].transitions) {
                if (!seen.insert(t.dst).second)
                    continue;
                rtl::FeatureSpec spec;
                spec.kind = rtl::FeatureKind::Stc;
                spec.fsm = static_cast<rtl::FsmId>(f);
                spec.src = static_cast<rtl::StateId>(s);
                spec.dst = t.dst;
                spec.name = "stc:" + fsm.name + "." + fsm.states[s].name +
                            "->" + fsm.states[t.dst].name;
                out.push_back(spec);
            }
        }
    }
    for (std::size_t c = 0; c < design.counters().size(); ++c) {
        for (const auto &[kind, tag] :
             {std::pair{rtl::FeatureKind::Ic, "ic:"},
              std::pair{rtl::FeatureKind::Siv, "siv:"},
              std::pair{rtl::FeatureKind::Spv, "spv:"}}) {
            rtl::FeatureSpec spec;
            spec.kind = kind;
            spec.counter = static_cast<rtl::CounterId>(c);
            spec.name = tag + design.counters()[c].name;
            out.push_back(spec);
        }
    }
    return out;
}

} // namespace test
} // namespace predvfs

#endif // PREDVFS_TESTS_EVENT_FEATURES_HH
