/**
 * @file
 * Instrumentation: the software model of the registers the paper's
 * flow adds to an accelerator's RTL (Section 3.3).
 *
 * An Instrumenter is constructed for a design and a feature list and
 * plugged into the reference tree walker (Interpreter::runReference)
 * as a Recorder. After a job runs, the feature vector can be read out,
 * exactly like reading the added registers after a job in real
 * hardware. The compiled path records the same features without a
 * Recorder: CompiledDesign lowers these updates into feature taps on
 * its tables (rtl/compile.hh), using the lookups below.
 */

#ifndef PREDVFS_RTL_INSTRUMENT_HH
#define PREDVFS_RTL_INSTRUMENT_HH

#include <cstdint>
#include <vector>

#include "rtl/analysis.hh"
#include "rtl/interpreter.hh"

namespace predvfs {
namespace rtl {

/**
 * Accumulates feature values while a job executes.
 *
 * reset() between jobs, exactly like the hardware clears its
 * instrumentation registers when a new job is accepted.
 */
class Instrumenter : public Recorder
{
  public:
    /**
     * @param design Design the features refer to (for validation).
     * @param specs  Features to record; order defines vector layout.
     */
    Instrumenter(const Design &design, std::vector<FeatureSpec> specs);

    /** Clear all accumulators (start of a new job). */
    void reset();

    /** @return current accumulator values, one per FeatureSpec. */
    const FeatureValues &values() const { return accumulators; }

    /** @return the features being recorded. */
    const std::vector<FeatureSpec> &specs() const { return featureSpecs; }

    /** @return number of features recorded. */
    std::size_t numFeatures() const { return featureSpecs.size(); }

    /**
     * Area of the added instrumentation registers in the same abstract
     * units as Design::areaUnits(): one 24-bit accumulator per feature
     * plus its update logic.
     */
    double areaUnits() const;

    /** Features one counter arm feeds (-1 where none). */
    struct CounterSlots
    {
        int ic = -1;
        int siv = -1;
        int spv = -1;
    };

    /** @return the feature a transition feeds, -1 if none. */
    int
    stcFeature(FsmId fsm, StateId src, StateId dst) const
    {
        const StcTable &t = stcTables[fsm];
        return stcFlat[t.offset +
                       static_cast<std::uint32_t>(src) * t.states +
                       static_cast<std::uint32_t>(dst)];
    }

    /** @return the features an arm of @p counter feeds. */
    const CounterSlots &
    counterFeatures(CounterId counter) const
    {
        return counterIndex[counter];
    }

    void onTransition(FsmId fsm, StateId src, StateId dst) override;
    void onCounterArm(CounterId counter, std::int64_t init_value,
                      std::int64_t final_value) override;

  private:
    std::vector<FeatureSpec> featureSpecs;
    FeatureValues accumulators;

    /**
     * Per-FSM dense (src, dst) -> feature-index table, -1 where no
     * feature watches the edge. onTransition() fires for every
     * transition of every item, so the lookup is a single array load
     * rather than a hash probe.
     */
    struct StcTable
    {
        std::uint32_t offset = 0;  //!< First entry in stcFlat.
        std::uint32_t states = 0;  //!< Row stride (states in the FSM).
    };
    std::vector<StcTable> stcTables;
    std::vector<std::int32_t> stcFlat;

    /** Per counter: which accumulators it feeds. */
    std::vector<CounterSlots> counterIndex;
};

} // namespace rtl
} // namespace predvfs

#endif // PREDVFS_RTL_INSTRUMENT_HH
