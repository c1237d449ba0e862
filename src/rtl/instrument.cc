#include "rtl/instrument.hh"

#include <algorithm>

#include "util/logging.hh"

namespace predvfs {
namespace rtl {

using util::panicIf;

Instrumenter::Instrumenter(const Design &design,
                           std::vector<FeatureSpec> specs)
    : featureSpecs(std::move(specs))
{
    panicIf(!design.validated(), "Instrumenter: design not validated");

    stcTables.resize(design.fsms().size());
    for (std::size_t f = 0; f < design.fsms().size(); ++f) {
        StcTable &t = stcTables[f];
        t.offset = static_cast<std::uint32_t>(stcFlat.size());
        t.states =
            static_cast<std::uint32_t>(design.fsms()[f].states.size());
        stcFlat.resize(stcFlat.size() + t.states * t.states, -1);
    }
    counterIndex.resize(design.counters().size());
    accumulators.assign(featureSpecs.size(), 0.0);

    for (std::size_t i = 0; i < featureSpecs.size(); ++i) {
        const FeatureSpec &spec = featureSpecs[i];
        switch (spec.kind) {
          case FeatureKind::Stc: {
            panicIf(spec.fsm < 0 ||
                    static_cast<std::size_t>(spec.fsm) >=
                        stcTables.size(),
                    "STC feature '", spec.name, "': bad fsm ", spec.fsm);
            const StcTable &t = stcTables[spec.fsm];
            panicIf(spec.src < 0 ||
                    static_cast<std::uint32_t>(spec.src) >= t.states ||
                    spec.dst < 0 ||
                    static_cast<std::uint32_t>(spec.dst) >= t.states,
                    "STC feature '", spec.name, "': bad edge ",
                    spec.src, "->", spec.dst);
            std::int32_t &cell = stcFlat[
                t.offset +
                static_cast<std::uint32_t>(spec.src) * t.states +
                static_cast<std::uint32_t>(spec.dst)];
            panicIf(cell >= 0,
                    "duplicate STC feature '", spec.name, "'");
            cell = static_cast<std::int32_t>(i);
            break;
          }
          case FeatureKind::Ic:
          case FeatureKind::Siv:
          case FeatureKind::Spv: {
            panicIf(spec.counter < 0 ||
                    static_cast<std::size_t>(spec.counter) >=
                        counterIndex.size(),
                    "counter feature '", spec.name, "': bad counter ",
                    spec.counter);
            auto &slots = counterIndex[spec.counter];
            int &slot = spec.kind == FeatureKind::Ic ? slots.ic :
                spec.kind == FeatureKind::Siv ? slots.siv : slots.spv;
            panicIf(slot >= 0,
                    "duplicate counter feature '", spec.name, "'");
            slot = static_cast<int>(i);
            break;
          }
        }
    }
}

void
Instrumenter::reset()
{
    std::fill(accumulators.begin(), accumulators.end(), 0.0);
}

double
Instrumenter::areaUnits() const
{
    // A 24-bit accumulator register plus increment/add logic per
    // feature, comparable in cost to one of the design's counters.
    return 2.0 * 24.0 * static_cast<double>(featureSpecs.size());
}

void
Instrumenter::onTransition(FsmId fsm, StateId src, StateId dst)
{
    const int idx = stcFeature(fsm, src, dst);
    if (idx >= 0)
        accumulators[idx] += 1.0;
}

void
Instrumenter::onCounterArm(CounterId counter, std::int64_t init_value,
                           std::int64_t final_value)
{
    const CounterSlots &slots = counterIndex[counter];
    if (slots.ic >= 0)
        accumulators[slots.ic] += 1.0;
    if (slots.siv >= 0)
        accumulators[slots.siv] += static_cast<double>(init_value);
    if (slots.spv >= 0)
        accumulators[slots.spv] += static_cast<double>(final_value);
}

} // namespace rtl
} // namespace predvfs
