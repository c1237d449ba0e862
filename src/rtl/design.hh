/**
 * @file
 * The RTL intermediate representation of a hardware accelerator.
 *
 * A Design models exactly the structures the paper's flow consumes:
 *
 *  - a control unit made of one or more finite state machines whose
 *    transitions are guarded by expressions over the current work
 *    item's fields;
 *  - hardware counters that hold an FSM in a state for an
 *    input-dependent number of cycles (down-counters initialised to a
 *    range, or up-counters that run until a limit);
 *  - datapath blocks attached to states, which carry the area and
 *    energy of the "real work" but do not influence control flow;
 *  - "implicit latency" states whose duration varies with the input
 *    but is not observable through any counter. These are the
 *    unmodellable variance sources the paper blames for the JPEG
 *    decoder's higher prediction error.
 *
 * A job is a sequence of work items (e.g. macroblocks of a frame, MCUs
 * of an image, particles of a timestep). Per item, every FSM walks from
 * its initial state to a terminal state; FSMs run concurrently unless
 * ordered with startAfter().
 */

#ifndef PREDVFS_RTL_DESIGN_HH
#define PREDVFS_RTL_DESIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "rtl/expr.hh"

namespace predvfs {
namespace rtl {

using StateId = int;
using CounterId = int;
using FsmId = int;
using BlockId = int;

/**
 * One unit of input consumed by the accelerator (all-integer fields).
 * The fields sit inside the item: FieldVec holds six in place because
 * six is the widest field schema of any in-tree design (h264's), and
 * the server refuses items wider than their stream's design, so no
 * served item spills to the heap. A job's items vector is then its
 * only heap block: copying, freeing, or decoding a job of thousands of
 * items (djpeg and cjpeg send ~1,900) costs one allocation, not one
 * per item. A wider schema still works; its items each allocate.
 */
struct WorkItem
{
    FieldVec fields;
};

/**
 * Declared value bounds of one work-item field (inclusive). The lint
 * pass interprets guard/range/latency expressions over these intervals;
 * an undeclared field defaults to the full int64 range, which keeps the
 * analysis sound but proves little — declare bounds for precise lints.
 */
struct FieldBounds
{
    std::int64_t lo;
    std::int64_t hi;
};

/** The complete input of one job (one deadline-bearing invocation). */
struct JobInput
{
    std::vector<WorkItem> items;
};

/** Direction of a hardware counter. */
enum class CounterDir
{
    Down,  //!< Initialised to range, decremented to zero.
    Up     //!< Initialised to zero, incremented until it reaches range.
};

/**
 * A hardware counter. The range expression gives, per work item, the
 * number of cycles an FSM waits in the state that arms this counter.
 */
struct Counter
{
    std::string name;
    CounterDir dir = CounterDir::Down;
    ExprPtr range;     //!< Cycles to wait; clamped to >= 1 at run time.
    int bits = 16;     //!< Register width (area model).
};

/** How long an FSM dwells in a state. */
enum class LatencyKind
{
    Fixed,        //!< A constant number of cycles.
    CounterWait,  //!< Until the attached counter expires.
    Implicit      //!< Input-dependent, with no counter exposing it.
};

/** A guarded FSM edge; guards are tried in order, null guard = default. */
struct Transition
{
    ExprPtr guard;  //!< Null means "always taken" (the default edge).
    StateId dst = -1;
};

/**
 * One FSM state.
 *
 * A state marked essential() performs computation that produces the
 * work item's decoded fields (e.g. a bitstream parser). The slicer must
 * preserve its full latency; all other latency is elidable in a slice.
 */
struct State
{
    std::string name;
    LatencyKind kind = LatencyKind::Fixed;
    int fixedCycles = 1;          //!< For LatencyKind::Fixed.
    CounterId counter = -1;       //!< For LatencyKind::CounterWait.
    ExprPtr implicitLatency;      //!< For LatencyKind::Implicit.
    BlockId block = -1;           //!< Datapath block active here (-1 none).
    double dpOpsPerCycle = 0.0;   //!< Datapath activity while dwelling.
    bool essential = false;       //!< Latency must survive slicing.
    bool terminal = false;        //!< Item processing ends here.

    /**
     * Slicer-generated: the state still arms its counter (so the
     * instrumentation sees the init/pre-reset values) but dwells only
     * one cycle instead of waiting the counter out. This is the
     * paper's "remove empty waiting states" optimisation.
     */
    bool armOnly = false;

    /**
     * Slicer-generated (HLS mode): divide counter-wait dwell time by
     * this factor. The counter still records its full range, modelling
     * an HLS-rescheduled slice that computes the same feature values
     * in fewer cycles.
     */
    int waitScale = 1;

    /**
     * Work-item fields whose values are computed by this state's
     * datapath (e.g. a bitstream parser decoding the macroblock type).
     * A slice that consumes such a field must keep the producing FSM.
     */
    std::vector<FieldId> producesFields;

    std::vector<Transition> transitions;
};

/** A finite state machine inside the control unit. */
struct Fsm
{
    std::string name;
    std::vector<State> states;
    StateId initial = 0;
    FsmId startAfter = -1;  //!< Start once this FSM finished (-1: at once).
};

/** A datapath block: pure computation, no control influence. */
struct DatapathBlock
{
    std::string name;
    double areaWeight = 1.0;    //!< Relative area units.
    double energyWeight = 1.0;  //!< Energy per datapath op.

    /**
     * A shared memory (scratchpad) block: a slice that references it
     * accesses the accelerator's copy through time multiplexing
     * (paper Figure 5) instead of instantiating its own, so its area
     * is not charged to the slice.
     */
    bool shared = false;
};

/**
 * A full accelerator design.
 *
 * Build with the fluent builder methods, then call validate() once; the
 * interpreter and every analysis pass require a validated design.
 */
class Design
{
  public:
    explicit Design(std::string name);

    /** @name Builder interface */
    /// @{

    /** Declare a work-item field; returns its FieldId. */
    FieldId addField(const std::string &name);

    /**
     * Declare the inclusive value bounds of a field (lint hook). The
     * workload generator must honour them; the lint pass assumes them.
     */
    void setFieldRange(FieldId field, std::int64_t lo, std::int64_t hi);

    /** Declare a counter; returns its CounterId. */
    CounterId addCounter(const std::string &name, CounterDir dir,
                         ExprPtr range, int bits = 16);

    /** Declare a datapath block; returns its BlockId. */
    BlockId addBlock(const std::string &name, double area_weight,
                     double energy_weight, bool shared = false);

    /** Declare an FSM; returns its FsmId. States are added separately. */
    FsmId addFsm(const std::string &name, FsmId start_after = -1);

    /** Append a state to an FSM; returns its StateId. */
    StateId addState(FsmId fsm, State state);

    /** Append a transition (guard may be null for the default edge). */
    void addTransition(FsmId fsm, StateId src, ExprPtr guard, StateId dst);

    /** Set cycles charged once per job (DMA setup, drain, etc.). */
    void setPerJobOverheadCycles(std::uint64_t cycles);

    /** Control-logic energy units consumed per FSM-cycle. */
    void setControlEnergyPerCycle(double units);

    /**
     * Finish construction. Checks: every non-terminal state has a
     * default transition, targets are in range, counters referenced by
     * wait states exist, startAfter edges are acyclic, every state is
     * reachable, a terminal state is reachable from the initial state
     * of every FSM, and field/counter/FSM names (and state names within
     * an FSM) are unique so lookups and lint loci stay unambiguous.
     * panic()s on violation.
     */
    void validate();

    /// @}

    /** @name Read interface */
    /// @{
    const std::string &name() const { return designName; }
    const std::vector<std::string> &fieldNames() const { return fields; }

    /** Look up a field by name; panics if absent. */
    FieldId fieldIndex(const std::string &name) const;
    std::size_t numFields() const { return fields.size(); }

    /** Declared bounds per field (full int64 range if undeclared). */
    const std::vector<FieldBounds> &fieldBounds() const
    {
        return fieldLimits;
    }
    const std::vector<Counter> &counters() const { return counterDefs; }
    const std::vector<Fsm> &fsms() const { return fsmDefs; }
    const std::vector<DatapathBlock> &blocks() const { return blockDefs; }
    std::uint64_t perJobOverheadCycles() const { return jobOverhead; }
    double controlEnergyPerCycle() const { return ctrlEnergy; }
    bool validated() const { return isValidated; }

    /** Total number of states across all FSMs. */
    std::size_t totalStates() const;

    /** Total number of transitions across all FSMs. */
    std::size_t totalTransitions() const;

    /**
     * Structural area of the design in abstract units: control logic
     * (states, transitions, guard literals), counters (bits), and
     * datapath blocks. Scaled to um^2 by the accelerator wrapper.
     */
    double areaUnits() const;

    /** Area units of control logic + counters only (no datapath). */
    double controlAreaUnits() const;
    /// @}

  private:
    std::string designName;
    std::vector<std::string> fields;
    std::vector<FieldBounds> fieldLimits;
    std::vector<Counter> counterDefs;
    std::vector<Fsm> fsmDefs;
    std::vector<DatapathBlock> blockDefs;
    std::uint64_t jobOverhead = 0;
    double ctrlEnergy = 1.0;
    bool isValidated = false;
};

} // namespace rtl
} // namespace predvfs

#endif // PREDVFS_RTL_DESIGN_HH
