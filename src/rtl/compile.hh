/**
 * @file
 * Bytecode compilation of RTL expressions and designs.
 *
 * The tree walker in Expr::eval() chases shared_ptr children through
 * scattered heap nodes on every guard test, counter arm, and implicit
 * latency — per state visit, per work item, per job. This pass lowers
 * each expression once into a flat postfix program (a contiguous
 * vector of 8-byte instructions) evaluated by a small stack machine
 * with no allocation, no recursion, and no pointer chasing:
 *
 *  - constant subtrees fold to a single PushConst (the factory
 *    functions already fold; the compiler folds again defensively so
 *    pre-folding trees, e.g. deserialised ones, compile identically);
 *  - equal literals share one slot of the literal pool;
 *  - programs that reduce to a literal or a single field read skip the
 *    dispatch loop entirely.
 *
 * Evaluation is eager (no short-circuit): Expr::eval() is pure and
 * total — division by zero is defined by safeDiv()/safeMod() — so
 * evaluating an untaken Select arm or a short-circuited And/Or operand
 * cannot change the result, and the straight-line program needs no
 * branch instructions.
 *
 * A CompiledDesign lowers a whole validated Design: one program per
 * transition guard, counter range, and implicit latency, all sharing
 * one instruction pool, plus the FSM start-dependency order and
 * per-state energy rates precomputed at compile time. On top of the
 * flattened states it precomputes *segments*: maximal chains of states
 * whose successor is known at compile time (unguarded or
 * constant-guarded edges — and because guards are pure functions of an
 * item's immutable fields, a guarded edge that is not constant is the
 * only way a path can fork). Each visit in a chain becomes a slot:
 * either a fully static slot (dwell and energy addend precomputed,
 * exactly the product the reference walker would form) or a
 * dwell-dynamic slot (counter range / implicit latency program plus
 * its clamping metadata, evaluated inline). Executing a chain of k
 * states is then a linear sweep over k slots — no guard search, no
 * latency dispatch, no state-table walk. Only branch-dynamic states
 * (field-dependent guards) fall back to interpretation, and affine,
 * field-against-constant and shallow binary expressions are
 * specialised past the bytecode dispatch loop entirely (CExpr below).
 * run() is a drop-in replacement
 * for the tree-walking interpreter: same cycle counts and bit-identical
 * energy accumulation (the floating-point operation sequence is
 * preserved). It is const and reentrant — scratch space lives on the
 * run() stack — so one CompiledDesign can serve any number of threads.
 *
 * A CompiledDesign built with a feature list also carries *feature
 * taps*: the Instrumenter's STC/IC/SIV/SPV updates (rtl/instrument.hh)
 * lowered to data on the same tables. Each segment carries the merged
 * integer deltas of every transition and static counter arm its chain
 * makes; each compressed run closed by a dwell-dynamic counter slot
 * names the feature that slot's clamped range feeds; each transition
 * out of a branch-dynamic state names its STC feature. A tapped run()
 * takes the same compressed path as an untapped one and only counts —
 * segments entered, branch-dynamic edges taken, dynamic ranges summed
 * — then folds the counts into int64 sums once per job and reads them
 * out as the doubles an Instrumenter records on the reference walker.
 * Every operand is a non-negative integer, so the partial sums rise
 * monotonically; while the final sum stays below 2^53 every partial
 * sum of the Instrumenter's double additions is an exact integer and
 * the two agree bit for bit, in any order. The sums saturate at 2^53,
 * and a job that reaches it is recomputed on the reference walker with
 * an Instrumenter. Only that oracle (Interpreter::runReference) takes
 * a Recorder.
 */

#ifndef PREDVFS_RTL_COMPILE_HH
#define PREDVFS_RTL_COMPILE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtl/analysis.hh"
#include "rtl/interpreter.hh"
#include "util/logging.hh"

namespace predvfs {
namespace rtl {

/** Bytecode operations of the expression stack machine. */
enum class BOp : std::uint8_t
{
    PushConst,   //!< Push pool[arg].
    PushField,   //!< Push fields[arg].
    Add, Sub, Mul, Div, Mod,   //!< Pop b, a; push a op b (safeDiv/Mod).
    Min, Max,
    Eq, Ne, Lt, Le, Gt, Ge,    //!< Pop b, a; push 0/1.
    And, Or,                   //!< Pop b, a; push boolean combine.
    Not,                       //!< Pop a; push a == 0.
    Select,                    //!< Pop e, t, c; push c != 0 ? t : e.
};

/** One bytecode instruction; arg indexes the pool or the fields. */
struct BInstr
{
    BOp op;
    std::int32_t arg = 0;
};

/**
 * How one FSM was executed by a runBatch() call. Lane-items are
 * (lane, work-item) pairs: each counts once per FSM per item step, in
 * exactly one of the three buckets.
 */
struct BatchFsmStats
{
    bool lockstep = false;    //!< Statically routed (CTrace valid).
    bool speculated = false;  //!< Speculatively routed (CSpecTrace).
    std::uint64_t branchChecks = 0;  //!< Speculated guard evaluations.
    std::uint64_t mispredicts = 0;   //!< Checks that demoted the lane.
    std::uint64_t lockstepLaneItems = 0;  //!< Completed in lockstep.
    std::uint64_t demotedLaneItems = 0;   //!< Finished on the scalar
                                          //!< path after a mispredict.
    std::uint64_t scalarLaneItems = 0;    //!< Whole-item scalar walk.
};

/** Aggregated execution telemetry of one runBatch() call. */
struct BatchStats
{
    std::vector<BatchFsmStats> fsms;  //!< One entry per FSM.

    /** Mispredicted fraction of all speculated guard checks. */
    double
    mispredictRate() const
    {
        std::uint64_t checks = 0;
        std::uint64_t miss = 0;
        for (const BatchFsmStats &f : fsms) {
            checks += f.branchChecks;
            miss += f.mispredicts;
        }
        return checks == 0
            ? 0.0
            : static_cast<double>(miss) / static_cast<double>(checks);
    }
};

/**
 * Apply one binary bytecode op — semantics identical to the stack
 * machine's. Inline in the header so the specialised evaluators in
 * the hot per-visit paths compile down to the bare operation.
 */
[[gnu::always_inline]] inline std::int64_t
applyBOp(BOp op, std::int64_t a, std::int64_t b)
{
    switch (op) {
      case BOp::Add: return a + b;
      case BOp::Sub: return a - b;
      case BOp::Mul: return a * b;
      case BOp::Div: return safeDiv(a, b);
      case BOp::Mod: return safeMod(a, b);
      case BOp::Min: return a < b ? a : b;
      case BOp::Max: return a > b ? a : b;
      case BOp::Eq: return a == b ? 1 : 0;
      case BOp::Ne: return a != b ? 1 : 0;
      case BOp::Lt: return a < b ? 1 : 0;
      case BOp::Le: return a <= b ? 1 : 0;
      case BOp::Gt: return a > b ? 1 : 0;
      case BOp::Ge: return a >= b ? 1 : 0;
      case BOp::And: return (a != 0 && b != 0) ? 1 : 0;
      case BOp::Or: return (a != 0 || b != 0) ? 1 : 0;
      default:
        util::panic("applyBOp: not a binary op ",
                    static_cast<int>(op));
    }
    return 0;
}

/**
 * A self-contained compiled expression for tests and tools: owns its
 * code and allocates scratch per eval() call. The hot path inside
 * CompiledDesign shares pools across all of a design's programs
 * instead — use that for anything performance-sensitive.
 */
class ExprProgram
{
  public:
    explicit ExprProgram(const ExprPtr &tree);

    /** Evaluate against a work item's field values (like Expr::eval). */
    std::int64_t eval(const FieldVec &fields) const;

    /** @return instruction count (0 for const/field-specialised). */
    std::size_t codeLength() const { return code.size(); }

  private:
    std::vector<BInstr> code;
    std::vector<std::int64_t> pool;
    std::uint32_t stackNeeded = 0;
    FieldId maxField = -1;  //!< Highest field the program reads.
    // Specialisations: kind 0 = program, 1 = constant, 2 = field.
    int kind = 0;
    std::int64_t imm = 0;
    FieldId fieldRef = -1;
};

// Translation validation (rtl/verify.hh). The validator and the
// mutation harness inspect/corrupt the private compiled tables, so the
// compiler grants them friendship instead of exposing the internals.
class CompiledDesign;
struct VerifyReport;
enum class Miscompile;
class Verifier;
VerifyReport verifyCompiledDesign(const CompiledDesign &comp);
std::string injectMiscompile(CompiledDesign &comp, Miscompile kind,
                             unsigned seed);

/**
 * A whole Design lowered to bytecode. Construction compiles every
 * guard, counter range, and implicit latency, computes the FSM
 * topological order, precomputes per-state energy rates, and lowers
 * the feature list to taps; the result is immutable and safe to share
 * between interpreters, engines, and threads. The referenced Design
 * must outlive the CompiledDesign.
 */
class CompiledDesign
{
  public:
    /**
     * @param design   Must be validated; panics otherwise.
     * @param features Features run() can read out; validated like an
     *                 Instrumenter's (panics on a bad or duplicate
     *                 spec).
     */
    explicit CompiledDesign(const Design &design,
                            std::vector<FeatureSpec> features = {});

    /** @return the design this was compiled from. */
    const Design &design() const { return *src; }

    /** FSMs topologically sorted by startAfter (compiled once). */
    const std::vector<FsmId> &topoOrder() const { return order; }

    /**
     * Feature sums saturate at 2^53; a job whose sum reaches it reads
     * its features from the reference walker instead.
     */
    static constexpr std::int64_t kExactLimit = std::int64_t{1} << 53;

    /** Features the taps record, in readout order. */
    const std::vector<FeatureSpec> &features() const { return taps.specs; }

    /**
     * Execute one job — the drop-in replacement for the tree walker
     * (Interpreter::runReference) with identical results. With
     * @p features, also read out one value per features() entry: the
     * same doubles an Instrumenter records on the tree walker.
     */
    JobResult run(const JobInput &job, FeatureValues *features = nullptr,
                  std::vector<std::uint64_t> *item_cycles = nullptr) const;

    /**
     * Execute @p n jobs in lockstep — the batched counterpart of run()
     * (without feature readout) with bit-identical results per job.
     *
     * Jobs are lanes: at item step t, every lane still holding an
     * item marches through the design together. FSMs whose whole walk
     * is statically routed (every segment chain closed, no
     * field-dependent branching — all seven benchmark accelerators)
     * execute as structure-of-arrays sweeps: the item fields of all
     * active lanes are transposed into field-major storage, static
     * dwell is added once per trace, the dense energy addends stream
     * over the lanes, and each dwell-dynamic program evaluates over
     * the whole lane vector in branch-free inner loops. Lanes never
     * share accumulators, and each lane's energy additions happen in
     * exactly run()'s order (item-major, FSM topo order, visit
     * order), so the floating-point results match run() bit for bit —
     * grouping jobs into different batches cannot change any result.
     * Branch-dynamic FSMs that speculate() routed (see below) run in
     * *speculative* lockstep: all lanes march under the predicted
     * branch outcome, and a lane whose guard disagrees is demoted to
     * the scalar walk from its actual successor — the prefix it
     * already executed is byte-identical to the scalar path's, so
     * demotion never reruns or corrects anything. Unrouted
     * branch-dynamic FSMs fall back to the whole-item scalar walk.
     *
     * @param stats Optional per-FSM execution telemetry (routing,
     *        mispredicts, lane occupancy).
     */
    void runBatch(const JobInput *const *jobs, std::size_t n,
                  JobResult *out, BatchStats *stats = nullptr) const;

    /** Convenience overload of the lockstep entry point. */
    std::vector<JobResult>
    runBatch(const std::vector<const JobInput *> &jobs) const;

    /**
     * Build speculative lockstep routes for branch-dynamic FSMs.
     *
     * Profiles @p jobs (one tapped pass — typically a slice of the
     * training stream) to find the hot successor of every two-way
     * branch-dynamic state head, then precomputes, per FSM, the walk
     * the design takes when every such branch goes the predicted way.
     * runBatch() marches all lanes in lockstep under those
     * predictions; only mispredicted lanes pay the scalar path.
     *
     * Speculation is a pure execution-strategy choice: results are
     * bit-identical with any (or no) prediction, and the translation
     * validator re-audits the artifact after the tables are built.
     * With n == 0 every speculable branch predicts its first guarded
     * edge. Not thread-safe against concurrent run()/runBatch() calls
     * — speculate before sharing the design across threads.
     */
    void speculate(const JobInput *const *jobs, std::size_t n);

    /** Convenience overload over a job vector. */
    void speculate(const std::vector<JobInput> &jobs);

    /** FSMs routed speculatively (disjoint from numLockstepFsms()). */
    std::size_t numSpeculatedFsms() const;

    /** @return true if the batch kernel speculates @p id. */
    bool
    fsmSpeculated(FsmId id) const
    {
        return specTraces[static_cast<std::size_t>(id)].valid;
    }

    /**
     * Flip every branch prediction and rebuild the speculative routes
     * (test hook: adversarial worst-case speculation must still be
     * bit-exact, just slower).
     */
    void invertSpeculation();

    /** @name Introspection (tests, reports) */
    /// @{
    /** Total compiled programs (guards + ranges + latencies). */
    std::size_t numPrograms() const { return programs.size(); }

    /** Total bytecode instructions across all programs. */
    std::size_t codeSize() const { return code.size(); }

    /** Programs specialised to a literal or single field read. */
    std::size_t numSpecialised() const;

    /** FSMs whose full walk is statically routed — the ones the
     *  lockstep batch kernel executes as SoA sweeps. */
    std::size_t numLockstepFsms() const;

    /** @return true if the batch kernel routes @p id in lockstep.
     *  The verifier's routability certificates cross-check this. */
    bool fsmLockstep(FsmId id) const
    {
        return traces[static_cast<std::size_t>(id)].valid;
    }

    /**
     * Compiled root expressions: one (source tree, program index) per
     * guard, counter range, and implicit latency, in compile order.
     * The program evaluates to exactly what the tree does for every
     * field vector — the differential tests and the perf harness
     * iterate this list.
     */
    const std::vector<std::pair<ExprPtr, std::int32_t>> &
    rootExprs() const
    {
        return roots;
    }

    /** Scratch slots evalProgram() needs (allocate once, reuse). */
    std::size_t scratchSize() const { return maxStack; }

    /**
     * Evaluate one compiled program against a field vector. @p scratch
     * must hold at least scratchSize() elements (may be null when
     * scratchSize() is zero, i.e. every program is specialised).
     */
    std::int64_t
    evalProgram(std::size_t idx, const std::int64_t *fields,
                std::int64_t *scratch) const
    {
        const CExpr &e = programs[idx];
        if (e.kind <= CExpr::Kind::BinFC)
            return evalLeaf(e, fields);
        return evalExpr(e, fields, scratch);
    }
    /// @}

  private:
    // Translation validation (rtl/verify.cc) audits the private
    // tables; the mutation harness corrupts them in place.
    friend class Verifier;
    friend VerifyReport verifyCompiledDesign(const CompiledDesign &comp);
    friend std::string injectMiscompile(CompiledDesign &comp,
                                        Miscompile kind, unsigned seed);

    /**
     * A compiled expression: a typed node in a flat DAG. Design
     * expressions are small (affine cost models, select-based mode
     * tables, threshold guards), so instead of running them through
     * the generic bytecode dispatch loop, the design compiler lowers
     * each one to nodes the evaluator handles with straight-line code:
     * affine forms become a constant plus (coefficient, field) pairs,
     * a field against a constant becomes a direct computation, and any
     * other binary of at most five tree nodes recurses through child
     * node indices. Everything else — deep arithmetic, Not, selects the
     * affine fold cannot absorb — runs as a bytecode program. These
     * are the shapes the benchmark designs and their slices produce.
     */
    struct CExpr
    {
        enum class Kind : std::uint8_t
        {
            Const,      //!< imm.
            Field,      //!< fields[field].
            Affine,     //!< imm + sum of affinePool[first..] terms.
            BinFC,      //!< fields[field] op imm.
            Bin2,       //!< eval(a) op eval(b).
            Program,    //!< Full bytecode program.
        };
        Kind kind = Kind::Const;
        BOp op = BOp::Add;        //!< Binary specialisations.
        FieldId field = -1;
        std::int64_t imm = 0;
        std::int32_t a = -1;      //!< Bin2 child node indices.
        std::int32_t b = -1;
        std::uint32_t first = 0;  //!< Code pool offset / affine pool.
        std::uint32_t count = 0;  //!< Instruction / term count.
    };

    /**
     * One term of an affine expression. Design cost models are sums
     * of scaled fields and mode-dependent constants, so a term is
     * either linear or a constant-armed conditional; folding the
     * conditionals into the sum keeps whole dwell expressions in one
     * Affine node (adds commute mod 2^64, so reassociating the sum
     * preserves the tree walker's value exactly).
     */
    struct CTerm
    {
        enum class Kind : std::uint8_t
        {
            Linear,   //!< a * fields[field].
            Cond,     //!< fields[field] != 0 ? a : b.
            CondCmp,  //!< (fields[field] cmp z) ? a : b.
        };
        std::int64_t a = 0;
        std::int64_t b = 0;
        std::int64_t z = 0;       //!< CondCmp comparison operand.
        FieldId field = -1;
        BOp cmp = BOp::Eq;        //!< CondCmp comparison.
        Kind kind = Kind::Linear;
    };

    /** One FSM transition with its compiled guard (-1 = default). */
    struct CTransition
    {
        std::int32_t guard = -1;  //!< Index into programs.
        StateId dst = -1;
    };

    /** One FSM state, flattened for cache locality. */
    struct CState
    {
        LatencyKind kind = LatencyKind::Fixed;
        bool armOnly = false;
        bool terminal = false;
        CounterDir counterDir = CounterDir::Down;
        CounterId counter = -1;
        std::int32_t prog = -1;     //!< Range / implicit latency.
        std::int32_t waitScale = 1;
        std::uint64_t fixedDwell = 1;
        double energyPerCycle = 0.0;
        std::uint32_t firstTrans = 0;
        std::uint32_t numTrans = 0;
    };

    /** One FSM: a contiguous slice of the flattened state table. */
    struct CFsm
    {
        std::uint32_t firstState = 0;
        std::uint32_t numStates = 0;
        StateId initial = 0;
        FsmId startAfter = -1;
    };

    /**
     * One visit inside a precompiled chain. Static slots (prog < 0)
     * carry their dwell and the exact energy addend the reference
     * walker would compute on this visit; dwell-dynamic slots carry
     * the latency/range program with its clamping metadata and the
     * state's energy rate. The visit's transition and static arm
     * operands are kept so the feature taps (and the validator) can
     * derive the events the reference walker reports.
     */
    struct CSlot
    {
        std::int32_t prog = -1;     //!< -1: dwell precomputed.
        CounterId counter = -1;     //!< >= 0: counter-wait state.
        bool armOnly = false;
        bool down = false;          //!< Counter direction.
        std::int32_t waitScale = 1;
        StateId src = -1;           //!< This visit's state.
        StateId dst = -1;           //!< Taken edge; -1 = terminal.
        std::uint64_t cycles = 0;   //!< Static dwell.
        double energy = 0.0;        //!< Addend (static) or rate (dyn).
        std::int64_t armInit = 0;   //!< Static arm event operands.
        std::int64_t armFinal = 0;
    };

    /**
     * A maximal stretch of consecutive *static* slots in a chain,
     * compressed for execution: the dwell total is
     * precomputed and the per-visit energy addends live contiguously
     * in `addendPool` (same values, same order as the slot walk, so
     * summing them one by one stays bit-exact). `dynSlot`, when >= 0,
     * names the dwell-dynamic slot executed after the stretch.
     */
    struct CRun
    {
        std::uint64_t cycles = 0;
        std::uint32_t firstAdd = 0;
        std::uint32_t numAdds = 0;
        std::int32_t dynSlot = -1;
        //! Tap: the feature the dynamic slot's clamped range feeds (SIV
        //! of a down-counter, SPV of an up-counter), -1 if none.
        std::int32_t dynTap = -1;
    };

    /**
     * The precompiled chain starting at one state: a slice of the slot
     * pool plus the state where interpretation resumes (-1: the chain
     * ends in a terminal state). `numSlots == 0` marks a branch-dynamic
     * head whose successor depends on the item's fields. The run slice
     * is the compressed form of the same chain that run() and
     * runBatch() execute.
     */
    struct CSegment
    {
        std::uint32_t firstSlot = 0;
        std::uint32_t numSlots = 0;
        std::uint32_t firstRun = 0;
        std::uint32_t numRuns = 0;
        StateId next = -1;
    };

    /**
     * Evaluate a flat (non-recursive) node. Defined in-class so every
     * per-visit call site inlines down to the bare loads and ops; the
     * caller guarantees `e.kind <= Kind::BinFC`.
     */
    [[gnu::always_inline]] std::int64_t
    evalLeaf(const CExpr &e, const std::int64_t *fields) const
    {
        switch (e.kind) {
          case CExpr::Kind::Const:
            return e.imm;
          case CExpr::Kind::Field:
            return fields[e.field];
          case CExpr::Kind::Affine: {
            std::int64_t v = e.imm;
            const CTerm *t = affinePool.data() + e.first;
            for (std::uint32_t i = 0; i < e.count; ++i) {
                const CTerm &m = t[i];
                switch (m.kind) {
                  case CTerm::Kind::Linear:
                    v += m.a * fields[m.field];
                    break;
                  case CTerm::Kind::Cond:
                    v += fields[m.field] != 0 ? m.a : m.b;
                    break;
                  case CTerm::Kind::CondCmp:
                    v += applyBOp(m.cmp, fields[m.field], m.z) != 0
                        ? m.a : m.b;
                    break;
                }
            }
            return v;
          }
          default:  // BinFC; callers never pass recursive kinds.
            return applyBOp(e.op, fields[e.field], e.imm);
        }
    }

    std::int64_t evalExpr(const CExpr &e, const std::int64_t *fields,
                          std::int64_t *stack) const;

    /**
     * The statically-routed walk of one FSM, when it exists: the
     * global state indices of the segments every item visits, in
     * order, plus the sum of all their static-run dwell (integer adds
     * commute, so the batch kernel adds it once per lane). An FSM
     * with a field-dependent branch or a statically-closed loop is
     * not traceable and uses the scalar fallback.
     */
    struct CTrace
    {
        std::uint32_t first = 0;        //!< Index into traceStates.
        std::uint32_t count = 0;
        std::uint64_t staticCycles = 0;
        bool valid = false;
    };

    /**
     * One step of a speculative route. A sweep node executes the
     * precompiled segment chain headed at global state `g` exactly as
     * the lockstep kernel would (presummed static dwell in `cycles`,
     * addends streamed in visit order); a branch node executes the
     * branch-dynamic state `g` itself, evaluates its decision guard
     * over all lanes, and demotes the lanes whose outcome differs
     * from `predictTaken`.
     */
    struct CSpecNode
    {
        std::uint32_t g = 0;        //!< Global state index.
        bool branch = false;
        bool predictTaken = false;  //!< Branch: predicted outcome.
        std::int32_t guard = -1;    //!< Branch: decision guard program.
        StateId takenDst = -1;      //!< Branch: dst when guard != 0.
        StateId notDst = -1;        //!< Branch: dst when guard == 0.
        std::uint64_t cycles = 0;   //!< Sweep: presummed static dwell.
    };

    /**
     * The speculative route of one FSM: the node walk the design
     * takes when every speculated branch goes the predicted way.
     * Valid only for FSMs with at least one speculable branch and no
     * statically-undecidable structure on the predicted path; FSMs
     * with a valid CTrace never speculate (lockstep is strictly
     * better).
     */
    struct CSpecTrace
    {
        std::uint32_t first = 0;  //!< Index into specNodes.
        std::uint32_t count = 0;
        bool valid = false;
    };

    /** One integer feature update: acc[feature] += delta. */
    struct CTap
    {
        std::int64_t delta = 0;
        std::int32_t feature = -1;
    };

    /** Features a branch-dynamic counter-wait state's arm feeds. */
    struct CArmTap
    {
        std::int32_t ic = -1;     //!< += 1 per visit (= edges taken).
        std::int32_t value = -1;  //!< += clamped range (SIV of a down-
                                  //!< counter, SPV of an up-counter).
    };

    /**
     * The feature taps of the construction-time feature list (see the
     * file comment), next to CRun::dynTap. Built from the slots and
     * transitions at construction, never serialised. A segment's slots
     * always execute together, so its static deltas are merged per
     * feature into one span of `pool`.
     */
    struct CTaps
    {
        std::vector<FeatureSpec> specs;
        //! Per segment g: pool[segFirst[g], segFirst[g + 1]).
        std::vector<std::uint32_t> segFirst;
        std::vector<CTap> pool;
        //! Per state: a branch-dynamic counter-wait state's arm taps.
        std::vector<CArmTap> stateArm;
        //! Per transition: the STC feature a branch-dynamic edge feeds.
        std::vector<std::int32_t> trans;
    };

    /**
     * A tapped run's per-job counters. The hot loops only count: each
     * segment entered, each branch-dynamic edge taken, and the sums of
     * dynamic counter ranges a feature records; runJob() folds the
     * counts into the features once per job.
     */
    struct TapCounts
    {
        std::int64_t *values;      //!< Per feature: dynamic range sums.
        std::int64_t *segVisits;   //!< Per state: segment entries.
        std::int64_t *edgeVisits;  //!< Per transition: edges taken.
    };

    /** Lower @p specs to `taps` and CRun::dynTap. */
    void buildTaps(std::vector<FeatureSpec> specs);

    bool staticDwell(const CState &st, std::uint64_t &dwell,
                     std::int64_t &range) const;
    StateId staticNext(const CState &st) const;
    void buildSegments();
    void buildTraces();

    /**
     * Classify global state @p g as a speculable two-way branch head:
     * after skipping constant-false guards, exactly one non-constant
     * decision guard whose failure statically resolves to a single
     * fallback edge. Outputs the decision guard's program index and
     * both destinations.
     */
    bool deriveDecision(std::uint32_t g, std::int32_t &guard,
                        StateId &taken_dst, StateId &not_dst) const;

    /** Rebuild every CSpecTrace from the current specPredict table. */
    void buildSpecTraces();

    /**
     * Execute one FSM for one item, starting at local state @p start
     * (fsm.initial for a full walk; a mispredicted branch's actual
     * successor when the batch kernel demotes a lane). Compiled once
     * per tap presence: the `Tapped == false` instantiation carries no
     * tap code at all in the per-visit loops; the tapped one counts
     * into @p tc. The tapped walk is inlined into runJob()'s item loop
     * (called out of line it read 7-9% slower than the untapped walk
     * with its counting compiled out); the untapped walk is runFsm(),
     * out of line as before, which the batch kernel's scalar lanes
     * call too.
     */
    template <bool Tapped>
    std::uint64_t walkFsm(FsmId id, StateId start,
                          const std::int64_t *fields, double &energy_units,
                          std::int64_t *stack, const TapCounts *tc) const;

    /** walkFsm<false>() out of line, for runBatch(). */
    std::uint64_t runFsm(FsmId id, StateId start,
                         const std::int64_t *fields, double &energy_units,
                         std::int64_t *stack) const;

    /**
     * run(), tapped or not. A tapped run reads the features out into
     * @p features and, when @p edge_totals is given, adds its per-
     * transition edge counts to it (speculate()'s profile).
     */
    template <bool Tapped>
    JobResult runJob(const JobInput &job,
                     std::vector<std::uint64_t> *item_cycles,
                     FeatureValues *features,
                     std::vector<std::uint64_t> *edge_totals) const;

    /** Fold a tapped run of @p job's counts into @p out, falling back
     *  to the reference walker at the exactness limit. */
    void readFeatures(const JobInput &job, const TapCounts &tc,
                      FeatureValues &out) const;

    const Design *src;
    std::vector<FsmId> order;
    std::vector<CFsm> cfsms;
    std::vector<CState> states;
    std::vector<CTransition> trans;
    std::vector<CSegment> segs;        //!< One per state (global index).
    std::vector<CSlot> slots;          //!< Shared slot pool.
    std::vector<CTrace> traces;        //!< One per FSM.
    std::vector<std::uint32_t> traceStates;  //!< Shared trace pool.
    std::vector<CSpecTrace> specTraces;      //!< One per FSM.
    std::vector<CSpecNode> specNodes;        //!< Shared spec-node pool.
    //! Per global state: predicted decision outcome (1 = taken edge).
    std::vector<std::uint8_t> specPredict;
    std::vector<CRun> runs;            //!< Compressed static stretches.
    std::vector<double> addendPool;    //!< Energy addends, visit order.
    std::vector<CExpr> programs;
    std::vector<CTerm> affinePool;     //!< Terms of Affine nodes.
    std::vector<BInstr> code;          //!< Shared instruction pool.
    std::vector<std::int64_t> pool;    //!< Shared literal pool.
    //! Top-level (tree, program) pairs, in compile order.
    std::vector<std::pair<ExprPtr, std::int32_t>> roots;
    std::uint32_t maxStack = 0;
    FieldId maxFieldRead = -1;
    std::uint64_t jobOverhead = 0;
    double ctrlEnergy = 0.0;
    CTaps taps;
};

} // namespace rtl
} // namespace predvfs

#endif // PREDVFS_RTL_COMPILE_HH
