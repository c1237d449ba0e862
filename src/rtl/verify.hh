/**
 * @file
 * predvfs-verify: translation validation for compiled designs.
 *
 * The bytecode compiler (rtl/compile) promises that every compiled
 * artifact evaluates to exactly what the source Design's expression
 * trees do, that the fused segment/slot chains reproduce the reference
 * walker's cycle counts and floating-point energy addends, and that
 * the lockstep batch kernel's routing matches the FSM structure. Until
 * now those promises were checked by randomized differential testing
 * only. This pass proves them statically, per build, with zero
 * reliance on concrete job execution:
 *
 *  1. Symbolic equivalence — every compiled root (Const/Field/Affine
 *     merged terms, BinFC leaves, Bin2 composites, and postfix
 *     bytecode) is re-lifted into a canonical polynomial normal form
 *     over hash-consed atoms (wrapping mod-2^64 arithmetic modeled
 *     exactly; Select rewritten as e + (t - e) * [cond]) and compared
 *     against the normalized source tree. When the canonical forms
 *     differ, the checker falls back to exact enumeration over the
 *     consumed fields' declared domain (the same <= 4096-point budget
 *     the lint enumerator uses); only a proof — canonical or
 *     exhaustive — passes.
 *
 *  2. Bytecode well-formedness — abstract stack-depth and operand
 *     verification of every postfix program (no underflow, exactly one
 *     result, the declared stack budget respected, every operand
 *     index in range), with interval analysis (rtl/interval)
 *     propagated through the stack slots to prove
 *     division-by-zero-freedom or pin the guarded-div sites.
 *
 *  3. Fused-segment audit — the per-state dwell, clamping, energy
 *     rate, presummed run cycles, and dense energy-addend slices of
 *     every segment chain are re-derived independently from the source
 *     Design and compared field by field: cycles integer-exact, FP
 *     addends as ordered sequences so visit-order replay is preserved.
 *
 *  4. Lockstep routability certificates — every FSM is statically
 *     classified as static-routed or branch-dynamic with a per-FSM
 *     reason (which state, which guard, which fields), and the batch
 *     kernel's routing decision (CompiledDesign::fsmLockstep) is
 *     cross-checked against the certificate.
 *
 *  5. Speculation audit — every speculative lockstep route is
 *     re-walked against the source design: each branch node's decision
 *     guard, taken edge, and fallback edge are re-derived from the
 *     source transition relation, each sweep node's presummed cycles
 *     are re-derived from the source segment walk, the predicted
 *     successor linkage is checked node by node, and the fallback path
 *     out of every speculated branch is proven to land on a real
 *     source edge — so a mispredicted lane's demotion to the scalar
 *     walk is equivalent to never having speculated at all.
 *
 * Verification runs automatically at CompiledDesign construction,
 * controlled by PREDVFS_VERIFY: unset or "1" panics on a failed proof
 * (a miscompile is an internal invariant violation), "warn" reports
 * and continues, "0" disables the hook. buildPredictor additionally
 * refuses designs whose compiled form fails validation regardless of
 * the knob, mirroring its lint refusal.
 */

#ifndef PREDVFS_RTL_VERIFY_HH
#define PREDVFS_RTL_VERIFY_HH

#include <cstddef>
#include <string>
#include <vector>

#include "rtl/compile.hh"

namespace predvfs {
namespace rtl {

/** How bad a finding is. Errors mean the compiled form is refused. */
enum class VerifySeverity
{
    Warning,  //!< Suspicious; the artifact is still accepted.
    Error     //!< The compiled form is not proven faithful.
};

/** Stable identifiers for every diagnostic the validator can emit. */
enum class VerifyCode
{
    NotEquivalent,        //!< Compiled root provably differs from tree.
    EquivalenceUnproven,  //!< Neither canonical nor exhaustive proof.
    StackUnderflow,       //!< Bytecode pops an empty stack.
    ResultCountMismatch,  //!< Program does not leave exactly one value.
    StackBudgetExceeded,  //!< Depth exceeds the declared maxStack.
    BadOperand,           //!< Pool/field index out of range.
    BadOpcode,            //!< Instruction byte is not a valid BOp.
    DivByZeroDefinite,    //!< A divisor interval is exactly {0}.
    SegmentCycleMismatch, //!< Presummed cycles differ from the source.
    SegmentEnergyMismatch,//!< Addend/rate differs from the source.
    SegmentRouteMismatch, //!< Slot chain routing differs from source.
    StructureMismatch,    //!< Flattened tables differ from the source.
    LockstepCertMismatch, //!< Batch routing contradicts the certificate.
    SpeculationMismatch,  //!< Speculative route contradicts the source.
};

/** @return the stable kebab-case name ("not-equivalent", ...). */
const char *verifyCodeName(VerifyCode code);

/** @return "warning" or "error". */
const char *verifySeverityName(VerifySeverity severity);

/**
 * One finding. Loci are -1 where not applicable; @p program indexes the
 * compiled program table. Messages are fully rendered with names.
 */
struct VerifyDiagnostic
{
    VerifySeverity severity = VerifySeverity::Error;
    VerifyCode code = VerifyCode::StructureMismatch;
    FsmId fsm = -1;
    StateId state = -1;
    std::int32_t program = -1;
    std::string message;
};

/**
 * The static routability verdict for one FSM: whether the whole walk
 * from the initial state to a terminal state is compile-time routed
 * (the batch kernel's lockstep SoA precondition), and the human-
 * readable reason when it is not — which state blocks, on which guard,
 * reading which fields. This is the map the speculative-lockstep work
 * consumes to know exactly which branches to attack.
 */
struct LockstepCertificate
{
    FsmId fsm = -1;
    std::string fsmName;
    bool staticRouted = false;
    std::string reason;
};

/** Everything one validation run proved, in deterministic pass order. */
struct VerifyReport
{
    std::vector<VerifyDiagnostic> diagnostics;

    /** One certificate per FSM (empty if structural checks failed). */
    std::vector<LockstepCertificate> certificates;

    std::size_t rootsProven = 0;     //!< Canonical-form equalities.
    std::size_t rootsEnumerated = 0; //!< Exhaustive-domain equalities.
    std::size_t programsChecked = 0; //!< Well-formedness subjects.
    std::size_t slotsChecked = 0;    //!< Audited segment slots.
    std::size_t guardedDivSites = 0; //!< Div/mod sites a field can zero.

    std::size_t numErrors() const;
    std::size_t numWarnings() const;

    /** @return true if no error-severity finding exists. */
    bool clean() const { return numErrors() == 0; }

    /** @return diagnostics carrying @p code. */
    std::vector<VerifyDiagnostic> withCode(VerifyCode code) const;
};

/**
 * Run all analyses over a compiled design. Purely static: no job
 * is executed, no random vector drawn; the only concrete evaluation is
 * exhaustive enumeration over a small declared field domain.
 */
VerifyReport verifyCompiledDesign(const CompiledDesign &comp);

/** Behaviour of the construction-time verification hook. */
enum class VerifyMode
{
    Off,     //!< PREDVFS_VERIFY=0: hook disabled.
    Warn,    //!< PREDVFS_VERIFY=warn: report, keep the artifact.
    Enforce  //!< Default: panic on a failed proof.
};

/** Parse PREDVFS_VERIFY (unset/"1" -> Enforce, "0" -> Off, "warn"). */
VerifyMode verifyModeFromEnv();

/**
 * Construction-time hook called by the CompiledDesign constructor;
 * honours verifyModeFromEnv(). Exposed for tests.
 */
void verifyOnBuild(const CompiledDesign &comp);

/**
 * Seeded miscompile injections for the mutation harness: each kind
 * corrupts one aspect of the compiled artifact the way a compiler bug
 * would, so tests can assert the validator statically rejects it.
 */
enum class Miscompile
{
    DropAffineTerm,          //!< Remove a merged affine term.
    AffineImmOffByOne,       //!< Affine/Const immediate off by one.
    SwapBinOperands,         //!< Swap a non-commutative binary's sides.
    WrongOpcode,             //!< Replace an operator with its dual.
    PoolConstCorrupt,        //!< Perturb a shared literal-pool entry.
    StackImbalance,          //!< Turn a push into a binary op.
    FieldIndexCorrupt,       //!< Shift a field operand to a neighbour.
    PresummedCyclesOffByOne, //!< Corrupt a compressed run's cycle sum.
    SlotDwellCorrupt,        //!< Corrupt a static slot's dwell.
    SlotEnergyCorrupt,       //!< Corrupt a slot's addend/rate.
    AddendCorrupt,           //!< Perturb a dense energy addend.
    SegmentRerouted,         //!< Point a segment at the wrong resume.
    TraceMisroute,           //!< Flip a lockstep trace to scalar.
    TraceCycleSkew,          //!< Skew a trace's presummed cycles.
    GuardDropped,            //!< Turn a guarded edge into a default.
    TransitionRetarget,      //!< Point a transition at a wrong state.
    StateEnergyCorrupt,      //!< Corrupt a state's energy rate.
    FixedDwellCorrupt,       //!< Corrupt a fixed state's dwell.
    JobOverheadCorrupt,      //!< Corrupt the per-job overhead cycles.
    SpecRetarget,            //!< Retarget a speculative taken edge.
    SpecPredictFlip,         //!< Flip a node's predicted outcome.
    SpecCycleSkew,           //!< Skew a spec sweep's presummed cycles.
};

/** @return the stable name of a mutation kind. */
const char *miscompileName(Miscompile kind);

/**
 * Apply one seeded miscompile to @p comp in place. The seed picks the
 * mutation site deterministically among the eligible ones.
 *
 * @return a description of what was corrupted, or the empty string if
 *         the design offers no eligible site for this kind. Never run
 *         a mutated design; it exists only to be verified.
 */
std::string injectMiscompile(CompiledDesign &comp, Miscompile kind,
                             unsigned seed);

/** Friend of CompiledDesign; all validator logic lives here. */
class Verifier;

} // namespace rtl
} // namespace predvfs

#endif // PREDVFS_RTL_VERIFY_HH
