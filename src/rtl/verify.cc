#include "rtl/verify.hh"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "rtl/interval.hh"
#include "rtl/report.hh"
#include "util/logging.hh"

namespace predvfs {
namespace rtl {

using util::panic;
using util::panicIf;

namespace {

const FieldVec kNoFields;

/** Enumeration budget shared with the lint guard-domain enumerator. */
constexpr std::uint64_t kMaxEnumDomain = 4096;

/** Wrapping int64 helpers (mirror compile.cc without signed-UB). */
std::int64_t
addWrap(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
mulWrap(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

/** Tree operator of a binary/comparison bytecode opcode. */
Op
opOfB(BOp op)
{
    switch (op) {
      case BOp::Add: return Op::Add;
      case BOp::Sub: return Op::Sub;
      case BOp::Mul: return Op::Mul;
      case BOp::Div: return Op::Div;
      case BOp::Mod: return Op::Mod;
      case BOp::Min: return Op::Min;
      case BOp::Max: return Op::Max;
      case BOp::Eq: return Op::Eq;
      case BOp::Ne: return Op::Ne;
      case BOp::Lt: return Op::Lt;
      case BOp::Le: return Op::Le;
      case BOp::Gt: return Op::Gt;
      case BOp::Ge: return Op::Ge;
      case BOp::And: return Op::And;
      case BOp::Or: return Op::Or;
      default:
        panic("opOfB: not a binary opcode ", static_cast<int>(op));
    }
    return Op::Add;
}

/** Exact fold of one binary operator — Expr::eval()'s semantics. */
std::int64_t
foldOp(Op op, std::int64_t a, std::int64_t b)
{
    switch (op) {
      case Op::Add: return addWrap(a, b);
      case Op::Sub: return addWrap(a, mulWrap(b, -1));
      case Op::Mul: return mulWrap(a, b);
      case Op::Div: return safeDiv(a, b);
      case Op::Mod: return safeMod(a, b);
      case Op::Min: return a < b ? a : b;
      case Op::Max: return a > b ? a : b;
      case Op::Eq: return a == b ? 1 : 0;
      case Op::Ne: return a != b ? 1 : 0;
      case Op::Lt: return a < b ? 1 : 0;
      case Op::Le: return a <= b ? 1 : 0;
      case Op::Gt: return a > b ? 1 : 0;
      case Op::Ge: return a >= b ? 1 : 0;
      case Op::And: return (a != 0 && b != 0) ? 1 : 0;
      case Op::Or: return (a != 0 || b != 0) ? 1 : 0;
      default:
        panic("foldOp: not a binary op");
    }
    return 0;
}

bool
isCommutative(Op op)
{
    switch (op) {
      case Op::Min: case Op::Max: case Op::Eq: case Op::Ne:
      case Op::And: case Op::Or:
        return true;
      default:
        return false;
    }
}

bool
isBoolValued(Op op)
{
    switch (op) {
      case Op::Eq: case Op::Ne: case Op::Lt: case Op::Le:
      case Op::And: case Op::Or:
        return true;
      default:
        return false;
    }
}

/**
 * Canonical polynomial normal form over Z/2^64.
 *
 * Both the source expression tree and the re-lifted compiled artifact
 * are funneled through the same normalization: Add/Sub/Mul become ring
 * operations on multivariate polynomials whose indeterminates are
 * hash-consed *atoms* (field reads and non-polynomial operations with
 * canonicalized, interned polynomial operands); Select(c, t, e) is
 * rewritten to e + (t - e) * [c != 0], exact mod 2^64 because every
 * evaluator is total; Not(x) becomes Eq(x, 0); Gt/Ge canonicalize to
 * Lt/Le with swapped operands and commutative atoms sort their
 * operands. Coefficient arithmetic wraps exactly like the compiler's
 * addWrap/mulWrap, so the compiler's affine reassociation produces
 * polynomials identical to the source's whenever the compile is
 * faithful. Boolean-valued atoms are idempotent (a*a == a for
 * 0/1-valued a), which keeps Select-expansion products canonical.
 */
class PolyCtx
{
  public:
    /** Monomial: sorted atom ids; repeats = powers. Empty = const. */
    using Monomial = std::vector<int>;
    /** Polynomial: monomial -> nonzero coefficient mod 2^64. */
    using Poly = std::map<Monomial, std::uint64_t>;

    /** Sticky: a size cap tripped somewhere; forms are untrusted. */
    bool overflow = false;

    Poly
    constant(std::int64_t v)
    {
        Poly p;
        if (v != 0)
            p[{}] = static_cast<std::uint64_t>(v);
        return p;
    }

    Poly
    fieldVar(FieldId f)
    {
        return atomVar(getAtom(Op::Field, f, -1, -1, false));
    }

    static bool
    constOf(const Poly &p, std::int64_t &v)
    {
        if (p.empty()) {
            v = 0;
            return true;
        }
        if (p.size() == 1 && p.begin()->first.empty()) {
            v = static_cast<std::int64_t>(p.begin()->second);
            return true;
        }
        return false;
    }

    Poly
    add(const Poly &a, const Poly &b)
    {
        Poly r = a;
        for (const auto &[m, coeff] : b) {
            const std::uint64_t c = (r[m] += coeff);
            if (c == 0)
                r.erase(m);
        }
        cap(r);
        return r;
    }

    Poly
    neg(const Poly &a)
    {
        Poly r;
        for (const auto &[m, coeff] : a)
            r[m] = 0u - coeff;
        return r;
    }

    Poly
    sub(const Poly &a, const Poly &b)
    {
        return add(a, neg(b));
    }

    Poly
    mul(const Poly &a, const Poly &b)
    {
        Poly r;
        for (const auto &[ma, ca] : a) {
            for (const auto &[mb, cb] : b) {
                Monomial m;
                m.reserve(ma.size() + mb.size());
                std::merge(ma.begin(), ma.end(), mb.begin(), mb.end(),
                           std::back_inserter(m));
                // Idempotence: a boolean atom squared is itself.
                Monomial dedup;
                for (int id : m) {
                    if (!dedup.empty() && dedup.back() == id &&
                        atoms[id].isBool) {
                        continue;
                    }
                    dedup.push_back(id);
                }
                const std::uint64_t c = (r[dedup] += ca * cb);
                if (c == 0)
                    r.erase(dedup);
            }
        }
        cap(r);
        return r;
    }

    Poly
    binary(Op op, Poly a, Poly b)
    {
        std::int64_t ca = 0, cb = 0;
        if (constOf(a, ca) && constOf(b, cb))
            return constant(foldOp(op, ca, cb));
        switch (op) {
          case Op::Add: return add(a, b);
          case Op::Sub: return sub(a, b);
          case Op::Mul: return mul(a, b);
          default:
            break;
        }
        Op cop = op;
        if (op == Op::Gt) {
            cop = Op::Lt;
            std::swap(a, b);
        } else if (op == Op::Ge) {
            cop = Op::Le;
            std::swap(a, b);
        }
        int ia = internPoly(a);
        int ib = internPoly(b);
        if (isCommutative(cop) && ib < ia)
            std::swap(ia, ib);
        return atomVar(getAtom(cop, -1, ia, ib, isBoolValued(cop)));
    }

    Poly
    notOf(const Poly &a)
    {
        return binary(Op::Eq, a, constant(0));
    }

    /** Map a value to the 0/1 indicator [v != 0]. */
    Poly
    boolify(const Poly &c)
    {
        std::int64_t cv = 0;
        if (constOf(c, cv))
            return constant(cv != 0 ? 1 : 0);
        if (c.size() == 1) {
            const auto &[m, coeff] = *c.begin();
            if (coeff == 1 && m.size() == 1 && atoms[m[0]].isBool)
                return c;
        }
        return binary(Op::Ne, c, constant(0));
    }

    Poly
    select(const Poly &c, const Poly &t, const Poly &e)
    {
        std::int64_t cv = 0;
        if (constOf(c, cv))
            return cv != 0 ? t : e;
        return add(e, mul(sub(t, e), boolify(c)));
    }

  private:
    struct Atom
    {
        Op op;
        FieldId field;
        int a;
        int b;
        bool isBool;
    };

    static constexpr std::size_t kMaxMonomials = 1024;

    void
    cap(const Poly &p)
    {
        if (p.size() > kMaxMonomials)
            overflow = true;
    }

    Poly
    atomVar(int id)
    {
        Poly p;
        p[{id}] = 1;
        return p;
    }

    int
    getAtom(Op op, FieldId field, int a, int b, bool is_bool)
    {
        const auto key =
            std::make_tuple(static_cast<int>(op), field, a, b);
        const auto it = atomIds.find(key);
        if (it != atomIds.end())
            return it->second;
        atoms.push_back({op, field, a, b, is_bool});
        const int id = static_cast<int>(atoms.size()) - 1;
        atomIds.emplace(key, id);
        return id;
    }

    int
    internPoly(const Poly &p)
    {
        const auto it = polyIds.find(p);
        if (it != polyIds.end())
            return it->second;
        polys.push_back(p);
        const int id = static_cast<int>(polys.size()) - 1;
        polyIds.emplace(p, id);
        return id;
    }

    std::vector<Atom> atoms;
    std::map<std::tuple<int, int, int, int>, int> atomIds;
    std::vector<Poly> polys;
    std::map<Poly, int> polyIds;
};

using Poly = PolyCtx::Poly;

/** Normalize a source tree (memoized per shared node). */
Poly
normExpr(PolyCtx &ctx, std::map<const Expr *, Poly> &memo, const Expr &e)
{
    const auto it = memo.find(&e);
    if (it != memo.end())
        return it->second;
    Poly p;
    switch (e.op()) {
      case Op::Const:
        p = ctx.constant(e.constValue());
        break;
      case Op::Field:
        p = ctx.fieldVar(e.fieldId());
        break;
      case Op::Not:
        p = ctx.notOf(normExpr(ctx, memo, *e.args()[0]));
        break;
      case Op::Select:
        p = ctx.select(normExpr(ctx, memo, *e.args()[0]),
                       normExpr(ctx, memo, *e.args()[1]),
                       normExpr(ctx, memo, *e.args()[2]));
        break;
      default:
        p = ctx.binary(e.op(), normExpr(ctx, memo, *e.args()[0]),
                       normExpr(ctx, memo, *e.args()[1]));
        break;
    }
    memo.emplace(&e, p);
    return p;
}

/** Interval of Not over a value interval. */
Interval
notIv(const Interval &a)
{
    if (a.definitelyFalse())
        return Interval::point(1);
    if (a.definitelyTrue())
        return Interval::point(0);
    return Interval::of(0, 1);
}

std::string
joinFieldNames(const std::set<FieldId> &fields,
               const std::vector<std::string> &names)
{
    std::string out;
    for (FieldId f : fields) {
        if (!out.empty())
            out += ", ";
        if (f >= 0 && static_cast<std::size_t>(f) < names.size())
            out += names[f];
        else
            out += "f" + std::to_string(f);
    }
    return out;
}

} // namespace

std::size_t
VerifyReport::numErrors() const
{
    std::size_t n = 0;
    for (const auto &d : diagnostics)
        if (d.severity == VerifySeverity::Error)
            ++n;
    return n;
}

std::size_t
VerifyReport::numWarnings() const
{
    std::size_t n = 0;
    for (const auto &d : diagnostics)
        if (d.severity == VerifySeverity::Warning)
            ++n;
    return n;
}

std::vector<VerifyDiagnostic>
VerifyReport::withCode(VerifyCode code) const
{
    std::vector<VerifyDiagnostic> out;
    for (const auto &d : diagnostics)
        if (d.code == code)
            out.push_back(d);
    return out;
}

const char *
verifyCodeName(VerifyCode code)
{
    switch (code) {
      case VerifyCode::NotEquivalent: return "not-equivalent";
      case VerifyCode::EquivalenceUnproven: return "equivalence-unproven";
      case VerifyCode::StackUnderflow: return "stack-underflow";
      case VerifyCode::ResultCountMismatch: return "result-count-mismatch";
      case VerifyCode::StackBudgetExceeded: return "stack-budget-exceeded";
      case VerifyCode::BadOperand: return "bad-operand";
      case VerifyCode::BadOpcode: return "bad-opcode";
      case VerifyCode::DivByZeroDefinite: return "div-by-zero-definite";
      case VerifyCode::SegmentCycleMismatch:
        return "segment-cycle-mismatch";
      case VerifyCode::SegmentEnergyMismatch:
        return "segment-energy-mismatch";
      case VerifyCode::SegmentRouteMismatch:
        return "segment-route-mismatch";
      case VerifyCode::StructureMismatch: return "structure-mismatch";
      case VerifyCode::LockstepCertMismatch:
        return "lockstep-cert-mismatch";
      case VerifyCode::SpeculationMismatch:
        return "speculation-mismatch";
      case VerifyCode::TapMismatch: return "tap-mismatch";
    }
    return "?";
}

const char *
verifySeverityName(VerifySeverity severity)
{
    return severity == VerifySeverity::Error ? "error" : "warning";
}

/**
 * The validator. One instance runs the four analyses over one compiled
 * design; all state (normalizer context, memo tables, report) lives
 * here so verification is reentrant across designs.
 */
class Verifier
{
  public:
    explicit Verifier(const CompiledDesign &comp)
        : c(comp), d(comp.design()), names(d.fieldNames())
    {
        fieldIvs.reserve(d.fieldBounds().size());
        for (const FieldBounds &b : d.fieldBounds())
            fieldIvs.push_back(Interval{b.lo, b.hi});
    }

    VerifyReport
    run()
    {
        // Later passes index through the flattened tables, so a
        // structural mismatch aborts verification outright: every
        // remaining claim would be about the wrong rows.
        if (!structurePass())
            return rep;
        wellFormedPass();
        if (wfBad.empty())
            equivalencePass();
        segmentPass();
        tracePass();
        specPass();
        tapPass();
        return rep;
    }

  private:
    using CExpr = CompiledDesign::CExpr;
    using CTerm = CompiledDesign::CTerm;
    using CState = CompiledDesign::CState;
    using CFsm = CompiledDesign::CFsm;
    using CSlot = CompiledDesign::CSlot;
    using CRun = CompiledDesign::CRun;
    using CSegment = CompiledDesign::CSegment;
    using CTrace = CompiledDesign::CTrace;
    using CSpecNode = CompiledDesign::CSpecNode;
    using CSpecTrace = CompiledDesign::CSpecTrace;

    const CompiledDesign &c;
    const Design &d;
    const std::vector<std::string> &names;
    std::vector<Interval> fieldIvs;
    VerifyReport rep;

    PolyCtx ctx;
    std::map<const Expr *, Poly> exprPolys;
    std::map<std::int32_t, Poly> progPolys;
    std::map<std::int32_t, Interval> progIvs;
    std::set<std::int32_t> wfBad;

    // Source-derived segment expectations, filled by segmentPass() and
    // consumed by tracePass() (global state index -> expectation).
    std::vector<StateId> expNextOf;
    std::vector<bool> expDynHead;
    std::vector<std::uint64_t> expStaticCycles;

    void
    diag(VerifyCode code, FsmId f, StateId s, std::int32_t prog,
         std::string msg)
    {
        VerifyDiagnostic vd;
        vd.severity = VerifySeverity::Error;
        vd.code = code;
        vd.fsm = f;
        vd.state = s;
        vd.program = prog;
        vd.message = std::move(msg);
        rep.diagnostics.push_back(std::move(vd));
    }

    const std::string &
    stateName(FsmId f, StateId s) const
    {
        return d.fsms()[f].states[s].name;
    }

    /** Energy rate the tree walker uses — identical statement shape to
     *  the compiler's so the doubles come out bit-identical. */
    double
    srcRate(const State &st) const
    {
        double rate = d.controlEnergyPerCycle();
        if (st.block >= 0)
            rate += st.dpOpsPerCycle * d.blocks()[st.block].energyWeight;
        return rate;
    }

    // ---- pass 1: structure audit --------------------------------

    bool structurePass();

    // ---- pass 2: bytecode well-formedness + intervals -----------

    void wellFormedPass();
    Interval checkProgram(std::int32_t idx);
    Interval ivOf(std::int32_t idx);
    void checkDivisor(const Interval &b, std::int32_t idx,
                      const char *where);

    // ---- pass 3: symbolic equivalence ---------------------------

    void equivalencePass();
    void checkEquivalent(const ExprPtr &tree, std::int32_t prog,
                         FsmId f, StateId s, const std::string &what);
    Poly relift(std::int32_t idx);
    Poly reliftCode(const CExpr &e);
    void collectProgramFields(std::int32_t idx,
                              std::set<FieldId> &out) const;

    // ---- pass 4: fused-segment audit ----------------------------

    struct ExpSlot
    {
        std::int32_t prog = -1;
        CounterId counter = -1;
        bool armOnly = false;
        bool down = false;
        std::int32_t waitScale = 1;
        StateId src = -1;
        StateId dst = -1;
        std::uint64_t cycles = 0;
        double energy = 0.0;
        std::int64_t armInit = 0;
        std::int64_t armFinal = 0;
    };

    void segmentPass();
    bool srcStaticDwell(const State &st, std::uint64_t &dwell,
                        std::int64_t &range) const;
    StateId srcStaticNext(const State &st) const;
    void deriveChain(FsmId f, StateId head, std::vector<ExpSlot> &out,
                     StateId &next) const;

    // ---- pass 5: lockstep routability certificates --------------

    void tracePass();
    std::string dynReason(FsmId f, StateId s) const;

    // ---- pass 6: speculation audit ------------------------------

    void specPass();
    bool srcDecision(FsmId f, StateId s, std::size_t &edge,
                     StateId &taken, StateId &fall) const;

    // ---- pass 7: feature-tap audit ------------------------------

    void tapPass();

    friend VerifyReport verifyCompiledDesign(const CompiledDesign &);
};

// ------------------------------------------------------------------
// Pass 1: the flattened FSM/state/transition tables must be a faithful
// image of the source design — layout, latency kinds, energy rates,
// transition targets, and guard presence all byte-for-byte.
// ------------------------------------------------------------------

bool
Verifier::structurePass()
{
    const auto &fsms = d.fsms();
    const auto &counters = d.counters();

    if (c.order.size() != fsms.size()) {
        diag(VerifyCode::StructureMismatch, -1, -1, -1,
             "topo order covers " + std::to_string(c.order.size()) +
                 " FSM(s), design has " + std::to_string(fsms.size()));
        return false;
    }
    std::vector<int> pos(fsms.size(), -1);
    for (std::size_t i = 0; i < c.order.size(); ++i) {
        const FsmId f = c.order[i];
        if (f < 0 || static_cast<std::size_t>(f) >= fsms.size() ||
            pos[f] >= 0) {
            diag(VerifyCode::StructureMismatch, f, -1, -1,
                 "topo order is not a permutation of the FSM ids");
            return false;
        }
        pos[f] = static_cast<int>(i);
    }
    for (std::size_t f = 0; f < fsms.size(); ++f) {
        const FsmId dep = fsms[f].startAfter;
        if (dep >= 0 && pos[dep] > pos[f]) {
            diag(VerifyCode::StructureMismatch,
                 static_cast<FsmId>(f), -1, -1,
                 "topo order places '" + fsms[f].name +
                     "' before its startAfter dependency '" +
                     fsms[dep].name + "'");
        }
    }

    if (c.jobOverhead != d.perJobOverheadCycles()) {
        diag(VerifyCode::StructureMismatch, -1, -1, -1,
             "per-job overhead compiled as " +
                 std::to_string(c.jobOverhead) + ", design declares " +
                 std::to_string(d.perJobOverheadCycles()));
    }
    if (c.ctrlEnergy != d.controlEnergyPerCycle()) {
        diag(VerifyCode::StructureMismatch, -1, -1, -1,
             "control energy rate diverges from the design");
    }

    std::size_t total_states = 0;
    std::size_t total_trans = 0;
    for (const Fsm &fsm : fsms) {
        total_states += fsm.states.size();
        for (const State &st : fsm.states)
            total_trans += st.transitions.size();
    }
    if (c.cfsms.size() != fsms.size() ||
        c.states.size() != total_states ||
        c.trans.size() != total_trans) {
        diag(VerifyCode::StructureMismatch, -1, -1, -1,
             "flattened table sizes do not match the design");
        return false;
    }

    std::uint32_t next_state = 0;
    std::uint32_t next_trans = 0;
    for (std::size_t f = 0; f < fsms.size(); ++f) {
        const Fsm &fsm = fsms[f];
        const CFsm &cf = c.cfsms[f];
        const FsmId fid = static_cast<FsmId>(f);
        if (cf.firstState != next_state ||
            cf.numStates != fsm.states.size() ||
            cf.initial != fsm.initial ||
            cf.startAfter != fsm.startAfter) {
            diag(VerifyCode::StructureMismatch, fid, -1, -1,
                 "FSM '" + fsm.name + "' header (layout, initial, or "
                 "startAfter) does not match the design");
            return false;
        }
        next_state += cf.numStates;

        for (std::size_t s = 0; s < fsm.states.size(); ++s) {
            const State &st = fsm.states[s];
            const CState &cs = c.states[cf.firstState + s];
            const StateId sid = static_cast<StateId>(s);

            if (cs.kind != st.kind || cs.armOnly != st.armOnly ||
                cs.terminal != st.terminal ||
                cs.waitScale != st.waitScale) {
                diag(VerifyCode::StructureMismatch, fid, sid, -1,
                     "state '" + st.name +
                         "' flags/kind do not match the design");
            }
            switch (st.kind) {
              case LatencyKind::Fixed:
                if (cs.prog >= 0 ||
                    cs.fixedDwell !=
                        static_cast<std::uint64_t>(st.fixedCycles)) {
                    diag(VerifyCode::StructureMismatch, fid, sid, -1,
                         "state '" + st.name + "' fixed dwell is " +
                             std::to_string(cs.fixedDwell) +
                             ", design declares " +
                             std::to_string(st.fixedCycles));
                }
                break;
              case LatencyKind::CounterWait:
                if (cs.counter != st.counter ||
                    cs.counterDir != counters[st.counter].dir ||
                    cs.prog < 0 ||
                    static_cast<std::size_t>(cs.prog) >=
                        c.programs.size()) {
                    diag(VerifyCode::StructureMismatch, fid, sid,
                         cs.prog,
                         "state '" + st.name +
                             "' counter linkage does not match the "
                             "design");
                    return false;
                }
                break;
              case LatencyKind::Implicit:
                if (cs.prog < 0 ||
                    static_cast<std::size_t>(cs.prog) >=
                        c.programs.size()) {
                    diag(VerifyCode::StructureMismatch, fid, sid,
                         cs.prog,
                         "state '" + st.name +
                             "' implicit-latency program index is out "
                             "of range");
                    return false;
                }
                break;
            }
            if (cs.energyPerCycle != srcRate(st)) {
                diag(VerifyCode::StructureMismatch, fid, sid, -1,
                     "state '" + st.name +
                         "' energy rate diverges from ctrl + dpOps * "
                         "blockWeight");
            }
            if (cs.firstTrans != next_trans ||
                cs.numTrans != st.transitions.size()) {
                diag(VerifyCode::StructureMismatch, fid, sid, -1,
                     "state '" + st.name +
                         "' transition slice does not match the design");
                return false;
            }
            for (std::size_t t = 0; t < st.transitions.size(); ++t) {
                const Transition &tr = st.transitions[t];
                const auto &ct = c.trans[cs.firstTrans + t];
                if (ct.dst != tr.dst) {
                    diag(VerifyCode::StructureMismatch, fid, sid, -1,
                         "edge " + std::to_string(t) + " of state '" +
                             st.name + "' targets state " +
                             std::to_string(ct.dst) +
                             ", design targets " +
                             std::to_string(tr.dst));
                }
                if ((tr.guard != nullptr) != (ct.guard >= 0)) {
                    diag(VerifyCode::StructureMismatch, fid, sid,
                         ct.guard,
                         "edge " + std::to_string(t) + " of state '" +
                             st.name +
                             "' disagrees with the design on guard "
                             "presence");
                } else if (ct.guard >= 0 &&
                           static_cast<std::size_t>(ct.guard) >=
                               c.programs.size()) {
                    diag(VerifyCode::StructureMismatch, fid, sid,
                         ct.guard,
                         "edge " + std::to_string(t) + " of state '" +
                             st.name +
                             "' has an out-of-range guard program");
                    return false;
                }
            }
            next_trans += cs.numTrans;
        }
    }
    return rep.numErrors() == 0;
}

// ------------------------------------------------------------------
// Pass 2: every postfix program must be well-formed under abstract
// stack simulation, and interval analysis over the stack slots either
// proves div/0-freedom or pins the guarded-div sites.
// ------------------------------------------------------------------

void
Verifier::checkDivisor(const Interval &b, std::int32_t idx,
                       const char *where)
{
    if (b.isPoint() && b.lo == 0) {
        diag(VerifyCode::DivByZeroDefinite, -1, -1, idx,
             std::string("divisor is the constant 0 in ") + where +
                 " of program #" + std::to_string(idx));
    } else if (b.contains(0)) {
        ++rep.guardedDivSites;
    }
}

Interval
Verifier::checkProgram(std::int32_t idx)
{
    const CExpr &e = c.programs[idx];
    const auto fail = [&](VerifyCode code, const std::string &msg) {
        diag(code, -1, -1, idx, msg + " in program #" +
                                    std::to_string(idx));
        wfBad.insert(idx);
        return Interval::full();
    };

    if (static_cast<std::size_t>(e.first) + e.count > c.code.size())
        return fail(VerifyCode::BadOperand,
                    "code slice exceeds the instruction pool");

    std::vector<Interval> stack;
    std::size_t max_depth = 0;

    for (std::uint32_t i = 0; i < e.count; ++i) {
        const BInstr in = c.code[e.first + i];
        const auto byte = static_cast<std::uint8_t>(in.op);
        if (byte > static_cast<std::uint8_t>(BOp::Select))
            return fail(VerifyCode::BadOpcode,
                        "invalid opcode byte " + std::to_string(byte) +
                            " at instruction " + std::to_string(i));

        switch (in.op) {
          case BOp::PushConst:
            if (in.arg < 0 ||
                static_cast<std::size_t>(in.arg) >= c.pool.size()) {
                return fail(VerifyCode::BadOperand,
                            "PushConst pool index " +
                                std::to_string(in.arg) +
                                " out of range");
            }
            stack.push_back(Interval::point(c.pool[in.arg]));
            break;
          case BOp::PushField:
            if (in.arg < 0 ||
                static_cast<std::size_t>(in.arg) >= fieldIvs.size()) {
                return fail(VerifyCode::BadOperand,
                            "PushField field index " +
                                std::to_string(in.arg) +
                                " out of range");
            }
            stack.push_back(fieldIvs[in.arg]);
            break;
          case BOp::Not:
            if (stack.empty())
                return fail(VerifyCode::StackUnderflow,
                            "Not on an empty stack");
            stack.back() = notIv(stack.back());
            break;
          case BOp::Select: {
            if (stack.size() < 3)
                return fail(VerifyCode::StackUnderflow,
                            "Select needs three operands");
            const Interval ev = stack.back();
            stack.pop_back();
            const Interval tv = stack.back();
            stack.pop_back();
            const Interval cv = stack.back();
            stack.pop_back();
            if (cv.definitelyTrue())
                stack.push_back(tv);
            else if (cv.definitelyFalse())
                stack.push_back(ev);
            else
                stack.push_back(tv.hull(ev));
            break;
          }
          default: {
            if (stack.size() < 2)
                return fail(VerifyCode::StackUnderflow,
                            "binary op on a short stack");
            const Interval b = stack.back();
            stack.pop_back();
            const Interval a = stack.back();
            stack.pop_back();
            if (in.op == BOp::Div || in.op == BOp::Mod)
                checkDivisor(b, idx, "the bytecode");
            stack.push_back(binaryOpInterval(opOfB(in.op), a, b));
            break;
          }
        }
        max_depth = std::max(max_depth, stack.size());
    }

    if (stack.size() != 1)
        return fail(VerifyCode::ResultCountMismatch,
                    "program leaves " + std::to_string(stack.size()) +
                        " value(s) on the stack");
    if (max_depth > c.maxStack)
        return fail(VerifyCode::StackBudgetExceeded,
                    "stack depth " + std::to_string(max_depth) +
                        " exceeds the declared budget " +
                        std::to_string(c.maxStack));
    return stack.back();
}

Interval
Verifier::ivOf(std::int32_t idx)
{
    const auto it = progIvs.find(idx);
    if (it != progIvs.end())
        return it->second;
    const CExpr &e = c.programs[idx];
    Interval iv = Interval::full();
    switch (e.kind) {
      case CExpr::Kind::Const:
        iv = Interval::point(e.imm);
        break;
      case CExpr::Kind::Field:
        iv = fieldIvs[e.field];
        break;
      case CExpr::Kind::Affine: {
        Interval acc = Interval::point(e.imm);
        for (std::uint32_t i = 0; i < e.count; ++i) {
            const CTerm &t = c.affinePool[e.first + i];
            Interval term = Interval::point(0);
            switch (t.kind) {
              case CTerm::Kind::Linear:
                term = binaryOpInterval(Op::Mul, Interval::point(t.a),
                                        fieldIvs[t.field]);
                break;
              case CTerm::Kind::Cond: {
                const Interval cond = fieldIvs[t.field];
                if (cond.definitelyTrue())
                    term = Interval::point(t.a);
                else if (cond.definitelyFalse())
                    term = Interval::point(t.b);
                else
                    term = Interval::point(t.a).hull(
                        Interval::point(t.b));
                break;
              }
              case CTerm::Kind::CondCmp: {
                const Interval cond = binaryOpInterval(
                    opOfB(t.cmp), fieldIvs[t.field],
                    Interval::point(t.z));
                if (cond.definitelyTrue())
                    term = Interval::point(t.a);
                else if (cond.definitelyFalse())
                    term = Interval::point(t.b);
                else
                    term = Interval::point(t.a).hull(
                        Interval::point(t.b));
                break;
              }
            }
            acc = binaryOpInterval(Op::Add, acc, term);
        }
        iv = acc;
        break;
      }
      case CExpr::Kind::BinFC: {
        const Interval b = Interval::point(e.imm);
        if (e.op == BOp::Div || e.op == BOp::Mod)
            checkDivisor(b, idx, "a field-const binary");
        iv = binaryOpInterval(opOfB(e.op), fieldIvs[e.field], b);
        break;
      }
      case CExpr::Kind::Bin2: {
        const Interval a = ivOf(e.a);
        const Interval b = ivOf(e.b);
        if (e.op == BOp::Div || e.op == BOp::Mod)
            checkDivisor(b, idx, "a composite binary");
        iv = binaryOpInterval(opOfB(e.op), a, b);
        break;
      }
      case CExpr::Kind::Program:
        iv = checkProgram(idx);
        break;
    }
    progIvs.emplace(idx, iv);
    return iv;
}

void
Verifier::wellFormedPass()
{
    rep.programsChecked = c.programs.size();
    for (std::size_t i = 0; i < c.programs.size(); ++i)
        ivOf(static_cast<std::int32_t>(i));
}

// ------------------------------------------------------------------
// Pass 3: symbolic equivalence. Every program the design links to
// (counter range, implicit latency, transition guard) is re-lifted to
// the canonical polynomial form and compared against the normalized
// source tree; exhaustive enumeration over a small field domain is the
// fallback proof, and a pair with neither proof is an error.
// ------------------------------------------------------------------

Poly
Verifier::reliftCode(const CExpr &e)
{
    std::vector<Poly> stack;
    for (std::uint32_t i = 0; i < e.count; ++i) {
        const BInstr in = c.code[e.first + i];
        switch (in.op) {
          case BOp::PushConst:
            stack.push_back(ctx.constant(c.pool[in.arg]));
            break;
          case BOp::PushField:
            stack.push_back(ctx.fieldVar(in.arg));
            break;
          case BOp::Not:
            stack.back() = ctx.notOf(stack.back());
            break;
          case BOp::Select: {
            const Poly ev = stack.back();
            stack.pop_back();
            const Poly tv = stack.back();
            stack.pop_back();
            const Poly cv = stack.back();
            stack.pop_back();
            stack.push_back(ctx.select(cv, tv, ev));
            break;
          }
          default: {
            const Poly b = stack.back();
            stack.pop_back();
            const Poly a = stack.back();
            stack.pop_back();
            stack.push_back(ctx.binary(opOfB(in.op), a, b));
            break;
          }
        }
    }
    return stack.back();
}

Poly
Verifier::relift(std::int32_t idx)
{
    const auto it = progPolys.find(idx);
    if (it != progPolys.end())
        return it->second;
    const CExpr &e = c.programs[idx];
    Poly p;
    switch (e.kind) {
      case CExpr::Kind::Const:
        p = ctx.constant(e.imm);
        break;
      case CExpr::Kind::Field:
        p = ctx.fieldVar(e.field);
        break;
      case CExpr::Kind::Affine: {
        p = ctx.constant(e.imm);
        for (std::uint32_t i = 0; i < e.count; ++i) {
            const CTerm &t = c.affinePool[e.first + i];
            switch (t.kind) {
              case CTerm::Kind::Linear:
                p = ctx.add(p, ctx.mul(ctx.constant(t.a),
                                       ctx.fieldVar(t.field)));
                break;
              case CTerm::Kind::Cond:
                p = ctx.add(p, ctx.select(ctx.fieldVar(t.field),
                                          ctx.constant(t.a),
                                          ctx.constant(t.b)));
                break;
              case CTerm::Kind::CondCmp: {
                const Poly cmp = ctx.binary(opOfB(t.cmp),
                                            ctx.fieldVar(t.field),
                                            ctx.constant(t.z));
                p = ctx.add(p, ctx.select(cmp, ctx.constant(t.a),
                                          ctx.constant(t.b)));
                break;
              }
            }
        }
        break;
      }
      case CExpr::Kind::BinFC:
        p = ctx.binary(opOfB(e.op), ctx.fieldVar(e.field),
                       ctx.constant(e.imm));
        break;
      case CExpr::Kind::Bin2:
        p = ctx.binary(opOfB(e.op), relift(e.a), relift(e.b));
        break;
      case CExpr::Kind::Program:
        p = reliftCode(e);
        break;
    }
    progPolys.emplace(idx, p);
    return p;
}

void
Verifier::collectProgramFields(std::int32_t idx,
                               std::set<FieldId> &out) const
{
    const CExpr &e = c.programs[idx];
    switch (e.kind) {
      case CExpr::Kind::Const:
        break;
      case CExpr::Kind::Field:
        out.insert(e.field);
        break;
      case CExpr::Kind::Affine:
        for (std::uint32_t i = 0; i < e.count; ++i)
            out.insert(c.affinePool[e.first + i].field);
        break;
      case CExpr::Kind::BinFC:
        out.insert(e.field);
        break;
      case CExpr::Kind::Bin2:
        collectProgramFields(e.a, out);
        collectProgramFields(e.b, out);
        break;
      case CExpr::Kind::Program:
        for (std::uint32_t i = 0; i < e.count; ++i) {
            const BInstr in = c.code[e.first + i];
            if (in.op == BOp::PushField)
                out.insert(in.arg);
        }
        break;
    }
}

void
Verifier::checkEquivalent(const ExprPtr &tree, std::int32_t prog,
                          FsmId f, StateId s, const std::string &what)
{
    const Poly want = normExpr(ctx, exprPolys, *tree);
    const Poly got = relift(prog);
    if (!ctx.overflow && want == got) {
        ++rep.rootsProven;
        return;
    }

    // Canonical forms differ (or overflowed): exhaustive enumeration
    // over the union of the fields either side consumes is the only
    // remaining proof.
    std::set<FieldId> fields;
    tree->collectFields(fields);
    collectProgramFields(prog, fields);

    std::uint64_t domain = 1;
    bool enumerable = true;
    for (FieldId fi : fields) {
        const FieldBounds &b = d.fieldBounds()[fi];
        const std::uint64_t span =
            static_cast<std::uint64_t>(b.hi) -
            static_cast<std::uint64_t>(b.lo) + 1;
        if (span == 0 || span > kMaxEnumDomain ||
            domain > kMaxEnumDomain / span) {
            enumerable = false;
            break;
        }
        domain *= span;
    }
    if (!enumerable) {
        diag(VerifyCode::EquivalenceUnproven, f, s, prog,
             what + ": canonical forms differ and the field domain "
                    "over {" +
                 joinFieldNames(fields, names) +
                 "} exceeds the enumeration budget");
        return;
    }

    FieldVec vec(d.numFields());
    for (std::size_t i = 0; i < vec.size(); ++i)
        vec[i] = d.fieldBounds()[i].lo;
    std::vector<std::int64_t> scratch(c.scratchSize());
    const std::vector<FieldId> fs(fields.begin(), fields.end());

    for (std::uint64_t n = 0; n < domain; ++n) {
        const std::int64_t ref = tree->eval(vec);
        const std::int64_t cmp =
            c.evalProgram(static_cast<std::size_t>(prog), vec.data(),
                          scratch.data());
        if (ref != cmp) {
            std::string witness;
            for (FieldId fi : fs) {
                if (!witness.empty())
                    witness += ", ";
                witness += names[fi] + "=" + std::to_string(vec[fi]);
            }
            diag(VerifyCode::NotEquivalent, f, s, prog,
                 what + ": tree evaluates to " + std::to_string(ref) +
                     " but the compiled program yields " +
                     std::to_string(cmp) + " at {" + witness + "}");
            return;
        }
        // Odometer step over the enumerated fields.
        for (std::size_t i = 0; i < fs.size(); ++i) {
            const FieldBounds &b = d.fieldBounds()[fs[i]];
            if (vec[fs[i]] < b.hi) {
                ++vec[fs[i]];
                break;
            }
            vec[fs[i]] = b.lo;
        }
    }
    ++rep.rootsEnumerated;
}

void
Verifier::equivalencePass()
{
    const auto &fsms = d.fsms();
    const auto &counters = d.counters();
    std::set<std::pair<const Expr *, std::int32_t>> seen;

    const auto check = [&](const ExprPtr &tree, std::int32_t prog,
                           FsmId f, StateId s, const std::string &what) {
        if (!seen.insert({tree.get(), prog}).second)
            return;
        checkEquivalent(tree, prog, f, s, what);
    };

    for (std::size_t f = 0; f < fsms.size(); ++f) {
        const Fsm &fsm = fsms[f];
        const CFsm &cf = c.cfsms[f];
        const FsmId fid = static_cast<FsmId>(f);
        for (std::size_t s = 0; s < fsm.states.size(); ++s) {
            const State &st = fsm.states[s];
            const CState &cs = c.states[cf.firstState + s];
            const StateId sid = static_cast<StateId>(s);
            if (st.kind == LatencyKind::CounterWait) {
                check(counters[st.counter].range, cs.prog, fid, sid,
                      "range of counter '" + counters[st.counter].name +
                          "'");
            } else if (st.kind == LatencyKind::Implicit) {
                check(st.implicitLatency, cs.prog, fid, sid,
                      "implicit latency of state '" + st.name + "'");
            }
            for (std::size_t t = 0; t < st.transitions.size(); ++t) {
                const Transition &tr = st.transitions[t];
                if (!tr.guard)
                    continue;
                const auto &ct = c.trans[cs.firstTrans + t];
                check(tr.guard, ct.guard, fid, sid,
                      "guard of edge '" + st.name + "' -> '" +
                          fsm.states[tr.dst].name + "'");
            }
        }
    }
}

// ------------------------------------------------------------------
// Pass 4: fused-segment audit. The slot chains, compressed runs, and
// dense energy-addend slices are re-derived from the source design
// alone and compared field by field — cycles integer-exact, addends as
// ordered sequences so visit-order replay is preserved.
// ------------------------------------------------------------------

bool
Verifier::srcStaticDwell(const State &st, std::uint64_t &dwell,
                         std::int64_t &range) const
{
    range = 0;
    if (st.kind == LatencyKind::Fixed) {
        dwell = static_cast<std::uint64_t>(st.fixedCycles);
        return true;
    }
    const ExprPtr &ex = st.kind == LatencyKind::CounterWait
                            ? d.counters()[st.counter].range
                            : st.implicitLatency;
    if (!ex->isConstant())
        return false;

    std::int64_t r = ex->eval(kNoFields);
    if (r < 1)
        r = 1;
    if (st.kind == LatencyKind::CounterWait) {
        range = r;
        if (st.armOnly) {
            dwell = 1;
        } else if (st.waitScale > 1) {
            const std::int64_t scaled = r / st.waitScale;
            dwell = static_cast<std::uint64_t>(scaled < 1 ? 1 : scaled);
        } else {
            dwell = static_cast<std::uint64_t>(r);
        }
    } else {
        dwell = static_cast<std::uint64_t>(r);
    }
    return true;
}

StateId
Verifier::srcStaticNext(const State &st) const
{
    for (const Transition &t : st.transitions) {
        if (!t.guard)
            return t.dst;
        if (!t.guard->isConstant())
            return -1;
        if (t.guard->eval(kNoFields) != 0)
            return t.dst;
    }
    return -1;
}

void
Verifier::deriveChain(FsmId f, StateId head, std::vector<ExpSlot> &out,
                      StateId &next) const
{
    const Fsm &fsm = d.fsms()[f];
    const CFsm &cf = c.cfsms[f];
    std::vector<bool> in_chain(fsm.states.size(), false);
    StateId cur = head;
    while (true) {
        if (in_chain[cur]) {
            next = cur;
            break;
        }
        const State &st = fsm.states[cur];
        const StateId nxt = st.terminal ? -1 : srcStaticNext(st);
        if (!st.terminal && nxt < 0) {
            next = cur;
            break;
        }
        in_chain[cur] = true;

        ExpSlot slot;
        slot.src = cur;
        slot.dst = nxt;
        std::uint64_t dwell = 0;
        std::int64_t range = 0;
        const double rate = srcRate(st);
        if (srcStaticDwell(st, dwell, range)) {
            slot.cycles = dwell;
            slot.energy = rate * static_cast<double>(dwell);
            if (st.kind == LatencyKind::CounterWait) {
                slot.counter = st.counter;
                if (d.counters()[st.counter].dir == CounterDir::Down)
                    slot.armInit = range;
                else
                    slot.armFinal = range;
            }
        } else {
            slot.prog = c.states[cf.firstState + cur].prog;
            slot.waitScale = st.waitScale;
            slot.energy = rate;
            if (st.kind == LatencyKind::CounterWait) {
                slot.counter = st.counter;
                slot.armOnly = st.armOnly;
                slot.down =
                    d.counters()[st.counter].dir == CounterDir::Down;
            }
        }
        out.push_back(slot);
        if (st.terminal) {
            next = -1;
            break;
        }
        cur = nxt;
    }
}

void
Verifier::segmentPass()
{
    expNextOf.assign(c.states.size(), -1);
    expDynHead.assign(c.states.size(), false);
    expStaticCycles.assign(c.states.size(), 0);

    const auto &fsms = d.fsms();
    for (std::size_t f = 0; f < fsms.size(); ++f) {
        const Fsm &fsm = fsms[f];
        const CFsm &cf = c.cfsms[f];
        const FsmId fid = static_cast<FsmId>(f);
        for (std::size_t s = 0; s < fsm.states.size(); ++s) {
            const StateId sid = static_cast<StateId>(s);
            const std::size_t g = cf.firstState + s;
            const CSegment &seg = c.segs[g];

            std::vector<ExpSlot> exp;
            StateId exp_next = -1;
            deriveChain(fid, sid, exp, exp_next);
            expNextOf[g] = exp_next;
            expDynHead[g] = exp.empty();

            if (seg.next != exp_next) {
                diag(VerifyCode::SegmentRouteMismatch, fid, sid, -1,
                     "segment of state '" + stateName(fid, sid) +
                         "' resumes at " + std::to_string(seg.next) +
                         ", source walk resumes at " +
                         std::to_string(exp_next));
            }
            if (seg.numSlots != exp.size() ||
                static_cast<std::size_t>(seg.firstSlot) + seg.numSlots >
                    c.slots.size()) {
                diag(VerifyCode::SegmentRouteMismatch, fid, sid, -1,
                     "segment of state '" + stateName(fid, sid) +
                         "' has " + std::to_string(seg.numSlots) +
                         " slot(s), source walk has " +
                         std::to_string(exp.size()));
                continue;
            }

            for (std::size_t i = 0; i < exp.size(); ++i) {
                const CSlot &got = c.slots[seg.firstSlot + i];
                const ExpSlot &want = exp[i];
                ++rep.slotsChecked;
                const std::string where =
                    "slot " + std::to_string(i) + " of segment '" +
                    stateName(fid, sid) + "' (visits state '" +
                    stateName(fid, want.src) + "')";
                if (got.src != want.src || got.dst != want.dst ||
                    got.prog != want.prog ||
                    got.counter != want.counter ||
                    got.armOnly != want.armOnly ||
                    got.down != want.down ||
                    got.waitScale != want.waitScale) {
                    diag(VerifyCode::SegmentRouteMismatch, fid, sid,
                         got.prog,
                         where + " routing/latency metadata diverges "
                                 "from the source walk");
                }
                if (got.cycles != want.cycles ||
                    got.armInit != want.armInit ||
                    got.armFinal != want.armFinal) {
                    diag(VerifyCode::SegmentCycleMismatch, fid, sid,
                         got.prog,
                         where + " presums " +
                             std::to_string(got.cycles) +
                             " cycle(s), source walk presums " +
                             std::to_string(want.cycles));
                }
                if (got.energy != want.energy) {
                    diag(VerifyCode::SegmentEnergyMismatch, fid, sid,
                         got.prog,
                         where + " energy addend diverges from the "
                                 "source walk");
                }
            }

            // Re-derive the compressed runs and their dense addends.
            struct ExpRun
            {
                std::uint64_t cycles = 0;
                std::vector<double> adds;
                std::int32_t dynIdx = -1;
            };
            std::vector<ExpRun> exp_runs;
            ExpRun run;
            for (std::size_t i = 0; i < exp.size(); ++i) {
                if (exp[i].prog < 0) {
                    run.cycles += exp[i].cycles;
                    run.adds.push_back(exp[i].energy);
                } else {
                    run.dynIdx = static_cast<std::int32_t>(i);
                    exp_runs.push_back(std::move(run));
                    run = ExpRun{};
                }
            }
            if (!run.adds.empty())
                exp_runs.push_back(std::move(run));

            std::uint64_t exp_cycles = 0;
            for (const ExpRun &r : exp_runs)
                exp_cycles += r.cycles;
            expStaticCycles[g] = exp_cycles;

            if (seg.numRuns != exp_runs.size() ||
                static_cast<std::size_t>(seg.firstRun) + seg.numRuns >
                    c.runs.size()) {
                diag(VerifyCode::SegmentRouteMismatch, fid, sid, -1,
                     "segment of state '" + stateName(fid, sid) +
                         "' compresses to " +
                         std::to_string(seg.numRuns) +
                         " run(s), source walk compresses to " +
                         std::to_string(exp_runs.size()));
                continue;
            }
            for (std::size_t r = 0; r < exp_runs.size(); ++r) {
                const CRun &got = c.runs[seg.firstRun + r];
                const ExpRun &want = exp_runs[r];
                const std::string where =
                    "run " + std::to_string(r) + " of segment '" +
                    stateName(fid, sid) + "'";
                if (got.cycles != want.cycles) {
                    diag(VerifyCode::SegmentCycleMismatch, fid, sid, -1,
                         where + " presums " +
                             std::to_string(got.cycles) +
                             " cycle(s), source per-state sum is " +
                             std::to_string(want.cycles));
                }
                const std::int32_t want_dyn =
                    want.dynIdx < 0
                        ? -1
                        : static_cast<std::int32_t>(seg.firstSlot) +
                              want.dynIdx;
                if (got.dynSlot != want_dyn) {
                    diag(VerifyCode::SegmentRouteMismatch, fid, sid, -1,
                         where + " closes with dynamic slot " +
                             std::to_string(got.dynSlot) +
                             ", source walk closes with " +
                             std::to_string(want_dyn));
                }
                if (got.numAdds != want.adds.size() ||
                    static_cast<std::size_t>(got.firstAdd) +
                            got.numAdds >
                        c.addendPool.size()) {
                    diag(VerifyCode::SegmentEnergyMismatch, fid, sid,
                         -1,
                         where + " carries " +
                             std::to_string(got.numAdds) +
                             " addend(s), source walk carries " +
                             std::to_string(want.adds.size()));
                    continue;
                }
                for (std::size_t k = 0; k < want.adds.size(); ++k) {
                    if (c.addendPool[got.firstAdd + k] !=
                        want.adds[k]) {
                        diag(VerifyCode::SegmentEnergyMismatch, fid,
                             sid, -1,
                             where + " addend " + std::to_string(k) +
                                 " diverges from the source visit "
                                 "order");
                        break;
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// Pass 5: lockstep routability certificates. Re-walk each FSM from its
// initial state over the source-derived segments, classify it as
// static-routed or branch-dynamic with the exact reason, and demand
// the batch kernel's routing table agrees.
// ------------------------------------------------------------------

std::string
Verifier::dynReason(FsmId f, StateId s) const
{
    const State &st = d.fsms()[f].states[s];
    for (const Transition &t : st.transitions) {
        if (t.guard && !t.guard->isConstant()) {
            std::set<FieldId> fields;
            t.guard->collectFields(fields);
            return "branch-dynamic at state '" + st.name +
                   "': guard '" + t.guard->toString(&names) +
                   "' reads field(s) " + joinFieldNames(fields, names);
        }
    }
    return "branch-dynamic at state '" + st.name +
           "': every guard is constant-false";
}

void
Verifier::tracePass()
{
    const auto &fsms = d.fsms();
    for (std::size_t f = 0; f < fsms.size(); ++f) {
        const Fsm &fsm = fsms[f];
        const CFsm &cf = c.cfsms[f];
        const FsmId fid = static_cast<FsmId>(f);

        std::vector<bool> visited(fsm.states.size(), false);
        std::vector<std::uint32_t> visits;
        std::uint64_t cycles = 0;
        bool exp_valid = true;
        std::string reason;
        StateId cur = fsm.initial;
        while (true) {
            const std::size_t g = cf.firstState + cur;
            if (expDynHead[g]) {
                exp_valid = false;
                reason = dynReason(fid, cur);
                break;
            }
            if (visited[cur]) {
                exp_valid = false;
                reason = "statically-closed loop re-entering state '" +
                         stateName(fid, cur) + "'";
                break;
            }
            visited[cur] = true;
            visits.push_back(static_cast<std::uint32_t>(g));
            cycles += expStaticCycles[g];
            const StateId nxt = expNextOf[g];
            if (nxt < 0)
                break;
            cur = nxt;
        }

        LockstepCertificate cert;
        cert.fsm = fid;
        cert.fsmName = fsm.name;
        cert.staticRouted = exp_valid;
        cert.reason = exp_valid
                          ? "static-routed: " +
                                std::to_string(visits.size()) +
                                " state visit(s), " +
                                std::to_string(cycles) +
                                " presummed cycle(s)"
                          : reason;
        rep.certificates.push_back(cert);

        const CTrace &tr = c.traces[f];
        if (tr.valid != exp_valid) {
            diag(VerifyCode::LockstepCertMismatch, fid, -1, -1,
                 "FSM '" + fsm.name + "' is " +
                     (exp_valid ? "statically routable"
                                : "branch-dynamic") +
                     " but the batch kernel routes it " +
                     (tr.valid ? "in lockstep" : "per-lane") + " (" +
                     cert.reason + ")");
            continue;
        }
        if (!exp_valid)
            continue;
        if (tr.count != visits.size() ||
            static_cast<std::size_t>(tr.first) + tr.count >
                c.traceStates.size()) {
            diag(VerifyCode::LockstepCertMismatch, fid, -1, -1,
                 "FSM '" + fsm.name + "' lockstep trace visits " +
                     std::to_string(tr.count) +
                     " segment(s), source walk visits " +
                     std::to_string(visits.size()));
            continue;
        }
        for (std::size_t i = 0; i < visits.size(); ++i) {
            if (c.traceStates[tr.first + i] != visits[i]) {
                diag(VerifyCode::LockstepCertMismatch, fid, -1, -1,
                     "FSM '" + fsm.name + "' lockstep trace diverges "
                     "from the source walk at visit " +
                         std::to_string(i));
                break;
            }
        }
        if (tr.staticCycles != cycles) {
            diag(VerifyCode::LockstepCertMismatch, fid, -1, -1,
                 "FSM '" + fsm.name + "' lockstep trace presums " +
                     std::to_string(tr.staticCycles) +
                     " cycle(s), source walk presums " +
                     std::to_string(cycles));
        }
    }
}

// ------------------------------------------------------------------
// Pass 6: speculation audit. Every speculative lockstep route is
// re-walked against the source design: branch decisions are re-derived
// from the source transition relation, sweep dwells from the source
// segment walk, and the predicted successor linkage is checked node by
// node. Because each branch node's taken/fallback destinations are
// proven to be the genuine source edges, a mispredicted lane's
// demotion (resume the scalar walk at the actual successor) is
// equivalent to the unspeculated route by construction.
// ------------------------------------------------------------------

bool
Verifier::srcDecision(FsmId f, StateId s, std::size_t &edge,
                      StateId &taken, StateId &fall) const
{
    const State &st = d.fsms()[f].states[s];
    if (st.terminal)
        return false;
    const FieldVec zeros(d.fieldBounds().size(), 0);
    edge = 0;
    taken = -1;
    fall = -1;
    bool found = false;
    for (std::size_t i = 0; i < st.transitions.size(); ++i) {
        const Transition &t = st.transitions[i];
        if (!t.guard) {
            if (!found)
                return false;  // Unconditional first edge: static.
            fall = t.dst;
            return true;
        }
        if (t.guard->isConstant()) {
            if (t.guard->eval(zeros) == 0)
                continue;  // Constant-false: never fires.
            if (!found)
                return false;  // Constant-true first: static route.
            fall = t.dst;
            return true;
        }
        if (found)
            return false;  // A second dynamic guard: not two-way.
        found = true;
        edge = i;
        taken = t.dst;
    }
    return false;  // No fallback edge: guard-false would panic.
}

void
Verifier::specPass()
{
    if (c.specTraces.size() != c.cfsms.size()) {
        diag(VerifyCode::SpeculationMismatch, -1, -1, -1,
             "speculation table covers " +
                 std::to_string(c.specTraces.size()) +
                 " FSM(s), design has " +
                 std::to_string(c.cfsms.size()));
        return;
    }

    const auto &fsms = d.fsms();
    for (std::size_t f = 0; f < fsms.size(); ++f) {
        const CSpecTrace &sp = c.specTraces[f];
        if (!sp.valid)
            continue;
        const Fsm &fsm = fsms[f];
        const CFsm &cf = c.cfsms[f];
        const FsmId fid = static_cast<FsmId>(f);

        if (c.traces[f].valid) {
            diag(VerifyCode::SpeculationMismatch, fid, -1, -1,
                 "FSM '" + fsm.name + "' is statically lockstep but "
                 "carries a speculative route as well");
            continue;
        }
        if (static_cast<std::size_t>(sp.first) + sp.count >
            c.specNodes.size()) {
            diag(VerifyCode::SpeculationMismatch, fid, -1, -1,
                 "FSM '" + fsm.name + "' speculative route indexes "
                 "past the node pool");
            continue;
        }

        std::vector<bool> visited(fsm.states.size(), false);
        StateId cur = fsm.initial;
        std::size_t idx = sp.first;
        const std::size_t end = sp.first + sp.count;
        bool any_branch = false;
        bool bad = false;
        bool ended = false;
        while (true) {
            if (idx == end) {
                diag(VerifyCode::SpeculationMismatch, fid, cur, -1,
                     "FSM '" + fsm.name + "' speculative route ends "
                     "at state '" + stateName(fid, cur) +
                     "' before the source walk terminates");
                bad = true;
                break;
            }
            const CSpecNode &nd = c.specNodes[idx];
            const std::size_t g = cf.firstState +
                static_cast<std::size_t>(cur);
            if (nd.g != g) {
                diag(VerifyCode::SpeculationMismatch, fid, cur, -1,
                     "FSM '" + fsm.name + "' speculative node " +
                         std::to_string(idx - sp.first) +
                         " visits global state " +
                         std::to_string(nd.g) +
                         ", source walk is at " + std::to_string(g));
                bad = true;
                break;
            }
            if (visited[cur]) {
                diag(VerifyCode::SpeculationMismatch, fid, cur, -1,
                     "FSM '" + fsm.name + "' predicted path loops "
                     "through state '" + stateName(fid, cur) + "'");
                bad = true;
                break;
            }
            visited[cur] = true;

            if (expDynHead[g]) {
                // Branch node: re-derive the two-way decision from the
                // source transition relation and demand the compiled
                // node routes over exactly those edges.
                if (!nd.branch) {
                    diag(VerifyCode::SpeculationMismatch, fid, cur, -1,
                         "FSM '" + fsm.name + "' sweeps over "
                         "branch-dynamic state '" +
                             stateName(fid, cur) + "'");
                    bad = true;
                    break;
                }
                std::size_t edge = 0;
                StateId taken = -1;
                StateId fall = -1;
                if (!srcDecision(fid, cur, edge, taken, fall)) {
                    diag(VerifyCode::SpeculationMismatch, fid, cur, -1,
                         "FSM '" + fsm.name + "' speculates state '" +
                             stateName(fid, cur) +
                             "' which is not a two-way branch with a "
                             "static fallback in the source");
                    bad = true;
                    break;
                }
                const CState &cs = c.states[g];
                const std::int32_t want_guard =
                    c.trans[cs.firstTrans + edge].guard;
                if (nd.guard != want_guard || nd.takenDst != taken ||
                    nd.notDst != fall) {
                    diag(VerifyCode::SpeculationMismatch, fid, cur,
                         nd.guard,
                         "FSM '" + fsm.name + "' decision at state '" +
                             stateName(fid, cur) +
                             "' diverges from the source: compiled "
                             "(guard #" + std::to_string(nd.guard) +
                             ", taken " + std::to_string(nd.takenDst) +
                             ", fallback " + std::to_string(nd.notDst) +
                             "), source (guard #" +
                             std::to_string(want_guard) + ", taken " +
                             std::to_string(taken) + ", fallback " +
                             std::to_string(fall) + ")");
                    bad = true;
                    break;
                }
                if (nd.predictTaken != (c.specPredict[g] != 0)) {
                    diag(VerifyCode::SpeculationMismatch, fid, cur, -1,
                         "FSM '" + fsm.name + "' node at state '" +
                             stateName(fid, cur) +
                             "' predicts the " +
                             (nd.predictTaken ? "taken" : "fallback") +
                             " edge, prediction table says " +
                             (c.specPredict[g] != 0 ? "taken"
                                                    : "fallback"));
                    bad = true;
                    break;
                }
                any_branch = true;
                cur = nd.predictTaken ? taken : fall;
                ++idx;
                continue;
            }

            // Sweep node: the statically-routed segment headed here.
            if (nd.branch) {
                diag(VerifyCode::SpeculationMismatch, fid, cur, -1,
                     "FSM '" + fsm.name + "' carries a branch node at "
                     "statically-routed state '" +
                         stateName(fid, cur) + "'");
                bad = true;
                break;
            }
            if (nd.cycles != expStaticCycles[g]) {
                diag(VerifyCode::SpeculationMismatch, fid, cur, -1,
                     "FSM '" + fsm.name + "' sweep at state '" +
                         stateName(fid, cur) + "' presums " +
                         std::to_string(nd.cycles) +
                         " cycle(s), source walk presums " +
                         std::to_string(expStaticCycles[g]));
                bad = true;
                break;
            }
            ++idx;
            const StateId nxt = expNextOf[g];
            if (nxt < 0) {
                ended = true;
                break;
            }
            cur = nxt;
        }

        if (bad || !ended)
            continue;
        if (idx != end) {
            diag(VerifyCode::SpeculationMismatch, fid, -1, -1,
                 "FSM '" + fsm.name + "' speculative route carries " +
                     std::to_string(end - idx) +
                     " node(s) past the source walk's end");
            continue;
        }
        if (!any_branch) {
            diag(VerifyCode::SpeculationMismatch, fid, -1, -1,
                 "FSM '" + fsm.name + "' speculative route contains "
                 "no branch — it should be statically lockstep");
        }
    }
}

// ------------------------------------------------------------------
// Pass 7: feature-tap audit. The taps are re-derived from the feature
// list alone (not through the Instrumenter the compiler used), over
// the source-derived slot chains and the source transitions, and
// compared exactly: each segment's merged deltas as an ordered
// (feature, delta) list, the range feature of each compressed run
// closed by a dynamic counter slot, and each branch-dynamic state's
// arm and edge features. Taps the run never reads must be absent.
// ------------------------------------------------------------------

void
Verifier::tapPass()
{
    const CompiledDesign::CTaps &tp = c.taps;
    const std::vector<FeatureSpec> &specs = tp.specs;
    rep.tapFeatures = specs.size();
    if (tp.segFirst.size() != c.segs.size() + 1 ||
        tp.stateArm.size() != c.states.size() ||
        tp.trans.size() != c.trans.size() ||
        tp.segFirst.back() != tp.pool.size()) {
        diag(VerifyCode::TapMismatch, -1, -1, -1,
             "feature-tap tables do not match the compiled tables' "
             "shape");
        return;
    }

    // Which feature each event feeds, straight from the spec list.
    const std::size_t num_ctr = d.counters().size();
    std::map<std::tuple<FsmId, StateId, StateId>, std::int32_t> stc;
    std::vector<std::int32_t> ic(num_ctr, -1);
    std::vector<std::int32_t> siv(num_ctr, -1);
    std::vector<std::int32_t> spv(num_ctr, -1);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const FeatureSpec &sp = specs[i];
        const auto k = static_cast<std::int32_t>(i);
        if (sp.kind == FeatureKind::Stc) {
            stc[{sp.fsm, sp.src, sp.dst}] = k;
            continue;
        }
        if (sp.counter < 0 ||
            static_cast<std::size_t>(sp.counter) >= num_ctr) {
            diag(VerifyCode::TapMismatch, -1, -1, -1,
                 "feature '" + sp.name + "' names no counter");
            continue;
        }
        (sp.kind == FeatureKind::Ic ? ic
         : sp.kind == FeatureKind::Siv ? siv : spv)[sp.counter] = k;
    }
    const auto stcOf = [&](FsmId f, StateId s, StateId dst) {
        const auto it = stc.find({f, s, dst});
        return it == stc.end() ? -1 : it->second;
    };
    const auto valueOf = [&](CounterId ctr, bool down) {
        return down ? siv[ctr] : spv[ctr];
    };
    const auto check = [&](std::int32_t got, std::int32_t want, FsmId f,
                           StateId s, const std::string &what) {
        if (got >= 0)
            ++rep.tapsChecked;
        if (got != want) {
            diag(VerifyCode::TapMismatch, f, s, -1,
                 what + " feeds feature " + std::to_string(got) +
                     ", the source event feeds " + std::to_string(want));
        }
    };

    const std::int64_t lim = CompiledDesign::kExactLimit;
    const auto &fsms = d.fsms();
    for (std::size_t fi = 0; fi < fsms.size(); ++fi) {
        const Fsm &fsm = fsms[fi];
        const CFsm &cf = c.cfsms[fi];
        const FsmId f = static_cast<FsmId>(fi);
        for (std::size_t si = 0; si < fsm.states.size(); ++si) {
            const StateId s = static_cast<StateId>(si);
            const std::size_t g = cf.firstState + si;
            const CSegment &seg = c.segs[g];
            const std::string seg_name =
                "segment '" + stateName(f, s) + "'";

            std::vector<ExpSlot> exp;
            StateId next = -1;
            deriveChain(f, s, exp, next);

            // The chain's transitions and arms, merged per feature with
            // the compiler's saturation.
            std::map<std::int32_t, std::int64_t> want;
            const auto bump = [&](std::int32_t k, std::int64_t v) {
                if (k >= 0 && v > 0)
                    want[k] = std::min(want[k] + std::min(v, lim), lim);
            };
            // Each dwell-dynamic slot closes a compressed run, whose tap
            // names the feature the slot's range feeds; a trailing
            // static run taps nothing.
            std::vector<std::int32_t> want_dyn;
            bool trailing = false;
            for (const ExpSlot &sl : exp) {
                if (sl.counter >= 0) {
                    bump(ic[sl.counter], 1);
                    if (sl.prog < 0) {
                        bump(siv[sl.counter], sl.armInit);
                        bump(spv[sl.counter], sl.armFinal);
                    }
                }
                if (sl.dst >= 0)
                    bump(stcOf(f, sl.src, sl.dst), 1);
                trailing = sl.prog < 0;
                if (sl.prog >= 0) {
                    want_dyn.push_back(sl.counter < 0
                                           ? -1
                                           : valueOf(sl.counter, sl.down));
                }
            }
            if (trailing)
                want_dyn.push_back(-1);
            if (seg.numRuns == want_dyn.size() &&
                static_cast<std::size_t>(seg.firstRun) + seg.numRuns <=
                    c.runs.size()) {
                for (std::size_t r = 0; r < want_dyn.size(); ++r) {
                    check(c.runs[seg.firstRun + r].dynTap, want_dyn[r], f,
                          s, "run " + std::to_string(r) + " of " +
                                 seg_name);
                }
            }
            const std::uint32_t first = tp.segFirst[g];
            const std::uint32_t last = tp.segFirst[g + 1];
            bool same = first <= last && last - first == want.size();
            if (same) {
                std::uint32_t k = first;
                for (const auto &[feat, delta] : want) {
                    const CompiledDesign::CTap &t = tp.pool[k++];
                    same &= t.feature == feat && t.delta == delta;
                }
            }
            if (first <= last)
                rep.tapsChecked += last - first;
            if (!same) {
                diag(VerifyCode::TapMismatch, f, s, -1,
                     seg_name + " carries feature deltas that differ "
                                "from its transitions and arms");
            }

            // Branch-dynamic states tap their own arm and the edge they
            // take; every other state's arm and edge taps stay empty.
            const State &st = fsm.states[si];
            const CState &cs = c.states[g];
            const bool dyn = exp.empty();
            CompiledDesign::CArmTap arm;
            if (dyn && st.kind == LatencyKind::CounterWait) {
                arm.ic = ic[st.counter];
                arm.value = valueOf(
                    st.counter,
                    d.counters()[st.counter].dir == CounterDir::Down);
            }
            check(tp.stateArm[g].ic, arm.ic, f, s,
                  "the arm count of state '" + stateName(f, s) + "'");
            check(tp.stateArm[g].value, arm.value, f, s,
                  "the arm value of state '" + stateName(f, s) + "'");
            for (std::size_t t = 0; t < st.transitions.size() &&
                                    cs.firstTrans + t < tp.trans.size();
                 ++t) {
                const StateId dst = st.transitions[t].dst;
                check(tp.trans[cs.firstTrans + t],
                      dyn ? stcOf(f, s, dst) : -1, f, s,
                      "edge " + std::to_string(t) + " of state '" +
                          stateName(f, s) + "'");
            }
        }
    }
}

VerifyReport
verifyCompiledDesign(const CompiledDesign &comp)
{
    Verifier v(comp);
    return v.run();
}

VerifyMode
verifyModeFromEnv()
{
    const char *v = std::getenv("PREDVFS_VERIFY");
    if (!v)
        return VerifyMode::Enforce;
    const std::string s(v);
    if (s == "0" || s == "off")
        return VerifyMode::Off;
    if (s == "warn")
        return VerifyMode::Warn;
    return VerifyMode::Enforce;
}

void
verifyOnBuild(const CompiledDesign &comp)
{
    const VerifyMode mode = verifyModeFromEnv();
    if (mode == VerifyMode::Off)
        return;
    const VerifyReport rep = verifyCompiledDesign(comp);
    if (rep.clean())
        return;
    std::ostringstream os;
    writeVerifyReport(os, comp.design(), rep);
    if (mode == VerifyMode::Warn) {
        util::warn("translation validation failed for design '",
                   comp.design().name(), "' (PREDVFS_VERIFY=warn):\n",
                   os.str());
        return;
    }
    panic("translation validation failed for design '",
          comp.design().name(), "' — the compiled artifact is not a "
          "faithful image of the source (set PREDVFS_VERIFY=warn to "
          "continue anyway):\n",
          os.str());
}

// ------------------------------------------------------------------
// Mutation harness: seeded miscompile injections. Each kind corrupts
// the compiled tables the way a real compiler bug would; the tests
// assert the validator statically rejects every one.
// ------------------------------------------------------------------

const char *
miscompileName(Miscompile kind)
{
    switch (kind) {
      case Miscompile::DropAffineTerm: return "drop-affine-term";
      case Miscompile::AffineImmOffByOne: return "affine-imm-off-by-one";
      case Miscompile::SwapBinOperands: return "swap-bin-operands";
      case Miscompile::WrongOpcode: return "wrong-opcode";
      case Miscompile::PoolConstCorrupt: return "pool-const-corrupt";
      case Miscompile::StackImbalance: return "stack-imbalance";
      case Miscompile::FieldIndexCorrupt: return "field-index-corrupt";
      case Miscompile::PresummedCyclesOffByOne:
        return "presummed-cycles-off-by-one";
      case Miscompile::SlotDwellCorrupt: return "slot-dwell-corrupt";
      case Miscompile::SlotEnergyCorrupt: return "slot-energy-corrupt";
      case Miscompile::AddendCorrupt: return "addend-corrupt";
      case Miscompile::SegmentRerouted: return "segment-rerouted";
      case Miscompile::TraceMisroute: return "trace-misroute";
      case Miscompile::TraceCycleSkew: return "trace-cycle-skew";
      case Miscompile::GuardDropped: return "guard-dropped";
      case Miscompile::TransitionRetarget: return "transition-retarget";
      case Miscompile::StateEnergyCorrupt:
        return "state-energy-corrupt";
      case Miscompile::FixedDwellCorrupt: return "fixed-dwell-corrupt";
      case Miscompile::JobOverheadCorrupt:
        return "job-overhead-corrupt";
      case Miscompile::SpecRetarget: return "spec-retarget";
      case Miscompile::SpecPredictFlip: return "spec-predict-flip";
      case Miscompile::SpecCycleSkew: return "spec-cycle-skew";
      case Miscompile::WrongTap: return "wrong-tap";
    }
    return "?";
}

namespace {

std::int64_t
wrapInc(std::int64_t x)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) + 1);
}

/** One LCG step; the mutation harness's entire randomness budget. */
std::size_t
pickSite(unsigned seed, std::size_t n)
{
    const unsigned s = seed * 1664525u + 1013904223u;
    return static_cast<std::size_t>(s % n);
}

bool
pointBounds(const Design &d, FieldId f)
{
    const FieldBounds &b = d.fieldBounds()[f];
    return b.lo == b.hi;
}

/** The complement of a comparison — differs at *every* input. */
bool
complementCmp(BOp op, BOp &out)
{
    switch (op) {
      case BOp::Eq: out = BOp::Ne; return true;
      case BOp::Ne: out = BOp::Eq; return true;
      case BOp::Lt: out = BOp::Ge; return true;
      case BOp::Le: out = BOp::Gt; return true;
      case BOp::Gt: out = BOp::Le; return true;
      case BOp::Ge: out = BOp::Lt; return true;
      default: return false;
    }
}

/** A plausible wrong operator for a node-level miscompile. */
bool
dualOp(BOp op, BOp &out)
{
    if (complementCmp(op, out))
        return true;
    switch (op) {
      case BOp::Add: out = BOp::Sub; return true;
      case BOp::Sub: out = BOp::Add; return true;
      case BOp::Mul: out = BOp::Add; return true;
      case BOp::Div: out = BOp::Mul; return true;
      case BOp::Mod: out = BOp::Add; return true;
      case BOp::Min: out = BOp::Max; return true;
      case BOp::Max: out = BOp::Min; return true;
      case BOp::And: out = BOp::Or; return true;
      case BOp::Or: out = BOp::And; return true;
      default: return false;
    }
}

bool
isNonCommutative(BOp op)
{
    switch (op) {
      case BOp::Sub: case BOp::Div: case BOp::Mod: case BOp::Lt:
      case BOp::Le: case BOp::Gt: case BOp::Ge:
        return true;
      default:
        return false;
    }
}

} // namespace

std::string
injectMiscompile(CompiledDesign &comp, Miscompile kind, unsigned seed)
{
    using CExpr = CompiledDesign::CExpr;
    using CTerm = CompiledDesign::CTerm;
    const Design &d = *comp.src;
    const auto tag = [&](const std::string &what) {
        return std::string(miscompileName(kind)) + ": " + what;
    };
    // A Bin2 whose operands are one node, or two reads of one field:
    // swapping them, or trading Min/Max or And/Or, is an identity.
    const auto sameOperands = [&](const CExpr &e) {
        const CExpr &a = comp.programs[e.a];
        const CExpr &b = comp.programs[e.b];
        return e.a == e.b ||
            (a.kind == CExpr::Kind::Field &&
             b.kind == CExpr::Kind::Field && a.field == b.field);
    };

    switch (kind) {
      case Miscompile::DropAffineTerm: {
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < comp.programs.size(); ++i) {
            const CExpr &e = comp.programs[i];
            if (e.kind != CExpr::Kind::Affine || e.count < 1)
                continue;
            const CTerm &t = comp.affinePool[e.first + e.count - 1];
            const bool trivial = t.kind == CTerm::Kind::Linear
                                     ? t.a == 0
                                     : (t.a == 0 && t.b == 0);
            if (!trivial)
                sites.push_back(i);
        }
        if (sites.empty())
            return "";
        const std::size_t p = sites[pickSite(seed, sites.size())];
        comp.programs[p].count -= 1;
        return tag("dropped the last merged term of affine program #" +
                   std::to_string(p));
      }

      case Miscompile::AffineImmOffByOne: {
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < comp.programs.size(); ++i) {
            const CExpr::Kind k = comp.programs[i].kind;
            if (k == CExpr::Kind::Affine || k == CExpr::Kind::Const)
                sites.push_back(i);
        }
        if (sites.empty())
            return "";
        const std::size_t p = sites[pickSite(seed, sites.size())];
        comp.programs[p].imm = wrapInc(comp.programs[p].imm);
        return tag("bumped the immediate of program #" +
                   std::to_string(p));
      }

      case Miscompile::SwapBinOperands: {
        // Bin2 is the only node with two operand slots; a BinFC has
        // no swapped form.
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < comp.programs.size(); ++i) {
            const CExpr &e = comp.programs[i];
            if (e.kind == CExpr::Kind::Bin2 && isNonCommutative(e.op) &&
                !sameOperands(e))
                sites.push_back(i);
        }
        if (sites.empty())
            return "";
        const std::size_t p = sites[pickSite(seed, sites.size())];
        std::swap(comp.programs[p].a, comp.programs[p].b);
        return tag("swapped the operands of non-commutative program #" +
                   std::to_string(p));
      }

      case Miscompile::WrongOpcode: {
        // Node-level sites: any binary specialisation with a dual.
        // Code-level sites: comparison instructions only — their
        // complements differ at every input, so the rejection does not
        // hinge on a particular field domain.
        struct Site
        {
            bool inCode;
            std::size_t idx;
            BOp repl;
        };
        std::vector<Site> sites;
        for (std::size_t i = 0; i < comp.programs.size(); ++i) {
            const CExpr &e = comp.programs[i];
            if (e.kind != CExpr::Kind::BinFC &&
                e.kind != CExpr::Kind::Bin2)
                continue;
            BOp repl;
            if (!dualOp(e.op, repl))
                continue;
            if (e.kind == CExpr::Kind::Bin2 && sameOperands(e) &&
                (e.op == BOp::Min || e.op == BOp::Max ||
                 e.op == BOp::And || e.op == BOp::Or))
                continue;
            sites.push_back({false, i, repl});
        }
        for (std::size_t i = 0; i < comp.code.size(); ++i) {
            BOp repl;
            if (complementCmp(comp.code[i].op, repl))
                sites.push_back({true, i, repl});
        }
        if (sites.empty())
            return "";
        const Site &s = sites[pickSite(seed, sites.size())];
        if (s.inCode) {
            comp.code[s.idx].op = s.repl;
            return tag("complemented the comparison at instruction " +
                       std::to_string(s.idx));
        }
        comp.programs[s.idx].op = s.repl;
        return tag("replaced the operator of program #" +
                   std::to_string(s.idx) + " with its dual");
      }

      case Miscompile::PoolConstCorrupt: {
        std::set<std::int32_t> used;
        for (const BInstr &in : comp.code)
            if (in.op == BOp::PushConst)
                used.insert(in.arg);
        if (used.empty())
            return "";
        const std::vector<std::int32_t> sites(used.begin(), used.end());
        const std::int32_t k = sites[pickSite(seed, sites.size())];
        comp.pool[k] = wrapInc(comp.pool[k]);
        return tag("perturbed literal-pool entry " + std::to_string(k));
      }

      case Miscompile::StackImbalance: {
        std::vector<std::size_t> sites;
        for (const CExpr &e : comp.programs) {
            if (e.kind != CExpr::Kind::Program)
                continue;
            for (std::uint32_t i = 0; i < e.count; ++i) {
                const BOp op = comp.code[e.first + i].op;
                if (op == BOp::PushConst || op == BOp::PushField)
                    sites.push_back(e.first + i);
            }
        }
        if (sites.empty())
            return "";
        const std::size_t idx = sites[pickSite(seed, sites.size())];
        comp.code[idx].op = BOp::Add;
        comp.code[idx].arg = 0;
        return tag("turned the push at instruction " +
                   std::to_string(idx) + " into a binary op");
      }

      case Miscompile::FieldIndexCorrupt: {
        const std::size_t nf = d.numFields();
        if (nf < 2)
            return "";
        const auto eligible = [&](FieldId f) {
            const FieldId g =
                static_cast<FieldId>((f + 1) % static_cast<int>(nf));
            return !pointBounds(d, f) && !pointBounds(d, g);
        };
        struct Site
        {
            enum What
            {
                NodeField, TermField, CodeField
            } what;
            std::size_t idx;
        };
        std::vector<Site> sites;
        for (std::size_t i = 0; i < comp.programs.size(); ++i) {
            const CExpr &e = comp.programs[i];
            switch (e.kind) {
              case CExpr::Kind::Field:
              case CExpr::Kind::BinFC:
                if (eligible(e.field))
                    sites.push_back({Site::NodeField, i});
                break;
              case CExpr::Kind::Affine:
                for (std::uint32_t t = 0; t < e.count; ++t) {
                    const CTerm &term = comp.affinePool[e.first + t];
                    const bool live =
                        term.kind == CTerm::Kind::Linear ? term.a != 0
                                                         : true;
                    if (live && eligible(term.field))
                        sites.push_back({Site::TermField, e.first + t});
                }
                break;
              default:
                break;
            }
        }
        for (std::size_t i = 0; i < comp.code.size(); ++i) {
            if (comp.code[i].op == BOp::PushField &&
                eligible(comp.code[i].arg))
                sites.push_back({Site::CodeField, i});
        }
        if (sites.empty())
            return "";
        const Site &s = sites[pickSite(seed, sites.size())];
        const auto shift = [&](FieldId f) {
            return static_cast<FieldId>((f + 1) %
                                        static_cast<int>(nf));
        };
        switch (s.what) {
          case Site::NodeField:
            comp.programs[s.idx].field =
                shift(comp.programs[s.idx].field);
            break;
          case Site::TermField:
            comp.affinePool[s.idx].field =
                shift(comp.affinePool[s.idx].field);
            break;
          case Site::CodeField:
            comp.code[s.idx].arg = shift(comp.code[s.idx].arg);
            break;
        }
        return tag("shifted a field operand to its neighbour");
      }

      case Miscompile::PresummedCyclesOffByOne: {
        if (comp.runs.empty())
            return "";
        const std::size_t r = pickSite(seed, comp.runs.size());
        comp.runs[r].cycles += 1;
        return tag("bumped the cycle presum of run " +
                   std::to_string(r));
      }

      case Miscompile::SlotDwellCorrupt: {
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < comp.slots.size(); ++i)
            if (comp.slots[i].prog < 0)
                sites.push_back(i);
        if (sites.empty())
            return "";
        const std::size_t i = sites[pickSite(seed, sites.size())];
        comp.slots[i].cycles += 1;
        return tag("bumped the static dwell of slot " +
                   std::to_string(i));
      }

      case Miscompile::SlotEnergyCorrupt: {
        if (comp.slots.empty())
            return "";
        const std::size_t i = pickSite(seed, comp.slots.size());
        comp.slots[i].energy += 0.5;
        return tag("perturbed the energy addend/rate of slot " +
                   std::to_string(i));
      }

      case Miscompile::AddendCorrupt: {
        if (comp.addendPool.empty())
            return "";
        const std::size_t k = pickSite(seed, comp.addendPool.size());
        comp.addendPool[k] += 1.0;
        return tag("perturbed dense energy addend " +
                   std::to_string(k));
      }

      case Miscompile::SegmentRerouted: {
        struct Site
        {
            std::size_t idx;
            StateId repl;
        };
        std::vector<Site> sites;
        for (std::size_t f = 0; f < comp.cfsms.size(); ++f) {
            const auto &cf = comp.cfsms[f];
            for (std::uint32_t s = 0; s < cf.numStates; ++s) {
                const std::size_t g = cf.firstState + s;
                const StateId old = comp.segs[g].next;
                const StateId repl = static_cast<StateId>(
                    old < 0 ? 0
                            : (old + 1) %
                                  static_cast<StateId>(cf.numStates));
                if (repl != old)
                    sites.push_back({g, repl});
            }
        }
        if (sites.empty())
            return "";
        const Site &s = sites[pickSite(seed, sites.size())];
        comp.segs[s.idx].next = s.repl;
        return tag("repointed segment " + std::to_string(s.idx) +
                   "'s resume state");
      }

      case Miscompile::TraceMisroute: {
        for (std::size_t f = 0; f < comp.traces.size(); ++f) {
            if (comp.traces[f].valid) {
                comp.traces[f].valid = false;
                return tag("demoted lockstep FSM " + std::to_string(f) +
                           " to the scalar path");
            }
        }
        if (comp.traces.empty())
            return "";
        comp.traces[0].valid = true;
        return tag("promoted branch-dynamic FSM 0 to lockstep");
      }

      case Miscompile::TraceCycleSkew: {
        std::vector<std::size_t> sites;
        for (std::size_t f = 0; f < comp.traces.size(); ++f)
            if (comp.traces[f].valid)
                sites.push_back(f);
        if (sites.empty())
            return "";
        const std::size_t f = sites[pickSite(seed, sites.size())];
        comp.traces[f].staticCycles += 1;
        return tag("skewed the presummed cycles of lockstep FSM " +
                   std::to_string(f));
      }

      case Miscompile::GuardDropped: {
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < comp.trans.size(); ++i)
            if (comp.trans[i].guard >= 0)
                sites.push_back(i);
        if (sites.empty())
            return "";
        const std::size_t i = sites[pickSite(seed, sites.size())];
        comp.trans[i].guard = -1;
        return tag("dropped the guard of transition " +
                   std::to_string(i));
      }

      case Miscompile::TransitionRetarget: {
        struct Site
        {
            std::size_t idx;
            StateId repl;
        };
        std::vector<Site> sites;
        for (std::size_t f = 0; f < comp.cfsms.size(); ++f) {
            const auto &cf = comp.cfsms[f];
            if (cf.numStates < 2)
                continue;
            for (std::uint32_t s = 0; s < cf.numStates; ++s) {
                const auto &cs = comp.states[cf.firstState + s];
                for (std::uint32_t t = 0; t < cs.numTrans; ++t) {
                    const std::size_t idx = cs.firstTrans + t;
                    const StateId repl = static_cast<StateId>(
                        (comp.trans[idx].dst + 1) %
                        static_cast<StateId>(cf.numStates));
                    sites.push_back({idx, repl});
                }
            }
        }
        if (sites.empty())
            return "";
        const Site &s = sites[pickSite(seed, sites.size())];
        comp.trans[s.idx].dst = s.repl;
        return tag("retargeted transition " + std::to_string(s.idx));
      }

      case Miscompile::StateEnergyCorrupt: {
        if (comp.states.empty())
            return "";
        const std::size_t i = pickSite(seed, comp.states.size());
        comp.states[i].energyPerCycle += 0.25;
        return tag("perturbed the energy rate of state " +
                   std::to_string(i));
      }

      case Miscompile::FixedDwellCorrupt: {
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < comp.states.size(); ++i)
            if (comp.states[i].kind == LatencyKind::Fixed)
                sites.push_back(i);
        if (sites.empty())
            return "";
        const std::size_t i = sites[pickSite(seed, sites.size())];
        comp.states[i].fixedDwell += 1;
        return tag("bumped the fixed dwell of state " +
                   std::to_string(i));
      }

      case Miscompile::JobOverheadCorrupt:
        comp.jobOverhead += 1;
        return tag("bumped the per-job overhead cycles");

      case Miscompile::SpecRetarget: {
        struct Site
        {
            std::size_t idx;
            StateId repl;
        };
        std::vector<Site> sites;
        for (std::size_t f = 0; f < comp.specTraces.size(); ++f) {
            const auto &sp = comp.specTraces[f];
            if (!sp.valid)
                continue;
            const auto &cf = comp.cfsms[f];
            if (cf.numStates < 2)
                continue;
            for (std::uint32_t k = 0; k < sp.count; ++k) {
                const std::size_t idx = sp.first + k;
                const auto &nd = comp.specNodes[idx];
                if (!nd.branch)
                    continue;
                const StateId repl = static_cast<StateId>(
                    (nd.takenDst + 1) %
                    static_cast<StateId>(cf.numStates));
                if (repl != nd.takenDst)
                    sites.push_back({idx, repl});
            }
        }
        if (sites.empty())
            return "";
        const Site &s = sites[pickSite(seed, sites.size())];
        comp.specNodes[s.idx].takenDst = s.repl;
        return tag("retargeted the taken edge of speculative node " +
                   std::to_string(s.idx));
      }

      case Miscompile::SpecPredictFlip: {
        std::vector<std::size_t> sites;
        for (std::size_t f = 0; f < comp.specTraces.size(); ++f) {
            const auto &sp = comp.specTraces[f];
            if (!sp.valid)
                continue;
            for (std::uint32_t k = 0; k < sp.count; ++k)
                if (comp.specNodes[sp.first + k].branch)
                    sites.push_back(sp.first + k);
        }
        if (sites.empty())
            return "";
        const std::size_t i = sites[pickSite(seed, sites.size())];
        comp.specNodes[i].predictTaken = !comp.specNodes[i].predictTaken;
        return tag("flipped the predicted outcome of speculative "
                   "node " + std::to_string(i));
      }

      case Miscompile::SpecCycleSkew: {
        std::vector<std::size_t> sites;
        for (std::size_t f = 0; f < comp.specTraces.size(); ++f) {
            const auto &sp = comp.specTraces[f];
            if (!sp.valid)
                continue;
            for (std::uint32_t k = 0; k < sp.count; ++k)
                if (!comp.specNodes[sp.first + k].branch)
                    sites.push_back(sp.first + k);
        }
        if (sites.empty())
            return "";
        const std::size_t i = sites[pickSite(seed, sites.size())];
        comp.specNodes[i].cycles += 1;
        return tag("skewed the presummed cycles of speculative "
                   "sweep node " + std::to_string(i));
      }

      case Miscompile::WrongTap: {
        CompiledDesign::CTaps &tp = comp.taps;
        const std::vector<FeatureSpec> &specs = tp.specs;
        // Every tap site as a pointer to its feature index.
        std::vector<std::int32_t *> sites;
        for (CompiledDesign::CTap &t : tp.pool)
            sites.push_back(&t.feature);
        for (CompiledDesign::CRun &r : comp.runs)
            if (r.dynTap >= 0)
                sites.push_back(&r.dynTap);
        for (CompiledDesign::CArmTap &a : tp.stateArm) {
            if (a.ic >= 0)
                sites.push_back(&a.ic);
            if (a.value >= 0)
                sites.push_back(&a.value);
        }
        for (std::int32_t &k : tp.trans)
            if (k >= 0)
                sites.push_back(&k);

        switch (seed % 3) {
          case 0: {
            if (tp.pool.empty())
                return "";
            const std::size_t i = pickSite(seed, tp.pool.size());
            tp.pool[i].delta += 1;
            return tag("bumped the delta of feature '" +
                       specs[tp.pool[i].feature].name +
                       "' in tap " + std::to_string(i));
          }
          case 1: {
            if (sites.empty() || specs.size() < 2)
                return "";
            std::int32_t &k = *sites[pickSite(seed, sites.size())];
            const std::string was = specs[k].name;
            k = static_cast<std::int32_t>(
                (static_cast<std::size_t>(k) + 1) % specs.size());
            return tag("pointed a tap of feature '" + was +
                       "' at feature '" + specs[k].name + "'");
          }
          default: {
            // SIV and SPV of one counter: the feature the other
            // counter direction would feed.
            const auto partner = [&](std::int32_t k) {
                const FeatureSpec &sp = specs[k];
                if (sp.kind != FeatureKind::Siv &&
                    sp.kind != FeatureKind::Spv)
                    return -1;
                const FeatureKind other = sp.kind == FeatureKind::Siv
                    ? FeatureKind::Spv
                    : FeatureKind::Siv;
                for (std::size_t j = 0; j < specs.size(); ++j)
                    if (specs[j].kind == other &&
                        specs[j].counter == sp.counter)
                        return static_cast<std::int32_t>(j);
                return -1;
            };
            std::vector<std::int32_t *> swappable;
            for (std::int32_t *k : sites)
                if (partner(*k) >= 0)
                    swappable.push_back(k);
            if (swappable.empty())
                return "";
            std::int32_t &k =
                *swappable[pickSite(seed, swappable.size())];
            const std::string was = specs[k].name;
            k = partner(k);
            return tag("swapped a tap of '" + was + "' for '" +
                       specs[k].name + "'");
          }
        }
      }
    }
    return "";
}

} // namespace rtl
} // namespace predvfs
