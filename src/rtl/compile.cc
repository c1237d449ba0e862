#include "rtl/compile.hh"

#include <algorithm>
#include <map>

#include "rtl/verify.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace predvfs {
namespace rtl {

using util::panic;
using util::panicIf;

/** Keep a function or lambda out of line (GCC/Clang; no-op elsewhere). */
#if defined(__GNUC__) || defined(__clang__)
#define PREDVFS_NOINLINE __attribute__((noinline))
#else
#define PREDVFS_NOINLINE
#endif

namespace {

/** Map a tree operator to its bytecode opcode (non-leaf ops only). */
BOp
lowerOp(Op op)
{
    switch (op) {
      case Op::Add: return BOp::Add;
      case Op::Sub: return BOp::Sub;
      case Op::Mul: return BOp::Mul;
      case Op::Div: return BOp::Div;
      case Op::Mod: return BOp::Mod;
      case Op::Min: return BOp::Min;
      case Op::Max: return BOp::Max;
      case Op::Eq: return BOp::Eq;
      case Op::Ne: return BOp::Ne;
      case Op::Lt: return BOp::Lt;
      case Op::Le: return BOp::Le;
      case Op::Gt: return BOp::Gt;
      case Op::Ge: return BOp::Ge;
      case Op::And: return BOp::And;
      case Op::Or: return BOp::Or;
      case Op::Not: return BOp::Not;
      case Op::Select: return BOp::Select;
      default:
        panic("lowerOp: leaf op ", static_cast<int>(op));
    }
    return BOp::Add;
}

/**
 * Run one straight-line program. @p sp_base must have room for the
 * program's declared stack depth; the result is the single value left
 * on the stack.
 *
 * On GCC/Clang dispatch is token-threaded: each handler jumps
 * directly to the next instruction's handler through a label table
 * (computed goto), so the indirect branch predictor sees one
 * per-opcode-pair branch instead of a single shared dispatch branch.
 * The portable switch loop below is the fallback — both execute the
 * identical per-op semantics.
 */
std::int64_t
execProgram(const BInstr *code, std::size_t n, const std::int64_t *pool,
            const std::int64_t *fields, std::int64_t *sp_base)
{
    if (n == 0)
        return 0;  // Program roots are never empty; defensive.
    std::int64_t *sp = sp_base;
#if defined(__GNUC__) || defined(__clang__)
    // One entry per BOp, in exact enum order.
    static const void *const kLabels[] = {
        &&l_push_const, &&l_push_field, &&l_add, &&l_sub, &&l_mul,
        &&l_div, &&l_mod, &&l_min, &&l_max, &&l_eq, &&l_ne, &&l_lt,
        &&l_le, &&l_gt, &&l_ge, &&l_and, &&l_or, &&l_not, &&l_select,
    };
    const BInstr *ip = code;
    const BInstr *const end = code + n;
#define PREDVFS_NEXT                                                   \
    do {                                                               \
        if (++ip == end)                                               \
            return sp[-1];                                             \
        goto *kLabels[static_cast<std::size_t>(ip->op)];               \
    } while (0)
    goto *kLabels[static_cast<std::size_t>(ip->op)];
  l_push_const: *sp++ = pool[ip->arg]; PREDVFS_NEXT;
  l_push_field: *sp++ = fields[ip->arg]; PREDVFS_NEXT;
  l_add: sp[-2] = sp[-2] + sp[-1]; --sp; PREDVFS_NEXT;
  l_sub: sp[-2] = sp[-2] - sp[-1]; --sp; PREDVFS_NEXT;
  l_mul: sp[-2] = sp[-2] * sp[-1]; --sp; PREDVFS_NEXT;
  l_div: sp[-2] = safeDiv(sp[-2], sp[-1]); --sp; PREDVFS_NEXT;
  l_mod: sp[-2] = safeMod(sp[-2], sp[-1]); --sp; PREDVFS_NEXT;
  l_min: sp[-2] = sp[-2] < sp[-1] ? sp[-2] : sp[-1]; --sp; PREDVFS_NEXT;
  l_max: sp[-2] = sp[-2] > sp[-1] ? sp[-2] : sp[-1]; --sp; PREDVFS_NEXT;
  l_eq: sp[-2] = sp[-2] == sp[-1] ? 1 : 0; --sp; PREDVFS_NEXT;
  l_ne: sp[-2] = sp[-2] != sp[-1] ? 1 : 0; --sp; PREDVFS_NEXT;
  l_lt: sp[-2] = sp[-2] < sp[-1] ? 1 : 0; --sp; PREDVFS_NEXT;
  l_le: sp[-2] = sp[-2] <= sp[-1] ? 1 : 0; --sp; PREDVFS_NEXT;
  l_gt: sp[-2] = sp[-2] > sp[-1] ? 1 : 0; --sp; PREDVFS_NEXT;
  l_ge: sp[-2] = sp[-2] >= sp[-1] ? 1 : 0; --sp; PREDVFS_NEXT;
  l_and: sp[-2] = (sp[-2] != 0 && sp[-1] != 0) ? 1 : 0; --sp;
    PREDVFS_NEXT;
  l_or: sp[-2] = (sp[-2] != 0 || sp[-1] != 0) ? 1 : 0; --sp;
    PREDVFS_NEXT;
  l_not: sp[-1] = sp[-1] == 0 ? 1 : 0; PREDVFS_NEXT;
  l_select: sp[-3] = sp[-3] != 0 ? sp[-2] : sp[-1]; sp -= 2;
    PREDVFS_NEXT;
#undef PREDVFS_NEXT
#else
    for (std::size_t i = 0; i < n; ++i) {
        const BInstr in = code[i];
        switch (in.op) {
          case BOp::PushConst: *sp++ = pool[in.arg]; break;
          case BOp::PushField: *sp++ = fields[in.arg]; break;
          case BOp::Add: sp[-2] = sp[-2] + sp[-1]; --sp; break;
          case BOp::Sub: sp[-2] = sp[-2] - sp[-1]; --sp; break;
          case BOp::Mul: sp[-2] = sp[-2] * sp[-1]; --sp; break;
          case BOp::Div: sp[-2] = safeDiv(sp[-2], sp[-1]); --sp; break;
          case BOp::Mod: sp[-2] = safeMod(sp[-2], sp[-1]); --sp; break;
          case BOp::Min:
            sp[-2] = sp[-2] < sp[-1] ? sp[-2] : sp[-1];
            --sp;
            break;
          case BOp::Max:
            sp[-2] = sp[-2] > sp[-1] ? sp[-2] : sp[-1];
            --sp;
            break;
          case BOp::Eq: sp[-2] = sp[-2] == sp[-1] ? 1 : 0; --sp; break;
          case BOp::Ne: sp[-2] = sp[-2] != sp[-1] ? 1 : 0; --sp; break;
          case BOp::Lt: sp[-2] = sp[-2] < sp[-1] ? 1 : 0; --sp; break;
          case BOp::Le: sp[-2] = sp[-2] <= sp[-1] ? 1 : 0; --sp; break;
          case BOp::Gt: sp[-2] = sp[-2] > sp[-1] ? 1 : 0; --sp; break;
          case BOp::Ge: sp[-2] = sp[-2] >= sp[-1] ? 1 : 0; --sp; break;
          case BOp::And:
            sp[-2] = (sp[-2] != 0 && sp[-1] != 0) ? 1 : 0;
            --sp;
            break;
          case BOp::Or:
            sp[-2] = (sp[-2] != 0 || sp[-1] != 0) ? 1 : 0;
            --sp;
            break;
          case BOp::Not: sp[-1] = sp[-1] == 0 ? 1 : 0; break;
          case BOp::Select:
            sp[-3] = sp[-3] != 0 ? sp[-2] : sp[-1];
            sp -= 2;
            break;
        }
    }
    return sp[-1];
#endif
}

/** Wrapping int64 helpers: reassociating an affine expression must
 *  agree with the tree's op-by-op result modulo 2^64, without tripping
 *  signed-overflow UB on the way. */
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

/** Builder-side mirror of CompiledDesign::CTerm (which is private). */
struct ATerm
{
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t z = 0;
    FieldId field = -1;
    BOp cmp = BOp::Eq;
    int kind = 0;  //!< 0 linear, 1 cond, 2 cond-compare.
};

bool
isCmpOp(Op op)
{
    switch (op) {
      case Op::Eq: case Op::Ne: case Op::Lt: case Op::Le:
      case Op::Gt: case Op::Ge:
        return true;
      default:
        return false;
    }
}

/** Is @p e the guard shape `fields[f] == k`? Outputs f and k. */
bool
isFieldEqConst(const Expr &e, FieldId &field, std::int64_t &key)
{
    static const FieldVec kNoFields;
    if (e.op() != Op::Eq)
        return false;
    if (e.args()[0]->op() == Op::Field && e.args()[1]->isConstant()) {
        field = e.args()[0]->fieldId();
        key = e.args()[1]->eval(kNoFields);
        return true;
    }
    if (e.args()[1]->op() == Op::Field && e.args()[0]->isConstant()) {
        field = e.args()[1]->fieldId();
        key = e.args()[0]->eval(kNoFields);
        return true;
    }
    return false;
}

/**
 * Fold a mode table — `select(f == k1, c1, select(f == k2, c2, ...,
 * cn))`, one field, distinct keys, constant arms — into affine terms:
 * the terminal constant joins the immediate and each arm becomes one
 * CondCmp term `(f == ki) ? scale*ci - scale*cn : 0`. The keys are
 * mutually exclusive on one field, so for any field value at most one
 * term fires and the sum reproduces the chain's selected arm exactly
 * (mod 2^64). Returns false (leaving no partial terms) on any other
 * shape.
 */
bool
foldSelectChain(const Expr &e, std::int64_t scale, std::int64_t &imm,
                std::vector<ATerm> &terms)
{
    static const FieldVec kNoFields;
    FieldId field = -1;
    std::vector<std::int64_t> keys;
    std::vector<std::int64_t> arms;
    const Expr *cur = &e;
    while (cur->op() == Op::Select) {
        FieldId f = -1;
        std::int64_t k = 0;
        if (!isFieldEqConst(*cur->args()[0], f, k) ||
            !cur->args()[1]->isConstant())
            return false;
        if (field < 0)
            field = f;
        else if (f != field)
            return false;
        for (const std::int64_t seen : keys)
            if (seen == k)
                return false;
        keys.push_back(k);
        arms.push_back(cur->args()[1]->eval(kNoFields));
        cur = cur->args()[2].get();
    }
    if (keys.size() < 2 || !cur->isConstant())
        return false;
    const std::int64_t term = cur->eval(kNoFields);
    imm = addWrap(imm, mulWrap(scale, term));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ATerm t;
        t.kind = 2;
        t.field = field;
        t.cmp = BOp::Eq;
        t.z = keys[i];
        t.a = addWrap(mulWrap(scale, arms[i]),
                      mulWrap(scale, mulWrap(term, -1)));
        t.b = 0;
        terms.push_back(t);
    }
    return true;
}

/**
 * Extract `imm + sum(terms)` from a tree of Add/Sub/Mul-by-constant
 * nodes, where a term is a scaled field or a constant-armed Select
 * (`field ? a : b`, or `field cmp c ? a : b`). These are the only ops
 * that distribute over the collected scale, so the reassociated sum
 * equals the tree's evaluation mod 2^64. With @p fold_chains,
 * same-field equality-keyed select chains fold too (the caller gates
 * this on the root's enumerable field domain so the translation
 * validator can still prove the reassociated form equivalent).
 */
bool
collectAffine(const Expr &e, std::int64_t scale, std::int64_t &imm,
              std::vector<ATerm> &terms, bool fold_chains)
{
    static const FieldVec kNoFields;
    if (e.isConstant()) {
        imm = addWrap(imm, mulWrap(scale, e.eval(kNoFields)));
        return true;
    }
    switch (e.op()) {
      case Op::Field: {
        ATerm t;
        t.a = scale;
        t.field = e.fieldId();
        terms.push_back(t);
        return true;
      }
      case Op::Add:
        return collectAffine(*e.args()[0], scale, imm, terms,
                             fold_chains) &&
               collectAffine(*e.args()[1], scale, imm, terms,
                             fold_chains);
      case Op::Sub:
        return collectAffine(*e.args()[0], scale, imm, terms,
                             fold_chains) &&
               collectAffine(*e.args()[1], mulWrap(scale, -1), imm,
                             terms, fold_chains);
      case Op::Mul:
        if (e.args()[0]->isConstant()) {
            return collectAffine(
                *e.args()[1],
                mulWrap(scale, e.args()[0]->eval(kNoFields)), imm,
                terms, fold_chains);
        }
        if (e.args()[1]->isConstant()) {
            return collectAffine(
                *e.args()[0],
                mulWrap(scale, e.args()[1]->eval(kNoFields)), imm,
                terms, fold_chains);
        }
        return false;
      case Op::Select: {
        const Expr &c = *e.args()[0];
        const Expr &ta = *e.args()[1];
        const Expr &fa = *e.args()[2];
        if (!ta.isConstant() || !fa.isConstant()) {
            return fold_chains &&
                foldSelectChain(e, scale, imm, terms);
        }
        ATerm t;
        t.a = mulWrap(scale, ta.eval(kNoFields));
        t.b = mulWrap(scale, fa.eval(kNoFields));
        if (c.op() == Op::Field) {
            t.kind = 1;
            t.field = c.fieldId();
        } else if (isCmpOp(c.op()) &&
                   c.args()[0]->op() == Op::Field &&
                   c.args()[1]->isConstant()) {
            t.kind = 2;
            t.field = c.args()[0]->fieldId();
            t.cmp = lowerOp(c.op());
            t.z = c.args()[1]->eval(kNoFields);
        } else {
            return false;
        }
        terms.push_back(t);
        return true;
      }
      default:
        return false;
    }
}

/** Highest field index a tree reads (-1 for fieldless trees). */
FieldId
maxFieldOf(const Expr &e)
{
    if (e.op() == Op::Field)
        return e.fieldId();
    FieldId m = -1;
    for (const ExprPtr &k : e.args())
        m = std::max(m, maxFieldOf(*k));
    return m;
}

/** Mark every field @p e reads in @p used. */
void
collectFields(const Expr &e, std::vector<bool> &used)
{
    if (e.op() == Op::Field) {
        const auto f = static_cast<std::size_t>(e.fieldId());
        if (f < used.size())
            used[f] = true;
        return;
    }
    for (const ExprPtr &k : e.args())
        collectFields(*k, used);
}

/**
 * Product of the declared domain sizes of every field @p e reads,
 * saturated at @p cap + 1. The select-chain fold reassociates in a
 * way the validator's canonical polynomials cannot always match, so
 * the fold is only legal when the validator's exhaustive-enumeration
 * fallback (bounded by its point budget) can still discharge the
 * proof.
 */
std::uint64_t
fieldDomainProduct(const Expr &e, const std::vector<FieldBounds> &bounds,
                   std::uint64_t cap)
{
    std::vector<bool> used(bounds.size(), false);
    collectFields(e, used);
    std::uint64_t product = 1;
    for (std::size_t f = 0; f < used.size(); ++f) {
        if (!used[f])
            continue;
        const FieldBounds &b = bounds[f];
        if (b.lo > b.hi)
            return cap + 1;
        const std::uint64_t span =
            static_cast<std::uint64_t>(b.hi) -
            static_cast<std::uint64_t>(b.lo);
        if (span >= cap)
            return cap + 1;
        product *= span + 1;
        if (product > cap)
            return cap + 1;
    }
    return product;
}

/**
 * The validator proves enumeration-fallback roots over at most this
 * many field-vector points (rtl/verify.cc kMaxEnumDomain); folds that
 * rely on that fallback must stay within it.
 */
constexpr std::uint64_t kMaxFoldDomain = 4096;

/** Total node count of a tree (for the Bin2-vs-bytecode heuristic). */
std::size_t
treeSize(const Expr &e)
{
    std::size_t n = 1;
    for (const ExprPtr &k : e.args())
        n += treeSize(*k);
    return n;
}

/** What one compiled expression looks like before pool placement. */
struct ProgramInfo
{
    enum class Kind { Const, Field, Program };
    Kind kind = Kind::Const;
    std::int64_t imm = 0;
    FieldId field = -1;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::uint32_t stackNeeded = 0;
    FieldId maxField = -1;
};

/**
 * Lowers expression trees into a shared code/literal pool as plain
 * postfix. One instance serves a whole design so literals dedupe
 * across programs.
 */
class ExprCompiler
{
  public:
    ExprCompiler(std::vector<BInstr> &code, std::vector<std::int64_t> &pool)
        : code(code), pool(pool)
    {}

    ProgramInfo
    compile(const ExprPtr &tree)
    {
        panicIf(!tree, "ExprCompiler: null expression");
        ProgramInfo info;
        if (tree->op() == Op::Field) {
            info.kind = ProgramInfo::Kind::Field;
            info.field = tree->fieldId();
            info.maxField = tree->fieldId();
            return info;
        }
        if (tree->isConstant()) {
            info.kind = ProgramInfo::Kind::Const;
            info.imm = foldConst(*tree);
            return info;
        }
        info.kind = ProgramInfo::Kind::Program;
        info.first = static_cast<std::uint32_t>(code.size());
        depth = 0;
        maxDepth = 0;
        maxField = -1;
        emit(*tree);
        info.count = static_cast<std::uint32_t>(code.size()) - info.first;
        info.stackNeeded = maxDepth;
        info.maxField = maxField;
        return info;
    }

  private:
    /**
     * Defensive fold: factory-built trees are already folded, but
     * compile anything (e.g. hand-assembled test trees) to the same
     * bytecode a folded tree would get. eval() on a fieldless tree is
     * the reference semantics, so no rule can drift.
     */
    static std::int64_t
    foldConst(const Expr &e)
    {
        static const FieldVec kNoFields;
        return e.eval(kNoFields);
    }

    int
    poolIndex(std::int64_t v)
    {
        const auto it = poolSlots.find(v);
        if (it != poolSlots.end())
            return it->second;
        pool.push_back(v);
        const int idx = static_cast<int>(pool.size()) - 1;
        poolSlots.emplace(v, idx);
        return idx;
    }

    void
    push(BOp op, std::int32_t arg)
    {
        code.push_back({op, arg});
        ++depth;
        maxDepth = std::max(maxDepth, depth);
    }

    void
    emit(const Expr &e)
    {
        if (e.op() == Op::Field) {
            push(BOp::PushField, e.fieldId());
            maxField = std::max(maxField, e.fieldId());
            return;
        }
        if (e.isConstant()) {
            push(BOp::PushConst, poolIndex(foldConst(e)));
            return;
        }
        for (const ExprPtr &k : e.args())
            emit(*k);
        code.push_back({lowerOp(e.op()), 0});
        depth -= static_cast<std::uint32_t>(e.args().size()) - 1;
    }

    std::vector<BInstr> &code;
    std::vector<std::int64_t> &pool;
    std::map<std::int64_t, int> poolSlots;
    std::uint32_t depth = 0;
    std::uint32_t maxDepth = 0;
    FieldId maxField = -1;
};

/** Topological order over startAfter edges (validate() = acyclic). */
std::vector<FsmId>
topoSort(const Design &design)
{
    const auto &fsms = design.fsms();
    std::vector<FsmId> order;
    std::vector<bool> placed(fsms.size(), false);
    while (order.size() < fsms.size()) {
        bool progress = false;
        for (std::size_t i = 0; i < fsms.size(); ++i) {
            if (placed[i])
                continue;
            const FsmId dep = fsms[i].startAfter;
            if (dep < 0 || placed[dep]) {
                order.push_back(static_cast<FsmId>(i));
                placed[i] = true;
                progress = true;
            }
        }
        panicIf(!progress, "startAfter ordering failed (cycle?)");
    }
    return order;
}

} // namespace

ExprProgram::ExprProgram(const ExprPtr &tree)
{
    ExprCompiler comp(code, pool);
    const ProgramInfo info = comp.compile(tree);
    stackNeeded = info.stackNeeded;
    maxField = info.maxField;
    switch (info.kind) {
      case ProgramInfo::Kind::Const:
        kind = 1;
        imm = info.imm;
        break;
      case ProgramInfo::Kind::Field:
        kind = 2;
        fieldRef = info.field;
        break;
      case ProgramInfo::Kind::Program:
        kind = 0;
        break;
    }
}

std::int64_t
ExprProgram::eval(const FieldVec &fields) const
{
    panicIf(maxField >= 0 &&
            static_cast<std::size_t>(maxField) >= fields.size(),
            "ExprProgram: field ", maxField, " out of range (item has ",
            fields.size(), " fields)");
    if (kind == 1)
        return imm;
    if (kind == 2)
        return fields[fieldRef];
    std::vector<std::int64_t> scratch(stackNeeded);
    return execProgram(code.data(), code.size(), pool.data(),
                       fields.data(), scratch.data());
}

CompiledDesign::CompiledDesign(const Design &design)
    : src(&design)
{
    panicIf(!design.validated(),
            "CompiledDesign: design '", design.name(), "' not validated");

    order = topoSort(design);
    jobOverhead = design.perJobOverheadCycles();
    ctrlEnergy = design.controlEnergyPerCycle();

    ExprCompiler comp(code, pool);
    const auto &counters = design.counters();
    const auto &blocks = design.blocks();

    // Lower one expression tree to a typed CExpr node, recursively
    // appending child nodes first (so every child index is smaller
    // than its parent's). Design expressions are overwhelmingly
    // affine cost models and field-against-constant guards, so nearly
    // everything lands in a specialised node; the bytecode program
    // remains as the fully general fallback.
    const auto place = [&](const CExpr &e) {
        programs.push_back(e);
        return static_cast<std::int32_t>(programs.size()) - 1;
    };
    auto addProgram = [&](auto &&self,
                          const ExprPtr &tree) -> std::int32_t {
        static const FieldVec kNoFields;
        panicIf(!tree, "CompiledDesign: null expression");
        CExpr e;

        if (tree->isConstant()) {
            e.kind = CExpr::Kind::Const;
            e.imm = tree->eval(kNoFields);
            return place(e);
        }

        // Specialised nodes bypass ExprCompiler, so account for the
        // fields they read here.
        maxFieldRead = std::max(maxFieldRead, maxFieldOf(*tree));

        // Mode-table select chains may fold into affine terms only
        // when the root stays exhaustively provable (see
        // fieldDomainProduct); plain affine shapes always fold.
        const bool fold_chains =
            fieldDomainProduct(*tree, src->fieldBounds(),
                               kMaxFoldDomain) <= kMaxFoldDomain;
        std::int64_t imm = 0;
        std::vector<ATerm> terms;
        if (collectAffine(*tree, 1, imm, terms, fold_chains)) {
            // Merge identical-shape terms: s1*f + s2*f == (s1+s2)*f
            // mod 2^64, so folding coefficients (and conditional arms)
            // preserves the sum.
            std::vector<ATerm> merged;
            for (const ATerm &t : terms) {
                bool found = false;
                for (ATerm &m : merged) {
                    if (m.kind == t.kind && m.field == t.field &&
                        m.cmp == t.cmp && m.z == t.z) {
                        m.a = addWrap(m.a, t.a);
                        m.b = addWrap(m.b, t.b);
                        found = true;
                        break;
                    }
                }
                if (!found)
                    merged.push_back(t);
            }
            if (merged.size() == 1 && merged[0].kind == 0 &&
                merged[0].a == 1 && imm == 0) {
                e.kind = CExpr::Kind::Field;
                e.field = merged[0].field;
            } else {
                e.kind = CExpr::Kind::Affine;
                e.imm = imm;
                e.first =
                    static_cast<std::uint32_t>(affinePool.size());
                e.count = static_cast<std::uint32_t>(merged.size());
                for (const ATerm &m : merged) {
                    CTerm ct;
                    ct.a = m.a;
                    ct.b = m.b;
                    ct.z = m.z;
                    ct.field = m.field;
                    ct.cmp = m.cmp;
                    ct.kind = static_cast<CTerm::Kind>(m.kind);
                    affinePool.push_back(ct);
                }
            }
            return place(e);
        }

        switch (tree->op()) {
          case Op::Add: case Op::Sub: case Op::Mul: case Op::Div:
          case Op::Mod: case Op::Min: case Op::Max: case Op::Eq:
          case Op::Ne: case Op::Lt: case Op::Le: case Op::Gt:
          case Op::Ge: case Op::And: case Op::Or: {
            e.op = lowerOp(tree->op());
            const Expr &l = *tree->args()[0];
            const Expr &r = *tree->args()[1];
            if (l.op() == Op::Field && r.isConstant()) {
                e.kind = CExpr::Kind::BinFC;
                e.field = l.fieldId();
                e.imm = r.eval(kNoFields);
                return place(e);
            }
            // Deep arithmetic falls through: one flat bytecode program
            // beats a chain of out-of-line Bin2 recursions.
            if (treeSize(*tree) <= 5) {
                e.kind = CExpr::Kind::Bin2;
                e.a = self(self, tree->args()[0]);
                e.b = self(self, tree->args()[1]);
                return place(e);
            }
            break;
          }
          default:
            break;
        }

        // Anything else runs through the bytecode compiler.
        const ProgramInfo info = comp.compile(tree);
        switch (info.kind) {
          case ProgramInfo::Kind::Const:
            e.kind = CExpr::Kind::Const;
            e.imm = info.imm;
            break;
          case ProgramInfo::Kind::Field:
            e.kind = CExpr::Kind::Field;
            e.field = info.field;
            break;
          case ProgramInfo::Kind::Program:
            e.kind = CExpr::Kind::Program;
            e.first = info.first;
            e.count = info.count;
            break;
        }
        maxStack = std::max(maxStack, info.stackNeeded);
        return place(e);
    };

    // Top-level entry point: compile and remember the (tree, program)
    // pair so differential tests and the perf harness can replay every
    // root expression of the design against its source tree.
    auto addRoot = [&](const ExprPtr &tree) -> std::int32_t {
        const std::int32_t idx = addProgram(addProgram, tree);
        roots.emplace_back(tree, idx);
        return idx;
    };

    // States that wait on the same counter share its compiled range.
    std::map<CounterId, std::int32_t> counterProgs;

    for (const Fsm &fsm : design.fsms()) {
        CFsm cf;
        cf.firstState = static_cast<std::uint32_t>(states.size());
        cf.numStates = static_cast<std::uint32_t>(fsm.states.size());
        cf.initial = fsm.initial;
        cf.startAfter = fsm.startAfter;
        cfsms.push_back(cf);

        for (const State &st : fsm.states) {
            CState cs;
            cs.kind = st.kind;
            cs.armOnly = st.armOnly;
            cs.terminal = st.terminal;
            cs.waitScale = st.waitScale;
            switch (st.kind) {
              case LatencyKind::Fixed:
                cs.fixedDwell =
                    static_cast<std::uint64_t>(st.fixedCycles);
                break;
              case LatencyKind::CounterWait: {
                cs.counter = st.counter;
                cs.counterDir = counters[st.counter].dir;
                const auto it = counterProgs.find(st.counter);
                if (it != counterProgs.end()) {
                    cs.prog = it->second;
                } else {
                    cs.prog = addRoot(counters[st.counter].range);
                    counterProgs.emplace(st.counter, cs.prog);
                }
                break;
              }
              case LatencyKind::Implicit:
                cs.prog = addRoot(st.implicitLatency);
                break;
            }
            // Same value, same operation order as the tree walker's
            // per-visit "ctrl + dpOps * weight" — precomputed once.
            cs.energyPerCycle = ctrlEnergy;
            if (st.block >= 0) {
                cs.energyPerCycle +=
                    st.dpOpsPerCycle * blocks[st.block].energyWeight;
            }
            cs.firstTrans = static_cast<std::uint32_t>(trans.size());
            cs.numTrans =
                static_cast<std::uint32_t>(st.transitions.size());
            for (const Transition &t : st.transitions) {
                CTransition ct;
                ct.dst = t.dst;
                ct.guard = t.guard ? addRoot(t.guard) : -1;
                trans.push_back(ct);
            }
            states.push_back(cs);
        }
    }

    buildSegments();
    buildTraces();

    // Speculation is opt-in (speculate()); until then every FSM
    // without a static trace takes the scalar batch fallback.
    specTraces.assign(cfsms.size(), CSpecTrace{});
    specPredict.assign(states.size(), 1);

    // Translation validation: prove the artifact we just built matches
    // the source design before anyone can run it (PREDVFS_VERIFY).
    verifyOnBuild(*this);
}

void
CompiledDesign::buildTraces()
{
    traces.assign(cfsms.size(), CTrace{});
    for (std::size_t id = 0; id < cfsms.size(); ++id) {
        const CFsm &fsm = cfsms[id];
        CTrace tr;
        tr.first = static_cast<std::uint32_t>(traceStates.size());

        std::vector<bool> visited(fsm.numStates, false);
        StateId cur = fsm.initial;
        bool ok = true;
        while (true) {
            const CSegment &seg = segs[fsm.firstState + cur];
            // A branch-dynamic head (successor depends on the item's
            // fields) or a statically-closed loop (would never
            // terminate; the scalar path's visit counter owns that
            // diagnosis) breaks the trace.
            if (seg.numSlots == 0 || visited[cur]) {
                ok = false;
                break;
            }
            visited[cur] = true;
            traceStates.push_back(
                static_cast<std::uint32_t>(fsm.firstState + cur));
            const CRun *rp = runs.data() + seg.firstRun;
            for (std::uint32_t i = 0; i < seg.numRuns; ++i)
                tr.staticCycles += rp[i].cycles;
            if (seg.next < 0)
                break;
            cur = seg.next;
        }

        if (ok) {
            tr.count = static_cast<std::uint32_t>(traceStates.size()) -
                       tr.first;
            tr.valid = true;
        } else {
            traceStates.resize(tr.first);
            tr = CTrace{};
        }
        traces[id] = tr;
    }
}

std::size_t
CompiledDesign::numLockstepFsms() const
{
    std::size_t n = 0;
    for (const CTrace &tr : traces)
        if (tr.valid)
            ++n;
    return n;
}

bool
CompiledDesign::deriveDecision(std::uint32_t g, std::int32_t &guard,
                               StateId &taken_dst,
                               StateId &not_dst) const
{
    const CState &st = states[g];
    if (st.terminal || segs[g].numSlots != 0)
        return false;  // Only branch-dynamic heads carry a decision.

    guard = -1;
    taken_dst = -1;
    not_dst = -1;
    const CTransition *tr = trans.data() + st.firstTrans;
    std::uint32_t i = 0;
    for (; i < st.numTrans; ++i) {
        if (tr[i].guard < 0)
            return false;  // Static route; not a branch (defensive).
        const CExpr &ge = programs[tr[i].guard];
        if (ge.kind == CExpr::Kind::Const) {
            if (ge.imm != 0)
                return false;  // Constant-true: statically routed.
            continue;          // Constant-false: always skipped.
        }
        guard = tr[i].guard;
        taken_dst = tr[i].dst;
        ++i;
        break;
    }
    if (guard < 0)
        return false;
    // Two-way only: every edge after the decision must resolve
    // statically, so guard-false lands on exactly one fallback.
    for (; i < st.numTrans; ++i) {
        if (tr[i].guard < 0) {
            not_dst = tr[i].dst;
            break;
        }
        const CExpr &ge = programs[tr[i].guard];
        if (ge.kind != CExpr::Kind::Const)
            return false;  // A second dynamic guard: not two-way.
        if (ge.imm != 0) {
            not_dst = tr[i].dst;
            break;
        }
    }
    // No fallback edge means guard-false panics in the scalar walk;
    // never speculate over a partial transition relation.
    return not_dst >= 0;
}

void
CompiledDesign::buildSpecTraces()
{
    specNodes.clear();
    specTraces.assign(cfsms.size(), CSpecTrace{});
    for (std::size_t id = 0; id < cfsms.size(); ++id) {
        if (traces[id].valid)
            continue;  // Static lockstep is strictly better.
        const CFsm &fsm = cfsms[id];
        CSpecTrace sp;
        sp.first = static_cast<std::uint32_t>(specNodes.size());

        // `visited` marks walk heads; a chain may end inside itself
        // (statically-closed loop), but the loop head then repeats as
        // a walk head and the check still terminates the walk.
        std::vector<bool> visited(fsm.numStates, false);
        StateId cur = fsm.initial;
        bool ok = true;
        bool any_branch = false;
        while (true) {
            if (visited[cur]) {
                ok = false;  // Predicted path loops: not speculable.
                break;
            }
            visited[cur] = true;
            const std::uint32_t g = fsm.firstState +
                static_cast<std::uint32_t>(cur);
            const CSegment &seg = segs[g];
            if (seg.numSlots != 0) {
                CSpecNode nd;
                nd.g = g;
                const CRun *rp = runs.data() + seg.firstRun;
                for (std::uint32_t i = 0; i < seg.numRuns; ++i)
                    nd.cycles += rp[i].cycles;
                specNodes.push_back(nd);
                if (seg.next < 0)
                    break;
                cur = seg.next;
                continue;
            }
            CSpecNode nd;
            nd.g = g;
            nd.branch = true;
            if (!deriveDecision(g, nd.guard, nd.takenDst, nd.notDst)) {
                ok = false;
                break;
            }
            nd.predictTaken = specPredict[g] != 0;
            specNodes.push_back(nd);
            any_branch = true;
            cur = nd.predictTaken ? nd.takenDst : nd.notDst;
        }

        if (ok && any_branch) {
            sp.count =
                static_cast<std::uint32_t>(specNodes.size()) - sp.first;
            sp.valid = true;
        } else {
            specNodes.resize(sp.first);
            sp = CSpecTrace{};
        }
        specTraces[id] = sp;
    }
}

void
CompiledDesign::speculate(const JobInput *const *jobs, std::size_t n)
{
    // Identify every speculable decision up front so the profile pass
    // knows which transitions to count.
    std::vector<StateId> taken_of(states.size(), -1);
    for (std::size_t id = 0; id < cfsms.size(); ++id) {
        const CFsm &fsm = cfsms[id];
        for (std::uint32_t s = 0; s < fsm.numStates; ++s) {
            const std::uint32_t g = fsm.firstState + s;
            std::int32_t guard = -1;
            StateId tk = -1;
            StateId nt = -1;
            if (deriveDecision(g, guard, tk, nt))
                taken_of[g] = tk;
        }
    }

    // One recorded pass over the profile stream: count, per decision
    // head, how often the taken edge fired. The recorder sees the
    // exact transition stream the reference walker emits.
    struct ProfileRecorder final : Recorder
    {
        const CompiledDesign &comp;
        const std::vector<StateId> &takenOf;
        std::vector<std::uint64_t> takenCnt;
        std::vector<std::uint64_t> totalCnt;

        explicit ProfileRecorder(const CompiledDesign &c,
                                 const std::vector<StateId> &t)
            : comp(c), takenOf(t), takenCnt(c.states.size(), 0),
              totalCnt(c.states.size(), 0)
        {}

        void
        onTransition(FsmId fsm, StateId src, StateId dst) override
        {
            const std::uint32_t g =
                comp.cfsms[static_cast<std::size_t>(fsm)].firstState +
                static_cast<std::uint32_t>(src);
            if (takenOf[g] < 0)
                return;
            ++totalCnt[g];
            if (dst == takenOf[g])
                ++takenCnt[g];
        }

        void
        onCounterArm(CounterId, std::int64_t, std::int64_t) override
        {}
    };

    specPredict.assign(states.size(), 1);
    if (n != 0) {
        ProfileRecorder rec(*this, taken_of);
        for (std::size_t i = 0; i < n; ++i)
            run(*jobs[i], &rec);
        for (std::size_t g = 0; g < states.size(); ++g) {
            if (taken_of[g] < 0 || rec.totalCnt[g] == 0)
                continue;
            const std::uint64_t taken = rec.takenCnt[g];
            specPredict[g] =
                taken * 2 >= rec.totalCnt[g] ? 1 : 0;
        }
    }

    buildSpecTraces();

    // Re-audit the whole artifact, speculation tables included.
    verifyOnBuild(*this);
}

void
CompiledDesign::speculate(const std::vector<JobInput> &jobs)
{
    std::vector<const JobInput *> ptrs;
    ptrs.reserve(jobs.size());
    for (const JobInput &job : jobs)
        ptrs.push_back(&job);
    speculate(ptrs.data(), ptrs.size());
}

void
CompiledDesign::invertSpeculation()
{
    for (std::uint8_t &p : specPredict)
        p = p != 0 ? 0 : 1;
    buildSpecTraces();
    verifyOnBuild(*this);
}

std::size_t
CompiledDesign::numSpeculatedFsms() const
{
    std::size_t n = 0;
    for (const CSpecTrace &sp : specTraces)
        if (sp.valid)
            ++n;
    return n;
}

bool
CompiledDesign::staticDwell(const CState &st, std::uint64_t &dwell,
                            std::int64_t &range) const
{
    range = 0;
    if (st.prog < 0) {
        dwell = st.fixedDwell;
        return true;
    }
    const CExpr &e = programs[st.prog];
    if (e.kind != CExpr::Kind::Const)
        return false;

    // Identical clamping to the interpreted path below.
    std::int64_t r = e.imm;
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
CompiledDesign::staticNext(const CState &st) const
{
    const CTransition *tr = trans.data() + st.firstTrans;
    for (std::uint32_t i = 0; i < st.numTrans; ++i) {
        if (tr[i].guard < 0)
            return tr[i].dst;
        const CExpr &g = programs[tr[i].guard];
        if (g.kind != CExpr::Kind::Const)
            return -1;
        if (g.imm != 0)
            return tr[i].dst;
        // Constant-false guard: the search always skips this edge.
    }
    // Every guard is constant-false; leave the state to the
    // interpreted path so the no-transition panic stays a runtime
    // property of reachable states only.
    return -1;
}

void
CompiledDesign::buildSegments()
{
    segs.assign(states.size(), CSegment{});
    for (const CFsm &fsm : cfsms) {
        std::vector<bool> in_chain(fsm.numStates);
        for (std::uint32_t s = 0; s < fsm.numStates; ++s) {
            CSegment seg;
            seg.firstSlot = static_cast<std::uint32_t>(slots.size());
            std::fill(in_chain.begin(), in_chain.end(), false);

            StateId cur = static_cast<StateId>(s);
            while (true) {
                // A revisited state heads a statically-routed loop;
                // stop so the chain stays finite. Execution re-enters
                // its segment and the visit counter still catches
                // true runaways.
                if (in_chain[cur]) {
                    seg.next = cur;
                    break;
                }
                const CState &st = states[fsm.firstState + cur];
                const StateId nxt = st.terminal ? -1 : staticNext(st);
                if (!st.terminal && nxt < 0) {
                    // Branch-dynamic: the taken edge depends on the
                    // item's fields; interpretation resumes here.
                    seg.next = cur;
                    break;
                }

                in_chain[cur] = true;
                CSlot slot;
                slot.src = cur;
                slot.dst = nxt;
                std::uint64_t dwell = 0;
                std::int64_t range = 0;
                if (staticDwell(st, dwell, range)) {
                    slot.cycles = dwell;
                    // The identical product the reference walker forms
                    // on this visit; adding the precomputed addends in
                    // order keeps the accumulation bit-exact.
                    slot.energy = st.energyPerCycle *
                                  static_cast<double>(dwell);
                    if (st.kind == LatencyKind::CounterWait) {
                        slot.counter = st.counter;
                        if (st.counterDir == CounterDir::Down)
                            slot.armInit = range;
                        else
                            slot.armFinal = range;
                    }
                } else {
                    slot.prog = st.prog;
                    slot.waitScale = st.waitScale;
                    slot.energy = st.energyPerCycle;
                    if (st.kind == LatencyKind::CounterWait) {
                        slot.counter = st.counter;
                        slot.armOnly = st.armOnly;
                        slot.down = st.counterDir == CounterDir::Down;
                    }
                }
                slots.push_back(slot);
                if (st.terminal) {
                    seg.next = -1;
                    break;
                }
                cur = nxt;
            }
            seg.numSlots = static_cast<std::uint32_t>(slots.size()) -
                           seg.firstSlot;

            // Compress the chain for recorder-free execution: stretches
            // of static slots collapse into one CRun (summed dwell,
            // addends packed densely in visit order), each closed by
            // the dwell-dynamic slot that interrupted it.
            seg.firstRun = static_cast<std::uint32_t>(runs.size());
            CRun run;
            run.firstAdd = static_cast<std::uint32_t>(addendPool.size());
            for (std::uint32_t i = 0; i < seg.numSlots; ++i) {
                const CSlot &slot = slots[seg.firstSlot + i];
                if (slot.prog < 0) {
                    run.cycles += slot.cycles;
                    addendPool.push_back(slot.energy);
                    ++run.numAdds;
                } else {
                    run.dynSlot =
                        static_cast<std::int32_t>(seg.firstSlot + i);
                    runs.push_back(run);
                    run = CRun{};
                    run.firstAdd =
                        static_cast<std::uint32_t>(addendPool.size());
                }
            }
            if (run.numAdds != 0)
                runs.push_back(run);
            seg.numRuns = static_cast<std::uint32_t>(runs.size()) -
                          seg.firstRun;

            segs[fsm.firstState + s] = seg;
        }
    }
}

std::size_t
CompiledDesign::numStaticStates() const
{
    std::size_t n = 0;
    for (const CFsm &fsm : cfsms) {
        for (std::uint32_t s = 0; s < fsm.numStates; ++s) {
            const CState &st = states[fsm.firstState + s];
            std::uint64_t dwell = 0;
            std::int64_t range = 0;
            if (staticDwell(st, dwell, range) &&
                (st.terminal || staticNext(st) >= 0)) {
                ++n;
            }
        }
    }
    return n;
}

std::size_t
CompiledDesign::numSpecialised() const
{
    std::size_t n = 0;
    for (const CExpr &e : programs)
        if (e.kind != CExpr::Kind::Program)
            ++n;
    return n;
}

std::int64_t
CompiledDesign::evalExpr(const CExpr &e, const std::int64_t *fields,
                         std::int64_t *stack) const
{
    if (e.kind <= CExpr::Kind::BinFC)
        return evalLeaf(e, fields);
    // Superinstruction dispatch: leaf children (the overwhelmingly
    // common case — Affine and field-const operands) evaluate through
    // the always-inlined evalLeaf instead of a recursive call.
    const auto sub = [&](std::int32_t idx) {
        const CExpr &k = programs[idx];
        return k.kind <= CExpr::Kind::BinFC
            ? evalLeaf(k, fields)
            : evalExpr(k, fields, stack);
    };
    switch (e.kind) {
      case CExpr::Kind::Bin2:
        return applyBOp(e.op, sub(e.a), sub(e.b));
      default:
        return execProgram(code.data() + e.first, e.count, pool.data(),
                           fields, stack);
    }
}

template <bool WithRec>
std::uint64_t
CompiledDesign::runFsm(FsmId id, StateId start,
                       const std::int64_t *fields,
                       Recorder *recorder, double &energy_units,
                       std::int64_t *stack) const
{
    const CFsm &fsm = cfsms[id];
    const CState *base = states.data() + fsm.firstState;
    const CSegment *sbase = segs.data() + fsm.firstState;
    const CTransition *tbase = trans.data();
    const CSlot *spool = slots.data();

    std::uint64_t cycles = 0;
    std::size_t visits = 0;
    StateId cur = start;

    while (true) {
        const CSegment &seg = sbase[cur];
        if (seg.numSlots) {
            // Precompiled chain: a linear sweep over slots — no guard
            // search, no latency dispatch, exact FP addend order and
            // (if anyone listens) the exact event stream.
            visits += seg.numSlots;
            if (visits > Interpreter::maxVisitsPerItem) {
                const Fsm &f = src->fsms()[id];
                panic("fsm '", f.name, "' exceeded ",
                      Interpreter::maxVisitsPerItem,
                      " state visits on one item (runaway control loop)");
            }
            if constexpr (!WithRec) {
                // Compressed sweep: each static stretch is one cycle
                // total plus a dense row of energy addends — the same
                // values in the same order the slot walk (and the
                // reference walker) would add, so the accumulation is
                // bit-identical at a fraction of the bookkeeping.
                const CRun *rp = runs.data() + seg.firstRun;
                for (std::uint32_t i = 0; i < seg.numRuns; ++i) {
                    const CRun &r = rp[i];
                    cycles += r.cycles;
                    const double *a = addendPool.data() + r.firstAdd;
                    for (std::uint32_t j = 0; j < r.numAdds; ++j)
                        energy_units += a[j];
                    if (r.dynSlot < 0)
                        continue;
                    const CSlot &s = spool[r.dynSlot];
                    const CExpr &pe = programs[s.prog];
                    std::int64_t v = pe.kind <= CExpr::Kind::BinFC
                        ? evalLeaf(pe, fields)
                        : evalExpr(pe, fields, stack);
                    if (v < 1)
                        v = 1;
                    std::uint64_t dwell;
                    if (s.counter >= 0 && s.armOnly) {
                        dwell = 1;
                    } else if (s.counter >= 0 && s.waitScale > 1) {
                        const std::int64_t scaled = v / s.waitScale;
                        dwell = static_cast<std::uint64_t>(
                            scaled < 1 ? 1 : scaled);
                    } else {
                        dwell = static_cast<std::uint64_t>(v);
                    }
                    cycles += dwell;
                    energy_units +=
                        s.energy * static_cast<double>(dwell);
                }
                if (seg.next < 0)
                    break;
                cur = seg.next;
                continue;
            }

            const CSlot *sl = spool + seg.firstSlot;
            for (std::uint32_t i = 0; i < seg.numSlots; ++i) {
                const CSlot &s = sl[i];
                if (s.prog < 0) {
                    cycles += s.cycles;
                    energy_units += s.energy;
                    if constexpr (WithRec) {
                        if (s.counter >= 0)
                            recorder->onCounterArm(s.counter, s.armInit,
                                                   s.armFinal);
                        if (s.dst >= 0)
                            recorder->onTransition(id, s.src, s.dst);
                    }
                    continue;
                }
                // Dwell-dynamic slot: same evaluation and clamping as
                // the interpreted path below.
                const CExpr &pe = programs[s.prog];
                std::int64_t v = pe.kind <= CExpr::Kind::BinFC
                    ? evalLeaf(pe, fields)
                    : evalExpr(pe, fields, stack);
                if (v < 1)
                    v = 1;
                std::uint64_t dwell;
                if (s.counter >= 0) {
                    if (s.armOnly) {
                        dwell = 1;
                    } else if (s.waitScale > 1) {
                        const std::int64_t scaled = v / s.waitScale;
                        dwell = static_cast<std::uint64_t>(
                            scaled < 1 ? 1 : scaled);
                    } else {
                        dwell = static_cast<std::uint64_t>(v);
                    }
                    if constexpr (WithRec) {
                        recorder->onCounterArm(s.counter,
                                               s.down ? v : 0,
                                               s.down ? 0 : v);
                    }
                } else {
                    dwell = static_cast<std::uint64_t>(v);
                }
                cycles += dwell;
                energy_units += s.energy * static_cast<double>(dwell);
                if constexpr (WithRec) {
                    if (s.dst >= 0)
                        recorder->onTransition(id, s.src, s.dst);
                }
            }
            if (seg.next < 0)
                break;
            cur = seg.next;
            continue;
        }

        // Branch-dynamic state: the taken edge depends on this item.
        if (++visits > Interpreter::maxVisitsPerItem) {
            const Fsm &f = src->fsms()[id];
            panic("fsm '", f.name, "' exceeded ",
                  Interpreter::maxVisitsPerItem,
                  " state visits on one item (runaway control loop)");
        }

        const CState &st = base[cur];

        std::uint64_t dwell;
        if (st.prog < 0) {
            dwell = st.fixedDwell;
        } else if (st.kind == LatencyKind::CounterWait) {
            const CExpr &pe = programs[st.prog];
            std::int64_t range = pe.kind <= CExpr::Kind::BinFC
                ? evalLeaf(pe, fields)
                : evalExpr(pe, fields, stack);
            if (range < 1)
                range = 1;
            if (st.armOnly) {
                dwell = 1;
            } else if (st.waitScale > 1) {
                const std::int64_t scaled = range / st.waitScale;
                dwell = static_cast<std::uint64_t>(
                    scaled < 1 ? 1 : scaled);
            } else {
                dwell = static_cast<std::uint64_t>(range);
            }
            if constexpr (WithRec) {
                if (st.counterDir == CounterDir::Down)
                    recorder->onCounterArm(st.counter, range, 0);
                else
                    recorder->onCounterArm(st.counter, 0, range);
            }
        } else {
            const CExpr &pe = programs[st.prog];
            std::int64_t lat = pe.kind <= CExpr::Kind::BinFC
                ? evalLeaf(pe, fields)
                : evalExpr(pe, fields, stack);
            if (lat < 1)
                lat = 1;
            dwell = static_cast<std::uint64_t>(lat);
        }

        cycles += dwell;
        energy_units += st.energyPerCycle * static_cast<double>(dwell);

        if (st.terminal)
            break;

        StateId next = -1;
        const CTransition *tr = tbase + st.firstTrans;
        for (std::uint32_t i = 0; i < st.numTrans; ++i) {
            if (tr[i].guard < 0) {
                next = tr[i].dst;
                break;
            }
            const CExpr &ge = programs[tr[i].guard];
            const std::int64_t g = ge.kind <= CExpr::Kind::BinFC
                ? evalLeaf(ge, fields)
                : evalExpr(ge, fields, stack);
            if (g != 0) {
                next = tr[i].dst;
                break;
            }
        }
        if (next < 0) {
            const Fsm &f = src->fsms()[id];
            panic("state '", f.states[cur].name, "' in fsm '", f.name,
                  "': no transition fired");
        }

        if constexpr (WithRec)
            recorder->onTransition(id, cur, next);
        cur = next;
    }

    return cycles;
}

template <bool WithRec>
JobResult
CompiledDesign::runJob(const JobInput &job, Recorder *recorder,
                       std::vector<std::uint64_t> *item_cycles) const
{
    JobResult result;
    result.cycles = jobOverhead;
    result.energyUnits = ctrlEnergy * static_cast<double>(jobOverhead);

    if (item_cycles) {
        item_cycles->clear();
        item_cycles->reserve(job.items.size());
    }

    // One allocation per job, reused by every program evaluation; the
    // per-item and per-state paths below are allocation-free.
    std::vector<std::int64_t> stack(maxStack);
    std::vector<std::uint64_t> end_time(cfsms.size(), 0);

    for (const WorkItem &item : job.items) {
        panicIf(maxFieldRead >= 0 &&
                static_cast<std::size_t>(maxFieldRead) >=
                    item.fields.size(),
                "field ", maxFieldRead, " out of range (item has ",
                item.fields.size(), " fields)");

        std::fill(end_time.begin(), end_time.end(), 0);
        std::uint64_t item_latency = 0;

        for (FsmId id : order) {
            const FsmId dep = cfsms[id].startAfter;
            const std::uint64_t start = dep < 0 ? 0 : end_time[dep];
            const std::uint64_t lat =
                runFsm<WithRec>(id, cfsms[id].initial,
                                item.fields.data(), recorder,
                                result.energyUnits, stack.data());
            end_time[id] = start + lat;
            item_latency = std::max(item_latency, end_time[id]);
        }

        result.cycles += item_latency;
        if (item_cycles)
            item_cycles->push_back(item_latency);
    }

    return result;
}

JobResult
CompiledDesign::run(const JobInput &job, Recorder *recorder,
                    std::vector<std::uint64_t> *item_cycles) const
{
    return recorder ? runJob<true>(job, recorder, item_cycles)
                    : runJob<false>(job, nullptr, item_cycles);
}

void
CompiledDesign::runBatch(const JobInput *const *jobs, std::size_t n,
                         JobResult *out, BatchStats *stats) const
{
    const std::size_t num_fsms = cfsms.size();
    if (stats) {
        stats->fsms.assign(num_fsms, BatchFsmStats{});
        for (std::size_t id = 0; id < num_fsms; ++id) {
            stats->fsms[id].lockstep = traces[id].valid;
            stats->fsms[id].speculated = specTraces[id].valid;
        }
    }
    const std::size_t nf = maxFieldRead < 0
        ? 0
        : static_cast<std::size_t>(maxFieldRead) + 1;

    // One running energy accumulator per lane: a lane's additions
    // happen in exactly run()'s order, so lockstep across lanes never
    // reassociates any job's floating-point sum.
    std::vector<double> energy(n);
    std::size_t max_items = 0;
    for (std::size_t l = 0; l < n; ++l) {
        out[l].cycles = jobOverhead;
        out[l].energyUnits = 0.0;
        energy[l] = ctrlEnergy * static_cast<double>(jobOverhead);
        max_items = std::max(max_items, jobs[l]->items.size());
    }

    std::vector<std::int64_t> scratch(maxStack);
    std::int64_t *stack = scratch.data();

    std::vector<std::size_t> active(n);
    std::vector<const std::int64_t *> fptr(n);
    std::vector<std::int64_t> fieldsT(nf * n);
    std::vector<std::int64_t> v(n);
    std::vector<std::int64_t> u(n);   //!< Superinstruction operand.
    std::vector<std::size_t> spec(n); //!< Still-speculating lane set.
    std::vector<std::uint64_t> lat(n);
    std::vector<double> estep(n);
    std::vector<std::uint64_t> end_time(num_fsms * n);
    std::vector<std::uint64_t> item_lat(n);

    namespace simd = util::simd;

    // Evaluate one flat (leaf) node for lanes [0, A) into @p dst.
    // Field reads stream from the field-major transpose in stride-1
    // lane loops.
    const auto evalLeafLanes = [&](const CExpr &pe, std::size_t A,
                                   std::int64_t *dst) {
        switch (pe.kind) {
          case CExpr::Kind::Const:
            simd::fillI64(dst, A, pe.imm);
            break;
          case CExpr::Kind::Field: {
            const std::int64_t *F =
                fieldsT.data() + static_cast<std::size_t>(pe.field) * A;
            std::copy(F, F + A, dst);
            break;
          }
          case CExpr::Kind::Affine: {
            simd::fillI64(dst, A, pe.imm);
            const CTerm *terms = affinePool.data() + pe.first;
            for (std::uint32_t i = 0; i < pe.count; ++i) {
                const CTerm &m = terms[i];
                const std::int64_t *F = fieldsT.data() +
                    static_cast<std::size_t>(m.field) * A;
                switch (m.kind) {
                  case CTerm::Kind::Linear:
                    simd::addScaledI64(dst, F, A, m.a);
                    break;
                  case CTerm::Kind::Cond:
                    for (std::size_t j = 0; j < A; ++j)
                        dst[j] += F[j] != 0 ? m.a : m.b;
                    break;
                  case CTerm::Kind::CondCmp:
                    if (m.cmp == BOp::Eq) {
                        // The mode-table shape: a direct compare
                        // beats the generic op dispatch.
                        for (std::size_t j = 0; j < A; ++j)
                            dst[j] += F[j] == m.z ? m.a : m.b;
                    } else {
                        for (std::size_t j = 0; j < A; ++j)
                            dst[j] += applyBOp(m.cmp, F[j], m.z) != 0
                                ? m.a : m.b;
                    }
                    break;
                }
            }
            break;
          }
          default: {  // BinFC; callers never pass recursive kinds.
            const std::int64_t *F =
                fieldsT.data() + static_cast<std::size_t>(pe.field) * A;
            for (std::size_t j = 0; j < A; ++j)
                dst[j] = applyBOp(pe.op, F[j], pe.imm);
            break;
          }
        }
    };

    // Evaluate one dwell/guard program for lanes [0, A): values into
    // v. Leaf kinds vectorise directly; a Bin2 over leaf children (the
    // superinstruction) evaluates both operands lane-wise and combines
    // them. Only deeper shapes fall back to per-lane recursive
    // evaluation over the lane's original (AoS) field array. Kept out
    // of line: GCC otherwise inlines its leaf test into the three call
    // sites below, which cost 64-lane batches up to 9% (cjpeg, md) in
    // a same-process A/B.
    const auto evalLanes = [&](const CExpr &pe, std::size_t A)
        PREDVFS_NOINLINE {
        if (pe.kind <= CExpr::Kind::BinFC) {
            evalLeafLanes(pe, A, v.data());
            return;
        }
        if (pe.kind == CExpr::Kind::Bin2 &&
            programs[pe.a].kind <= CExpr::Kind::BinFC &&
            programs[pe.b].kind <= CExpr::Kind::BinFC) {
            evalLeafLanes(programs[pe.a], A, u.data());
            evalLeafLanes(programs[pe.b], A, v.data());
            for (std::size_t j = 0; j < A; ++j)
                v[j] = applyBOp(pe.op, u[j], v[j]);
            return;
        }
        for (std::size_t j = 0; j < A; ++j)
            v[j] = evalExpr(pe, fptr[j], stack);
    };

    // Clamp v to dwell and accumulate — the slot's counter/waitScale
    // shape is lane-invariant, so the branches hoist out of the lane
    // loops; the scalar path's value/clamp/product sequence is
    // reproduced per lane exactly.
    const auto addDyn = [&](const CSlot &s, std::size_t A) {
        const double rate = s.energy;
        if (s.counter >= 0 && s.armOnly) {
            for (std::size_t j = 0; j < A; ++j) {
                lat[j] += 1;
                estep[j] += rate * 1.0;
            }
        } else if (s.counter >= 0 && s.waitScale > 1) {
            const std::int64_t ws = s.waitScale;
            for (std::size_t j = 0; j < A; ++j) {
                std::int64_t x = v[j] < 1 ? 1 : v[j];
                x /= ws;
                const std::uint64_t dwell =
                    static_cast<std::uint64_t>(x < 1 ? 1 : x);
                lat[j] += dwell;
                estep[j] += rate * static_cast<double>(dwell);
            }
        } else {
            for (std::size_t j = 0; j < A; ++j) {
                const std::uint64_t dwell =
                    static_cast<std::uint64_t>(v[j] < 1 ? 1 : v[j]);
                lat[j] += dwell;
                estep[j] += rate * static_cast<double>(dwell);
            }
        }
    };

    for (std::size_t t = 0; t < max_items; ++t) {
        // Compact the lanes still holding an item at this step.
        std::size_t A = 0;
        for (std::size_t l = 0; l < n; ++l) {
            if (t >= jobs[l]->items.size())
                continue;
            const WorkItem &item = jobs[l]->items[t];
            panicIf(maxFieldRead >= 0 &&
                    static_cast<std::size_t>(maxFieldRead) >=
                        item.fields.size(),
                    "field ", maxFieldRead, " out of range (item has ",
                    item.fields.size(), " fields)");
            active[A] = l;
            fptr[A] = item.fields.data();
            estep[A] = energy[l];
            ++A;
        }

        // Field-major transpose of the active lanes' items.
        for (std::size_t j = 0; j < A; ++j) {
            const std::int64_t *f = fptr[j];
            for (std::size_t k = 0; k < nf; ++k)
                fieldsT[k * A + j] = f[k];
        }
        std::fill(item_lat.begin(), item_lat.begin() + A, 0);

        for (FsmId id : order) {
            const CFsm &fsm = cfsms[id];
            const CTrace &tr = traces[id];
            const CSpecTrace &st_spec = specTraces[id];
            if (tr.valid) {
                simd::fillU64(lat.data(), A, tr.staticCycles);
                const std::uint32_t *ts = traceStates.data() + tr.first;
                for (std::uint32_t k = 0; k < tr.count; ++k) {
                    const CSegment &seg = segs[ts[k]];
                    const CRun *rp = runs.data() + seg.firstRun;
                    for (std::uint32_t i = 0; i < seg.numRuns; ++i) {
                        const CRun &r = rp[i];
                        const double *a = addendPool.data() + r.firstAdd;
                        for (std::uint32_t q = 0; q < r.numAdds; ++q)
                            simd::addScalarF64(estep.data(), A, a[q]);
                        if (r.dynSlot < 0)
                            continue;
                        const CSlot &s = slots[r.dynSlot];
                        evalLanes(programs[s.prog], A);
                        addDyn(s, A);
                    }
                }
                if (stats)
                    stats->fsms[id].lockstepLaneItems += A;
            } else if (st_spec.valid) {
                // Speculative lockstep: all lanes march the predicted
                // route; `spec` holds the lanes still in lockstep
                // (initially all of them, compacted on demotion). A
                // demoted lane's prefix — same segments, same slots,
                // same addend order — is byte-identical to the scalar
                // walk's, so finishing it with runFsm from the actual
                // successor reproduces the scalar result exactly.
                std::size_t S = A;
                bool dense = true;
                for (std::size_t j = 0; j < A; ++j)
                    spec[j] = j;
                simd::fillU64(lat.data(), A, 0);
                const CSpecNode *nodes = specNodes.data() + st_spec.first;
                for (std::uint32_t k = 0; k < st_spec.count && S != 0;
                     ++k) {
                    const CSpecNode &nd = nodes[k];
                    if (!nd.branch) {
                        const CSegment &seg = segs[nd.g];
                        if (dense) {
                            simd::addScalarU64(lat.data(), S, nd.cycles);
                        } else {
                            for (std::size_t q = 0; q < S; ++q)
                                lat[spec[q]] += nd.cycles;
                        }
                        const CRun *rp = runs.data() + seg.firstRun;
                        for (std::uint32_t i = 0; i < seg.numRuns; ++i) {
                            const CRun &r = rp[i];
                            const double *a =
                                addendPool.data() + r.firstAdd;
                            if (dense) {
                                for (std::uint32_t q = 0; q < r.numAdds;
                                     ++q)
                                    simd::addScalarF64(estep.data(), S,
                                                       a[q]);
                            } else {
                                for (std::uint32_t p = 0; p < r.numAdds;
                                     ++p) {
                                    const double add = a[p];
                                    for (std::size_t q = 0; q < S; ++q)
                                        estep[spec[q]] += add;
                                }
                            }
                            if (r.dynSlot < 0)
                                continue;
                            const CSlot &s = slots[r.dynSlot];
                            // Extra (demoted) lanes in v are computed
                            // and ignored; only spec lanes accumulate.
                            evalLanes(programs[s.prog], A);
                            const double rate = s.energy;
                            for (std::size_t q = 0; q < S; ++q) {
                                const std::size_t j = spec[q];
                                std::int64_t x = v[j] < 1 ? 1 : v[j];
                                std::uint64_t dwell;
                                if (s.counter >= 0 && s.armOnly) {
                                    dwell = 1;
                                } else if (s.counter >= 0 &&
                                           s.waitScale > 1) {
                                    x /= s.waitScale;
                                    dwell = static_cast<std::uint64_t>(
                                        x < 1 ? 1 : x);
                                } else {
                                    dwell =
                                        static_cast<std::uint64_t>(x);
                                }
                                lat[j] += dwell;
                                estep[j] +=
                                    rate * static_cast<double>(dwell);
                            }
                        }
                        continue;
                    }

                    // Branch head: its own dwell is outcome-invariant,
                    // so it accumulates in lockstep before the guard
                    // decides who stays.
                    const CState &hs = states[nd.g];
                    if (hs.prog < 0) {
                        const std::uint64_t dw = hs.fixedDwell;
                        // Same two operands as the scalar product, so
                        // the addend is the same bits on every lane.
                        const double add_e = hs.energyPerCycle *
                            static_cast<double>(dw);
                        if (dense) {
                            simd::addScalarU64(lat.data(), S, dw);
                            simd::addScalarF64(estep.data(), S, add_e);
                        } else {
                            for (std::size_t q = 0; q < S; ++q) {
                                lat[spec[q]] += dw;
                                estep[spec[q]] += add_e;
                            }
                        }
                    } else {
                        evalLanes(programs[hs.prog], A);
                        const bool ctr =
                            hs.kind == LatencyKind::CounterWait;
                        const double rate = hs.energyPerCycle;
                        for (std::size_t q = 0; q < S; ++q) {
                            const std::size_t j = spec[q];
                            // The scalar branch-dynamic clamp, per
                            // lane: range/latency floors at 1, then
                            // armOnly/waitScale shape the wait.
                            std::int64_t x = v[j] < 1 ? 1 : v[j];
                            std::uint64_t dwell;
                            if (ctr && hs.armOnly) {
                                dwell = 1;
                            } else if (ctr && hs.waitScale > 1) {
                                x /= hs.waitScale;
                                dwell = static_cast<std::uint64_t>(
                                    x < 1 ? 1 : x);
                            } else {
                                dwell = static_cast<std::uint64_t>(x);
                            }
                            lat[j] += dwell;
                            estep[j] +=
                                rate * static_cast<double>(dwell);
                        }
                    }

                    // The decision: lanes whose guard outcome matches
                    // the prediction stay in lockstep; the rest demote
                    // to the scalar walk from their actual successor.
                    evalLanes(programs[nd.guard], A);
                    if (stats)
                        stats->fsms[id].branchChecks += S;
                    std::size_t kept = 0;
                    for (std::size_t q = 0; q < S; ++q) {
                        const std::size_t j = spec[q];
                        const bool taken = v[j] != 0;
                        if (taken == nd.predictTaken) {
                            spec[kept++] = j;
                            continue;
                        }
                        const StateId actual =
                            taken ? nd.takenDst : nd.notDst;
                        lat[j] += runFsm<false>(id, actual, fptr[j],
                                                nullptr, estep[j],
                                                stack);
                        if (stats)
                            ++stats->fsms[id].mispredicts;
                    }
                    if (kept != S) {
                        S = kept;
                        dense = false;
                    }
                }
                if (stats) {
                    stats->fsms[id].lockstepLaneItems += S;
                    stats->fsms[id].demotedLaneItems += A - S;
                }
            } else {
                for (std::size_t j = 0; j < A; ++j)
                    lat[j] = runFsm<false>(id, fsm.initial, fptr[j],
                                           nullptr, estep[j], stack);
                if (stats)
                    stats->fsms[id].scalarLaneItems += A;
            }

            const FsmId dep = fsm.startAfter;
            std::uint64_t *et =
                end_time.data() + static_cast<std::size_t>(id) * n;
            const std::uint64_t *ds = dep < 0
                ? nullptr
                : end_time.data() + static_cast<std::size_t>(dep) * n;
            for (std::size_t j = 0; j < A; ++j) {
                const std::uint64_t e = (ds ? ds[j] : 0) + lat[j];
                et[j] = e;
                item_lat[j] = std::max(item_lat[j], e);
            }
        }

        for (std::size_t j = 0; j < A; ++j) {
            const std::size_t l = active[j];
            out[l].cycles += item_lat[j];
            energy[l] = estep[j];
        }
    }

    for (std::size_t l = 0; l < n; ++l)
        out[l].energyUnits = energy[l];
}

std::vector<JobResult>
CompiledDesign::runBatch(const std::vector<const JobInput *> &jobs) const
{
    std::vector<JobResult> out(jobs.size());
    if (!jobs.empty())
        runBatch(jobs.data(), jobs.size(), out.data());
    return out;
}

} // namespace rtl
} // namespace predvfs
