/**
 * @file
 * Expression AST for the RTL intermediate representation.
 *
 * Guards on FSM transitions, counter ranges, and implicit state
 * latencies are all expressions over the integer fields of the current
 * work item. Keeping them as data (rather than C++ callbacks) is what
 * makes the static analysis, instrumentation, and slicing passes
 * possible: a pass can ask an expression which fields it reads and can
 * serialise it for reports.
 */

#ifndef PREDVFS_RTL_EXPR_HH
#define PREDVFS_RTL_EXPR_HH

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "rtl/field_vec.hh"

namespace predvfs {
namespace rtl {

/** Index of a work-item field within a design's field schema. */
using FieldId = int;

class Expr;

/** Expressions are immutable and shared; passes copy pointers freely. */
using ExprPtr = std::shared_ptr<const Expr>;

/** Operator tags for expression nodes. */
enum class Op
{
    Const,   //!< Integer literal.
    Field,   //!< Read a work-item field.
    Add, Sub, Mul, Div, Mod,
    Min, Max,
    Eq, Ne, Lt, Le, Gt, Ge,
    And, Or, Not,
    Select,  //!< args[0] ? args[1] : args[2]
};

/**
 * @name Division semantics of the IR (the single source of truth)
 *
 * Every evaluator of IR expressions — the tree walker (Expr::eval), the
 * bytecode machine (rtl/compile), constant folding in the factory
 * functions, and the interval domain (rtl/interval) — must route
 * division and modulus through these two helpers so the semantics
 * cannot drift between them:
 *
 *  - x / 0 == 0 and x % 0 == 0, mirroring the saturating behaviour a
 *    synthesised divider-free datapath would use;
 *  - INT64_MIN / -1 wraps to INT64_MIN (two's complement) instead of
 *    being undefined, and INT64_MIN % -1 == 0, so no evaluator can
 *    fault where another returns a value.
 */
/// @{
constexpr std::int64_t
safeDiv(std::int64_t a, std::int64_t b)
{
    if (b == 0)
        return 0;
    if (b == -1)  // Avoids UB on INT64_MIN / -1; wraps like hardware.
        return static_cast<std::int64_t>(
            0u - static_cast<std::uint64_t>(a));
    return a / b;
}

constexpr std::int64_t
safeMod(std::int64_t a, std::int64_t b)
{
    if (b == 0 || b == -1)  // a % -1 == 0 for every representable a.
        return 0;
    return a % b;
}
/// @}

/**
 * An immutable expression-tree node.
 *
 * Division and modulus follow safeDiv()/safeMod() above; this keeps
 * workload generators from having to special-case degenerate items.
 *
 * The factory functions constant-fold and canonicalise: operations on
 * literals collapse to a literal, and algebraic identities that hold
 * for every field assignment (x+0, x*1, x*0, x/1, x%1, short-circuits
 * against a constant, selects on a constant condition) are simplified
 * at construction. Folding never changes the value an expression
 * evaluates to — eval() is pure and total — it only shrinks the tree.
 */
class Expr
{
  public:
    /** @name Factory functions (the only way to build nodes). */
    /// @{
    static ExprPtr constant(std::int64_t value);
    static ExprPtr field(FieldId id);
    static ExprPtr add(ExprPtr a, ExprPtr b);
    static ExprPtr sub(ExprPtr a, ExprPtr b);
    static ExprPtr mul(ExprPtr a, ExprPtr b);
    static ExprPtr div(ExprPtr a, ExprPtr b);
    static ExprPtr mod(ExprPtr a, ExprPtr b);
    static ExprPtr min(ExprPtr a, ExprPtr b);
    static ExprPtr max(ExprPtr a, ExprPtr b);
    static ExprPtr eq(ExprPtr a, ExprPtr b);
    static ExprPtr ne(ExprPtr a, ExprPtr b);
    static ExprPtr lt(ExprPtr a, ExprPtr b);
    static ExprPtr le(ExprPtr a, ExprPtr b);
    static ExprPtr gt(ExprPtr a, ExprPtr b);
    static ExprPtr ge(ExprPtr a, ExprPtr b);
    static ExprPtr logicalAnd(ExprPtr a, ExprPtr b);
    static ExprPtr logicalOr(ExprPtr a, ExprPtr b);
    static ExprPtr logicalNot(ExprPtr a);
    static ExprPtr select(ExprPtr cond, ExprPtr then_e, ExprPtr else_e);
    /// @}

    /** @return the operator tag of this node. */
    Op op() const { return opTag; }

    /** @return the literal value (Const nodes only). */
    std::int64_t constValue() const;

    /** @return the field index (Field nodes only). */
    FieldId fieldId() const;

    /** @return the child expressions. */
    const std::vector<ExprPtr> &args() const { return children; }

    /**
     * Evaluate against a work item's field values.
     *
     * @param fields Field values indexed by FieldId.
     * @return 64-bit result; comparisons yield 0/1.
     */
    std::int64_t eval(const FieldVec &fields) const;

    /** Accumulate every FieldId read anywhere in this tree. */
    void collectFields(std::set<FieldId> &out) const;

    /** @return true if the tree reads no fields (a compile-time value). */
    bool isConstant() const;

    /**
     * Render as a human-readable string.
     *
     * @param field_names Optional schema; falls back to "f<i>".
     */
    std::string
    toString(const std::vector<std::string> *field_names = nullptr) const;

  protected:
    Expr(Op op, std::int64_t value, FieldId field,
         std::vector<ExprPtr> args);

  private:
    Op opTag;
    std::int64_t value;
    FieldId fieldRef;
    std::vector<ExprPtr> children;
};

/** Convenience: wrap an integer literal. */
inline ExprPtr
lit(std::int64_t v)
{
    return Expr::constant(v);
}

/** Convenience: wrap a field read. */
inline ExprPtr
fld(FieldId id)
{
    return Expr::field(id);
}

} // namespace rtl
} // namespace predvfs

#endif // PREDVFS_RTL_EXPR_HH
