#include "rtl/expr.hh"

#include <sstream>

#include "util/logging.hh"

namespace predvfs {
namespace rtl {

namespace {

/**
 * Apply one binary operator to concrete values — the same semantics
 * Expr::eval() implements, shared with constant folding so a folded
 * literal can never differ from an evaluated tree.
 */
std::int64_t
applyBinary(Op op, std::int64_t a, std::int64_t b)
{
    switch (op) {
      case Op::Add: return a + b;
      case Op::Sub: return a - b;
      case Op::Mul: return a * b;
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
        util::panic("applyBinary: non-binary op ",
                    static_cast<int>(op));
    }
    return 0;
}

bool
isConst(const ExprPtr &e)
{
    return e->op() == Op::Const;
}

bool
isConstValue(const ExprPtr &e, std::int64_t v)
{
    return isConst(e) && e->constValue() == v;
}

/** True if the node can only ever evaluate to 0 or 1. */
bool
producesBool(const ExprPtr &e)
{
    switch (e->op()) {
      case Op::Eq: case Op::Ne: case Op::Lt: case Op::Le:
      case Op::Gt: case Op::Ge: case Op::And: case Op::Or:
      case Op::Not:
        return true;
      case Op::Const:
        return e->constValue() == 0 || e->constValue() == 1;
      default:
        return false;
    }
}

/** Normalise a truth value to {0, 1}, as And/Or would have. */
ExprPtr
boolify(ExprPtr e)
{
    if (producesBool(e))
        return e;
    return Expr::ne(std::move(e), Expr::constant(0));
}

/**
 * Fold and canonicalise at construction. Every rewrite here must hold
 * for every field assignment: eval() is pure (no side effects) and
 * total (division by zero is defined), so even rules that drop a
 * short-circuited or untaken subtree preserve the evaluated value.
 * Returns null when no simplification applies.
 */
ExprPtr
foldNode(Op op, const std::vector<ExprPtr> &args)
{
    switch (op) {
      case Op::Not:
        if (isConst(args[0]))
            return Expr::constant(args[0]->constValue() == 0 ? 1 : 0);
        return nullptr;

      case Op::Select:
        if (isConst(args[0]))
            return args[0]->constValue() != 0 ? args[1] : args[2];
        return nullptr;

      case Op::And:
        if (isConst(args[0]))
            return args[0]->constValue() == 0 ? Expr::constant(0)
                                              : boolify(args[1]);
        if (isConst(args[1]))
            return args[1]->constValue() == 0 ? Expr::constant(0)
                                              : boolify(args[0]);
        return nullptr;

      case Op::Or:
        if (isConst(args[0]))
            return args[0]->constValue() != 0 ? Expr::constant(1)
                                              : boolify(args[1]);
        if (isConst(args[1]))
            return args[1]->constValue() != 0 ? Expr::constant(1)
                                              : boolify(args[0]);
        return nullptr;

      default:
        break;
    }

    // Binary arithmetic and comparisons from here on.
    if (isConst(args[0]) && isConst(args[1]))
        return Expr::constant(applyBinary(op, args[0]->constValue(),
                                          args[1]->constValue()));

    switch (op) {
      case Op::Add:
        if (isConstValue(args[0], 0))
            return args[1];
        if (isConstValue(args[1], 0))
            return args[0];
        break;
      case Op::Sub:
        if (isConstValue(args[1], 0))
            return args[0];
        break;
      case Op::Mul:
        if (isConstValue(args[0], 1))
            return args[1];
        if (isConstValue(args[1], 1))
            return args[0];
        if (isConstValue(args[0], 0) || isConstValue(args[1], 0))
            return Expr::constant(0);
        break;
      case Op::Div:
        if (isConstValue(args[1], 1))
            return args[0];
        if (isConstValue(args[0], 0))  // 0 / x == 0, even for x == 0.
            return Expr::constant(0);
        break;
      case Op::Mod:
        if (isConstValue(args[1], 1))  // x % 1 == 0 for every x.
            return Expr::constant(0);
        if (isConstValue(args[0], 0))  // 0 % x == 0, even for x == 0.
            return Expr::constant(0);
        break;
      default:
        break;
    }
    return nullptr;
}

ExprPtr
makeNode(Op op, std::vector<ExprPtr> args)
{
    for (const auto &a : args)
        util::panicIf(!a, "Expr: null child for op ", static_cast<int>(op));
    if (ExprPtr folded = foldNode(op, args))
        return folded;
    struct Access : Expr
    {
        Access(Op op, std::int64_t v, FieldId f, std::vector<ExprPtr> a)
            : Expr(op, v, f, std::move(a))
        {}
    };
    return std::make_shared<Access>(op, 0, -1, std::move(args));
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::Const: return "const";
      case Op::Field: return "field";
      case Op::Add: return "+";
      case Op::Sub: return "-";
      case Op::Mul: return "*";
      case Op::Div: return "/";
      case Op::Mod: return "%";
      case Op::Min: return "min";
      case Op::Max: return "max";
      case Op::Eq: return "==";
      case Op::Ne: return "!=";
      case Op::Lt: return "<";
      case Op::Le: return "<=";
      case Op::Gt: return ">";
      case Op::Ge: return ">=";
      case Op::And: return "&&";
      case Op::Or: return "||";
      case Op::Not: return "!";
      case Op::Select: return "?:";
    }
    return "?";
}

} // namespace

Expr::Expr(Op op, std::int64_t value, FieldId field, std::vector<ExprPtr> args)
    : opTag(op), value(value), fieldRef(field), children(std::move(args))
{
}

ExprPtr
Expr::constant(std::int64_t v)
{
    struct Access : Expr
    {
        Access(std::int64_t v) : Expr(Op::Const, v, -1, {}) {}
    };
    return std::make_shared<Access>(v);
}

ExprPtr
Expr::field(FieldId id)
{
    util::panicIf(id < 0, "Expr::field: negative field id ", id);
    struct Access : Expr
    {
        Access(FieldId f) : Expr(Op::Field, 0, f, {}) {}
    };
    return std::make_shared<Access>(id);
}

ExprPtr Expr::add(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Add, {std::move(a), std::move(b)}); }
ExprPtr Expr::sub(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Sub, {std::move(a), std::move(b)}); }
ExprPtr Expr::mul(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Mul, {std::move(a), std::move(b)}); }
ExprPtr Expr::div(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Div, {std::move(a), std::move(b)}); }
ExprPtr Expr::mod(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Mod, {std::move(a), std::move(b)}); }
ExprPtr Expr::min(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Min, {std::move(a), std::move(b)}); }
ExprPtr Expr::max(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Max, {std::move(a), std::move(b)}); }
ExprPtr Expr::eq(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Eq, {std::move(a), std::move(b)}); }
ExprPtr Expr::ne(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Ne, {std::move(a), std::move(b)}); }
ExprPtr Expr::lt(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Lt, {std::move(a), std::move(b)}); }
ExprPtr Expr::le(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Le, {std::move(a), std::move(b)}); }
ExprPtr Expr::gt(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Gt, {std::move(a), std::move(b)}); }
ExprPtr Expr::ge(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Ge, {std::move(a), std::move(b)}); }
ExprPtr Expr::logicalAnd(ExprPtr a, ExprPtr b)
{ return makeNode(Op::And, {std::move(a), std::move(b)}); }
ExprPtr Expr::logicalOr(ExprPtr a, ExprPtr b)
{ return makeNode(Op::Or, {std::move(a), std::move(b)}); }
ExprPtr Expr::logicalNot(ExprPtr a)
{ return makeNode(Op::Not, {std::move(a)}); }
ExprPtr Expr::select(ExprPtr c, ExprPtr t, ExprPtr e)
{ return makeNode(Op::Select, {std::move(c), std::move(t), std::move(e)}); }

std::int64_t
Expr::constValue() const
{
    util::panicIf(opTag != Op::Const, "constValue on non-Const node");
    return value;
}

FieldId
Expr::fieldId() const
{
    util::panicIf(opTag != Op::Field, "fieldId on non-Field node");
    return fieldRef;
}

std::int64_t
Expr::eval(const FieldVec &fields) const
{
    switch (opTag) {
      case Op::Const:
        return value;
      case Op::Field:
        util::panicIf(static_cast<std::size_t>(fieldRef) >= fields.size(),
                      "field ", fieldRef, " out of range (item has ",
                      fields.size(), " fields)");
        return fields[fieldRef];
      default:
        break;
    }

    const std::int64_t a = children[0]->eval(fields);
    if (opTag == Op::Not)
        return a == 0 ? 1 : 0;
    if (opTag == Op::Select)
        return a != 0 ? children[1]->eval(fields)
                      : children[2]->eval(fields);
    // Short-circuit logical ops.
    if (opTag == Op::And)
        return (a != 0 && children[1]->eval(fields) != 0) ? 1 : 0;
    if (opTag == Op::Or)
        return (a != 0 || children[1]->eval(fields) != 0) ? 1 : 0;

    return applyBinary(opTag, a, children[1]->eval(fields));
}

void
Expr::collectFields(std::set<FieldId> &out) const
{
    if (opTag == Op::Field)
        out.insert(fieldRef);
    for (const auto &c : children)
        c->collectFields(out);
}

bool
Expr::isConstant() const
{
    std::set<FieldId> fields;
    collectFields(fields);
    return fields.empty();
}

std::string
Expr::toString(const std::vector<std::string> *field_names) const
{
    std::ostringstream os;
    switch (opTag) {
      case Op::Const:
        os << value;
        break;
      case Op::Field:
        if (field_names &&
            static_cast<std::size_t>(fieldRef) < field_names->size()) {
            os << (*field_names)[fieldRef];
        } else {
            os << "f" << fieldRef;
        }
        break;
      case Op::Not:
        os << "!(" << children[0]->toString(field_names) << ")";
        break;
      case Op::Select:
        os << "(" << children[0]->toString(field_names) << " ? "
           << children[1]->toString(field_names) << " : "
           << children[2]->toString(field_names) << ")";
        break;
      case Op::Min:
      case Op::Max:
        os << opName(opTag) << "("
           << children[0]->toString(field_names) << ", "
           << children[1]->toString(field_names) << ")";
        break;
      default:
        os << "(" << children[0]->toString(field_names) << " "
           << opName(opTag) << " "
           << children[1]->toString(field_names) << ")";
        break;
    }
    return os.str();
}

} // namespace rtl
} // namespace predvfs
