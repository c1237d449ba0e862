#include "rtl/lint.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "rtl/interval.hh"
#include "util/logging.hh"

namespace predvfs {
namespace rtl {

using util::panicIf;

namespace {

/** Exhaustive guard enumeration is attempted below this domain size. */
constexpr std::uint64_t kMaxGuardDomain = 4096;

std::vector<Interval>
fieldIntervals(const Design &design)
{
    std::vector<Interval> ranges;
    ranges.reserve(design.fieldBounds().size());
    for (const auto &b : design.fieldBounds())
        ranges.push_back({b.lo, b.hi});
    return ranges;
}

/** Locus prefix "fsm 'x' state 'y'" for messages. */
std::string
stateLocus(const Design &design, FsmId f, StateId s)
{
    const Fsm &fsm = design.fsms()[f];
    return "fsm '" + fsm.name + "' state '" + fsm.states[s].name + "'";
}

class Linter
{
  public:
    explicit Linter(const Design &design)
        : design(design), ranges(fieldIntervals(design))
    {
    }

    LintReport run()
    {
        checkCounters();
        checkStates();
        checkLiveness();
        return std::move(report);
    }

  private:
    void
    add(LintSeverity sev, LintCode code, std::string message,
        FsmId f = -1, StateId s = -1, int t = -1, CounterId c = -1,
        FieldId fd = -1, BlockId b = -1)
    {
        LintDiagnostic d;
        d.severity = sev;
        d.code = code;
        d.fsm = f;
        d.state = s;
        d.transition = t;
        d.counter = c;
        d.field = fd;
        d.block = b;
        d.message = std::move(message);
        report.diagnostics.push_back(std::move(d));
    }

    /** Possible violation -> warning, definite violation -> error. */
    static LintSeverity
    severityOf(bool definite)
    {
        return definite ? LintSeverity::Error : LintSeverity::Warning;
    }

    void
    reportDivMod(const IntervalEvalFlags &flags, const std::string &where,
                 const std::string &expr_text, FsmId f = -1,
                 StateId s = -1, int t = -1, CounterId c = -1)
    {
        if (!flags.divModByZeroPossible)
            return;
        add(severityOf(flags.divModByZeroDefinite), LintCode::DivModByZero,
            where + ": " + expr_text +
                (flags.divModByZeroDefinite
                     ? " always divides by zero"
                     : " can divide by zero") +
                " (defined-to-zero semantics)",
            f, s, t, c);
    }

    void
    checkCounters()
    {
        const auto &names = design.fieldNames();
        for (std::size_t c = 0; c < design.counters().size(); ++c) {
            const Counter &ctr = design.counters()[c];
            IntervalEvalFlags flags;
            const Interval iv =
                evalInterval(*ctr.range, ranges, &flags);
            const std::string expr_text = ctr.range->toString(&names);

            reportDivMod(flags, "counter '" + ctr.name + "' range",
                         expr_text, -1, -1, -1,
                         static_cast<CounterId>(c));

            if (iv.lo <= 0) {
                std::ostringstream os;
                os << "counter '" << ctr.name << "' range " << expr_text
                   << (iv.hi <= 0 ? " always evaluates <= 0"
                                  : " can evaluate <= 0")
                   << " (value interval [" << iv.lo << ", " << iv.hi
                   << "]); the interpreter silently clamps it to 1";
                add(severityOf(iv.hi <= 0),
                    LintCode::CounterRangeNonPositive, os.str(), -1, -1,
                    -1, static_cast<CounterId>(c));
            }
            if (ctr.bits < 63) {
                const std::int64_t max_val =
                    (std::int64_t{1} << ctr.bits) - 1;
                if (iv.hi > max_val) {
                    std::ostringstream os;
                    os << "counter '" << ctr.name << "' range "
                       << expr_text << (iv.lo > max_val
                                            ? " always exceeds"
                                            : " can exceed")
                       << " the " << ctr.bits << "-bit register (max "
                       << max_val << ", value interval [" << iv.lo
                       << ", " << iv.hi << "])";
                    add(severityOf(iv.lo > max_val),
                        LintCode::CounterRangeOverflow, os.str(), -1,
                        -1, -1, static_cast<CounterId>(c));
                }
            }
        }
    }

    void
    checkStates()
    {
        const auto &names = design.fieldNames();
        for (std::size_t f = 0; f < design.fsms().size(); ++f) {
            const Fsm &fsm = design.fsms()[f];
            for (std::size_t s = 0; s < fsm.states.size(); ++s) {
                const State &st = fsm.states[s];
                const auto fid = static_cast<FsmId>(f);
                const auto sid = static_cast<StateId>(s);

                if (st.kind == LatencyKind::Implicit) {
                    IntervalEvalFlags flags;
                    const Interval iv = evalInterval(
                        *st.implicitLatency, ranges, &flags);
                    const std::string expr_text =
                        st.implicitLatency->toString(&names);
                    reportDivMod(flags,
                                 stateLocus(design, fid, sid) +
                                     " implicit latency",
                                 expr_text, fid, sid);
                    if (iv.lo < 1) {
                        std::ostringstream os;
                        os << stateLocus(design, fid, sid)
                           << " implicit latency " << expr_text
                           << (iv.hi < 1 ? " always evaluates < 1"
                                         : " can evaluate < 1")
                           << " (value interval [" << iv.lo << ", "
                           << iv.hi
                           << "]); the interpreter silently clamps "
                              "it to 1";
                        add(severityOf(iv.hi < 1),
                            LintCode::ImplicitLatencyNonPositive,
                            os.str(), fid, sid);
                    }
                }

                if (!st.terminal && !st.transitions.empty())
                    checkGuards(fid, sid);
            }
        }
    }

    /**
     * Guard satisfiability for one non-terminal state: an interval
     * verdict per edge first, then (when the consumed fields span a
     * small finite domain) an exact exhaustive check.
     */
    void
    checkGuards(FsmId f, StateId s)
    {
        const auto &names = design.fieldNames();
        const State &st = design.fsms()[f].states[s];
        const std::size_t n = st.transitions.size();
        const std::string locus = stateLocus(design, f, s);

        auto edgeText = [&](std::size_t i) {
            const Transition &t = st.transitions[i];
            std::string text = "edge #" + std::to_string(i) + " -> '" +
                design.fsms()[f].states[t.dst].name + "'";
            if (t.guard)
                text += " [" + t.guard->toString(&names) + "]";
            return text;
        };

        std::vector<bool> reported(n, false);

        // --- Interval pass, in declaration order. -------------------
        for (std::size_t i = 0; i < n; ++i) {
            const Transition &t = st.transitions[i];
            const bool final_edge = i + 1 == n;

            IntervalEvalFlags flags;
            const Interval iv = t.guard
                ? evalInterval(*t.guard, ranges, &flags)
                : Interval::point(1);
            if (t.guard)
                reportDivMod(flags, locus + " guard of " + edgeText(i),
                             t.guard->toString(&names), f, s,
                             static_cast<int>(i));

            if (iv.definitelyFalse()) {
                add(LintSeverity::Error, LintCode::DeadEdge,
                    locus + " " + edgeText(i) +
                        ": guard is provably always false (dead edge)",
                    f, s, static_cast<int>(i));
                reported[i] = true;
            } else if (iv.definitelyTrue() && !final_edge) {
                add(LintSeverity::Error, LintCode::ShadowedEdge,
                    locus + " " + edgeText(i) +
                        ": guard is provably always true, shadowing "
                        "every later edge including the default",
                    f, s, static_cast<int>(i));
                return;  // Later edges are dead *because* of this one.
            }
        }

        // --- Exact pass over small finite guard domains. ------------
        std::set<FieldId> consumed;
        for (const auto &t : st.transitions)
            if (t.guard)
                t.guard->collectFields(consumed);

        std::uint64_t domain = 1;
        for (FieldId fd : consumed) {
            const auto &b = design.fieldBounds()[fd];
            const auto width =
                static_cast<unsigned __int128>(b.hi) - b.lo + 1;
            if (width > kMaxGuardDomain ||
                domain > kMaxGuardDomain / width)
                return;  // Too large; interval verdicts stand.
            domain *= static_cast<std::uint64_t>(width);
        }

        std::vector<FieldId> vars(consumed.begin(), consumed.end());
        FieldVec fields(design.numFields(), 0);
        for (std::size_t fd = 0; fd < fields.size(); ++fd)
            fields[fd] = design.fieldBounds()[fd].lo;

        std::vector<std::uint64_t> fired(n, 0);
        std::vector<std::uint64_t> odometer(vars.size(), 0);
        for (std::uint64_t it = 0; it < domain; ++it) {
            for (std::size_t v = 0; v < vars.size(); ++v)
                fields[vars[v]] =
                    design.fieldBounds()[vars[v]].lo +
                    static_cast<std::int64_t>(odometer[v]);
            for (std::size_t i = 0; i < n; ++i) {
                const Transition &t = st.transitions[i];
                if (!t.guard || t.guard->eval(fields) != 0) {
                    ++fired[i];
                    break;
                }
            }
            for (std::size_t v = 0; v < vars.size(); ++v) {
                const auto &b = design.fieldBounds()[vars[v]];
                if (++odometer[v] <=
                    static_cast<std::uint64_t>(b.hi - b.lo))
                    break;
                odometer[v] = 0;
            }
        }

        for (std::size_t i = 0; i < n; ++i) {
            const Transition &t = st.transitions[i];
            const bool final_edge = i + 1 == n;
            if (fired[i] == domain && !final_edge) {
                // Always taken: every later edge is starved by it.
                add(LintSeverity::Error, LintCode::ShadowedEdge,
                    locus + " " + edgeText(i) +
                        ": guard is true for every reachable field "
                        "value, shadowing every later edge including "
                        "the default",
                    f, s, static_cast<int>(i));
                return;
            }
            if (fired[i] != 0 || reported[i])
                continue;
            if (t.guard) {
                add(LintSeverity::Error, LintCode::DeadEdge,
                    locus + " " + edgeText(i) +
                        ": guard never fires for any reachable field "
                        "value (dead edge)",
                    f, s, static_cast<int>(i));
            } else {
                add(LintSeverity::Warning,
                    LintCode::DefaultUnreachable,
                    locus + " " + edgeText(i) +
                        ": the guarded edges above cover every "
                        "reachable field value, so the default edge "
                        "never fires",
                    f, s, static_cast<int>(i));
            }
        }
    }

    void
    checkLiveness()
    {
        // Counters never armed by any wait state.
        for (std::size_t c = 0; c < design.counters().size(); ++c) {
            bool armed = false;
            for (const auto &fsm : design.fsms())
                for (const auto &st : fsm.states)
                    armed |= st.kind == LatencyKind::CounterWait &&
                        st.counter == static_cast<CounterId>(c);
            if (!armed) {
                add(LintSeverity::Warning, LintCode::CounterNeverArmed,
                    "counter '" + design.counters()[c].name +
                        "' is armed by no wait state; it can never "
                        "source a feature",
                    -1, -1, -1, static_cast<CounterId>(c));
            }
        }

        // Fields neither read by an expression nor produced.
        std::set<FieldId> read;
        std::set<FieldId> produced;
        for (const auto &c : design.counters())
            c.range->collectFields(read);
        for (const auto &fsm : design.fsms()) {
            for (const auto &st : fsm.states) {
                if (st.kind == LatencyKind::Implicit)
                    st.implicitLatency->collectFields(read);
                for (const auto &t : st.transitions)
                    if (t.guard)
                        t.guard->collectFields(read);
                produced.insert(st.producesFields.begin(),
                                st.producesFields.end());
            }
        }
        for (std::size_t fd = 0; fd < design.numFields(); ++fd) {
            const auto id = static_cast<FieldId>(fd);
            if (!read.count(id) && !produced.count(id)) {
                add(LintSeverity::Warning, LintCode::FieldUnused,
                    "field '" + design.fieldNames()[fd] +
                        "' is read by no expression and produced by "
                        "no state",
                    -1, -1, -1, -1, id);
            }
        }

        // Datapath blocks attached to no state.
        for (std::size_t b = 0; b < design.blocks().size(); ++b) {
            bool attached = false;
            for (const auto &fsm : design.fsms())
                for (const auto &st : fsm.states)
                    attached |= st.block == static_cast<BlockId>(b);
            if (!attached) {
                add(LintSeverity::Warning, LintCode::BlockUnattached,
                    "datapath block '" + design.blocks()[b].name +
                        "' is attached to no state; its area and "
                        "energy are dead weight",
                    -1, -1, -1, -1, -1, static_cast<BlockId>(b));
            }
        }
    }

    const Design &design;
    const std::vector<Interval> ranges;
    LintReport report;
};

} // namespace

const char *
lintCodeName(LintCode code)
{
    switch (code) {
      case LintCode::CounterRangeNonPositive:
        return "counter-range-nonpositive";
      case LintCode::CounterRangeOverflow:
        return "counter-range-overflow";
      case LintCode::DivModByZero: return "div-mod-by-zero";
      case LintCode::ImplicitLatencyNonPositive:
        return "implicit-latency-nonpositive";
      case LintCode::DeadEdge: return "dead-edge";
      case LintCode::ShadowedEdge: return "shadowed-edge";
      case LintCode::DefaultUnreachable: return "default-unreachable";
      case LintCode::CounterNeverArmed: return "counter-never-armed";
      case LintCode::FieldUnused: return "field-unused";
      case LintCode::BlockUnattached: return "block-unattached";
      case LintCode::SliceStcEdgeMissing:
        return "slice-stc-edge-missing";
      case LintCode::SliceCounterUnarmed:
        return "slice-counter-unarmed";
      case LintCode::SliceFieldUnproduced:
        return "slice-field-unproduced";
    }
    return "?";
}

const char *
lintSeverityName(LintSeverity severity)
{
    return severity == LintSeverity::Error ? "error" : "warning";
}

std::size_t
LintReport::numErrors() const
{
    std::size_t n = 0;
    for (const auto &d : diagnostics)
        n += d.severity == LintSeverity::Error;
    return n;
}

std::size_t
LintReport::numWarnings() const
{
    return diagnostics.size() - numErrors();
}

std::vector<LintDiagnostic>
LintReport::withCode(LintCode code) const
{
    std::vector<LintDiagnostic> out;
    for (const auto &d : diagnostics)
        if (d.code == code)
            out.push_back(d);
    return out;
}

LintReport
lintDesign(const Design &design)
{
    panicIf(!design.validated(),
            "lintDesign: design '", design.name(), "' not validated");
    return Linter(design).run();
}

LintReport
lintSlice(const Design &original, const SliceResult &slice)
{
    const Design &s = slice.design;
    panicIf(!s.validated(), "lintSlice: slice not validated");
    LintReport report;

    auto error = [&](LintCode code, std::string message, FsmId f = -1,
                     CounterId c = -1, FieldId fd = -1) {
        LintDiagnostic d;
        d.severity = LintSeverity::Error;
        d.code = code;
        d.fsm = f;
        d.counter = c;
        d.field = fd;
        d.message = std::move(message);
        report.diagnostics.push_back(std::move(d));
    };

    auto counterArmed = [&](CounterId c) {
        for (const auto &fsm : s.fsms())
            for (const auto &st : fsm.states)
                if (st.kind == LatencyKind::CounterWait &&
                    st.counter == c)
                    return true;
        return false;
    };

    // Every selected feature must still be observable in the slice.
    for (const auto &spec : slice.features) {
        switch (spec.kind) {
          case FeatureKind::Stc: {
            if (spec.fsm < 0 ||
                static_cast<std::size_t>(spec.fsm) >= s.fsms().size()) {
                error(LintCode::SliceStcEdgeMissing,
                      "feature '" + spec.name +
                          "': rebased fsm id is out of range",
                      spec.fsm);
                break;
            }
            const Fsm &fsm = s.fsms()[spec.fsm];
            const auto states =
                static_cast<StateId>(fsm.states.size());
            if (spec.src < 0 || spec.src >= states || spec.dst < 0 ||
                spec.dst >= states) {
                error(LintCode::SliceStcEdgeMissing,
                      "feature '" + spec.name +
                          "': rebased state ids are out of range",
                      spec.fsm);
                break;
            }
            bool present = false;
            for (const auto &t : fsm.states[spec.src].transitions)
                present |= t.dst == spec.dst;
            if (!present) {
                error(LintCode::SliceStcEdgeMissing,
                      "feature '" + spec.name + "': slice fsm '" +
                          fsm.name + "' has no edge '" +
                          fsm.states[spec.src].name + "' -> '" +
                          fsm.states[spec.dst].name +
                          "'; the transition count can never fire",
                      spec.fsm);
            }
            break;
          }
          case FeatureKind::Ic:
          case FeatureKind::Siv:
          case FeatureKind::Spv: {
            if (spec.counter < 0 ||
                static_cast<std::size_t>(spec.counter) >=
                    s.counters().size()) {
                error(LintCode::SliceCounterUnarmed,
                      "feature '" + spec.name +
                          "': rebased counter id is out of range",
                      -1, spec.counter);
                break;
            }
            if (!counterArmed(spec.counter)) {
                error(LintCode::SliceCounterUnarmed,
                      "feature '" + spec.name + "': counter '" +
                          s.counters()[spec.counter].name +
                          "' is armed by no wait or arm-only state; "
                          "the instrumentation would record nothing",
                      -1, spec.counter);
            }
            break;
          }
        }
    }

    // Fields consumed by kept control logic must still be produced by
    // a kept state whenever the original design produced them (fields
    // never produced anywhere are external inputs and need no
    // producer).
    std::set<FieldId> consumed;
    for (const auto &fsm : s.fsms()) {
        for (const auto &st : fsm.states) {
            for (const auto &t : st.transitions)
                if (t.guard)
                    t.guard->collectFields(consumed);
            if (st.kind == LatencyKind::CounterWait)
                s.counters()[st.counter].range->collectFields(consumed);
            if (st.kind == LatencyKind::Implicit)
                st.implicitLatency->collectFields(consumed);
        }
    }
    for (const auto &spec : slice.features) {
        if (spec.counter >= 0 &&
            static_cast<std::size_t>(spec.counter) <
                s.counters().size())
            s.counters()[spec.counter].range->collectFields(consumed);
    }

    std::set<FieldId> produced_in_slice;
    for (const auto &fsm : s.fsms())
        for (const auto &st : fsm.states)
            produced_in_slice.insert(st.producesFields.begin(),
                                     st.producesFields.end());

    std::set<std::string> produced_in_original;
    for (const auto &fsm : original.fsms())
        for (const auto &st : fsm.states)
            for (FieldId fd : st.producesFields)
                produced_in_original.insert(
                    original.fieldNames()[fd]);

    for (FieldId fd : consumed) {
        const std::string &name = s.fieldNames()[fd];
        if (produced_in_original.count(name) &&
            !produced_in_slice.count(fd)) {
            error(LintCode::SliceFieldUnproduced,
                  "field '" + name +
                      "' is consumed by kept control logic but its "
                      "producing state did not survive the slice",
                  -1, -1, fd);
        }
    }

    return report;
}

} // namespace rtl
} // namespace predvfs
