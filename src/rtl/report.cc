#include "rtl/report.hh"

#include "util/logging.hh"

namespace predvfs {
namespace rtl {

namespace {

const char *
latencyLabel(const State &st)
{
    switch (st.kind) {
      case LatencyKind::Fixed: return "fixed";
      case LatencyKind::CounterWait: return "counter";
      case LatencyKind::Implicit: return "implicit";
    }
    return "?";
}

} // namespace

void
writeDesignReport(std::ostream &os, const Design &design)
{
    util::panicIf(!design.validated(),
                  "writeDesignReport: design not validated");
    const auto &names = design.fieldNames();

    os << "design " << design.name() << "\n"
       << "  fields (" << names.size() << "):";
    for (const auto &f : names)
        os << " " << f;
    os << "\n  per-job overhead: " << design.perJobOverheadCycles()
       << " cycles\n  area: " << design.areaUnits() << " units ("
       << design.controlAreaUnits() << " control)\n";

    os << "  counters (" << design.counters().size() << "):\n";
    for (const auto &c : design.counters()) {
        os << "    " << c.name << " ["
           << (c.dir == CounterDir::Down ? "down" : "up") << ", "
           << c.bits << "b] range = " << c.range->toString(&names)
           << "\n";
    }

    os << "  datapath blocks (" << design.blocks().size() << "):\n";
    for (const auto &b : design.blocks()) {
        os << "    " << b.name << " area=" << b.areaWeight
           << " energy/op=" << b.energyWeight
           << (b.shared ? " (shared)" : "") << "\n";
    }

    for (std::size_t f = 0; f < design.fsms().size(); ++f) {
        const Fsm &fsm = design.fsms()[f];
        os << "  fsm " << fsm.name;
        if (fsm.startAfter >= 0)
            os << " (after " << design.fsms()[fsm.startAfter].name
               << ")";
        os << ":\n";
        for (std::size_t s = 0; s < fsm.states.size(); ++s) {
            const State &st = fsm.states[s];
            os << "    " << st.name << " [" << latencyLabel(st);
            if (st.kind == LatencyKind::Fixed)
                os << " " << st.fixedCycles;
            if (st.kind == LatencyKind::CounterWait)
                os << " " << design.counters()[st.counter].name;
            if (st.kind == LatencyKind::Implicit)
                os << " " << st.implicitLatency->toString(&names);
            os << "]";
            if (st.essential)
                os << " essential";
            if (st.terminal)
                os << " terminal";
            os << "\n";
            for (const auto &t : st.transitions) {
                os << "      -> " << fsm.states[t.dst].name;
                if (t.guard)
                    os << " when " << t.guard->toString(&names);
                os << "\n";
            }
        }
    }
}

void
writeDot(std::ostream &os, const Design &design)
{
    util::panicIf(!design.validated(), "writeDot: design not validated");
    const auto &names = design.fieldNames();

    os << "digraph \"" << design.name() << "\" {\n"
       << "  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";

    for (std::size_t f = 0; f < design.fsms().size(); ++f) {
        const Fsm &fsm = design.fsms()[f];
        os << "  subgraph cluster_" << f << " {\n"
           << "    label=\"" << fsm.name << "\";\n";
        for (std::size_t s = 0; s < fsm.states.size(); ++s) {
            const State &st = fsm.states[s];
            os << "    f" << f << "s" << s << " [label=\"" << st.name;
            if (st.kind == LatencyKind::CounterWait)
                os << "\\nwait "
                   << design.counters()[st.counter].name;
            os << "\"";
            if (st.terminal)
                os << ", peripheries=2";
            if (st.essential)
                os << ", style=bold";
            os << "];\n";
        }
        for (std::size_t s = 0; s < fsm.states.size(); ++s) {
            for (const auto &t : fsm.states[s].transitions) {
                os << "    f" << f << "s" << s << " -> f" << f << "s"
                   << t.dst;
                if (t.guard)
                    os << " [label=\"" << t.guard->toString(&names)
                       << "\"]";
                os << ";\n";
            }
        }
        os << "  }\n";
    }
    os << "}\n";
}

void
writeAnalysisReport(std::ostream &os, const Design &design,
                    const AnalysisReport &report)
{
    os << "analysis of " << design.name() << ": "
       << report.numFeatures() << " features from " << report.numFsms
       << " FSM(s) / " << report.numCounters << " counter(s)\n";
    for (const auto &spec : report.features)
        os << "  [" << featureKindName(spec.kind) << "] " << spec.name
           << "\n";
    if (!report.implicitStates.empty()) {
        os << "  unmodellable (implicit-latency) states:\n";
        for (const auto &st : report.implicitStates)
            os << "    " << st.name << "\n";
    }
}

void
writeLintReport(std::ostream &os, const Design &design,
                const LintReport &report)
{
    for (const auto &d : report.diagnostics) {
        os << design.name() << ": " << lintSeverityName(d.severity)
           << ": [" << lintCodeName(d.code) << "] " << d.message
           << "\n";
    }
    os << design.name() << ": " << report.numErrors() << " error(s), "
       << report.numWarnings() << " warning(s)\n";
}

namespace {

/** Minimal JSON string escaping (quotes, backslashes, control chars). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

void
writeLintReportJson(std::ostream &os, const Design &design,
                    const LintReport &report)
{
    os << "{\n  \"design\": \"" << jsonEscape(design.name())
       << "\",\n  \"errors\": " << report.numErrors()
       << ",\n  \"warnings\": " << report.numWarnings()
       << ",\n  \"diagnostics\": [";
    for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
        const auto &d = report.diagnostics[i];
        os << (i ? "," : "") << "\n    {\"severity\": \""
           << lintSeverityName(d.severity) << "\", \"code\": \""
           << lintCodeName(d.code) << "\", \"fsm\": " << d.fsm
           << ", \"state\": " << d.state
           << ", \"transition\": " << d.transition
           << ", \"counter\": " << d.counter
           << ", \"field\": " << d.field
           << ", \"block\": " << d.block << ", \"message\": \""
           << jsonEscape(d.message) << "\"}";
    }
    os << (report.diagnostics.empty() ? "" : "\n  ") << "]\n}\n";
}

void
writeVerifyReport(std::ostream &os, const Design &design,
                  const VerifyReport &report)
{
    for (const auto &d : report.diagnostics) {
        os << design.name() << ": " << verifySeverityName(d.severity)
           << ": [" << verifyCodeName(d.code) << "] " << d.message
           << "\n";
    }
    for (const auto &c : report.certificates) {
        os << design.name() << ": lockstep: " << c.fsmName << ": "
           << (c.staticRouted ? "static-routed" : "branch-dynamic")
           << " — " << c.reason << "\n";
    }
    if (report.tapFeatures != 0) {
        os << design.name() << ": taps: " << report.tapFeatures
           << " feature(s), " << report.tapsChecked
           << " tap(s) audited\n";
    }
    os << design.name() << ": verify: " << report.numErrors()
       << " error(s), " << report.numWarnings() << " warning(s); "
       << report.rootsProven << " roots proven, "
       << report.rootsEnumerated << " enumerated, "
       << report.programsChecked << " programs checked, "
       << report.slotsChecked << " slots audited, "
       << report.guardedDivSites << " guarded div site(s)\n";
}

void
writeVerifyReportJson(std::ostream &os, const Design &design,
                      const VerifyReport &report)
{
    os << "{\n  \"design\": \"" << jsonEscape(design.name())
       << "\",\n  \"errors\": " << report.numErrors()
       << ",\n  \"warnings\": " << report.numWarnings()
       << ",\n  \"proven\": {\"roots_canonical\": " << report.rootsProven
       << ", \"roots_enumerated\": " << report.rootsEnumerated
       << ", \"programs_checked\": " << report.programsChecked
       << ", \"slots_audited\": " << report.slotsChecked
       << ", \"guarded_div_sites\": " << report.guardedDivSites
       << "},\n";
    if (report.tapFeatures != 0) {
        os << "  \"taps\": {\"features\": " << report.tapFeatures
           << ", \"taps_audited\": " << report.tapsChecked << "},\n";
    }
    os << "  \"certificates\": [";
    for (std::size_t i = 0; i < report.certificates.size(); ++i) {
        const auto &c = report.certificates[i];
        os << (i ? "," : "") << "\n    {\"fsm\": " << c.fsm
           << ", \"name\": \"" << jsonEscape(c.fsmName)
           << "\", \"static_routed\": "
           << (c.staticRouted ? "true" : "false") << ", \"reason\": \""
           << jsonEscape(c.reason) << "\"}";
    }
    os << (report.certificates.empty() ? "" : "\n  ")
       << "],\n  \"diagnostics\": [";
    for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
        const auto &d = report.diagnostics[i];
        os << (i ? "," : "") << "\n    {\"severity\": \""
           << verifySeverityName(d.severity) << "\", \"code\": \""
           << verifyCodeName(d.code) << "\", \"fsm\": " << d.fsm
           << ", \"state\": " << d.state
           << ", \"program\": " << d.program << ", \"message\": \""
           << jsonEscape(d.message) << "\"}";
    }
    os << (report.diagnostics.empty() ? "" : "\n  ") << "]\n}\n";
}

} // namespace rtl
} // namespace predvfs
