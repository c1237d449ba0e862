/**
 * @file
 * Translation validator (predvfs-verify): a clean bill of health for
 * every registry benchmark and its RTL/HLS slices (zero diagnostics,
 * certificates matching the batch kernel's routing), a seeded
 * compiler-mutation harness asserting every deliberate miscompile is
 * statically rejected, the PREDVFS_VERIFY knob parsing, and golden
 * JSON fixtures for the report writer.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "accel/builder.hh"
#include "accel/registry.hh"
#include "rtl/analysis.hh"
#include "rtl/compile.hh"
#include "rtl/report.hh"
#include "rtl/slicer.hh"
#include "rtl/verify.hh"

using namespace predvfs;
using namespace predvfs::rtl;
using accel::doneState;
using accel::fixedState;
using accel::implicitState;
using accel::waitState;

namespace {

/**
 * A crafted design with at least one eligible mutation site for every
 * Miscompile kind: an affine counter range (merged linear and
 * conditional terms), a bytecode program with repeated subtrees and a
 * comparison instruction, Bin2 composites with non-commutative
 * operators, a field-dependent guard (branch-dynamic FSM), and a
 * second, fully statically-routed FSM the lockstep batch kernel
 * traces.
 */
Design
richDesign()
{
    Design d("rich");
    const FieldId x = d.addField("x");
    const FieldId y = d.addField("y");
    d.setFieldRange(x, 0, 5);
    d.setFieldRange(y, 1, 6);

    // Affine range: 3 + 2*x + select(y > 2, 5, 1).
    const ExprPtr range0 = Expr::add(
        Expr::add(lit(3), Expr::mul(lit(2), fld(x))),
        Expr::select(Expr::gt(fld(y), lit(2)), lit(5), lit(1)));
    const CounterId c0 =
        d.addCounter("c0", CounterDir::Down, range0, 16);
    const CounterId c1 = d.addCounter("c1", CounterDir::Up, lit(4), 8);

    // Big expression that repeats two subtrees (t and u) and holds a
    // comparison, so the bytecode path has field and constant pushes
    // and a complementable instruction.
    const ExprPtr t = Expr::add(Expr::mul(fld(x), fld(y)), lit(3));
    const ExprPtr u = Expr::add(fld(y), lit(1));
    const ExprPtr big = Expr::add(
        Expr::add(Expr::add(Expr::mul(t, t), Expr::div(t, u)),
                  Expr::mod(fld(x), u)),
        Expr::select(Expr::lt(fld(x), fld(y)), lit(2), lit(7)));

    const FsmId dyn = d.addFsm("dyn");
    const StateId w0 = d.addState(dyn, waitState("W0", c0));
    const StateId l1 = d.addState(dyn, implicitState("L1", big));
    const StateId l3 = d.addState(
        dyn, implicitState("L3", Expr::div(Expr::add(fld(x), lit(1)),
                                           fld(y))));
    const StateId s2 = d.addState(dyn, fixedState("S2", 2));
    const StateId a = d.addState(dyn, fixedState("A", 1));
    const StateId b = d.addState(dyn, fixedState("B", 2));
    const StateId done = d.addState(dyn, doneState("Done"));
    d.addTransition(dyn, w0, nullptr, l1);
    d.addTransition(dyn, l1, nullptr, l3);
    d.addTransition(dyn, l3, nullptr, s2);
    d.addTransition(dyn, s2, Expr::lt(fld(x), fld(y)), a);
    d.addTransition(dyn, s2, nullptr, b);
    d.addTransition(dyn, a, nullptr, done);
    d.addTransition(dyn, b, nullptr, done);

    const FsmId lock = d.addFsm("lock");
    const StateId f1 = d.addState(lock, fixedState("F1", 3));
    const StateId w2 = d.addState(lock, waitState("W2", c1));
    const StateId ld = d.addState(lock, doneState("LockDone"));
    d.addTransition(lock, f1, nullptr, w2);
    d.addTransition(lock, w2, nullptr, ld);

    d.validate();
    return d;
}

/** The minimal design behind the mutated-report golden fixture. */
Design
miniDesign()
{
    Design d("mini");
    const FieldId x = d.addField("x");
    const FieldId y = d.addField("y");
    d.setFieldRange(x, 0, 3);
    d.setFieldRange(y, 0, 3);
    const FsmId f = d.addFsm("main");
    const StateId s0 = d.addState(f, fixedState("S0", 1));
    const StateId done = d.addState(f, doneState("Done"));
    d.addTransition(f, s0, Expr::lt(fld(x), fld(y)), done);
    d.addTransition(f, s0, nullptr, done);
    d.validate();
    return d;
}

std::string
goldenPath(const std::string &name)
{
    return std::string(PREDVFS_SOURCE_DIR) + "/tests/goldens/" + name +
           ".golden";
}

/**
 * Compare @p actual against a golden file; regenerate it instead when
 * PREDVFS_REGEN_GOLDENS is set (then fail, so a stale CI cannot pass
 * by silently rewriting fixtures).
 */
void
expectMatchesGolden(const std::string &name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    if (std::getenv("PREDVFS_REGEN_GOLDENS")) {
        std::ofstream out(path);
        out << actual;
        FAIL() << "regenerated golden " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path;
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), actual) << "golden mismatch: " << path;
}

const Miscompile kAllMiscompiles[] = {
    Miscompile::DropAffineTerm,
    Miscompile::AffineImmOffByOne,
    Miscompile::SwapBinOperands,
    Miscompile::WrongOpcode,
    Miscompile::PoolConstCorrupt,
    Miscompile::StackImbalance,
    Miscompile::FieldIndexCorrupt,
    Miscompile::PresummedCyclesOffByOne,
    Miscompile::SlotDwellCorrupt,
    Miscompile::SlotEnergyCorrupt,
    Miscompile::AddendCorrupt,
    Miscompile::SegmentRerouted,
    Miscompile::TraceMisroute,
    Miscompile::TraceCycleSkew,
    Miscompile::GuardDropped,
    Miscompile::TransitionRetarget,
    Miscompile::StateEnergyCorrupt,
    Miscompile::FixedDwellCorrupt,
    Miscompile::JobOverheadCorrupt,
};

} // namespace

// ---- Clean designs prove clean --------------------------------------

TEST(Verify, AllBenchmarksVerifyClean)
{
    for (const auto &name : accel::benchmarkNames()) {
        const auto acc = accel::makeAccelerator(name);
        const CompiledDesign comp(acc->design());
        const VerifyReport report = verifyCompiledDesign(comp);
        EXPECT_EQ(report.diagnostics.size(), 0u)
            << name << ": " << [&] {
                   std::ostringstream os;
                   writeVerifyReport(os, acc->design(), report);
                   return os.str();
               }();
        EXPECT_TRUE(report.clean());
        // Every linked root got one of the two proofs.
        EXPECT_GT(report.rootsProven + report.rootsEnumerated, 0u);
        EXPECT_EQ(report.programsChecked, comp.numPrograms());
    }
}

TEST(Verify, SlicesVerifyClean)
{
    for (const auto &name : accel::benchmarkNames()) {
        const auto acc = accel::makeAccelerator(name);
        for (const auto mode : {SliceOptions::Mode::Rtl,
                                SliceOptions::Mode::Hls}) {
            const auto analysis = analyze(acc->design());
            SliceOptions options;
            options.mode = mode;
            const SliceResult slice =
                makeSlice(acc->design(), analysis.features, options);
            const CompiledDesign comp(slice.design);
            EXPECT_TRUE(verifyCompiledDesign(comp).clean())
                << name << " slice";
        }
    }
}

TEST(Verify, CraftedDesignsVerifyClean)
{
    for (const Design &d : {richDesign(), miniDesign()}) {
        const CompiledDesign comp(d);
        const VerifyReport report = verifyCompiledDesign(comp);
        EXPECT_EQ(report.diagnostics.size(), 0u) << d.name();
    }
}

// ---- Lockstep routability certificates ------------------------------

TEST(Verify, CertificatesMatchBatchKernelRouting)
{
    for (const auto &name : accel::benchmarkNames()) {
        const auto acc = accel::makeAccelerator(name);
        const CompiledDesign comp(acc->design());
        const VerifyReport report = verifyCompiledDesign(comp);
        ASSERT_EQ(report.certificates.size(),
                  acc->design().fsms().size())
            << name;
        std::size_t lockstep = 0;
        for (const LockstepCertificate &cert : report.certificates) {
            EXPECT_EQ(cert.staticRouted, comp.fsmLockstep(cert.fsm))
                << name << " fsm " << cert.fsmName;
            EXPECT_FALSE(cert.reason.empty());
            lockstep += cert.staticRouted ? 1 : 0;
        }
        EXPECT_EQ(lockstep, comp.numLockstepFsms()) << name;
    }
}

TEST(Verify, CertificateReasonsNameTheBlockingGuard)
{
    const Design d = richDesign();
    const CompiledDesign comp(d);
    const VerifyReport report = verifyCompiledDesign(comp);
    ASSERT_EQ(report.certificates.size(), 2u);

    const LockstepCertificate &dyn = report.certificates[0];
    EXPECT_FALSE(dyn.staticRouted);
    EXPECT_FALSE(comp.fsmLockstep(0));
    // The reason pins the branching state, its guard, and the fields.
    EXPECT_NE(dyn.reason.find("S2"), std::string::npos) << dyn.reason;
    EXPECT_NE(dyn.reason.find("x"), std::string::npos) << dyn.reason;
    EXPECT_NE(dyn.reason.find("y"), std::string::npos) << dyn.reason;

    const LockstepCertificate &lock = report.certificates[1];
    EXPECT_TRUE(lock.staticRouted);
    EXPECT_TRUE(comp.fsmLockstep(1));
    EXPECT_NE(lock.reason.find("static-routed"), std::string::npos);
}

// ---- Seeded mutation harness ----------------------------------------

TEST(VerifyMutation, EveryMiscompileKindIsStaticallyRejected)
{
    const Design d = richDesign();
    for (const Miscompile kind : kAllMiscompiles) {
        for (unsigned seed = 0; seed < 3; ++seed) {
            CompiledDesign comp(d);
            const std::string what = injectMiscompile(comp, kind, seed);
            ASSERT_FALSE(what.empty())
                << miscompileName(kind) << " has no eligible site";
            const VerifyReport report = verifyCompiledDesign(comp);
            EXPECT_GT(report.numErrors(), 0u)
                << "undetected miscompile: " << what;
        }
    }
}

// ---- Speculation audit ----------------------------------------------

namespace {

/** A profile stream for richDesign (x < y at S2, mixed outcomes). */
std::vector<JobInput>
richTrainStream()
{
    std::vector<JobInput> jobs;
    for (int j = 0; j < 4; ++j) {
        JobInput job;
        for (int i = 0; i < 6; ++i) {
            WorkItem item;
            item.fields = {j % 5, 1 + (i + j) % 6};
            job.items.push_back(std::move(item));
        }
        jobs.push_back(std::move(job));
    }
    return jobs;
}

const Miscompile kSpecMiscompiles[] = {
    Miscompile::SpecRetarget,
    Miscompile::SpecPredictFlip,
    Miscompile::SpecCycleSkew,
};

} // namespace

TEST(VerifySpeculation, SpeculatedDesignVerifiesClean)
{
    const Design d = richDesign();
    CompiledDesign comp(d);
    comp.speculate(richTrainStream());
    ASSERT_EQ(comp.numSpeculatedFsms(), 1u);
    const VerifyReport report = verifyCompiledDesign(comp);
    EXPECT_EQ(report.diagnostics.size(), 0u) << [&] {
        std::ostringstream os;
        writeVerifyReport(os, d, report);
        return os.str();
    }();
    // Inverting every prediction re-routes but stays provable.
    comp.invertSpeculation();
    EXPECT_TRUE(verifyCompiledDesign(comp).clean());
}

TEST(VerifySpeculation, SpecMiscompilesNeedASpeculatedDesign)
{
    // Without speculation tables there is no eligible site; the kinds
    // must refuse rather than corrupt unrelated state.
    const Design d = richDesign();
    CompiledDesign comp(d);
    for (const Miscompile kind : kSpecMiscompiles)
        EXPECT_TRUE(injectMiscompile(comp, kind, 0).empty())
            << miscompileName(kind);
}

TEST(VerifySpeculation, EverySpecMiscompileIsStaticallyRejected)
{
    const Design d = richDesign();
    const std::vector<JobInput> stream = richTrainStream();
    for (const Miscompile kind : kSpecMiscompiles) {
        for (unsigned seed = 0; seed < 3; ++seed) {
            CompiledDesign comp(d);
            comp.speculate(stream);
            const std::string what = injectMiscompile(comp, kind, seed);
            ASSERT_FALSE(what.empty())
                << miscompileName(kind) << " has no eligible site";
            const VerifyReport report = verifyCompiledDesign(comp);
            EXPECT_GT(report.numErrors(), 0u)
                << "undetected miscompile: " << what;
            EXPECT_FALSE(
                report.withCode(VerifyCode::SpeculationMismatch)
                    .empty())
                << what;
        }
    }
}

TEST(VerifyMutation, BenchmarkModelsRejectMutationsToo)
{
    // The harness must also bite on real designs, not only the
    // crafted one; sha exercises deep bytecode programs.
    const auto acc = accel::makeAccelerator("sha");
    std::size_t injected = 0;
    for (const Miscompile kind : kAllMiscompiles) {
        CompiledDesign comp(acc->design());
        const std::string what = injectMiscompile(comp, kind, 7);
        if (what.empty())
            continue;  // Kind has no site in this model; covered above.
        ++injected;
        EXPECT_GT(verifyCompiledDesign(comp).numErrors(), 0u)
            << "undetected miscompile: " << what;
    }
    EXPECT_GE(injected, 10u);
}

TEST(VerifyMutation, DescriptionsNameTheKind)
{
    const Design d = richDesign();
    CompiledDesign comp(d);
    const std::string what =
        injectMiscompile(comp, Miscompile::GuardDropped, 0);
    EXPECT_NE(what.find("guard-dropped"), std::string::npos) << what;
}

// ---- Environment knob -----------------------------------------------

TEST(VerifyMode, EnvKnobParsing)
{
    const char *old = std::getenv("PREDVFS_VERIFY");
    const std::string saved = old ? old : "";

    unsetenv("PREDVFS_VERIFY");
    EXPECT_EQ(verifyModeFromEnv(), VerifyMode::Enforce);
    setenv("PREDVFS_VERIFY", "1", 1);
    EXPECT_EQ(verifyModeFromEnv(), VerifyMode::Enforce);
    setenv("PREDVFS_VERIFY", "0", 1);
    EXPECT_EQ(verifyModeFromEnv(), VerifyMode::Off);
    setenv("PREDVFS_VERIFY", "off", 1);
    EXPECT_EQ(verifyModeFromEnv(), VerifyMode::Off);
    setenv("PREDVFS_VERIFY", "warn", 1);
    EXPECT_EQ(verifyModeFromEnv(), VerifyMode::Warn);
    setenv("PREDVFS_VERIFY", "anything-else", 1);
    EXPECT_EQ(verifyModeFromEnv(), VerifyMode::Enforce);

    if (old)
        setenv("PREDVFS_VERIFY", saved.c_str(), 1);
    else
        unsetenv("PREDVFS_VERIFY");
}

// ---- Golden report fixtures -----------------------------------------

TEST(VerifyReportGolden, CleanBenchmarksAndSlicesJson)
{
    // Every registry design and its RTL and HLS slices, as one JSON
    // array: the proof counts, certificates and presummed cycles pin
    // the compiled tables of all 21 artifacts.
    std::ostringstream os;
    os << "[\n";
    bool first = true;
    const auto emit = [&](const Design &design) {
        const CompiledDesign comp(design);
        const VerifyReport report = verifyCompiledDesign(comp);
        if (!first)
            os << ",\n";
        first = false;
        writeVerifyReportJson(os, design, report);
    };
    for (const auto &name : accel::benchmarkNames()) {
        const auto acc = accel::makeAccelerator(name);
        emit(acc->design());
        const auto analysis = analyze(acc->design());
        for (const auto mode : {SliceOptions::Mode::Rtl,
                                SliceOptions::Mode::Hls}) {
            SliceOptions options;
            options.mode = mode;
            emit(makeSlice(acc->design(), analysis.features, options)
                     .design);
        }
    }
    os << "]\n";
    expectMatchesGolden("verify_benchmarks_clean", os.str());
}

TEST(VerifyReportGolden, MutatedMiniJson)
{
    const Design d = miniDesign();
    CompiledDesign comp(d);
    const std::string what =
        injectMiscompile(comp, Miscompile::GuardDropped, 0);
    ASSERT_FALSE(what.empty());
    const VerifyReport report = verifyCompiledDesign(comp);
    EXPECT_GT(report.numErrors(), 0u);
    std::ostringstream os;
    writeVerifyReportJson(os, d, report);
    expectMatchesGolden("verify_mutated", os.str());
}

// ---- Report rendering -----------------------------------------------

TEST(VerifyReport, TextFormatMirrorsLintStyle)
{
    const Design d = miniDesign();
    CompiledDesign comp(d);
    injectMiscompile(comp, Miscompile::JobOverheadCorrupt, 0);
    const VerifyReport report = verifyCompiledDesign(comp);
    std::ostringstream os;
    writeVerifyReport(os, d, report);
    const std::string text = os.str();
    EXPECT_NE(text.find("mini: error: [structure-mismatch]"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("error(s)"), std::string::npos);
}

TEST(VerifyReport, WithCodeFilters)
{
    const Design d = miniDesign();
    CompiledDesign comp(d);
    injectMiscompile(comp, Miscompile::GuardDropped, 0);
    const VerifyReport report = verifyCompiledDesign(comp);
    EXPECT_FALSE(
        report.withCode(VerifyCode::StructureMismatch).empty());
    EXPECT_TRUE(report.withCode(VerifyCode::NotEquivalent).empty());
}
