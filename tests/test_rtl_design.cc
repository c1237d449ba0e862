/**
 * @file
 * Design builder and validation: structural checks catch malformed
 * control units; area model reflects structure. Validation failures
 * panic (abort), so they are exercised with death tests. Also the
 * work-item field storage (FieldVec): its inline/heap boundary, value
 * semantics in both representations, and that cache keys and hashes
 * do not depend on which representation an item uses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "accel/registry.hh"
#include "rtl/design.hh"
#include "rtl/expr.hh"
#include "sim/job_cache.hh"

using namespace predvfs::rtl;
using predvfs::sim::JobCache;

namespace {

/** 0, 1, ..., n - 1, appended one push_back at a time. */
FieldVec
countingFields(std::size_t n)
{
    FieldVec v;
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(static_cast<std::int64_t>(i));
    return v;
}

/** @return true when @p v's values sit inside the object itself. */
bool
storedInline(const FieldVec &v)
{
    const auto self = reinterpret_cast<std::uintptr_t>(&v);
    const auto at = reinterpret_cast<std::uintptr_t>(v.data());
    return at >= self && at < self + sizeof(v);
}

/** Minimal valid single-state design. */
Design
tinyDesign()
{
    Design d("tiny");
    d.addField("x");
    const auto fsm = d.addFsm("main");
    State s;
    s.name = "Only";
    s.terminal = true;
    d.addState(fsm, std::move(s));
    return d;
}

} // namespace

TEST(Design, ValidTinyDesign)
{
    Design d = tinyDesign();
    d.validate();
    EXPECT_TRUE(d.validated());
    EXPECT_EQ(d.totalStates(), 1u);
    EXPECT_EQ(d.numFields(), 1u);
}

TEST(Design, FieldIndexLookup)
{
    Design d("f");
    const auto a = d.addField("alpha");
    const auto b = d.addField("beta");
    EXPECT_EQ(d.fieldIndex("alpha"), a);
    EXPECT_EQ(d.fieldIndex("beta"), b);
}

TEST(DesignDeath, UnknownFieldPanics)
{
    Design d("f");
    d.addField("alpha");
    EXPECT_DEATH(d.fieldIndex("nope"), "no field");
}

TEST(DesignDeath, DuplicateFieldPanics)
{
    Design d("f");
    d.addField("alpha");
    EXPECT_DEATH(d.addField("alpha"), "duplicate field");
}

TEST(DesignDeath, NoDefaultTransitionPanics)
{
    Design d("bad");
    const auto x = d.addField("x");
    const auto fsm = d.addFsm("main");
    State s0;
    s0.name = "S0";
    const auto id0 = d.addState(fsm, std::move(s0));
    State s1;
    s1.name = "S1";
    s1.terminal = true;
    const auto id1 = d.addState(fsm, std::move(s1));
    // Only a guarded edge — no default.
    d.addTransition(fsm, id0, Expr::gt(fld(x), lit(0)), id1);
    EXPECT_DEATH(d.validate(), "no default");
}

TEST(DesignDeath, UnreachableStatePanics)
{
    Design d("bad");
    const auto fsm = d.addFsm("main");
    State s0;
    s0.name = "S0";
    s0.terminal = true;
    d.addState(fsm, std::move(s0));
    State orphan;
    orphan.name = "Orphan";
    orphan.terminal = true;
    d.addState(fsm, std::move(orphan));
    EXPECT_DEATH(d.validate(), "unreachable");
}

TEST(DesignDeath, NoTerminalPanics)
{
    Design d("bad");
    const auto fsm = d.addFsm("main");
    State s0;
    s0.name = "S0";
    const auto id0 = d.addState(fsm, std::move(s0));
    d.addTransition(fsm, id0, nullptr, id0);  // Self-loop forever.
    EXPECT_DEATH(d.validate(), "terminal");
}

TEST(DesignDeath, BadCounterReferencePanics)
{
    Design d("bad");
    const auto fsm = d.addFsm("main");
    State s;
    s.name = "W";
    s.kind = LatencyKind::CounterWait;
    s.counter = 3;  // Never declared.
    s.terminal = true;
    d.addState(fsm, std::move(s));
    EXPECT_DEATH(d.validate(), "bad counter");
}

TEST(DesignDeath, StartAfterCyclePanics)
{
    Design d("bad");
    const auto a = d.addFsm("a", 1);
    const auto b = d.addFsm("b", 0);
    (void)a;
    (void)b;
    for (FsmId f : {0, 1}) {
        State s;
        s.name = "S";
        s.terminal = true;
        d.addState(f, std::move(s));
    }
    EXPECT_DEATH(d.validate(), "cycle");
}

TEST(DesignDeath, StartAfterSelfPanics)
{
    Design d("bad");
    d.addFsm("a", 0);  // FSM 0 waiting on itself.
    State s;
    s.name = "S";
    s.terminal = true;
    d.addState(0, std::move(s));
    EXPECT_DEATH(d.validate(), "startAfter itself");
}

TEST(DesignDeath, NoFsmPanics)
{
    Design d("empty");
    EXPECT_DEATH(d.validate(), "no FSMs");
}

TEST(DesignDeath, MutationAfterValidatePanics)
{
    Design d = tinyDesign();
    d.validate();
    EXPECT_DEATH(d.addField("late"), "after validate");
}

TEST(Design, AreaGrowsWithStructure)
{
    Design small("small");
    {
        const auto fsm = small.addFsm("m");
        State s;
        s.name = "S";
        s.terminal = true;
        small.addState(fsm, std::move(s));
        small.validate();
    }

    Design big("big");
    {
        big.addField("x");
        big.addCounter("c", CounterDir::Down, fld(0), 16);
        big.addBlock("dp", 500.0, 1.0);
        const auto fsm = big.addFsm("m");
        State s0;
        s0.name = "S0";
        const auto id0 = big.addState(fsm, std::move(s0));
        State s1;
        s1.name = "S1";
        s1.terminal = true;
        const auto id1 = big.addState(fsm, std::move(s1));
        big.addTransition(fsm, id0, nullptr, id1);
        big.validate();
    }

    EXPECT_GT(big.areaUnits(), small.areaUnits());
    EXPECT_GT(big.areaUnits(), big.controlAreaUnits());
    // Control area excludes the datapath block.
    EXPECT_NEAR(big.areaUnits() - big.controlAreaUnits(), 500.0, 1e-9);
}

TEST(Design, TransitionCountsTallied)
{
    Design d("count");
    d.addField("x");
    const auto fsm = d.addFsm("m");
    State s0;
    s0.name = "S0";
    const auto id0 = d.addState(fsm, std::move(s0));
    State s1;
    s1.name = "S1";
    s1.terminal = true;
    const auto id1 = d.addState(fsm, std::move(s1));
    d.addTransition(fsm, id0, Expr::gt(fld(0), lit(1)), id1);
    d.addTransition(fsm, id0, nullptr, id1);
    d.validate();
    EXPECT_EQ(d.totalTransitions(), 2u);
    EXPECT_EQ(d.totalStates(), 2u);
}

TEST(DesignDeath, DuplicateCounterNamePanics)
{
    Design d("dup");
    d.addField("x");
    d.addCounter("c", CounterDir::Down, fld(0), 16);
    d.addCounter("c", CounterDir::Up, fld(0), 16);
    const auto fsm = d.addFsm("m");
    State s;
    s.name = "Only";
    s.terminal = true;
    d.addState(fsm, std::move(s));
    EXPECT_DEATH(d.validate(), "duplicate counter name");
}

TEST(DesignDeath, DuplicateFsmNamePanics)
{
    Design d("dup");
    for (int i = 0; i < 2; ++i) {
        const auto fsm = d.addFsm("m");
        State s;
        s.name = "Only";
        s.terminal = true;
        d.addState(fsm, std::move(s));
    }
    EXPECT_DEATH(d.validate(), "duplicate fsm name");
}

TEST(DesignDeath, DuplicateStateNamePanics)
{
    Design d("dup");
    const auto fsm = d.addFsm("m");
    State s0;
    s0.name = "S";
    const auto id0 = d.addState(fsm, std::move(s0));
    State s1;
    s1.name = "S";
    s1.terminal = true;
    const auto id1 = d.addState(fsm, std::move(s1));
    d.addTransition(fsm, id0, nullptr, id1);
    EXPECT_DEATH(d.validate(), "duplicate state name");
}

TEST(DesignDeath, FieldRangeAfterValidatePanics)
{
    Design d = tinyDesign();
    d.validate();
    EXPECT_DEATH(d.setFieldRange(0, 0, 5), "after validate");
}

TEST(DesignDeath, EmptyFieldRangePanics)
{
    Design d("r");
    const auto x = d.addField("x");
    EXPECT_DEATH(d.setFieldRange(x, 5, 2), "empty range");
}

TEST(Design, FieldRangeDefaultsToFullAndIsRecorded)
{
    Design d("r");
    const auto x = d.addField("x");
    const auto y = d.addField("y");
    d.setFieldRange(y, -3, 12);
    EXPECT_EQ(d.fieldBounds()[x].lo,
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(d.fieldBounds()[x].hi,
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(d.fieldBounds()[y].lo, -3);
    EXPECT_EQ(d.fieldBounds()[y].hi, 12);
}

TEST(FieldVec, InlineUpToSixFieldsThenSpillsToTheHeap)
{
    const FieldVec six = countingFields(6);
    EXPECT_EQ(six.size(), 6u);
    EXPECT_EQ(six.capacity(), FieldVec::kInlineCapacity);
    EXPECT_TRUE(storedInline(six));

    const FieldVec seven = countingFields(7);
    ASSERT_EQ(seven.size(), 7u);
    EXPECT_GT(seven.capacity(), FieldVec::kInlineCapacity);
    EXPECT_FALSE(storedInline(seven));
    for (std::size_t i = 0; i < seven.size(); ++i)
        EXPECT_EQ(seven[i], static_cast<std::int64_t>(i));

    // resize, reserve and assign cross the boundary keeping values.
    FieldVec grown = six;
    grown.resize(7);
    EXPECT_FALSE(storedInline(grown));
    EXPECT_EQ(grown, (FieldVec{0, 1, 2, 3, 4, 5, 0}));
    grown.resize(2);
    EXPECT_EQ(grown, (FieldVec{0, 1}));

    FieldVec reserved;
    reserved.reserve(6);
    EXPECT_TRUE(storedInline(reserved));
    reserved.reserve(7);
    EXPECT_FALSE(storedInline(reserved));
    EXPECT_TRUE(reserved.empty());

    FieldVec filled;
    filled.assign(7, -3);
    EXPECT_EQ(filled, FieldVec(std::vector<std::int64_t>(7, -3)));
    filled.clear();
    EXPECT_TRUE(filled.empty());
    EXPECT_GE(filled.capacity(), 7u);
}

TEST(FieldVec, CopyMoveAndSelfAssignmentInBothRepresentations)
{
    for (const std::size_t n : {std::size_t{3}, std::size_t{9}}) {
        SCOPED_TRACE(n);
        const FieldVec original = countingFields(n);
        const std::size_t other_n = n == 3 ? 9 : 3;

        FieldVec copy(original);
        EXPECT_EQ(copy, original);
        EXPECT_NE(copy.data(), original.data());
        copy[0] = 99;
        EXPECT_EQ(original[0], 0);

        FieldVec assigned = countingFields(other_n);
        assigned = original;
        EXPECT_EQ(assigned, original);

        // A moved-from FieldVec is empty, inline, and reusable.
        FieldVec moved(std::move(assigned));
        EXPECT_EQ(moved, original);
        EXPECT_TRUE(assigned.empty());
        EXPECT_TRUE(storedInline(assigned));
        assigned.push_back(5);
        EXPECT_EQ(assigned, (FieldVec{5}));

        FieldVec target = countingFields(other_n);
        target = std::move(moved);
        EXPECT_EQ(target, original);
        EXPECT_TRUE(moved.empty());

        FieldVec &alias = target;
        target = alias;
        EXPECT_EQ(target, original);
        target = std::move(alias);
        EXPECT_EQ(target, original);
    }
}

TEST(FieldVec, EqualityIgnoresTheRepresentation)
{
    const FieldVec inline_values{1, 2, 3};
    FieldVec spilled;
    spilled.reserve(FieldVec::kInlineCapacity + 1);
    for (const std::int64_t v : {1, 2, 3})
        spilled.push_back(v);
    ASSERT_TRUE(storedInline(inline_values));
    ASSERT_FALSE(storedInline(spilled));

    EXPECT_EQ(inline_values, spilled);
    EXPECT_EQ(spilled, inline_values);
    spilled[2] = 4;
    EXPECT_NE(inline_values, spilled);
    EXPECT_NE(inline_values, (FieldVec{1, 2}));
    EXPECT_EQ(FieldVec{}, FieldVec(std::vector<std::int64_t>{}));
}

TEST(FieldVec, WorkItemsBuildFromVectors)
{
    const std::vector<std::int64_t> values{4, -5, 6};
    const WorkItem item{values};
    EXPECT_TRUE(std::equal(values.begin(), values.end(),
                           item.fields.begin(), item.fields.end()));

    const WorkItem wide{std::vector<std::int64_t>(10, 7)};
    EXPECT_EQ(wide.fields, FieldVec(10, 7));

    // Expressions read either form alike.
    const ExprPtr sum = Expr::add(fld(0), fld(2));
    EXPECT_EQ(sum->eval(item.fields), 10);
    EXPECT_EQ(sum->eval(values), 10);
}

TEST(FieldVec, EveryInTreeDesignFitsInline)
{
    for (const std::string &name : predvfs::accel::benchmarkNames()) {
        EXPECT_LE(predvfs::accel::makeAccelerator(name)
                      ->design()
                      .numFields(),
                  FieldVec::kInlineCapacity)
            << name;
    }
}

TEST(FieldVec, JobCacheKeysAndHashesMatchInBothRepresentations)
{
    constexpr std::uint64_t kStream = 42;
    for (const std::size_t width :
         {std::size_t{0}, std::size_t{6}, std::size_t{7},
          std::size_t{100}}) {
        SCOPED_TRACE(width);
        JobInput job;
        for (std::int64_t i = 0; i < 3; ++i) {
            WorkItem item;
            for (std::size_t f = 0; f < width; ++f)
                item.fields.push_back(i * 1000 -
                                      static_cast<std::int64_t>(f));
            job.items.push_back(item);
        }

        const std::vector<std::int64_t> key =
            JobCache::canonicalKey(kStream, job);
        ASSERT_EQ(key.size(), 2 + 3 * (1 + width));
        EXPECT_EQ(key[2], static_cast<std::int64_t>(width));
        EXPECT_EQ(JobCache::hashJob(kStream, job),
                  JobCache::hashBytes(key.data(),
                                      key.size() * sizeof(std::int64_t)));
        EXPECT_TRUE(JobCache::keyMatchesJob(key, kStream, job));

        if (width > 0) {
            JobInput other = job;
            other.items[1].fields[width - 1] += 1;
            EXPECT_FALSE(JobCache::keyMatchesJob(key, kStream, other));
            EXPECT_NE(JobCache::hashJob(kStream, other),
                      JobCache::hashJob(kStream, job));
        }
    }
}
