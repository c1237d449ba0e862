/**
 * @file
 * Exact comparison of two run results, shared by the tests that
 * require one path to reproduce another's metrics bit for bit.
 */

#ifndef PREDVFS_TESTS_RUN_METRICS_HH
#define PREDVFS_TESTS_RUN_METRICS_HH

#include <gtest/gtest.h>

#include "sim/metrics.hh"

namespace predvfs {
namespace test {

/** Every field equal, doubles compared exactly on purpose. */
inline void
expectMetricsIdentical(const sim::RunMetrics &a, const sim::RunMetrics &b)
{
    EXPECT_EQ(a.jobs, b.jobs);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.switches, b.switches);
    EXPECT_EQ(a.execEnergyJoules, b.execEnergyJoules);
    EXPECT_EQ(a.overheadEnergyJoules, b.overheadEnergyJoules);
    EXPECT_EQ(a.execSeconds, b.execSeconds);
    EXPECT_EQ(a.overheadSeconds, b.overheadSeconds);
}

} // namespace test
} // namespace predvfs

#endif // PREDVFS_TESTS_RUN_METRICS_HH
