/**
 * @file
 * Golden fixtures shared by the test binaries: compare an actual
 * rendering against tests/goldens/<name>.golden.
 */

#ifndef PREDVFS_TESTS_GOLDEN_FILE_HH
#define PREDVFS_TESTS_GOLDEN_FILE_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace predvfs {
namespace test {

inline std::string
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
inline void
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

} // namespace test
} // namespace predvfs

#endif // PREDVFS_TESTS_GOLDEN_FILE_HH
