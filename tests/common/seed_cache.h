/**
 * @file
 * A private copy of the committed seed cache (smtflex_cache.txt) for the
 * tests that replay figures from it, so a store can never touch the
 * source tree. The test binary must define SMTFLEX_SOURCE_DIR.
 */

#ifndef SMTFLEX_TESTS_COMMON_SEED_CACHE_H
#define SMTFLEX_TESTS_COMMON_SEED_CACHE_H

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "tests/common/temp_path.h"

namespace smtflex {

/** Copy the seed cache to testTempPath(@p stem) + ".txt"; the path. */
inline std::string
seedCacheCopy(const std::string &stem)
{
    const std::string src =
        std::string(SMTFLEX_SOURCE_DIR) + "/smtflex_cache.txt";
    const std::string dst = testTempPath(stem) + ".txt";
    std::ifstream in(src, std::ios::binary);
    std::ofstream out(dst, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
    EXPECT_TRUE(in.good() || in.eof()) << src;
    EXPECT_TRUE(out.good()) << dst;
    return dst;
}

} // namespace smtflex

#endif // SMTFLEX_TESTS_COMMON_SEED_CACHE_H
