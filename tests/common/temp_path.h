/**
 * @file
 * Scratch paths private to the running test. ctest runs every test case
 * as its own process and, under `ctest -j`, several at once: a fixed name
 * under TempDir() lets concurrent cases delete each other's files.
 */

#ifndef SMTFLEX_TESTS_COMMON_TEMP_PATH_H
#define SMTFLEX_TESTS_COMMON_TEMP_PATH_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

namespace smtflex {

/** TempDir() + @p stem, suffixed with the running test's suite and name
 * and the process id. */
inline std::string
testTempPath(const std::string &stem)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string test = info ? std::string(info->test_suite_name()) + "." +
            info->name()
                            : "no_test";
    for (char &c : test) {
        if (c == '/')
            c = '_'; // parameterised suites and cases
    }
    return ::testing::TempDir() + stem + "_" + test + "_" +
        std::to_string(::getpid());
}

/** Remove @p path and every sibling whose name extends it (result-cache
 * shards, suffixed snapshot directories). */
inline void
removeTestTempFiles(const std::string &path)
{
    namespace fs = std::filesystem;
    const fs::path base(path);
    const std::string name = base.filename().string();
    std::error_code ec;
    std::vector<fs::path> doomed;
    for (const auto &entry : fs::directory_iterator(base.parent_path(), ec)) {
        if (entry.path().filename().string().starts_with(name))
            doomed.push_back(entry.path());
    }
    for (const fs::path &p : doomed)
        fs::remove_all(p, ec);
}

} // namespace smtflex

#endif // SMTFLEX_TESTS_COMMON_TEMP_PATH_H
