// Unique temp paths for test databases, their removal, and whole-file
// reads.
//
// gtest_discover_tests runs every TEST as its own ctest job, so under
// `ctest -j` two tests of the same fixture execute concurrently in
// separate processes. A fixed per-fixture file name makes them clobber
// each other's database mid-run; deriving the path from the running
// test's full name keeps parallel jobs disjoint.

#ifndef SEGDIFF_TESTS_TEST_PATHS_H_
#define SEGDIFF_TESTS_TEST_PATHS_H_

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

namespace segdiff {

/// "<TempDir>/<stem>_<SuiteName>_<TestName><suffix>", sanitized. Must be
/// called on a test thread (uses the current test's name).
inline std::string UniqueTestPath(const std::string& stem,
                                  const std::string& suffix = ".db") {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "_" + info->name();
  for (char& c : name) {
    if (c == '/' || c == '.') {
      c = '_';
    }
  }
  return testing::TempDir() + "/" + stem + "_" + name + suffix;
}

/// Deletes a test store: the database file and its write-ahead-log
/// sidecar "<path>.wal" (Wal::PathFor). Either may be missing.
inline void RemoveTestStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

/// Every byte of the file at `path` ("" when it is missing). Tests
/// compare it before and after an operation that must not write.
inline std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace segdiff

#endif  // SEGDIFF_TESTS_TEST_PATHS_H_
