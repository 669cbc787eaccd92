// A temporary directory path that no other test process shares.
//
// gtest_discover_tests registers every test as its own ctest entry, so
// `ctest -j` runs tests of one suite as parallel processes. A fixture that
// put every test in one fixed subdirectory of ::testing::TempDir() would
// let them delete each other's files; this path names the suite, the test
// and the process instead.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>

namespace iotsim::test {

/// `<TempDir>/<prefix>_<suite>_<test>_<pid>` for the running test. The
/// directory is not created.
inline std::filesystem::path unique_temp_dir(std::string_view prefix) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name{prefix};
  name += '_';
  name += info->test_suite_name();
  name += '_';
  name += info->name();
  name += '_';
  name += std::to_string(::getpid());
  // Parameterized names carry '/'; keep the path one level deep.
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return std::filesystem::path{::testing::TempDir()} / name;
}

}  // namespace iotsim::test
