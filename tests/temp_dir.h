// A per-test temporary directory for tests that write files.
//
// ctest -j runs the tests of one binary as parallel processes, so a fixed
// path such as /tmp/x.index is rewritten by one test while another has it
// open or mapped. TempDir creates a fresh mkdtemp directory under the
// system temp directory, named after the running test, and removes it with
// everything inside on destruction. keep() leaves it behind, for a mismatch
// dump a developer should read; expect_golden uses it that way.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

namespace pim::tests {

class TempDir {
 public:
  TempDir() {
    std::string stem = "pim_";
    if (const auto* test =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      stem += std::string(test->test_suite_name()) + "." + test->name() + "_";
      std::replace(stem.begin(), stem.end(), '/', '_');  // parameterized
    }
    std::string pattern =
        (std::filesystem::temp_directory_path() / (stem + "XXXXXX")).string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("TempDir: mkdtemp failed for " + pattern);
    }
    path_ = pattern;
  }
  ~TempDir() {
    if (keep_) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  /// Path of `name` inside the directory (the file is not created).
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }
  /// Leave the directory and its files behind after destruction.
  void keep() { keep_ = true; }

 private:
  std::filesystem::path path_;
  bool keep_ = false;
};

/// Compare `actual` byte for byte with tests/golden/<name>. On a mismatch
/// the actual output is dumped into a kept TempDir and the failure names
/// it: regenerate the golden by copying the dump over and reviewing the
/// diff.
inline void expect_golden(const std::string& actual, const std::string& name) {
  std::ifstream golden(std::string(PIMALIGNER_SOURCE_DIR) + "/tests/golden/" +
                       name);
  std::stringstream want;
  if (golden.good()) want << golden.rdbuf();
  if (golden.good() && actual == want.str()) return;
  TempDir dump_dir;
  dump_dir.keep();
  const std::string dump = dump_dir.file(name);
  std::ofstream(dump) << actual;
  ASSERT_TRUE(golden.good())
      << "missing tests/golden/" << name << "; actual output dumped to "
      << dump;
  EXPECT_EQ(actual, want.str()) << "actual output dumped to " << dump;
}

}  // namespace pim::tests
