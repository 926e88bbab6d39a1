// Store directories for the storage suites, removed when each test ends.

#ifndef INCDB_TESTS_STORAGE_STORE_DIR_H_
#define INCDB_TESTS_STORAGE_STORE_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

namespace incdb {

/// Fixture base that hands out store directory names under the test's
/// working directory and removes every one of them in TearDown, pass or
/// fail. ctest runs each test case as its own process in a shared working
/// directory, so the pid is part of the name; the counter keeps names
/// apart within one process.
template <typename Base = ::testing::Test>
class StoreDirTest : public Base {
 protected:
  std::string StoreDir(const std::string& tag) {
    static int counter = 0;
    std::string dir = "storage_" + tag + "_" + std::to_string(getpid()) +
                      "_" + std::to_string(counter++) + ".incdb";
    dirs_.push_back(dir);
    return dir;
  }

  void TearDown() override {
    for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
  }

 private:
  std::vector<std::string> dirs_;
};

}  // namespace incdb

#endif  // INCDB_TESTS_STORAGE_STORE_DIR_H_
