#ifndef SAPLA_TESTS_TEST_TMPDIR_H_
#define SAPLA_TESTS_TEST_TMPDIR_H_

// Per-process scratch directory for tests that write files.
//
// gtest_discover_tests runs every test case as its own process, and
// `ctest -j` runs cases of one fixture concurrently, so a fixed path such
// as /tmp/sapla_x.bin is shared by cases running at the same time.
// TestPath() instead names a file inside a directory that mkdtemp creates
// once per process under $TMPDIR (default /tmp); the directory and
// everything in it is removed when the process exits normally.

#include <stdlib.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

namespace sapla {

inline const std::string& TestTmpDir() {
  // Heap-allocated and never freed, so the exit hook can still read it
  // after static destructors have run.
  static const std::string* const dir = [] {
    const char* base = std::getenv("TMPDIR");
    std::string templ =
        std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
        "/sapla_test_XXXXXX";
    if (::mkdtemp(templ.data()) == nullptr) {
      std::perror(("mkdtemp " + templ).c_str());
      std::abort();
    }
    std::atexit([] {
      std::error_code ec;
      std::filesystem::remove_all(TestTmpDir(), ec);
    });
    return new std::string(templ);
  }();
  return *dir;
}

/// A path named `name` inside this process's scratch directory.
inline std::string TestPath(const std::string& name) {
  return TestTmpDir() + "/" + name;
}

}  // namespace sapla

#endif  // SAPLA_TESTS_TEST_TMPDIR_H_
