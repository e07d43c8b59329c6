// Argument handling of the sapla_cli tool, run as a child process: every
// command answers --help with its usage and exit code 0 without writing a
// file, and a flag where the command expects its file is rejected with
// exit code 2, also without writing anything.

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "test_tmpdir.h"

namespace sapla {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string out;  // standard output only
};

// Runs sapla_cli with `args` in a fresh empty directory, which is left in
// `*dir` for the caller to inspect.
CliRun RunCli(const std::string& args, std::string* dir) {
  static int runs = 0;
  *dir = TestPath("run" + std::to_string(runs++));
  std::filesystem::create_directory(*dir);
  const std::string command =
      "cd '" + *dir + "' && '" SAPLA_CLI_PATH "' " + args + " 2>/dev/null";
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[256];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) run.out.append(buf, n);
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

bool IsEmptyDir(const std::string& dir) {
  return std::filesystem::is_empty(dir);
}

class CliCommand : public ::testing::TestWithParam<const char*> {};

TEST_P(CliCommand, HelpPrintsUsageAndWritesNothing) {
  const std::string name = GetParam();
  for (const std::string& args :
       {name + " --help", name + " out.tsv --help", name + " -h"}) {
    std::string dir;
    const CliRun run = RunCli(args, &dir);
    EXPECT_EQ(run.exit_code, 0) << args;
    EXPECT_EQ(run.out.rfind("usage: sapla_cli " + name + " ", 0), 0u)
        << args << ": " << run.out;
    EXPECT_TRUE(IsEmptyDir(dir)) << args << " wrote a file";
  }
}

TEST_P(CliCommand, FlagInPlaceOfTheFileIsRejected) {
  const std::string name = GetParam();
  for (const std::string& args : {name + " --bogus", name + " --out=x.tsv"}) {
    std::string dir;
    const CliRun run = RunCli(args, &dir);
    EXPECT_EQ(run.exit_code, 2) << args;
    EXPECT_TRUE(IsEmptyDir(dir)) << args << " wrote a file";
  }
}

INSTANTIATE_TEST_SUITE_P(EveryCommand, CliCommand,
                         ::testing::Values("info", "reduce", "reconstruct",
                                           "knn", "motif", "synth",
                                           "explain"));

TEST(Cli, TopLevelHelpListsEveryCommand) {
  std::string dir;
  const CliRun run = RunCli("--help", &dir);
  EXPECT_EQ(run.exit_code, 0);
  for (const char* name : {"info", "reduce", "reconstruct", "knn", "motif",
                           "synth", "explain"}) {
    EXPECT_NE(run.out.find(std::string("sapla_cli ") + name + " "),
              std::string::npos)
        << name;
  }
  EXPECT_TRUE(IsEmptyDir(dir));
}

TEST(Cli, UnknownCommandIsRejected) {
  std::string dir;
  EXPECT_EQ(RunCli("frobnicate data.tsv", &dir).exit_code, 2);
  EXPECT_TRUE(IsEmptyDir(dir));
}

}  // namespace
}  // namespace sapla
