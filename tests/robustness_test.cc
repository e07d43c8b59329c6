// Malformed-input and failure-path regression tests.
//
// Covers the hardened UCR loader (every rejection carries the file and line
// so a corrupt archive is diagnosable from the Status alone), the v1 text
// parser, and AtomicWriteFile's crash-safety contract under injected I/O
// faults: a failed save must leave a preexisting destination byte-identical
// and must not litter temp files.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ts/io.h"
#include "ts/ucr_loader.h"
#include "util/fault.h"
#include "util/status.h"
#include "test_tmpdir.h"

namespace sapla {
namespace {

// Writes `content` to a path in the per-process scratch directory and
// returns the path.
std::string WriteTemp(const std::string& name, const std::string& content) {
  const std::string path = TestPath(name);
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << content;
  return path;
}

// Used by the fault-injection section only, which -DSAPLA_FAULT=OFF
// compiles out.
[[maybe_unused]] std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

[[maybe_unused]] bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// ---------------------------------------------------------------------------
// UCR loader: every malformed input is rejected with file + line context.

class UcrLoaderRobustness : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }

  // Loads `content` from a temp file and returns the resulting status.
  Status LoadContent(const std::string& name, const std::string& content) {
    const std::string path = WriteTemp(name, content);
    cleanup_.push_back(path);
    last_path_ = path;
    return LoadUcrDataset(path, {}).status();
  }

  // Asserts the status is InvalidArgument and its message pinpoints the file
  // and, when line > 0, the offending line.
  void ExpectRejected(const Status& st, int line = 0) {
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(last_path_), std::string::npos)
        << st.ToString();
    if (line > 0) {
      EXPECT_NE(st.message().find("line " + std::to_string(line)),
                std::string::npos)
          << st.ToString();
    }
  }

  std::vector<std::string> cleanup_;
  std::string last_path_;
};

TEST_F(UcrLoaderRobustness, AcceptsAWellFormedFile) {
  UcrLoadOptions native;
  native.target_length = 0;  // keep native lengths
  native.z_normalize = false;
  const auto ds = LoadUcrDataset(
      WriteTemp("ok.tsv", "1\t0.5\t1.5\t2.5\n2\t0.1\t0.2\t0.3\n"), native);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->series.size(), 2u);
  EXPECT_EQ(ds->series[0].values.size(), 3u);
  std::remove(TestPath("ok.tsv").c_str());
}

TEST_F(UcrLoaderRobustness, RejectsEmptyFile) {
  const Status st = LoadContent("empty.tsv", "");
  ExpectRejected(st);
  EXPECT_NE(st.message().find("empty file"), std::string::npos)
      << st.ToString();
}

TEST_F(UcrLoaderRobustness, RejectsWhitespaceOnlyFile) {
  const Status st = LoadContent("blank.tsv", "\n\n\n");
  ExpectRejected(st);
  EXPECT_NE(st.message().find("no series parsed"), std::string::npos)
      << st.ToString();
}

TEST_F(UcrLoaderRobustness, RejectsNonNumericCellWithLineNumber) {
  const Status st =
      LoadContent("alpha.tsv", "1\t0.5\t1.5\n1\t0.5\thello\n");
  ExpectRejected(st, 2);
  EXPECT_NE(st.message().find("hello"), std::string::npos) << st.ToString();
}

TEST_F(UcrLoaderRobustness, RejectsNanAndInfCells) {
  ExpectRejected(LoadContent("nan.tsv", "1\t0.5\tnan\t1.5\n"), 1);
  ExpectRejected(LoadContent("inf.tsv", "1\t0.5\tinf\n"), 1);
  ExpectRejected(LoadContent("ninf.tsv", "1\t-inf\t0.5\n"), 1);
}

TEST_F(UcrLoaderRobustness, RejectsOutOfRangeLabel) {
  const Status st = LoadContent("label.tsv", "9e99\t0.5\t1.5\n");
  ExpectRejected(st, 1);
  EXPECT_NE(st.message().find("label"), std::string::npos) << st.ToString();
}

TEST_F(UcrLoaderRobustness, RejectsRaggedRowsNamingBothLengths) {
  const Status st =
      LoadContent("ragged.tsv", "1\t0.5\t1.5\t2.5\n2\t0.1\t0.2\n");
  ExpectRejected(st, 2);
  EXPECT_NE(st.message().find("ragged"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("3"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("2"), std::string::npos) << st.ToString();
}

TEST_F(UcrLoaderRobustness, RejectsRowWithOnlyALabel) {
  ExpectRejected(LoadContent("lonely.tsv", "7\n"), 1);
}

TEST_F(UcrLoaderRobustness, MissingFileIsIOErrorNotCrash) {
  const Status st =
      LoadUcrDataset("/nonexistent/sapla_robustness.tsv", {}).status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
}

// Deterministic pseudo-fuzz: random byte soup must never crash the loader,
// and must either parse or produce a descriptive status. Complements the
// targeted cases above with breadth.
TEST_F(UcrLoaderRobustness, RandomByteSoupNeverCrashes) {
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const std::string alphabet = "0123456789.eE+-\t, \nnaif";
  for (int round = 0; round < 200; ++round) {
    std::string content;
    const size_t len = next() % 256;
    for (size_t i = 0; i < len; ++i)
      content.push_back(alphabet[next() % alphabet.size()]);
    const std::string path = WriteTemp("fuzz.tsv", content);
    const auto ds = LoadUcrDataset(path, {});
    if (!ds.ok()) {
      EXPECT_FALSE(ds.status().message().empty());
    }
  }
  std::remove(TestPath("fuzz.tsv").c_str());
}

// ---------------------------------------------------------------------------
// v1 text parser: structured-but-wrong inputs.

TEST(V1ParserRobustness, RejectsTruncatedAndMalformedBlocks) {
  // Missing terminator.
  EXPECT_FALSE(
      ParseRepresentations("SAPLA-REP v1\nmethod PAA n 4\nseg 1 1 4\n").ok());
  // Unknown directive inside a block.
  EXPECT_FALSE(ParseRepresentations(
                   "SAPLA-REP v1\nmethod PAA n 4\nbogus 1 2 3\nend\n")
                   .ok());
  // Non-numeric segment fields.
  EXPECT_FALSE(ParseRepresentations(
                   "SAPLA-REP v1\nmethod PAA n 4\nseg x y z\nend\n")
                   .ok());
  // Header without a version tag.
  EXPECT_FALSE(ParseRepresentations("method PAA n 4\nend\n").ok());
}

// ---------------------------------------------------------------------------
// AtomicWriteFile: crash-safety contract under injected I/O faults. Only
// meaningful when the fault framework is compiled in.

#ifndef SAPLA_FAULT_DISABLED

class AtomicWriteFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("atomic.bin");
    tmp_ = path_ + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    std::remove(path_.c_str());
    std::remove(tmp_.c_str());
  }

  void TearDown() override {
    fault::Reset();
    std::remove(path_.c_str());
    std::remove(tmp_.c_str());
  }

  // Arms one always-triggering fault point.
  void Arm(const std::string& point) {
    fault::Reset();
    fault::Enable(/*seed=*/7);
    fault::Configure(point, fault::PointConfig{});
  }

  std::string path_;
  std::string tmp_;
};

TEST_F(AtomicWriteFaults, FailedSaveLeavesExistingFileByteIdentical) {
  const std::string original(1024, 'A');
  ASSERT_TRUE(AtomicWriteFile(path_, original).ok());
  for (const char* point : {"io/open_write", "io/write", "io/fsync",
                            "io/rename"}) {
    Arm(point);
    const Status st = AtomicWriteFile(path_, std::string(2048, 'B'));
    fault::Disable();
    ASSERT_FALSE(st.ok()) << point << " did not trigger";
    EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
    EXPECT_EQ(ReadAll(path_), original)
        << point << " corrupted the destination";
    EXPECT_FALSE(Exists(tmp_)) << point << " left a temp file behind";
  }
}

TEST_F(AtomicWriteFaults, DiskFullIsResourceExhaustedWithOldFileIntact) {
  // The free-space preflight refuses before the temp file is even staged:
  // a full disk must read as a clean kResourceExhausted, never a torn or
  // missing destination.
  const std::string original(512, 'A');
  ASSERT_TRUE(AtomicWriteFile(path_, original).ok());
  fault::Reset();
  fault::Enable(/*seed=*/7);
  fault::PointConfig cfg;
  cfg.max_triggers = 1;
  cfg.code = StatusCode::kResourceExhausted;
  fault::Configure("io/disk_full", cfg);
  const Status st = AtomicWriteFile(path_, std::string(4096, 'B'));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(ReadAll(path_), original);
  EXPECT_FALSE(Exists(tmp_));
  // Space freed up (the fault is exhausted): the retry lands.
  EXPECT_TRUE(AtomicWriteFile(path_, std::string(4096, 'B')).ok());
  fault::Disable();
}

TEST_F(AtomicWriteFaults, FailedFirstSaveLeavesNoFileAtAll) {
  Arm("io/write");
  EXPECT_FALSE(AtomicWriteFile(path_, "payload").ok());
  fault::Disable();
  EXPECT_FALSE(Exists(path_));
  EXPECT_FALSE(Exists(tmp_));
}

TEST_F(AtomicWriteFaults, SaveSucceedsOnceTheFaultIsExhausted) {
  // max_triggers = 1: the first save fails, the retry lands cleanly.
  fault::Reset();
  fault::Enable(/*seed=*/7);
  fault::PointConfig cfg;
  cfg.max_triggers = 1;
  fault::Configure("io/write", cfg);
  EXPECT_FALSE(AtomicWriteFile(path_, "payload").ok());
  EXPECT_TRUE(AtomicWriteFile(path_, "payload").ok());
  fault::Disable();
  EXPECT_EQ(ReadAll(path_), "payload");
  EXPECT_FALSE(Exists(tmp_));
}

TEST_F(AtomicWriteFaults, InjectedReadFailureSurfacesAsIOError) {
  ASSERT_TRUE(AtomicWriteFile(path_, "SAPLA-REP v1\n").ok());
  Arm("io/open_read");
  const auto loaded = LoadRepresentations(path_);
  fault::Disable();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

#endif  // SAPLA_FAULT_DISABLED

}  // namespace
}  // namespace sapla
