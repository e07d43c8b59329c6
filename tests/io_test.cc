// Round-trip and robustness tests for representation / dataset persistence.

#include "ts/io.h"

#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "core/sapla.h"
#include "reduction/sax.h"
#include "ts/synthetic_archive.h"
#include "ts/ucr_loader.h"
#include "test_tmpdir.h"

namespace sapla {
namespace {

Dataset SmallDataset() {
  SyntheticOptions opt;
  opt.length = 64;
  opt.num_series = 5;
  return MakeSyntheticDataset(1, opt);
}

void ExpectEqualReps(const Representation& a, const Representation& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.alphabet, b.alphabet);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.segments[i].a, b.segments[i].a);
    EXPECT_DOUBLE_EQ(a.segments[i].b, b.segments[i].b);
    EXPECT_EQ(a.segments[i].r, b.segments[i].r);
  }
  EXPECT_EQ(a.coeffs.size(), b.coeffs.size());
  for (size_t i = 0; i < a.coeffs.size(); ++i)
    EXPECT_DOUBLE_EQ(a.coeffs[i], b.coeffs[i]);
  EXPECT_EQ(a.symbols, b.symbols);
}

TEST(Io, RoundTripsEveryMethod) {
  const Dataset ds = SmallDataset();
  std::vector<Representation> reps;
  for (const Method m : AllMethods())
    reps.push_back(MakeReducer(m)->Reduce(ds.series[0].values, 12));

  const std::string path = TestPath("io_test.rep");
  ASSERT_TRUE(SaveRepresentations(path, reps).ok());
  const auto loaded = LoadRepresentations(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), reps.size());
  for (size_t i = 0; i < reps.size(); ++i)
    ExpectEqualReps(reps[i], (*loaded)[i]);
  std::remove(path.c_str());
}

TEST(Io, RoundTripPreservesReconstructionExactly) {
  const Dataset ds = SmallDataset();
  const Representation rep =
      SaplaReducer().Reduce(ds.series[2].values, 18);
  const auto parsed = ParseRepresentations(SerializeRepresentation(rep));
  ASSERT_TRUE(parsed.ok());
  const std::vector<double> a = rep.Reconstruct();
  const std::vector<double> b = (*parsed)[0].Reconstruct();
  for (size_t t = 0; t < a.size(); ++t) EXPECT_DOUBLE_EQ(a[t], b[t]);
}

TEST(Io, RejectsCorruptInput) {
  EXPECT_FALSE(ParseRepresentations("garbage").ok());
  EXPECT_FALSE(ParseRepresentations("SAPLA-REP v1\nmethod NOPE n 5\nend\n")
                   .ok());
  EXPECT_FALSE(
      ParseRepresentations("SAPLA-REP v1\nmethod SAPLA n 10\nseg 1 2 3\n")
          .ok());  // missing end + bad coverage
  EXPECT_FALSE(LoadRepresentations("/nonexistent/file.rep").ok());
}

TEST(Io, DatasetTsvRoundTripsThroughUcrLoader) {
  const Dataset ds = SmallDataset();
  const std::string path = TestPath("io_test.tsv");
  ASSERT_TRUE(SaveDatasetTsv(path, ds).ok());
  UcrLoadOptions opt;
  opt.target_length = 0;
  opt.z_normalize = false;
  opt.max_series = 0;
  const auto loaded = LoadUcrDataset(path, opt);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(loaded->series[i].label, ds.series[i].label);
    ASSERT_EQ(loaded->series[i].size(), ds.series[i].size());
    for (size_t t = 0; t < ds.length(); ++t)
      EXPECT_DOUBLE_EQ(loaded->series[i].values[t], ds.series[i].values[t]);
  }
  std::remove(path.c_str());
}

TEST(Io, SerializeParseSerializeIsByteIdentical) {
  // save -> load -> save must reproduce the exact bytes: the serializer
  // emits shortest-round-trip doubles (std::to_chars) and the parser reads
  // them back exactly (std::from_chars), with no locale dependence. The
  // hand-built representation exercises the edge values an ostream-based
  // writer gets wrong: negative zero, denormals, values needing all 17
  // digits, and huge/tiny magnitudes.
  Representation rep;
  rep.method = Method::kSapla;
  rep.n = 100;
  rep.segments = {
      {-0.0, 5e-324, 9},                      // -0 and the smallest denormal
      {1e-310, -1e-310, 19},                  // subnormal pair
      {0.1, 0.2, 49},                         // classic non-terminating
      {1.7976931348623157e308, 2.2250738585072014e-308, 79},  // extremes
      {-1.0 / 3.0, 123456789.123456789, 99},  // 17-digit survivors
  };
  const std::string once = SerializeRepresentation(rep);
  const auto parsed = ParseRepresentations(once);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string twice = SerializeRepresentation((*parsed)[0]);
  EXPECT_EQ(once, twice);
  // Bitwise equality, not just EXPECT_DOUBLE_EQ: -0.0 must stay negative.
  for (size_t i = 0; i < rep.segments.size(); ++i) {
    EXPECT_EQ(std::signbit((*parsed)[0].segments[i].a),
              std::signbit(rep.segments[i].a));
    EXPECT_EQ((*parsed)[0].segments[i].a, rep.segments[i].a);
    EXPECT_EQ((*parsed)[0].segments[i].b, rep.segments[i].b);
  }
}

TEST(Io, FileRoundTripIsByteIdentical) {
  const Dataset ds = SmallDataset();
  std::vector<Representation> reps;
  for (size_t i = 0; i < ds.size(); ++i)
    reps.push_back(SaplaReducer().Reduce(ds.series[i].values, 12));
  std::string once;
  for (const Representation& rep : reps) once += SerializeRepresentation(rep);
  const auto loaded = ParseRepresentations(once);
  ASSERT_TRUE(loaded.ok());
  std::string twice;
  for (const Representation& rep : *loaded)
    twice += SerializeRepresentation(rep);
  EXPECT_EQ(once, twice);
}

TEST(Io, SaxRepresentationKeepsAlphabetAndSymbols) {
  const Dataset ds = SmallDataset();
  const Representation rep = SaxReducer(16).Reduce(ds.series[1].values, 12);
  const auto parsed = ParseRepresentations(SerializeRepresentation(rep));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)[0].alphabet, 16u);
  EXPECT_EQ((*parsed)[0].symbols, rep.symbols);
}

}  // namespace
}  // namespace sapla
