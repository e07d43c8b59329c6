// Tests for the time-series substrate: normalization, resampling, the UCR
// loader, and the synthetic archive.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "ts/synthetic_archive.h"
#include "ts/time_series.h"
#include "ts/ucr_loader.h"
#include "test_tmpdir.h"

namespace sapla {
namespace {

TEST(ZNormalize, ZeroMeanUnitVariance) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8};
  ZNormalize(&v);
  double mean = 0, var = 0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  for (double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  EXPECT_NEAR(mean, 0.0, 1e-12);
  EXPECT_NEAR(var, 1.0, 1e-12);
}

TEST(ZNormalize, ConstantSeriesBecomesZero) {
  std::vector<double> v(10, 3.5);
  ZNormalize(&v);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(ResampleToLength, IdentityWhenSameLength) {
  const std::vector<double> v{1, 5, 2, 8};
  const auto out = ResampleToLength(v, 4);
  EXPECT_EQ(out, v);
}

TEST(ResampleToLength, LinearInterpolationUpsample) {
  const std::vector<double> v{0.0, 10.0};
  const auto out = ResampleToLength(v, 5);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_NEAR(out[0], 0.0, 1e-12);
  EXPECT_NEAR(out[2], 5.0, 1e-12);
  EXPECT_NEAR(out[4], 10.0, 1e-12);
}

TEST(ResampleToLength, PreservesEndpointsOnDownsample) {
  std::vector<double> v(100);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const auto out = ResampleToLength(v, 10);
  EXPECT_NEAR(out.front(), 0.0, 1e-12);
  EXPECT_NEAR(out.back(), 99.0, 1e-12);
}

TEST(Euclidean, KnownValues) {
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredEuclideanDistance({1, 1}, {2, 2}), 2.0);
}

TEST(UcrLoader, ParsesTsvWithLabels) {
  const std::string path = TestPath("test_ucr.tsv");
  {
    std::ofstream f(path);
    f << "1\t0.5\t1.5\t2.5\t3.5\n";
    f << "2\t4.0\t3.0\t2.0\t1.0\n";
  }
  UcrLoadOptions opt;
  opt.target_length = 0;
  opt.z_normalize = false;
  const auto result = LoadUcrDataset(path, opt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& ds = *result;
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.series[0].label, 1);
  EXPECT_EQ(ds.series[1].label, 2);
  EXPECT_DOUBLE_EQ(ds.series[0].values[2], 2.5);
  std::remove(path.c_str());
}

TEST(UcrLoader, AppliesResampleAndNormalize) {
  const std::string path = TestPath("test_ucr2.tsv");
  {
    std::ofstream f(path);
    f << "1,1,2,3,4,5,6,7,8\n";  // comma-separated variant
  }
  UcrLoadOptions opt;
  opt.target_length = 16;
  opt.z_normalize = true;
  const auto result = LoadUcrDataset(path, opt);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->length(), 16u);
  double mean = 0;
  for (double x : result->series[0].values) mean += x;
  EXPECT_NEAR(mean, 0.0, 1e-9);
  std::remove(path.c_str());
}

TEST(UcrLoader, RejectsRaggedAndMissingFiles) {
  EXPECT_FALSE(LoadUcrDataset("/nonexistent/file.tsv").ok());
  const std::string path = TestPath("test_ucr3.tsv");
  {
    std::ofstream f(path);
    f << "1\t1\t2\t3\n";
    f << "1\t1\t2\n";
  }
  EXPECT_FALSE(LoadUcrDataset(path).ok());
  std::remove(path.c_str());
}

TEST(UcrLoader, RejectsNonNumericCells) {
  const std::string path = TestPath("test_ucr4.tsv");
  {
    std::ofstream f(path);
    f << "1\t1\tfoo\t3\n";
  }
  EXPECT_FALSE(LoadUcrDataset(path).ok());
  std::remove(path.c_str());
}

TEST(SyntheticArchive, DeterministicAcrossCalls) {
  SyntheticOptions opt;
  opt.length = 64;
  opt.num_series = 10;
  const Dataset a = MakeSyntheticDataset(5, opt);
  const Dataset b = MakeSyntheticDataset(5, opt);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.series[i].values, b.series[i].values);
}

TEST(SyntheticArchive, DatasetsDiffer) {
  SyntheticOptions opt;
  opt.length = 64;
  opt.num_series = 4;
  const Dataset a = MakeSyntheticDataset(0, opt);
  const Dataset b = MakeSyntheticDataset(13, opt);  // same family, new params
  EXPECT_NE(a.series[0].values, b.series[0].values);
}

TEST(SyntheticArchive, ShapeMatchesPaperSetup) {
  SyntheticOptions opt;  // defaults: 1024 x 100
  const Dataset ds = MakeSyntheticDataset(1, opt);
  EXPECT_EQ(ds.size(), 100u);
  EXPECT_EQ(ds.length(), 1024u);
  // Z-normalized by default.
  double mean = 0;
  for (double x : ds.series[0].values) mean += x;
  EXPECT_NEAR(mean / 1024.0, 0.0, 1e-9);
}

TEST(SyntheticArchive, AllFamiliesProduceFiniteClassStructuredData) {
  SyntheticOptions opt;
  opt.length = 128;
  opt.num_series = 20;
  for (size_t id = 0;
       id < static_cast<size_t>(SyntheticFamily::kNumFamilies); ++id) {
    const Dataset ds = MakeSyntheticDataset(id, opt);
    std::set<int> labels;
    for (const TimeSeries& ts : ds.series) {
      labels.insert(ts.label);
      for (const double x : ts.values) ASSERT_TRUE(std::isfinite(x))
          << ds.name;
    }
    EXPECT_GE(labels.size(), 2u) << ds.name;
  }
}

TEST(SyntheticArchive, FullArchiveHas117UniqueNames) {
  SyntheticOptions opt;
  opt.length = 16;
  opt.num_series = 2;
  const auto archive = MakeSyntheticArchive(117, opt);
  EXPECT_EQ(archive.size(), 117u);
  std::set<std::string> names;
  for (const Dataset& ds : archive) names.insert(ds.name);
  EXPECT_EQ(names.size(), 117u);
}

}  // namespace
}  // namespace sapla
