#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the end-to-end benchmark: the seeded input generator,
// clocks, order statistics and the report every workload returns.
//
// Everything here is the benchmark's own code. The library is only ever
// handed the generated series, so a change to the library's synthetic
// archive or distance code cannot change the benchmark's inputs or its
// oracle (oracle.h).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ts/time_series.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
double Seconds(Clock::time_point from, Clock::time_point to);
/// Nanoseconds between two steady-clock points.
double Nanos(Clock::time_point from, Clock::time_point to);
/// The steady-clock reading taken when the process initialised its
/// statics, before main: the origin of every workload's setup_s.
Clock::time_point ProcessStart();
/// Cost of one Clock::now() in ns: the best of several batches of reads.
double ClockReadNs();
/// CPU seconds used so far by every thread of the process.
double ProcessCpuSeconds();
/// Peak resident set size of the process so far, in MB.
double PeakRssMb();
/// Threads the workloads use: min(4, hardware concurrency), at least 1.
size_t WorkerThreads();

/// A fresh directory under .bench_tmp/ in the working directory, removed
/// with everything in it when the object is destroyed.
class TempDir {
 public:
  explicit TempDir(const std::string& name);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// xoshiro256** seeded through splitmix64; the benchmark's only source of
/// randomness, so one seed fixes every input.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [0, n); n > 0.
  uint64_t Below(uint64_t n);
  /// Standard normal (Box-Muller).
  double Gaussian();

 private:
  uint64_t s_[4];
};

/// Input shape shared by the generators below.
struct CorpusSpec {
  size_t num_series = 0;
  size_t length = 256;
};

/// Number of synthetic families the corpus cycles through (random walk,
/// sine mixture, cylinder-bell-funnel event, noisy piecewise-linear).
constexpr size_t kNumFamilies = 4;

/// One z-normalised series of family `family % kNumFamilies`.
std::vector<double> MakeSeries(Rng* rng, size_t family, size_t length);

/// `spec.num_series` series; series i is of family i % kNumFamilies.
sapla::Dataset MakeCorpus(uint64_t seed, const CorpusSpec& spec);

/// A copy of `source` with i.i.d. N(0, sigma^2) noise added per point.
std::vector<double> Perturb(const std::vector<double>& source, double sigma,
                            Rng* rng);

/// Zipf(s) sampler over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Order statistic by linear interpolation (q in [0, 1]); NaN when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the outcome of its checks, its
/// operation counts, and both metric sets (main prints the one asked for).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Records a failed check: the run reports incorrect output, and the
  /// reason goes to stderr.
  void Incorrect(const std::string& why);
};

/// Run parameters every workload receives.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Workload entry points (one translation unit each).
Report RunKnnStatic(const RunConfig& config);
Report RunServeColdSkewed(const RunConfig& config);
Report RunIngestChurn(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
