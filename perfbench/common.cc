#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <stdlib.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

// Read during static initialisation, before main runs.
const Clock::time_point g_process_start = Clock::now();

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

void ZNormalize(std::vector<double>* v) {
  double mean = 0.0;
  for (const double x : *v) mean += x;
  mean /= static_cast<double>(v->size());
  double var = 0.0;
  for (const double x : *v) var += (x - mean) * (x - mean);
  const double sd = std::sqrt(var / static_cast<double>(v->size()));
  for (double& x : *v) x = sd > 1e-12 ? (x - mean) / sd : 0.0;
}

}  // namespace

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Nanos(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

Clock::time_point ProcessStart() { return g_process_start; }

double ClockReadNs() {
  constexpr int kReads = 10000;
  double best = HUGE_VAL;
  for (int batch = 0; batch < 20; ++batch) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kReads - 2; ++i) (void)Clock::now();
    best = std::min(best, Nanos(t0, Clock::now()) / kReads);
  }
  return best;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

size_t WorkerThreads() {
  const size_t hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw, 1, 4);
}

TempDir::TempDir(const std::string& name) {
  std::filesystem::create_directories(".bench_tmp");
  std::string pattern = ".bench_tmp/" + name + "-XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr)
    throw std::runtime_error("mkdtemp " + pattern + " failed");
  path_ = pattern;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::remove(".bench_tmp", ec);  // only succeeds when empty
}

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (uint64_t& s : s_) s = SplitMix64(&x);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Below(uint64_t n) { return Next() % n; }

double Rng::Gaussian() {
  const double u1 = 1.0 - Uniform();  // (0, 1]
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

std::vector<double> MakeSeries(Rng* rng, size_t family, size_t length) {
  std::vector<double> v(length);
  const double n = static_cast<double>(length);
  switch (family % kNumFamilies) {
    case 0: {  // random walk
      double x = 0.0;
      for (double& y : v) y = (x += rng->Gaussian());
      break;
    }
    case 1: {  // mixture of 2-4 sinusoids plus noise
      const size_t waves = 2 + rng->Below(3);
      std::vector<double> freq(waves), phase(waves), amp(waves);
      for (size_t w = 0; w < waves; ++w) {
        freq[w] = 1.0 + 11.0 * rng->Uniform();
        phase[w] = 2.0 * M_PI * rng->Uniform();
        amp[w] = 0.3 + rng->Uniform();
      }
      for (size_t t = 0; t < length; ++t) {
        double s = 0.0;
        for (size_t w = 0; w < waves; ++w)
          s += amp[w] * std::sin(2.0 * M_PI * freq[w] * static_cast<double>(t) / n +
                                 phase[w]);
        v[t] = s + 0.1 * rng->Gaussian();
      }
      break;
    }
    case 2: {  // cylinder / bell / funnel event on noise
      const size_t start = length / 8 + rng->Below(length / 4);
      const size_t stop = std::min(length, start + length / 8 + rng->Below(length / 2));
      const uint64_t shape = rng->Below(3);
      const double height = 2.0 + 4.0 * rng->Uniform();
      for (size_t t = 0; t < length; ++t) {
        double y = 0.0;
        if (t >= start && t < stop) {
          const double q = static_cast<double>(t - start) /
                           static_cast<double>(stop - start);
          y = shape == 0 ? height : shape == 1 ? height * q : height * (1.0 - q);
        }
        v[t] = y + 0.3 * rng->Gaussian();
      }
      break;
    }
    default: {  // piecewise-linear trajectory plus noise
      const size_t pieces = 3 + rng->Below(6);
      std::vector<double> knots(pieces + 1);
      for (double& k : knots) k = 2.0 * rng->Gaussian();
      for (size_t t = 0; t < length; ++t) {
        const double pos = static_cast<double>(t) / (n - 1.0) * static_cast<double>(pieces);
        const size_t i = std::min(static_cast<size_t>(pos), pieces - 1);
        const double f = pos - static_cast<double>(i);
        v[t] = knots[i] * (1.0 - f) + knots[i + 1] * f + 0.15 * rng->Gaussian();
      }
      break;
    }
  }
  ZNormalize(&v);
  return v;
}

sapla::Dataset MakeCorpus(uint64_t seed, const CorpusSpec& spec) {
  Rng rng(seed);
  sapla::Dataset ds;
  ds.name = "perfbench";
  ds.series.reserve(spec.num_series);
  for (size_t i = 0; i < spec.num_series; ++i)
    ds.series.emplace_back(MakeSeries(&rng, i, spec.length),
                           static_cast<int>(i % kNumFamilies));
  return ds;
}

std::vector<double> Perturb(const std::vector<double>& source, double sigma,
                            Rng* rng) {
  std::vector<double> out = source;
  for (double& x : out) x += sigma * rng->Gaussian();
  return out;
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i)
    cdf_[i] = (total += 1.0 / std::pow(static_cast<double>(i + 1), s));
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Report::Incorrect(const std::string& why) {
  if (correct) fprintf(stderr, "perfbench: INCORRECT: %s\n", why.c_str());
  correct = false;
}

}  // namespace perfbench
