#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/parallel.h"

namespace perfbench {
namespace {

bool Close(double a, double b) {
  return std::abs(a - b) <= std::max(kAbsTol, kRelTol * std::abs(b));
}

}  // namespace

std::vector<Candidate> CandidatesOf(const sapla::Dataset& corpus) {
  std::vector<Candidate> out(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i)
    out[i] = {i, &corpus.series[i].values};
  return out;
}

double OracleDistance(const std::vector<double>& a,
                      const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

Answer OracleKnn(const std::vector<Candidate>& candidates,
                 const std::vector<double>& query, size_t k) {
  Answer all(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i)
    all[i] = {OracleDistance(query, *candidates[i].values), candidates[i].id};
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep),
                    all.end());
  all.resize(keep);
  return all;
}

std::vector<Answer> OracleKnnAll(const std::vector<Candidate>& candidates,
                                 const std::vector<std::vector<double>>& queries,
                                 size_t k) {
  std::vector<Answer> out(queries.size());
  sapla::ParallelFor(0, queries.size(), [&](size_t i) {
    out[i] = OracleKnn(candidates, queries[i], k);
  });
  return out;
}

std::string CompareAnswer(const Answer& got, const Answer& want,
                          const std::function<double(size_t)>& true_distance) {
  if (got.size() != want.size())
    return "returned " + std::to_string(got.size()) + " neighbors, oracle has " +
           std::to_string(want.size());
  std::set<size_t> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& [dist, id] = got[i];
    if (!seen.insert(id).second)
      return "id " + std::to_string(id) + " returned twice";
    if (!Close(dist, want[i].first))
      return "rank " + std::to_string(i) + " distance " + std::to_string(dist) +
             ", oracle " + std::to_string(want[i].first);
    if (id != want[i].second && !Close(true_distance(id), want[i].first))
      return "rank " + std::to_string(i) + " id " + std::to_string(id) +
             ", oracle id " + std::to_string(want[i].second);
  }
  return "";
}

std::vector<size_t> MissingIds(const Answer& got, const Answer& want) {
  std::set<size_t> have;
  for (const auto& [dist, id] : got) have.insert(id);
  std::vector<size_t> missing;
  for (const auto& [dist, id] : want)
    if (have.count(id) == 0) missing.push_back(id);
  return missing;
}

}  // namespace perfbench
