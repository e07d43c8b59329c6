#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Brute-force exact k-NN: the yardstick every answer of every workload is
// checked against. It shares no code with the library's distance or search
// layers: the distance is a plain sum of squared differences over the raw
// values, and the top k is a full sort on (distance, id).
//
// Tolerance. The library and the oracle sum the squared differences in
// different orders, so equal distances can differ in the last few bits.
// A returned distance matches when it is within kRelTol relative (or
// kAbsTol absolute) of the oracle's; ids must match exactly, except that
// at a tie (two true distances within that tolerance) either id is right.

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ts/time_series.h"

namespace perfbench {

constexpr double kRelTol = 1e-9;
constexpr double kAbsTol = 1e-9;

/// Neighbors as the library returns them: (distance, id), ascending.
using Answer = std::vector<std::pair<double, size_t>>;

/// One series the oracle may return, under the id the system gave it.
struct Candidate {
  size_t id = 0;
  const std::vector<double>* values = nullptr;
};

/// Every series of `corpus`, id = position.
std::vector<Candidate> CandidatesOf(const sapla::Dataset& corpus);

/// Euclidean distance, summed in index order.
double OracleDistance(const std::vector<double>& a, const std::vector<double>& b);

/// Exact k nearest candidates to `query`, ascending by (distance, id).
Answer OracleKnn(const std::vector<Candidate>& candidates,
                 const std::vector<double>& query, size_t k);

/// OracleKnn for every query, fanned over the library's thread pool
/// (sapla::ParallelFor at its default width).
std::vector<Answer> OracleKnnAll(const std::vector<Candidate>& candidates,
                                 const std::vector<std::vector<double>>& queries,
                                 size_t k);

/// Empty when `got` is a correct k-NN answer given the oracle's `want`;
/// otherwise says what differs. `true_distance(id)` is the oracle distance
/// from the query to series `id`, used to accept ties.
std::string CompareAnswer(const Answer& got, const Answer& want,
                          const std::function<double(size_t)>& true_distance);

/// Ids of `want` that `got` lacks.
std::vector<size_t> MissingIds(const Answer& got, const Answer& want);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
