// Workload knn-static: a single-threaded closed loop of exact 8-NN queries
// over memory-resident SimilarityIndex objects, with no cache, pool or
// scatter in the way.
//
// One round runs the fixed query set through
//   - DBCH with dbch_sound_bounds   (every query; timed -> query_*),
//   - the R-tree                    (a prefix of the set; -> rtree_qps),
//   - LinearScanKnn                 (a prefix of the set; -> scan_qps),
//   - the SimilarityIndex default, DBCH with the paper's §5.3 bound, and
//     DBCH with dbch_sound_bounds again, both on a fixed probe corpus and
//     probe queries that do not depend on --seed.
// Rounds repeat until --seconds have passed; a query's time is the fastest
// of its passes. Afterwards every answer is checked against the oracle.
//
// Failures. A wrong DBCH answer is attributable to the Dist_PAR node-bound
// fault only when every true neighbor it lacks was pruned above the leaves,
// i.e. never reached the leaf filter; the decomposition below records which
// ids reach it. Any other wrong answer makes the run incorrect. Every
// attributable wrong answer, of either bound, on the seeded queries or on
// the probe, is a failed operation in every round it is returned. The
// probe's failures are the same share of every run; the seeded queries'
// failures would change that share on a seed where the sound bound errs,
// which none of the seeds tried so far does (README).
//
// Traced runs add one decomposition pass: the query is reduced with the
// program's Reducer, then the backend's BestFirstSearch runs with the
// benchmark's own filter-and-refine visitor, which times each
// FilterDistanceView and EuclideanDistance call. It must return the same
// neighbors and evaluation counts as Knn, and every measured candidate must
// satisfy Dist_LB <= ED.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "distance/kernels.h"
#include "geom/line_fit.h"
#include "oracle.h"
#include "reduction/representation.h"
#include "reduction/representation_store.h"
#include "search/knn.h"
#include "util/parallel.h"

namespace perfbench {
namespace {

constexpr size_t kCorpusSize = 4096;
constexpr size_t kLength = 256;
constexpr size_t kM = 24;
constexpr size_t kK = 8;
constexpr double kQueryNoise = 0.1;
constexpr size_t kQueries = 1000;      // DBCH (sound): every query, every round
constexpr size_t kRtreeQueries = 200;  // R-tree: this prefix of the set
constexpr size_t kScanQueries = 500;   // LinearScanKnn: this prefix

// The fault probe: a fixed corpus and query set, whatever --seed says.
constexpr uint64_t kProbeSeed = 0x9E0B5EEDULL;
constexpr size_t kProbeCorpusSize = 2048;
constexpr size_t kProbeQueries = 100;

std::vector<std::vector<double>> MakeQueries(const sapla::Dataset& corpus,
                                             uint64_t seed, size_t count) {
  Rng rng(seed ^ 0x51ED5EEDULL);
  std::vector<std::vector<double>> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i)
    out.push_back(Perturb(corpus.series[rng.Below(corpus.size())].values,
                          kQueryNoise, &rng));
  return out;
}

// k best (distance, id) pairs, ordered as the library orders them.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {}
  void Offer(double dist, size_t id) {
    if (heap_.size() < k_) {
      heap_.emplace(dist, id);
    } else if (std::make_pair(dist, id) < heap_.top()) {
      heap_.pop();
      heap_.emplace(dist, id);
    }
  }
  double Bound() const {
    return heap_.size() < k_ ? HUGE_VAL : heap_.top().first;
  }
  Answer Sorted() const {
    Answer out(heap_.size());
    auto copy = heap_;
    for (size_t i = out.size(); i-- > 0; copy.pop()) out[i] = copy.top();
    return out;
  }

 private:
  size_t k_;
  std::priority_queue<std::pair<double, size_t>> heap_;
};

// One query taken apart layer by layer (all times in ns).
struct Decomposition {
  Answer answer;
  uint64_t lb_evals = 0;
  uint64_t exact_evals = 0;
  uint64_t nodes_visited = 0;
  double reduce_ns = 0, node_ns = 0, filter_ns = 0, refine_ns = 0;
  double total_ns = 0;               // the whole traced query
  std::vector<size_t> reached_leaf;  // ids offered to the leaf filter
  uint64_t lb_violations = 0;     // measured candidates with Dist_LB > ED
};

Decomposition Decompose(const sapla::SimilarityIndex& index,
                        const sapla::Reducer& reducer,
                        const std::vector<double>& query, size_t k,
                        double clock_read_ns) {
  Decomposition d;
  const sapla::RepresentationStore& store = index.store();
  const sapla::Dataset& data = *index.dataset();

  const auto start = Clock::now();
  auto t0 = start;
  sapla::RepresentationStore query_store;
  reducer.ReduceInto(query, index.m(), &query_store);
  const sapla::RepView query_rep = query_store.view(0);
  auto t1 = Clock::now();
  d.reduce_ns = Nanos(t0, t1);

  t0 = Clock::now();
  const sapla::PrefixFitter fitter(query);
  sapla::DistanceScratch scratch;
  sapla::StoreReadPin pin;
  d.filter_ns += Nanos(t0, Clock::now());

  TopK top(k);
  double visit_ns = 0.0;
  const auto visit = [&](size_t id, double bound) {
    const auto v0 = Clock::now();
    double lb = sapla::FilterDistanceView(fitter, query_rep, store.view(id, &pin),
                                          &scratch);
    if (store.quantized()) lb = std::max(0.0, lb - store.lb_slack(id));
    const auto v1 = Clock::now();
    d.filter_ns += Nanos(v0, v1);
    ++d.lb_evals;
    d.reached_leaf.push_back(id);
    if (lb <= bound) {
      const auto e0 = Clock::now();
      const double exact = sapla::EuclideanDistance(query, data.series[id].values);
      d.refine_ns += Nanos(e0, Clock::now());
      ++d.exact_evals;
      if (lb > exact + std::max(kAbsTol, kRelTol * exact)) ++d.lb_violations;
      top.Offer(exact, id);
    }
    const double next = top.Bound();
    visit_ns += Nanos(v0, Clock::now());
    return next;
  };
  sapla::SearchCounters counters;
  t0 = Clock::now();
  index.backend()->BestFirstSearch(query, query_rep, visit, &counters);
  d.node_ns = Nanos(t0, Clock::now()) - visit_ns;
  d.nodes_visited = counters.nodes_visited();
  d.answer = top.Sorted();
  d.total_ns = Nanos(start, Clock::now());
  // Each timed window, and the node time between visits, contains about
  // one clock read of its own making; take those out of the parts.
  const double lb = static_cast<double>(d.lb_evals);
  d.filter_ns -= clock_read_ns * lb;
  d.node_ns -= clock_read_ns * lb;
  d.refine_ns -= clock_read_ns * static_cast<double>(d.exact_evals);
  return d;
}

// Timings and answers of one configuration across rounds.
struct Series {
  std::vector<std::vector<double>> ns;  // [query][pass]
  size_t passes = 0;
  std::vector<sapla::KnnResult> first;  // answers of the first pass
  size_t changed = 0;                   // later answers differing from first

  explicit Series(size_t queries) : ns(queries), first(queries) {}

  template <typename Fn>
  void Pass(const std::vector<std::vector<double>>& queries, size_t count,
            const Fn& run) {
    const bool record = passes++ == 0;
    for (size_t i = 0; i < count; ++i) {
      const auto t0 = Clock::now();
      sapla::KnnResult r = run(queries[i]);
      const double took = Nanos(t0, Clock::now());
      ns[i].push_back(took);
      if (record) {
        first[i] = std::move(r);
      } else if (r.neighbors != first[i].neighbors ||
                 r.approximate != first[i].approximate) {
        ++changed;
      }
    }
  }

  // Each query's fastest pass (README: host noise only ever adds time).
  std::vector<double> BestTimes(size_t count) const {
    std::vector<double> out;
    for (size_t i = 0; i < count; ++i)
      out.push_back(*std::min_element(ns[i].begin(), ns[i].end()));
    return out;
  }

  // Queries per second of a closed loop in which every query takes its
  // best time.
  double Qps(size_t count) const { return 1e9 / Mean(BestTimes(count)); }
};

// Checks one configuration's first-pass answers against the oracle.
// Mismatches that the node-bound fault explains are returned through
// `attributable` when given; everything else is a correctness failure.
void CheckAgainstOracle(const char* label, const Series& s, size_t count,
                        const sapla::Dataset& corpus,
                        const std::vector<std::vector<double>>& queries,
                        const std::vector<Answer>& truth,
                        const sapla::SimilarityIndex* tree,
                        const sapla::Reducer& reducer, Report* report,
                        size_t* attributable, size_t* missed_neighbors) {
  if (s.changed > 0)
    report->Incorrect(std::string(label) + ": " + std::to_string(s.changed) +
                      " answers changed between passes");
  for (size_t i = 0; i < count; ++i) {
    const sapla::KnnResult& r = s.first[i];
    if (r.approximate) {
      report->Incorrect(std::string(label) + ": answer labelled approximate");
      continue;
    }
    const std::string diff =
        CompareAnswer(r.neighbors, truth[i], [&](size_t id) {
          return OracleDistance(queries[i], corpus.series[id].values);
        });
    if (diff.empty()) continue;
    if (attributable == nullptr || tree == nullptr) {
      report->Incorrect(std::string(label) + " query " + std::to_string(i) +
                        ": " + diff);
      continue;
    }
    const Decomposition d = Decompose(*tree, reducer, queries[i], kK, 0.0);
    const std::vector<size_t> missing = MissingIds(r.neighbors, truth[i]);
    bool pruned_above_leaves = d.answer == r.neighbors;
    for (const size_t id : missing)
      pruned_above_leaves = pruned_above_leaves &&
                            std::find(d.reached_leaf.begin(), d.reached_leaf.end(),
                                      id) == d.reached_leaf.end();
    if (!pruned_above_leaves) {
      report->Incorrect(std::string(label) + " query " + std::to_string(i) +
                        ": " + diff + " (a lost neighbor reached the leaf filter)");
      continue;
    }
    ++*attributable;
    *missed_neighbors += missing.size();
  }
}

}  // namespace

Report RunKnnStatic(const RunConfig& config) {
  Report report;
  sapla::SetNumThreads(WorkerThreads());

  // ---- Set-up: inputs, then the three indexes.
  const sapla::Dataset corpus =
      MakeCorpus(config.seed, {kCorpusSize, kLength});
  const std::vector<std::vector<double>> queries =
      MakeQueries(corpus, config.seed, kQueries);
  const sapla::Dataset probe_corpus =
      MakeCorpus(kProbeSeed, {kProbeCorpusSize, kLength});
  const std::vector<std::vector<double>> probe_queries =
      MakeQueries(probe_corpus, kProbeSeed, kProbeQueries);

  sapla::SimilarityIndex::Options sound_options;
  sound_options.dbch_sound_bounds = true;
  sapla::SimilarityIndex dbch(sapla::Method::kSapla, kM,
                              sapla::IndexKind::kDbchTree, sound_options);
  sapla::SimilarityIndex rtree(sapla::Method::kSapla, kM,
                               sapla::IndexKind::kRTree);
  sapla::SimilarityIndex paper(sapla::Method::kSapla, kM,
                               sapla::IndexKind::kDbchTree);
  sapla::SimilarityIndex probe_sound(sapla::Method::kSapla, kM,
                                     sapla::IndexKind::kDbchTree, sound_options);
  for (auto [index, data] :
       {std::pair{&dbch, &corpus}, std::pair{&rtree, &corpus},
        std::pair{&paper, &probe_corpus}, std::pair{&probe_sound, &probe_corpus}}) {
    const sapla::Status st = index->Build(*data);
    if (!st.ok()) throw std::runtime_error("index build: " + st.ToString());
  }
  const double setup_s = Seconds(ProcessStart(), Clock::now());
  fprintf(stderr, "knn-static: set-up %.3f s\n", setup_s);

  // ---- Timed rounds. A traced run also decomposes every DBCH query and
  // the R-tree prefix once per round, so each part's best time is taken
  // over as many passes, spread over as long, as the untraced figures.
  Series s_dbch(kQueries), s_rtree(kRtreeQueries), s_scan(kScanQueries),
      s_paper(kProbeQueries), s_probe_sound(kProbeQueries);
  const std::unique_ptr<sapla::Reducer> reducer =
      sapla::MakeReducer(sapla::Method::kSapla);
  const double clock_read_ns = config.trace ? ClockReadNs() : 0.0;
  std::vector<Decomposition> traced_dbch(kQueries), traced_rtree(kRtreeQueries);
  const auto sweep = [&](const sapla::SimilarityIndex& index, const Series& s,
                         std::vector<Decomposition>* best, bool first) {
    for (size_t i = 0; i < best->size(); ++i) {
      Decomposition d = Decompose(index, *reducer, queries[i], kK, clock_read_ns);
      const sapla::KnnResult& r = s.first[i];
      if (d.answer != r.neighbors || d.lb_evals != r.counters.lb_evaluations ||
          d.exact_evals != r.counters.exact_evaluations)
        report.Incorrect("decomposition of query " + std::to_string(i) +
                         " disagrees with Knn");
      if (d.lb_violations > 0)
        report.Incorrect("Dist_LB exceeded ED on query " + std::to_string(i));
      Decomposition& b = (*best)[i];
      if (first) {
        b = std::move(d);
        continue;
      }
      b.reduce_ns = std::min(b.reduce_ns, d.reduce_ns);
      b.node_ns = std::min(b.node_ns, d.node_ns);
      b.filter_ns = std::min(b.filter_ns, d.filter_ns);
      b.refine_ns = std::min(b.refine_ns, d.refine_ns);
      b.total_ns = std::min(b.total_ns, d.total_ns);
    }
  };
  const double cpu0 = ProcessCpuSeconds();
  const auto start = Clock::now();
  size_t rounds = 0;
  do {
    s_dbch.Pass(queries, kQueries,
                [&](const std::vector<double>& q) { return dbch.Knn(q, kK); });
    s_rtree.Pass(queries, kRtreeQueries,
                 [&](const std::vector<double>& q) { return rtree.Knn(q, kK); });
    s_scan.Pass(queries, kScanQueries, [&](const std::vector<double>& q) {
      return sapla::LinearScanKnn(corpus, q, kK);
    });
    s_paper.Pass(probe_queries, kProbeQueries,
                 [&](const std::vector<double>& q) { return paper.Knn(q, kK); });
    s_probe_sound.Pass(probe_queries, kProbeQueries, [&](const std::vector<double>& q) {
      return probe_sound.Knn(q, kK);
    });
    if (config.trace) {
      sweep(dbch, s_dbch, &traced_dbch, rounds == 0);
      sweep(rtree, s_rtree, &traced_rtree, rounds == 0);
    }
    ++rounds;
  } while (Seconds(start, Clock::now()) < config.seconds);
  const double wall_s = Seconds(start, Clock::now());
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  fprintf(stderr, "knn-static: %zu rounds in %.2f s\n", rounds, wall_s);

  // ---- Checks against the oracle.
  const std::vector<Answer> truth =
      OracleKnnAll(CandidatesOf(corpus), queries, kK);
  const std::vector<Answer> probe_truth = OracleKnnAll(
      CandidatesOf(probe_corpus), probe_queries, kK);
  size_t dbch_wrong = 0, dbch_missed = 0, paper_wrong = 0, paper_missed = 0,
         probe_sound_wrong = 0, probe_sound_missed = 0;
  CheckAgainstOracle("scan", s_scan, kScanQueries, corpus, queries, truth,
                     nullptr, *reducer, &report, nullptr, nullptr);
  CheckAgainstOracle("rtree", s_rtree, kRtreeQueries, corpus, queries, truth,
                     nullptr, *reducer, &report, nullptr, nullptr);
  CheckAgainstOracle("dbch-sound", s_dbch, kQueries, corpus, queries, truth,
                     &dbch, *reducer, &report, &dbch_wrong, &dbch_missed);
  CheckAgainstOracle("dbch-paper", s_paper, kProbeQueries, probe_corpus,
                     probe_queries, probe_truth, &paper, *reducer, &report,
                     &paper_wrong, &paper_missed);
  CheckAgainstOracle("dbch-sound probe", s_probe_sound, kProbeQueries,
                     probe_corpus, probe_queries, probe_truth, &probe_sound,
                     *reducer, &report, &probe_sound_wrong, &probe_sound_missed);
  fprintf(stderr,
          "knn-static: dbch-sound wrong on %zu/%zu queries (%zu neighbors "
          "pruned above the leaves) and %zu/%zu probes; dbch-paper wrong on "
          "%zu/%zu probes\n",
          dbch_wrong, kQueries, dbch_missed, probe_sound_wrong, kProbeQueries,
          paper_wrong, kProbeQueries);

  report.attempted =
      rounds * (kQueries + kRtreeQueries + kScanQueries + 2 * kProbeQueries);
  report.failed = rounds * (dbch_wrong + paper_wrong + probe_sound_wrong);

  // ---- End-to-end figures. ops_per_s covers one round's whole mix: a
  // closed loop in which every operation takes its best time.
  const std::vector<double> dbch_ns = s_dbch.BestTimes(kQueries);
  double round_ns = 0.0;
  for (const auto& [s, count] :
       {std::pair{&s_dbch, kQueries}, std::pair{&s_rtree, kRtreeQueries},
        std::pair{&s_scan, kScanQueries}, std::pair{&s_paper, kProbeQueries},
        std::pair{&s_probe_sound, kProbeQueries}})
    for (const double ns : s->BestTimes(count)) round_ns += ns;
  report.E2e("setup_s", setup_s, "s");
  report.E2e("query_qps", s_dbch.Qps(kQueries), "1/s");
  report.E2e("query_p50_us", Quantile(dbch_ns, 0.50) * 1e-3, "us");
  report.E2e("query_p99_us", Quantile(dbch_ns, 0.99) * 1e-3, "us");
  report.E2e("ops_per_s",
             static_cast<double>(report.attempted / rounds) * 1e9 / round_ns,
             "1/s");
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  if (!config.trace) return report;

  // ---- Per-layer figures from the traced sweeps.
  struct Totals {
    std::vector<double> reduce, node, filter, refine, total, nodes, lb, exact;
  };
  const auto totals = [](const std::vector<Decomposition>& best) {
    Totals t;
    for (const Decomposition& b : best) {
      t.reduce.push_back(b.reduce_ns * 1e-3);
      t.node.push_back(b.node_ns * 1e-3);
      t.filter.push_back(b.filter_ns * 1e-3);
      t.refine.push_back(b.refine_ns * 1e-3);
      t.total.push_back(b.total_ns * 1e-3);
      t.nodes.push_back(static_cast<double>(b.nodes_visited));
      t.lb.push_back(static_cast<double>(b.lb_evals));
      t.exact.push_back(static_cast<double>(b.exact_evals));
    }
    return t;
  };
  const Totals td = totals(traced_dbch), tr = totals(traced_rtree);
  // Untraced time the parts leave unexplained, and what tracing added.
  const auto unattributed = [](const Series& s, size_t count, const Totals& t) {
    return Mean(s.BestTimes(count)) * 1e-3 -
           (Mean(t.reduce) + Mean(t.node) + Mean(t.filter) + Mean(t.refine));
  };
  const auto overhead = [](const Series& s, size_t count, const Totals& t) {
    return Mean(t.total) - Mean(s.BestTimes(count)) * 1e-3;
  };
  const double n = static_cast<double>(kCorpusSize);
  report.Layer("rtree_qps", s_rtree.Qps(kRtreeQueries), "1/s");
  report.Layer("scan_qps", s_scan.Qps(kScanQueries), "1/s");
  report.Layer("util.parallel.cpu_per_wall", cpu_s / wall_s, "ratio");
  report.Layer("reduction.resident_bytes",
               static_cast<double>(dbch.footprint().resident_bytes), "B");
  report.Layer("core.reduce_us", Mean(td.reduce), "us");
  report.Layer("index.dbch.node_us", Mean(td.node), "us");
  report.Layer("index.rtree.node_us", Mean(tr.node), "us");
  report.Layer("index.dbch.nodes_visited", Mean(td.nodes), "count");
  report.Layer("index.rtree.nodes_visited", Mean(tr.nodes), "count");
  report.Layer("distance.dbch.filter_us", Mean(td.filter), "us");
  report.Layer("distance.rtree.filter_us", Mean(tr.filter), "us");
  report.Layer("distance.dbch.lb_evals", Mean(td.lb), "count");
  report.Layer("distance.rtree.lb_evals", Mean(tr.lb), "count");
  report.Layer("search.dbch.refine_us", Mean(td.refine), "us");
  report.Layer("search.rtree.refine_us", Mean(tr.refine), "us");
  report.Layer("search.dbch.exact_evals", Mean(td.exact), "count");
  report.Layer("search.rtree.exact_evals", Mean(tr.exact), "count");
  report.Layer("search.dbch.pruning_power", Mean(td.exact) / n, "ratio");
  report.Layer("search.rtree.pruning_power", Mean(tr.exact) / n, "ratio");
  report.Layer("search.dbch.unattributed_us",
               unattributed(s_dbch, kQueries, td), "us");
  report.Layer("search.rtree.unattributed_us",
               unattributed(s_rtree, kRtreeQueries, tr), "us");
  report.Layer("search.dbch.trace_overhead_us", overhead(s_dbch, kQueries, td),
               "us");
  report.Layer("search.rtree.trace_overhead_us",
               overhead(s_rtree, kRtreeQueries, tr), "us");
  report.Layer("search.dbch.missed_neighbors", static_cast<double>(dbch_missed),
               "count");
  report.Layer("search.scan_ns_per_series",
               Median(s_scan.BestTimes(kScanQueries)) / n, "ns");
  return report;
}

}  // namespace perfbench
