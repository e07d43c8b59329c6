// Workload ingest-churn: writes beside reads on a live, durable corpus.
//
// A round starts a durable IngestController with default IngestOptions on
// an empty directory under .bench_tmp/, then replays one fixed, seeded
// sequence of kInserts inserts, kDeletes deletes of earlier ids and kQueries
// 8-NN queries (perturbed copies of series inserted so far). Auto-seal and
// auto-compaction run as the defaults dictate; the workload never calls
// Checkpoint, so the whole history stays in the WAL (flushed with fflush
// after every append, never fsync'd: the program's default). After the
// sequence the controller is destroyed and a fresh one runs Recover() on the
// same directory. Rounds repeat until --seconds have passed; every round
// replays the same sequence, so the time of a query or an insert is the
// best over rounds of the operation at that position.
//
// Checks. The client keeps its own model of acknowledged inserts and
// deletes. In the first round every query answer is compared with the
// oracle over the model, and later rounds must return the same answers.
// After each Recover(), VisibleIds() must equal the model's id set and a
// sample of queries must match the oracle. The controller is built on the
// R-tree, whose answers are exact on every seed (DBCH generations force the
// sound node bound; knn-static measures its fault).
//
// Threads. The library's pool runs one worker, so compaction's rebuild runs
// on the client thread. With four workers on a shared 4-vCPU host the rebuild
// ran 2.5-3x faster in some ten-minute periods than in others, moving
// insert_per_s by half between two sets of runs (README, "Steadiness");
// serve-cold-skewed measures the pool.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "ingest/ingest_controller.h"
#include "obs/explain.h"
#include "oracle.h"
#include "reduction/representation.h"
#include "reduction/representation_store.h"
#include "util/parallel.h"

namespace perfbench {
namespace {

constexpr size_t kLength = 256;
constexpr size_t kM = 24;
constexpr size_t kK = 8;
constexpr double kQueryNoise = 0.1;
constexpr size_t kInserts = 1024;
constexpr size_t kDeletes = 256;  // 20% of mutations
constexpr size_t kQueries = 1024;
constexpr size_t kRecoverySample = 16;  // queries re-checked after Recover

struct Op {
  enum Kind { kInsert, kDelete, kQuery } kind = kInsert;
  size_t payload = 0;   // insert: series index; query: query index
  double pick = 0.0;    // delete: position in the live-id list, in [0, 1)
};

// The seeded inputs of one run; identical for every round.
struct Script {
  std::vector<std::vector<double>> series;   // insert payloads
  std::vector<std::vector<double>> queries;  // one per query op
  std::vector<Op> ops;
  std::vector<std::vector<double>> recovery_queries;
};

Script MakeScript(uint64_t seed) {
  Rng rng(seed ^ 0x1A6E57C4ULL);
  Script s;
  for (size_t i = 0; i < kInserts; ++i)
    s.series.push_back(MakeSeries(&rng, i, kLength));
  size_t inserts = 0, deletes = 0, queries = 0, live = 0;
  while (inserts + deletes + queries < kInserts + kDeletes + kQueries) {
    // Draw the next kind in proportion to what is left of each; deletes
    // and queries wait until kK series are live.
    const size_t left_i = kInserts - inserts, left_d = kDeletes - deletes,
                 left_q = kQueries - queries;
    const uint64_t r = rng.Below(left_i + left_d + left_q);
    Op op;
    if (r < left_i || live < kK) {
      if (left_i == 0) throw std::logic_error("ingest script ran out of inserts");
      op.kind = Op::kInsert;
      op.payload = inserts++;
      ++live;
    } else if (r < left_i + left_d) {
      op.kind = Op::kDelete;
      op.pick = rng.Uniform();
      ++deletes;
      --live;
    } else {
      op.kind = Op::kQuery;
      op.payload = queries++;
      s.queries.push_back(Perturb(s.series[rng.Below(inserts)], kQueryNoise, &rng));
    }
    s.ops.push_back(op);
  }
  for (size_t i = 0; i < kRecoverySample; ++i)
    s.recovery_queries.push_back(
        Perturb(s.series[rng.Below(kInserts)], kQueryNoise, &rng));
  return s;
}

std::unique_ptr<sapla::IngestController> OpenController(const std::string& dir) {
  sapla::IngestOptions options;
  options.durable_dir = dir;
  return std::make_unique<sapla::IngestController>(
      sapla::Method::kSapla, kM, sapla::IndexKind::kRTree, kLength, options);
}

// Acknowledged inserts minus acknowledged deletes: id -> payload index.
using Model = std::map<uint64_t, size_t>;

std::vector<Candidate> CandidatesOf(const Model& model, const Script& script) {
  std::vector<Candidate> out;
  for (const auto& [id, payload] : model)
    out.push_back({static_cast<size_t>(id), &script.series[payload]});
  return out;
}

std::string CheckKnn(const sapla::KnnResult& r, const Model& model,
                     const Script& script, const std::vector<double>& query) {
  if (r.approximate) return "answer labelled approximate";
  const Answer want = OracleKnn(CandidatesOf(model, script), query, kK);
  return CompareAnswer(r.neighbors, want, [&](size_t id) {
    const auto it = model.find(id);
    return it == model.end() ? -1.0
                             : OracleDistance(query, script.series[it->second]);
  });
}

}  // namespace

Report RunIngestChurn(const RunConfig& config) {
  Report report;
  sapla::SetNumThreads(1);

  // ---- Set-up: the script and the first round's empty controller.
  const Script script = MakeScript(config.seed);
  auto dir = std::make_unique<TempDir>("ingest");
  auto controller = OpenController(dir->path());
  sapla::Status st = controller->Recover();
  if (!st.ok()) throw std::runtime_error("recover (empty): " + st.ToString());
  const double setup_s = Seconds(ProcessStart(), Clock::now());
  fprintf(stderr, "ingest-churn: set-up %.3f s, %zu ops per round\n", setup_s,
          script.ops.size());

  std::vector<std::vector<double>> query_ns(kQueries);    // [position][round]
  std::vector<std::vector<double>> insert_ns(kInserts);   // [position][round]
  std::vector<std::vector<double>> delete_ns(kDeletes);   // [position][round]
  std::vector<Answer> first_answers(kQueries);
  std::vector<double> recover_s, plain_insert_us, seal_ms, compact_ms;
  std::vector<double> compactions, rebuilt_per_insert, wal_per_mutation,
      replayed, parts_per_query, resident_bytes;
  size_t rounds = 0;
  uint64_t attempted = 0;

  const double cpu0 = ProcessCpuSeconds();
  const auto start = Clock::now();
  do {
    if (!controller) {
      dir = std::make_unique<TempDir>("ingest");
      controller = OpenController(dir->path());
      st = controller->Recover();
      if (!st.ok()) throw std::runtime_error("recover (empty): " + st.ToString());
    }
    const bool first_round = rounds == 0;
    Model model;
    std::vector<uint64_t> live;  // model ids in insertion order
    size_t round_compactions = 0, round_deletes = 0;
    double rebuilt = 0.0;
    for (const Op& op : script.ops) {
      ++attempted;
      if (op.kind == Op::kInsert) {
        const sapla::IngestMetrics& m = controller->metrics();
        const uint64_t seals0 = m.seals.load(), compactions0 = m.compactions.load();
        const auto t0 = Clock::now();
        const sapla::Result<uint64_t> id = controller->Insert(script.series[op.payload]);
        const double took = Seconds(t0, Clock::now());
        insert_ns[op.payload].push_back(took * 1e9);
        if (!id.ok()) {
          report.Incorrect("insert refused: " + id.status().ToString());
          continue;
        }
        model[id.ValueOrDie()] = op.payload;
        live.push_back(id.ValueOrDie());
        if (m.compactions.load() != compactions0) {
          compact_ms.push_back(took * 1e3);
          ++round_compactions;
          rebuilt += static_cast<double>(controller->GetEpochStats().main_entries);
        } else if (m.seals.load() != seals0) {
          seal_ms.push_back(took * 1e3);
        } else {
          plain_insert_us.push_back(took * 1e6);
        }
      } else if (op.kind == Op::kDelete) {
        const size_t at = static_cast<size_t>(op.pick * static_cast<double>(live.size()));
        const uint64_t id = live[at];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        const auto t0 = Clock::now();
        st = controller->Delete(id);
        delete_ns[round_deletes++].push_back(Nanos(t0, Clock::now()));
        if (!st.ok()) {
          report.Incorrect("delete refused: " + st.ToString());
          continue;
        }
        model.erase(id);
      } else {
        const std::vector<double>& q = script.queries[op.payload];
        const auto t0 = Clock::now();
        const sapla::KnnResult r = controller->Knn(q, kK);
        const double took = Nanos(t0, Clock::now());
        query_ns[op.payload].push_back(took);
        if (first_round) {
          const std::string diff = CheckKnn(r, model, script, q);
          if (!diff.empty())
            report.Incorrect("query " + std::to_string(op.payload) + ": " + diff);
          first_answers[op.payload] = r.neighbors;
          if (config.trace) {
            sapla::obs::QueryExplain explain;
            if (controller->KnnExplain(q, kK, &explain).neighbors != r.neighbors)
              report.Incorrect("KnnExplain disagrees with Knn");
            parts_per_query.push_back(static_cast<double>(explain.parts.size()));
          }
        } else if (r.neighbors != first_answers[op.payload]) {
          report.Incorrect("query " + std::to_string(op.payload) +
                           " answered differently in a later round");
        }
      }
    }
    const sapla::IngestMetricsSnapshot written =
        sapla::SnapshotIngestMetrics(controller->metrics());
    compactions.push_back(static_cast<double>(round_compactions));
    rebuilt_per_insert.push_back(rebuilt / static_cast<double>(kInserts));
    wal_per_mutation.push_back(static_cast<double>(written.wal_bytes) /
                               static_cast<double>(written.wal_records));
    resident_bytes.push_back(
        static_cast<double>(controller->footprint().resident_bytes));
    controller.reset();

    // Recovery into a fresh controller, then the durability checks.
    auto recovered = OpenController(dir->path());
    const auto t0 = Clock::now();
    st = recovered->Recover();
    recover_s.push_back(Seconds(t0, Clock::now()));
    if (!st.ok()) throw std::runtime_error("recover: " + st.ToString());
    replayed.push_back(static_cast<double>(recovered->metrics().wal_replayed.load()));
    std::vector<uint64_t> want_ids;
    for (const auto& [id, payload] : model) want_ids.push_back(id);
    if (recovered->VisibleIds() != want_ids)
      report.Incorrect("recovered visible ids differ from the acknowledged writes");
    for (const std::vector<double>& q : script.recovery_queries) {
      const std::string diff = CheckKnn(recovered->Knn(q, kK), model, script, q);
      if (!diff.empty()) report.Incorrect("after recovery: " + diff);
    }
    recovered.reset();
    dir.reset();
    ++rounds;
  } while (Seconds(start, Clock::now()) < config.seconds);
  const double wall_s = Seconds(start, Clock::now());
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  fprintf(stderr, "ingest-churn: %zu rounds in %.2f s\n", rounds, wall_s);

  report.attempted = attempted;
  report.failed = 0;
  // Each position's best time over rounds (README: host noise only ever
  // adds time).
  const auto best = [](const std::vector<std::vector<double>>& by_position) {
    std::vector<double> out;
    for (const std::vector<double>& ns : by_position)
      out.push_back(*std::min_element(ns.begin(), ns.end()));
    return out;
  };
  const std::vector<double> per_query = best(query_ns);
  const std::vector<double> per_insert = best(insert_ns);
  const std::vector<double> per_delete = best(delete_ns);
  // ops_per_s: one round's whole script, each operation at its best time.
  const double round_ns = Mean(per_insert) * kInserts +
                          Mean(per_delete) * kDeletes +
                          Mean(per_query) * kQueries;
  report.E2e("setup_s", setup_s, "s");
  report.E2e("query_qps", 1e9 / Mean(per_query), "1/s");
  report.E2e("query_p50_us", Quantile(per_query, 0.50) * 1e-3, "us");
  report.E2e("query_p99_us", Quantile(per_query, 0.99) * 1e-3, "us");
  report.E2e("ops_per_s",
             static_cast<double>(script.ops.size()) * 1e9 / round_ns, "1/s");
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  if (!config.trace) return report;

  const std::unique_ptr<sapla::Reducer> reducer =
      sapla::MakeReducer(sapla::Method::kSapla);
  std::vector<double> reduce_us;
  for (const std::vector<double>& series : script.series) {
    const auto t0 = Clock::now();
    sapla::RepresentationStore store;
    reducer->ReduceInto(series, kM, &store);
    reduce_us.push_back(Nanos(t0, Clock::now()) * 1e-3);
  }
  report.Layer("insert_per_s", 1e9 / Mean(per_insert), "1/s");
  report.Layer("recover_s", *std::min_element(recover_s.begin(), recover_s.end()),
               "s");
  report.Layer("util.parallel.cpu_per_wall", cpu_s / wall_s, "ratio");
  report.Layer("reduction.resident_bytes", Mean(resident_bytes), "B");
  report.Layer("core.reduce_us", Mean(reduce_us), "us");
  report.Layer("ingest.insert_us_p50", Median(plain_insert_us), "us");
  report.Layer("ingest.seal_ms", Mean(seal_ms), "ms");
  report.Layer("ingest.compact_ms", Mean(compact_ms), "ms");
  report.Layer("ingest.compactions", Mean(compactions), "count");
  report.Layer("ingest.series_rebuilt_per_insert", Mean(rebuilt_per_insert),
               "count");
  report.Layer("ingest.wal_bytes_per_mutation", Mean(wal_per_mutation), "B");
  report.Layer("ingest.parts_per_query", Mean(parts_per_query), "count");
  report.Layer("ingest.replayed_records", Mean(replayed), "count");
  return report;
}

}  // namespace perfbench
