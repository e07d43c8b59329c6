// Workload serve-cold-skewed: skewed k-NN traffic through the whole serving
// path, over a store that does not fit the program's own frame cache.
//
// Set-up builds a 4-shard R-tree ShardedIndex, saves it as quantized v4
// snapshots, and restores it with cold_store: every shard maps its store
// section and decodes 256-series frames into an LRU cache that holds a
// fraction of the decoded store. A QueryService with its result cache on
// and a pool of at most nproc threads fronts it.
//
// One client thread keeps kWindow 8-NN requests in flight. Requests are a
// seeded stream of Zipf(0.99) draws over a pool of perturbed corpus series,
// sent in rounds of kRoundRequests until --seconds have passed. A
// request's latency runs from just before SubmitKnn to the moment the
// client sees its future ready: a cache hit is ready when SubmitKnn
// returns; other requests are polled.
//
// The shards use the R-tree because its answers are exact on every seed,
// so every response is checked against the oracle. (Sharded DBCH forces
// the sound node bound, which is wrong on a seed-dependent handful of
// queries; knn-static measures that fault.)

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "obs/explain.h"
#include "oracle.h"
#include "reduction/representation.h"
#include "reduction/representation_store.h"
#include "search/sharded_index.h"
#include "serve/service.h"
#include "util/parallel.h"

namespace perfbench {
namespace {

constexpr size_t kCorpusSize = 8192;
constexpr size_t kLength = 256;
constexpr size_t kM = 24;
constexpr size_t kK = 8;
constexpr size_t kShards = 4;
constexpr double kQueryNoise = 0.1;
// README ("Parameters") gives the source or measurement behind each value.
constexpr size_t kPoolSize = 2048;       // distinct queries
constexpr double kZipfS = 0.99;
constexpr size_t kCacheEntries = 256;    // result cache: 1/8 of the pool
constexpr double kFrameCacheShare = 0.9; // frame cache / decoded store
constexpr double kQuantStep = 1e-4;      // snapshot a/b quantization step
constexpr size_t kWindow = 16;           // requests in flight
constexpr size_t kRoundRequests = 512;
constexpr size_t kExplainSample = 200;   // traced: KnnExplain calls

struct Pending {
  size_t query = 0;  // pool index
  Clock::time_point start;
  std::future<sapla::ServeResponse> future;
};

}  // namespace

Report RunServeColdSkewed(const RunConfig& config) {
  Report report;
  const size_t threads = WorkerThreads();
  sapla::SetNumThreads(threads);

  // ---- Set-up: corpus, build, quantized v4 snapshots, cold restore.
  const sapla::Dataset corpus = MakeCorpus(config.seed, {kCorpusSize, kLength});
  TempDir dir("serve");
  const std::string prefix = dir.path() + "/index";
  size_t decoded_bytes = 0;
  {
    sapla::ShardedIndex::Options options;
    options.num_shards = kShards;
    sapla::ShardedIndex built(sapla::Method::kSapla, kM,
                              sapla::IndexKind::kRTree, options);
    sapla::Status st = built.Build(corpus);
    if (!st.ok()) throw std::runtime_error("build: " + st.ToString());
    decoded_bytes = built.footprint().resident_bytes;
    sapla::SnapshotWriteOptions write;
    write.codec.ab_step = kQuantStep;
    write.store_format = sapla::StoreFormat::kV4;
    st = built.SaveSnapshots(prefix, write);
    if (!st.ok()) throw std::runtime_error("save: " + st.ToString());
  }
  double snapshot_bytes = 0.0;
  for (size_t s = 0; s < kShards; ++s)
    snapshot_bytes += static_cast<double>(std::filesystem::file_size(
        sapla::ShardedIndex::ShardSnapshotPath(prefix, s)));

  sapla::ShardedIndex::Options options;
  options.num_shards = kShards;
  sapla::ShardedIndex index(sapla::Method::kSapla, kM, sapla::IndexKind::kRTree,
                            options);
  sapla::SnapshotLoadOptions load;
  load.cold_store = true;
  load.cold_cache_bytes = static_cast<size_t>(
      kFrameCacheShare * static_cast<double>(decoded_bytes) / kShards);
  const auto r0 = Clock::now();
  const sapla::Status restored = index.Restore(corpus, prefix, load);
  const double restore_s = Seconds(r0, Clock::now());
  if (!restored.ok())
    throw std::runtime_error("restore: " + restored.ToString());

  Rng rng(config.seed ^ 0x5E4BEC01DULL);
  std::vector<std::vector<double>> pool;
  for (size_t i = 0; i < kPoolSize; ++i)
    pool.push_back(Perturb(corpus.series[rng.Below(kCorpusSize)].values,
                           kQueryNoise, &rng));
  // Zipf rank r asks pool[rank_to_query[r]]: popularity is unrelated to id.
  std::vector<size_t> rank_to_query(kPoolSize);
  for (size_t i = 0; i < kPoolSize; ++i) rank_to_query[i] = i;
  for (size_t i = kPoolSize; i-- > 1;)
    std::swap(rank_to_query[i], rank_to_query[rng.Below(i + 1)]);
  const Zipf zipf(kPoolSize, kZipfS);

  sapla::ServeOptions serve_options;
  serve_options.cache_capacity = kCacheEntries;
  serve_options.num_threads = threads;
  sapla::QueryService service(index, serve_options);
  const double setup_s = Seconds(ProcessStart(), Clock::now());
  fprintf(stderr,
          "serve-cold-skewed: set-up %.3f s (restore %.3f s), decoded store "
          "%zu B, frame cache %zu B per shard\n",
          setup_s, restore_s, decoded_bytes, load.cold_cache_bytes);

  // ---- Timed rounds.
  std::vector<double> latency_ns;
  std::vector<double> miss_queue_us, miss_exec_us;
  std::vector<sapla::KnnResult> answer(kPoolSize);
  std::vector<bool> answered(kPoolSize, false);
  std::vector<double> round_qps;
  size_t completed = 0, rounds = 0;
  std::deque<Pending> window;

  const auto finish = [&](Pending& p) {
    const sapla::ServeResponse r = p.future.get();
    latency_ns.push_back(Nanos(p.start, Clock::now()));
    ++completed;
    if (!r.status.ok()) {
      report.Incorrect("request failed: " + r.status.ToString());
      return;
    }
    if (!r.cache_hit) {
      miss_queue_us.push_back(static_cast<double>(r.queue_us));
      miss_exec_us.push_back(static_cast<double>(r.total_us - r.queue_us));
    }
    if (r.approximate || r.result.approximate)
      report.Incorrect("response labelled approximate");
    if (!answered[p.query]) {
      answer[p.query] = r.result;
      answered[p.query] = true;
    } else if (r.result.neighbors != answer[p.query].neighbors) {
      report.Incorrect("two responses to one query differ");
    }
  };
  // Collects one finished request: the first ready one in the window, else
  // the oldest once it is ready (polled every millisecond: misses take
  // hundreds of them, and a tighter poll would steal a core from the pool).
  const auto collect_one = [&] {
    for (;;) {
      for (auto it = window.begin(); it != window.end(); ++it) {
        if (it->future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          finish(*it);
          window.erase(it);
          return;
        }
      }
      window.front().future.wait_for(std::chrono::milliseconds(1));
    }
  };

  const sapla::StoreFootprint fp0 = index.footprint();
  const double cpu0 = ProcessCpuSeconds();
  const auto start = Clock::now();
  auto round_start = start;
  do {
    for (size_t i = 0; i < kRoundRequests; ++i) {
      const size_t q = rank_to_query[zipf.Sample(&rng)];
      while (window.size() >= kWindow) collect_one();
      Pending p;
      p.query = q;
      p.start = Clock::now();
      p.future = service.SubmitKnn(pool[q], kK);
      if (p.future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        finish(p);  // a cache hit resolves inside SubmitKnn
      } else {
        window.push_back(std::move(p));
      }
    }
    ++rounds;
    // A round lasts from its first submission to the next round's: the
    // window is never drained in between, so every round sees the same
    // steady pipeline (the last one includes the final drain).
    if (Seconds(start, Clock::now()) >= config.seconds)
      while (!window.empty()) collect_one();
    const auto now = Clock::now();
    round_qps.push_back(static_cast<double>(kRoundRequests) /
                        Seconds(round_start, now));
    round_start = now;
  } while (Seconds(start, Clock::now()) < config.seconds);
  const double wall_s = Seconds(start, Clock::now());
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const sapla::StoreFootprint fp1 = index.footprint();
  const sapla::ServeMetricsSnapshot metrics = service.MetricsSnapshot();
  service.Stop();
  fprintf(stderr, "serve-cold-skewed: %zu rounds, %zu requests in %.2f s; q/s by round:",
          rounds, completed, wall_s);
  for (const double q : round_qps) fprintf(stderr, " %.1f", q);
  fprintf(stderr, "\n");

  // ---- Checks: every distinct answer against the oracle.
  std::vector<std::vector<double>> asked;
  std::vector<size_t> asked_ids;
  for (size_t q = 0; q < kPoolSize; ++q)
    if (answered[q]) {
      asked.push_back(pool[q]);
      asked_ids.push_back(q);
    }
  const std::vector<Answer> truth =
      OracleKnnAll(CandidatesOf(corpus), asked, kK);
  for (size_t i = 0; i < asked.size(); ++i) {
    const std::string diff =
        CompareAnswer(answer[asked_ids[i]].neighbors, truth[i], [&](size_t id) {
          return OracleDistance(asked[i], corpus.series[id].values);
        });
    if (!diff.empty())
      report.Incorrect("query " + std::to_string(asked_ids[i]) + ": " + diff);
  }
  report.attempted = completed;
  report.failed = 0;

  report.E2e("setup_s", setup_s, "s");
  report.E2e("query_qps", Median(round_qps), "1/s");
  report.E2e("query_p50_us", Quantile(latency_ns, 0.50) * 1e-3, "us");
  report.E2e("query_p99_us", Quantile(latency_ns, 0.99) * 1e-3, "us");
  // Every operation here is a query.
  report.E2e("ops_per_s", Median(round_qps), "1/s");
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  if (!config.trace) return report;

  // ---- Traced figures.
  const std::unique_ptr<sapla::Reducer> reducer =
      sapla::MakeReducer(sapla::Method::kSapla);
  std::vector<double> reduce_us, scatter_us, merge_us;
  for (size_t i = 0; i < kExplainSample; ++i) {
    const auto t0 = Clock::now();
    sapla::RepresentationStore store;
    reducer->ReduceInto(pool[i], kM, &store);
    reduce_us.push_back(Nanos(t0, Clock::now()) * 1e-3);
    sapla::obs::QueryExplain explain;
    const sapla::KnnResult r = index.KnnExplain(pool[i], kK, &explain);
    if (answered[i] && r.neighbors != answer[i].neighbors)
      report.Incorrect("KnnExplain disagrees with the served answer");
    for (const sapla::obs::StageExplain& stage : explain.stages) {
      if (stage.stage == "scatter") scatter_us.push_back(static_cast<double>(stage.dur_us));
      if (stage.stage == "merge") merge_us.push_back(static_cast<double>(stage.dur_us));
    }
  }
  const double executed = static_cast<double>(metrics.cache_misses);
  const double hits = static_cast<double>(fp1.frame_hits - fp0.frame_hits);
  const double misses = static_cast<double>(fp1.frame_misses - fp0.frame_misses);
  report.Layer("snapshot_bytes_per_series",
               snapshot_bytes / static_cast<double>(kCorpusSize), "B");
  report.Layer("core.reduce_us", Mean(reduce_us), "us");
  report.Layer("search.scatter_us", Mean(scatter_us), "us");
  report.Layer("search.merge_us", Mean(merge_us), "us");
  report.Layer("search.restore_s", restore_s, "s");
  report.Layer("serve.cache_hit_ratio", metrics.CacheHitRate(), "ratio");
  report.Layer("serve.queue_us_p50", Median(miss_queue_us), "us");
  report.Layer("serve.exec_us_p50", Median(miss_exec_us), "us");
  report.Layer("serve.mean_batch", metrics.batch_size.mean, "count");
  report.Layer("util.parallel.cpu_per_wall", cpu_s / wall_s, "ratio");
  report.Layer("reduction.frame_misses_per_query", misses / executed, "count");
  report.Layer("reduction.frame_hit_ratio", hits / (hits + misses), "ratio");
  report.Layer("reduction.resident_bytes",
               static_cast<double>(fp1.resident_bytes), "B");
  return report;
}

}  // namespace perfbench
