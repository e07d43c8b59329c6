#ifndef SAPLA_SERVE_SERVICE_H_
#define SAPLA_SERVE_SERVICE_H_

// Embedded query-serving subsystem.
//
// QueryService turns a stream of independent kNN / range requests from any
// number of client threads into efficient micro-batched work on top of a
// SearchIndex (a single SimilarityIndex or a sharded tier,
// search/sharded_index.h), and owns the whole request lifecycle:
//
//   admission   A bounded MPMC queue (util/bounded_queue.h). When it is
//               full the request is rejected immediately with kOverloaded —
//               explicit backpressure, never unbounded growth. With a
//               memory budget the queue also charges each request's payload
//               bytes and rejects at the hard watermark; with
//               admission_target_delay_us set, queueing delay sheds
//               low-priority requests before the queue fills (adaptive
//               admission control, docs/ROBUSTNESS.md).
//   batching    A dedicated scheduler thread coalesces queued requests and
//               flushes a micro-batch when either `max_batch` requests are
//               pending or the oldest has waited `max_delay_us`. Each flush
//               groups requests by (op, k | radius) and runs one
//               SearchBatch call on the global pool, so
//               answers are bit-identical to per-request serial execution
//               (the contract tests/serve_test.cc enforces).
//   deadlines   A request past its deadline is dropped cooperatively — at
//               flush start, or by the batch path's cancellation hook right
//               before it would execute — and resolves to kDeadlineExceeded
//               instead of stalling the queue. With `degraded_answers` it
//               still carries an approximate answer computed from the
//               reduced-representation lower bounds only (approximate=true,
//               no raw series touched).
//   caching     A sharded LRU result cache (serve/result_cache.h) answers
//               repeated queries at admission time; exact results only,
//               explicitly invalidated via InvalidateCache() on rebuild.
//   metrics     Queue depth, batch sizes, cache hits, deadline misses,
//               per-stage latency and aggregated per-query search counters,
//               exported through obs/metrics.h (Prometheus text or JSON).
//   health      A three-state degradation ladder (docs/ROBUSTNESS.md):
//               healthy  -> exact answers through the batching pipeline;
//               degraded -> admission answers inline from the reduced
//                           representations only (OK + approximate=true,
//                           never touching the stalled scheduler);
//               unhealthy-> explicit kUnavailable.
//               Health is driven by two signals: a watchdog thread that
//               detects a stalled scheduler (stale heartbeat while work is
//               queued) and a consecutive-flush-failure streak. Both
//               recover automatically when the signal clears. Cache hits
//               are exact and served in every state.
//
// Thread-safety: every public method may be called concurrently from any
// thread. The index must outlive the service. A plain SimilarityIndex must
// also stay immutable while the service runs (rebuild => destroy the
// service, rebuild, recreate — and InvalidateCache() if the old cache
// object is reused). A ShardedIndex may swap shard generations live: the
// cache key captures corpus_id() immediately before a batch executes, and
// the execution pins generations at least that new, so a result can never
// be cached under a corpus id newer than the data that produced it — a
// swap strands old entries under the old id (dead, never served) instead
// of ever serving a stale mix.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/explain.h"
#include "obs/metrics.h"
#include "search/search_index.h"
#include "serve/result_cache.h"
#include "util/bounded_queue.h"
#include "util/resource_budget.h"
#include "util/status.h"

namespace sapla {

/// \brief Position on the degradation ladder (ordered: higher is worse).
enum class ServeHealth : int {
  kHealthy = 0,    ///< exact answers through the batching pipeline
  kDegraded = 1,   ///< inline lower-bound-only answers (approximate=true)
  kUnhealthy = 2,  ///< requests rejected with kUnavailable
};

/// "healthy" / "degraded" / "unhealthy".
const char* ServeHealthName(ServeHealth health);

/// \brief Request priority for adaptive admission control (ordered: higher
/// sheds later). With ServeOptions::admission_target_delay_us set, kLow
/// requests shed once the oldest queued request has waited past the target,
/// kNormal past twice the target, and kHigh never sheds early (it still
/// gets kOverloaded when the queue itself is full).
enum class ServePriority : int { kLow = 0, kNormal = 1, kHigh = 2 };

/// \brief Tuning knobs for one QueryService.
struct ServeOptions {
  /// Admission-queue capacity; a full queue rejects with kOverloaded.
  size_t queue_capacity = 1024;
  /// Flush a micro-batch once this many requests are pending...
  size_t max_batch = 32;
  /// ...or once the oldest pending request has waited this long (µs).
  uint64_t max_delay_us = 200;
  /// Fan-out of one flushed batch (0 = global default, util/parallel.h).
  size_t num_threads = 0;
  /// Result-cache entry budget (0 disables caching).
  size_t cache_capacity = 0;
  /// Result-cache shard count.
  size_t cache_shards = 8;
  /// Deadline applied to requests that do not set one (µs from admission;
  /// 0 = no deadline).
  uint64_t default_deadline_us = 0;
  /// Answer deadline-exceeded requests with a lower-bound-only approximate
  /// result instead of an empty one.
  bool degraded_answers = false;
  /// Watchdog poll period (µs); 0 disables the watchdog thread entirely
  /// (health is then driven by flush failures alone).
  uint64_t watchdog_interval_us = 0;
  /// Scheduler-heartbeat staleness, with work queued, that flips health to
  /// degraded. Must comfortably exceed `max_delay_us` plus a typical flush,
  /// or a busy-but-healthy scheduler gets flagged.
  uint64_t stall_degraded_us = 100'000;
  /// Staleness that flips health to unhealthy.
  uint64_t stall_unhealthy_us = 1'000'000;
  /// Consecutive flush failures that flip health to degraded (0 = never).
  uint64_t flush_failures_degraded = 3;
  /// Consecutive flush failures that flip health to unhealthy (0 = never).
  uint64_t flush_failures_unhealthy = 10;

  // ---- Observability (docs/OBSERVABILITY.md).

  /// Tail-sampled slow-query log: a request whose total latency reaches
  /// this (µs) dumps a structured explain record into slow_query_log().
  /// 0 disables the latency trigger.
  uint64_t slow_query_us = 0;
  /// Work-based trigger: a request whose lower-bound evaluation count
  /// reaches this is logged even when it was fast (it burned corpus scans
  /// the latency histogram hides under parallelism). 0 disables.
  uint64_t slow_query_lb_evals = 0;
  /// Retained slow-query records (oldest evicted beyond this).
  size_t slow_log_capacity = 128;
  /// With tracing enabled (obs::SetTraceEnabled), mint a trace context for
  /// every Nth admitted request that arrives without one; 1 samples every
  /// request, 0 never mints (only propagates caller-supplied contexts).
  uint64_t trace_sample_every = 1;
  /// Sliding window for the live tail-latency gauges
  /// (window_total_us / window_exec_us in obs/metrics.h).
  uint64_t window_us = 60'000'000;

  // ---- Resource governance (docs/ROBUSTNESS.md).

  /// Memory budget this service charges its result cache and queued
  /// request payloads against (util/resource_budget.h). The service makes
  /// its own attribution children ("serve/cache", "serve/queue") under
  /// this node, so pass the process root (or a shared serving budget) and
  /// the exposition shows who holds what. Pressure on the budget drives a
  /// graded response at admission: soft -> the cache is shrunk to half
  /// once per pressure episode; hard -> reads degrade to inline
  /// lower-bound answers (approximate=true) until pressure lifts.
  /// nullptr disables governance.
  std::shared_ptr<ResourceBudget> memory_budget;
  /// Adaptive admission control: target queueing delay (µs). When the
  /// oldest queued request has waited longer, new kLow requests shed with
  /// kOverloaded; past twice the target kNormal sheds too. kHigh never
  /// sheds early. 0 disables delay-based shedding.
  uint64_t admission_target_delay_us = 0;
};

/// \brief One request's outcome.
struct ServeResponse {
  /// OK, Overloaded, DeadlineExceeded, Unavailable or InvalidArgument.
  Status status;
  /// The answer; empty on rejection unless `approximate` is set.
  KnnResult result;
  /// The result was computed from lower bounds only (degraded answer).
  bool approximate = false;
  /// The result came from the cache (no execution, no queueing).
  bool cache_hit = false;
  /// Admission -> start of the flush that handled the request (µs).
  uint64_t queue_us = 0;
  /// Admission -> response resolution (µs).
  uint64_t total_us = 0;
  /// Trace id the request ran under (0 when unsampled): joins this
  /// response to its span tree in a Chrome trace export and to its
  /// slow-query record.
  uint64_t trace_id = 0;
};

/// \brief Thread-safe micro-batching query service over one index.
class QueryService {
 public:
  /// The index must be built and must outlive the service. Accepts any
  /// SearchIndex — a standalone SimilarityIndex or a ShardedIndex.
  explicit QueryService(const SearchIndex& index,
                        const ServeOptions& options = {});

  /// Stops the service (drains the queue) before destruction.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Asynchronous k-NN. `deadline_us` counts from admission; 0 uses the
  /// service default (which may be "none"). Rejections (overload, stopped,
  /// bad query length) resolve the future immediately. `priority` only
  /// matters with admission_target_delay_us set (see ServePriority).
  std::future<ServeResponse> SubmitKnn(
      std::vector<double> query, size_t k, uint64_t deadline_us = 0,
      ServePriority priority = ServePriority::kNormal);

  /// Asynchronous range query; same lifecycle as SubmitKnn.
  std::future<ServeResponse> SubmitRange(
      std::vector<double> query, double radius, uint64_t deadline_us = 0,
      ServePriority priority = ServePriority::kNormal);

  /// Blocking conveniences for closed-loop clients.
  ServeResponse Knn(std::vector<double> query, size_t k,
                    uint64_t deadline_us = 0);
  ServeResponse Range(std::vector<double> query, double radius,
                      uint64_t deadline_us = 0);

  /// Drops every cached result (call after rebuilding the index).
  void InvalidateCache();

  /// Current position on the degradation ladder. Wait-free.
  ServeHealth health() const {
    return static_cast<ServeHealth>(health_.load(std::memory_order_relaxed));
  }

  /// Stops admission, drains and executes everything already queued, and
  /// joins the scheduler. Idempotent; later submissions get kUnavailable.
  void Stop();

  /// Live metrics registry (wait-free readers, see obs/metrics.h). The
  /// per-shard health gauges are refreshed on the way out.
  const ServeMetrics& metrics() const {
    RefreshShardGauges();
    return metrics_;
  }

  /// Point-in-time snapshot of every counter and histogram.
  ServeMetricsSnapshot MetricsSnapshot() const {
    RefreshShardGauges();
    return SnapshotMetrics(metrics_);
  }

  /// Tail-sampled slow-query records (see ServeOptions::slow_query_us /
  /// slow_query_lb_evals). Thread-safe.
  const obs::SlowQueryLog& slow_query_log() const { return slow_log_; }

  const ServeOptions& options() const { return options_; }

 private:
  struct Request;

  std::future<ServeResponse> Submit(std::unique_ptr<Request> request);
  void SchedulerLoop();
  void Flush(std::vector<std::unique_ptr<Request>> batch);
  void ResolveExpired(Request* request);
  /// Answers one request inline from the reduced representations only
  /// (degraded path; no scheduler involvement).
  void ResolveDegraded(Request* request);
  /// Tail sampling: renders a slow-query record when the finished request
  /// crossed a configured threshold. `status_name` is the response status
  /// ("ok", "deadline_exceeded", ...); `degraded` marks degradation-path
  /// answers.
  void MaybeLogSlowQuery(const Request& request,
                         const ServeResponse& response,
                         const char* status_name, bool degraded);
  void WatchdogLoop();
  /// Stamps the scheduler heartbeat with "now".
  void Beat();
  /// Re-derives health from the stall level and flush-failure streak.
  void RecomputeHealth();
  /// Copies the index's per-shard health into the metrics gauges (wait-free
  /// atomic stores; metrics_ is mutable so const readers stay current).
  void RefreshShardGauges() const;

  const SearchIndex& index_;
  const ServeOptions options_;

  /// Attribution children under options_.memory_budget (null when
  /// governance is off). Declared before cache_/queue_ so they exist when
  /// those members construct and outlive them at destruction.
  std::shared_ptr<ResourceBudget> cache_budget_;
  std::shared_ptr<ResourceBudget> queue_budget_;
  /// One cache shrink per pressure episode: armed when pressure appears,
  /// reset when it fully lifts.
  std::atomic<bool> shrunk_this_episode_{false};
  /// 1 while the budget is hard-saturated (feeds RecomputeHealth).
  std::atomic<int> pressure_level_{0};

  mutable ServeMetrics metrics_;
  ResultCache cache_;
  obs::SlowQueryLog slow_log_;
  BoundedQueue<std::unique_ptr<Request>> queue_;
  std::atomic<bool> stopped_{false};
  /// Admission counter driving ServeOptions::trace_sample_every.
  std::atomic<uint64_t> admit_seq_{0};

  /// Degradation-ladder state. `heartbeat_us_` is the scheduler's last
  /// sign of life (steady-clock µs); the watchdog compares it against the
  /// stall thresholds whenever work is queued and records the verdict in
  /// `stall_level_`. Flush maintains `flush_fail_streak_`. Health is the
  /// worse of the two signals.
  std::atomic<uint64_t> heartbeat_us_{0};
  std::atomic<int> stall_level_{0};
  std::atomic<uint64_t> flush_fail_streak_{0};
  std::atomic<int> health_{0};
  /// Counts requests seen while not healthy; every eighth one becomes a
  /// canary probe through the normal pipeline so recovery is observable.
  std::atomic<uint64_t> ladder_seq_{0};

  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  std::thread scheduler_;
  std::thread watchdog_;
};

}  // namespace sapla

#endif  // SAPLA_SERVE_SERVICE_H_
