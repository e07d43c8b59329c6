#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <tuple>
#include <utility>

#include "obs/trace.h"
#include "util/fault.h"

namespace sapla {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedUs(Clock::time_point from, Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* ServeHealthName(ServeHealth health) {
  switch (health) {
    case ServeHealth::kHealthy:
      return "healthy";
    case ServeHealth::kDegraded:
      return "degraded";
    case ServeHealth::kUnhealthy:
      return "unhealthy";
  }
  return "unknown";
}

/// One in-flight request. Owned by the queue / scheduler; the client holds
/// only the future.
struct QueryService::Request {
  ServeOp op = ServeOp::kKnn;
  std::vector<double> query;
  size_t k = 0;
  double radius = 0.0;
  /// What the index is asked: (op, k, radius) as a QuerySpec.
  QuerySpec Spec(bool lower_bound = false) const {
    return op == ServeOp::kKnn ? QuerySpec::Knn(k, lower_bound)
                               : QuerySpec::Range(radius, lower_bound);
  }
  ServePriority priority = ServePriority::kNormal;

  Clock::time_point admitted;
  Clock::time_point deadline;
  bool has_deadline = false;

  /// Admission -> flush-start wait, filled in by Flush for the response.
  uint64_t queue_us = 0;

  /// Set by the batch path's cancellation hook (pool workers) when the
  /// deadline passes after grouping but before execution.
  std::atomic<bool> expired_mid_batch{false};

  /// Request-scoped trace context, fixed at admission (adopted from the
  /// caller or minted per ServeOptions::trace_sample_every). The batch
  /// worker that executes this request re-installs it, so every span the
  /// request touches — on the client thread, the scheduler, or a pool
  /// worker — carries one trace id.
  obs::TraceContext trace;
  /// Fill `explain` during execution (set when slow-query logging is on —
  /// tail sampling can only decide after the fact, so the breakdown must
  /// be collected up front).
  bool want_explain = false;
  obs::QueryExplain explain;

  std::promise<ServeResponse> promise;

  bool DeadlinePassed(Clock::time_point now) const {
    return has_deadline && now >= deadline;
  }
};

QueryService::QueryService(const SearchIndex& index,
                           const ServeOptions& options)
    : index_(index),
      options_(options),
      cache_budget_(options.memory_budget
                        ? ResourceBudget::MakeChild(options.memory_budget,
                                                    "serve/cache")
                        : nullptr),
      queue_budget_(options.memory_budget
                        ? ResourceBudget::MakeChild(options.memory_budget,
                                                    "serve/queue")
                        : nullptr),
      cache_(options.cache_capacity, options.cache_shards, cache_budget_),
      slow_log_(options.slow_log_capacity),
      queue_(options.queue_capacity, queue_budget_) {
  metrics_.window_total_us.Configure(options_.window_us);
  metrics_.window_exec_us.Configure(options_.window_us);
  heartbeat_us_.store(NowUs());
  RefreshShardGauges();
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  if (options_.watchdog_interval_us > 0)
    watchdog_ = std::thread([this] { WatchdogLoop(); });
}

QueryService::~QueryService() { Stop(); }

void QueryService::Stop() {
  stopped_.store(true);
  queue_.Close();
  if (scheduler_.joinable()) scheduler_.join();
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void QueryService::Beat() {
  heartbeat_us_.store(NowUs(), std::memory_order_relaxed);
}

void QueryService::RecomputeHealth() {
  const uint64_t streak = flush_fail_streak_.load(std::memory_order_relaxed);
  int flush_level = 0;
  if (options_.flush_failures_unhealthy != 0 &&
      streak >= options_.flush_failures_unhealthy)
    flush_level = 2;
  else if (options_.flush_failures_degraded != 0 &&
           streak >= options_.flush_failures_degraded)
    flush_level = 1;
  const int level = std::max(
      {flush_level, stall_level_.load(std::memory_order_relaxed),
       pressure_level_.load(std::memory_order_relaxed)});
  health_.store(level, std::memory_order_relaxed);
  metrics_.health.store(static_cast<uint64_t>(level),
                        std::memory_order_relaxed);
}

void QueryService::RefreshShardGauges() const {
  const size_t shards =
      std::min<size_t>(index_.num_shards(), ServeMetrics::kMaxShardGauges);
  metrics_.shard_count.store(shards, std::memory_order_relaxed);
  for (size_t s = 0; s < shards; ++s)
    metrics_.shard_health[s].store(
        static_cast<uint64_t>(index_.shard_health(s)),
        std::memory_order_relaxed);
  const StoreFootprint fp = index_.footprint();
  metrics_.store_resident_bytes.store(fp.resident_bytes,
                                      std::memory_order_relaxed);
  metrics_.store_mapped_bytes.store(fp.mapped_bytes,
                                    std::memory_order_relaxed);
  metrics_.store_frame_hits.store(fp.frame_hits, std::memory_order_relaxed);
  metrics_.store_frame_misses.store(fp.frame_misses,
                                    std::memory_order_relaxed);
}

void QueryService::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(
        lock, std::chrono::microseconds(options_.watchdog_interval_us));
    if (watchdog_stop_) break;
    RefreshShardGauges();
    // A stalled scheduler = work is waiting but the heartbeat is stale.
    // An idle scheduler (empty queue) is blocked in PopBatch by design and
    // never counts as stalled.
    const uint64_t beat = heartbeat_us_.load(std::memory_order_relaxed);
    const uint64_t now = NowUs();
    const uint64_t stale_us = now > beat ? now - beat : 0;
    int level = 0;
    if (queue_.size() > 0) {
      if (stale_us >= options_.stall_unhealthy_us)
        level = 2;
      else if (stale_us >= options_.stall_degraded_us)
        level = 1;
    }
    if (level > stall_level_.load(std::memory_order_relaxed))
      metrics_.watchdog_stalls.fetch_add(1);
    stall_level_.store(level, std::memory_order_relaxed);
    RecomputeHealth();
  }
}

void QueryService::InvalidateCache() { cache_.Invalidate(); }

std::future<ServeResponse> QueryService::SubmitKnn(std::vector<double> query,
                                                   size_t k,
                                                   uint64_t deadline_us,
                                                   ServePriority priority) {
  auto request = std::make_unique<Request>();
  request->op = ServeOp::kKnn;
  request->query = std::move(query);
  request->k = k;
  request->priority = priority;
  if (deadline_us == 0) deadline_us = options_.default_deadline_us;
  if (deadline_us != 0) {
    request->has_deadline = true;
    request->deadline =
        Clock::now() + std::chrono::microseconds(deadline_us);
  }
  return Submit(std::move(request));
}

std::future<ServeResponse> QueryService::SubmitRange(std::vector<double> query,
                                                     double radius,
                                                     uint64_t deadline_us,
                                                     ServePriority priority) {
  auto request = std::make_unique<Request>();
  request->op = ServeOp::kRange;
  request->query = std::move(query);
  request->radius = radius;
  request->priority = priority;
  if (deadline_us == 0) deadline_us = options_.default_deadline_us;
  if (deadline_us != 0) {
    request->has_deadline = true;
    request->deadline =
        Clock::now() + std::chrono::microseconds(deadline_us);
  }
  return Submit(std::move(request));
}

ServeResponse QueryService::Knn(std::vector<double> query, size_t k,
                                uint64_t deadline_us) {
  return SubmitKnn(std::move(query), k, deadline_us).get();
}

ServeResponse QueryService::Range(std::vector<double> query, double radius,
                                  uint64_t deadline_us) {
  return SubmitRange(std::move(query), radius, deadline_us).get();
}

std::future<ServeResponse> QueryService::Submit(
    std::unique_ptr<Request> request) {
  request->admitted = Clock::now();
  std::future<ServeResponse> future = request->promise.get_future();

  const auto reject = [&](Status status) {
    ServeResponse response;
    response.status = std::move(status);
    request->promise.set_value(std::move(response));
    return std::move(future);
  };

  if (stopped_.load()) {
    metrics_.rejected_shutdown.fetch_add(1);
    return reject(Status::Unavailable("query service is stopped"));
  }
  if (request->query.size() != index_.series_length()) {
    return reject(Status::InvalidArgument(
        "query length " + std::to_string(request->query.size()) +
        " != indexed series length " +
        std::to_string(index_.series_length())));
  }

  // Trace-context admission: adopt the caller's sampled context (a retry
  // layer or an upstream span), otherwise mint one per trace_sample_every.
  // Flags (retry/hedge attribution) survive either way — they ride along
  // even when tracing is off so slow-query records can still mark hedged
  // duplicates. With tracing disabled this whole block is one relaxed
  // atomic load (TraceEnabled) past the thread-local read.
  request->trace = obs::CurrentTraceContext();
  if (!request->trace.sampled && obs::TraceEnabled() &&
      options_.trace_sample_every != 0 &&
      admit_seq_.fetch_add(1, std::memory_order_relaxed) %
              options_.trace_sample_every ==
          0) {
    const uint64_t flags = request->trace.flags;
    request->trace = obs::MintTraceContext();
    request->trace.flags = flags;
  }
  // The admit span roots the request's tree: everything below — cache
  // lookup here, batch/query on a pool worker, per-shard search — becomes
  // its descendant. Re-read the context afterwards so the admit span's id
  // is the parent the batch workers stitch to.
  obs::TraceContextScope admit_scope(request->trace);
  SAPLA_TRACE_SPAN("serve/admit");
  request->trace = obs::CurrentTraceContext();
  request->want_explain =
      options_.slow_query_us != 0 || options_.slow_query_lb_evals != 0;

  // Cache lookup at admission: hits bypass the queue entirely, so repeated
  // queries cost neither capacity nor batching delay.
  if (cache_.capacity() > 0) {
    ResultCacheKey key;
    key.op = request->op;
    key.k = request->k;
    key.radius = request->radius;
    key.method = index_.method();
    key.kind = index_.kind();
    key.corpus_id = index_.corpus_id();
    key.query = request->query;
    KnnResult cached;
    if (cache_.Lookup(key, &cached)) {
      metrics_.cache_hits.fetch_add(1);
      ServeResponse response;
      response.status = Status::OK();
      response.result = std::move(cached);
      response.cache_hit = true;
      response.trace_id = request->trace.trace_id;
      response.total_us = ElapsedUs(request->admitted, Clock::now());
      metrics_.total_us.Record(response.total_us);
      metrics_.window_total_us.Record(response.total_us);
      metrics_.completed_ok.fetch_add(1);
      MaybeLogSlowQuery(*request, response, "ok", /*degraded=*/false);
      request->promise.set_value(std::move(response));
      return future;
    }
    metrics_.cache_misses.fetch_add(1);
  }

  // Memory-budget pressure (docs/ROBUSTNESS.md): the graded response runs
  // at admission so it reacts within one request of the budget moving.
  // Soft pressure sheds the most reclaimable bytes first — half the result
  // cache, once per episode (re-armed only after pressure fully lifts, so
  // a budget hovering at the watermark cannot thrash the cache). Hard
  // pressure raises pressure_level_, which RecomputeHealth folds into the
  // ladder: reads degrade to inline lower-bound answers until the budget
  // drains, and recovery is automatic because this block re-reads the
  // budget on every submission.
  if (options_.memory_budget != nullptr) {
    const BudgetPressure pressure = options_.memory_budget->pressure_up();
    if (pressure != BudgetPressure::kNone) {
      if (!shrunk_this_episode_.exchange(true)) {
        cache_.Shrink(0.5);
        metrics_.budget_cache_shrinks.fetch_add(1);
      }
    } else {
      shrunk_this_episode_.store(false);
    }
    const int pressure_level = pressure == BudgetPressure::kHard ? 1 : 0;
    if (pressure_level !=
        pressure_level_.exchange(pressure_level, std::memory_order_relaxed))
      RecomputeHealth();
  }

  // Degradation ladder (docs/ROBUSTNESS.md). Checked after the cache —
  // cached answers are exact and involve no scheduler, so they are served
  // in every state. One request in kCanaryEvery still takes the normal
  // pipeline as a canary probe: a flush-failure-driven degradation can only
  // observe recovery through a flush that succeeds, and without probes a
  // degraded service would divert all traffic and stay degraded forever.
  constexpr uint64_t kCanaryEvery = 8;
  switch (health()) {
    case ServeHealth::kHealthy:
      break;
    case ServeHealth::kDegraded: {
      if (ladder_seq_.fetch_add(1) % kCanaryEvery != 0) {
        if (pressure_level_.load(std::memory_order_relaxed) != 0)
          metrics_.budget_degraded.fetch_add(1);
        ResolveDegraded(request.get());
        return future;
      }
      break;  // canary: through the pipeline
    }
    case ServeHealth::kUnhealthy: {
      if (ladder_seq_.fetch_add(1) % kCanaryEvery != 0) {
        metrics_.rejected_unhealthy.fetch_add(1);
        return reject(Status::Unavailable(
            "query service unhealthy (scheduler stalled or flushes "
            "failing); retry later"));
      }
      break;  // canary: through the pipeline
    }
  }

  // Adaptive admission control: queueing delay is the overload signal —
  // it rises well before the queue fills, so shedding on it keeps latency
  // bounded instead of letting every admitted request inherit the backlog.
  if (options_.admission_target_delay_us != 0 &&
      request->priority != ServePriority::kHigh) {
    const uint64_t limit = request->priority == ServePriority::kLow
                               ? options_.admission_target_delay_us
                               : 2 * options_.admission_target_delay_us;
    const uint64_t oldest_wait_us = queue_.OldestWaitUs();
    if (oldest_wait_us > limit) {
      metrics_.shed_early.fetch_add(1);
      return reject(Status::Overloaded(
          "shedding " +
          std::string(request->priority == ServePriority::kLow ? "low"
                                                               : "normal") +
          "-priority request: oldest queued request has waited " +
          std::to_string(oldest_wait_us) + "us (target " +
          std::to_string(options_.admission_target_delay_us) +
          "us); retry later"));
    }
  }

  // A failed TryPush does not consume the request, so the promise can
  // still be resolved here. The queue charges the payload against the
  // memory budget and refuses at the hard watermark, so a saturated
  // budget reads as ordinary overload to the client.
  const size_t request_bytes =
      request->query.size() * sizeof(double) + sizeof(Request) + 64;
  if (!queue_.TryPush(std::move(request), request_bytes)) {
    if (queue_.closed()) {
      metrics_.rejected_shutdown.fetch_add(1);
      return reject(Status::Unavailable("query service is stopped"));
    }
    metrics_.rejected_overloaded.fetch_add(1);
    return reject(Status::Overloaded(
        "admission queue full (" + std::to_string(queue_.capacity()) +
        " pending) or serve memory budget exhausted; retry later"));
  }
  metrics_.admitted.fetch_add(1);
  metrics_.queue_depth.Record(queue_.size());
  return future;
}

void QueryService::SchedulerLoop() {
  for (;;) {
    Beat();
    std::vector<std::unique_ptr<Request>> batch = queue_.PopBatch(
        options_.max_batch, std::chrono::microseconds(options_.max_delay_us));
    Beat();
    if (batch.empty()) return;  // closed and drained
    Flush(std::move(batch));
    Beat();
  }
}

void QueryService::ResolveDegraded(Request* request) {
  // Lower-bound-only answer from the reduced representations: cheap,
  // deterministic, and independent of the (possibly stalled) scheduler.
  obs::TraceContextScope trace_scope(request->trace);
  SAPLA_TRACE_SPAN("serve/degraded");
  ServeResponse response;
  response.status = Status::OK();
  response.result = index_.Search(request->query,
                                  request->Spec(/*lower_bound=*/true), nullptr);
  response.approximate = true;
  metrics_.degraded_served.fetch_add(1);
  metrics_.search.Add(response.result.counters, index_.dataset_size());
  response.trace_id = request->trace.trace_id;
  response.total_us = ElapsedUs(request->admitted, Clock::now());
  metrics_.total_us.Record(response.total_us);
  metrics_.window_total_us.Record(response.total_us);
  metrics_.completed_ok.fetch_add(1);
  MaybeLogSlowQuery(*request, response, "ok", /*degraded=*/true);
  request->promise.set_value(std::move(response));
}

void QueryService::ResolveExpired(Request* request) {
  metrics_.deadline_exceeded.fetch_add(1);
  obs::TraceContextScope trace_scope(request->trace);
  SAPLA_TRACE_SPAN("serve/expired");
  ServeResponse response;
  response.status = Status::DeadlineExceeded("deadline passed before the "
                                             "request could be executed");
  response.queue_us = request->queue_us;
  if (options_.degraded_answers) {
    response.result = index_.Search(
        request->query, request->Spec(/*lower_bound=*/true), nullptr);
    response.approximate = true;
    metrics_.degraded.fetch_add(1);
    metrics_.search.Add(response.result.counters, index_.dataset_size());
  }
  response.trace_id = request->trace.trace_id;
  response.total_us = ElapsedUs(request->admitted, Clock::now());
  metrics_.total_us.Record(response.total_us);
  metrics_.window_total_us.Record(response.total_us);
  MaybeLogSlowQuery(*request, response, "deadline_exceeded",
                    /*degraded=*/response.approximate);
  request->promise.set_value(std::move(response));
}

void QueryService::Flush(std::vector<std::unique_ptr<Request>> batch) {
  SAPLA_TRACE_SPAN("serve/flush");
  // Fault point "serve/flush_stall": latency-only, freezes the scheduler
  // mid-flush so the watchdog's stall detection can be exercised.
  SAPLA_FAULT_DELAY("serve/flush_stall");
  const Clock::time_point flush_start = Clock::now();
  metrics_.batches_flushed.fetch_add(1);
  metrics_.batch_size.Record(batch.size());
  // Capture the corpus identity BEFORE any batch executes. A live shard
  // swap between execution and cache insert would otherwise let a result
  // computed from the old generation be cached under the new corpus id.
  // With the id captured first, execution pins generations at least as new
  // as the captured id, so a racing swap can only strand the entry under
  // the superseded id — a dead cache line, never a stale answer.
  const uint64_t corpus_id_at_flush = index_.corpus_id();

  // Fault point "serve/flush": the whole batch fails as one unit, the way
  // a real backend outage would fail it. Every request resolves with
  // kUnavailable; the consecutive-failure streak drives the health ladder.
  if (SAPLA_FAULT_HIT("serve/flush")) {
    metrics_.flush_failures.fetch_add(1);
    flush_fail_streak_.fetch_add(1);
    RecomputeHealth();
    for (auto& request : batch) {
      ServeResponse response;
      response.status =
          Status::Unavailable("batch flush failed; retry later");
      response.queue_us = ElapsedUs(request->admitted, flush_start);
      response.total_us = ElapsedUs(request->admitted, Clock::now());
      metrics_.total_us.Record(response.total_us);
      metrics_.window_total_us.Record(response.total_us);
      request->promise.set_value(std::move(response));
    }
    return;
  }

  // Partition: requests already past their deadline resolve immediately
  // (never stalling the live ones), the rest group by identical operation
  // parameters so each group is one deterministic SearchBatch call.
  // Group key: op + the exact parameter bits (map is fine — batches are
  // small and kNN radii are not involved in ordering subtleties; bitwise
  // radius keys keep distinct NaN payloads distinct).
  std::map<std::tuple<ServeOp, size_t, uint64_t>, std::vector<Request*>>
      groups;
  for (auto& request : batch) {
    request->queue_us = ElapsedUs(request->admitted, flush_start);
    metrics_.queue_wait_us.Record(request->queue_us);
    if (request->DeadlinePassed(flush_start)) {
      ResolveExpired(request.get());
      request.reset();
      continue;
    }
    uint64_t radius_bits = 0;
    static_assert(sizeof(radius_bits) == sizeof(request->radius));
    std::memcpy(&radius_bits, &request->radius, sizeof(radius_bits));
    groups[{request->op, request->k, radius_bits}].push_back(request.get());
  }

  for (auto& [key, group] : groups) {
    std::vector<std::vector<double>> queries;
    queries.reserve(group.size());
    for (const Request* request : group) queries.push_back(request->query);

    SearchBatchOptions batch_options;
    batch_options.num_threads = options_.num_threads;
    batch_options.cancel = [&group](size_t i) {
      Request* request = group[i];
      if (request->DeadlinePassed(Clock::now())) {
        request->expired_mid_batch.store(true);
        return true;
      }
      return false;
    };
    // Stitch each query's execution back to its submitter: the worker
    // installs the request's admission context (not the scheduler's) and
    // fills the explain breakdown for requests that asked for one.
    batch_options.trace_of = [&group](size_t i) { return group[i]->trace; };
    batch_options.explain_of = [&group](size_t i) -> obs::QueryExplain* {
      return group[i]->want_explain ? &group[i]->explain : nullptr;
    };

    const Clock::time_point exec_start = Clock::now();
    std::vector<KnnResult> results;
    try {
      SAPLA_TRACE_SPAN("serve/exec_group");
      results = index_.SearchBatch(queries, group.front()->Spec(),
                                   batch_options);
    } catch (const std::exception& e) {
      // The scheduler thread must survive anything the batch path throws
      // (e.g. bad_alloc under memory pressure): resolve the group
      // explicitly instead of terminating the process.
      metrics_.flush_failures.fetch_add(1);
      flush_fail_streak_.fetch_add(1);
      RecomputeHealth();
      for (Request* request : group) {
        ServeResponse response;
        response.status = Status::Internal(
            std::string("batch execution failed: ") + e.what());
        response.queue_us = request->queue_us;
        response.total_us = ElapsedUs(request->admitted, Clock::now());
        metrics_.total_us.Record(response.total_us);
        metrics_.window_total_us.Record(response.total_us);
        request->promise.set_value(std::move(response));
      }
      continue;
    }
    const uint64_t exec_us = ElapsedUs(exec_start, Clock::now());

    // A batch reached the index and came back: the failure streak is over
    // and any flush-driven degradation lifts. Recompute before resolving
    // the promises so a caller who just received a successful canary
    // answer never reads stale degraded/unhealthy health.
    if (flush_fail_streak_.load(std::memory_order_relaxed) != 0) {
      flush_fail_streak_.store(0, std::memory_order_relaxed);
      RecomputeHealth();
    }

    for (size_t i = 0; i < group.size(); ++i) {
      Request* request = group[i];
      metrics_.exec_us.Record(exec_us);
      metrics_.window_exec_us.Record(exec_us);
      if (request->expired_mid_batch.load()) {
        ResolveExpired(request);
        continue;
      }
      metrics_.search.Add(results[i].counters, index_.dataset_size());
      // Only exact answers are cached (the cache's documented contract):
      // an answer marked approximate (degraded/excluded shard) must not
      // outlive the health condition that produced it.
      if (cache_.capacity() > 0 && !results[i].approximate) {
        ResultCacheKey cache_key;
        cache_key.op = request->op;
        cache_key.k = request->k;
        cache_key.radius = request->radius;
        cache_key.method = index_.method();
        cache_key.kind = index_.kind();
        cache_key.corpus_id = corpus_id_at_flush;
        cache_key.query = request->query;
        cache_.Insert(cache_key, results[i]);
      }
      ServeResponse response;
      response.status = Status::OK();
      response.approximate = results[i].approximate;
      response.result = std::move(results[i]);
      response.queue_us = request->queue_us;
      response.trace_id = request->trace.trace_id;
      response.total_us = ElapsedUs(request->admitted, Clock::now());
      metrics_.total_us.Record(response.total_us);
      metrics_.window_total_us.Record(response.total_us);
      metrics_.completed_ok.fetch_add(1);
      MaybeLogSlowQuery(*request, response, "ok", /*degraded=*/false);
      request->promise.set_value(std::move(response));
    }
  }
}

void QueryService::MaybeLogSlowQuery(const Request& request,
                                     const ServeResponse& response,
                                     const char* status_name, bool degraded) {
  const bool by_time = options_.slow_query_us != 0 &&
                       response.total_us >= options_.slow_query_us;
  const bool by_work =
      options_.slow_query_lb_evals != 0 &&
      response.result.counters.lb_evaluations >= options_.slow_query_lb_evals;
  if (!by_time && !by_work) return;
  obs::SlowQueryRecord record;
  record.trace_id = request.trace.trace_id;
  record.op = request.op == ServeOp::kKnn ? "knn" : "range";
  record.k = request.k;
  record.radius = request.radius;
  record.status = status_name;
  record.cache_hit = response.cache_hit;
  record.approximate = response.approximate;
  record.degraded = degraded;
  record.retry = (request.trace.flags & obs::kTraceFlagRetry) != 0;
  record.hedge = (request.trace.flags & obs::kTraceFlagHedge) != 0;
  record.queue_us = response.queue_us;
  // The explain's wall time is the request's index-execution time (zero
  // for cache hits and inline degraded answers, which never executed).
  record.exec_us = request.explain.total_us;
  record.total_us = response.total_us;
  record.explain = request.explain;
  metrics_.slow_queries.fetch_add(1);
  slow_log_.Add(obs::SlowQueryRecordToJson(record));
}

}  // namespace sapla
