// Tests for per-request explain records and the slow-query log
// (obs/explain.h) — including this PR's acceptance criteria:
//
//   - a sampled query through QueryService over a 4-shard index with
//     hedging produces ONE stitched Chrome trace tree: admission -> batch
//     re-bind -> shard scatter -> per-shard search -> merge, joined by
//     flow events in the export
//   - the slow-query explain record's per-part counters sum EXACTLY to the
//     request's SearchCounters: the explain is the request's counters
//     attributed, never a second measurement
//
// Plus the underlying contracts: ShardedIndex::Search and
// IngestController::Search, k-NN and range, batched or not, fill per-part
// breakdowns whose counters sum field-wise to the merged result's
// counters, and whose answer is bit-identical to the unexplained path.

#include "obs/explain.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/ingest_controller.h"
#include "obs/trace.h"
#include "search/sharded_index.h"
#include "serve/retry.h"
#include "serve/service.h"
#include "ts/synthetic_archive.h"

namespace sapla {
namespace {

Dataset SmallDataset(size_t id = 7, size_t n = 96, size_t count = 64) {
  SyntheticOptions opt;
  opt.length = n;
  opt.num_series = count;
  return MakeSyntheticDataset(id, opt);
}

// Field-wise sum of per-part counters; mirrors SearchCounters::Add so a
// drifting explain path cannot hide behind the same helper it should be
// validated against.
void ExpectPartsSumToTotal(const obs::QueryExplain& explain) {
  uint64_t lb = 0, exact = 0, internal = 0, leaf = 0, pruned_leaf = 0,
           pruned_node = 0, nodes_pruned = 0, node_bounds = 0;
  for (const obs::ShardExplain& part : explain.parts) {
    lb += part.counters.lb_evaluations;
    exact += part.counters.exact_evaluations;
    internal += part.counters.nodes_visited_internal;
    leaf += part.counters.nodes_visited_leaf;
    pruned_leaf += part.counters.entries_pruned_leaf;
    pruned_node += part.counters.entries_pruned_node;
    nodes_pruned += part.counters.nodes_pruned;
    node_bounds += part.counters.node_bound_evaluations;
  }
  EXPECT_EQ(lb, explain.counters.lb_evaluations);
  EXPECT_EQ(exact, explain.counters.exact_evaluations);
  EXPECT_EQ(internal, explain.counters.nodes_visited_internal);
  EXPECT_EQ(leaf, explain.counters.nodes_visited_leaf);
  EXPECT_EQ(pruned_leaf, explain.counters.entries_pruned_leaf);
  EXPECT_EQ(pruned_node, explain.counters.entries_pruned_node);
  EXPECT_EQ(nodes_pruned, explain.counters.nodes_pruned);
  EXPECT_EQ(node_bounds, explain.counters.node_bound_evaluations);
}

TEST(ExplainTest, ShardedPartCountersSumExactlyToMergedCounters) {
  const Dataset ds = SmallDataset();
  ShardedIndex::Options opt;
  opt.num_shards = 4;
  ShardedIndex index(Method::kSapla, 12, IndexKind::kDbchTree, opt);
  ASSERT_TRUE(index.Build(ds).ok());

  // k-NN, and a range query whose radius reaches the 5th neighbor.
  const std::vector<double>& q = ds.series[9].values;
  const double radius = index.Knn(q, 5).neighbors.back().first;
  for (const QuerySpec& spec : {QuerySpec::Knn(5), QuerySpec::Range(radius)}) {
    SCOPED_TRACE(spec.knn() ? "knn" : "range");
    obs::QueryExplain explain;
    const KnnResult with = index.Search(q, spec, &explain);
    const KnnResult without = index.Search(q, spec, nullptr);

    // Explain never changes the answer.
    ASSERT_EQ(with.neighbors.size(), without.neighbors.size());
    ASSERT_GE(with.neighbors.size(), 5u);
    for (size_t i = 0; i < with.neighbors.size(); ++i) {
      EXPECT_EQ(with.neighbors[i].first, without.neighbors[i].first);
      EXPECT_EQ(with.neighbors[i].second, without.neighbors[i].second);
    }

    ASSERT_EQ(explain.parts.size(), 4u);
    ExpectPartsSumToTotal(explain);
    // The explain's whole-request counters ARE the result's counters.
    EXPECT_TRUE(explain.counters == with.counters);
    // Stage timings cover the scatter and the merge.
    std::set<std::string> stages;
    for (const obs::StageExplain& s : explain.stages) stages.insert(s.stage);
    EXPECT_TRUE(stages.count("scatter"));
    EXPECT_TRUE(stages.count("merge"));
  }
}

TEST(ExplainTest, IngestPartCountersSumAcrossGenerations) {
  const Dataset ds = SmallDataset();
  IngestOptions opt;
  opt.memtable_max = 16;  // force seals: multiple generations
  IngestController ingest(Method::kSapla, 12, IndexKind::kDbchTree,
                          ds.length(), opt);
  for (const TimeSeries& ts : ds.series)
    ASSERT_TRUE(ingest.Insert(ts.values, ts.label).ok());

  const std::vector<double>& q = ds.series[3].values;
  const double radius = ingest.Knn(q, 5).neighbors.back().first;
  for (const QuerySpec& spec : {QuerySpec::Knn(5), QuerySpec::Range(radius)}) {
    SCOPED_TRACE(spec.knn() ? "knn" : "range");
    obs::QueryExplain explain;
    const KnnResult with = ingest.Search(q, spec, &explain);
    const KnnResult without = ingest.Search(q, spec, nullptr);
    ASSERT_EQ(with.neighbors.size(), without.neighbors.size());
    ASSERT_GE(with.neighbors.size(), 5u);
    for (size_t i = 0; i < with.neighbors.size(); ++i)
      EXPECT_EQ(with.neighbors[i].second, without.neighbors[i].second);

    ASSERT_GE(explain.parts.size(), 2u);  // sealed generation(s) + memtable
    ExpectPartsSumToTotal(explain);
    EXPECT_TRUE(explain.counters == with.counters);
    EXPECT_NE(explain.epoch_seq, 0u);
  }
}

// A slow range request served from a live corpus must log where its work
// went: the batch path hands each query's explain sink to the controller,
// which attributes the counters to main, minor and memtable.
TEST(ExplainTest, IngestRangeBatchExplainCoversEveryGeneration) {
  const Dataset ds = SmallDataset();
  IngestOptions opt;
  opt.memtable_max = 16;
  IngestController ingest(Method::kSapla, 12, IndexKind::kDbchTree,
                          ds.length(), opt);
  // 32 inserts seal two minors, compacted into the main generation; 28
  // more seal one minor and leave 12 in the memtable.
  for (size_t i = 0; i < 32; ++i)
    ASSERT_TRUE(ingest.Insert(ds.series[i].values).ok());
  ASSERT_TRUE(ingest.Compact().ok());
  for (size_t i = 32; i < 60; ++i)
    ASSERT_TRUE(ingest.Insert(ds.series[i].values).ok());
  const auto stats = ingest.GetEpochStats();
  ASSERT_GT(stats.main_entries, 0u);
  ASSERT_EQ(stats.minor_generations, 1u);
  ASSERT_GT(stats.memtable_entries, 0u);

  const std::vector<std::vector<double>> queries = {ds.series[5].values,
                                                    ds.series[40].values,
                                                    ds.series[58].values};
  std::vector<obs::QueryExplain> explains(queries.size());
  SearchIndex::BatchOptions options;
  options.explain_of = [&](size_t i) { return &explains[i]; };
  const std::vector<KnnResult> results =
      ingest.RangeSearchBatch(queries, 9.0, options);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    EXPECT_GE(results[i].counters.lb_evaluations, 1u);
    std::set<std::string> parts;
    for (const obs::ShardExplain& part : explains[i].parts)
      parts.insert(part.part);
    EXPECT_EQ(parts, (std::set<std::string>{"main", "minor0", "memtable"}));
    ExpectPartsSumToTotal(explains[i]);
    EXPECT_TRUE(explains[i].counters == results[i].counters);
    EXPECT_EQ(explains[i].epoch_seq, stats.seq);
  }
}

TEST(ExplainTest, ExplainJsonCarriesThePartBreakdown) {
  obs::QueryExplain explain;
  explain.trace_id = 42;
  explain.total_us = 1234;
  explain.counters.lb_evaluations = 10;
  explain.counters.node_bound_evaluations = 7;
  obs::ShardExplain part;
  part.part = "shard0";
  part.health = 1;
  part.counters.lb_evaluations = 10;
  explain.parts.push_back(part);
  explain.stages.push_back({"scatter", 1200});

  const std::string json = obs::QueryExplainToJson(explain);
  EXPECT_NE(json.find("\"trace_id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"shard0\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded\""), std::string::npos);  // health name
  EXPECT_NE(json.find("\"scatter\""), std::string::npos);
  EXPECT_NE(json.find("\"node_bound_evaluations\":7"), std::string::npos);
}

// Acceptance: one sampled request through the full serving stack over four
// shards with hedging configured stitches into a single trace tree.
TEST(ExplainTest, SampledServeRequestStitchesOneTraceTree) {
#ifdef SAPLA_OBS_DISABLED
  GTEST_SKIP() << "tracing compiled out (SAPLA_OBS=OFF)";
#endif
  obs::SetTraceEnabled(false);
  obs::ClearTrace();

  const Dataset ds = SmallDataset();
  ShardedIndex::Options sopt;
  sopt.num_shards = 4;
  ShardedIndex index(Method::kSapla, 12, IndexKind::kDbchTree, sopt);
  ASSERT_TRUE(index.Build(ds).ok());

  ServeOptions opt;
  opt.cache_capacity = 0;
  opt.trace_sample_every = 1;
  QueryService service(index, opt);

  RetryPolicy policy;
  policy.hedge_delay_us = 1;  // hedging on: the duplicate joins the tree
  RetryingClient client(service, policy);

  obs::SetTraceEnabled(true);
  const ServeResponse response = client.Knn(ds.series[11].values, 4);
  // The losing attempt may still be running; let it finish, so every span
  // it opened is recorded before tracing stops and no recorded child is
  // left pointing at a parent that closed afterwards.
  service.Stop();
  obs::SetTraceEnabled(false);
  ASSERT_TRUE(response.status.ok());
  ASSERT_NE(response.trace_id, 0u);

  // The request's spans: admission -> batch -> scatter -> per-shard search
  // -> merge, all under one trace id, with every recorded parent edge
  // staying inside the trace.
  const std::vector<obs::TraceEvent> events = obs::CollectTrace();
  std::set<std::string> names;
  size_t shard_searches = 0;
  std::set<uint64_t> spans_of_trace;
  for (const obs::TraceEvent& e : events) {
    if (e.trace_id != response.trace_id) continue;
    names.insert(e.name);
    spans_of_trace.insert(e.span_id);
    if (std::string(e.name) == "shard/search") ++shard_searches;
  }
  for (const char* required : {"serve/admit", "batch/query", "shard/knn",
                               "shard/scatter", "shard/search", "shard/merge"})
    EXPECT_TRUE(names.count(required)) << "missing span " << required;
  EXPECT_GE(shard_searches, 4u);  // every healthy shard searched
  for (const obs::TraceEvent& e : events) {
    if (e.trace_id != response.trace_id || e.parent_span_id == 0) continue;
    EXPECT_TRUE(spans_of_trace.count(e.parent_span_id))
        << e.name << " parented outside its own trace";
  }

  // The Chrome export joins the cross-thread edges with flow events.
  const std::string json = obs::TraceToChromeJson();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  obs::ClearTrace();
}

// Acceptance: the slow-query record the service logs for a request carries
// an explain whose per-part counters sum exactly to the request's own
// SearchCounters — checked at the JSON level, which is what an operator
// actually reads.
TEST(ExplainTest, SlowQueryRecordPartCountersSumToRequestCounters) {
  const Dataset ds = SmallDataset();
  ShardedIndex::Options sopt;
  sopt.num_shards = 4;
  ShardedIndex index(Method::kSapla, 12, IndexKind::kDbchTree, sopt);
  ASSERT_TRUE(index.Build(ds).ok());

  ServeOptions opt;
  opt.cache_capacity = 0;
  opt.slow_query_us = 1;  // tail-sample (effectively) every request
  QueryService service(index, opt);

  const ServeResponse response = service.Knn(ds.series[2].values, 5);
  ASSERT_TRUE(response.status.ok());
  ASSERT_FALSE(response.result.counters.lb_evaluations == 0);

  const std::vector<std::string> records = service.slow_query_log().Records();
  ASSERT_FALSE(records.empty());
  const std::string& record = records.back();

  // Every "lb_evaluations" in the record: the first is the request total
  // (explain.counters renders before parts), the rest are the per-shard
  // attributions.
  auto extract_all = [&](const std::string& key) {
    std::vector<uint64_t> values;
    const std::string needle = "\"" + key + "\":";
    size_t pos = 0;
    while ((pos = record.find(needle, pos)) != std::string::npos) {
      pos += needle.size();
      values.push_back(std::strtoull(record.c_str() + pos, nullptr, 10));
    }
    return values;
  };
  for (const char* key : {"lb_evaluations", "exact_evaluations",
                          "nodes_visited_leaf", "entries_pruned_leaf"}) {
    const std::vector<uint64_t> values = extract_all(key);
    ASSERT_EQ(values.size(), 1u + 4u) << key;  // total + one per shard
    uint64_t sum = 0;
    for (size_t i = 1; i < values.size(); ++i) sum += values[i];
    EXPECT_EQ(sum, values[0]) << key << " parts do not sum to the total";
  }
  // And the total is the request's own counters, verbatim.
  const std::vector<uint64_t> lb = extract_all("lb_evaluations");
  EXPECT_EQ(lb[0], response.result.counters.lb_evaluations);
}

TEST(ExplainTest, SlowLogTriggersOnWorkNotJustLatency) {
  const Dataset ds = SmallDataset();
  ShardedIndex::Options sopt;
  sopt.num_shards = 2;
  ShardedIndex index(Method::kSapla, 12, IndexKind::kDbchTree, sopt);
  ASSERT_TRUE(index.Build(ds).ok());

  ServeOptions opt;
  opt.cache_capacity = 0;
  opt.slow_query_us = 0;       // latency trigger off
  opt.slow_query_lb_evals = 1; // any request that evaluates a bound logs
  QueryService service(index, opt);
  ASSERT_TRUE(service.Knn(ds.series[1].values, 3).status.ok());
  EXPECT_GE(service.slow_query_log().total_logged(), 1u);

  // Both thresholds off: nothing logs, and requests skip the explain fill.
  ServeOptions quiet;
  quiet.cache_capacity = 0;
  QueryService quiet_service(index, quiet);
  ASSERT_TRUE(quiet_service.Knn(ds.series[1].values, 3).status.ok());
  EXPECT_EQ(quiet_service.slow_query_log().total_logged(), 0u);
}

TEST(ExplainTest, SlowLogRingEvictsOldestButKeepsCounting) {
  obs::SlowQueryLog log(3);
  for (int i = 0; i < 5; ++i)
    log.Add("{\"record\": " + std::to_string(i) + "}");
  EXPECT_EQ(log.total_logged(), 5u);
  const std::vector<std::string> records = log.Records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front(), "{\"record\": 2}");  // oldest retained
  EXPECT_EQ(records.back(), "{\"record\": 4}");
}

}  // namespace
}  // namespace sapla
