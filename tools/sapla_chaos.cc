// Chaos harness: runs the serving stack under a deterministic injected
// fault schedule (util/fault.h) and asserts the robustness invariants the
// fault framework exists to enforce:
//
//   1. No crashes. The process finishing at all is the first assertion;
//      CI runs this binary under ASan/UBSan so "finishing" is a strong one.
//   2. Every OK exact response is bit-identical to the fault-free answer
//      (serial SimilarityIndex::Knn / RangeSearch on the same index).
//   3. Every OK approximate response — served while the degradation ladder
//      is below healthy, or attached to a deadline miss — is bit-identical
//      to the lower-bound-only answer (KnnLowerBound /
//      RangeSearchLowerBound).
//   4. Every failure carries one of the codes the serving contract allows:
//      kOverloaded, kDeadlineExceeded, kUnavailable, kIOError.
//   5. Crash-safe persistence: saves under injected I/O faults either
//      succeed or leave the previous archive byte-identical; loads of
//      whatever is on disk always succeed.
//
// The schedule is replayable: every trigger decision is a pure function of
// (--seed, fault point, evaluation index), so a failing run reproduces
// exactly from its command line. Per-point evaluation/trigger counts print
// at the end — a chaos run where nothing triggered is visible, not a
// silent pass.
//
//   6. Shard kill/restart (--shards=N, N >= 2): with one shard marked
//      unhealthy the fleet keeps answering — availability stays above a
//      floor, every OK answer is approximate and bit-identical to the
//      deterministic surviving-shards merge — retries stay within the
//      client budget, and after every RestoreShard / RebuildShard the
//      answers are bit-identical to the all-healthy baseline again.
//
//   7. Ingest kill/restart (--ingest): a durable IngestController under
//      injected WAL-append / seal / compact / checkpoint / io faults,
//      killed without warning after every round of mutations, must recover
//      to exactly the acknowledged history — visible ids and every
//      query answer bit-identical to a fault-free controller that was fed
//      only the acked operations. Un-acked mutations never reappear.
//
//   sapla_chaos --seed=42 --queries=1000            # per Method x IndexKind
//   sapla_chaos --spec='seed=1;serve/flush=p0.05'   # custom fault schedule
//   sapla_chaos --shards=3 --shard-cycles=6         # + shard kill/restart
//   sapla_chaos --ingest --ingest-rounds=4          # + ingest kill/restart
//
// Exit status: 0 = all invariants held, 1 = violations (printed), 2 = bad
// usage. Requires a build with SAPLA_FAULT=ON (the default); prints a
// clear error and exits 2 otherwise.

#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "index/index_backend.h"
#include "ingest/ingest_controller.h"
#include "reduction/representation.h"
#include "reduction/representation_store.h"
#include "search/knn.h"
#include "search/sharded_index.h"
#include "serve/retry.h"
#include "serve/service.h"
#include "ts/io.h"
#include "ts/synthetic_archive.h"
#include "util/fault.h"
#include "util/resource_budget.h"
#include "util/rng.h"

namespace sapla {
namespace {

// Every file the harness writes lives in one directory that mkdtemp
// creates under $TMPDIR (default /tmp) on first use; it is removed, with
// everything in it, when the process exits.
std::string WorkPath(const std::string& name) {
  // Heap-allocated and never freed, so the exit hook can still read it
  // after static destructors have run.
  static const std::string* const dir = [] {
    const char* base = std::getenv("TMPDIR");
    std::string templ =
        std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
        "/sapla_chaos_XXXXXX";
    if (::mkdtemp(templ.data()) == nullptr) {
      std::perror(("mkdtemp " + templ).c_str());
      std::exit(1);
    }
    std::atexit([] {
      std::error_code ec;
      std::filesystem::remove_all(*dir, ec);
    });
    return new std::string(templ);
  }();
  return *dir + "/" + name;
}

struct Config {
  uint64_t seed = 42;
  size_t queries = 900;  // per Method x IndexKind combination
  size_t series = 300;
  size_t n = 128;
  size_t m = 12;
  size_t k = 5;
  double radius = 8.0;
  size_t pool = 24;          // distinct queries (exercises the cache)
  size_t io_rounds = 200;    // save/load attempts under injected I/O faults
  size_t shards = 0;         // >= 2 enables the shard kill/restart phase
  size_t shard_cycles = 6;   // kill/restart rounds in that phase
  bool compressed_snapshots = false;  // shard snapshots use quantized columns
  bool ingest = false;       // enables the ingest kill/restart phase
  size_t ingest_rounds = 3;  // kill/restart cycles in that phase
  size_t ingest_ops = 400;   // mutations attempted per cycle
  bool mem_pressure = false;  // enables the memory-budget pressure phase
  bool disk_full = false;     // enables the disk-full (ENOSPC) phase
  std::string spec;          // overrides the default fault schedule
  bool verbose = false;
};

[[noreturn]] void Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--seed=S] [--queries=Q] [--series=N] [--n=LEN]\n"
          "          [--m=M] [--k=K] [--pool=P] [--io-rounds=R]\n"
          "          [--shards=N] [--shard-cycles=C]\n"
          "          [--compressed-snapshots[=0|1]]\n"
          "          [--ingest] [--ingest-rounds=R] [--ingest-ops=N]\n"
          "          [--mem-pressure] [--disk-full]\n"
          "          [--spec=FAULT_SPEC] [--verbose=0|1]\n",
          argv0);
  exit(2);
}

Config ParseFlags(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Boolean toggles also work bare, CI-style.
    if (arg == "--ingest") {
      config.ingest = true;
      continue;
    }
    if (arg == "--compressed-snapshots") {
      config.compressed_snapshots = true;
      continue;
    }
    if (arg == "--mem-pressure") {
      config.mem_pressure = true;
      continue;
    }
    if (arg == "--disk-full") {
      config.disk_full = true;
      continue;
    }
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) Usage(argv[0]);
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    const auto num = [&]() -> uint64_t {
      char* end = nullptr;
      const uint64_t v = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage(argv[0]);
      return v;
    };
    if (key == "seed") {
      config.seed = num();
    } else if (key == "queries") {
      config.queries = num();
    } else if (key == "series") {
      config.series = num();
    } else if (key == "n") {
      config.n = num();
    } else if (key == "m") {
      config.m = num();
    } else if (key == "k") {
      config.k = num();
    } else if (key == "pool") {
      config.pool = num();
    } else if (key == "io-rounds") {
      config.io_rounds = num();
    } else if (key == "shards") {
      config.shards = num();
    } else if (key == "shard-cycles") {
      config.shard_cycles = num();
    } else if (key == "compressed-snapshots") {
      config.compressed_snapshots = value != "0";
    } else if (key == "ingest") {
      config.ingest = value != "0";
    } else if (key == "ingest-rounds") {
      config.ingest_rounds = num();
    } else if (key == "ingest-ops") {
      config.ingest_ops = num();
    } else if (key == "mem-pressure") {
      config.mem_pressure = value != "0";
    } else if (key == "disk-full") {
      config.disk_full = value != "0";
    } else if (key == "spec") {
      config.spec = value;
    } else if (key == "verbose") {
      config.verbose = value != "0";
    } else {
      Usage(argv[0]);
    }
  }
  return config;
}

/// Violation log: every broken invariant is one printed line + one count.
struct Violations {
  uint64_t count = 0;

  void Report(const std::string& what) {
    ++count;
    fprintf(stderr, "VIOLATION: %s\n", what.c_str());
  }
};

bool SameResult(const KnnResult& a, const KnnResult& b) {
  return a.neighbors == b.neighbors && a.num_measured == b.num_measured;
}

/// Tally of response outcomes for one Method x IndexKind case.
struct Tally {
  uint64_t ok_exact = 0;
  uint64_t ok_cached = 0;
  uint64_t ok_approximate = 0;
  uint64_t overloaded = 0;
  uint64_t deadline = 0;
  uint64_t unavailable = 0;
  uint64_t other = 0;
};

void RunServeCase(const Config& config, Method method, IndexKind kind,
                  const Dataset& ds, Violations* violations, Tally* total) {
  SimilarityIndex index(method, config.m, kind);
  // Index build is fault-free: the serving invariants need a good index.
  fault::Disable();
  if (const Status st = index.Build(ds); !st.ok()) {
    violations->Report("index build failed for " + MethodName(method) +
                       ": " + st.ToString());
    return;
  }

  // Fault-free baselines, computed serially before any injection starts.
  std::vector<std::vector<double>> pool;
  Rng rng(config.seed ^ 0xC4A05u);
  for (size_t i = 0; i < config.pool; ++i) {
    std::vector<double> q = ds.series[rng.UniformInt(ds.size())].values;
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);
    pool.push_back(std::move(q));
  }
  std::vector<KnnResult> exact_knn, lb_knn, exact_range, lb_range;
  for (const std::vector<double>& q : pool) {
    exact_knn.push_back(index.Knn(q, config.k));
    lb_knn.push_back(index.KnnLowerBound(q, config.k));
    exact_range.push_back(index.RangeSearch(q, config.radius));
    lb_range.push_back(index.RangeSearchLowerBound(q, config.radius));
  }

  ServeOptions options;
  options.queue_capacity = 64;
  options.max_batch = 8;
  options.max_delay_us = 200;
  options.cache_capacity = 32;
  options.degraded_answers = true;
  options.flush_failures_degraded = 2;
  options.flush_failures_unhealthy = 6;
  options.watchdog_interval_us = 5000;
  options.stall_degraded_us = 100'000;
  options.stall_unhealthy_us = 2'000'000;
  QueryService service(index, options);

  fault::Enable(config.seed);  // re-arm the schedule configured in Run()

  const std::string label = MethodName(method) + "/" + IndexKindName(kind);
  for (size_t i = 0; i < config.queries; ++i) {
    const size_t qi = i % pool.size();
    const bool knn = i % 2 == 0;
    // Every 13th request carries a deadline too short to survive the
    // batching window, keeping the deadline path under fault pressure too.
    const uint64_t deadline_us = i % 13 == 0 ? 1 : 0;
    const ServeResponse r =
        knn ? service.Knn(pool[qi], config.k, deadline_us)
            : service.Range(pool[qi], config.radius, deadline_us);
    const std::string where =
        label + " query " + std::to_string(i) + (knn ? " (knn)" : " (range)");

    if (r.status.ok()) {
      if (r.approximate) {
        ++total->ok_approximate;
        if (!SameResult(r.result, knn ? lb_knn[qi] : lb_range[qi]))
          violations->Report(where +
                             ": approximate answer != lower-bound baseline");
      } else {
        r.cache_hit ? ++total->ok_cached : ++total->ok_exact;
        if (!SameResult(r.result, knn ? exact_knn[qi] : exact_range[qi]))
          violations->Report(where + ": OK answer != fault-free baseline");
      }
      continue;
    }
    switch (r.status.code()) {
      case StatusCode::kOverloaded:
        ++total->overloaded;
        break;
      case StatusCode::kDeadlineExceeded:
        ++total->deadline;
        // With degraded_answers an attached approximate answer must still
        // be the lower-bound baseline.
        if (r.approximate &&
            !SameResult(r.result, knn ? lb_knn[qi] : lb_range[qi]))
          violations->Report(where +
                             ": degraded answer != lower-bound baseline");
        break;
      case StatusCode::kUnavailable:
        ++total->unavailable;
        break;
      case StatusCode::kIOError:
        // Allowed by the contract, though the serve path never emits it.
        break;
      default:
        ++total->other;
        violations->Report(where + ": disallowed status " +
                           r.status.ToString());
    }
  }
  fault::Disable();
  service.Stop();
  if (config.verbose)
    printf("  %-18s health at end: %s\n", label.c_str(),
           ServeHealthName(service.health()));
}

/// Persistence under injected I/O failures: a failed save must leave the
/// previous archive intact; whatever is on disk must always load.
void RunIoCase(const Config& config, const Dataset& ds,
               Violations* violations) {
  const auto reducer = MakeReducer(Method::kSapla);
  RepresentationStore store;
  for (const TimeSeries& ts : ds.series)
    reducer->ReduceInto(ts.values, config.m, &store);

  const std::string path = WorkPath("store.bin");
  std::remove(path.c_str());
  fault::Disable();
  if (const Status st = SaveRepresentationStore(path, store); !st.ok()) {
    violations->Report("fault-free save failed: " + st.ToString());
    return;
  }
  const std::string good = SerializeRepresentationStore(store);

  fault::Enable(config.seed);
  uint64_t failed_saves = 0;
  for (size_t round = 0; round < config.io_rounds; ++round) {
    const Status st = SaveRepresentationStore(path, store);
    if (!st.ok()) {
      ++failed_saves;
      if (st.code() != StatusCode::kIOError)
        violations->Report("save round " + std::to_string(round) +
                           ": unexpected code " + st.ToString());
    }
    // The archive on disk is the old bytes or the new bytes — which are
    // equal here — never a torn mix, regardless of where the save failed.
    fault::Disable();
    const auto loaded = LoadRepresentationStore(path);
    if (!loaded.ok()) {
      violations->Report("load after save round " + std::to_string(round) +
                         " failed: " + loaded.status().ToString());
    } else if (!(*loaded == store)) {
      violations->Report("archive content changed after failed save round " +
                         std::to_string(round));
    }
    fault::Enable(config.seed);
  }
  fault::Disable();
  std::remove(path.c_str());
  std::remove((path + ".tmp." + std::to_string(getpid())).c_str());
  printf("persistence: %zu save rounds, %" PRIu64
         " injected failures, archive intact\n",
         config.io_rounds, failed_saves);
}

/// Shard kill/restart chaos: a sharded fleet under injected admission
/// faults with one shard periodically killed and brought back, via both
/// snapshot restore and in-place rebuild. Availability, answer identity
/// and retry amplification are all asserted against deterministic
/// fault-free baselines.
void RunShardCase(const Config& config, const Dataset& ds,
                  Violations* violations) {
  fault::Disable();
  ShardedIndex::Options opt;
  opt.num_shards = config.shards;
  ShardedIndex index(Method::kSapla, config.m, IndexKind::kRTree, opt);
  if (const Status st = index.Build(ds); !st.ok()) {
    violations->Report("sharded build failed: " + st.ToString());
    return;
  }
  const std::string prefix = WorkPath("shard");
  SnapshotWriteOptions write_options;
  if (config.compressed_snapshots) {
    // Lossy quantized columns: restores below must still answer exactly,
    // because pruning adds the stored slack and distances are refined
    // against raw values.
    write_options.codec.ab_step = 1e-4;
    write_options.codec.coeff_step = 1e-4;
  }
  if (const Status st = index.SaveSnapshots(prefix, write_options); !st.ok()) {
    violations->Report("shard snapshot save failed: " + st.ToString());
    return;
  }

  // Fault-free query pool + all-healthy baseline.
  std::vector<std::vector<double>> pool;
  Rng rng(config.seed ^ 0x5AA4Du);
  for (size_t i = 0; i < config.pool; ++i) {
    std::vector<double> q = ds.series[rng.UniformInt(ds.size())].values;
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);
    pool.push_back(std::move(q));
  }
  std::vector<KnnResult> healthy_knn;
  for (const std::vector<double>& q : pool)
    healthy_knn.push_back(index.Knn(q, config.k));

  if (config.compressed_snapshots) {
    // Swap every shard to its quantized snapshot up front, then prove the
    // compressed fleet returns id- and distance-identical neighbors. The
    // measured-candidate counters may legitimately differ (slack loosens
    // the filter), so the healthy baseline is re-taken from the compressed
    // fleet before the kill/restart cycles.
    for (size_t s = 0; s < index.num_shards(); ++s) {
      const Status st =
          index.RestoreShard(s, ShardedIndex::ShardSnapshotPath(prefix, s));
      if (!st.ok()) {
        violations->Report("compressed shard restore failed: " +
                           st.ToString());
        return;
      }
    }
    std::vector<KnnResult> compressed_knn;
    for (const std::vector<double>& q : pool)
      compressed_knn.push_back(index.Knn(q, config.k));
    for (size_t i = 0; i < pool.size(); ++i)
      if (compressed_knn[i].neighbors != healthy_knn[i].neighbors)
        violations->Report("compressed fleet answer " + std::to_string(i) +
                           " != raw-store neighbors");
    healthy_knn = std::move(compressed_knn);
  }

  ServeOptions serve;
  serve.queue_capacity = 64;
  serve.max_batch = 8;
  serve.max_delay_us = 200;
  serve.cache_capacity = 0;  // health is not part of the cache key
  QueryService service(index, serve);

  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_us = 100;
  policy.hedge_delay_us = 3000;
  const double kBudgetTokens = 8.0, kTokensPerSuccess = 0.05;
  RetryBudget budget(kBudgetTokens, kTokensPerSuccess);
  RetryingClient client(service, policy, &budget);

  uint64_t sent = 0, answered = 0;
  const auto drive = [&](const std::vector<KnnResult>& baseline,
                         bool expect_approximate, const std::string& where) {
    fault::Enable(config.seed);
    for (size_t i = 0; i < pool.size(); ++i) {
      ++sent;
      const ServeResponse r = client.Knn(pool[i], config.k);
      if (!r.status.ok()) {
        if (r.status.code() != StatusCode::kOverloaded &&
            r.status.code() != StatusCode::kUnavailable &&
            r.status.code() != StatusCode::kDeadlineExceeded)
          violations->Report(where + " query " + std::to_string(i) +
                             ": disallowed status " + r.status.ToString());
        continue;
      }
      ++answered;
      if (r.approximate != expect_approximate)
        violations->Report(where + " query " + std::to_string(i) +
                           ": approximate flag should be " +
                           (expect_approximate ? "true" : "false"));
      if (!SameResult(r.result, baseline[i]))
        violations->Report(where + " query " + std::to_string(i) +
                           ": answer != deterministic baseline");
    }
    fault::Disable();
  };

  for (size_t cycle = 0; cycle < config.shard_cycles; ++cycle) {
    const size_t victim = cycle % index.num_shards();
    const std::string tag = "shard cycle " + std::to_string(cycle);

    drive(healthy_knn, /*expect_approximate=*/false, tag + " (all healthy)");

    // Kill: the victim is excluded from the scatter; the surviving shards'
    // merge is still deterministic, so its fault-free answers are the
    // baseline for everything served while the shard is down.
    index.SetShardHealth(victim, ShardHealth::kUnhealthy);
    std::vector<KnnResult> down_knn;
    for (const std::vector<double>& q : pool)
      down_knn.push_back(index.Knn(q, config.k));
    const auto [lo, hi] = index.ShardRange(victim);
    for (size_t i = 0; i < down_knn.size(); ++i)
      for (const auto& [dist, id] : down_knn[i].neighbors)
        if (id >= lo && id < hi)
          violations->Report(tag + ": dead shard id " + std::to_string(id) +
                             " in the down baseline");
    drive(down_knn, /*expect_approximate=*/true, tag + " (one shard down)");

    // Restart, alternating the two recovery paths, then the fleet must be
    // bit-identical to the all-healthy baseline again. With compressed
    // snapshots only the restore path keeps the fleet's stores (and thus
    // its counters) homogeneous, so the rebuild leg is skipped.
    const Status st =
        cycle % 2 == 0 || config.compressed_snapshots
            ? index.RestoreShard(victim,
                                 ShardedIndex::ShardSnapshotPath(prefix,
                                                                 victim))
            : index.RebuildShard(victim);
    if (!st.ok()) {
      violations->Report(tag + ": shard restart failed: " + st.ToString());
      return;
    }
    for (size_t i = 0; i < pool.size(); ++i)
      if (!SameResult(index.Knn(pool[i], config.k), healthy_knn[i]))
        violations->Report(tag + ": post-restore answer " +
                           std::to_string(i) + " != healthy baseline");
  }

  service.Stop();
  for (size_t s = 0; s < index.num_shards(); ++s)
    std::remove(ShardedIndex::ShardSnapshotPath(prefix, s).c_str());

  // Availability floor: shard death must not take the fleet down. The
  // injected admission faults fail a few percent of attempts; with retries
  // the answered fraction stays comfortably above 95%.
  const double availability =
      sent == 0 ? 1.0 : static_cast<double>(answered) /
                            static_cast<double>(sent);
  // Retry amplification: every retry and hedge drew from the token bucket,
  // so their total is bounded by the budget plus the refill earned from
  // successes (+1 covers a fractional token in flight).
  const uint64_t extra_attempts = client.stats().retries.load() +
                                  client.stats().hedges.load();
  const double amplification_cap =
      kBudgetTokens + kTokensPerSuccess * static_cast<double>(answered) + 1.0;
  printf("\nshard chaos (%s snapshots): %zu shards x %zu cycles, %" PRIu64
         " sent, %" PRIu64 " answered (%.1f%%), retries %" PRIu64
         ", hedges %" PRIu64 " (cap %.1f)\n",
         config.compressed_snapshots ? "compressed" : "raw",
         index.num_shards(), config.shard_cycles, sent, answered,
         100.0 * availability, client.stats().retries.load(),
         client.stats().hedges.load(), amplification_cap);
  if (availability < 0.95)
    violations->Report("availability below the 95% floor");
  if (static_cast<double>(extra_attempts) > amplification_cap)
    violations->Report("retry amplification exceeded the client budget");
}

/// Continuous-ingest kill/restart chaos: a durable IngestController takes
/// mutations under injected WAL-append / seal / compact / checkpoint / io
/// faults and is killed cold (destroyed, no checkpoint) after every round.
/// The invariant is exactly the WAL contract: acked <=> logged. A
/// fault-free, non-durable controller fed only the operations the durable
/// one acknowledged is the oracle; after every restart the recovered
/// visible id set and every kNN/range answer must match it bit for bit —
/// un-acked mutations must never resurface, acked ones must never vanish.
void RunIngestCase(const Config& config, const Dataset& ds,
                   Violations* violations) {
  fault::Disable();
  const std::string dir = WorkPath("ingest");
  ::mkdir(dir.c_str(), 0755);
  const auto scrub = [&] {
    std::remove((dir + "/wal.log").c_str());
    std::remove((dir + "/manifest.bin").c_str());
    for (size_t s = 0; s < 4; ++s)
      std::remove((dir + "/main.shard" + std::to_string(s) + ".snp").c_str());
  };
  scrub();

  IngestOptions opt;
  opt.memtable_max = 6;  // small thresholds: many seals/compactions per round
  opt.compact_min_minors = 2;
  opt.num_shards = 2;
  IngestController oracle(Method::kSapla, config.m, IndexKind::kRTree,
                          config.n, opt);
  IngestOptions durable = opt;
  durable.durable_dir = dir;

  std::vector<std::vector<double>> pool;
  Rng rng(config.seed ^ 0x16E57u);
  for (size_t i = 0; i < config.pool; ++i) {
    std::vector<double> q = ds.series[rng.UniformInt(ds.size())].values;
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);
    pool.push_back(std::move(q));
  }

  // The generation layouts legitimately differ (the durable side's seals
  // fault), so only the representation-independent answer is compared:
  // the (distance, id) neighbor lists, not traversal statistics.
  const auto audit = [&](const IngestController& ctrl,
                         const std::string& where) {
    if (ctrl.VisibleIds() != oracle.VisibleIds()) {
      violations->Report(where + ": recovered visible ids != acked history");
      return;
    }
    for (size_t i = 0; i < pool.size(); ++i) {
      if (ctrl.Knn(pool[i], config.k).neighbors !=
          oracle.Knn(pool[i], config.k).neighbors)
        violations->Report(where + ": knn answer " + std::to_string(i) +
                           " != acked-history oracle");
      if (ctrl.RangeSearch(pool[i], config.radius).neighbors !=
          oracle.RangeSearch(pool[i], config.radius).neighbors)
        violations->Report(where + ": range answer " + std::to_string(i) +
                           " != acked-history oracle");
    }
  };

  std::vector<uint64_t> alive;  // acked-inserted, not yet acked-deleted
  uint64_t acked = 0, refused = 0, replayed = 0;
  size_t source = 0;
  for (size_t round = 0; round <= config.ingest_rounds; ++round) {
    auto ctrl = std::make_unique<IngestController>(
        Method::kSapla, config.m, IndexKind::kRTree, config.n, durable);
    if (const Status st = ctrl->Recover(); !st.ok()) {
      violations->Report("ingest round " + std::to_string(round) +
                         ": recovery failed: " + st.ToString());
      scrub();
      return;
    }
    replayed = ctrl->metrics().wal_replayed.load();
    audit(*ctrl, "ingest round " + std::to_string(round) +
                     " (post-recovery)");
    // The last rebirth only audits; rounds before it mutate then die.
    if (round == config.ingest_rounds) break;

    fault::Enable(config.seed);
    for (size_t step = 0; step < config.ingest_ops; ++step) {
      const double dice = rng.Uniform();
      const std::string at = "ingest round " + std::to_string(round) +
                             " step " + std::to_string(step);
      if (dice < 0.16 && !alive.empty()) {
        const size_t pos = rng.UniformInt(alive.size());
        const uint64_t id = alive[pos];
        const Status st = ctrl->Delete(id);
        if (st.ok()) {
          fault::Disable();  // oracle mutations never consume the schedule
          if (!oracle.Delete(id).ok())
            violations->Report(at + ": oracle refused an acked delete");
          fault::Enable(config.seed);
          ++acked;
          alive[pos] = alive.back();
          alive.pop_back();
        } else if (st.code() == StatusCode::kNotFound) {
          // TTL-expired — the oracle agrees (same mutation clock); stop
          // retrying the id.
          alive[pos] = alive.back();
          alive.pop_back();
        } else {
          ++refused;
        }
      } else if (dice < 0.20) {
        // Seal/compact/checkpoint are performance events: visibility is
        // unchanged whether they succeed or fault, so no mirroring.
        (void)ctrl->Seal();
      } else if (dice < 0.24) {
        (void)ctrl->Compact();
      } else if (dice < 0.28) {
        (void)ctrl->Checkpoint();
      } else {
        const TimeSeries& ts = ds.series[source++ % ds.size()];
        const uint64_t ttl =
            rng.Uniform() < 0.1 ? 5 + rng.UniformInt(40) : 0;
        const auto id = ctrl->Insert(ts.values, ts.label, ttl);
        if (id.ok()) {
          fault::Disable();
          const auto mirror = oracle.Insert(ts.values, ts.label, ttl);
          if (!mirror.ok() || *mirror != *id)
            violations->Report(at + ": oracle id drifted from durable log");
          fault::Enable(config.seed);
          ++acked;
          alive.push_back(*id);
        } else {
          ++refused;
        }
      }
    }
    fault::Disable();
    ctrl.reset();  // the kill: no checkpoint, no farewell — the WAL is truth
  }

  printf("\ningest chaos: %zu rounds x %zu ops, %" PRIu64 " acked, %" PRIu64
         " refused by faults, %" PRIu64 " replayed on the final recovery\n",
         config.ingest_rounds, config.ingest_ops, acked, refused, replayed);
  scrub();
}

/// Memory-budget pressure chaos (no injected faults — the pressure is
/// real): the serving and ingest tiers run against a global ResourceBudget
/// capped at HALF the working set an unpressured run actually used. The
/// graded responses (cache shrink, forced compaction, write shedding,
/// degraded reads) must keep the process alive, every OK answer must stay
/// bit-identical to the unpressured oracle, failures must stay within
/// {kOverloaded, kUnavailable, kResourceExhausted}, and after the cap is
/// lifted the stack must recover fully — health back to healthy, caches
/// re-warming, no leaked reservations.
void RunMemPressureCase(const Config& config, const Dataset& ds,
                        Violations* violations) {
  fault::Disable();
  SimilarityIndex index(Method::kSapla, config.m, IndexKind::kRTree);
  if (const Status st = index.Build(ds); !st.ok()) {
    violations->Report("mem-pressure: index build failed: " + st.ToString());
    return;
  }

  std::vector<std::vector<double>> pool;
  Rng rng(config.seed ^ 0xB4D6Eu);
  for (size_t i = 0; i < config.pool; ++i) {
    std::vector<double> q = ds.series[rng.UniformInt(ds.size())].values;
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);
    pool.push_back(std::move(q));
  }
  std::vector<KnnResult> exact_knn, lb_knn;
  for (const std::vector<double>& q : pool) {
    exact_knn.push_back(index.Knn(q, config.k));
    lb_knn.push_back(index.KnnLowerBound(q, config.k));
  }

  ServeOptions serve;
  serve.queue_capacity = 64;
  serve.max_batch = 8;
  serve.max_delay_us = 200;
  serve.cache_capacity = 64;

  // Phase 1 — measure: an unlimited budget observes the natural serving
  // working set (queued payloads + a warm cache).
  auto probe = ResourceBudget::MakeRoot("chaos", 0);
  {
    ServeOptions measured = serve;
    measured.memory_budget = probe;
    QueryService service(index, measured);
    for (size_t i = 0; i < config.queries; ++i)
      (void)service.Knn(pool[i % pool.size()], config.k);
    service.Stop();
  }
  const uint64_t peak = probe->peak_used();
  if (probe->used() != 0) {
    violations->Report("mem-pressure: " + std::to_string(probe->used()) +
                       " bytes leaked after the unpressured serve run");
  }
  if (peak == 0) {
    violations->Report("mem-pressure: unpressured run reserved nothing — "
                       "the budget is not wired");
    return;
  }

  // Phase 2 — serve at 50% of the natural working set.
  auto budget = ResourceBudget::MakeRoot("chaos", peak / 2);
  ServeOptions pressured = serve;
  pressured.memory_budget = budget;
  QueryService service(index, pressured);
  uint64_t ok_exact = 0, ok_approx = 0, shed = 0;
  const auto drive = [&](const char* tag, uint64_t* exact_out) {
    for (size_t i = 0; i < config.queries; ++i) {
      const size_t qi = i % pool.size();
      const ServeResponse r = service.Knn(pool[qi], config.k);
      const std::string where = std::string("mem-pressure ") + tag +
                                " query " + std::to_string(i);
      if (r.status.ok()) {
        if (r.approximate) {
          ++ok_approx;
          if (!SameResult(r.result, lb_knn[qi]))
            violations->Report(where +
                               ": approximate answer != lower-bound oracle");
        } else {
          ++*exact_out;
          if (!SameResult(r.result, exact_knn[qi]))
            violations->Report(where + ": OK answer != unpressured oracle");
        }
      } else if (r.status.code() != StatusCode::kOverloaded &&
                 r.status.code() != StatusCode::kUnavailable &&
                 r.status.code() != StatusCode::kResourceExhausted) {
        violations->Report(where + ": disallowed status " +
                           r.status.ToString());
      } else {
        ++shed;
      }
    }
  };
  drive("capped", &ok_exact);
  const uint64_t shrinks = service.metrics().budget_cache_shrinks.load();
  const uint64_t degraded = service.metrics().budget_degraded.load();

  // Phase 3 — lift the cap; the stack must return to fully exact service.
  budget->SetCapacity(0);
  uint64_t recovered_exact = 0;
  drive("post-lift", &recovered_exact);
  // One extra pass so cache re-warming is observable after recovery.
  const uint64_t hits_before = service.metrics().cache_hits.load();
  for (size_t i = 0; i < pool.size(); ++i)
    (void)service.Knn(pool[i], config.k);
  const uint64_t hits_after = service.metrics().cache_hits.load();
  if (service.health() != ServeHealth::kHealthy)
    violations->Report("mem-pressure: health did not return to healthy "
                       "after the cap was lifted");
  if (recovered_exact == 0)
    violations->Report("mem-pressure: no exact answers after recovery");
  if (hits_after <= hits_before)
    violations->Report("mem-pressure: cache did not re-warm after recovery");
  service.Stop();

  // Phase 4 — ingest under the same 50% discipline: a capped controller
  // sheds some writes but every acked mutation stays queryable, matching
  // an uncapped oracle fed only the acked operations.
  IngestOptions iopt;
  iopt.memtable_max = 8;
  iopt.compact_min_minors = 2;
  auto iprobe = ResourceBudget::MakeRoot("chaos-ingest", 0);
  {
    IngestOptions measured = iopt;
    measured.memory_budget = iprobe;
    IngestController ctrl(Method::kSapla, config.m, IndexKind::kRTree,
                          config.n, measured);
    for (size_t i = 0; i < ds.size(); ++i)
      (void)ctrl.Insert(ds.series[i].values, ds.series[i].label);
  }
  if (iprobe->used() != 0)
    violations->Report("mem-pressure: ingest leaked " +
                       std::to_string(iprobe->used()) + " budget bytes");
  auto ibudget =
      ResourceBudget::MakeRoot("chaos-ingest", iprobe->peak_used() / 2);
  IngestOptions capped = iopt;
  capped.memory_budget = ibudget;
  IngestController ctrl(Method::kSapla, config.m, IndexKind::kRTree,
                        config.n, capped);
  IngestController oracle(Method::kSapla, config.m, IndexKind::kRTree,
                          config.n, iopt);
  uint64_t acked = 0, refused = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    const auto id = ctrl.Insert(ds.series[i].values, ds.series[i].label);
    if (id.ok()) {
      ++acked;
      const auto mirror = oracle.Insert(ds.series[i].values,
                                        ds.series[i].label);
      if (!mirror.ok() || *mirror != *id)
        violations->Report("mem-pressure: ingest oracle id drifted");
    } else if (id.status().code() == StatusCode::kOverloaded) {
      ++refused;
    } else {
      violations->Report("mem-pressure: insert " + std::to_string(i) +
                         " failed with disallowed status " +
                         id.status().ToString());
    }
  }
  if (ctrl.VisibleIds() != oracle.VisibleIds())
    violations->Report("mem-pressure: capped ingest visible ids != oracle");
  for (size_t i = 0; i < pool.size(); ++i)
    if (ctrl.Knn(pool[i], config.k).neighbors !=
        oracle.Knn(pool[i], config.k).neighbors)
      violations->Report("mem-pressure: capped ingest answer " +
                         std::to_string(i) + " != acked-history oracle");
  // Lift the cap: shedding must stop.
  ibudget->SetCapacity(0);
  uint64_t post_lift_acked = 0;
  for (size_t i = 0; i < 16; ++i) {
    const TimeSeries& ts = ds.series[i % ds.size()];
    const auto id = ctrl.Insert(ts.values, ts.label);
    if (id.ok()) {
      ++post_lift_acked;
      (void)oracle.Insert(ts.values, ts.label);
    }
  }
  if (post_lift_acked != 16)
    violations->Report("mem-pressure: inserts still shed after the ingest "
                       "cap was lifted");
  const uint64_t forced = ctrl.metrics().budget_forced_compactions.load();

  printf("\nmem-pressure chaos: serve peak %" PRIu64 " B capped to %" PRIu64
         " B: %" PRIu64 " exact, %" PRIu64 " degraded, %" PRIu64
         " shed, %" PRIu64 " cache shrinks, %" PRIu64
         " budget-degraded; ingest: %" PRIu64 " acked, %" PRIu64
         " shed, %" PRIu64 " forced compactions\n",
         peak, peak / 2, ok_exact + recovered_exact, ok_approx, shed,
         shrinks, degraded, acked, refused, forced);
}

/// Disk-full chaos: the durable ingest path runs with ENOSPC-style faults
/// armed on the WAL and every atomic writer ("io/disk_full",
/// "ingest/wal_full" with code `exhausted`, plus "ingest/wal_torn" short
/// writes). A full disk must surface as a clean refusal — the acknowledged
/// history and the on-disk artifacts stay intact through kill/recover —
/// and once space "returns" (faults disabled) the stack works again.
void RunDiskFullCase(const Config& config, const Dataset& ds,
                     Violations* violations) {
  // Drop the serving-phase schedule entirely: this phase arms only the
  // ENOSPC-flavoured points, so every refusal is attributable to "disk
  // full" and the expected-code assertions stay exact.
  fault::Reset();
  const std::string disk_spec =
      "seed=" + std::to_string(config.seed) +
      ";io/disk_full=p0.25,cexhausted"
      ";ingest/wal_full=p0.1,cexhausted"
      ";ingest/wal_torn=p0.08";
  if (const Status st = fault::ConfigureFromSpec(disk_spec); !st.ok()) {
    violations->Report("disk-full: bad spec: " + st.ToString());
    return;
  }
  fault::Disable();

  // Archive saves under disk-full faults: failures must be
  // kResourceExhausted and the previous archive must stay intact.
  {
    const auto reducer = MakeReducer(Method::kSapla);
    RepresentationStore store;
    for (const TimeSeries& ts : ds.series)
      reducer->ReduceInto(ts.values, config.m, &store);
    const std::string path = WorkPath("diskfull_store.bin");
    std::remove(path.c_str());
    if (const Status st = SaveRepresentationStore(path, store); !st.ok()) {
      violations->Report("disk-full: fault-free save failed: " +
                         st.ToString());
      return;
    }
    fault::Enable(config.seed);
    uint64_t refused_saves = 0;
    for (size_t round = 0; round < config.io_rounds; ++round) {
      const Status st = SaveRepresentationStore(path, store);
      if (!st.ok()) {
        ++refused_saves;
        if (st.code() != StatusCode::kResourceExhausted)
          violations->Report("disk-full: save round " +
                             std::to_string(round) + ": expected "
                             "kResourceExhausted, got " + st.ToString());
      }
      fault::Disable();
      const auto loaded = LoadRepresentationStore(path);
      if (!loaded.ok() || !(*loaded == store))
        violations->Report("disk-full: archive damaged after save round " +
                           std::to_string(round));
      fault::Enable(config.seed);
    }
    fault::Disable();
    std::remove(path.c_str());
    printf("\ndisk-full chaos: %zu save rounds, %" PRIu64
           " refused cleanly\n",
           config.io_rounds, refused_saves);
  }

  // Durable ingest with the disk intermittently "full": acked <=> logged
  // must hold through every kill/recover, exactly as in the ingest phase.
  const std::string dir = WorkPath("diskfull");
  ::mkdir(dir.c_str(), 0755);
  const auto scrub = [&] {
    std::remove((dir + "/wal.log").c_str());
    std::remove((dir + "/manifest.bin").c_str());
    for (size_t s = 0; s < 4; ++s)
      std::remove((dir + "/main.shard" + std::to_string(s) + ".snp").c_str());
  };
  scrub();
  IngestOptions opt;
  opt.memtable_max = 6;
  opt.compact_min_minors = 2;
  IngestController oracle(Method::kSapla, config.m, IndexKind::kRTree,
                          config.n, opt);
  IngestOptions durable = opt;
  durable.durable_dir = dir;

  uint64_t acked = 0, refused = 0;
  size_t source = 0;
  for (size_t round = 0; round <= config.ingest_rounds; ++round) {
    auto ctrl = std::make_unique<IngestController>(
        Method::kSapla, config.m, IndexKind::kRTree, config.n, durable);
    if (const Status st = ctrl->Recover(); !st.ok()) {
      violations->Report("disk-full round " + std::to_string(round) +
                         ": recovery failed: " + st.ToString());
      scrub();
      return;
    }
    if (ctrl->VisibleIds() != oracle.VisibleIds())
      violations->Report("disk-full round " + std::to_string(round) +
                         ": recovered ids != acked history");
    const bool last = round == config.ingest_rounds;
    // The final round mutates fault-free: with space back, everything must
    // ack again and the WAL must accept appends (full recovery).
    if (!last) fault::Enable(config.seed);
    const size_t ops = last ? 32 : config.ingest_ops;
    uint64_t round_acked = 0;
    for (size_t step = 0; step < ops; ++step) {
      const TimeSeries& ts = ds.series[source++ % ds.size()];
      const auto id = ctrl->Insert(ts.values, ts.label);
      if (id.ok()) {
        fault::Disable();
        const auto mirror = oracle.Insert(ts.values, ts.label);
        if (!mirror.ok() || *mirror != *id)
          violations->Report("disk-full: oracle id drifted at round " +
                             std::to_string(round));
        if (!last) fault::Enable(config.seed);
        ++acked;
        ++round_acked;
      } else if (id.status().code() == StatusCode::kResourceExhausted ||
                 id.status().code() == StatusCode::kIOError ||
                 id.status().code() == StatusCode::kUnavailable) {
        ++refused;  // clean refusal; the mutation was never acked
      } else {
        violations->Report("disk-full round " + std::to_string(round) +
                           ": disallowed status " + id.status().ToString());
      }
      if (!last && step % 16 == 9) (void)ctrl->Checkpoint();
    }
    fault::Disable();
    if (last && round_acked != ops)
      violations->Report("disk-full: writes still refused after the disk "
                         "faults were lifted");
    ctrl.reset();  // kill without checkpoint; the WAL is truth
  }
  printf("disk-full chaos: %zu rounds, %" PRIu64 " acked, %" PRIu64
         " refused cleanly, history intact\n",
         config.ingest_rounds, acked, refused);
  scrub();
}

int Run(int argc, char** argv) {
#ifdef SAPLA_FAULT_DISABLED
  (void)argc;
  (void)argv;
  fprintf(stderr,
          "sapla_chaos needs a build with SAPLA_FAULT=ON (fault injection "
          "is compiled out)\n");
  return 2;
#else
  const Config config = ParseFlags(argc, argv);

  // Default schedule: every serving-layer fault point armed at ~1%, plus
  // latency injection in the pool workers and the scheduler.
  std::string spec = "seed=" + std::to_string(config.seed) +
                     ";queue/admit=p0.01"
                     ";serve/flush=p0.01"
                     ";serve/flush_stall=p0.002,d2000"
                     ";parallel/worker=p0.01,d100"
                     ";io/write=p0.05;io/fsync=p0.02;io/rename=p0.02";
  if (config.ingest)
    spec +=
        ";ingest/wal_append=p0.03"
        ";ingest/seal=p0.05"
        ";ingest/compact=p0.05"
        ";ingest/checkpoint=p0.2";
  if (!config.spec.empty()) spec = config.spec;
  if (const Status st = fault::ConfigureFromSpec(spec); !st.ok()) {
    fprintf(stderr, "bad fault spec: %s\n", st.ToString().c_str());
    return 2;
  }
  fault::Disable();  // armed per phase; baselines stay fault-free

  SyntheticOptions opt;
  opt.length = config.n;
  opt.num_series = config.series;
  const Dataset ds = MakeSyntheticDataset(17, opt);

  Violations violations;
  Tally tally;
  size_t cases = 0;
  for (const Method method : AllMethods()) {
    for (const IndexKind kind : {IndexKind::kRTree, IndexKind::kDbchTree}) {
      RunServeCase(config, method, kind, ds, &violations, &tally);
      ++cases;
    }
  }
  RunIoCase(config, ds, &violations);
  if (config.shards >= 2) RunShardCase(config, ds, &violations);
  if (config.ingest) RunIngestCase(config, ds, &violations);
  if (config.mem_pressure) RunMemPressureCase(config, ds, &violations);
  // Last: it re-arms its own fault schedule (ENOSPC-flavoured points).
  if (config.disk_full) RunDiskFullCase(config, ds, &violations);

  const uint64_t responses = tally.ok_exact + tally.ok_cached +
                             tally.ok_approximate + tally.overloaded +
                             tally.deadline + tally.unavailable + tally.other;
  printf("\nchaos run: seed=%" PRIu64 ", %zu cases x %zu queries = %" PRIu64
         " responses\n",
         config.seed, cases, config.queries, responses);
  printf("  ok exact          %" PRIu64 "\n", tally.ok_exact);
  printf("  ok cached         %" PRIu64 "\n", tally.ok_cached);
  printf("  ok approximate    %" PRIu64 "\n", tally.ok_approximate);
  printf("  overloaded        %" PRIu64 "\n", tally.overloaded);
  printf("  deadline_exceeded %" PRIu64 "\n", tally.deadline);
  printf("  unavailable       %" PRIu64 "\n", tally.unavailable);

  printf("\nfault points (evaluations -> triggers):\n");
  for (const fault::PointStats& p : fault::Stats())
    printf("  %-22s %10" PRIu64 " -> %" PRIu64 "\n", p.name.c_str(),
           p.evaluations, p.triggers);

  fault::Reset();
  if (violations.count != 0) {
    fprintf(stderr, "\n%" PRIu64 " invariant violation(s)\n",
            violations.count);
    return 1;
  }
  printf("\nall invariants held\n");
  return 0;
#endif  // SAPLA_FAULT_DISABLED
}

}  // namespace
}  // namespace sapla

int main(int argc, char** argv) { return sapla::Run(argc, argv); }
