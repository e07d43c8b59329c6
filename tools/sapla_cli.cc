// sapla_cli — command-line front end for the library.
//
//   sapla_cli info      <data.tsv>
//   sapla_cli reduce    <data.tsv> [--method=SAPLA] [--m=24] [--out=reps.txt]
//                       [--format=v1|v2|v4] [--quant-ab=STEP]
//                       [--quant-coeff=STEP]
//   sapla_cli reconstruct <reps.txt|reps.bin> [--out=recon.tsv]
//   sapla_cli knn       <data.tsv> [--query=0 | --queries=0,3,7] [--k=5]
//                       [--method=SAPLA] [--m=24] [--tree=dbch|rtree]
//   sapla_cli motif     <data.tsv> [--row=0] [--window=64] [--m=24]
//   sapla_cli synth     <out.tsv> [--dataset=0] [--length=256] [--series=40]
//   sapla_cli explain   <data.tsv> [--query=0] [--k=5] [--method=SAPLA]
//                       [--m=24] [--shards=1] [--json=0] [--trace-out=t.json]
//
// `sapla_cli <command> --help` prints that command's usage and exits 0
// without touching any file; a positional argument starting with "--" is
// rejected (exit 2).
//
// Every command accepts --threads=T (default 1): the index build fans the
// per-series reduction across T threads, and `knn` with --queries runs the
// batch engine. --threads=0 uses the hardware concurrency.
//
// Data files are UCR2018 format: one series per line, label first,
// tab/comma separated. Representation files use the ts/io.h formats:
// --format=v1 writes the per-representation text format, --format=v2 the
// binary columnar RepresentationStore format, --format=v4 the framed
// codec format (required for --quant-ab/--quant-coeff fixed-point
// quantization, which records per-series lower-bound slack so quantized
// archives still prune soundly); `reconstruct` auto-detects
// both. `synth` materializes a deterministic synthetic dataset
// (ts/synthetic_archive.h) so a pipeline can be exercised without the UCR
// archive.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/sapla.h"
#include "reduction/column_codec.h"
#include "obs/explain.h"
#include "obs/trace.h"
#include "search/knn.h"
#include "search/sharded_index.h"
#include "search/metrics.h"
#include "search/subsequence.h"
#include "ts/io.h"
#include "ts/synthetic_archive.h"
#include "ts/ucr_loader.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/table.h"
#include "util/timer.h"

namespace sapla {
namespace {

struct CommandUsage {
  const char* name;
  const char* synopsis;
};

constexpr CommandUsage kCommands[] = {
    {"info", "<data.tsv>"},
    {"reduce",
     "<data.tsv> [--method=SAPLA] [--m=24] [--out=reps.txt] "
     "[--format=v1|v2|v4] [--quant-ab=STEP] [--quant-coeff=STEP]"},
    {"reconstruct", "<reps.txt|reps.bin> [--out=recon.tsv]"},
    {"knn",
     "<data.tsv> [--query=0 | --queries=0,3,7] [--k=5] [--method=SAPLA] "
     "[--m=24] [--tree=dbch|rtree]"},
    {"motif", "<data.tsv> [--row=0] [--window=64] [--m=24] [--stride=1]"},
    {"synth", "<out.tsv> [--dataset=0] [--length=256] [--series=40]"},
    {"explain",
     "<data.tsv> [--query=0] [--k=5] [--method=SAPLA] [--m=24] "
     "[--shards=1] [--json=0] [--trace-out=t.json]"},
};

const CommandUsage* FindCommand(const std::string& name) {
  for (const CommandUsage& c : kCommands)
    if (name == c.name) return &c;
  return nullptr;
}

void PrintCommandUsage(FILE* out, const CommandUsage& c) {
  fprintf(out, "usage: sapla_cli %s %s [--threads=T] [--fault=SPEC]\n",
          c.name, c.synopsis);
}

[[noreturn]] void Usage() {
  fprintf(stderr,
          "usage: sapla_cli <info|reduce|reconstruct|knn|motif|synth|explain> "
          "<file> [--key=value ...]\n");
  exit(2);
}

bool IsHelp(const std::string& arg) { return arg == "--help" || arg == "-h"; }

/// Strict size_t parse: the whole token must be digits. A typo'd numeric
/// flag is a hard error, never silently zero (the old strtoull behaviour).
size_t ParseSizeOrDie(const std::string& key, const std::string& value) {
  size_t parsed = 0;
  const auto res =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (res.ec != std::errc() || res.ptr != value.data() + value.size()) {
    fprintf(stderr, "--%s=%s is not a non-negative integer\n", key.c_str(),
            value.c_str());
    exit(2);
  }
  return parsed;
}

struct Args {
  std::string command;
  std::string file;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& dflt) const {
    const auto it = flags.find(key);
    return it == flags.end() ? dflt : it->second;
  }
  size_t GetSize(const std::string& key, size_t dflt) const {
    const auto it = flags.find(key);
    return it == flags.end() ? dflt : ParseSizeOrDie(key, it->second);
  }
  double GetDouble(const std::string& key, double dflt) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return dflt;
    char* end = nullptr;
    const double parsed = strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0' || !(parsed >= 0.0)) {
      fprintf(stderr, "--%s=%s is not a non-negative number\n", key.c_str(),
              it->second.c_str());
      exit(2);
    }
    return parsed;
  }
};

Args Parse(int argc, char** argv) {
  if (argc == 2 && IsHelp(argv[1])) {
    printf("usage: sapla_cli <command> <file> [--key=value ...]\n");
    for (const CommandUsage& c : kCommands)
      printf("  sapla_cli %s %s\n", c.name, c.synopsis);
    exit(0);
  }
  if (argc < 2) Usage();
  const CommandUsage* command = FindCommand(argv[1]);
  if (command == nullptr) Usage();
  // --help anywhere after the command prints that command's usage and does
  // nothing else: no file is read or written.
  for (int i = 2; i < argc; ++i) {
    if (IsHelp(argv[i])) {
      PrintCommandUsage(stdout, *command);
      exit(0);
    }
  }
  if (argc < 3) {
    PrintCommandUsage(stderr, *command);
    exit(2);
  }
  // The positional argument is a file name; a flag in its place is a
  // mistake, never a file to read or create.
  if (std::string(argv[2]).rfind("--", 0) == 0) {
    fprintf(stderr, "sapla_cli %s: expected a file, got '%s'\n", argv[1],
            argv[2]);
    PrintCommandUsage(stderr, *command);
    exit(2);
  }
  // Every flag any command understands; an unrecognized flag is a hard
  // error instead of a silently ignored typo.
  static const char* kKnownFlags[] = {
      "length", "max-series", "znorm",  "method", "m",      "out",
      "format", "query",      "queries", "k",     "tree",   "row",
      "window", "stride",     "dataset", "series", "threads", "fault",
      "shards", "json",       "trace-out", "quant-ab", "quant-coeff"};
  Args args;
  args.command = argv[1];
  args.file = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) Usage();
    const std::string key = arg.substr(2, eq - 2);
    bool known = false;
    for (const char* f : kKnownFlags) known |= key == f;
    if (!known) {
      fprintf(stderr, "unknown flag --%s\n", key.c_str());
      exit(2);
    }
    args.flags[key] = arg.substr(eq + 1);
  }
  return args;
}

Method ParseMethod(const std::string& name) {
  for (const Method m : AllMethods())
    if (MethodName(m) == name) return m;
  fprintf(stderr, "unknown method '%s'\n", name.c_str());
  exit(2);
}

Dataset LoadOrDie(const Args& args) {
  UcrLoadOptions opt;
  opt.target_length = args.GetSize("length", 0);
  opt.max_series = args.GetSize("max-series", 0);
  opt.z_normalize = args.Get("znorm", "1") != "0";
  const auto loaded = LoadUcrDataset(args.file, opt);
  if (!loaded.ok()) {
    fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    exit(1);
  }
  return *loaded;
}

int CmdInfo(const Args& args) {
  const Dataset ds = LoadOrDie(args);
  printf("dataset: %s\n", ds.name.c_str());
  printf("series:  %zu\n", ds.size());
  printf("length:  %zu\n", ds.length());
  std::map<int, size_t> labels;
  for (const TimeSeries& ts : ds.series) ++labels[ts.label];
  printf("classes: %zu (", labels.size());
  bool first = true;
  for (const auto& [label, count] : labels) {
    printf("%s%d:%zu", first ? "" : ", ", label, count);
    first = false;
  }
  printf(")\n");
  return 0;
}

int CmdReduce(const Args& args) {
  const Dataset ds = LoadOrDie(args);
  const Method method = ParseMethod(args.Get("method", "SAPLA"));
  const size_t m = args.GetSize("m", 24);
  const std::string out = args.Get("out", "reps.txt");

  const std::string format = args.Get("format", "v1");
  if (format != "v1" && format != "v2" && format != "v4") {
    fprintf(stderr, "unknown --format '%s' (v1, v2 or v4)\n", format.c_str());
    return 2;
  }
  // Optional fixed-point quantization (reduction/column_codec.h): snaps
  // segment coefficients / transform coefficients to the grid and records
  // the lower-bound slack. Forces the v4 archive (v1/v2 cannot carry the
  // slack column).
  StoreCodecOptions codec;
  codec.ab_step = args.GetDouble("quant-ab", 0.0);
  codec.coeff_step = args.GetDouble("quant-coeff", 0.0);
  if (!codec.lossless() && format != "v4") {
    fprintf(stderr, "--quant-ab/--quant-coeff require --format=v4\n");
    return 2;
  }

  const auto reducer = MakeReducer(method);
  WallTimer timer;
  std::vector<Representation> reps(ds.size());
  ParallelFor(0, ds.size(), [&](size_t i) {
    reps[i] = reducer->Reduce(ds.series[i].values, m);
  });
  double dev = 0.0;
  for (size_t i = 0; i < ds.size(); ++i)
    dev += reps[i].SumMaxDeviation(ds.series[i].values);
  const double seconds = timer.Seconds();
  Status saved = Status::OK();
  if (format == "v2" || format == "v4") {
    RepresentationStore store;
    for (const Representation& rep : reps) store.Append(rep);
    if (!codec.lossless()) {
      auto quantized = QuantizeStore(store, codec);
      if (!quantized.ok()) {
        fprintf(stderr, "%s\n", quantized.status().ToString().c_str());
        return 1;
      }
      store = std::move(quantized).ValueOrDie();
    }
    saved = SaveRepresentationStore(
        out, store, format == "v4" ? StoreFormat::kV4 : StoreFormat::kAuto);
  } else {
    saved = SaveRepresentations(out, reps);
  }
  if (!saved.ok()) {
    fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  printf("%zu series reduced with %s (M=%zu) in %.3fs wall on %zu threads\n",
         ds.size(), MethodName(method).c_str(), m, seconds, NumThreads());
  printf("avg sum-max-deviation: %.4f\n", dev / static_cast<double>(ds.size()));
  printf("wrote %s (%s)\n", out.c_str(), format.c_str());
  return 0;
}

int CmdReconstruct(const Args& args) {
  // LoadRepresentationStore auto-detects the v2 binary format and migrates
  // v1 text; plain LoadRepresentations is the fallback for heterogeneous
  // v1 archives (which have no columnar form).
  std::vector<Representation> reps;
  const auto store = LoadRepresentationStore(args.file);
  if (store.ok()) {
    for (size_t i = 0; i < store->size(); ++i)
      reps.push_back(store->ToRepresentation(i));
  } else {
    const auto loaded = LoadRepresentations(args.file);
    if (!loaded.ok()) {
      // Neither reader accepted the file; show both diagnoses — the store
      // error usually names the corrupt section, the v1 error the line.
      fprintf(stderr, "cannot read %s as a store: %s\n", args.file.c_str(),
              store.status().ToString().c_str());
      fprintf(stderr, "cannot read %s as v1 text: %s\n", args.file.c_str(),
              loaded.status().ToString().c_str());
      return 1;
    }
    reps = *loaded;
  }
  const std::string out = args.Get("out", "recon.tsv");
  Dataset recon;
  recon.name = "reconstruction";
  for (const Representation& rep : reps)
    recon.series.emplace_back(rep.Reconstruct());
  if (Status s = SaveDatasetTsv(out, recon); !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  printf("reconstructed %zu series -> %s\n", reps.size(), out.c_str());
  return 0;
}

int CmdSynth(const Args& args) {
  SyntheticOptions opt;
  opt.length = args.GetSize("length", 256);
  opt.num_series = args.GetSize("series", 40);
  const Dataset ds = MakeSyntheticDataset(args.GetSize("dataset", 0), opt);
  if (Status s = SaveDatasetTsv(args.file, ds); !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  printf("wrote %s: %zu series of length %zu (%s)\n", args.file.c_str(),
         ds.size(), ds.length(), ds.name.c_str());
  return 0;
}

int CmdKnn(const Args& args) {
  const Dataset ds = LoadOrDie(args);
  const Method method = ParseMethod(args.Get("method", "SAPLA"));
  const size_t m = args.GetSize("m", 24);
  const size_t k = args.GetSize("k", 5);
  const IndexKind kind = args.Get("tree", "dbch") == "rtree"
                             ? IndexKind::kRTree
                             : IndexKind::kDbchTree;

  // One row via --query=N, or a comma-separated batch via --queries=a,b,c.
  std::vector<size_t> query_rows;
  if (const std::string list = args.Get("queries", ""); !list.empty()) {
    size_t start = 0;
    while (start <= list.size()) {
      const size_t comma = list.find(',', start);
      const std::string tok = list.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      query_rows.push_back(ParseSizeOrDie("queries", tok));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  } else {
    query_rows.push_back(args.GetSize("query", 0));
  }
  for (const size_t row : query_rows) {
    if (row >= ds.size()) {
      fprintf(stderr, "query row %zu out of range\n", row);
      return 1;
    }
  }

  SimilarityIndex index(method, m, kind);
  BuildInfo info;
  if (Status s = index.Build(ds, &info); !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<std::vector<double>> queries;
  for (const size_t row : query_rows) queries.push_back(ds.series[row].values);
  WallTimer timer;
  const std::vector<KnnResult> results = index.KnnBatch(queries, k);
  const double seconds = timer.Seconds();

  size_t total_measured = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const KnnResult& res = results[qi];
    printf("%zu-NN of row %zu (%s, M=%zu, %s):\n", k, query_rows[qi],
           MethodName(method).c_str(), m,
           kind == IndexKind::kRTree ? "R-tree" : "DBCH-tree");
    for (const auto& [dist, id] : res.neighbors)
      printf("  row %4zu  distance %10.4f  label %d\n", id, dist,
             ds.series[id].label);
    printf("measured %zu/%zu raw series (pruning power %.3f)\n",
           res.num_measured, ds.size(), PruningPower(res, ds.size()));
    total_measured += res.num_measured;
  }
  printf("%zu queries on %zu threads in %.4fs wall (%zu raw measurements)\n",
         queries.size(), NumThreads(), seconds, total_measured);
  return 0;
}

int CmdExplain(const Args& args) {
  const Dataset ds = LoadOrDie(args);
  const Method method = ParseMethod(args.Get("method", "SAPLA"));
  const size_t m = args.GetSize("m", 24);
  const size_t k = args.GetSize("k", 5);
  const size_t row = args.GetSize("query", 0);
  const size_t shards = args.GetSize("shards", 1);
  const bool json = args.Get("json", "0") != "0";
  const std::string trace_out = args.Get("trace-out", "");
  if (row >= ds.size()) {
    fprintf(stderr, "query row %zu out of range\n", row);
    return 1;
  }

  ShardedIndex::Options opt;
  opt.num_shards = shards == 0 ? 1 : shards;
  ShardedIndex index(method, m, IndexKind::kDbchTree, opt);
  if (Status s = index.Build(ds); !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  if (!trace_out.empty()) obs::SetTraceEnabled(true);
  obs::QueryExplain explain;
  {
    obs::TraceContextScope scope(obs::MintTraceContext());
    SAPLA_TRACE_SPAN("cli/explain");
    (void)index.KnnExplain(ds.series[row].values, k, &explain);
  }
  if (!trace_out.empty()) {
    obs::SetTraceEnabled(false);
    if (Status s = obs::WriteChromeTraceStatus(trace_out); !s.ok()) {
      fprintf(stderr, "cannot write %s: %s\n", trace_out.c_str(),
              s.ToString().c_str());
      return 1;
    }
  }

  if (json) {
    printf("%s\n", QueryExplainToJson(explain).c_str());
    return 0;
  }
  printf("query row %zu, k=%zu, %s (M=%zu), %zu shard(s)\n", row, k,
         MethodName(method).c_str(), m, index.num_shards());
  printf("trace_id %llu, total %llu us, epoch %llu, approximate %s\n",
         static_cast<unsigned long long>(explain.trace_id),
         static_cast<unsigned long long>(explain.total_us),
         static_cast<unsigned long long>(explain.epoch_seq),
         explain.approximate ? "yes" : "no");
  for (const obs::StageExplain& stage : explain.stages)
    printf("  stage %-12s %8llu us\n", stage.stage.c_str(),
           static_cast<unsigned long long>(stage.dur_us));
  for (const obs::ShardExplain& part : explain.parts)
    printf("  part  %-12s %8llu us  %s  %zu results  %llu node bounds  "
           "%llu lb evals  %llu measured\n",
           part.part.c_str(), static_cast<unsigned long long>(part.dur_us),
           obs::ExplainHealthName(part.health), part.results,
           static_cast<unsigned long long>(
               part.counters.node_bound_evaluations),
           static_cast<unsigned long long>(part.counters.lb_evaluations),
           static_cast<unsigned long long>(part.counters.exact_evaluations));
  printf("totals: %llu node bounds, %llu lb evals, %llu raw distances\n",
         static_cast<unsigned long long>(
             explain.counters.node_bound_evaluations),
         static_cast<unsigned long long>(explain.counters.lb_evaluations),
         static_cast<unsigned long long>(explain.counters.exact_evaluations));
  return 0;
}

int CmdMotif(const Args& args) {
  const Dataset ds = LoadOrDie(args);
  const size_t row = args.GetSize("row", 0);
  if (row >= ds.size()) {
    fprintf(stderr, "row %zu out of range\n", row);
    return 1;
  }
  SubsequenceIndex::Options opt;
  opt.window = args.GetSize("window", 64);
  opt.budget_m = args.GetSize("m", 24);
  opt.stride = args.GetSize("stride", 1);
  auto index = SubsequenceIndex::Build(ds.series[row].values, opt);
  if (!index.ok()) {
    fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  size_t partner = 0;
  const SubsequenceMatch motif = (*index)->FindMotif(&partner);
  printf("best motif in row %zu (window %zu): offsets %zu and %zu, "
         "distance %.4f\n",
         row, opt.window, motif.offset, partner, motif.distance);
  return 0;
}

int Run(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  SetNumThreads(args.GetSize("threads", 1));  // 0 = hardware concurrency
  // --fault=SPEC arms the fault-injection framework (util/fault.h) for
  // ad-hoc failure-path testing; compiled out under SAPLA_FAULT=OFF.
  if (const std::string spec = args.Get("fault", ""); !spec.empty()) {
    if (const Status st = fault::ConfigureFromSpec(spec); !st.ok()) {
      fprintf(stderr, "bad --fault spec: %s\n", st.ToString().c_str());
      return 2;
    }
  }
  if (args.command == "info") return CmdInfo(args);
  if (args.command == "reduce") return CmdReduce(args);
  if (args.command == "reconstruct") return CmdReconstruct(args);
  if (args.command == "knn") return CmdKnn(args);
  if (args.command == "motif") return CmdMotif(args);
  if (args.command == "synth") return CmdSynth(args);
  if (args.command == "explain") return CmdExplain(args);
  Usage();
}

}  // namespace
}  // namespace sapla

int main(int argc, char** argv) { return sapla::Run(argc, argv); }
