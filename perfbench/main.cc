// End-to-end benchmark entry point.
//
//   perfbench --workload <knn-static|serve-cold-skewed|ingest-churn>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for about `seconds` of measurement and prints, as the
// last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end figures; with --trace 1 the
// workload also decomposes its work layer by layer and the metrics are the
// per-layer figures. Progress and diagnostics go to standard error.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

void Usage() {
  fprintf(stderr,
          "usage: perfbench --workload <knn-static|serve-cold-skewed|"
          "ingest-churn> --seed <n> --seconds <s> --trace <0|1>\n");
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

void PrintMetrics(const std::vector<perfbench::Metric>& metrics) {
  printf("\"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    // A non-finite value has already marked the run incorrect; print 0 so
    // the line stays valid JSON.
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
           m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
           m.unit.c_str());
  }
  printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      config.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number >= 1 && number <= 600) {
      config.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      config.trace = number == 1;
      have_trace = true;
    } else {
      Usage();
      return 2;
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage();
    return 2;
  }

  perfbench::Report report;
  try {
    if (workload == "knn-static") {
      report = perfbench::RunKnnStatic(config);
    } else if (workload == "serve-cold-skewed") {
      report = perfbench::RunServeColdSkewed(config);
    } else if (workload == "ingest-churn") {
      report = perfbench::RunIngestChurn(config);
    } else {
      fprintf(stderr, "perfbench: unknown workload \"%s\"\n", workload.c_str());
      Usage();
      return 2;
    }
  } catch (const std::exception& e) {
    fprintf(stderr, "perfbench: %s aborted: %s\n", workload.c_str(), e.what());
    return 1;
  }

  const auto& metrics = config.trace ? report.per_layer : report.end_to_end;
  for (const perfbench::Metric& m : metrics) {
    fprintf(stderr, "  %-40s %16.6f %s\n", m.name.c_str(), m.value,
            m.unit.c_str());
    if (!std::isfinite(m.value))
      report.Incorrect("metric " + m.name + " is not a finite number");
  }
  fflush(stderr);
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
         report.correct ? "true" : "false",
         static_cast<unsigned long long>(report.attempted),
         static_cast<unsigned long long>(report.failed));
  PrintMetrics(metrics);
  printf("}\n");
  return 0;
}
