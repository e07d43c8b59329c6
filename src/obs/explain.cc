#include "obs/explain.h"

#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <utility>

namespace sapla {
namespace obs {
namespace {

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

// Doubles render finite values plainly and non-finite ones as null (NaN is
// not valid JSON).
void AppendDouble(std::string* out, double v) {
  if (std::isfinite(v)) {
    AppendF(out, "%.17g", v);
  } else {
    *out += "null";
  }
}

void AppendCounters(std::string* out, const SearchCounters& c) {
  AppendF(out,
          "{\"nodes_visited_internal\":%" PRIu64
          ",\"nodes_visited_leaf\":%" PRIu64 ",\"nodes_pruned\":%" PRIu64
          ",\"node_bound_evaluations\":%" PRIu64
          ",\"lb_evaluations\":%" PRIu64 ",\"exact_evaluations\":%" PRIu64
          ",\"entries_pruned_leaf\":%" PRIu64
          ",\"entries_pruned_node\":%" PRIu64 ",\"mean_tightness\":",
          c.nodes_visited_internal, c.nodes_visited_leaf, c.nodes_pruned,
          c.node_bound_evaluations, c.lb_evaluations, c.exact_evaluations, c.entries_pruned_leaf,
          c.entries_pruned_node);
  AppendDouble(out, c.MeanTightness());
  AppendF(out, ",\"cascade_stage\":\"%s\"}",
          CascadeStageName(c.cascade_stage));
}

}  // namespace

const char* ExplainHealthName(int health) {
  switch (health) {
    case 0:
      return "healthy";
    case 1:
      return "degraded";
    case 2:
      return "unhealthy";
  }
  return "unknown";
}

std::string QueryExplainToJson(const QueryExplain& explain) {
  std::string out;
  AppendF(&out,
          "{\"trace_id\":%" PRIu64 ",\"total_us\":%" PRIu64
          ",\"epoch_seq\":%" PRIu64 ",\"approximate\":%s,\"counters\":",
          explain.trace_id, explain.total_us, explain.epoch_seq,
          explain.approximate ? "true" : "false");
  AppendCounters(&out, explain.counters);
  out += ",\"stages\":[";
  for (size_t i = 0; i < explain.stages.size(); ++i) {
    const StageExplain& s = explain.stages[i];
    AppendF(&out, "%s{\"stage\":\"%s\",\"dur_us\":%" PRIu64 "}",
            i == 0 ? "" : ",", s.stage.c_str(), s.dur_us);
  }
  out += "],\"parts\":[";
  for (size_t i = 0; i < explain.parts.size(); ++i) {
    const ShardExplain& p = explain.parts[i];
    AppendF(&out,
            "%s{\"part\":\"%s\",\"health\":\"%s\",\"dur_us\":%" PRIu64
            ",\"results\":%zu,\"counters\":",
            i == 0 ? "" : ",", p.part.c_str(), ExplainHealthName(p.health),
            p.dur_us, p.results);
    AppendCounters(&out, p.counters);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string SlowQueryRecordToJson(const SlowQueryRecord& record) {
  std::string out;
  AppendF(&out,
          "{\"trace_id\":%" PRIu64 ",\"op\":\"%s\",\"k\":%zu,\"radius\":",
          record.trace_id, record.op.c_str(), record.k);
  AppendDouble(&out, record.radius);
  AppendF(&out,
          ",\"status\":\"%s\",\"cache_hit\":%s,\"approximate\":%s,"
          "\"degraded\":%s,\"retry\":%s,\"hedge\":%s,\"queue_us\":%" PRIu64
          ",\"exec_us\":%" PRIu64 ",\"total_us\":%" PRIu64 ",\"explain\":",
          record.status.c_str(), record.cache_hit ? "true" : "false",
          record.approximate ? "true" : "false",
          record.degraded ? "true" : "false",
          record.retry ? "true" : "false", record.hedge ? "true" : "false",
          record.queue_us, record.exec_us, record.total_us);
  out += QueryExplainToJson(record.explain);
  out += '}';
  return out;
}

SlowQueryLog::SlowQueryLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void SlowQueryLog::Add(std::string json_record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(json_record));
  while (records_.size() > capacity_) records_.pop_front();
  ++total_;
}

std::vector<std::string> SlowQueryLog::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {records_.begin(), records_.end()};
}

uint64_t SlowQueryLog::total_logged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

bool SlowQueryLog::WriteJsonArray(const std::string& path) const {
  const std::vector<std::string> records = Records();
  const std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = fputc('[', f) != EOF;
  for (size_t i = 0; i < records.size() && ok; ++i) {
    if (i > 0) ok = fputc(',', f) != EOF;
    if (ok) ok = fputc('\n', f) != EOF;
    if (ok)
      ok = fwrite(records[i].data(), 1, records[i].size(), f) ==
           records[i].size();
  }
  if (ok) ok = fputs("\n]\n", f) != EOF;
  if (ok) ok = fflush(f) == 0;
  if (fclose(f) != 0 || !ok) {
    remove(tmp.c_str());
    return false;
  }
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace obs
}  // namespace sapla
