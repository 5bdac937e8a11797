#include "engine/metrics_export.h"

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/first_seen_groups.h"

// Lock-free by construction: every reader here consumes either atomic
// counters or a value snapshot (EngineMetrics::StageStats() copies the
// ring under EngineMetrics::stage_mu_ before returning), so no function
// in this TU takes a lock or needs thread-safety annotations.

namespace spangle {

namespace {

/// Formats a double as a valid JSON number (no inf/nan, which JSON
/// forbids; both are clamped to 0).
std::string JsonNumber(double v) {
  if (!(v == v) || v > 1e308 || v < -1e308) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// The body shared by both MetricsJson overloads: everything inside the
/// outer object except the optional "fleet" array and the closing brace.
void AppendMetricsJsonBody(const EngineMetrics& metrics,
                           std::ostringstream& os) {
  os << "{\"metrics\":[";
  bool first = true;
  for (const MetricDef& m : metrics.registry().metrics()) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << JsonEscape(m.name) << "\",\"kind\":\""
       << MetricKindName(m.kind) << "\",\"unit\":\"" << JsonEscape(m.unit)
       << "\",\"help\":\"" << JsonEscape(m.help) << "\"";
    if (m.kind == MetricKind::kHistogram) {
      os << ",\"count\":" << m.histogram->count()
         << ",\"sum\":" << JsonNumber(m.histogram->sum()) << ",\"bounds\":[";
      const auto& bounds = m.histogram->bounds();
      for (size_t i = 0; i < bounds.size(); ++i) {
        if (i > 0) os << ",";
        os << JsonNumber(bounds[i]);
      }
      os << "],\"bucket_counts\":[";
      const auto counts = m.histogram->BucketCounts();
      for (size_t i = 0; i < counts.size(); ++i) {
        if (i > 0) os << ",";
        os << counts[i];
      }
      os << "]";
    } else {
      os << ",\"value\":" << m.value->load(std::memory_order_relaxed);
    }
    os << "}";
  }
  os << "],\"stage_stats\":{\"retained\":" << metrics.StageStats().size()
     << ",\"dropped\":" << metrics.stage_stats_dropped() << "}";
}

}  // namespace

std::string MetricsJson(const EngineMetrics& metrics) {
  std::ostringstream os;
  AppendMetricsJsonBody(metrics, os);
  os << "}";
  return os.str();
}

std::string MetricsJson(const EngineMetrics& metrics,
                        const std::vector<FleetExecutorStats>& fleet) {
  std::ostringstream os;
  AppendMetricsJsonBody(metrics, os);
  os << ",\"fleet\":[";
  bool first_exec = true;
  for (const FleetExecutorStats& e : fleet) {
    if (!first_exec) os << ",";
    first_exec = false;
    os << "{\"executor\":" << e.executor
       << ",\"scraped\":" << (e.scraped ? "true" : "false")
       << ",\"blocks_held\":" << e.blocks_held
       << ",\"bytes_in_memory\":" << e.bytes_in_memory
       << ",\"spans_dropped\":" << e.spans_dropped
       << ",\"clock_offset_us\":" << e.clock_offset_us
       << ",\"restarts\":" << e.restarts << ",\"metrics\":[";
    for (size_t i = 0; i < e.metric_names.size(); ++i) {
      if (i > 0) os << ",";
      const MetricKind kind = static_cast<MetricKind>(e.metric_kinds[i]);
      os << "{\"name\":\"" << JsonEscape(e.metric_names[i])
         << "\",\"kind\":\"" << MetricKindName(kind)
         << "\",\"value\":" << e.metric_values[i] << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

std::string MetricsPrometheus(const EngineMetrics& metrics,
                              const std::string& prefix) {
  std::ostringstream os;
  for (const MetricDef& m : metrics.registry().metrics()) {
    const std::string name = prefix + m.name;
    // HELP text: Prometheus escapes only backslash and newline here.
    std::string help;
    for (char c : m.help) {
      if (c == '\\') {
        help += "\\\\";
      } else if (c == '\n') {
        help += "\\n";
      } else {
        help += c;
      }
    }
    os << "# HELP " << name << " " << help << "\n";
    if (m.kind == MetricKind::kHistogram) {
      os << "# TYPE " << name << " histogram\n";
      const auto& bounds = m.histogram->bounds();
      const auto counts = m.histogram->BucketCounts();
      uint64_t cumulative = 0;
      for (size_t i = 0; i < bounds.size(); ++i) {
        cumulative += counts[i];
        char bound[64];
        std::snprintf(bound, sizeof(bound), "%g", bounds[i]);
        os << name << "_bucket{le=\"" << bound << "\"} " << cumulative
           << "\n";
      }
      cumulative += counts[bounds.size()];
      os << name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
      char sum[64];
      std::snprintf(sum, sizeof(sum), "%g", m.histogram->sum());
      os << name << "_sum " << sum << "\n";
      os << name << "_count " << m.histogram->count() << "\n";
    } else {
      const bool gauge = m.kind == MetricKind::kGauge;
      os << "# TYPE " << name << " " << (gauge ? "gauge" : "counter")
         << "\n";
      os << name << " " << m.value->load(std::memory_order_relaxed) << "\n";
    }
  }
  return os.str();
}

std::string MetricsPrometheus(const EngineMetrics& metrics,
                              const std::vector<FleetExecutorStats>& fleet,
                              const std::string& prefix) {
  std::ostringstream os;
  os << MetricsPrometheus(metrics, prefix);

  // Driver-side per-executor families. All series of a family are grouped
  // under one # HELP/# TYPE pair, as the exposition format requires.
  struct Family {
    const char* name;
    const char* type;
    const char* help;
    uint64_t (*value)(const FleetExecutorStats&);
  };
  static const Family kFamilies[] = {
      {"executor_blocks_held", "gauge",
       "Blocks resident on the executor daemon (last heartbeat/scrape)",
       [](const FleetExecutorStats& e) { return e.blocks_held; }},
      {"executor_bytes_in_memory", "gauge",
       "Bytes resident in the executor daemon's block store",
       [](const FleetExecutorStats& e) { return e.bytes_in_memory; }},
      {"executor_spans_dropped", "counter",
       "Trace spans the executor daemon dropped to span-ring overflow",
       [](const FleetExecutorStats& e) { return e.spans_dropped; }},
      // Named apart from the registry-wide spangle_executor_restarts
      // counter (total across slots): one family name may not carry two
      // TYPE lines in a single exposition.
      {"executor_slot_restarts", "counter",
       "Times this executor slot's daemon was respawned after a failure",
       [](const FleetExecutorStats& e) { return e.restarts; }},
  };
  for (const Family& fam : kFamilies) {
    const std::string name = prefix + fam.name;
    os << "# HELP " << name << " " << fam.help << "\n";
    os << "# TYPE " << name << " " << fam.type << "\n";
    for (const FleetExecutorStats& e : fleet) {
      os << name << "{executor=\"" << e.executor << "\"} " << fam.value(e)
         << "\n";
    }
  }
  // Clock offset is signed (daemon epoch minus driver epoch), so it gets
  // its own emission instead of squeezing through the uint64 accessor.
  {
    const std::string name = prefix + "executor_clock_offset_us";
    os << "# HELP " << name
       << " Estimated daemon clock offset vs the driver trace epoch"
       << "\n";
    os << "# TYPE " << name << " gauge\n";
    for (const FleetExecutorStats& e : fleet) {
      os << name << "{executor=\"" << e.executor << "\"} "
         << e.clock_offset_us << "\n";
    }
  }

  // Scraped daemon-registry scalars, pivoted so every metric name becomes
  // one family with an executor="N" series per daemon (the scrapes all
  // come from the same binary, but a family is emitted as long as at
  // least one daemon reported it).
  struct Pivot {
    uint8_t kind = 0;
    std::vector<std::pair<int, uint64_t>> series;
  };
  internal::FirstSeenGroups<std::string, Pivot> pivot;
  for (const FleetExecutorStats& e : fleet) {
    for (size_t i = 0; i < e.metric_names.size(); ++i) {
      Pivot& p = pivot[e.metric_names[i]];
      if (p.series.empty()) p.kind = e.metric_kinds[i];
      p.series.emplace_back(e.executor, e.metric_values[i]);
    }
  }
  for (const auto& [metric, p] : pivot.Take()) {
    const std::string name = prefix + "executor_daemon_" + metric;
    // Timers (and the flattened histogram _count/_sum pairs) export as
    // counters, matching the single-process exposition.
    const bool gauge = p.kind == static_cast<uint8_t>(MetricKind::kGauge);
    os << "# HELP " << name << " Executor daemon metric " << metric << "\n";
    os << "# TYPE " << name << " " << (gauge ? "gauge" : "counter") << "\n";
    for (const auto& [executor, value] : p.series) {
      os << name << "{executor=\"" << executor << "\"} " << value << "\n";
    }
  }
  return os.str();
}

bool WriteStringToFile(const std::string& content, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = std::fclose(f) == 0 && written == content.size();
  return ok;
}

}  // namespace spangle
