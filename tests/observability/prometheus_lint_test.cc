// Prometheus exposition-format lint (satellite of the tracing PR): every
// series the exporters emit must belong to a family introduced by a
// single preceding # TYPE line, metric and label names must be legal,
// and histogram families must expose strictly increasing `le` bounds
// with monotonically non-decreasing cumulative counts ending at +Inf,
// where the +Inf bucket equals <name>_count. The lint runs over the
// plain exposition and over the fleet-labeled overload (synthetic
// executor stats, so no daemons are needed).

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/metrics_export.h"
#include "engine/trace.h"

namespace spangle {
namespace {

bool LegalMetricName(const std::string& s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  };
  if (!head(s[0])) return false;
  for (char c : s) {
    if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

bool LegalLabelName(const std::string& s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_') {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

struct Family {
  std::string type;
  bool has_help = false;
  // Histogram bookkeeping: (le, cumulative) in emission order, plus the
  // final _count value.
  std::vector<std::pair<std::string, double>> buckets;
  bool saw_count = false;
  double count = 0;
};

/// Lints `text` as Prometheus text exposition format 0.0.4. Returns every
/// violation found (empty = clean).
std::vector<std::string> LintPrometheus(const std::string& text) {
  std::vector<std::string> errs;
  std::map<std::string, Family> families;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto fail = [&](const std::string& why) {
      errs.push_back("line " + std::to_string(lineno) + ": " + why + ": " +
                     line);
    };
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, keyword, name;
      ls >> hash >> keyword >> name;
      if (keyword == "HELP") {
        families[name].has_help = true;
      } else if (keyword == "TYPE") {
        std::string type;
        ls >> type;
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          fail("illegal TYPE '" + type + "'");
        }
        if (!families[name].type.empty()) fail("duplicate TYPE for " + name);
        if (!LegalMetricName(name)) fail("illegal family name");
        families[name].type = type;
      } else {
        // Plain comment: legal, ignored.
      }
      continue;
    }

    // Series line: name[{labels}] value
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    const std::string name = line.substr(0, i);
    if (!LegalMetricName(name)) {
      fail("illegal metric name");
      continue;
    }
    std::string le;  // captured for histogram buckets
    if (i < line.size() && line[i] == '{') {
      const size_t close = line.find('}', i);
      if (close == std::string::npos) {
        fail("unterminated label set");
        continue;
      }
      // label="value" pairs, comma separated.
      size_t p = i + 1;
      while (p < close) {
        const size_t eq = line.find('=', p);
        if (eq == std::string::npos || eq > close) {
          fail("label without '='");
          break;
        }
        const std::string lname = line.substr(p, eq - p);
        if (!LegalLabelName(lname)) fail("illegal label name '" + lname + "'");
        if (eq + 1 >= close || line[eq + 1] != '"') {
          fail("unquoted label value");
          break;
        }
        size_t vend = eq + 2;
        while (vend < close && line[vend] != '"') {
          if (line[vend] == '\\') ++vend;
          ++vend;
        }
        if (vend >= close) {
          fail("unterminated label value");
          break;
        }
        if (lname == "le") le = line.substr(eq + 2, vend - (eq + 2));
        p = vend + 1;
        if (p < close && line[p] == ',') ++p;
      }
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      fail("missing value separator");
      continue;
    }
    const std::string value_str = line.substr(i + 1);
    char* end = nullptr;
    const double value = std::strtod(value_str.c_str(), &end);
    if (end == value_str.c_str() || *end != '\0') {
      fail("unparseable sample value '" + value_str + "'");
      continue;
    }

    // Resolve the family this series belongs to: exact name, or the
    // _bucket/_sum/_count satellites of a histogram family.
    std::string fam_name = name;
    auto strip = [&](const char* suffix) {
      const std::string suf(suffix);
      if (name.size() > suf.size() &&
          name.compare(name.size() - suf.size(), suf.size(), suf) == 0) {
        const std::string base = name.substr(0, name.size() - suf.size());
        auto it = families.find(base);
        if (it != families.end() && it->second.type == "histogram") {
          fam_name = base;
          return true;
        }
      }
      return false;
    };
    const bool is_bucket = strip("_bucket");
    bool is_count_series = false;
    if (!is_bucket) {
      is_count_series = strip("_count");
      if (!is_count_series) strip("_sum");
    }
    auto it = families.find(fam_name);
    if (it == families.end() || it->second.type.empty()) {
      fail("series without a preceding # TYPE family");
      continue;
    }
    Family& fam = it->second;
    if (!fam.has_help) fail("family " + fam_name + " missing # HELP");
    if (fam.type == "histogram") {
      if (is_bucket) {
        if (le.empty()) fail("histogram bucket without le label");
        fam.buckets.emplace_back(le, value);
      } else if (is_count_series) {
        fam.saw_count = true;
        fam.count = value;
      }
    }
  }

  // Post-pass: histogram bucket invariants.
  for (const auto& [name, fam] : families) {
    if (fam.type != "histogram") continue;
    if (fam.buckets.empty()) {
      errs.push_back("histogram " + name + " has no buckets");
      continue;
    }
    if (fam.buckets.back().first != "+Inf") {
      errs.push_back("histogram " + name + " does not end at le=\"+Inf\"");
    }
    double prev_le = -1e308;
    double prev_cum = -1;
    for (const auto& [le, cum] : fam.buckets) {
      const double b =
          le == "+Inf" ? 1e308 : std::strtod(le.c_str(), nullptr);
      if (b <= prev_le) {
        errs.push_back("histogram " + name + " le bounds not increasing");
      }
      if (cum < prev_cum) {
        errs.push_back("histogram " + name +
                       " cumulative bucket counts decreased");
      }
      prev_le = b;
      prev_cum = cum;
    }
    if (!fam.saw_count) {
      errs.push_back("histogram " + name + " missing _count");
    } else if (fam.buckets.back().second != fam.count) {
      errs.push_back("histogram " + name + " +Inf bucket != _count");
    }
  }
  return errs;
}

std::string JoinErrors(const std::vector<std::string>& errs) {
  std::string out;
  for (const auto& e : errs) out += e + "\n";
  return out;
}

// ---------------------------------------------------------------------
// The lint itself must catch violations (meta-test).

TEST(PrometheusLintTest, CatchesViolations) {
  EXPECT_FALSE(LintPrometheus("orphan_series 1\n").empty());
  EXPECT_FALSE(
      LintPrometheus("# HELP x h\n# TYPE x bogus\nx 1\n").empty());
  EXPECT_FALSE(
      LintPrometheus("# HELP 9bad h\n# TYPE 9bad counter\n9bad 1\n")
          .empty());
  EXPECT_FALSE(LintPrometheus("# HELP x h\n# TYPE x counter\n"
                              "x{9label=\"v\"} 1\n")
                   .empty());
  // Decreasing cumulative buckets.
  EXPECT_FALSE(LintPrometheus("# HELP h h\n# TYPE h histogram\n"
                              "h_bucket{le=\"1\"} 5\n"
                              "h_bucket{le=\"2\"} 3\n"
                              "h_bucket{le=\"+Inf\"} 3\n"
                              "h_sum 9\nh_count 3\n")
                   .empty());
  // Missing +Inf.
  EXPECT_FALSE(LintPrometheus("# HELP h h\n# TYPE h histogram\n"
                              "h_bucket{le=\"1\"} 5\n"
                              "h_sum 9\nh_count 5\n")
                   .empty());
  // A clean minimal exposition passes.
  EXPECT_TRUE(LintPrometheus("# HELP ok h\n# TYPE ok counter\nok 1\n"
                             "# HELP h h\n# TYPE h histogram\n"
                             "h_bucket{le=\"1\"} 2\n"
                             "h_bucket{le=\"+Inf\"} 4\n"
                             "h_sum 9\nh_count 4\n")
                  .empty());
}

// ---------------------------------------------------------------------
// Real expositions must pass the lint.

TEST(PrometheusLintTest, EngineExpositionIsClean) {
  Context ctx(2, 4);
  std::vector<int> data(300);
  for (int i = 0; i < 300; ++i) data[i] = i;
  auto pairs =
      PairRdd<int, int>(ctx.Parallelize(std::move(data)).Map([](const int& v) {
        return std::pair<int, int>(v % 11, 1);
      })).ReduceByKey([](const int& a, const int& b) { return a + b; });
  ASSERT_EQ(pairs.Collect().size(), 11u);

  const std::string prom = ctx.MetricsPrometheus();
  ASSERT_FALSE(prom.empty());
  const auto errs = LintPrometheus(prom);
  EXPECT_TRUE(errs.empty()) << JoinErrors(errs);
}

TEST(PrometheusLintTest, FleetExpositionIsClean) {
  // Synthetic scraped stats exercise the fleet families and the
  // daemon-registry pivot without spawning daemons.
  EngineMetrics metrics;
  metrics.tasks_run.fetch_add(3);
  metrics.heartbeat_rtt_us.Observe(120.0);
  metrics.heartbeat_rtt_us.Observe(90000.0);  // overflow bucket

  std::vector<FleetExecutorStats> fleet(2);
  for (int w = 0; w < 2; ++w) {
    FleetExecutorStats& e = fleet[static_cast<size_t>(w)];
    e.executor = w;
    e.scraped = true;
    e.blocks_held = 4 + static_cast<uint64_t>(w);
    e.bytes_in_memory = 1 << 20;
    e.spans_dropped = w == 1 ? 2 : 0;
    e.clock_offset_us = -1500 + w;
    e.restarts = static_cast<uint64_t>(w);
    e.metric_names = {"bytes_cached", "tasks_run",
                      "task_duration_us_count", "task_duration_us_sum"};
    e.metric_kinds = {1, 0, 0, 0};
    e.metric_values = {123, 17, 17, 99999};
  }

  const std::string prom = MetricsPrometheus(metrics, fleet);
  const auto errs = LintPrometheus(prom);
  EXPECT_TRUE(errs.empty()) << JoinErrors(errs);

  EXPECT_NE(prom.find("spangle_executor_blocks_held{executor=\"1\"} 5"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE spangle_executor_daemon_bytes_cached gauge"),
            std::string::npos);
  EXPECT_NE(
      prom.find("spangle_executor_daemon_tasks_run{executor=\"0\"} 17"),
      std::string::npos);
  EXPECT_NE(prom.find("spangle_executor_clock_offset_us{executor=\"0\"} "
                      "-1500"),
            std::string::npos);
}

TEST(PrometheusLintTest, HistogramBucketsAreCumulativeAndEndAtInf) {
  EngineMetrics metrics;
  // One observation per bucket region, plus overflow past the last bound.
  const std::vector<double>& bounds = EngineMetrics::RttBoundsUs();
  for (double b : bounds) metrics.heartbeat_rtt_us.Observe(b);
  metrics.heartbeat_rtt_us.Observe(bounds.back() * 10);

  const std::string prom = MetricsPrometheus(metrics);
  const auto errs = LintPrometheus(prom);
  EXPECT_TRUE(errs.empty()) << JoinErrors(errs);
  EXPECT_NE(prom.find("spangle_heartbeat_rtt_us_bucket{le=\"+Inf\"} "),
            std::string::npos);
  EXPECT_EQ(metrics.heartbeat_rtt_us.count(), bounds.size() + 1);
}

}  // namespace
}  // namespace spangle
