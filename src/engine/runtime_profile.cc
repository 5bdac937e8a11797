#include "engine/runtime_profile.h"

#include <cstdio>
#include <functional>
#include <sstream>
#include <unordered_set>

#include "common/bytes.h"
#include "engine/engine.h"

namespace spangle {

namespace {

const char* kModeNames[kProfileChunkModes] = {"dense", "sparse",
                                              "super-sparse"};

size_t DensityBucket(double density) {
  const auto& bounds = EngineMetrics::DensityBounds();
  size_t b = 0;
  while (b < bounds.size() && density > bounds[b]) ++b;
  return b;
}

std::string HumanUs(uint64_t us) {
  char buf[32];
  if (us < 1000) {
    std::snprintf(buf, sizeof(buf), "%lluus",
                  static_cast<unsigned long long>(us));
  } else if (us < 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(us) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(us) / 1e6);
  }
  return buf;
}

void AppendArrayStats(std::ostream& os, const std::string& indent,
                      const NodeProfileSnapshot& s) {
  if (s.TotalChunksBuilt() > 0) {
    os << indent << "chunk modes:";
    for (int m = 0; m < kProfileChunkModes; ++m) {
      if (s.chunks_built[m] > 0) {
        os << " " << kModeNames[m] << "=" << s.chunks_built[m];
      }
    }
    os << "\n";
  }
  if (s.TotalModeTransitions() > 0) {
    os << indent << "mode transitions:";
    for (int f = 0; f < kProfileChunkModes; ++f) {
      for (int t = 0; t < kProfileChunkModes; ++t) {
        const uint64_t n = s.mode_transitions[f * kProfileChunkModes + t];
        if (n > 0) {
          os << " " << kModeNames[f] << "->" << kModeNames[t] << "=" << n;
        }
      }
    }
    os << "\n";
  }
  if (s.TotalDensityObservations() > 0) {
    os << indent << "density hist (<=";
    const auto& bounds = EngineMetrics::DensityBounds();
    for (size_t b = 0; b < bounds.size(); ++b) {
      if (b > 0) os << ",";
      os << bounds[b];
    }
    os << ",inf): [";
    for (size_t b = 0; b < s.density_hist.size(); ++b) {
      if (b > 0) os << ",";
      os << s.density_hist[b];
    }
    os << "]\n";
  }
}

}  // namespace

NodeProfileSnapshot NodeProfileSnapshot::operator-(
    const NodeProfileSnapshot& rhs) const {
  NodeProfileSnapshot out;
  out.invocations = invocations - rhs.invocations;
  out.cache_hits = cache_hits - rhs.cache_hits;
  out.rows_in = rows_in - rhs.rows_in;
  out.rows_out = rows_out - rhs.rows_out;
  out.bytes_out = bytes_out - rhs.bytes_out;
  out.self_us = self_us - rhs.self_us;
  for (size_t i = 0; i < chunks_built.size(); ++i) {
    out.chunks_built[i] = chunks_built[i] - rhs.chunks_built[i];
  }
  for (size_t i = 0; i < mode_transitions.size(); ++i) {
    out.mode_transitions[i] = mode_transitions[i] - rhs.mode_transitions[i];
  }
  for (size_t i = 0; i < density_hist.size(); ++i) {
    out.density_hist[i] = density_hist[i] - rhs.density_hist[i];
  }
  return out;
}

NodeProfileSnapshot& NodeProfileSnapshot::operator+=(
    const NodeProfileSnapshot& rhs) {
  invocations += rhs.invocations;
  cache_hits += rhs.cache_hits;
  rows_in += rhs.rows_in;
  rows_out += rhs.rows_out;
  bytes_out += rhs.bytes_out;
  self_us += rhs.self_us;
  for (size_t i = 0; i < chunks_built.size(); ++i) {
    chunks_built[i] += rhs.chunks_built[i];
  }
  for (size_t i = 0; i < mode_transitions.size(); ++i) {
    mode_transitions[i] += rhs.mode_transitions[i];
  }
  for (size_t i = 0; i < density_hist.size(); ++i) {
    density_hist[i] += rhs.density_hist[i];
  }
  return *this;
}

uint64_t NodeProfileSnapshot::TotalChunksBuilt() const {
  uint64_t n = 0;
  for (uint64_t c : chunks_built) n += c;
  return n;
}

uint64_t NodeProfileSnapshot::TotalModeTransitions() const {
  uint64_t n = 0;
  for (uint64_t c : mode_transitions) n += c;
  return n;
}

uint64_t NodeProfileSnapshot::TotalDensityObservations() const {
  uint64_t n = 0;
  for (uint64_t c : density_hist) n += c;
  return n;
}

NodeProfileSnapshot NodeProfile::Snapshot() const {
  NodeProfileSnapshot out;
  out.invocations = invocations.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits.load(std::memory_order_relaxed);
  out.rows_in = rows_in.load(std::memory_order_relaxed);
  out.rows_out = rows_out.load(std::memory_order_relaxed);
  out.bytes_out = bytes_out.load(std::memory_order_relaxed);
  out.self_us = self_us.load(std::memory_order_relaxed);
  for (size_t i = 0; i < out.chunks_built.size(); ++i) {
    out.chunks_built[i] = chunks_built[i].load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < out.mode_transitions.size(); ++i) {
    out.mode_transitions[i] =
        mode_transitions[i].load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < out.density_hist.size(); ++i) {
    out.density_hist[i] = density_hist[i].load(std::memory_order_relaxed);
  }
  return out;
}

void RuntimeProfile::Clear() {
  MutexLock lock(&samples_mu_);
  samples_.clear();
}

void RuntimeProfile::RecordChunk(NodeProfile* np, int mode,
                                 uint64_t num_cells, uint64_t num_valid) {
  const double density =
      num_cells > 0
          ? static_cast<double>(num_valid) / static_cast<double>(num_cells)
          : 0.0;
  metrics_->chunk_density.Observe(density);
  if (np == nullptr || mode < 0 || mode >= kProfileChunkModes) return;
  np->chunks_built[mode].fetch_add(1, std::memory_order_relaxed);
  np->density_hist[DensityBucket(density)].fetch_add(
      1, std::memory_order_relaxed);
}

void RuntimeProfile::RecordModeTransition(NodeProfile* np, int from_mode,
                                          int to_mode) {
  metrics_->mode_transitions.fetch_add(1, std::memory_order_relaxed);
  if (np == nullptr || from_mode < 0 || from_mode >= kProfileChunkModes ||
      to_mode < 0 || to_mode >= kProfileChunkModes) {
    return;
  }
  np->mode_transitions[from_mode * kProfileChunkModes + to_mode].fetch_add(
      1, std::memory_order_relaxed);
}

void RuntimeProfile::RecordMaskDensity(NodeProfile* np, uint64_t set_bits,
                                       uint64_t num_bits) {
  const double density =
      num_bits > 0
          ? static_cast<double>(set_bits) / static_cast<double>(num_bits)
          : 0.0;
  metrics_->mask_density.Observe(density);
  if (np == nullptr) return;
  np->density_hist[DensityBucket(density)].fetch_add(
      1, std::memory_order_relaxed);
}

void RuntimeProfile::SampleCounters(uint64_t now_us) {
  CounterSample s;
  s.t_us = now_us;
  s.bytes_cached = metrics_->bytes_cached.load(std::memory_order_relaxed);
  s.shuffle_bytes = metrics_->shuffle_bytes.load(std::memory_order_relaxed);
  s.concurrent_shuffles =
      metrics_->concurrent_shuffles.load(std::memory_order_relaxed);
  MutexLock lock(&samples_mu_);
  while (samples_.size() >= kMaxCounterSamples) samples_.pop_front();
  samples_.push_back(s);
}

std::vector<RuntimeProfile::CounterSample> RuntimeProfile::CounterSamples()
    const {
  MutexLock lock(&samples_mu_);
  return std::vector<CounterSample>(samples_.begin(), samples_.end());
}

std::string AnalyzedPlan::ToString() const {
  std::ostringstream os;
  os << "== Analyzed plan";
  if (!action.empty()) os << ": " << action;
  os << " == wall=" << HumanUs(wall_us)
     << " stages=" << metrics.Value("stages_run") << "\n";
  for (const AnalyzedNode& n : nodes) {
    const std::string base(static_cast<size_t>(n.depth) * 3, ' ');
    os << base;
    if (n.depth > 0) os << "+- ";
    os << n.name << "#" << n.node_id << " [" << n.num_partitions << " parts";
    if (n.is_shuffle) {
      os << (n.was_materialized ? ", shuffle, skipped" : ", shuffle");
    }
    os << "]";
    if (n.reused) {
      os << " (reused above)\n";
      continue;
    }
    const NodeProfileSnapshot& a = n.actuals;
    os << " inv=" << a.invocations;
    if (a.cache_hits > 0) os << " cache_hits=" << a.cache_hits;
    os << " rows_in=" << a.rows_in << " rows_out=" << a.rows_out
       << " bytes_out=" << HumanBytes(a.bytes_out)
       << " self=" << HumanUs(a.self_us) << "\n";
    AppendArrayStats(os, base + (n.depth > 0 ? "   | " : "| "), a);
  }
  os << "totals: rows_out=" << totals.rows_out
     << " bytes_out=" << HumanBytes(totals.bytes_out)
     << " self=" << HumanUs(totals.self_us)
     << " chunks_built=" << totals.TotalChunksBuilt()
     << " mode_transitions=" << totals.TotalModeTransitions() << "\n";
  AppendArrayStats(os, "  ", totals);
  const uint64_t codec_raw = metrics.Value("codec_bytes_raw");
  const uint64_t codec_encoded = metrics.Value("codec_bytes_encoded");
  const uint64_t dedup_hits = metrics.Value("shuffle_block_dedup_hits");
  if (codec_raw > 0 || dedup_hits > 0) {
    os << "codec: raw=" << HumanBytes(codec_raw)
       << " encoded=" << HumanBytes(codec_encoded) << " ("
       << (codec_raw > 0 ? static_cast<double>(codec_encoded) /
                               static_cast<double>(codec_raw)
                         : 0.0)
       << "x) encode=" << HumanUs(metrics.Value("codec_encode_time_us"))
       << " dedup_hits=" << dedup_hits << "\n";
  }
  const uint64_t cache_hits = metrics.Value("result_cache_hits");
  const uint64_t cache_misses = metrics.Value("result_cache_misses");
  const uint64_t queued = metrics.Value("admission_queued");
  const uint64_t rejected = metrics.Value("admission_rejected");
  const uint64_t served = metrics.Value("jobs_served");
  if (cache_hits > 0 || cache_misses > 0 || queued > 0 || rejected > 0 ||
      served > 0) {
    os << "serving: result_cache_hits=" << cache_hits
       << " result_cache_misses=" << cache_misses
       << " admission_queued=" << queued
       << " admission_rejected=" << rejected;
    if (served > 0) {
      // Percentiles over only this run's jobs: the diffed bucket counts.
      const auto p = [this](const char* hist) {
        std::string out;
        for (const double q : {0.50, 0.95, 0.99}) {
          if (!out.empty()) out += "/";
          out += HumanUs(static_cast<uint64_t>(metrics.Percentile(hist, q)));
        }
        return out;
      };
      os << " jobs_served=" << served
         << " wait_p50/p95/p99=" << p("job_queue_wait_us")
         << " run_p50/p95/p99=" << p("job_run_us")
         << " e2e_p50/p95/p99=" << p("job_e2e_us");
    }
    os << "\n";
  }
  const uint64_t roundtrips = metrics.Value("rpc_roundtrips");
  const uint64_t restarts = metrics.Value("executor_restarts");
  const uint64_t hb_misses = metrics.Value("heartbeat_misses");
  if (roundtrips > 0 || restarts > 0 || hb_misses > 0) {
    os << "fleet: rpc_roundtrips=" << roundtrips
       << " sent=" << HumanBytes(metrics.Value("rpc_bytes_sent"))
       << " received=" << HumanBytes(metrics.Value("rpc_bytes_received"))
       << " remote_fetches=" << metrics.Value("remote_shuffle_fetches")
       << " restarts=" << restarts << " heartbeat_misses=" << hb_misses
       << "\n";
  }
  if (!stages.empty()) {
    os << "stages:\n";
    for (const StageStat& s : stages) os << "  " << s.ToString() << "\n";
  }
  return os.str();
}

const AnalyzedNode* AnalyzedPlan::Find(const std::string& name_substr) const {
  for (const AnalyzedNode& n : nodes) {
    if (n.name.find(name_substr) != std::string::npos) return &n;
  }
  return nullptr;
}

ProfiledRun::ProfiledRun(Context* ctx,
                         const std::vector<internal::NodeBase*>& roots,
                         std::string action)
    : ctx_(ctx), action_(std::move(action)) {
  std::unordered_set<uint64_t> visited;
  std::function<void(internal::NodeBase*, int)> walk =
      [&](internal::NodeBase* n, int depth) {
        if (n == nullptr) return;
        AnalyzedNode an;
        an.node_id = n->id();
        an.name = n->name();
        an.depth = depth;
        an.num_partitions = n->num_partitions();
        an.is_shuffle = n->IsShuffle();
        an.was_materialized = an.is_shuffle && n->IsMaterialized();
        an.reused = visited.count(an.node_id) > 0;
        an.actuals = n->profile().Snapshot();
        nodes_.push_back(std::move(an));
        profiles_.push_back(&n->profile());
        if (nodes_.back().reused) return;
        visited.insert(n->id());
        for (internal::NodeBase* p : n->Parents()) walk(p, depth + 1);
      };
  for (internal::NodeBase* r : roots) walk(r, 0);
  const auto stats = ctx_->metrics().StageStats();
  first_stage_seq_ = stats.empty() ? 0 : stats.back().seq + 1;
  start_metrics_ = ctx_->metrics().registry().Snapshot();
  start_us_ = ctx_->NowMicros();
}

AnalyzedPlan ProfiledRun::Finish() {
  AnalyzedPlan plan;
  plan.action = action_;
  plan.wall_us = ctx_->NowMicros() - start_us_;
  plan.metrics = ctx_->metrics().registry().Snapshot() - start_metrics_;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    AnalyzedNode& an = nodes_[i];
    an.actuals = profiles_[i]->Snapshot() - an.actuals;
    if (!an.reused) plan.totals += an.actuals;
  }
  plan.nodes = std::move(nodes_);
  for (const StageStat& s : ctx_->metrics().StageStats()) {
    if (s.seq >= first_stage_seq_) plan.stages.push_back(s);
  }
  return plan;
}

}  // namespace spangle
