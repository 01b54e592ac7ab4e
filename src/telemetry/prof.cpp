#include "telemetry/prof.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fastflex::telemetry {

namespace {

// Same round-trip formatting as the exporter: deterministic "%.17g",
// non-finite -> null.
std::string NumToJson(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The cost of one steady_clock read: the best of a few timed loops, so a
// preempted loop does not inflate it.  Runs once per process.
double CalibrateClockReadNs() {
  using Clock = std::chrono::steady_clock;
  constexpr int kReads = 2048;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    auto last = t0;
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    const double per = std::chrono::duration<double, std::nano>(last - t0).count() / kReads;
    if (rep == 0 || per < best) best = per;
  }
  return best;
}

}  // namespace

const char* ProfSiteName(ProfSite site) {
  switch (site) {
    case ProfSite::kEventDispatch: return "event_dispatch";
    case ProfSite::kPipelineWalk: return "pipeline_walk";
    case ProfSite::kHostStack: return "host_stack";
    case ProfSite::kModeProtocol: return "mode_protocol";
    case ProfSite::kFaultInject: return "fault_inject";
    case ProfSite::kExport: return "export";
    case ProfSite::kSiteCount: break;
  }
  return "unknown";
}

Profiler::Profiler() {
  std::fill(root_child_, root_child_ + kSiteCount, nullptr);
}

void Profiler::Enable(std::uint32_t stride) {
  if (stride == 0) stride = 1;
  std::uint32_t pow2 = 1;
  while (pow2 < stride) pow2 <<= 1;
  mask_ = pow2 - 1;
  enabled_ = true;
  static const double kClockReadNs = CalibrateClockReadNs();
  clock_read_ns_ = kClockReadNs;
  // Reserve the full arena first: node pointers must stay stable for the
  // lifetime of the profiler (the tree links by pointer).  Then pre-create
  // the top-level node of every site: the tree shape starts deterministic,
  // and the saturation fallback in ChildOf always has a valid root node to
  // attribute to.
  nodes_.reserve(kMaxNodes);
  for (std::size_t s = 0; s < kSiteCount; ++s) {
    (void)ChildOf(nullptr, static_cast<ProfSite>(s));
  }
  // Size the region array once so the per-delivery tally is branch-free
  // (beyond the clamp); empty regions are skipped at export.
  regions_.resize(kMaxRegions);
}

void ProfScope::Open(Profiler* prof, Profiler::Node* parent, ProfSite site) {
  prof_ = prof;
  parent_ = parent;
  node_ = prof->ChildOf(parent, site);
  prof->cur_ = node_;
  reads0_ = ++prof->clock_reads_;
  t0_ns_ = std::chrono::steady_clock::now().time_since_epoch().count();
}

void ProfScope::Close() {
  const std::int64_t now_ns = std::chrono::steady_clock::now().time_since_epoch().count();
  // Reads taken by samples nested in this one, between its own two.
  const std::uint64_t inner = prof_->clock_reads_ - reads0_;
  ++prof_->clock_reads_;
  prof_->cur_ = parent_;
  ++node_->samples;
  node_->sampled_ns += Profiler::DebiasNs(now_ns - t0_ns_, inner, prof_->clock_read_ns_);
}

void Profiler::RegionBinSample(std::uint32_t region, SimTime t) {
  RegionStat& r = regions_[region];
  const auto bin = static_cast<std::size_t>(t / kDensityBin);
  if (bin >= r.bins.size()) r.bins.resize(bin + 1, 0);
  ++r.bins[bin];
}

Profiler::Node* Profiler::ChildOf(Node* parent, ProfSite site) {
  const auto idx = static_cast<std::size_t>(site);
  Node*& slot = parent != nullptr ? parent->child[idx] : root_child_[idx];
  if (slot != nullptr) return slot;
  if (nodes_.size() >= kMaxNodes) {
    // Tree saturated (possible only under pathological nesting cycles):
    // attribute to the site's root node rather than growing forever.
    return root_child_[idx];
  }

  nodes_.emplace_back();  // within reserved capacity: no reallocation
  Node& n = nodes_.back();
  n.site = site;
  n.parent = parent;
  std::fill(n.child, n.child + kSiteCount, nullptr);
  slot = &n;
  return &n;
}

void Profiler::MergeFrom(const Profiler& other) {
  for (std::size_t s = 0; s < kSiteCount; ++s) site_calls_[s] += other.site_calls_[s];
  clock_reads_ += other.clock_reads_;
  // Walk the other tree in creation order: parents are always created
  // before their children, so by the time a node is visited its parent's
  // counterpart in this tree already exists in `map`.
  if (!other.nodes_.empty()) {
    if (nodes_.capacity() < kMaxNodes) nodes_.reserve(kMaxNodes);
    std::vector<Node*> map(other.nodes_.size(), nullptr);
    for (std::size_t i = 0; i < other.nodes_.size(); ++i) {
      const Node& theirs = other.nodes_[i];
      Node* parent = nullptr;
      if (theirs.parent != nullptr) parent = map[theirs.parent - other.nodes_.data()];
      Node* mine = ChildOf(parent, theirs.site);
      map[i] = mine;
      mine->samples += theirs.samples;
      mine->sampled_ns += theirs.sampled_ns;
    }
  }
  if (!other.regions_.empty()) {
    if (regions_.size() < other.regions_.size()) regions_.resize(other.regions_.size());
    for (std::size_t r = 0; r < other.regions_.size(); ++r) {
      const RegionStat& theirs = other.regions_[r];
      RegionStat& mine = regions_[r];
      mine.events += theirs.events;
      if (mine.bins.size() < theirs.bins.size()) mine.bins.resize(theirs.bins.size(), 0);
      for (std::size_t b = 0; b < theirs.bins.size(); ++b) mine.bins[b] += theirs.bins[b];
    }
  }
  occupancy_.Merge(other.occupancy_);
  export_ns_ += other.export_ns_;
  shard_sync_.insert(shard_sync_.end(), other.shard_sync_.begin(), other.shard_sync_.end());
  region_tick_ += other.region_tick_;
}

bool Profiler::HasData() const {
  for (std::size_t s = 0; s < kSiteCount; ++s) {
    if (site_calls_[s] > 0) return true;
  }
  if (!nodes_.empty() || occupancy_.count() > 0 || !shard_sync_.empty()) return true;
  for (const auto& r : regions_) {
    if (r.events > 0) return true;
  }
  return false;
}

std::string Profiler::PathOf(std::size_t node_index) const {
  if (node_index >= nodes_.size()) return "";
  std::string path = ProfSiteName(nodes_[node_index].site);
  for (const Node* p = nodes_[node_index].parent; p != nullptr; p = p->parent) {
    path.insert(0, std::string(ProfSiteName(p->site)) + ".");
  }
  return path;
}

std::string ShardSyncJson(const ShardSyncStats& stats) {
  const auto u = [](std::uint64_t v) { return std::to_string(v); };
  const auto i = [](SimTime v) { return std::to_string(v); };
  return "{\"shard\":" + std::to_string(stats.shard) + ",\"lookahead_ns\":" +
         (stats.lookahead == ShardSyncStats::kNoLookahead ? std::string("null")
                                                          : i(stats.lookahead)) +
         ",\"rounds\":" + u(stats.rounds) + ",\"advanced_ns\":" + i(stats.advanced) +
         ",\"max_step_ns\":" + i(stats.max_step) + ",\"events\":" + u(stats.events) +
         ",\"dispatch_ns\":" + u(stats.dispatch_ns) + ",\"stall_ns\":" + u(stats.stall_ns) +
         ",\"spins\":" + u(stats.spins) + ",\"parks\":" + u(stats.parks) +
         ",\"cross_sends\":" + u(stats.cross_sends) + ",\"drains\":" + u(stats.drains) + "}";
}

std::string Profiler::ToJsonSection(bool include_wall) const {
  std::string out = "{";
  out += "\"stride\":" + std::to_string(stride());

  // Exact per-site entry counts: every entry, sampled or not.  These are
  // the ground truth the est_ns figures are normalized against.
  out += ",\"sites\":[";
  bool first = true;
  for (std::size_t s = 0; s < kSiteCount; ++s) {
    if (!first) out += ",";
    first = false;
    out += "{\"site\":\"" + std::string(ProfSiteName(static_cast<ProfSite>(s))) +
           "\",\"calls\":" + std::to_string(site_calls_[s]) + "}";
  }
  out += "]";

  // Tree nodes in creation order (deterministic per seed).  Paths make the
  // document self-describing without the reader re-walking parent links.
  out += ",\"tree\":[";
  first = true;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (!first) out += ",";
    first = false;
    out += "{\"path\":\"" + PathOf(i) + "\"";
    out += ",\"parent\":" + std::to_string(IndexOf(n.parent));
    out += ",\"samples\":" + std::to_string(n.samples);
    if (include_wall) {
      out += ",\"sampled_ns\":" + std::to_string(n.sampled_ns);
      out += ",\"est_ns\":" + NumToJson(EstimateNs(n));
    }
    out += "}";
  }
  out += "]";

  // Queue occupancy at sampled dispatches: which dispatches sample is a
  // pure function of the dispatch counter, so this block is deterministic.
  out += ",\"queue_occupancy\":{\"samples\":" + std::to_string(occupancy_.count()) +
         ",\"mean\":" + NumToJson(occupancy_.mean()) +
         ",\"max\":" + NumToJson(occupancy_.max()) + "}";

  // Per-region event density: exact delivery totals plus a 100 ms binned
  // series subsampled at density_stride — the partitioning evidence for a
  // sharded engine.  Regions that saw no deliveries are omitted.
  out += ",\"regions\":[";
  first = true;
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const RegionStat& rs = regions_[r];
    if (rs.events == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"region\":" + std::to_string(r) + ",\"events\":" + std::to_string(rs.events) +
           ",\"density_bin_s\":" + NumToJson(ToSeconds(kDensityBin)) +
           ",\"density_stride\":" + std::to_string(kRegionStride) + ",\"density\":[";
    for (std::size_t i = 0; i < rs.bins.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(rs.bins[i]);
    }
    out += "]}";
  }
  out += "]";

  if (include_wall) {
    out += ",\"export_ns\":" + std::to_string(export_ns_);
    // Sharded-engine sync counters: timing-dependent, so wall view only.
    if (!shard_sync_.empty()) {
      out += ",\"shard_sync\":[";
      for (std::size_t i = 0; i < shard_sync_.size(); ++i) {
        if (i > 0) out += ",";
        out += ShardSyncJson(shard_sync_[i]);
      }
      out += "]";
    }
  }
  out += "}";
  return out;
}

}  // namespace fastflex::telemetry
