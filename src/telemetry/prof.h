// Continuous self-profiler: where does a simulation run spend its wall
// clock, and where in the fabric do the events land?
//
// Two kinds of data, with very different determinism properties:
//
//  - COUNTS (site entry counts, per-region event tallies, event-queue
//    occupancy samples, which entries get sampled): pure functions of the
//    simulated run.  Same seed, same counts, on any machine.
//  - WALL CLOCK (sampled nanoseconds per tree node): machine- and load-
//    dependent by nature.  These never enter the MetricsRegistry, the
//    trace, or any replay-pinned telemetry section — they live only in the
//    "prof" section, which the replay tests exclude and the bench gates
//    treat as timing-only (the same isolation discipline the sweep schema
//    applies to its "timing" subtree).
//
// Sampling model — subtree sampling.  Every site entry increments an exact
// flat per-site counter; that is the whole hot path for most entries.  A
// top-level entry (no profiled scope open) additionally checks its site
// counter against the stride: every stride-th entry becomes a SAMPLE —
// it resolves its attribution-tree node, publishes itself as the current
// position, and reads the clock on entry and exit.  While a sample is
// open, every nested scope is unconditionally sampled too, so each sample
// captures its complete subtree: the hierarchy inside a sample is exact,
// and a parent's sampled time always includes its children's.  Because a
// scope publishes its position only while sampled, the un-sampled path
// costs one counter increment and two predicted branches — cheap enough
// to leave on the per-packet pipeline walk (the bench gate pins
// profiler-on overhead at <= 1.05x there).
//
// Estimator: entries are sampled uniformly at 1/stride (top-level sites
// directly; nested sites by riding their ancestors' samples), so
// est_ns = sampled_ns * stride estimates a node's total inclusive time.
// Clock-read bias: a sample's raw interval also contains the two clock
// reads of every sample nested inside it, plus about one read of its own
// (the tail of the opening read and the head of the closing one).  On
// cheap sites that overhead rivals the work measured, so each sample
// subtracts (inner reads + 1) x the cost of one read, calibrated once per
// process, clamped at 0 (DebiasNs).
// The stride is a power of two — workloads with matching power-of-two
// periodicity could alias against it; no such pattern exists in the event
// loop, but it is the standard caveat for strided samplers (DESIGN.md
// §10).  The sampling decision depends only on deterministic counters, so
// WHICH entries get sampled — and therefore the tree shape and every
// count — is a pure function of the run; only the nanoseconds are not.
//
// The profiler never schedules events and never draws random numbers:
// enabling it MUST NOT perturb the simulation (the bench_prof determinism
// flag pins non-prof sections byte-identical with profiling on vs off).
//
// Region density: Network attributes each packet-hop delivery to the
// destination node's topology region (Network::set_node_region, assigned
// by scenarios).  Per-region totals count every delivery; the 100 ms
// density series is subsampled at kRegionStride (deterministically — the
// sampling tick is a pure function of delivery order).  Together they are
// exactly the input a sharded discrete-event engine needs to choose a
// partitioning — see ROADMAP "Scale the simulator itself".
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/stats.h"
#include "util/types.h"

namespace fastflex::telemetry {

/// Instrumented hot-path sites.  A fixed enum (not strings) so the scope
/// fast path is an array index, and so the exporter can emit stable names.
enum class ProfSite : std::uint8_t {
  kEventDispatch = 0,  // event-queue pop -> callback return
  kPipelineWalk,       // dataplane pipeline walk (per packet at a switch)
  kHostStack,          // host endpoint dispatch (TCP/UDP/handshake stacks)
  kModeProtocol,       // mode-change probe handling in the agent
  kFaultInject,        // fault injector transitions
  kExport,             // telemetry serialization (ToJson)
  kSiteCount
};

const char* ProfSiteName(ProfSite site);

class ProfScope;

/// One shard's synchronisation counters from a sim::ShardedEngine run
/// (DESIGN.md §11).  Round and spin counts depend on thread timing and
/// the *_ns fields are wall clock, so these appear only in the prof
/// section's wall view and in bench timing subtrees — never in
/// replay-pinned telemetry.  The engine pays one increment per round (or
/// per wait), never per event.
struct ShardSyncStats {
  static constexpr SimTime kNoLookahead = std::numeric_limits<SimTime>::max();

  int shard = 0;
  /// Smallest inbound cross-shard lookahead: the per-round step cap.
  /// kNoLookahead when nothing crosses into the shard (K=1).
  SimTime lookahead = kNoLookahead;
  std::uint64_t rounds = 0;       // frontier advances, one dispatch round each
  SimTime advanced = 0;           // sim time advanced over all rounds
  SimTime max_step = 0;           // longest single advance
  std::uint64_t events = 0;       // heap events + channel deliveries dispatched
  std::uint64_t dispatch_ns = 0;  // wall time draining inboxes and dispatching
  std::uint64_t stall_ns = 0;     // wall time waiting on neighbours' clocks
  std::uint64_t spins = 0;        // pause-spin iterations while waiting
  std::uint64_t parks = 0;        // blocking waits on the shard's wake word
  std::uint64_t cross_sends = 0;  // messages staged on outbound cross-shard channels
  std::uint64_t drains = 0;       // non-empty inbox batches taken
};

/// `stats` as one JSON object (lookahead is null when kNoLookahead).
std::string ShardSyncJson(const ShardSyncStats& stats);

class Profiler {
 public:
  static constexpr std::size_t kSiteCount = static_cast<std::size_t>(ProfSite::kSiteCount);
  static constexpr std::uint32_t kDefaultStride = 256;
  /// Attribution-tree saturation guard: a pathological nesting cycle
  /// cannot grow the tree without bound — past this, entries attribute to
  /// the site's root node (pre-created by Enable) instead.  Node storage
  /// is reserved up front to this cap, so node pointers are stable — the
  /// sampled path links nodes by pointer, not index.
  static constexpr std::size_t kMaxNodes = 1024;
  /// Region event-density bin width.  A compile-time constant so the
  /// per-sample bin computation strength-reduces to a multiply.
  static constexpr SimTime kDensityBin = 100 * kMillisecond;
  /// Region array size, fixed at Enable so the per-delivery tally needs no
  /// bounds/resize branch.  Regions at or past the cap clamp to the last
  /// slot (scenario region counts are single digits; the cap is headroom).
  static constexpr std::uint32_t kMaxRegions = 256;
  /// Density-bin sampling stride: every kRegionStride-th delivery (by a
  /// profiler-wide tick, so the pattern is deterministic) lands in a bin.
  /// Exact per-region totals still count every delivery; only the binned
  /// series is subsampled.
  static constexpr std::uint32_t kRegionStride = 64;

  /// One node of the attribution tree: a site reached through a distinct
  /// chain of SAMPLED ancestors.  A site that is usually entered below an
  /// un-sampled ancestor shows up both as a top-level node (its own-stride
  /// samples) and as a child node (entries inside the ancestor's samples);
  /// the report merges by site for the flat view.
  struct Node {
    ProfSite site = ProfSite::kEventDispatch;
    Node* parent = nullptr;        // nullptr = top level
    std::uint64_t samples = 0;     // deterministic
    std::uint64_t sampled_ns = 0;  // WALL CLOCK — prof section only
    Node* child[kSiteCount];       // nullptr = not yet visited
  };

  struct RegionStat {
    std::uint64_t events = 0;         // exact per-hop deliveries (every one)
    std::vector<std::uint64_t> bins;  // sampled deliveries per kDensityBin bin
  };

  Profiler();

  /// Turns sampling on.  `stride` is rounded up to a power of two (the
  /// sampling test is a mask).  Call BEFORE attaching the recorder to the
  /// network/pipelines: hook sites cache the enabled pointer at attach.
  void Enable(std::uint32_t stride = kDefaultStride);
  bool enabled() const { return enabled_; }
  std::uint32_t stride() const { return mask_ + 1; }

  /// The pointer hook sites cache: this profiler if enabled, else nullptr
  /// (so a disabled profiler costs hook sites exactly one branch).
  Profiler* enabled_self() { return enabled_ ? this : nullptr; }

  // ---- Hot-path API (call only through a cached enabled_self()) ----

  /// Attributes one delivered packet-hop event to `region` at sim time `t`.
  /// Hot path (every delivery): one clamp, one exact tally, one tick test.
  /// The density-bin update runs only on sampled ticks, out of line.
  void RegionEvent(std::uint32_t region, SimTime t) {
    if (region >= kMaxRegions) [[unlikely]] region = kMaxRegions - 1;
    ++regions_[region].events;
    if ((region_tick_++ & (kRegionStride - 1)) == 0) [[unlikely]]
      RegionBinSample(region, t);
  }

  /// Event-queue occupancy observed at a sampled dispatch (deterministic:
  /// which dispatches sample is a pure function of the dispatch counter).
  void QueueOccupancy(std::size_t pending) {
    occupancy_.Add(static_cast<double>(pending));
  }

  /// Wall-clock cost of one steady_clock read in ns: calibrated once per
  /// process by the first Enable (best of a few timed read loops).
  double clock_read_ns() const { return clock_read_ns_; }
  /// Test seam: replaces the calibrated cost (e.g. 0 to keep raw samples).
  void set_clock_read_ns(double ns) { clock_read_ns_ = ns; }
  /// Clock reads taken by sampled scopes so far: two per sample.
  std::uint64_t clock_reads() const { return clock_reads_; }

  /// One sample's debiased nanoseconds: the raw interval minus the clock
  /// reads it contains, (inner_reads + 1) x read_ns, clamped at 0.
  static std::uint64_t DebiasNs(std::int64_t raw_ns, std::uint64_t inner_reads,
                                double read_ns) {
    const double ns =
        static_cast<double>(raw_ns) - static_cast<double>(inner_reads + 1) * read_ns;
    return ns > 0.0 ? static_cast<std::uint64_t>(ns) : 0;
  }

  /// Exporter self-measurement: ToJson's wall time for everything but the
  /// prof section itself (recorded out-of-tree to avoid self-reference).
  void RecordExportNs(std::uint64_t ns) { export_ns_ += ns; }

  /// Sharded-engine sync counters, one entry per shard per engine run
  /// (recorded by ShardedEngine::Finish).  Wall view only.
  void AddShardSync(const ShardSyncStats& stats) { shard_sync_.push_back(stats); }
  const std::vector<ShardSyncStats>& shard_sync() const { return shard_sync_; }

  // ---- Introspection / export ----

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<RegionStat>& regions() const { return regions_; }
  const Summary& occupancy() const { return occupancy_; }

  /// Exact entries recorded at `site` (every entry, sampled or not).
  std::uint64_t CallsAt(ProfSite site) const {
    return site_calls_[static_cast<std::size_t>(site)];
  }

  /// Index of a node within nodes() (for export: pointers don't serialize).
  std::ptrdiff_t IndexOf(const Node* n) const {
    return n == nullptr ? -1 : n - nodes_.data();
  }

  /// Estimated total inclusive nanoseconds of a node: every sample stands
  /// for `stride` entries (see the estimator note in the header comment).
  double EstimateNs(const Node& n) const {
    return static_cast<double>(n.sampled_ns) * static_cast<double>(stride());
  }

  bool HasData() const;

  /// Folds another profiler's data into this one: exact site counts, tree
  /// samples/nanoseconds (matched by sampled-ancestor chain), region
  /// tallies and density bins, occupancy summary, export time.  The
  /// sharded engine gives each shard a private profiler and merges them
  /// here at Finish — the prof section is exempt from the byte-identity
  /// contract (wall clock is machine-dependent anyway), so the parallel
  /// Welford merge and shard-dependent sampling phase are acceptable.
  void MergeFrom(const Profiler& other);

  /// The "prof" JSON section.  With `include_wall` false every
  /// machine-dependent field (sampled_ns, est_ns, export_ns, shard_sync) is omitted,
  /// leaving a deterministic document — what the determinism tests compare.
  std::string ToJsonSection(bool include_wall = true) const;

  /// Dotted path of a node ("event_dispatch.pipeline_walk").
  std::string PathOf(std::size_t node_index) const;

 private:
  friend class ProfScope;
  using Clock = std::chrono::steady_clock;

  /// Resolves (creating on first visit) `site` as a child of `parent`;
  /// nullptr parent means top level.  Out of line: runs only on sampled
  /// entries.
  Node* ChildOf(Node* parent, ProfSite site);
  /// Adds one sampled delivery to `region`'s density bin for sim time `t`.
  /// Out of line: runs once per kRegionStride deliveries.
  void RegionBinSample(std::uint32_t region, SimTime t);

  bool enabled_ = false;
  std::uint32_t mask_ = kDefaultStride - 1;
  Node* cur_ = nullptr;  // innermost open SAMPLE's node; nullptr = not sampling
  std::uint64_t clock_reads_ = 0;  // reads by sampled scopes (two per sample)
  double clock_read_ns_ = 0.0;     // cost of one read, set by Enable
  std::uint64_t site_calls_[kSiteCount] = {};  // exact entries per site
  std::vector<Node> nodes_;       // reserved to kMaxNodes: pointers stable
  Node* root_child_[kSiteCount];  // top-level nodes (no sampled ancestor)
  std::uint64_t region_tick_ = 0;  // deterministic density-sampling tick
  std::vector<RegionStat> regions_;  // sized kMaxRegions by Enable
  Summary occupancy_;
  std::uint64_t export_ns_ = 0;
  std::vector<ShardSyncStats> shard_sync_;
};

/// RAII scope for a profiler site.  Safe on a null profiler: the common
/// disabled path is one branch in the constructor and one in the
/// destructor.  The enabled un-sampled path — the one that runs per packet
/// — is one exact counter increment and two predicted branches; all tree
/// and clock work happens only on sampled entries (1/stride at top level,
/// or riding an open sample's subtree).
class ProfScope {
 public:
  ProfScope(Profiler* prof, ProfSite site) {
    if (prof != nullptr) {
      const auto idx = static_cast<std::size_t>(site);
      const std::uint64_t c = prof->site_calls_[idx]++;
      Profiler::Node* parent = prof->cur_;
      if (parent == nullptr) [[likely]] {
        if ((c & prof->mask_) != 0) [[likely]] return;  // un-sampled: done
      }
      // Sampled: own stride fired at top level, or inside an open sample's
      // subtree.  Full node accounting with wall clock, off the fast path.
      Open(prof, parent, site);
    }
  }
  ~ProfScope() {
    if (prof_ != nullptr) [[unlikely]] Close();
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  // The sampled path, out of line so every hook site inlines only the
  // counter increment and the two branches.
  void Open(Profiler* prof, Profiler::Node* parent, ProfSite site);
  void Close();

  // All members are meaningful only when sampled; prof_ == nullptr is the
  // "nothing to close" flag covering both the disabled and un-sampled
  // paths.
  Profiler* prof_ = nullptr;
  Profiler::Node* node_ = nullptr;
  Profiler::Node* parent_ = nullptr;
  std::int64_t t0_ns_ = 0;
  std::uint64_t reads0_ = 0;  // the profiler's clock_reads_ after our opening read
};

}  // namespace fastflex::telemetry
