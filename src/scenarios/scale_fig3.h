// A scaled-up multi-region fabric for engine-scaling experiments: R regions
// on a ring, each with an aggregation switch, an edge switch, a server, and
// a block of clients.  Clients open TCP downloads to the server half-way
// around the ring (every flow crosses several region boundaries) plus a
// low-rate UDP background stream to the neighboring region, so the event
// population is dominated by intra-region queueing/TCP dynamics with a
// steady cross-region packet exchange — the load shape the ShardedEngine's
// conservative sync is built for.
//
// No defense is deployed: this scenario exists to measure the *engine*
// (events/sec at K shards, determinism across K), not FastFlex itself.
// Region labels are the ring index, so sharding cuts exactly along the
// inter-region links whose 1 ms propagation delay is the lookahead.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/telemetry.h"
#include "util/types.h"

namespace fastflex::scenarios {

struct ScaleFig3Options {
  std::uint64_t seed = 1;
  SimTime duration = 5 * kSecond;
  int regions = 8;             // ring size == number of shardable regions
  int clients_per_region = 4;
  double demand_bps = 4e6;     // per TCP flow (application-bounded)
  double udp_bps = 500e3;      // per background UDP stream
  /// Inter-region propagation delay == the engine's cross-shard lookahead.
  SimTime region_delay = 1 * kMillisecond;

  /// 0 = legacy single-threaded run; >= 1 = ShardedEngine with this many
  /// shards (clamped to `regions`).  See Fig3Options::shards.
  int shards = 0;

  telemetry::Recorder* recorder = nullptr;
};

struct ScaleFig3Result {
  std::uint64_t events_processed = 0;  // TotalEventsProcessed fingerprint
  std::uint64_t delivered_bytes = 0;   // across all TCP flows
  int flows = 0;
  /// Engine sync counters per shard (empty on the legacy path).  Timing-
  /// dependent: for bench timing sections, never for replay comparisons.
  std::vector<telemetry::ShardSyncStats> shard_sync;
};

ScaleFig3Result RunScaleFig3(const ScaleFig3Options& options);

}  // namespace fastflex::scenarios
