// FaultTimeline: the fault/failover/reconvergence evidence channel of the
// "fastflex.telemetry.v2" artifact.
//
// The fault injector records what it did to the network (links killed,
// switches crashed, control channels degraded); the survival machinery
// records what it did about it (data-plane failovers, flood retries, mode
// resyncs).  Every record carries only sim-time and integer ids, so the
// serialized section is bit-identical across same-seed reruns and across
// machines — the replay test and the bench_fault determinism gate pin this.
//
// Kept free of any fastflex::fault dependency on purpose: telemetry is the
// bottom of the library stack, and the recorders (injector, failover PPM,
// mode agent) live in layers above it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace fastflex::telemetry {

struct ShardSink;
struct FaultRecord;
ShardSink* CurrentShardSink();  // defined in shard_sink.cpp; see shard_sink.h
/// Out-of-line capture of one fault record into `sink` (shard_sink.cpp).
void ShardSinkFault(ShardSink& sink, const FaultRecord& rec);

enum class FaultRecordKind : std::uint8_t {
  kLinkDown,      // link = failed link (forward id), aux = 1 if duplex
  kLinkUp,        // link repaired
  kSwitchCrash,   // node = crashed switch
  kSwitchReboot,  // node = rebooted switch (register/table state lost)
  kControlLoss,   // link, aux = probe-loss probability in 1e-6 units
  kCorruption,    // link, aux = corruption probability in 1e-6 units
  kFaultCleared,  // probabilistic fault window ended on `link`
  kFailover,      // node detoured around dead egress `link`; aux = backup hop
  kFailback,      // node observed `link` healthy again and resumed primary
  kFloodRetry,    // node re-flooded a mode change; aux = retry ordinal
  kResync,        // node requested (aux=0) or answered (aux=1) a mode sync
  kReconverged,   // node regained mode bits after reboot; aux = mode word
};

const char* FaultRecordKindName(FaultRecordKind kind);

struct FaultRecord {
  SimTime t = 0;
  FaultRecordKind kind = FaultRecordKind::kLinkDown;
  std::int64_t node = -1;
  std::int64_t link = -1;
  std::int64_t aux = -1;
};

class FaultTimeline {
 public:
  void Record(SimTime t, FaultRecordKind kind, std::int64_t node = -1,
              std::int64_t link = -1, std::int64_t aux = -1) {
    const FaultRecord rec{t, kind, node, link, aux};
    if (ShardSink* sink = CurrentShardSink()) [[unlikely]] {
      ShardSinkFault(*sink, rec);
      return;
    }
    records_.push_back(rec);
  }

  bool HasData() const { return !records_.empty(); }
  std::size_t size() const { return records_.size(); }
  const std::vector<FaultRecord>& records() const { return records_; }

  std::size_t CountOf(FaultRecordKind kind) const;

  /// Time of the first record of `kind` (optionally restricted to `node`),
  /// or 0 if none exists.  Scenario post-processing uses this to compute
  /// failover latency (kLinkDown -> kFailover) and reconvergence time
  /// (kSwitchReboot -> kReconverged).
  SimTime FirstOf(FaultRecordKind kind, std::int64_t node = -1) const;

  /// Compact JSON object for the "fault" section of the artifact.  Integer
  /// fields only: byte-identical across machines for the same run.
  std::string ToJsonSection() const;

 private:
  std::vector<FaultRecord> records_;
};

}  // namespace fastflex::telemetry
