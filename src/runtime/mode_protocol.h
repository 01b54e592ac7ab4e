// The distributed mode-change protocol (Section 3.3).
//
// One ModeProtocolPpm is installed (always-on, first in the chain) on every
// FastFlex switch.  Detectors call RaiseAlarm(); the agent flips the local
// pipeline's mode word immediately and floods a mode-change probe.  Probes
// are deduplicated by (origin, epoch), scoped by region label and hop
// budget (so mixed-vector attacks can hold different modes in different
// network regions), and stabilized two ways:
//
//  - per-origin reference counting: a mode bit stays active while ANY
//    detector in the region still asserts it.  This matters because active
//    mitigation hides the attack from downstream detectors — a switch
//    behind a dropper sees a quiet link and clears *its* alarm, but the
//    ingress detector still sees the flood, so the defense must stay up;
//  - a hold-down timer: activations apply immediately ("fail fast") while
//    deactivations take effect only once the hold-down since the last
//    activation has passed ("recover conservatively"), so an attacker who
//    games a detector cannot flap modes at line rate.
//
// The same agent handles reconfiguration notices for dynamic scaling
// (Section 3.4): a switch about to be repurposed tells its neighbors, which
// fast-reroute around it until it returns.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "dataplane/pipeline.h"
#include "dataplane/ppm.h"
#include "sim/network.h"
#include "sim/switch_node.h"

namespace fastflex::runtime {

struct ModeProtocolConfig {
  int hop_budget = 64;                        // flood radius of mode probes
  SimTime holddown = 500 * kMillisecond;      // min time before deactivation
  std::uint32_t probe_size_bytes = 64;

  // Flood hardening: a mode change is re-flooded up to `flood_retries`
  // times (first retry after `retry_timeout`, each later one scaled by
  // `retry_backoff`) unless a newer local change superseded it.  Retries
  // reuse the ORIGINAL epoch, so they are idempotent: switches that saw the
  // first flood dedup them, switches cut off by a dead link or a lossy
  // control channel apply them — exactly the case fault injection creates.
  int flood_retries = 1;
  SimTime retry_timeout = 50 * kMillisecond;
  double retry_backoff = 2.0;

  /// Origin authentication for protocol probes (mode changes, reconfig
  /// notices, sync request/reply).  Non-zero: every probe an agent emits is
  /// stamped with ProbeAuthTag(auth_key, payload) and every received
  /// protocol probe with a missing/wrong tag is consumed and counted
  /// instead of applied — closing the forged-mode-flood hole (a bot that
  /// injects kModeChange probes would otherwise flip modes fabric-wide and
  /// poison per-origin epoch dedup with a huge forged epoch).  0 disables
  /// (legacy behavior, and the unhardened arm of bench_adversarial).  The
  /// orchestrator derives the key from the scenario seed; it models the
  /// shared control-plane secret real deployments provision out of band.
  std::uint64_t auth_key = 0;
};

/// The keyed MAC a protocol probe carries in ProbePayload::auth: a digest of
/// the fields a forwarder never changes (type, mode bits, activate, epoch,
/// origin, attack type, region) under `key`.  hop_budget is deliberately
/// excluded — forwarding decrements it, and re-stamping at each hop must
/// reproduce the same tag.  Nonzero by construction (0 is "untagged").
/// Free function so tests and attacks::adaptive can mint or cross-check
/// tags independently of an agent.
std::uint64_t ProbeAuthTag(std::uint64_t key, const sim::ProbePayload& p);

class ModeProtocolPpm : public dataplane::Ppm {
 public:
  ModeProtocolPpm(sim::Network* net, sim::SwitchNode* sw, dataplane::Pipeline* pipe,
                  ModeProtocolConfig config = {});

  // ---- Detector-facing API ----

  /// Activates (or deactivates) `mode_bits` locally and floods the change to
  /// the switch's region.  `attack_type` travels with the probe so remote
  /// mitigation modules know which defense to enter.
  void RaiseAlarm(std::uint32_t attack_type, std::uint32_t mode_bits, bool activate);

  /// Announces to direct neighbors that this switch is about to be
  /// repurposed (going == true) or is back in service (going == false).
  void AnnounceReconfig(bool going);

  /// Epoch reconciliation after a crash+reboot (register state lost):
  /// floods a one-hop kModeSyncRequest.  Each neighbor replies with the
  /// mode bits it currently sees asserted per origin, plus the last epoch
  /// it saw from *this* switch's pre-crash life — so the rebooted agent
  /// both re-learns the network's mode state and fast-forwards its own
  /// epoch counter past what the network already deduplicates.
  void RequestSync();

  // ---- Ppm ----
  void Process(sim::PacketContext& ctx) override;

  /// Reboot semantics: all protocol state (epochs, origin refcounts,
  /// hold-down stamps) lives in registers and is lost.  Lifetime counters
  /// survive — they model experiment bookkeeping, not switch state.
  void Reset() override {
    next_epoch_ = 1;
    seen_epoch_.clear();
    origins_.clear();
    last_activation_.clear();
  }

  // ---- Introspection for experiments ----
  std::uint64_t alarms_raised() const { return alarms_raised_; }
  std::uint64_t probes_forwarded() const { return probes_forwarded_; }
  std::uint64_t mode_applications() const { return mode_applications_; }
  std::uint64_t flood_retries() const { return flood_retries_; }
  std::uint64_t resyncs() const { return resyncs_; }
  /// Protocol probes rejected by the flood authenticator (auth_key set and
  /// the probe's tag missing or wrong).
  std::uint64_t auth_rejects() const { return auth_rejects_; }
  std::uint64_t next_epoch() const { return next_epoch_; }
  SimTime last_mode_change() const { return last_mode_change_; }

  /// True if `bit` is currently asserted by at least one origin here.
  bool BitAsserted(std::uint32_t bit) const;

  /// Attaches a recorder: every applied mode flip emits a `mode_change`
  /// trace event carrying (switch, origin, epoch, bit, on); every local
  /// alarm emits an `alarm` event; every probe the flood authenticator
  /// rejects bumps "switch.<sw>.adv.mode_auth_rejects".  One branch per
  /// event when detached.  Call at deploy time, before the run starts.
  void SetTelemetry(telemetry::Recorder* recorder);

 private:
  void ApplyBits(NodeId origin, std::uint64_t epoch, std::uint32_t mode_bits,
                 bool activate);
  void TryClearBit(std::uint32_t bit, std::uint64_t epoch);
  void Flood(const sim::ProbePayload& payload, LinkId except_in);
  sim::Packet MakeProbePacket(const sim::ProbePayload& payload) const;
  void ScheduleRetry(const sim::ProbePayload& payload, int attempt);
  void AnswerSyncRequest(const sim::ProbePayload& request, sim::PacketContext& ctx);
  void ApplySyncReply(const sim::ProbePayload& reply);

  sim::Network* net_;
  sim::SwitchNode* sw_;
  dataplane::Pipeline* pipe_;
  ModeProtocolConfig config_;

  std::uint64_t next_epoch_ = 1;
  std::unordered_map<NodeId, std::uint64_t> seen_epoch_;  // per-origin dedupe
  // Per mode bit: which origins currently assert it, and when it was last
  // activated (for the hold-down).
  std::unordered_map<std::uint32_t, std::unordered_set<NodeId>> origins_;
  std::unordered_map<std::uint32_t, SimTime> last_activation_;

  std::uint64_t alarms_raised_ = 0;
  std::uint64_t probes_forwarded_ = 0;
  std::uint64_t mode_applications_ = 0;
  std::uint64_t flood_retries_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t auth_rejects_ = 0;
  SimTime last_mode_change_ = 0;
  telemetry::Recorder* telem_ = nullptr;
  telemetry::Counter* auth_rejects_ctr_ = nullptr;
};

}  // namespace fastflex::runtime
