// Umbrella header and the Recorder: one metrics registry plus one event
// tracer, attached to a run.
//
// Instrumented components take a `Recorder*` where nullptr means disabled;
// the disabled path must cost exactly one branch per hook (the same
// discipline FF_LOG applies to logging) — hot layers additionally cache
// the metric references they update per packet so the enabled path does no
// name lookups either.
//
// Defense evidence (SYN-proxy cookies, mode-flood auth rejects, elastic
// scale-ups and sheds) is plain registry counters under "switch.<sw>.syn.*",
// "switch.<sw>.adv.*" and "elastic.*".  Their owners resolve them once,
// while the run is still single-threaded (scenario build, or an elastic
// install at a coordinator barrier: get-or-create mutates the registry),
// keep a Counter* that is nullptr when detached, and bump through Inc().
// Under the sharded engine such a counter needs no shard shadow: each has
// one writer at a time — its switch's owner shard, or the coordinator
// while every shard is parked — and integer increments commute, so its
// value is the same for any shard count.
#pragma once

#include "telemetry/fault_timeline.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/int_collector.h"
#include "telemetry/metrics.h"
#include "telemetry/prof.h"
#include "telemetry/trace.h"

namespace fastflex::telemetry {

class Recorder {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  Tracer& trace() { return trace_; }
  const Tracer& trace() const { return trace_; }

  /// In-band telemetry journeys (fed by the IntSinkPpm).  Exported as the
  /// "int" section of the JSON artifact when it holds any data.
  IntCollector& int_collector() { return int_; }
  const IntCollector& int_collector() const { return int_; }

  /// Fault / failover / reconvergence timeline (fed by the fault injector
  /// and the survival machinery).  Exported as the "fault" section of the
  /// JSON artifact when it holds any data.
  FaultTimeline& fault_timeline() { return fault_; }
  const FaultTimeline& fault_timeline() const { return fault_; }

  /// Self-profiler (sampled hot-path timers, region event density, queue
  /// occupancy).  Off by default — call prof().Enable() BEFORE attaching
  /// the recorder to a network/pipeline (hook sites cache the enabled
  /// pointer at attach time).  Exported as the "prof" section, which
  /// replay-identity comparisons exclude because it carries wall clock.
  Profiler& prof() { return prof_; }
  const Profiler& prof() const { return prof_; }

  /// Always-on black box: bounded ring of recent notable events, dumped on
  /// crash/breach/request.  Exported as the deterministic "flight" section
  /// when it holds any data.
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }

 private:
  MetricsRegistry metrics_;
  Tracer trace_;
  IntCollector int_;
  FaultTimeline fault_;
  Profiler prof_;
  FlightRecorder flight_;
};

}  // namespace fastflex::telemetry
