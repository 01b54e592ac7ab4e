// JSON and CSV serialization of a Recorder.
//
// The JSON artifact ("fastflex.telemetry.v2") is the machine-readable
// output of every bench: metric families keyed by name in lexicographic
// order, the optional int/fault/flight sections, then the trace (events
// and spans) in record order.  All numbers are printed with round-trip
// precision, so two replays of the same seed produce byte-identical files
// — the replay regression test depends on this.
//
// Defense evidence has no section of its own: it is counters
// "switch.<sw>.syn.<name>", "switch.<sw>.adv.<name>" and "elastic.<name>",
// plus one trace point event "elastic.<action>.<booster>" {sw} per
// control-loop decision (EXPERIMENTS.md maps each v1 section field to its
// v2 key).  Those counters are single-writer (telemetry.h), so they need
// no shard shadow and export identically for any shard count.
//
// CSV exporters are for spreadsheet-style diffing of two runs: scalars as
// `kind,name,value...` rows, series as `name,t_seconds,value` rows, trace
// events as `t_seconds,name,key=value;...` rows.
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/telemetry.h"

namespace fastflex::telemetry {

struct ExportOptions {
  /// Emit the "prof" section (when the profiler is enabled).  Replay
  /// comparisons serialize with this off: prof carries wall-clock
  /// nanoseconds, the one part of the artifact that is not a pure function
  /// of the seed.  Every other section must stay byte-identical whether
  /// profiling is on or off — the exporter edge tests pin this.
  bool include_prof = true;
};

/// Serializes the whole recorder (metrics + trace) as one JSON document.
std::string ToJson(const Recorder& rec);
std::string ToJson(const Recorder& rec, const ExportOptions& opts);

/// Writes ToJson(rec) to `path`; returns false on I/O failure.
bool WriteJsonFile(const Recorder& rec, const std::string& path);

/// Scalar metrics (counters, gauges, summaries, ewmas, histogram
/// percentiles), one row per metric.
void WriteMetricsCsv(const MetricsRegistry& reg, std::ostream& os);

/// Every TimeSeries bin as a long-format row: name,t_seconds,value.
void WriteSeriesCsv(const MetricsRegistry& reg, std::ostream& os);

/// Trace point events: t_seconds,name,"k=v;k=v".
void WriteEventsCsv(const Tracer& tracer, std::ostream& os);

}  // namespace fastflex::telemetry
