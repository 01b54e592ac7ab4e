// Shard-scaling bench: the ShardedEngine end to end on the scaled
// multi-region fabric (scenarios::scale_fig3).
//
// Runs the same 8-region build at K = 1, 2, 4, 8 worker shards and:
//   1. asserts the K=4 run's telemetry is byte-identical to the K=1 run
//      (exit 1 otherwise) — the engine's core contract: the shard count is
//      an execution detail, not an input;
//   2. writes BENCH_shard.json with events/sec per shard count, the
//      4-vs-1 / 8-vs-1 speedups (the timing section the scale-gate checks
//      with CPU-scaled tolerance — absolute rates are machine-dependent,
//      in-run ratios and the determinism verdict are not), and each timed
//      run's per-shard sync counters (sync_K), so a red speedup gate comes
//      with the rounds, stalls, spins and parks that explain it.
//
// Not a google-benchmark binary: each "iteration" is a whole simulation and
// the byte-identity check matters more than ns/op resolution.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "scenarios/scale_fig3.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace {

using namespace fastflex;

constexpr SimTime kDuration = 4 * kSecond;
constexpr int kRegions = 8;
constexpr int kClientsPerRegion = 4;

scenarios::ScaleFig3Options Options(int shards, telemetry::Recorder* rec = nullptr) {
  scenarios::ScaleFig3Options opt;
  opt.seed = 1;
  opt.duration = kDuration;
  opt.regions = kRegions;
  opt.clients_per_region = kClientsPerRegion;
  opt.shards = shards;
  opt.recorder = rec;
  return opt;
}

std::string ExportNoProf(const telemetry::Recorder& rec) {
  telemetry::ExportOptions opts;
  opts.include_prof = false;
  return telemetry::ToJson(rec, opts);
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main() {
  // Determinism first (instrumented runs): K must be an execution detail.
  telemetry::Recorder rec1;
  const scenarios::ScaleFig3Result d1 = RunScaleFig3(Options(1, &rec1));
  telemetry::Recorder rec4;
  const scenarios::ScaleFig3Result d4 = RunScaleFig3(Options(4, &rec4));
  const std::string json1 = ExportNoProf(rec1);
  const bool identical = json1 == ExportNoProf(rec4);
  if (!identical) {
    std::cerr << "FAIL: K=4 telemetry differs from the K=1 run\n";
  }
  if (d1.events_processed != d4.events_processed) {
    std::cerr << "FAIL: event fingerprint differs: " << d1.events_processed
              << " (K=1) vs " << d4.events_processed << " (K=4)\n";
  }

  // Timing runs: uninstrumented, one warm-up-free pass per shard count (the
  // whole run is long enough that startup noise is in the measurement floor).
  const int shard_counts[] = {1, 2, 4, 8};
  double events_per_sec[4] = {0, 0, 0, 0};
  std::uint64_t events[4] = {0, 0, 0, 0};
  std::string sync_json[4];
  for (std::size_t i = 0; i < 4; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const scenarios::ScaleFig3Result r = RunScaleFig3(Options(shard_counts[i]));
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    events[i] = r.events_processed;
    events_per_sec[i] = static_cast<double>(r.events_processed) / elapsed.count();
    std::cout << "shards=" << shard_counts[i] << "  events=" << r.events_processed
              << "  wall=" << elapsed.count()
              << "s  events/sec=" << events_per_sec[i] << "\n";
    // Per-shard sync counters of the same timed run: why the speedup is
    // what it is (DESIGN.md §11).  busy = dispatch wall / run wall.
    std::string sync = "[";
    for (const telemetry::ShardSyncStats& st : r.shard_sync) {
      if (st.shard > 0) sync += ", ";
      sync += telemetry::ShardSyncJson(st);
      std::printf("  shard %d: rounds=%llu max_step_ms=%.3f busy=%.2f stall=%.2f "
                  "spins=%llu parks=%llu cross_sends=%llu drains=%llu\n",
                  st.shard, static_cast<unsigned long long>(st.rounds),
                  ToSeconds(st.max_step) * 1e3, st.dispatch_ns * 1e-9 / elapsed.count(),
                  st.stall_ns * 1e-9 / elapsed.count(),
                  static_cast<unsigned long long>(st.spins),
                  static_cast<unsigned long long>(st.parks),
                  static_cast<unsigned long long>(st.cross_sends),
                  static_cast<unsigned long long>(st.drains));
    }
    sync_json[i] = sync + "]";
  }

  const double speedup4 = events_per_sec[2] / events_per_sec[0];
  const double speedup8 = events_per_sec[3] / events_per_sec[0];
  const unsigned cpus = std::thread::hardware_concurrency();
  std::cout << "speedup_4_vs_1=" << speedup4 << "  speedup_8_vs_1=" << speedup8
            << "  cpus=" << cpus
            << "  identical_1_vs_4=" << (identical ? "true" : "false") << "\n";

  std::ofstream out("BENCH_shard.json", std::ios::binary);
  out << "{\n"
      << "  \"schema\": \"fastflex.bench_shard.v1\",\n"
      << "  \"scenario\": \"scale_fig3\",\n"
      << "  \"counters\": {\"regions\": " << kRegions
      << ", \"flows\": " << d1.flows << ", \"events\": " << events[0]
      << ", \"delivered_bytes\": " << d1.delivered_bytes
      << ", \"telemetry_bytes\": " << json1.size() << "},\n"
      << "  \"determinism\": {\"identical_1_vs_4\": "
      << (identical ? "true" : "false") << "},\n"
      << "  \"timing\": {\n"
      << "    \"cpus\": " << cpus << ",\n"
      << "    \"events_per_sec_1\": " << Num(events_per_sec[0]) << ",\n"
      << "    \"events_per_sec_2\": " << Num(events_per_sec[1]) << ",\n"
      << "    \"events_per_sec_4\": " << Num(events_per_sec[2]) << ",\n"
      << "    \"events_per_sec_8\": " << Num(events_per_sec[3]) << ",\n"
      << "    \"speedup_4_vs_1\": " << Num(speedup4) << ",\n"
      << "    \"speedup_8_vs_1\": " << Num(speedup8) << ",\n"
      << "    \"sync_1\": " << sync_json[0] << ",\n"
      << "    \"sync_2\": " << sync_json[1] << ",\n"
      << "    \"sync_4\": " << sync_json[2] << ",\n"
      << "    \"sync_8\": " << sync_json[3] << "\n"
      << "  }\n}\n";

  return identical ? 0 : 1;
}
