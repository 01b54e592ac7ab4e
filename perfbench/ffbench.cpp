// ffbench: the measuring half of the FastFlex benchmark.  perfbench/run.py
// builds it, runs it once per (workload, seed), and turns the raw document
// this program prints into checked, named metrics (see METRICS.md).
//
//   ffbench --workload fig3_lfa|ring_sharded|multi_tenant --seed N
//           --seconds S --trace 0|1
//
// --trace 0 (end-to-end): repeats the whole workload until S seconds have
//   passed (at least once), timing each repetition from start to result in
//   hand and the set-up alone kSetupReps times after each; then runs the
//   workload's correctness pass.
// --trace 1 (per layer): one untraced repetition, one traced repetition (a
//   recorder whose profiler is enabled before it is attached; K=4 and K=1
//   on ring_sharded), the set-up timings and the correctness pass.  The
//   traced document carries the profiler's exact per-site call counts and
//   its sampled attribution tree, read through Profiler's accessors, plus
//   registry counters read after the entry point's harvest.
//
// Everything is driven through the scenario layer's public entry points
// with their default options; only the seed, and K on ring_sharded, vary.
// Output: one JSON object on the last line of stdout.  Diagnostics go to
// stderr.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "scenarios/builder.h"
#include "scenarios/fig3.h"
#include "scenarios/multi_tenant_fig.h"
#include "scenarios/scale_fig3.h"
#include "telemetry/export.h"
#include "telemetry/prof.h"
#include "telemetry/telemetry.h"

namespace {

using namespace fastflex;
using Clock = std::chrono::steady_clock;

// Set-up is a few milliseconds, and its timing drifts with host load over
// a run: setup_s is the median of this many timed set-ups after every
// repetition (plus one untimed warm-up), spread over the whole run.
constexpr int kSetupReps = 16;
// ring_sharded runs at this shard count; its traced pass adds K=1.
constexpr int kRingShards = 4;
// Simulated length of ring_sharded, and of its untimed K=1 vs K=4
// byte-identity pass.
constexpr SimTime kRingDuration = 15 * kSecond;
constexpr SimTime kRingCheckDuration = 2 * kSecond;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

CpuTimes ProcessCpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

// Minimal JSON object writer: keys are identifiers, values numbers,
// booleans, strings without escapes, or pre-rendered JSON.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string NumArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

// One repetition of a workload, as measured from outside the program.
struct Rep {
  int threads = 1;         // worker threads the engine ran (K, or 1 unsharded)
  double wall_s = 0.0;     // start of the entry-point call(s) to result in hand
  double build_s = -1.0;   // fig3_lfa only: Build and SummarizeFig3Run spans
  double harvest_s = -1.0;
  double export_s = -1.0;  // multi_tenant only: ToJson
  std::uint64_t doc_bytes = 0;
  CpuTimes cpu;
  std::uint64_t events = 0;
  JsonObject result;       // the fields the correctness checks read
  std::string profile;     // traced only: rendered profiler snapshot
  JsonObject counters;     // traced only: registry counters after harvest
};

// The profiler, read through its public accessors: exact call counts per
// site and the sampled attribution tree.  est_ns is Profiler::EstimateNs,
// kept so the catalogue can show its bias against the ratio estimator.
std::string ProfileJson(const telemetry::Profiler& prof) {
  JsonObject calls;
  for (std::size_t s = 0; s < telemetry::Profiler::kSiteCount; ++s) {
    const auto site = static_cast<telemetry::ProfSite>(s);
    calls.Int(telemetry::ProfSiteName(site), prof.CallsAt(site));
  }
  std::string nodes = "[";
  for (std::size_t i = 0; i < prof.nodes().size(); ++i) {
    const auto& n = prof.nodes()[i];
    JsonObject node;
    node.Str("site", telemetry::ProfSiteName(n.site))
        .Num("parent", static_cast<double>(prof.IndexOf(n.parent)))
        .Int("samples", n.samples)
        .Int("sampled_ns", n.sampled_ns)
        .Num("est_ns", prof.EstimateNs(n));
    if (i > 0) nodes += ',';
    nodes += node.str();
  }
  nodes += "]";
  return JsonObject()
      .Int("stride", prof.stride())
      .Raw("calls", calls.str())
      .Raw("nodes", nodes)
      .str();
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Layer work counts the entry points' harvest pass mirrored into the
// registry.  Pool and heap high-water marks exist only on unsharded runs
// (Network::CollectTelemetry omits them under a ShardedEngine); absent
// gauges read 0.
void ReadTelemetry(const telemetry::Recorder& rec, Rep& rep) {
  const auto& m = rec.metrics();
  std::uint64_t tx = 0, drops = 0;
  for (const auto& [name, c] : m.counters()) {
    if (name.rfind("link.", 0) != 0) continue;
    if (EndsWith(name, ".tx_packets")) tx += c.value();
    if (EndsWith(name, ".dropped_packets")) drops += c.value();
  }
  auto counter = [&](const char* name) {
    const auto it = m.counters().find(name);
    return it == m.counters().end() ? 0 : it->second.value();
  };
  auto gauge = [&](const char* name) {
    const auto it = m.gauges().find(name);
    return it == m.gauges().end() ? 0.0 : it->second.value();
  };
  rep.counters.Int("link_tx_packets", tx)
      .Int("link_drops", drops)
      .Int("tcp_retransmits", counter("flows.retransmits"))
      .Num("queue_peak_pending", gauge("sim.event_queue.peak_pending"))
      .Num("pool_hwm_slots", gauge("net.pool.hwm_slots"));
  rep.profile = ProfileJson(rec.prof());
}

// Times `body` (which fills rep) and the process CPU it used.
void Timed(Rep& rep, const std::function<void()>& body) {
  const CpuTimes c0 = ProcessCpu();
  const auto t0 = Clock::now();
  body();
  rep.wall_s = Since(t0);
  const CpuTimes c1 = ProcessCpu();
  rep.cpu = {c1.user_s - c0.user_s, c1.sys_s - c0.sys_s};
}

// ---- fig3_lfa: the paper's Figure 3 ----

// The builder chain RunFig3 uses, fed from Fig3Options' defaults, so the
// benchmark can time build, run and harvest separately.
scenarios::ScenarioBuilder Fig3Builder(const scenarios::Fig3Options& o,
                                       telemetry::Recorder* rec) {
  scenarios::ScenarioBuilder b;
  b.Seed(o.seed)
      .Defense(o.defense)
      .EnableInt(o.enable_int)
      .Ablation(o.enable_obfuscation, o.enable_dropping)
      .RerouteTuning(o.reroute_all, o.sticky_reroute)
      .AttackAt(o.attack_at)
      .AttackFlows(o.attack_flows)
      .SdnEpoch(o.sdn_epoch)
      .Record(rec);
  return b;
}

Rep Fig3Lfa(std::uint64_t seed, bool traced) {
  scenarios::Fig3Options o;
  o.seed = seed;
  telemetry::Recorder rec;
  if (traced) rec.prof().Enable();  // before Build attaches the recorder
  telemetry::Recorder* r = traced ? &rec : nullptr;
  Rep rep;
  Timed(rep, [&] {
    auto t = Clock::now();
    scenarios::BuiltScenario s = Fig3Builder(o, r).Build();
    rep.build_s = Since(t);
    sim::RunOptions run;
    run.duration = o.duration;
    run.shards = o.shards;
    scenarios::RunScenario(s, run);
    t = Clock::now();
    const auto res = scenarios::SummarizeFig3Run(s, o.duration, o.attack_at, r);
    rep.harvest_s = Since(t);
    rep.events = res.events_processed;
    rep.result.Num("first_alarm_s", ToSeconds(res.first_alarm))
        .Num("modes_active_at_s", ToSeconds(res.modes_active_at))
        .Num("mean_during_attack", res.mean_during_attack)
        .Int("policy_drops", res.policy_drops)
        .Int("rolls", res.rolls.size());
  });  // the scenario is torn down inside the span, as RunFig3 does
  if (traced) ReadTelemetry(rec, rep);
  return rep;
}

double Fig3Setup(std::uint64_t seed) {
  scenarios::Fig3Options o;
  o.seed = seed;
  const auto t0 = Clock::now();
  scenarios::BuiltScenario s = Fig3Builder(o, nullptr).Build();
  return Since(t0);
}

// ---- ring_sharded: the engine under ShardedEngine ----

scenarios::ScaleFig3Options RingOptions(std::uint64_t seed, int shards) {
  scenarios::ScaleFig3Options o;
  o.seed = seed;
  o.duration = kRingDuration;
  o.shards = shards;
  return o;
}

Rep Ring(std::uint64_t seed, bool traced, int shards) {
  auto o = RingOptions(seed, shards);
  telemetry::Recorder rec;
  if (traced) rec.prof().Enable();
  o.recorder = traced ? &rec : nullptr;
  Rep rep;
  rep.threads = shards;
  Timed(rep, [&] {
    const auto res = scenarios::RunScaleFig3(o);
    rep.events = res.events_processed;
    rep.result.Int("delivered_bytes", res.delivered_bytes)
        .Int("flows", static_cast<std::uint64_t>(res.flows))
        .Num("demand_bps", o.demand_bps)
        .Num("duration_s", ToSeconds(o.duration));
  });
  if (traced) ReadTelemetry(rec, rep);
  return rep;
}

double RingSetup(std::uint64_t seed) {
  auto o = RingOptions(seed, kRingShards);
  o.duration = 0;
  const auto t0 = Clock::now();
  (void)scenarios::RunScaleFig3(o);
  return Since(t0);
}

// Untimed correctness pass: K=1 and K=4 replay each other byte for byte
// outside "prof", and every TCP flow had data delivered.  Per-flow
// delivery is not exported, so it is read off the links.  scale_fig3
// builds each region's duplex links in a fixed order (agg-edge,
// agg-server, then edge-client per client; a duplex link is a forward and
// a reverse directed link), so client c of region r receives on directed
// link r*2*(2+C) + 4 + 2c.  Its only traffic is the ACK stream of that
// client's TCP flow (the UDP streams are one-way), so packets on it mean
// the flow's server received data.
std::string RingCheck(std::uint64_t seed) {
  std::string docs[2];
  std::uint64_t clients_acked = 0, flows = 0;
  const int ks[2] = {1, kRingShards};
  for (int i = 0; i < 2; ++i) {
    telemetry::Recorder rec;
    auto o = RingOptions(seed, ks[i]);
    o.duration = kRingCheckDuration;
    o.recorder = &rec;
    const auto res = scenarios::RunScaleFig3(o);
    docs[i] = telemetry::ToJson(rec, telemetry::ExportOptions{.include_prof = false});
    if (i > 0) continue;
    flows = static_cast<std::uint64_t>(res.flows);
    const int per_region = 2 * (2 + o.clients_per_region);
    for (int r = 0; r < o.regions; ++r) {
      for (int c = 0; c < o.clients_per_region; ++c) {
        const auto& m = rec.metrics().counters();
        const auto it = m.find(telemetry::Join("link", r * per_region + 4 + 2 * c, "tx_packets"));
        if (it != m.end() && it->second.value() > 0) ++clients_acked;
      }
    }
  }
  return JsonObject()
      .Bool("k1_k4_identical", docs[0] == docs[1])
      .Int("clients_acked", clients_acked)
      .Int("flows", flows)
      .str();
}

// ---- multi_tenant: the elastic arm of multi_tenant_fig ----

Rep MultiTenant(std::uint64_t seed, bool traced) {
  scenarios::MultiTenantOptions o;
  o.seed = seed;
  telemetry::Recorder rec;
  if (traced) rec.prof().Enable();
  o.recorder = &rec;
  Rep rep;
  Timed(rep, [&] {
    const auto res = scenarios::RunMultiTenantFig(o);
    const auto t = Clock::now();
    const std::string doc = telemetry::ToJson(rec);
    rep.export_s = Since(t);
    rep.doc_bytes = doc.size();
    rep.events = res.events_processed;
    rep.result.Num("lfa_alarm_s", ToSeconds(res.lfa_alarm_at))
        .Int("attacker_rolls", static_cast<std::uint64_t>(res.attacker_rolls))
        .Int("handshakes_validated", res.handshakes_validated)
        .Int("over_budget", res.over_budget)
        .Int("sheds", res.sheds)
        .Bool("retired", res.retired)
        .Int("sessions", static_cast<std::uint64_t>(res.sessions))
        .Int("completed", static_cast<std::uint64_t>(res.completed))
        .Int("flood_syns", res.flood_syns)
        .Int("epochs", res.epochs)
        .Int("replans", res.replans)
        .Int("scale_ups", res.scale_ups)
        .Int("teardowns", res.teardowns);
  });
  if (traced) ReadTelemetry(rec, rep);
  return rep;
}

double MultiTenantSetup(std::uint64_t seed) {
  scenarios::MultiTenantOptions o;
  o.seed = seed;
  o.duration = 0;
  telemetry::Recorder rec;
  o.recorder = &rec;
  const auto t0 = Clock::now();
  (void)scenarios::RunMultiTenantFig(o);
  return Since(t0);
}

std::string RepJson(const Rep& rep) {
  JsonObject j;
  j.Int("threads", static_cast<std::uint64_t>(rep.threads))
      .Num("wall_s", rep.wall_s)
      .Num("build_s", rep.build_s)
      .Num("harvest_s", rep.harvest_s)
      .Num("export_s", rep.export_s)
      .Int("doc_bytes", rep.doc_bytes)
      .Num("cpu_user_s", rep.cpu.user_s)
      .Num("cpu_sys_s", rep.cpu.sys_s)
      .Int("events", rep.events)
      .Raw("result", rep.result.str());
  if (!rep.profile.empty()) j.Raw("profile", rep.profile).Raw("counters", rep.counters.str());
  return j.str();
}

struct Workload {
  std::function<Rep(std::uint64_t seed, bool traced)> rep;
  std::function<double(std::uint64_t seed)> setup;
  std::function<std::string(std::uint64_t seed)> check;  // extra untimed pass, or none
};

const std::map<std::string, Workload>& Workloads() {
  static const std::map<std::string, Workload> w = {
      {"fig3_lfa", {Fig3Lfa, Fig3Setup, nullptr}},
      {"ring_sharded",
       {[](std::uint64_t s, bool t) { return Ring(s, t, kRingShards); }, RingSetup,
        RingCheck}},
      {"multi_tenant", {MultiTenant, MultiTenantSetup, nullptr}},
  };
  return w;
}

JsonObject BuildStamp() {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  return JsonObject()
      .Bool("optimized", optimized)
      .Bool("sanitized", sanitized)
      .Str("compiler", __VERSION__);
}

int Usage() {
  std::cerr << "usage: ffbench --workload fig3_lfa|ring_sharded|multi_tenant --seed N "
               "--seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") workload = v;
    else if (flag == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") trace = std::string(v) == "1";
    else return Usage();
  }
  const auto it = Workloads().find(workload);
  if (argc % 2 == 0 || it == Workloads().end() || !(seconds > 0.0)) return Usage();
  const Workload& w = it->second;

  std::vector<Rep> reps;
  std::vector<double> setup_s;
  auto record = [&](Rep rep) {
    reps.push_back(std::move(rep));
    for (int i = 0; i < kSetupReps; ++i) setup_s.push_back(w.setup(seed));
  };
  (void)w.setup(seed);  // warm-up, untimed
  if (!trace) {
    const auto t0 = Clock::now();
    do {
      record(w.rep(seed, false));
    } while (Since(t0) < seconds);
  } else {
    record(w.rep(seed, false));
    record(w.rep(seed, true));
    if (workload == "ring_sharded") record(Ring(seed, true, 1));
  }

  const std::string check = w.check ? w.check(seed) : "{}";

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::string reps_json = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (i > 0) reps_json += ',';
    reps_json += RepJson(reps[i]);
  }
  reps_json += "]";
  std::cout << JsonObject()
                   .Str("workload", workload)
                   .Int("seed", seed)
                   .Bool("trace", trace)
                   .Raw("build", BuildStamp().str())
                   .Raw("reps", reps_json)
                   .Raw("setup_s", NumArray(setup_s))
                   .Raw("check", check)
                   .Num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
                   .str()
            << std::endl;
  return 0;
}
