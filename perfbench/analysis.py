"""Pure functions of the FastFlex benchmark: metric catalogue, correctness
checks, the profiler ratio estimator, self times and the per-layer ledger.

No I/O here: run.py feeds in the raw document ffbench prints, and the tests
in test_analysis.py feed in hand-built ones.
"""

import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# name -> (unit, better).  The order is the print order.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "goodput_frac": ("frac", "higher"),
    "pass_frac": ("frac", "higher"),
}

PER_LAYER = {
    "scenarios.build_ms": ("ms", "lower"),
    "sim.events": ("count", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "sim.dispatch_self_ns": ("ns", "lower"),
    "sim.unattributed_frac": ("frac", "lower"),
    "sim.host_calls": ("count", "lower"),
    "sim.host_ns": ("ns", "lower"),
    "sim.link_tx_packets": ("count", "lower"),
    "sim.link_drops": ("count", "lower"),
    "sim.tcp_retransmits": ("count", "lower"),
    "sim.queue_peak_pending": ("count", "lower"),
    "sim.pool_hwm_slots": ("count", "lower"),
    "sim.shard.busy_frac": ("frac", "higher"),
    "sim.shard.speedup_4_vs_1": ("x", "higher"),
    "sim.shard.cpu_s": ("s", "lower"),
    "sim.shard.sys_frac": ("frac", "lower"),
    "dataplane.walks": ("count", "lower"),
    "dataplane.walk_ns": ("ns", "lower"),
    "runtime.mode_calls": ("count", "lower"),
    "runtime.mode_ns": ("ns", "lower"),
    "control.epochs": ("count", "lower"),
    "control.replans": ("count", "lower"),
    "control.scale_ups": ("count", "lower"),
    "control.sheds": ("count", "lower"),
    "control.teardowns": ("count", "lower"),
    "control.over_budget": ("count", "lower"),
    "attacks.rolls": ("count", "lower"),
    "attacks.flood_syns": ("count", "lower"),
    "telemetry.export_ms": ("ms", "lower"),
    "telemetry.doc_bytes": ("bytes", "lower"),
    "telemetry.trace_overhead": ("x", "lower"),
}

# Profiler sites (telemetry::ProfSiteName).  The "export" site is left out
# of the ledger's site rows: the benchmark times ToJson itself.
DISPATCH, WALK, HOST, MODE, FAULT = (
    "event_dispatch", "pipeline_walk", "host_stack", "mode_protocol", "fault_inject")
LEDGER_SITES = (DISPATCH, WALK, HOST, MODE, FAULT)


# ---- correctness checks ----
# Each returns [(description, passed)].  Thresholds are the ones the
# repository's own tests and gates use; a failure on some seed is a finding.

def checks_fig3(r):
    """integration_test Fig3IntegrationTest.FastFlexMitigatesWithinSeconds."""
    alarm = r["first_alarm_s"]
    flip = r["modes_active_at_s"]
    return [
        ("alarm raised before 15 s", 0 < alarm < 15.0),
        ("mode flip within 500 ms of the alarm", alarm <= flip < alarm + 0.5),
        ("mean_during_attack > 0.85", r["mean_during_attack"] > 0.85),
        ("more than 100 policy drops", r["policy_drops"] > 100),
        ("no attacker rolls", r["rolls"] == 0),
    ]


def checks_multi_tenant(r):
    """bench_elastic's invariants on the elastic arm."""
    return [
        ("LFA alarm raised", r["lfa_alarm_s"] > 0),
        ("no attacker rolls", r["attacker_rolls"] == 0),
        ("handshakes validated", r["handshakes_validated"] > 0),
        ("no over-budget switch-epochs", r["over_budget"] == 0),
        ("at least one shed", r["sheds"] >= 1),
        ("fully retired", r["retired"] is True),
    ]


def checks_ring(check):
    """Untimed K=1 vs K=4 pass (the K-invariance shard_test pins) and delivery."""
    return [
        ("K=1 and K=4 non-prof telemetry byte-identical", check["k1_k4_identical"] is True),
        ("every TCP flow had data delivered (ACKs reached every client)",
         check["flows"] > 0 and check["clients_acked"] == check["flows"]),
    ]


def run_checks(raw):
    """All checks for one ffbench document: the workload's own, applied to
    the first repetition, plus repeatability (every repetition, traced or
    not, processed the same number of events)."""
    reps = raw["reps"]
    workload = raw["workload"]
    if workload == "fig3_lfa":
        out = checks_fig3(reps[0]["result"])
    elif workload == "multi_tenant":
        out = checks_multi_tenant(reps[0]["result"])
    elif workload == "ring_sharded":
        out = checks_ring(raw["check"])
    else:
        raise ValueError("unknown workload " + workload)
    events = {rep["events"] for rep in reps}
    out.append(("every repetition processed the same events", len(events) == 1))
    return out


def fail_frac(checks):
    return sum(1 for _, ok in checks if not ok) / len(checks)


# ---- profiler estimators ----

def site_estimates(profile):
    """Per-site times from a profiler snapshot.

    profile = {"stride": s, "calls": {site: exact entries},
               "nodes": [{"site", "parent" (node index, -1 = top level),
                          "samples", "sampled_ns", "est_ns"}]}

    Ratio estimator: inclusive = calls x (sum sampled_ns / sum samples) over
    every node of the site.  The stride estimator (sum of est_ns =
    sampled_ns x stride) is returned alongside for comparison: it assumes a
    site was sampled at exactly 1/stride, which a site with fewer calls than
    the stride never is (its first call is always sampled).

    Self time: within a sample the subtree is exact, so the share of a
    site's sampled time not spent in child nodes is measured directly;
    self = inclusive x that share.
    """
    nodes = profile["nodes"]
    child_ns = [0] * len(nodes)
    for n in nodes:
        if n["parent"] >= 0:
            child_ns[int(n["parent"])] += n["sampled_ns"]
    out = {}
    for site, calls in profile["calls"].items():
        own = [i for i, n in enumerate(nodes) if n["site"] == site]
        samples = sum(nodes[i]["samples"] for i in own)
        sampled = sum(nodes[i]["sampled_ns"] for i in own)
        in_children = sum(child_ns[i] for i in own)
        mean = sampled / samples if samples else 0.0
        incl = calls * mean
        self_share = (sampled - in_children) / sampled if sampled else 0.0
        out[site] = {
            "calls": calls,
            "samples": samples,
            "mean_ns": mean,
            "incl_ns": incl,
            "self_ns": incl * self_share,
            "stride_est_ns": sum(nodes[i]["est_ns"] for i in own),
        }
    return out


def ledger(rep, build_s, sites):
    """Where the traced repetition's wall time went, in seconds, summing
    exactly to rep["wall_s"].  `build_s` stands in for the build span where
    the entry point builds internally.

    Benchmark spans (build, harvest, export) are serial.  Profiler sites run
    on `threads` engine workers, so their self times are divided by the
    thread count: the mean worker's time.  What no span or site covers is
    "unattributed" (engine loop, sync waits, link/queue and timer work
    outside the instrumented sites, and harvest inside entry points that do
    not expose it).
    """
    rows = [("scenarios.build", rep["build_s"] if rep["build_s"] >= 0 else build_s)]
    if rep["harvest_s"] >= 0:
        rows.append(("scenarios.harvest", rep["harvest_s"]))
    if rep["export_s"] >= 0:
        rows.append(("telemetry.export", rep["export_s"]))
    threads = rep["threads"]
    for site in LEDGER_SITES:
        rows.append(("site." + site + ".self", sites[site]["self_ns"] * 1e-9 / threads))
    rows.append(("unattributed", rep["wall_s"] - sum(v for _, v in rows)))
    return rows


# ---- metrics ----

def goodput_frac(workload, result):
    if workload == "fig3_lfa":
        return result["mean_during_attack"]
    if workload == "multi_tenant":
        return result["completed"] / result["sessions"]
    offered = result["flows"] * result["demand_bps"] / 8.0 * result["duration_s"]
    return result["delivered_bytes"] / offered


def end_to_end(raw, checks):
    reps = raw["reps"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "goodput_frac": goodput_frac(raw["workload"], reps[0]["result"]),
        "pass_frac": 1.0 - fail_frac(checks),
    }


def per_layer(raw):
    """Per-layer metrics from a --trace 1 document: reps[0] untraced,
    reps[1] traced (the workload's own engine), reps[2] traced K=1 on
    ring_sharded.  Returns (metrics, ledger rows, site estimates)."""
    reps = raw["reps"]
    untraced, main = reps[0], reps[1]
    res = main["result"]
    build_s = statistics.median(raw["setup_s"])
    sites = site_estimates(main["profile"])
    rows = ledger(main, build_s, sites)
    counters = main["counters"]
    events = main["events"]
    cpu = main["cpu_user_s"] + main["cpu_sys_s"]
    run_s = main["wall_s"] - build_s
    k1 = reps[2] if len(reps) > 2 else None
    m = {
        "scenarios.build_ms": build_s * 1e3,
        "sim.events": events,
        "sim.events_per_s": untraced["events"] / untraced["wall_s"],
        "sim.dispatch_self_ns": sites[DISPATCH]["self_ns"] / events if events else 0.0,
        "sim.unattributed_frac": rows[-1][1] / main["wall_s"],
        "sim.host_calls": sites[HOST]["calls"],
        "sim.host_ns": sites[HOST]["mean_ns"],
        "sim.link_tx_packets": counters["link_tx_packets"],
        "sim.link_drops": counters["link_drops"],
        "sim.tcp_retransmits": counters["tcp_retransmits"],
        "sim.queue_peak_pending": counters["queue_peak_pending"],
        "sim.pool_hwm_slots": counters["pool_hwm_slots"],
        "sim.shard.busy_frac": sites[DISPATCH]["incl_ns"] * 1e-9 / (main["threads"] * run_s),
        "sim.shard.speedup_4_vs_1": k1["wall_s"] / main["wall_s"] if k1 else 0.0,
        "sim.shard.cpu_s": cpu,
        "sim.shard.sys_frac": main["cpu_sys_s"] / cpu if cpu > 0 else 0.0,
        "dataplane.walks": sites[WALK]["calls"],
        "dataplane.walk_ns": sites[WALK]["mean_ns"],
        "runtime.mode_calls": sites[MODE]["calls"],
        "runtime.mode_ns": sites[MODE]["mean_ns"],
        "control.epochs": res.get("epochs", 0),
        "control.replans": res.get("replans", 0),
        "control.scale_ups": res.get("scale_ups", 0),
        "control.sheds": res.get("sheds", 0),
        "control.teardowns": res.get("teardowns", 0),
        "control.over_budget": res.get("over_budget", 0),
        "attacks.rolls": res.get("rolls", res.get("attacker_rolls", 0)),
        "attacks.flood_syns": res.get("flood_syns", 0),
        "telemetry.export_ms": max(main["export_s"], 0.0) * 1e3,
        "telemetry.doc_bytes": main["doc_bytes"],
        "telemetry.trace_overhead": main["wall_s"] / untraced["wall_s"],
    }
    return m, rows, sites


def result_line(metrics, catalogue, checks):
    """The benchmark's last line: {"correct", "attempted", "failed", "metrics"}."""
    failed = sum(1 for _, ok in checks if not ok)
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": catalogue[name][0]}
                    for name in catalogue},
    }
