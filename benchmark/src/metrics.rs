//! The metric catalogue: what each run reports, in which unit, from which
//! span, count or probe. `BENCHMARK.json` is generated from these tables
//! (`--manifest`), so the file and the harness cannot drift apart.

use crate::probes::Probes;
use crate::report::Metric;
use crate::runner::Measured;
use crate::stats;
use crate::workloads::WORKLOADS;
use std::fmt::Write as _;

/// `run_seconds` in `BENCHMARK.json`: how long one run's timed loop lasts.
pub const RUN_SECONDS: u64 = 8;

/// An end-to-end metric's direction and the share of the parent's median
/// by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these, from its untraced run.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

/// Simulated-time results: not timings of this machine but outputs of the
/// program's virtual clocks, which must repeat to the last bit.
pub const EXACT: [&str; 5] = [
    "core.sim_repair_time_s",
    "core.cross_rack_blocks",
    "load.fg_latency_p99_s",
    "sched.fleet_makespan_s",
    "sched.stripes_lost",
];

/// The end-to-end metrics of one run. Timings come from the untraced loop
/// only; `samples` is the number of timed operations behind each.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let n = m.plain_s.len();
    let values = [
        (stats::median(&m.setup_s), m.setup_s.len()),
        (stats::median(&m.plain_s) * 1e3, n),
        (n as f64 / m.loop_wall_s, n),
        (m.loop_cpu_s * 1e3 / n as f64, n),
        (m.peak_rss_mb, 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(e, (value, samples))| Metric::new(e.name, value, e.unit, samples))
        .collect()
}

/// The per-layer metrics of one traced run: probes (direct calls, the same
/// in every run) and what the workload's spans and counts add up to, per
/// traced operation — the loop is time-boxed, so totals would scale with
/// how many operations fitted. A layer the workload never entered reads 0.
pub fn per_layer(m: &Measured, probes: &Probes) -> Vec<Metric> {
    let tr = &m.tracer;
    let spans = tr.by_name();
    let ops = m.traced_s.len();
    let per_op = |x: f64| if ops == 0 { 0.0 } else { x / ops as f64 };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let span_s = |name: &str| spans.get(name).map_or(0.0, |t| t.self_s);
    let repairs = tr.total("exec.repairs");

    // Wall seconds of each traced repair, for the per-repair percentiles.
    let repair_s: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "exec.execute_supervised")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect();
    let p99 = if stats::supports(repair_s.len(), 99.0) {
        stats::percentile(&repair_s, 99.0).unwrap_or(0.0)
    } else {
        0.0
    };
    // Seconds the folds would take at the probed kernel rate: what share of
    // the repairs' wall clock is GF arithmetic at all.
    let fold_rate = probes.get("gf.mul_acc_gbps").map_or(0.0, |p| p.0 * 1e9);
    let kernel_s = ratio(tr.total("exec.folded_bytes"), fold_rate);
    let arena = tr.total("exec.arena_fresh") + tr.total("exec.arena_recycled");
    // One journal-less drain is traced after the loop; the journal's cost
    // is what a journalled drain takes beyond it.
    let bare_drain_s = span_s("sched.drain_without_journal");
    let journal_s = if bare_drain_s > 0.0 {
        per_op(span_s("sched.run_fleet")) - bare_drain_s
    } else {
        0.0
    };
    let overhead = ratio(stats::median(&m.traced_s), stats::median(&m.plain_s)) - 1.0;

    let mut out = Vec::new();
    let mut probe = |name: &'static str, unit: &'static str| {
        let (value, samples) = probes.get(name).copied().unwrap_or((0.0, 0));
        out.push(Metric::new(name, value, unit, samples));
    };
    probe("gf.mul_acc_gbps", "GB/s");
    probe("gf.xor_gbps", "GB/s");
    probe("gf.lin_comb_multi_gbps", "GB/s");
    probe("linalg.invert_us", "us");
    probe("codec.encode_mbps", "MB/s");
    probe("codec.decode_mbps", "MB/s");
    probe("codec.decode_repeat_mbps", "MB/s");
    probe("codec.xor_decode_mbps", "MB/s");
    probe("codec.repair_equations_us", "us");
    probe("faults.checksum_gbps", "GB/s");
    probe("proof.hash_gbps", "GB/s");
    probe("proof.audit_ms", "ms");
    probe("netsim.scaling_exponent", "ratio");
    probe("sched.admit_stripes_per_s", "1/s");
    probe("store.build_ms", "ms");
    probe("store.recover_fleet_ms", "ms");
    probe("obs.export_mb_per_s", "MB/s");

    let mut traced = |name: &'static str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit, ops));
    };
    let count = |name: &str| per_op(tr.total(name));
    let ms = |name: &str| per_op(span_s(name)) * 1e3;
    let count_ms = |name: &str| per_op(tr.total(name)) * 1e3;

    traced("core.plan_ms", ms("core.plan"), "ms/op");
    traced("core.plans", count("core.plans"), "count/op");
    traced("core.validate_ms", ms("core.validate"), "ms/op");
    traced(
        "core.supervise_sim_ms",
        ms("core.supervise_injected"),
        "ms/op",
    );
    traced(
        "core.sim_repair_time_s",
        count("sim.repair_time_s"),
        "sim_s",
    );
    traced(
        "core.cross_rack_blocks",
        count("sim.cross_rack_blocks"),
        "blocks",
    );
    traced("netsim.simulate_ms", ms("netsim.simulate"), "ms/op");
    traced("netsim.jobs", count("netsim.jobs"), "count/op");
    traced(
        "netsim.jobs_per_s",
        ratio(tr.total("netsim.jobs"), span_s("netsim.simulate")),
        "1/s",
    );
    traced(
        "exec.repair_mbps",
        ratio(
            tr.total("exec.repaired_bytes") / 1e6,
            span_s("exec.execute_supervised"),
        ),
        "MB/s",
    );
    traced(
        "exec.repair_ms_p50",
        stats::median(&repair_s) * 1e3,
        "ms/repair",
    );
    traced("exec.repair_ms_p99", p99 * 1e3, "ms/repair");
    traced(
        "exec.overhead_ms",
        ratio(tr.total("exec.overhead_s"), repairs) * 1e3,
        "ms/repair",
    );
    traced(
        "exec.first_byte_ms",
        ratio(tr.total("exec.first_byte_s"), repairs) * 1e3,
        "ms/repair",
    );
    traced(
        "exec.first_chunk_ms",
        ratio(tr.total("exec.first_chunk_s"), tr.total("exec.streams")) * 1e3,
        "ms/stream",
    );
    traced(
        "exec.transfer_busy_ms",
        count_ms("exec.transfer_busy_s"),
        "ms/op",
    );
    traced(
        "exec.transfer_wait_ms",
        count_ms("exec.transfer_wait_s"),
        "ms/op",
    );
    traced(
        "exec.combine_busy_ms",
        count_ms("exec.combine_busy_s"),
        "ms/op",
    );
    traced(
        "exec.kernel_share",
        ratio(kernel_s, span_s("exec.execute_supervised")),
        "ratio",
    );
    traced("exec.arena_fresh", count("exec.arena_fresh"), "count/op");
    traced(
        "exec.arena_recycled",
        count("exec.arena_recycled"),
        "count/op",
    );
    traced(
        "exec.arena_recycle_ratio",
        ratio(tr.total("exec.arena_recycled"), arena),
        "ratio",
    );
    traced("exec.cross_bytes", count("exec.cross_bytes"), "bytes/op");
    traced("exec.inner_bytes", count("exec.inner_bytes"), "bytes/op");
    traced("exec.retries", count("exec.retries"), "count/op");
    traced("exec.replans", count("exec.replans"), "count/op");
    traced("exec.reused_ops", count("exec.reused_ops"), "count/op");
    traced(
        "exec.wall_over_model",
        ratio(
            tr.total("storm.clean_wall_over_model"),
            tr.total("storm.clean_repairs"),
        ),
        "ratio",
    );
    traced(
        "exec.storm_wall_over_model",
        ratio(
            tr.total("storm.storm_wall_over_model"),
            tr.total("storm.storm_repairs"),
        ),
        "ratio",
    );
    traced("proof.emitted", count("proof.emitted"), "count/op");
    traced("proof.rejected", count("proof.rejected"), "count/op");
    traced("proof.ledger_audit_ms", ms("proof.audit"), "ms/op");
    traced("sched.drain_ms", ms("sched.run_fleet"), "ms/op");
    traced("sched.classes", count("sched.classes"), "count/op");
    traced("sched.waited", count("sched.waited"), "count/op");
    traced(
        "sched.max_utilization",
        count("sched.max_utilization"),
        "ratio",
    );
    traced(
        "sched.churn_events",
        count("sched.churn_events"),
        "count/op",
    );
    traced("sched.escalations", count("sched.escalations"), "count/op");
    traced(
        "sched.stripes_lost",
        count("sched.stripes_lost"),
        "count/op",
    );
    traced(
        "sched.fleet_makespan_s",
        count("sched.fleet_makespan_s"),
        "sim_s",
    );
    traced(
        "sched.journal_bytes",
        count("sched.journal_bytes"),
        "bytes/op",
    );
    traced("sched.journal_overhead_ms", journal_s * 1e3, "ms/op");
    traced("load.requests", count("load.requests"), "count/op");
    traced("load.degraded", count("load.degraded"), "count/op");
    traced("load.cosim_ms.off", ms("load.run_load.off"), "ms/op");
    traced(
        "load.cosim_ms.unthrottled",
        ms("load.run_load.unthrottled"),
        "ms/op",
    );
    traced("load.cosim_ms.qos", ms("load.run_load.qos"), "ms/op");
    traced(
        "load.fg_latency_p99_s",
        count("load.fg_latency_p99_s"),
        "sim_s",
    );
    traced("obs.events", count("obs.events"), "count/op");
    traced("obs.trace_overhead_pct", overhead * 100.0, "%");
    traced("bench.verify_ms", ms("bench.verify"), "ms/op");
    traced("bench.spans", per_op(tr.spans().len() as f64), "count/op");
    out
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            w.why,
            comma(i, WORKLOADS.len())
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            e.name,
            e.unit,
            e.better,
            e.bound,
            comma(i, END_TO_END.len())
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer(&Measured::empty(), &Probes::new());
    for (i, m) in layers.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            better(m.name, m.unit),
            comma(i, layers.len())
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// Direction of a per-layer metric: rates and reuse are better higher,
/// times, bytes, events and overheads better lower.
fn better(name: &str, unit: &str) -> &'static str {
    let rate = matches!(unit, "GB/s" | "MB/s" | "1/s");
    if rate || name.ends_with("recycle_ratio") || name.ends_with("arena_recycled") {
        "higher"
    } else {
        "lower"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let layers = per_layer(&Measured::empty(), &Probes::new());
        assert!(layers.len() <= 128);
        let mut names: Vec<&str> = layers.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|e| e.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let ok = |c: char, extra: &str| c.is_ascii_alphanumeric() || extra.contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(|c| ok(c, "_.-")), "{n}");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let units = layers
            .iter()
            .map(|m| m.unit)
            .chain(END_TO_END.iter().map(|e| e.unit));
        for u in units {
            assert!(u.len() <= 16 && u.chars().all(|c| ok(c, "_/%.-")), "{u}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
        assert!(manifest().len() < 64 * 1024);
    }
}
