//! Lower one request schedule plus a stream of repairs into a single
//! network simulation and summarize per-request latency.

use rpr_codec::{BlockId, StripeCodec};
use rpr_core::trace::{graph_events, job_transfer, sort_by_instant, transfer_events};
use rpr_core::{network_for, CostModel, JobGraph, Op, RepairContext, RepairPlanner, RprPlanner};
use rpr_netsim::{JobId, Simulator};
use rpr_obs::{Event, Recorder};
use rpr_sched::quantile;
use rpr_topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy};

use crate::gen::{generate, split_even, RequestKind};
use crate::spec::{LoadSpec, RepairMode};

/// Exact (nearest-rank, not histogram-bucketed) latency summary of one
/// co-simulated run. Same spec — bit-identical summary, including its
/// [`LoadSummary::to_json`] line.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadSummary {
    /// Repair tenancy mode name (`off` / `unthrottled` / `qos`).
    pub mode: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Requests issued.
    pub requests: usize,
    /// Of those, reads.
    pub reads: usize,
    /// Of those, writes.
    pub writes: usize,
    /// Reads served from the repair pipeline (degraded reads).
    pub degraded: usize,
    /// Rate-cap fraction applied to repair `Send` flows.
    pub repair_fraction: f64,
    /// Median request latency, seconds (arrival to last byte).
    pub latency_p50: f64,
    /// 99th percentile request latency, seconds.
    pub latency_p99: f64,
    /// 99.9th percentile request latency, seconds.
    pub latency_p999: f64,
    /// Mean request latency, seconds.
    pub mean_latency: f64,
    /// Median time to first delivered byte, seconds. For degraded reads
    /// this is the pipeline cut-through of the first decoded chunk.
    pub first_byte_p50: f64,
    /// 99th percentile time to first byte, seconds.
    pub first_byte_p99: f64,
    /// 99.9th percentile time to first byte, seconds.
    pub first_byte_p999: f64,
    /// Completion time of the last repair flow (0 with repair off).
    pub repair_makespan: f64,
    /// Completion time of the whole co-simulation.
    pub makespan: f64,
}

impl LoadSummary {
    /// One-line JSON with a stable field order; byte-identical across
    /// same-seed runs, so soak scripts can `cmp` two summaries.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"seed\":{},\"requests\":{},\"reads\":{},\"writes\":{},\
             \"degraded\":{},\"repair_fraction\":{},\"latency_p50\":{},\"latency_p99\":{},\
             \"latency_p999\":{},\"mean_latency\":{},\"first_byte_p50\":{},\
             \"first_byte_p99\":{},\"first_byte_p999\":{},\"repair_makespan\":{},\
             \"makespan\":{}}}",
            self.mode,
            self.seed,
            self.requests,
            self.reads,
            self.writes,
            self.degraded,
            self.repair_fraction,
            self.latency_p50,
            self.latency_p99,
            self.latency_p999,
            self.mean_latency,
            self.first_byte_p50,
            self.first_byte_p99,
            self.first_byte_p999,
            self.repair_makespan,
            self.makespan,
        )
    }
}

/// Run a co-simulation without tracing. See [`run_load_recorded`].
pub fn run_load(spec: &LoadSpec) -> LoadSummary {
    run_load_recorded(spec, rpr_obs::noop())
}

/// Co-simulate the foreground workload of `spec` against its repair
/// stream and return the latency summary. Every flow — client requests,
/// degraded-read relays and repair transfers — runs through one
/// max-min-fair [`Simulator`], so they contend for the same links.
///
/// Request/QoS trace events and the underlying transfer events are
/// recorded into `rec` (schema in `docs/TRACING.md`).
///
/// # Panics
/// Panics if the spec fails [`LoadSpec::validate`].
pub fn run_load_recorded(spec: &LoadSpec, rec: &dyn Recorder) -> LoadSummary {
    spec.validate();
    let codec = StripeCodec::new(spec.params);
    let topo = cluster_for(spec.params, 1, 1);
    let placement = Placement::by_policy(PlacementPolicy::RprPreplaced, spec.params, &topo);
    let profile = BandwidthProfile::uniform(topo.rack_count(), spec.inner_bps, spec.cross_bps);
    let lost = BlockId(0);
    let mut ctx = RepairContext::new(
        &codec,
        &topo,
        &placement,
        vec![lost],
        spec.block_bytes,
        &profile,
        CostModel::free(),
    );
    if let Some(chunk) = spec.chunk_bytes {
        ctx = ctx.with_chunk_size(chunk);
    }
    let recovery = ctx.recovery_node();
    let requests = generate(spec, &topo, &placement, recovery);

    let mut sim = Simulator::new(network_for(&ctx));
    let repair_active = spec.mode != RepairMode::Off && spec.repair_stripes > 0;
    // Chunk jobs of the output op of the stripe serving degraded reads.
    let mut out_chunks: Vec<JobId> = Vec::new();
    let plan = repair_active.then(|| RprPlanner::new().plan(&ctx));
    let graph = plan
        .as_ref()
        .map(|plan| JobGraph::new(plan, &vec![true; plan.ops.len()], &ctx));
    // Each repair stripe's job ids in `graph`.
    let mut stripes = Vec::new();
    if let Some(graph) = &graph {
        let plan = graph.plan;
        let (_, out_op) = plan.outputs[0];
        let fraction = spec.mode.repair_fraction();
        let mut throttled = 0u64;
        for stripe in 0..spec.repair_stripes {
            let ids = graph.add_to(&mut sim, stripe);
            let op_jobs = |i: usize| &ids[graph.ops[i].jobs.clone()];
            // A fleet drain trickles admissions; model stripe `s`
            // entering the network `s * stagger` seconds in.
            let start = stripe as f64 * spec.repair_stagger;
            if start > 0.0 {
                for &job in &ids {
                    sim.release_at(job, start);
                }
            }
            // QoS classes: stripe 0 serves live degraded reads, so its
            // flows stay foreground-priority (unthrottled); background
            // rebuild stripes admit against the residual fraction only.
            if fraction < 1.0 && stripe > 0 {
                for (i, op) in plan.ops.iter().enumerate() {
                    if matches!(op, Op::Send { .. }) {
                        for &job in op_jobs(i) {
                            sim.throttle(job, fraction);
                            throttled += 1;
                        }
                    }
                }
            }
            if stripe == 0 {
                out_chunks = op_jobs(out_op.0).to_vec();
            }
            stripes.push(ids);
        }
        if fraction < 1.0 {
            rec.emit(|| Event::QosThrottled {
                flows: throttled,
                fraction,
                t: 0.0,
            });
        }
    }

    // Lower the request schedule. Each request remembers its netsim jobs
    // so latency can be read back off the job records.
    let mut req_jobs: Vec<(Vec<JobId>, bool)> = Vec::with_capacity(requests.len());
    let repair_job_count = sim.job_count();
    for r in &requests {
        let host = placement.node_of(r.block);
        let degraded = r.kind == RequestKind::Read && r.block == lost && repair_active;
        let mut jobs = Vec::new();
        if degraded {
            // Serve from the repair pipeline: relay each decoded chunk
            // from the recovery node to the client as it materializes.
            // The chain (prev relay as a dependency) models in-order
            // delivery on one connection; the first chunk cuts through.
            let pieces = split_even(spec.request_bytes, out_chunks.len());
            let mut prev: Option<JobId> = None;
            for (j, &bytes) in pieces.iter().enumerate() {
                if bytes == 0 {
                    continue;
                }
                let mut deps = vec![out_chunks[j]];
                if let Some(p) = prev {
                    deps.push(p);
                }
                let job = sim.transfer(
                    format!("req{}:relay{}", r.id, j),
                    recovery,
                    r.client,
                    bytes,
                    &deps,
                );
                sim.release_at(job, r.arrival);
                prev = Some(job);
                jobs.push(job);
            }
        } else {
            let (label, from, to) = match r.kind {
                RequestKind::Read => (format!("req{}:read", r.id), host, r.client),
                // Writes to the lost block land on its replacement once
                // repair is underway; otherwise on the original host.
                RequestKind::Write if r.block == lost && repair_active => {
                    (format!("req{}:write", r.id), r.client, recovery)
                }
                RequestKind::Write => (format!("req{}:write", r.id), r.client, host),
            };
            let job = sim.transfer(label, from, to, spec.request_bytes, &[]);
            sim.release_at(job, r.arrival);
            jobs.push(job);
        }
        rec.emit(|| Event::RequestIssued {
            request: r.id,
            read: r.kind == RequestKind::Read,
            degraded,
            t: r.arrival,
        });
        req_jobs.push((jobs, degraded));
    }

    let report = sim.run();
    // The run's transfer and combine events in time order: the repair
    // stripes' off their graph, then the requests' (job id order).
    if rec.enabled() {
        let mut events = Vec::new();
        if let Some(graph) = &graph {
            for ids in &stripes {
                events.extend(graph_events(graph, &topo, &report, ids));
            }
        }
        for r in &report.records[repair_job_count..] {
            transfer_events(job_transfer(&topo, r, None), r, &mut events);
        }
        sort_by_instant(&mut events);
        for (_, e) in events {
            rec.record(e);
        }
    }

    let mut latencies = Vec::with_capacity(requests.len());
    let mut first_bytes = Vec::with_capacity(requests.len());
    let (mut reads, mut writes, mut degraded_count) = (0usize, 0usize, 0usize);
    for (r, (jobs, degraded)) in requests.iter().zip(&req_jobs) {
        let finish = jobs
            .iter()
            .map(|&j| report.record(j).finish)
            .fold(f64::NEG_INFINITY, f64::max);
        let first = jobs
            .iter()
            .map(|&j| report.record(j).finish)
            .fold(f64::INFINITY, f64::min);
        latencies.push(finish - r.arrival);
        first_bytes.push(first - r.arrival);
        match r.kind {
            RequestKind::Read => reads += 1,
            RequestKind::Write => writes += 1,
        }
        if *degraded {
            degraded_count += 1;
        }
        rec.emit(|| Event::RequestDone {
            request: r.id,
            read: r.kind == RequestKind::Read,
            degraded: *degraded,
            first_byte: first - r.arrival,
            issued: r.arrival,
            end: finish,
        });
    }

    let repair_makespan = (0..repair_job_count)
        .map(|j| report.records[j].finish)
        .fold(0.0f64, f64::max);
    let mean_latency = latencies.iter().sum::<f64>() / latencies.len() as f64;
    latencies.sort_by(f64::total_cmp);
    first_bytes.sort_by(f64::total_cmp);
    LoadSummary {
        mode: spec.mode.name(),
        seed: spec.seed,
        requests: requests.len(),
        reads,
        writes,
        degraded: degraded_count,
        repair_fraction: spec.mode.repair_fraction(),
        latency_p50: quantile(&latencies, 0.50),
        latency_p99: quantile(&latencies, 0.99),
        latency_p999: quantile(&latencies, 0.999),
        mean_latency,
        first_byte_p50: quantile(&first_bytes, 0.50),
        first_byte_p99: quantile(&first_bytes, 0.99),
        first_byte_p999: quantile(&first_bytes, 0.999),
        repair_makespan,
        makespan: report.makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_core::{combine_kernel, op_label};

    fn small(seed: u64, mode: RepairMode) -> LoadSpec {
        let mut spec = LoadSpec::paper_config(seed, mode);
        spec.requests = 60;
        spec.repair_stripes = 2;
        spec.block_bytes = 4 * 1024 * 1024;
        spec.chunk_bytes = Some(1024 * 1024);
        spec.request_bytes = 1024 * 1024;
        spec
    }

    #[test]
    fn same_seed_summaries_are_bit_identical() {
        let spec = small(17, RepairMode::Unthrottled);
        let a = run_load(&spec);
        let b = run_load(&spec);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_load(&small(17, RepairMode::Off));
        let b = run_load(&small(18, RepairMode::Off));
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn repair_off_has_no_repair_traffic_or_degraded_reads() {
        let s = run_load(&small(17, RepairMode::Off));
        assert_eq!(s.degraded, 0);
        assert_eq!(s.repair_makespan, 0.0);
        assert_eq!(s.requests, 60);
        assert_eq!(s.reads + s.writes, 60);
    }

    #[test]
    fn degraded_reads_cut_through_before_completion() {
        let s = run_load(&small(17, RepairMode::Unthrottled));
        assert!(s.degraded > 0, "workload should hit the lost block");
        // Per request first byte <= completion, so the sorted vectors
        // dominate elementwise and every quantile preserves the order.
        assert!(s.first_byte_p50 <= s.latency_p50);
        assert!(s.first_byte_p99 <= s.latency_p99);
        assert!(s.repair_makespan > 0.0);
    }

    #[test]
    fn request_schedule_is_mode_independent() {
        let off = run_load(&small(23, RepairMode::Off));
        let on = run_load(&small(23, RepairMode::Unthrottled));
        assert_eq!(off.reads, on.reads);
        assert_eq!(off.writes, on.writes);
    }

    #[test]
    fn repair_traffic_inflates_latency_and_qos_wins_it_back() {
        let off = run_load(&LoadSpec::paper_config(17, RepairMode::Off));
        let unthrottled = run_load(&LoadSpec::paper_config(17, RepairMode::Unthrottled));
        let qos = run_load(&LoadSpec::paper_config(17, LoadSpec::paper_qos()));
        assert!(
            unthrottled.latency_p99 > off.latency_p99,
            "unthrottled repair must hurt foreground p99 \
             (unthrottled {} vs off {})",
            unthrottled.latency_p99,
            off.latency_p99
        );
        assert!(
            qos.latency_p99 < unthrottled.latency_p99,
            "QoS must strictly improve foreground p99 \
             (qos {} vs unthrottled {})",
            qos.latency_p99,
            unthrottled.latency_p99
        );
        // Throttled repair finishes no earlier than unthrottled.
        assert!(qos.repair_makespan >= unthrottled.repair_makespan);
    }

    #[test]
    fn events_reach_the_recorder() {
        let rec = rpr_obs::TraceRecorder::default();
        let spec = small(
            17,
            RepairMode::Qos {
                foreground_share: 0.6,
                repair_floor: 0.2,
            },
        );
        let summary = run_load_recorded(&spec, &rec);
        let events = rec.take_events();
        assert_eq!(rec.dropped(), 0);
        let dones: Vec<(bool, f64)> = events
            .iter()
            .filter_map(|e| match e {
                Event::RequestDone {
                    degraded,
                    issued,
                    end,
                    ..
                } => Some((*degraded, end - issued)),
                _ => None,
            })
            .collect();
        let count = |kind: &str| events.iter().filter(|e| e.name() == kind).count();
        assert_eq!(dones.len(), summary.requests);
        assert_eq!(dones.iter().filter(|(d, _)| *d).count(), summary.degraded);
        assert_eq!(count("qos_throttled"), 1);
        // One finite, non-negative latency per completed request.
        assert!(dones.iter().all(|(_, lat)| lat.is_finite() && *lat >= 0.0));
        assert!(count("transfer_done") > 0);
    }

    #[test]
    fn repair_events_name_their_ops() {
        // Every event of every chunk job of every repair stripe carries
        // what its op says: a send its cross-rack wave, a combine its
        // kernel, input count and chunk bytes.
        let spec = small(17, RepairMode::Unthrottled);
        let chunk = spec.chunk_bytes.expect("a chunked repair");
        let rec = rpr_obs::TraceRecorder::default();
        run_load_recorded(&spec, &rec);
        let codec = StripeCodec::new(spec.params);
        let topo = cluster_for(spec.params, 1, 1);
        let placement = Placement::by_policy(PlacementPolicy::RprPreplaced, spec.params, &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), spec.inner_bps, spec.cross_bps);
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(0)],
            spec.block_bytes,
            &profile,
            CostModel::free(),
        )
        .with_chunk_size(chunk);
        let plan = RprPlanner::new().plan(&ctx);
        let (waves, _) = plan.cross_waves(&topo);
        let m = spec.block_bytes.div_ceil(chunk) as usize;
        assert!(m > 1 && spec.repair_stripes > 0);
        // Each repair job's label, and the op it runs.
        let mut ops = std::collections::BTreeMap::new();
        for stripe in 0..spec.repair_stripes {
            for i in 0..plan.ops.len() {
                for j in 0..m {
                    ops.insert(op_label(&plan, stripe, i, Some(j)), i);
                }
            }
        }
        let (mut sends, mut combines) = (0, 0);
        for e in rec.take_events() {
            match e {
                Event::TransferDone { xfer, .. } => {
                    if let Some(&i) = ops.get(&xfer.label) {
                        assert_eq!(xfer.timestep, waves[i], "{}", xfer.label);
                        sends += 1;
                    }
                }
                Event::CombineDone {
                    label,
                    kernel,
                    inputs,
                    bytes,
                    ..
                } => {
                    let i = ops[&label];
                    let Op::Combine { inputs: ins, .. } = &plan.ops[i] else {
                        panic!("{label} is not a combine");
                    };
                    assert_eq!(Some(kernel), combine_kernel(&plan, i), "{label}");
                    assert_eq!(inputs, ins.len(), "{label}");
                    assert_eq!(bytes, chunk, "{label}");
                    combines += 1;
                }
                _ => {}
            }
        }
        assert_eq!(sends + combines, ops.len());
        assert!(waves.iter().any(Option::is_some));
    }
}
