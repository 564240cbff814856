//! The event vocabulary both backends share: labels, kernel kinds,
//! transfer descriptors, stream summaries and wave spans — the rules that
//! make a simulated trace and a real-bytes trace of one plan line up
//! event for event.
//!
//! [`simulate_traced`] is the clean simulated repair: a fault-free
//! [`supervise`] on the [`SimBackend`] with the caller's plan, so its
//! trace is what the supervision loop records for any generation — one
//! `plan_built`; the events of every transfer and combine job, read off
//! the [`JobGraph`] and the simulator's job records by [`graph_events`]
//! (with cross-rack timesteps and XOR-vs-GF kernel kinds, which the
//! network layer cannot know); one `stream_summary` per streamed send;
//! per-wave `timestep_started`/`timestep_finished` brackets; and a final
//! `repair_done`.

use crate::plan::{Input, Op, RepairPlan};
use crate::scenario::RepairContext;
use crate::sim::JobGraph;
use crate::supervise::{supervise, SimBackend, SuperviseConfig, SuperviseOutcome};
use rpr_faults::{FaultStorm, HealthTracker};
use rpr_netsim::{JobId, JobKind, JobRecord, SimReport};
use rpr_obs::{Event, Kernel, Recorder, Transfer};
use rpr_topology::Topology;
use std::fmt;

/// The decode kernel combine op `i` runs: [`Kernel::Xor`] when the scheme
/// doesn't force matrix decoding and every block coefficient is 1 (the
/// §3.3 pre-placement fast path — intermediates always merge by XOR),
/// [`Kernel::Gf`] otherwise. `None` when op `i` is a send.
pub fn combine_kernel(plan: &RepairPlan, i: usize) -> Option<Kernel> {
    match &plan.ops[i] {
        Op::Send { .. } => None,
        Op::Combine { inputs, .. } => {
            let gf = plan.force_matrix
                || inputs
                    .iter()
                    .any(|inp| matches!(inp, Input::Block { coeff, .. } if *coeff != 1));
            Some(if gf { Kernel::Gf } else { Kernel::Xor })
        }
    }
}

/// The `plan_built` event every repair trace opens with, on either
/// substrate.
pub(crate) fn plan_built(plan: &RepairPlan, topo: &Topology) -> Event {
    let stats = plan.stats(topo);
    Event::PlanBuilt {
        scheme: plan.scheme.to_string(),
        parts: plan.outputs.len(),
        ops: plan.ops.len(),
        cross_transfers: stats.cross_transfers,
        inner_transfers: stats.inner_transfers,
        cross_timesteps: plan.cross_waves(topo).1,
        block_bytes: plan.block_bytes,
    }
}

/// The label of op `i` under `tag` (the plan's index in a shared
/// simulator, or the supervision generation): `p{tag}op{i}:send` or
/// `p{tag}op{i}:combine`, with a `c{j}` suffix (`p{tag}op{i}c{j}:send`)
/// for chunk `j` of an op the simulator lowers as several chunk jobs.
/// Both backends name ops by it.
pub fn op_label(plan: &RepairPlan, tag: usize, i: usize, chunk: Option<usize>) -> String {
    /// `c{j}` for chunk `j`, nothing for a whole op.
    struct Suffix(Option<usize>);
    impl fmt::Display for Suffix {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.map_or(Ok(()), |j| write!(f, "c{j}"))
        }
    }
    let kind = match plan.ops[i] {
        Op::Send { .. } => "send",
        Op::Combine { .. } => "combine",
    };
    format!("p{tag}op{i}{}:{kind}", Suffix(chunk))
}

/// The transfer descriptor of send op `i` under `tag`: its [`op_label`],
/// endpoints, one block of payload, and its cross-rack wave from
/// `waves` ([`RepairPlan::cross_waves`]).
///
/// # Panics
/// Panics if op `i` is not a send.
pub fn send_transfer(
    plan: &RepairPlan,
    topo: &Topology,
    waves: &[Option<usize>],
    tag: usize,
    i: usize,
) -> Transfer {
    let Op::Send { from, to, .. } = plan.ops[i] else {
        panic!("op {i} is not a send");
    };
    Transfer {
        label: op_label(plan, tag, i, None),
        src_node: from.0,
        src_rack: topo.rack_of(from).0,
        dst_node: to.0,
        dst_rack: topo.rack_of(to).0,
        bytes: plan.block_bytes,
        cross: !topo.same_rack(from, to),
        timestep: waves[i],
    }
}

/// The descriptor of simulated transfer job `r`: its label, endpoints and
/// bytes, in cross-rack wave `timestep` (`None` off the wave schedule).
///
/// # Panics
/// Panics if `r` is a compute job.
pub fn job_transfer(topo: &Topology, r: &JobRecord, timestep: Option<usize>) -> Transfer {
    let JobKind::Transfer { from, to, bytes } = r.kind else {
        panic!("job {} is not a transfer", r.label);
    };
    Transfer {
        label: r.label.clone(),
        src_node: from.0,
        src_rack: topo.rack_of(from).0,
        dst_node: to.0,
        dst_rack: topo.rack_of(to).0,
        bytes,
        cross: !topo.same_rack(from, to),
        timestep,
    }
}

/// The `stream_summary` of a send streamed as `chunks` chunks of
/// `chunk_bytes`: started at `start`, first chunk through at `first`,
/// last at `end` — cut-through latency and whole-stream throughput.
pub fn stream_summary(
    xfer: Transfer,
    chunks: usize,
    chunk_bytes: u64,
    start: f64,
    first: f64,
    end: f64,
) -> Event {
    let span = end - start;
    let throughput = if span > 0.0 {
        xfer.bytes as f64 / span
    } else {
        f64::INFINITY
    };
    Event::StreamSummary {
        xfer,
        chunks,
        chunk_bytes,
        first_chunk_latency: first - start,
        throughput,
        t: end,
    }
}

/// Per-wave `(start, finish)` over the cross sends flagged in `ran`, from
/// per-op spans: a wave spans its cross sends' earliest start to their
/// latest finish, and a wave none of whose sends ran starts at infinity.
pub(crate) fn wave_spans(
    plan: &RepairPlan,
    topo: &Topology,
    ran: &[bool],
    spans: &[(f64, f64)],
) -> Vec<(f64, f64)> {
    let (waves, wave_count) = plan.cross_waves(topo);
    let mut out = vec![(f64::INFINITY, 0.0f64); wave_count];
    for (i, wave) in waves.iter().enumerate() {
        if let (Some(w), true) = (wave, ran[i]) {
            out[*w].0 = out[*w].0.min(spans[i].0);
            out[*w].1 = out[*w].1.max(spans[i].1);
        }
    }
    out
}

/// Append the events of one simulated transfer job to `out` as
/// `(instant, event)` pairs: each failed attempt is queued and started at
/// its start, then failed and its retry scheduled at its abort; the final
/// attempt is queued and started at its start and done at its finish. The
/// engine starts a job the instant it may run, so every queue wait is
/// zero (`rpr-exec` measures real ones).
pub fn transfer_events(xfer: Transfer, r: &JobRecord, out: &mut Vec<(f64, Event)>) {
    let begin = |t: f64| {
        let queued = Event::TransferQueued {
            xfer: xfer.clone(),
            t,
        };
        let started = Event::TransferStarted {
            xfer: xfer.clone(),
            queue_wait: 0.0,
            t,
        };
        [(t, queued), (t, started)]
    };
    for (attempt, f) in r.failures.iter().enumerate() {
        out.extend(begin(f.start));
        let (reason, t) = (f.reason.clone(), f.at);
        let failed = Event::TransferFailed {
            xfer: xfer.clone(),
            attempt,
            reason,
            t,
        };
        let retry = Event::RetryScheduled {
            label: xfer.label.clone(),
            rack: xfer.src_rack,
            attempt,
            delay: f.delay,
            t,
        };
        out.extend([(t, failed), (t, retry)]);
    }
    out.extend(begin(r.start));
    let (start, end) = (r.start, r.finish);
    out.push((end, Event::TransferDone { xfer, start, end }));
}

/// The events of `graph`'s simulated run as `(instant, event)` pairs in
/// time order ([`sort_by_instant`]). It walks the graph's jobs in order
/// and reads each job's record from `report` through `ids`
/// ([`JobGraph::add_to`]'s return): each chunk job of send op `i` is one
/// [`transfer_events`] sequence tagged with the op's cross-rack wave, and
/// chunk `j` of a combine one `combine_done` with the op's
/// [`combine_kernel`], input count and [`JobGraph::chunks`]`[j]` bytes.
/// Each event keeps its job's label.
pub fn graph_events(
    graph: &JobGraph<'_>,
    topo: &Topology,
    report: &SimReport,
    ids: &[JobId],
) -> Vec<(f64, Event)> {
    let plan = graph.plan;
    let (waves, _) = plan.cross_waves(topo);
    let mut out = Vec::new();
    for (i, op) in plan.ops.iter().enumerate() {
        for (j, id) in ids[graph.ops[i].jobs.clone()].iter().enumerate() {
            let r = report.record(*id);
            match op {
                Op::Send { .. } => transfer_events(job_transfer(topo, r, waves[i]), r, &mut out),
                Op::Combine { node, inputs, .. } => {
                    let done = Event::CombineDone {
                        label: r.label.clone(),
                        node: node.0,
                        rack: topo.rack_of(*node).0,
                        kernel: combine_kernel(plan, i).expect("a combine has a kernel"),
                        inputs: inputs.len(),
                        bytes: graph.chunks[j],
                        start: r.start,
                        end: r.finish,
                    };
                    out.push((r.finish, done));
                }
            }
        }
    }
    sort_by_instant(&mut out);
    out
}

/// Sort `(instant, event)` pairs by instant, stably: same-instant events
/// keep the order they were built in (queued and started before done).
pub fn sort_by_instant(events: &mut [(f64, Event)]) {
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite job times"));
}

/// Simulate a plan fault-free, recording structured events into `rec`:
/// [`supervise`] on the [`SimBackend`] with `plan` as generation 0 and an
/// empty storm, so the repair time is [`simulate`](crate::sim::simulate)'s
/// and the trace is the supervision loop's (see the module docs).
///
/// # Panics
/// Panics under the same conditions as `simulate` (malformed plans; run
/// [`RepairPlan::validate`] first).
pub fn simulate_traced(
    plan: &RepairPlan,
    ctx: &RepairContext<'_>,
    rec: &dyn Recorder,
) -> SuperviseOutcome {
    let (storm, cfg) = (FaultStorm::new(0), SuperviseConfig::default());
    let backend = &mut SimBackend::default();
    let tracker = &mut HealthTracker::with_defaults();
    supervise(backend, ctx, Some(plan), &storm, &cfg, tracker, rec)
        .expect("a fault-free generation completes the repair")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::schemes::{RepairPlanner, RprPlanner};
    use rpr_codec::{BlockId, CodeParams, StripeCodec};
    use rpr_netsim::Simulator;
    use rpr_topology::{cluster_for, BandwidthProfile, Placement};

    fn traced_rpr(n: usize, k: usize) -> (RepairPlan, rpr_obs::TraceRecorder, SuperviseOutcome) {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            64 << 20,
            &profile,
            CostModel::free(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&codec, &topo, &placement).expect("valid");
        let rec = rpr_obs::TraceRecorder::default();
        let out = simulate_traced(&plan, &ctx, &rec);
        (plan, rec, out)
    }

    #[test]
    fn traced_simulation_matches_untraced() {
        let params = CodeParams::new(6, 3);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(0)],
            64 << 20,
            &profile,
            CostModel::simics(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        let plain = crate::sim::simulate(&plan, &ctx);
        let traced = simulate_traced(&plan, &ctx, rpr_obs::noop());
        assert_eq!(plain.repair_time, traced.repair_time);
        assert_eq!(plain.report.cross_rack_bytes, traced.cross_bytes);
        assert_eq!(plain.report.inner_rack_bytes, traced.inner_bytes);
    }

    #[test]
    fn trace_brackets_run_with_plan_built_and_repair_done() {
        let (plan, rec, out) = traced_rpr(4, 2);
        let events = rec.take_events();
        match &events[0] {
            Event::PlanBuilt {
                scheme,
                ops,
                block_bytes,
                ..
            } => {
                assert_eq!(scheme, "rpr");
                assert_eq!(*ops, plan.ops.len());
                assert_eq!(*block_bytes, plan.block_bytes);
            }
            other => panic!("first event must be plan_built, got {other:?}"),
        }
        match events.last().unwrap() {
            Event::RepairDone { t, cross_bytes, .. } => {
                assert_eq!(*t, out.repair_time);
                assert_eq!(*cross_bytes, out.cross_bytes);
            }
            other => panic!("last event must be repair_done, got {other:?}"),
        }
    }

    #[test]
    fn cross_sends_are_tagged_and_waves_match_plan_built() {
        let (plan, rec, _) = traced_rpr(6, 3);
        let events = rec.take_events();
        let advertised = events
            .iter()
            .find_map(|e| match e {
                Event::PlanBuilt {
                    cross_timesteps, ..
                } => Some(*cross_timesteps),
                _ => None,
            })
            .unwrap();
        let started: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                Event::TimestepStarted { step, .. } => Some(*step),
                _ => None,
            })
            .collect();
        assert_eq!(started, (0..advertised).collect::<Vec<_>>());
        // Every cross transfer_done carries a timestep below the count;
        // inner ones carry none.
        let mut cross_seen = 0;
        for e in &events {
            if let Event::TransferDone { xfer, .. } = e {
                if xfer.cross {
                    cross_seen += 1;
                    assert!(xfer.timestep.expect("cross sends are tagged") < advertised);
                } else {
                    assert_eq!(xfer.timestep, None);
                }
            }
        }
        let topo = cluster_for(plan.params, 1, 1);
        assert_eq!(cross_seen, plan.stats(&topo).cross_transfers);
    }

    #[test]
    fn streamed_trace_emits_bounded_stream_summaries() {
        let params = CodeParams::new(6, 3);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let block: u64 = 64 << 20;
        let chunk: u64 = 1 << 20;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            CostModel::free(),
        )
        .with_chunk_size(chunk);
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&codec, &topo, &placement).expect("valid");
        let rec = rpr_obs::TraceRecorder::default();
        let out = simulate_traced(&plan, &ctx, &rec);
        let sends = plan
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Send { .. }))
            .count();
        let events = rec.take_events();
        let summaries: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::StreamSummary {
                    xfer,
                    chunks,
                    chunk_bytes,
                    first_chunk_latency,
                    throughput,
                    t,
                } => Some((
                    xfer,
                    *chunks,
                    *chunk_bytes,
                    *first_chunk_latency,
                    *throughput,
                    *t,
                )),
                _ => None,
            })
            .collect();
        // Bounded: exactly one summary per send edge, never per chunk.
        assert_eq!(summaries.len(), sends);
        let m = block.div_ceil(chunk) as usize;
        for (xfer, chunks, chunk_bytes, latency, throughput, t) in summaries {
            assert_eq!(chunks, m);
            assert_eq!(chunk_bytes, chunk);
            assert_eq!(xfer.bytes, block);
            assert!(latency > 0.0 && latency < t);
            assert!(throughput > 0.0 && throughput.is_finite());
            assert!(t <= out.repair_time + 1e-9);
        }
        // Cross sends stay wave-tagged under streaming: every chunk of a
        // cross send carries its op's timestep, one chunk per transfer.
        let mut cross_chunks = 0;
        for e in &events {
            if let Event::TransferDone { xfer, .. } = e {
                if xfer.cross {
                    assert!(
                        xfer.timestep.is_some(),
                        "untagged cross chunk {}",
                        xfer.label
                    );
                    cross_chunks += 1;
                }
            }
        }
        assert_eq!(cross_chunks, plan.stats(&topo).cross_transfers * m);
    }

    #[test]
    fn combine_kernel_classifies_xor_fast_path() {
        let (plan, rec, _) = traced_rpr(4, 2);
        let all_ones = !plan.stats(&cluster_for(plan.params, 1, 1)).needs_matrix;
        let events = rec.take_events();
        let kernels: Vec<Kernel> = events
            .iter()
            .filter_map(|e| match e {
                Event::CombineDone { kernel, inputs, .. } => {
                    assert!(*inputs > 0, "combines name their inputs");
                    Some(*kernel)
                }
                _ => None,
            })
            .collect();
        assert!(!kernels.is_empty());
        if all_ones {
            assert!(kernels.iter().all(|k| *k == Kernel::Xor));
        }
    }

    /// A (6,3) RPR repair in 16 MiB chunks of a 64 MiB block, lowered
    /// and added to a fresh simulator.
    fn chunked_graph<'p>(
        plan: &'p RepairPlan,
        ctx: &RepairContext<'_>,
    ) -> (JobGraph<'p>, Simulator, Vec<JobId>) {
        let mut sim = Simulator::new(crate::sim::network_for(ctx));
        let graph = JobGraph::new(plan, &vec![true; plan.ops.len()], ctx);
        let ids = graph.add_to(&mut sim, 0);
        (graph, sim, ids)
    }

    fn with_chunks<T>(f: impl FnOnce(&RepairPlan, &RepairContext<'_>) -> T) -> T {
        let params = CodeParams::new(6, 3);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            64 << 20,
            &profile,
            CostModel::simics(),
        )
        .with_chunk_size(16 << 20);
        let plan = RprPlanner::new().plan(&ctx);
        f(&plan, &ctx)
    }

    #[test]
    fn graph_events_are_in_time_order_and_fold_to_the_report() {
        with_chunks(|plan, ctx| {
            let (graph, sim, ids) = chunked_graph(plan, ctx);
            let report = sim.run();
            let events = graph_events(&graph, ctx.topo, &report, &ids);
            // Three events per send chunk, one per combine chunk.
            let sends = (plan.ops.iter())
                .filter(|op| matches!(op, Op::Send { .. }))
                .count();
            let m = graph.chunks.len();
            assert_eq!(events.len(), m * (3 * sends + plan.ops.len() - sends));
            let mut last = 0.0;
            for (at, e) in &events {
                assert_eq!(*at, e.time());
                assert!(*at >= last, "events out of order");
                last = *at;
            }
            // Bytes by class, overall and per sending rack, fold from the
            // completed transfers to the report and the plan.
            let topo = ctx.topo;
            let bytes = |cross: bool, rack: Option<usize>| -> u64 {
                (events.iter())
                    .filter_map(|(_, e)| match e {
                        Event::TransferDone { xfer, .. }
                            if xfer.cross == cross && rack.is_none_or(|r| r == xfer.src_rack) =>
                        {
                            Some(xfer.bytes)
                        }
                        _ => None,
                    })
                    .sum()
            };
            assert_eq!(bytes(true, None), report.cross_rack_bytes);
            assert_eq!(bytes(false, None), report.inner_rack_bytes);
            for rack in 0..topo.rack_count() {
                for cross in [false, true] {
                    let want: u64 = (plan.ops.iter())
                        .filter_map(|op| match op {
                            Op::Send { from, to, .. }
                                if topo.rack_of(*from).0 == rack
                                    && topo.same_rack(*from, *to) != cross =>
                            {
                                Some(plan.block_bytes)
                            }
                            _ => None,
                        })
                        .sum();
                    assert_eq!(bytes(cross, Some(rack)), want, "rack {rack} cross {cross}");
                }
            }
            // Every combine chunk names its op's kernel, inputs and bytes.
            for (_, e) in &events {
                if let Event::CombineDone {
                    kernel,
                    inputs,
                    bytes,
                    ..
                } = e
                {
                    assert!(*inputs > 0);
                    assert!(matches!(kernel, Kernel::Xor | Kernel::Gf));
                    assert_eq!(*bytes, 16 << 20);
                }
            }
        });
    }

    #[test]
    fn graph_events_replay_a_failed_attempt_and_its_retry() {
        with_chunks(|plan, ctx| {
            let (waves, _) = plan.cross_waves(ctx.topo);
            let i = (0..plan.ops.len())
                .find(|&i| waves[i].is_some())
                .expect("a cross send");
            let Op::Send { from, .. } = plan.ops[i] else {
                unreachable!("cross waves tag sends");
            };
            let (graph, mut sim, ids) = chunked_graph(plan, ctx);
            let job = ids[graph.ops[i].jobs.start];
            let spec = rpr_netsim::FailSpec {
                fraction: 0.5,
                delay: 5.0,
                reason: "timeout".into(),
            };
            sim.fail_attempts(job, vec![spec]);
            let report = sim.run();
            let events = graph_events(&graph, ctx.topo, &report, &ids);
            let label = &report.record(job).label;
            let mine: Vec<&Event> = (events.iter())
                .map(|(_, e)| e)
                .filter(|e| match e {
                    Event::TransferQueued { xfer, .. }
                    | Event::TransferStarted { xfer, .. }
                    | Event::TransferFailed { xfer, .. }
                    | Event::TransferDone { xfer, .. } => {
                        let this = &xfer.label == label;
                        assert!(!this || xfer.timestep == waves[i], "untagged {label}");
                        this
                    }
                    Event::RetryScheduled { label: l, .. } => l == label,
                    _ => false,
                })
                .collect();
            let names: Vec<&str> = mine.iter().map(|e| e.name()).collect();
            assert_eq!(
                names,
                [
                    "transfer_queued",
                    "transfer_started",
                    "transfer_failed",
                    "retry_scheduled",
                    "transfer_queued",
                    "transfer_started",
                    "transfer_done",
                ]
            );
            let failure = &report.record(job).failures[0];
            match mine[2] {
                Event::TransferFailed {
                    attempt, reason, t, ..
                } => {
                    assert_eq!(*attempt, 0);
                    assert_eq!(reason, "timeout");
                    assert_eq!(*t, failure.at);
                }
                other => panic!("expected transfer_failed, got {other:?}"),
            }
            match mine[3] {
                Event::RetryScheduled {
                    attempt,
                    delay,
                    rack,
                    t,
                    ..
                } => {
                    assert_eq!(*attempt, 0);
                    assert_eq!(*delay, 5.0);
                    assert_eq!(*rack, ctx.topo.rack_of(from).0);
                    assert_eq!(*t, failure.at);
                }
                other => panic!("expected retry_scheduled, got {other:?}"),
            }
            match mine[4] {
                Event::TransferQueued { t, .. } => assert_eq!(*t, failure.at + 5.0),
                other => panic!("expected transfer_queued, got {other:?}"),
            }
        });
    }
}
