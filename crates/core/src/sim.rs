//! Lowering a [`RepairPlan`] onto the `rpr-netsim` flow simulator — the
//! "Simics cluster" half of the paper's evaluation.
//!
//! Sends become flows of `block_bytes`; combines become compute jobs whose
//! duration follows the [`CostModel`](crate::CostModel) (XOR folds vs Galois folds, plus the
//! one-time decoding-matrix surcharge per node for matrix-based plans).
//!
//! When the context enables cut-through streaming
//! ([`RepairContext::with_chunk_size`](crate::RepairContext::with_chunk_size)),
//! every op lowers to one job **per chunk** instead: chunk `j` of a send
//! depends on chunk `j` of each upstream producer plus its own chunk
//! `j - 1` (in-order on the wire), so a downstream hop starts as soon as
//! its first chunk arrives and the critical path collapses from
//! `waves × t_block` to `t_block + (waves − 1) × t_chunk` — the ECPipe
//! slice-pipelining model applied to RPR's §3.2 wave schedule.

use crate::plan::{Op, OpId, RepairPlan};
use crate::scenario::RepairContext;
use crate::trace::{combine_kernel, op_label};
use rpr_netsim::{JobId, Network, SimReport, Simulator};
use rpr_obs::Kernel;

/// The result of simulating one repair plan.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Total repair time (the makespan of the plan DAG).
    pub repair_time: f64,
    /// The full simulator report (traffic, per-job timing, load balance).
    pub report: SimReport,
    /// Plan-level statistics.
    pub stats: crate::plan::PlanStats,
}

/// Simulate a plan under the context's bandwidth profile and cost model.
///
/// # Panics
/// Panics if the plan references nodes outside the context topology (a
/// malformed plan; run [`RepairPlan::validate`] first for a readable
/// error).
pub fn simulate(plan: &RepairPlan, ctx: &RepairContext<'_>) -> SimOutcome {
    let mut sim = Simulator::new(network_for(ctx));
    let stats = plan.stats(ctx.topo);
    lower_plan_into(&mut sim, plan, ctx, 0);
    let report = sim.run();
    SimOutcome {
        repair_time: report.makespan,
        report,
        stats,
    }
}

/// The outcome of simulating several plans concurrently (e.g. every stripe
/// touched by a whole-node failure repairing at once).
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Time at which the *last* plan finished — the full recovery time.
    pub makespan: f64,
    /// Per-plan completion times, in input order.
    pub plan_finish: Vec<f64>,
    /// The combined simulator report (aggregate traffic, load balance).
    pub report: SimReport,
}

/// Simulate many plans sharing one cluster: all their operations contend
/// for the same links and CPUs, which is exactly what happens when a node
/// or rack failure triggers repairs of every stripe it hosted.
///
/// All plans must target the same topology/profile (they share `ctx`'s);
/// per-plan block sizes may differ.
///
/// # Panics
/// Panics if `plans` is empty or a plan references nodes outside the
/// topology.
pub fn simulate_batch(plans: &[&RepairPlan], ctx: &RepairContext<'_>) -> BatchOutcome {
    assert!(!plans.is_empty(), "simulate_batch: no plans");
    let mut sim = Simulator::new(network_for(ctx));
    let mut last_jobs: Vec<Vec<JobId>> = Vec::with_capacity(plans.len());
    for (pi, plan) in plans.iter().enumerate() {
        let jobs = lower_plan_into(&mut sim, plan, ctx, pi);
        let outputs: Vec<JobId> = plan
            .outputs
            .iter()
            .map(|&(_, op)| *jobs[op.0].last().expect("ops lower to >= 1 job"))
            .collect();
        last_jobs.push(outputs);
    }
    let report = sim.run();
    let plan_finish = last_jobs
        .iter()
        .map(|outs| {
            outs.iter()
                .map(|j| report.record(*j).finish)
                .fold(0.0f64, f64::max)
        })
        .collect();
    BatchOutcome {
        makespan: report.makespan,
        plan_finish,
        report,
    }
}

/// Lower one plan into an **existing** simulator without running it —
/// the co-simulation entry point. A foreground workload generator (see
/// `rpr-load`) adds its own request flows to the same [`Simulator`], so
/// repair and client traffic contend for the same shaped links, then
/// runs the combined DAG itself.
///
/// Returns the netsim jobs of each op, one per chunk (a singleton
/// without streaming) — callers dep-chain degraded-read relays on the
/// output ops' chunk jobs, and may [`Simulator::throttle`] the `Send`
/// jobs to enforce a repair-bandwidth QoS cap.
///
/// The simulator must target the same topology as `ctx` (build it over
/// [`network_for`]); `tag` namespaces job labels (`p{tag}op{i}`)
/// when several plans share one simulator.
///
/// # Panics
/// Panics if the plan references nodes outside the simulator's network.
pub fn lower_plan_into(
    sim: &mut Simulator,
    plan: &RepairPlan,
    ctx: &RepairContext<'_>,
    tag: usize,
) -> Vec<Vec<JobId>> {
    lower(sim, plan, &vec![true; plan.ops.len()], ctx, tag)
}

/// The simulated network of a context — topology, bandwidth profile and
/// the optional aggregation-switch constraint — for callers that drive
/// a [`Simulator`] directly (co-simulation via [`lower_plan_into`]).
pub fn network_for(ctx: &RepairContext<'_>) -> Network {
    let net = Network::new(ctx.topo.clone(), ctx.profile.clone());
    match ctx.agg_capacity {
        Some(cap) => net.with_agg_capacity(cap),
        None => net,
    }
}

/// The byte sizes one block splits into under an optional chunk size:
/// `m - 1` full chunks plus a (possibly short) tail. `None` — or a chunk
/// at or above the block size — yields a single full-block "chunk".
///
/// Shared by the analytical lowering and the wall-clock executor so both
/// backends split payloads identically.
pub fn chunk_sizes(block_bytes: u64, chunk: Option<u64>) -> Vec<u64> {
    match chunk {
        Some(c) if c > 0 && c < block_bytes => {
            let m = block_bytes.div_ceil(c);
            (0..m)
                .map(|j| {
                    if j + 1 < m {
                        c
                    } else {
                        block_bytes - (m - 1) * c
                    }
                })
                .collect()
        }
        _ => vec![block_bytes],
    }
}

/// Lower the `lowered` ops of a plan into the simulator under the
/// context's cost model and chunk size. Returns the netsim jobs of each
/// op — one per chunk (a singleton without streaming), none for an op
/// that is not lowered: dependencies on such ops vanish (their payloads
/// are already at hand, as after a replan). Each node pays the
/// decoding-matrix surcharge once for the plan.
pub(crate) fn lower(
    sim: &mut Simulator,
    plan: &RepairPlan,
    lowered: &[bool],
    ctx: &RepairContext<'_>,
    tag: usize,
) -> Vec<Vec<JobId>> {
    let sizes = chunk_sizes(plan.block_bytes, ctx.effective_chunk());
    let mut matrix_paid = vec![false; ctx.topo.node_count()];
    let mut jobs: Vec<Vec<JobId>> = Vec::with_capacity(plan.ops.len());
    for (i, op) in plan.ops.iter().enumerate() {
        if !lowered[i] {
            jobs.push(Vec::new());
            continue;
        }
        let of = |deps: Vec<OpId>| -> Vec<&[JobId]> {
            deps.iter().map(|d| jobs[d.0].as_slice()).collect()
        };
        let (data, ordering) = (of(op.dependencies()), of(plan.ordering_deps(i)));
        let op_jobs = lower_op(
            sim,
            plan,
            i,
            &ctx.cost,
            &mut matrix_paid,
            tag,
            &data,
            &ordering,
            &sizes,
        );
        jobs.push(op_jobs);
    }
    jobs
}

/// Lower op `i` into the simulator, one job per chunk of `sizes`: chunk
/// `j` waits on chunk `j` of every *data* dependency (cut-through — the
/// payload flows as soon as each sub-block is ready), on its own chunk
/// `j - 1` (chunks of one op are in-order on the wire / CPU), and — for
/// chunk 0 only — on the **last** chunk of every *ordering* dependency
/// (link-FIFO edges serialize whole ops, exactly as at block level).
#[allow(clippy::too_many_arguments)]
fn lower_op(
    sim: &mut Simulator,
    plan: &RepairPlan,
    i: usize,
    cost: &crate::cost::CostModel,
    matrix_paid: &mut [bool],
    tag: usize,
    data_deps: &[&[JobId]],
    ordering_deps: &[&[JobId]],
    sizes: &[u64],
) -> Vec<JobId> {
    let m = sizes.len();
    let gf = combine_kernel(plan, i) == Some(Kernel::Gf);
    let mut jobs: Vec<JobId> = Vec::with_capacity(m);
    for (j, &bytes) in sizes.iter().enumerate() {
        let mut deps: Vec<JobId> = Vec::new();
        for d in data_deps {
            // Every op of a plan shares block_bytes, hence chunk counts;
            // `.or(last)` is a guard for partial lowerings only.
            if let Some(&job) = d.get(j).or_else(|| d.last()) {
                deps.push(job);
            }
        }
        if let Some(&prev) = jobs.last() {
            deps.push(prev);
        }
        if j == 0 {
            for o in ordering_deps {
                if let Some(&job) = o.last() {
                    deps.push(job);
                }
            }
        }
        let label = op_label(plan, tag, i, (m > 1).then_some(j));
        let job = match &plan.ops[i] {
            Op::Send { from, to, .. } => sim.transfer(label, *from, *to, bytes, &deps),
            Op::Combine { node, inputs, .. } => {
                // The decoding matrix is built once, before the node's
                // first chunk is folded.
                let build = j == 0 && gf && !std::mem::replace(&mut matrix_paid[node.0], true);
                let seconds = cost.combine_chunk_seconds(plan.force_matrix, inputs, bytes, build);
                sim.compute(label, *node, seconds, &deps)
            }
        };
        jobs.push(job);
    }
    jobs
}

/// First activation instant of a job (the start of its first attempt).
fn first_start(report: &SimReport, job: JobId) -> f64 {
    let r = report.record(job);
    r.failures.first().map(|f| f.start).unwrap_or(r.start)
}

/// Per-op `(first start, last finish)` off the jobs [`lower`] made: the
/// first attempt of the first chunk to the end of the last chunk;
/// `(0, 0)` for an op that was not lowered.
pub(crate) fn op_spans(report: &SimReport, jobs: &[Vec<JobId>]) -> Vec<(f64, f64)> {
    jobs.iter()
        .map(|js| match (js.first(), js.last()) {
            (Some(&first), Some(&last)) => (first_start(report, first), report.record(last).finish),
            _ => (0.0, 0.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{RepairPlanner, TraditionalPlanner};
    use rpr_codec::{BlockId, CodeParams, StripeCodec};
    use rpr_topology::{cluster_for, BandwidthProfile, Placement, GBIT};

    #[test]
    fn traditional_single_failure_time_matches_eq5() {
        // Paper eq. 5 / eq. 10: with the recovery node in a spare rack,
        // total time = n * t_c + decode. With the free cost model it is
        // exactly n * B / cross_rate.
        let params = CodeParams::new(4, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::compact(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let block: u64 = 256 * 1024 * 1024;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            crate::cost::CostModel::free(),
        );
        let plan = TraditionalPlanner::new().plan(&ctx);
        let out = simulate(&plan, &ctx);
        let t_c = block as f64 / (0.1 * GBIT);
        assert!(
            (out.repair_time - 4.0 * t_c).abs() < 1e-6,
            "got {}, want {}",
            out.repair_time,
            4.0 * t_c
        );
        assert_eq!(out.report.cross_rack_bytes, 4 * block);
        assert!(out.stats.needs_matrix);
    }

    #[test]
    fn batch_simulation_contends_on_shared_links() {
        // Two identical single-failure repairs of two stripes that share
        // the recovery rack: together they must be slower than one alone,
        // and per-plan finishes bracket the makespan.
        let params = CodeParams::new(4, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 2, 1);
        let placement = Placement::compact(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let block: u64 = 64 << 20;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            crate::cost::CostModel::free(),
        );
        let plan = crate::schemes::RprPlanner::new().plan(&ctx);
        let solo = simulate(&plan, &ctx).repair_time;
        let batch = simulate_batch(&[&plan, &plan], &ctx);
        assert_eq!(batch.plan_finish.len(), 2);
        assert!(batch.makespan >= solo - 1e-9);
        assert!(batch.makespan > solo * 1.2, "shared links must contend");
        for f in &batch.plan_finish {
            assert!(*f <= batch.makespan + 1e-9);
        }
        // Total traffic doubles exactly.
        assert_eq!(
            batch.report.cross_rack_bytes,
            2 * plan.stats(&topo).cross_bytes
        );
    }

    #[test]
    fn agg_capacity_constrains_simulation() {
        let params = CodeParams::new(6, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::compact(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let block: u64 = 64 << 20;
        let free_ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            crate::cost::CostModel::free(),
        );
        let plan = crate::schemes::RprPlanner::new().plan(&free_ctx);
        let unconstrained = simulate(&plan, &free_ctx).repair_time;
        // Cap the fabric below one pair's rate: everything slows down.
        let tight_ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            crate::cost::CostModel::free(),
        )
        .with_agg_capacity(0.05 * rpr_topology::GBIT);
        let constrained = simulate(&plan, &tight_ctx).repair_time;
        assert!(
            constrained > unconstrained * 1.5,
            "agg cap must bind: {constrained} vs {unconstrained}"
        );
    }

    #[test]
    fn chunk_sizes_cover_tail_and_degenerate_cases() {
        // Tail chunk: 10 bytes in 4-byte chunks → 4, 4, 2.
        assert_eq!(chunk_sizes(10, Some(4)), vec![4, 4, 2]);
        // Exact multiple: no short tail.
        assert_eq!(chunk_sizes(8, Some(4)), vec![4, 4]);
        // Chunk at or above the block degenerates to one chunk.
        assert_eq!(chunk_sizes(8, Some(8)), vec![8]);
        assert_eq!(chunk_sizes(8, Some(100)), vec![8]);
        // Chunk = 1: one chunk per byte.
        assert_eq!(chunk_sizes(3, Some(1)), vec![1, 1, 1]);
        // Streaming off.
        assert_eq!(chunk_sizes(8, None), vec![8]);
        // Every split conserves bytes.
        for (block, chunk) in [(10, 4), (8, 4), (8, 9), (3, 1), (1 << 20, 4097)] {
            let sizes = chunk_sizes(block, Some(chunk));
            assert_eq!(sizes.iter().sum::<u64>(), block, "{block}/{chunk}");
            assert!(sizes.iter().all(|&s| s > 0));
        }
    }

    #[test]
    fn chunked_streaming_collapses_the_critical_path() {
        // The acceptance bar of the streaming work: at (6, 3) the
        // simulated makespan must drop from ~waves × t_block to within
        // 15% of the analytical cut-through model
        // t_block + (waves − 1) × t_chunk (ECPipe §3 applied to RPR's
        // §3.2 wave schedule).
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
            crate::cost::CostModel::free(),
        );
        let plan = crate::schemes::RprPlanner::new().plan(&ctx);
        let (_, waves) = plan.cross_waves(&topo);
        assert!(waves >= 2, "need a multi-wave pipeline, got {waves}");

        let store_and_forward = simulate(&plan, &ctx).repair_time;
        // Planning under the streaming context reshapes the cross phase
        // into the cut-through chain.
        let streamed_ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            crate::cost::CostModel::free(),
        )
        .with_chunk_size(chunk);
        let streamed_plan = crate::schemes::RprPlanner::new().plan(&streamed_ctx);
        let streamed = simulate(&streamed_plan, &streamed_ctx).repair_time;

        let t_block = block as f64 / (0.1 * GBIT);
        let t_chunk = chunk as f64 / (0.1 * GBIT);
        let expected = t_block + (waves as f64 - 1.0) * t_chunk;
        assert!(
            (streamed - expected).abs() <= 0.15 * expected,
            "streamed {streamed} vs analytical {expected} (waves = {waves})"
        );
        assert!(
            streamed < store_and_forward * 0.75,
            "streaming must collapse the store-and-forward path: \
             {streamed} vs {store_and_forward}"
        );
        // Store-and-forward really does pay ~waves × t_block.
        assert!(store_and_forward > (waves as f64) * t_block * 0.95);
    }

    #[test]
    fn streamed_chain_lets_each_rack_receive_at_most_once() {
        // Regression for the chain discipline at (8, 2) — four
        // intermediates to merge. A greedy tree makes some rack receive
        // two full-block streams, and its downlink pins the makespan at
        // 2 × t_block no matter the chunk size; the ECPipe-style chain
        // gives every rack at most one incoming cross stream and reaches
        // t_block + hops × t_chunk.
        let params = CodeParams::new(8, 2);
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
            crate::cost::CostModel::free(),
        )
        .with_chunk_size(chunk);
        let plan = crate::schemes::RprPlanner::new().plan(&ctx);
        plan.validate(&codec, &topo, &placement).expect("valid");

        let sink_rack = ctx.recovery_rack();
        let mut incoming = vec![0usize; topo.rack_count()];
        let mut hops = 0usize;
        for op in &plan.ops {
            if let crate::plan::Op::Send { from, to, .. } = op {
                let (fr, tr) = (topo.rack_of(*from), topo.rack_of(*to));
                if fr != tr {
                    incoming[tr.0] += 1;
                    hops += 1;
                }
            }
        }
        assert!(hops >= 3, "need a deep chain, got {hops} cross hops");
        for (rack, &n) in incoming.iter().enumerate() {
            if rack != sink_rack.0 {
                assert!(
                    n <= 1,
                    "rack {rack} receives {n} cross streams; the chain \
                     discipline allows at most one"
                );
            }
        }
        assert_eq!(incoming[sink_rack.0], 1, "the chain enters the sink once");

        let t_block = block as f64 / (0.1 * GBIT);
        let t_chunk = chunk as f64 / (0.1 * GBIT);
        let expected = t_block + (hops as f64 - 1.0) * t_chunk;
        let streamed = simulate(&plan, &ctx).repair_time;
        assert!(
            (streamed - expected).abs() <= 0.15 * expected,
            "streamed {streamed} vs analytical {expected} ({hops} hops)"
        );
        // In particular the makespan beats the 2 × t_block floor that any
        // twice-receiving rack would impose.
        assert!(streamed < 1.5 * t_block, "streamed {streamed}");
    }

    #[test]
    fn chunk_at_or_above_block_matches_block_level_exactly() {
        let params = CodeParams::new(6, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let block: u64 = 16 << 20;
        let base = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(2)],
            block,
            &profile,
            crate::cost::CostModel::simics(),
        );
        let plan = crate::schemes::RprPlanner::new().plan(&base);
        let plain = simulate(&plan, &base).repair_time;
        for chunk in [block, block + 1, block * 4] {
            let ctx = RepairContext::new(
                &codec,
                &topo,
                &placement,
                vec![BlockId(2)],
                block,
                &profile,
                crate::cost::CostModel::simics(),
            )
            .with_chunk_size(chunk);
            assert_eq!(simulate(&plan, &ctx).repair_time, plain, "chunk {chunk}");
        }
    }

    #[test]
    fn chunked_simulation_moves_the_same_traffic() {
        let params = CodeParams::new(6, 3);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        // Block deliberately not a multiple of the chunk: 64 MiB + 3.
        let block: u64 = (64 << 20) + 3;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            crate::cost::CostModel::free(),
        );
        let plan = crate::schemes::RprPlanner::new().plan(&ctx);
        let plain = simulate(&plan, &ctx);
        let chunked_ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            crate::cost::CostModel::free(),
        )
        .with_chunk_size(5 << 20);
        // Chunking the SAME plan must conserve traffic exactly (the tail
        // chunk included) and never slow it down.
        let chunked_same = simulate(&plan, &chunked_ctx);
        assert_eq!(
            chunked_same.report.cross_rack_bytes,
            plain.report.cross_rack_bytes
        );
        assert_eq!(
            chunked_same.report.inner_rack_bytes,
            plain.report.inner_rack_bytes
        );
        assert!(chunked_same.repair_time <= plain.repair_time + 1e-9);
        // Re-planning under streaming (the cut-through chain) moves the
        // same cross traffic — one stream per helper rack — strictly
        // faster.
        let chain = crate::schemes::RprPlanner::new().plan(&chunked_ctx);
        let chunked = simulate(&chain, &chunked_ctx);
        assert_eq!(
            chunked.report.cross_rack_bytes,
            plain.report.cross_rack_bytes
        );
        assert!(chunked.repair_time < plain.repair_time);
    }

    #[test]
    fn matrix_surcharge_is_paid_once_per_node() {
        let params = CodeParams::new(4, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::compact(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let block: u64 = 1 << 20;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(0), BlockId(1)],
            block,
            &profile,
            crate::cost::CostModel {
                xor_rate: f64::INFINITY,
                gf_rate: f64::INFINITY,
                matrix_build_seconds: 5.0,
            },
        );
        let plan = TraditionalPlanner::new().plan(&ctx);
        let out = simulate(&plan, &ctx);
        // Two decodes at the same recovery node: surcharge paid once, and
        // it is hidden behind the last transfer only partially: makespan =
        // transfers + 5s (decodes run after the last arrival).
        let t_c = block as f64 / (0.1 * GBIT);
        assert!(
            (out.repair_time - (4.0 * t_c + 5.0)).abs() < 1e-6,
            "got {}",
            out.repair_time
        );
    }
}
