//! Lowering a [`RepairPlan`] to a [`JobGraph`] and running it on the
//! `rpr-netsim` flow simulator — the "Simics cluster" half of the paper's
//! evaluation. `rpr-exec` runs the same graph on real bytes.
//!
//! Sends become flows of their chunk's bytes; combines become compute
//! jobs whose duration follows the [`CostModel`](crate::CostModel) (XOR
//! folds vs Galois folds, plus the one-time decoding-matrix surcharge per
//! node for matrix-based plans).
//!
//! Without streaming every op is one job. When the context enables
//! cut-through streaming
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
use std::ops::Range;

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
    JobGraph::new(plan, &vec![true; plan.ops.len()], ctx).add_to(&mut sim, 0);
    let report = sim.run();
    SimOutcome {
        repair_time: report.makespan,
        report,
        stats,
    }
}

/// The simulated network of a context — topology, bandwidth profile and
/// the optional aggregation-switch constraint — for callers that drive
/// a [`Simulator`] directly (co-simulation via [`JobGraph::add_to`]).
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
/// [`JobGraph::chunks`] holds this split for both backends.
pub(crate) fn chunk_sizes(block_bytes: u64, chunk: Option<u64>) -> Vec<u64> {
    match chunk {
        Some(c) if c > 0 && c < block_bytes => {
            let m = block_bytes.div_ceil(c);
            (0..m).map(|j| c.min(block_bytes - j * c)).collect()
        }
        _ => vec![block_bytes],
    }
}

/// A plan lowered to chunk jobs: the one execution structure both
/// backends run. The simulator adds it as netsim jobs
/// ([`JobGraph::add_to`]); `rpr-exec` runs each lowered op as a stream
/// over the same chunks, edges, fold seconds and matrix mark.
///
/// Chunk `j` of an op waits on chunk `j` of every *data* dependency
/// (cut-through: the payload flows as soon as each sub-block is ready),
/// on its own chunk `j - 1` (chunks of one op are in order on the wire
/// and the CPU), and — chunk 0 only — on the **last** chunk of every
/// *ordering* dependency (link-FIFO edges serialize whole ops, as at
/// block level).
#[derive(Clone, Debug)]
pub struct JobGraph<'p> {
    /// The plan this graph lowers.
    pub plan: &'p RepairPlan,
    /// Byte size of each chunk of one block: `m - 1` full chunks and a
    /// possibly short tail, or the whole block without streaming. Every
    /// op has one job per chunk.
    pub chunks: Vec<u64>,
    /// Per plan op, indexed like `plan.ops`: its jobs and edges. An op
    /// that is not lowered has neither; dependencies on it vanish (its
    /// payload is already at hand, as after a replan).
    pub ops: Vec<OpJobs>,
    /// Every job, op by op in plan order and chunk by chunk within an op
    /// — the simulator's creation order.
    pub jobs: Vec<Job>,
}

/// The jobs and dependency edges of one op of a [`JobGraph`].
#[derive(Clone, Debug, Default)]
pub struct OpJobs {
    /// Its jobs in [`JobGraph::jobs`]: chunk `j` is `jobs.start + j`.
    pub jobs: Range<usize>,
    /// The lowered ops whose output it consumes, in input order.
    pub data: Vec<OpId>,
    /// The lowered ops that must finish whole before it starts, carrying
    /// no data ([`RepairPlan::deps_of`] minus the data dependencies).
    pub ordering: Vec<OpId>,
}

/// One chunk of one op.
#[derive(Clone, Debug)]
pub struct Job {
    /// Modeled seconds of a combine's fold of this chunk
    /// ([`CostModel::combine_chunk_seconds`](crate::CostModel::combine_chunk_seconds));
    /// zero for a send, which moves [`JobGraph::chunks`]`[j]` bytes.
    pub seconds: f64,
    /// This job pays its node's decoding-matrix surcharge: chunk 0 of the
    /// node's first lowered GF combine in op order, once per node.
    pub builds_matrix: bool,
}

impl<'p> JobGraph<'p> {
    /// Lower the ops of `plan` flagged in `lowered` under the context's
    /// chunk size and cost model.
    pub fn new(plan: &'p RepairPlan, lowered: &[bool], ctx: &RepairContext<'_>) -> JobGraph<'p> {
        let chunks = chunk_sizes(plan.block_bytes, ctx.effective_chunk());
        let cost = &ctx.cost;
        let mut matrix_paid = vec![false; ctx.topo.node_count()];
        let mut ops: Vec<OpJobs> = Vec::with_capacity(plan.ops.len());
        let mut jobs: Vec<Job> = Vec::with_capacity(plan.ops.len() * chunks.len());
        for (i, op) in plan.ops.iter().enumerate() {
            let first = jobs.len();
            if !lowered[i] {
                ops.push(OpJobs::default());
                continue;
            }
            let live = |deps: Vec<OpId>| deps.into_iter().filter(|d| lowered[d.0]).collect();
            let (data, ordering): (Vec<_>, Vec<_>) =
                (live(op.dependencies()), live(plan.ordering_deps(i)));
            // A node's first GF combine pays the matrix surcharge, on chunk 0.
            let builds = match op {
                Op::Combine { node, .. } if combine_kernel(plan, i) == Some(Kernel::Gf) => {
                    !std::mem::replace(&mut matrix_paid[node.0], true)
                }
                _ => false,
            };
            for (j, &bytes) in chunks.iter().enumerate() {
                let builds_matrix = builds && j == 0;
                let seconds = match op {
                    Op::Send { .. } => 0.0,
                    Op::Combine { inputs, .. } => {
                        cost.combine_chunk_seconds(plan.force_matrix, inputs, bytes, builds_matrix)
                    }
                };
                jobs.push(Job {
                    seconds,
                    builds_matrix,
                });
            }
            ops.push(OpJobs {
                jobs: first..jobs.len(),
                data,
                ordering,
            });
        }
        JobGraph {
            plan,
            chunks,
            ops,
            jobs,
        }
    }

    /// Whether op `i` runs in this graph.
    pub fn lowered(&self, i: usize) -> bool {
        !self.ops[i].jobs.is_empty()
    }

    /// The jobs of op `i`, one per chunk (none if it is not lowered).
    pub fn op_jobs(&self, i: usize) -> &[Job] {
        &self.jobs[self.ops[i].jobs.clone()]
    }

    /// The jobs chunk `j` of op `i` waits on, as indices into
    /// [`JobGraph::jobs`]: chunk `j` of each data dependency, then — for
    /// chunk 0 — the last chunk of each ordering dependency, or else the
    /// op's own chunk `j - 1`.
    pub fn deps(&self, i: usize, j: usize) -> impl Iterator<Item = usize> + '_ {
        let op = &self.ops[i];
        let last = |o: &OpId| self.ops[o.0].jobs.end - 1;
        let data = op.data.iter().map(move |d| self.ops[d.0].jobs.start + j);
        let ordering = op.ordering.iter().filter(move |_| j == 0).map(last);
        let prev = (j > 0).then(|| op.jobs.start + j - 1);
        data.chain(ordering).chain(prev)
    }

    /// Byte range of chunk `j` within a block.
    pub fn chunk_range(&self, j: usize) -> Range<usize> {
        let start = self.chunks[0] as usize * j;
        start..start + self.chunks[j] as usize
    }

    /// Add every job to `sim` in graph order — sends as transfers of
    /// their chunk's bytes, combines as compute jobs of their modeled
    /// seconds — labelled `p{tag}op{i}` ([`op_label`]; `tag` namespaces
    /// plans sharing one simulator). Returns the simulator's id of each
    /// job, indexed like [`JobGraph::jobs`].
    ///
    /// The simulator must target the context's topology (build it over
    /// [`network_for`]). A co-simulation (`rpr-load`) adds its own flows
    /// beside the graph's, may dep-chain them on its jobs, and may
    /// [`Simulator::throttle`] its sends.
    ///
    /// # Panics
    /// Panics if the plan references nodes outside the simulator's network.
    pub fn add_to(&self, sim: &mut Simulator, tag: usize) -> Vec<JobId> {
        let streamed = self.chunks.len() > 1;
        let mut ids: Vec<JobId> = Vec::with_capacity(self.jobs.len());
        for (i, op) in self.plan.ops.iter().enumerate() {
            for (j, job) in self.op_jobs(i).iter().enumerate() {
                let deps: Vec<JobId> = self.deps(i, j).map(|d| ids[d]).collect();
                let label = op_label(self.plan, tag, i, streamed.then_some(j));
                ids.push(match op {
                    Op::Send { from, to, .. } => {
                        sim.transfer(label, *from, *to, self.chunks[j], &deps)
                    }
                    Op::Combine { node, .. } => sim.compute(label, *node, job.seconds, &deps),
                });
            }
        }
        ids
    }
}

/// Per-op `(first start, last finish)` of a graph added to a simulator
/// as `ids`: the first attempt of the first chunk to the end of the last
/// chunk; `(0, 0)` for an op that was not lowered.
pub(crate) fn op_spans(report: &SimReport, graph: &JobGraph<'_>, ids: &[JobId]) -> Vec<(f64, f64)> {
    let span = |op: &OpJobs| {
        let Some(last) = op.jobs.clone().last() else {
            return (0.0, 0.0);
        };
        let first = report.record(ids[op.jobs.start]);
        let start = first.failures.first().map_or(first.start, |f| f.start);
        (start, report.record(ids[last]).finish)
    };
    graph.ops.iter().map(span).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{RepairPlanner, TraditionalPlanner};
    use rpr_codec::{BlockId, CodeParams, StripeCodec};
    use rpr_obs::Kernel;
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

        // The graph carries the mark that both backends pay by: on every
        // paper code and planner, block-level and in 8 MiB chunks, exactly
        // one job per GF-combining node builds the matrix — chunk 0 of the
        // node's first GF combine in op order — and the simulator runs the
        // graph job for job.
        let planners: [&dyn RepairPlanner; 4] = [
            &TraditionalPlanner::new(),
            &crate::schemes::CarPlanner::new(),
            &crate::schemes::RprPlanner::new(),
            &crate::schemes::ChainPlanner::new(),
        ];
        let mut marks = 0;
        for (n, k) in [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)] {
            let params = CodeParams::new(n, k);
            let codec = StripeCodec::new(params);
            let topo = cluster_for(params, 1, 1);
            let placement = Placement::compact(params, &topo);
            let profile = BandwidthProfile::simics_default(topo.rack_count());
            for planner in planners {
                for failed in [vec![BlockId(1)], vec![BlockId(0), BlockId(1)]] {
                    // CAR and chain repair single failures only.
                    if failed.len() > 1 && matches!(planner.name(), "car" | "chain") {
                        continue;
                    }
                    for chunk in [None, Some(8 << 20)] {
                        let base = RepairContext::new(
                            &codec,
                            &topo,
                            &placement,
                            failed.clone(),
                            256 << 20,
                            &profile,
                            crate::cost::CostModel::simics(),
                        );
                        let ctx = chunk.map_or(base.clone(), |c| base.with_chunk_size(c));
                        let plan = planner.plan(&ctx);
                        let graph = JobGraph::new(&plan, &vec![true; plan.ops.len()], &ctx);
                        let mut first_gf = vec![None; topo.node_count()];
                        for (i, op) in plan.ops.iter().enumerate() {
                            if let (Op::Combine { node, .. }, Some(Kernel::Gf)) =
                                (op, combine_kernel(&plan, i))
                            {
                                first_gf[node.0].get_or_insert(graph.ops[i].jobs.start);
                            }
                        }
                        let mut want: Vec<usize> = first_gf.into_iter().flatten().collect();
                        want.sort_unstable();
                        let marked: Vec<usize> = (0..graph.jobs.len())
                            .filter(|&j| graph.jobs[j].builds_matrix)
                            .collect();
                        let case =
                            format!("({n},{k}) {} {failed:?} chunk {chunk:?}", planner.name());
                        assert_eq!(marked, want, "{case}");
                        let records = simulate(&plan, &ctx).report.records.len();
                        assert_eq!(graph.jobs.len(), records, "{case}");
                        marks += marked.len();
                    }
                }
            }
        }
        assert!(marks > 0, "the sweep must reach GF combines");
    }
}
