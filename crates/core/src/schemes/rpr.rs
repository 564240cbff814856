//! The RPR planner — the paper's contribution (§3).
//!
//! Single-block failures: enumerate helper distributions over racks, build
//! the Inner (Algorithm 1) + Cross (Algorithm 2) plan for each and keep the
//! one with the smallest simulated repair time. Within a rack, data blocks
//! and `P0` are preferred over other parities so that, under the §3.3
//! pre-placement, a data-block failure gets the all-ones XOR equation of
//! eq. 6 whenever the distribution allows it — no decoding matrix at all.
//!
//! The search simulates a *probe* first (the local-first,
//! leave-one-remote-rack-single heuristic's pick), then abandons every
//! other candidate once its makespan floor passes the probe's time. The
//! plan chosen is the one full simulation of every candidate would choose.
//!
//! Multi-block failures (§3.4): one repair sub-equation per failed block
//! (eq. 9); each rack runs Inner-multi (one raw-block delivery per node,
//! one intermediate per sub-equation), and Cross-multi multiplexes the
//! per-equation aggregation trees over the rack links.

use crate::plan::RepairPlan;
use crate::scenario::RepairContext;
use crate::schemes::{
    cross_pipeline, inner_star, inner_tree, PlanBuilder, RackInterm, RepairPlanner,
};
use crate::sim::simulate_within;
use rpr_codec::BlockId;
use rpr_topology::RackId;

/// Two repair times closer than this tie (fewer cross transfers win).
const TIE: f64 = 1e-9;

/// The RPR planner. Its search runs a probe candidate in full and each
/// other one only until it provably loses, choosing as full runs would.
#[derive(Clone, Copy, Debug)]
pub struct RprPlanner {
    /// Exhaustively search helper distributions for single-block failures
    /// (default). When `false`, a fullest-rack-first heuristic is used —
    /// the ablation showing what the search buys.
    pub search: bool,
}

impl Default for RprPlanner {
    fn default() -> Self {
        RprPlanner { search: true }
    }
}

impl RprPlanner {
    /// Planner with full selection search.
    pub fn new() -> RprPlanner {
        RprPlanner::default()
    }

    /// Heuristic-only planner (no selection search).
    pub fn without_search() -> RprPlanner {
        RprPlanner { search: false }
    }
}

impl RepairPlanner for RprPlanner {
    fn name(&self) -> &'static str {
        "rpr"
    }

    fn plan(&self, ctx: &RepairContext<'_>) -> RepairPlan {
        let (candidates, probe) = self.candidate_selections(ctx);
        let mut plans: Vec<RepairPlan> = candidates.iter().map(|s| build_plan(ctx, s)).collect();
        if plans.len() == 1 {
            return plans.pop().expect("one candidate");
        }
        let cross: Vec<usize> = plans
            .iter()
            .map(|p| p.stats(ctx.topo).cross_transfers)
            .collect();
        let best = pick(probe, &cross, |i, limit| {
            simulate_within(&plans[i], ctx, limit).map(|o| o.repair_time)
        });
        plans.swap_remove(best)
    }
}

/// The first best `(time, cross)` candidate in order, where a `None` time
/// only exceeds `limit`; `None` if that leaves a comparison undecided. An
/// exact time at most `limit - TIE` loses to every `None` time and one
/// below it beats every one, so decided comparisons match exact ones.
fn first_best(candidates: &[(Option<f64>, usize)], limit: f64) -> Option<usize> {
    enum Held {
        Nothing,
        SomeOver,
        Best(usize, f64, usize),
    }
    let mut held = Held::Nothing;
    for (i, &(time, cross)) in candidates.iter().enumerate() {
        held = match (held, time) {
            (Held::Nothing | Held::SomeOver, None) => Held::SomeOver,
            (Held::Nothing, Some(t)) => Held::Best(i, t, cross),
            (Held::SomeOver, Some(t)) if t < limit - TIE => Held::Best(i, t, cross),
            (Held::Best(_, bt, bc), Some(t)) if t < bt - TIE || (t < bt + TIE && cross < bc) => {
                Held::Best(i, t, cross)
            }
            (held @ Held::Best(..), Some(_)) => held,
            (held @ Held::Best(_, bt, _), None) if bt + TIE <= limit => held,
            _ => return None,
        };
    }
    match held {
        Held::Best(best, ..) => Some(best),
        _ => None,
    }
}

/// The candidate full simulation would choose, given cross counts and
/// `run(i, limit)` (candidate `i`'s time if at most `limit`): the others
/// run within the probe's time × (1 + 1e-6), all unbounded if undecided.
fn pick(probe: usize, cross: &[usize], run: impl Fn(usize, f64) -> Option<f64>) -> usize {
    let probe_time = run(probe, f64::INFINITY);
    let timed = |limit: f64| -> Vec<(Option<f64>, usize)> {
        let time = |i: usize| {
            if i == probe {
                probe_time
            } else {
                run(i, limit)
            }
        };
        (0..cross.len()).map(|i| (time(i), cross[i])).collect()
    };
    let limit = probe_time.expect("an unbounded run always completes") * (1.0 + 1e-6);
    first_best(&timed(limit), limit)
        .or_else(|| first_best(&timed(f64::INFINITY), f64::INFINITY))
        .expect("exact times always decide")
}

/// A helper selection: for each involved rack, the chosen helper blocks.
type Selection = Vec<(RackId, Vec<BlockId>)>;

impl RprPlanner {
    /// Enumerate candidate helper selections, with the index of the probe:
    /// heuristic (b)'s pick below when it is a candidate, else 0.
    fn candidate_selections(&self, ctx: &RepairContext<'_>) -> (Vec<Selection>, usize) {
        let params = ctx.params();
        let n = params.n;
        let by_rack = ctx.survivors_by_rack();
        let recovery = ctx.recovery_rack();

        // Rack-local preference order: data blocks, then P0, then other
        // parities — this is what turns pre-placement into the XOR path.
        let pref = |b: &BlockId| {
            if b.is_data(&params) {
                (0, b.0)
            } else if *b == BlockId::p0(&params) {
                (1, b.0)
            } else {
                (2, b.0)
            }
        };
        let mut racks: Vec<(RackId, Vec<BlockId>)> = by_rack;
        for (_, blocks) in racks.iter_mut() {
            blocks.sort_by_key(pref);
        }
        // Put the recovery rack first so compositions index it as slot 0.
        racks.sort_by_key(|(r, _)| (*r != recovery, r.0));

        let caps: Vec<usize> = racks.iter().map(|(_, b)| b.len()).collect();

        let mut selections: Vec<Selection> = Vec::new();
        let select = |counts: &[usize]| -> Selection {
            racks
                .iter()
                .zip(counts)
                .filter(|(_, &c)| c > 0)
                .map(|((rack, blocks), &c)| (*rack, blocks[..c].to_vec()))
                .collect()
        };

        if self.search && ctx.failed.len() == 1 {
            // Exhaustive composition enumeration (tiny for paper codes).
            let mut counts = vec![0usize; caps.len()];
            enumerate_compositions(&caps, n, 0, &mut counts, &mut |c| {
                selections.push(select(c))
            });
        } else {
            // Heuristics: (a) local-first + fullest remote racks,
            // (b) local-first + leave one remote rack single-block,
            // (c) no locals + fullest remote racks.
            for (use_local, leave_single) in [(true, false), (true, true), (false, false)] {
                if let Some(counts) = heuristic_counts(&caps, n, use_local, leave_single) {
                    selections.push(select(&counts));
                }
            }
        }
        selections.sort();
        selections.dedup();
        let probe = heuristic_counts(&caps, n, true, true)
            .and_then(|counts| selections.iter().position(|s| *s == select(&counts)))
            .unwrap_or(0);
        (selections, probe)
    }
}

/// All ways to pick `counts[i] <= caps[i]` with a fixed total.
fn enumerate_compositions(
    caps: &[usize],
    remaining: usize,
    i: usize,
    counts: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize]),
) {
    if i == caps.len() {
        if remaining == 0 {
            f(counts);
        }
        return;
    }
    let tail_cap: usize = caps[i + 1..].iter().sum();
    let lo = remaining.saturating_sub(tail_cap);
    let hi = caps[i].min(remaining);
    for c in lo..=hi {
        counts[i] = c;
        enumerate_compositions(caps, remaining - c, i + 1, counts, f);
        counts[i] = 0;
    }
}

/// Greedy helper-count heuristic. Slot 0 is the recovery rack.
fn heuristic_counts(
    caps: &[usize],
    n: usize,
    use_local: bool,
    leave_single: bool,
) -> Option<Vec<usize>> {
    let mut counts = vec![0usize; caps.len()];
    let mut need = n;
    if use_local {
        counts[0] = caps[0].min(need);
        need -= counts[0];
    }
    // Fill remote racks fullest-first.
    let mut order: Vec<usize> = (1..caps.len()).collect();
    order.sort_by_key(|&i| core::cmp::Reverse(caps[i]));
    for &i in &order {
        if need == 0 {
            break;
        }
        counts[i] = caps[i].min(need);
        need -= counts[i];
    }
    if need > 0 {
        // Not satisfiable under this heuristic (e.g. skipping locals when
        // they are required to reach n helpers).
        return None;
    }
    if leave_single {
        // Shift one block so some remote rack contributes exactly one —
        // its intermediate is ready immediately and can ship first.
        if let (Some(&donor), Some(&empty)) = (
            order.iter().find(|&&i| counts[i] >= 2),
            order.iter().find(|&&i| counts[i] == 0 && caps[i] >= 1),
        ) {
            counts[donor] -= 1;
            counts[empty] = 1;
        } else if let Some(&last) = order.iter().rev().find(|&&i| counts[i] >= 2) {
            // No empty rack: thin the least-loaded used rack to 1 and give
            // the remainder back to locals if possible.
            if counts[0] < caps[0] && use_local {
                counts[last] -= 1;
                counts[0] += 1;
            }
        }
    }
    Some(counts)
}

/// Build the full RPR plan for one helper selection.
fn build_plan(ctx: &RepairContext<'_>, selection: &Selection) -> RepairPlan {
    let recovery_rack = ctx.recovery_rack();
    let rec = ctx.recovery_node();
    let (t_i, t_c) = ctx.transfer_times();

    let helpers: Vec<BlockId> = selection
        .iter()
        .flat_map(|(_, blocks)| blocks.iter().copied())
        .collect();
    let equations = ctx.codec.repair_equations(&ctx.failed, &helpers);
    let z = equations.len();

    let mut b = PlanBuilder::new();
    let mut items: Vec<RackInterm> = Vec::new();

    if z == 1 {
        // Single failure: Algorithm 1 per rack.
        let eq = &equations[0];
        for (rack, blocks) in selection {
            let terms: Vec<(BlockId, u8)> = blocks
                .iter()
                .filter_map(|&bl| eq.coefficient(bl).map(|c| (bl, c)))
                .collect();
            if terms.is_empty() {
                continue;
            }
            let root = (*rack == recovery_rack).then_some(rec);
            let (value, node, depth) = inner_tree(&mut b, ctx, &terms, 0, root);
            items.push(RackInterm {
                eq: 0,
                rack: *rack,
                node,
                value,
                ready: depth as f64 * t_i,
            });
        }
    } else {
        // Multi failure: Algorithm 3 per rack.
        for (rack, blocks) in selection {
            let eq_terms: Vec<Vec<(BlockId, u8)>> = equations
                .iter()
                .map(|eq| {
                    blocks
                        .iter()
                        .filter_map(|&bl| eq.coefficient(bl).map(|c| (bl, c)))
                        .collect()
                })
                .collect();
            if eq_terms.iter().all(|t| t.is_empty()) {
                continue;
            }
            let root = (*rack == recovery_rack).then_some(rec);
            let produced = inner_star(&mut b, ctx, blocks, &eq_terms, root);
            // Inner-star cost estimate: raw deliveries serialize on the
            // aggregator's downlink.
            let deliveries = blocks.len().saturating_sub(usize::from(root.is_none()));
            let ready = deliveries as f64 * t_i;
            for (eq, value, node) in produced {
                items.push(RackInterm {
                    eq,
                    rack: *rack,
                    node,
                    value,
                    ready,
                });
            }
        }
    }

    // Algorithm 2/4: greedy cross-rack pipeline.
    let finals = cross_pipeline(&mut b, ctx, items, recovery_rack, rec, t_c);
    let outputs: Vec<(BlockId, crate::plan::OpId)> = finals
        .into_iter()
        .map(|(eq, op)| (ctx.failed[eq], op))
        .collect();
    assert_eq!(outputs.len(), z, "every failed block must be reconstructed");

    // RPR builds the decoding matrix only when coefficients demand it; the
    // stats layer detects that from the plan itself.
    b.finish(ctx, rec, outputs, false, "rpr")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::plan::PlanStats;
    use crate::sim::simulate;
    use rpr_codec::{CodeParams, StripeCodec};
    use rpr_faults::SplitMix64;
    use rpr_topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy};
    use std::cell::Cell;

    const SEED: u64 = 0x243F_6A88_85A3_08D3;
    const PAPER_CODES: [(usize, usize); 6] = [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)];

    fn setup(
        n: usize,
        k: usize,
        policy: PlacementPolicy,
    ) -> (
        StripeCodec,
        rpr_topology::Topology,
        Placement,
        BandwidthProfile,
    ) {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::by_policy(policy, params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        (codec, topo, placement, profile)
    }

    fn plan_and_stats(
        n: usize,
        k: usize,
        policy: PlacementPolicy,
        failed: Vec<BlockId>,
    ) -> (RepairPlan, PlanStats, f64) {
        let (codec, topo, placement, profile) = setup(n, k, policy);
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            failed,
            1 << 22,
            &profile,
            CostModel::simics(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&codec, &topo, &placement).expect("valid");
        let stats = plan.stats(&topo);
        let t = simulate(&plan, &ctx).repair_time;
        (plan, stats, t)
    }

    #[test]
    fn single_failure_plans_validate_for_all_paper_codes_and_positions() {
        for (n, k) in [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)] {
            for f in 0..n + k {
                let (_, stats, _) =
                    plan_and_stats(n, k, PlacementPolicy::Compact, vec![BlockId(f)]);
                assert!(
                    stats.cross_transfers <= n,
                    "({n},{k}) f={f}: RPR must not exceed traditional traffic"
                );
            }
        }
    }

    #[test]
    fn figure5_schedule2_beats_schedule1_for_6_2() {
        // The paper's motivating example: RS(6,2), one failure, pipeline
        // schedule ≈ 21 t_i vs CAR-style 31 t_i.
        let (codec, topo, placement, profile) = setup(6, 2, PlacementPolicy::Compact);
        let block = 1u64 << 22;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            CostModel::free(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&codec, &topo, &placement).expect("valid");
        let t = simulate(&plan, &ctx).repair_time;
        let t_i = block as f64 / profile.mean_inner();
        assert!(
            (t / t_i) < 22.0 + 1e-6,
            "RPR(6,2) should reach ≈21 t_i, got {} t_i",
            t / t_i
        );
    }

    #[test]
    fn preplacement_gives_matrix_free_repair_for_data_failures() {
        // With P0 co-located and the XOR equation available, a data-block
        // failure should produce an all-ones plan (no decoding matrix).
        let (_, stats, _) = plan_and_stats(6, 2, PlacementPolicy::RprPreplaced, vec![BlockId(1)]);
        assert!(
            !stats.needs_matrix,
            "pre-placement must enable the eq.-6 XOR path"
        );
    }

    #[test]
    fn multi_failure_plans_validate_and_bound_traffic() {
        // (8,4) with 2 and 3 failures; traffic per §4.3.3 is (n/k)*l in the
        // best case and never exceeds n.
        for failed in [
            vec![BlockId(0), BlockId(1)],
            vec![BlockId(0), BlockId(4)],
            vec![BlockId(0), BlockId(1), BlockId(2)],
            vec![BlockId(2), BlockId(5), BlockId(9)],
        ] {
            let z = failed.len();
            let (plan, stats, _) = plan_and_stats(8, 4, PlacementPolicy::Compact, failed.clone());
            assert_eq!(plan.outputs.len(), z);
            assert!(
                stats.cross_transfers <= 8,
                "multi-failure traffic must not exceed n: {failed:?} -> {}",
                stats.cross_transfers
            );
        }
    }

    #[test]
    fn worst_case_k_failures_still_recover() {
        let (plan, _, _) =
            plan_and_stats(6, 2, PlacementPolicy::Compact, vec![BlockId(0), BlockId(1)]);
        assert_eq!(plan.outputs.len(), 2);
    }

    #[test]
    fn search_is_no_worse_than_heuristic() {
        for f in 0..8 {
            let (codec, topo, placement, profile) = setup(6, 2, PlacementPolicy::Compact);
            let ctx = RepairContext::new(
                &codec,
                &topo,
                &placement,
                vec![BlockId(f)],
                1 << 22,
                &profile,
                CostModel::free(),
            );
            let searched = simulate(&RprPlanner::new().plan(&ctx), &ctx).repair_time;
            let heuristic = simulate(&RprPlanner::without_search().plan(&ctx), &ctx).repair_time;
            assert!(
                searched <= heuristic + 1e-9,
                "f={f}: search {searched} vs heuristic {heuristic}"
            );
        }
    }

    #[test]
    fn composition_enumeration_is_exact() {
        let mut seen = Vec::new();
        let mut counts = vec![0; 3];
        enumerate_compositions(&[2, 2, 2], 4, 0, &mut counts, &mut |c| {
            seen.push(c.to_vec())
        });
        // Compositions of 4 into three parts <= 2: (0,2,2),(1,1,2),(1,2,1),
        // (2,0,2),(2,1,1),(2,2,0) -> 6.
        assert_eq!(seen.len(), 6);
        assert!(seen.iter().all(|c| c.iter().sum::<usize>() == 4));
        assert!(seen.iter().all(|c| c.iter().all(|&x| x <= 2)));
    }

    /// The search as it was before pruning, kept as the reference: every
    /// candidate simulated in full and folded in candidate order.
    fn plan_exhaustively(planner: &RprPlanner, ctx: &RepairContext<'_>) -> RepairPlan {
        let (candidates, _) = planner.candidate_selections(ctx);
        let mut best: Option<(f64, usize, RepairPlan)> = None;
        for sel in &candidates {
            let plan = build_plan(ctx, sel);
            let outcome = simulate(&plan, ctx);
            let (time, cross) = (outcome.repair_time, outcome.stats.cross_transfers);
            let better = match &best {
                None => true,
                Some((bt, bc, _)) => {
                    // Minimize repair time; break ties on cross-rack traffic.
                    time < bt - 1e-9 || (time < bt + 1e-9 && cross < *bc)
                }
            };
            if better {
                best = Some((time, cross, plan));
            }
        }
        best.expect("at least one candidate").2
    }

    #[test]
    fn pruned_search_chooses_the_exhaustive_plan() {
        // Every single failure of the six paper codes plus sampled doubles,
        // on both placements, block mode and chunked, free and Simics
        // costs; a 4 KiB block too, whose bound sits inside the tie window
        // and sends the planner to its fallback.
        let (block, chunk, doubles) = if cfg!(debug_assertions) {
            (16 << 20, 4 << 20, 2)
        } else {
            (64 << 20, 1 << 20, 6)
        };
        let mut rng = SplitMix64::new(SEED);
        let mut plans = 0;
        for (n, k) in PAPER_CODES {
            for policy in [PlacementPolicy::Compact, PlacementPolicy::RprPreplaced] {
                let (codec, topo, placement, profile) = setup(n, k, policy);
                let mut failures: Vec<Vec<BlockId>> =
                    (0..n + k).map(|f| vec![BlockId(f)]).collect();
                for _ in 0..doubles {
                    let a = rng.pick(n + k);
                    let b = (a + 1 + rng.pick(n + k - 1)) % (n + k);
                    failures.push(vec![BlockId(a), BlockId(b)]);
                }
                for failed in &failures {
                    for cost in [CostModel::free(), CostModel::simics()] {
                        for (bytes, chunk) in [(block, None), (block, Some(chunk)), (4096, None)] {
                            let base = RepairContext::new(
                                &codec,
                                &topo,
                                &placement,
                                failed.clone(),
                                bytes,
                                &profile,
                                cost,
                            );
                            let ctx = chunk.map_or(base.clone(), |c| base.with_chunk_size(c));
                            for planner in [RprPlanner::new(), RprPlanner::without_search()] {
                                let want = plan_exhaustively(&planner, &ctx);
                                let got = planner.plan(&ctx);
                                assert_eq!(
                                    format!("{got:?}"),
                                    format!("{want:?}"),
                                    "({n},{k}) {policy:?} {failed:?} {bytes} B chunk {chunk:?} \
                                     search {}",
                                    planner.search
                                );
                                plans += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(plans > 1000, "{plans} plans compared");
    }

    #[test]
    fn losing_candidates_are_abandoned() {
        // (12,4) d1 chunked: most candidates cross the probe's bound, and
        // the bounded fold decides without rerunning anything.
        let (codec, topo, placement, profile) = setup(12, 4, PlacementPolicy::RprPreplaced);
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            16 << 20,
            &profile,
            CostModel::simics(),
        )
        .with_chunk_size(1 << 20);
        let planner = RprPlanner::new();
        let (candidates, probe) = planner.candidate_selections(&ctx);
        let plans: Vec<RepairPlan> = candidates.iter().map(|s| build_plan(&ctx, s)).collect();
        let cross: Vec<usize> = plans
            .iter()
            .map(|p| p.stats(ctx.topo).cross_transfers)
            .collect();
        let (pruned, full) = (Cell::new(0), Cell::new(0));
        let best = pick(probe, &cross, |i, limit| {
            let out = simulate_within(&plans[i], &ctx, limit);
            pruned.set(pruned.get() + usize::from(out.is_none()));
            full.set(full.get() + usize::from(limit.is_infinite()));
            out.map(|o| o.repair_time)
        });
        assert_eq!(full.get(), 1, "only the probe runs unbounded");
        assert!(
            pruned.get() * 2 > plans.len(),
            "{} of {} candidates pruned",
            pruned.get(),
            plans.len()
        );
        assert_eq!(
            format!("{:?}", plans[best]),
            format!("{:?}", plan_exhaustively(&planner, &ctx))
        );
    }

    /// The planner's fold before pruning, kept as the reference: the first
    /// shortest time, ties within 1e-9 going to fewer cross transfers.
    fn exact_pick(candidates: &[(f64, usize)]) -> usize {
        let mut best = 0;
        for (i, &(time, cross)) in candidates.iter().enumerate() {
            let (bt, bc) = candidates[best];
            if time < bt - 1e-9 || (time < bt + 1e-9 && cross < bc) {
                best = i;
            }
        }
        best
    }

    /// What bounded runs report for candidates of these exact times: a
    /// time over `limit` is only known to be over it.
    fn bounded(exact: &[(f64, usize)], limit: f64) -> Vec<(Option<f64>, usize)> {
        exact
            .iter()
            .map(|&(t, c)| ((t <= limit).then_some(t), c))
            .collect()
    }

    #[test]
    fn bounded_fold_agrees_with_the_exact_fold_or_defers() {
        // Seeded cases: times on a grid around 10 s with offsets at and
        // inside the tie window, cross counts 0..4, a limit near one of
        // the times.
        const CASES: usize = 20_000;
        let offsets = [0.0, 0.4e-9, 0.5e-9, 1e-9, 1.5e-9, 2e-9, 1e-6, 1e-3, 0.5];
        let time = |rng: &mut SplitMix64| {
            10.0 + offsets[rng.pick(offsets.len())] * [1.0, -1.0][rng.pick(2)]
        };
        let mut rng = SplitMix64::new(SEED);
        let (mut decided, mut deferred) = (0, 0);
        for case in 0..CASES {
            let exact: Vec<(f64, usize)> = (0..1 + rng.pick(8))
                .map(|_| (time(&mut rng), rng.pick(4)))
                .collect();
            let limit = time(&mut rng);
            match first_best(&bounded(&exact, limit), limit) {
                Some(i) => {
                    let want = exact_pick(&exact);
                    assert_eq!(i, want, "case {case}: {exact:?} limit {limit}");
                    decided += 1;
                }
                None => deferred += 1,
            }
        }
        assert!(
            decided * 4 > CASES && deferred * 20 > CASES,
            "{decided} decided, {deferred} deferred"
        );

        // At the boundary the fold defers: a time over the limit but inside
        // the tie window of the best wins on cross transfers, and an exact
        // time inside the window of the limit loses to the one over it
        // held before it.
        let limit = 10.0 + 0.5e-9;
        let over = 10.0 + 0.8e-9;
        for exact in [
            vec![(10.0, 2), (over, 1)],
            vec![(over, 1), (10.0 + 0.3e-9, 2)],
        ] {
            let winner = exact.iter().position(|&(t, _)| t == over);
            assert_eq!(Some(exact_pick(&exact)), winner, "{exact:?}");
            assert_eq!(first_best(&bounded(&exact, limit), limit), None);
        }
    }

    #[test]
    fn an_undecided_fold_reruns_every_candidate_in_full() {
        // A probe so short that 1e-6 of it is inside the tie window: the
        // candidate over the bound may tie the probe, and here it does and
        // wins on cross transfers. A 20 s probe's bound clears the window.
        let cross = [3, 2, 1];
        for (times, reruns) in [
            ([2e-4, 2e-4 + 5e-10, 3e-4], true),
            ([20.0, 20.00005, 30.0], false),
        ] {
            let full = Cell::new(0);
            let best = pick(0, &cross, |i, limit| {
                full.set(full.get() + usize::from(limit.is_infinite()));
                (times[i] <= limit).then_some(times[i])
            });
            let exact: Vec<(f64, usize)> = times.iter().copied().zip(cross).collect();
            assert_eq!(best, exact_pick(&exact), "{times:?}");
            let want = if reruns { times.len() } else { 1 };
            assert_eq!(full.get(), want, "{times:?}: unbounded runs");
        }
    }
}
