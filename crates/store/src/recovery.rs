//! Whole-node and whole-rack failure recovery: plan every affected stripe,
//! simulate all repairs concurrently on the shared cluster.

use std::num::NonZeroUsize;

use crate::store::Store;
use rpr_codec::BlockId;
use rpr_core::{
    network_for, CarPlanner, CostModel, JobGraph, OpId, RepairContext, RepairPlan, RepairPlanner,
    RprPlanner, SuperviseConfig, TraditionalPlanner,
};
use rpr_faults::{HealthTracker, StormFault};
use rpr_netsim::{JobId, Network, Simulator};
use rpr_obs::Recorder;
use rpr_proof::ProofLedger;
use rpr_sched::{
    cost_repair, schedule_fleet, stripe_demand, stripe_storm, BandwidthArbiter, Demand, FleetJob,
    FleetSummary, RepairTally, StripeRecord,
};
use rpr_topology::{BandwidthProfile, NodeId, RackId};

/// A fleet-level failure event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Failure {
    /// One storage node dies: every stripe with a block on it loses that
    /// block.
    Node(NodeId),
    /// A whole rack dies: every stripe loses all blocks it kept there
    /// (at most `k` by single-rack fault tolerance — always recoverable).
    Rack(RackId),
}

/// The repair scheme used for fleet recovery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// Classic repair, recovery in the failed block's rack (node failure)
    /// or a surviving rack (rack failure).
    Traditional,
    /// CAR with multi-stripe cross-rack load balancing (single-block
    /// failures only — i.e. node failures).
    Car,
    /// RPR.
    Rpr,
}

impl Scheme {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Traditional => "traditional",
            Scheme::Car => "car",
            Scheme::Rpr => "rpr",
        }
    }
}

/// Knobs for fleet recovery.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryOptions {
    /// Maximum number of stripes repairing concurrently (`None` = all at
    /// once). Production systems throttle repair to protect foreground
    /// traffic; excess stripes wait for the next wave.
    pub max_concurrent: Option<NonZeroUsize>,
    /// Total aggregation-switch capacity in bytes/sec shared by all
    /// cross-rack repair traffic (`None` = unconstrained fabric).
    pub agg_capacity: Option<f64>,
}

/// The result of a fleet recovery.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    /// Number of stripes that had to repair.
    pub stripes_repaired: usize,
    /// Time until the last stripe finished.
    pub makespan: f64,
    /// Per-stripe completion times.
    pub stripe_finish: Vec<f64>,
    /// Total bytes moved across racks.
    pub cross_rack_bytes: u64,
    /// Total bytes moved inside racks.
    pub inner_rack_bytes: u64,
    /// Max-over-mean upload imbalance across nodes (1.0 = perfectly even).
    pub upload_imbalance: f64,
    /// Cross-rack upload bytes per rack (the quantity CAR balances).
    pub rack_upload_bytes: Vec<u64>,
    /// Which racks host at least one block of the affected stripes — the
    /// set [`RecoveryOutcome::rack_upload_imbalance`] averages over. A
    /// participating rack that uploads nothing (an idle helper) drags the
    /// mean down instead of vanishing from the metric.
    pub rack_participants: Vec<bool>,
}

/// Max-over-mean of a byte distribution, **including zero entries**.
/// Callers pass exactly the participating units (racks or nodes hosting
/// the affected stripes' blocks); an idle participant must lower the
/// mean, not disappear from it. Returns 0.0 for an empty or all-zero
/// slice (no traffic — imbalance is undefined, reported as 0).
pub fn max_over_mean(bytes: &[u64]) -> f64 {
    let sum: u64 = bytes.iter().sum();
    if sum == 0 {
        return 0.0;
    }
    let max = *bytes.iter().max().expect("non-empty: sum > 0") as f64;
    let mean = sum as f64 / bytes.len() as f64;
    max / mean
}

impl RecoveryOutcome {
    /// Mean stripe completion time.
    pub fn mean_stripe_finish(&self) -> f64 {
        if self.stripe_finish.is_empty() {
            return 0.0;
        }
        self.stripe_finish.iter().sum::<f64>() / self.stripe_finish.len() as f64
    }

    /// Max-over-mean imbalance of per-rack cross-rack uploads, taken over
    /// every rack hosting the affected stripes' blocks — including racks
    /// that uploaded nothing. (Filtering idle racks out, as an earlier
    /// version did, understates imbalance exactly when a scheme leaves
    /// helper racks idle.)
    pub fn rack_upload_imbalance(&self) -> f64 {
        let participating: Vec<u64> = self
            .rack_upload_bytes
            .iter()
            .zip(&self.rack_participants)
            .filter(|&(&b, &p)| p || b > 0)
            .map(|(&b, _)| b)
            .collect();
        max_over_mean(&participating)
    }
}

/// Knobs for supervised fleet recovery ([`Store::recover_supervised`]).
#[derive(Clone, Debug)]
pub struct SupervisedRecoveryOptions {
    /// Maximum stripes repairing concurrently per admission wave
    /// (`None` = all at once). Same meaning as
    /// [`RecoveryOptions::max_concurrent`].
    pub max_concurrent: Option<NonZeroUsize>,
    /// Storm template applied to **every** stripe's repair; each stripe
    /// draws its own fault sites from a per-stripe seed, so the same
    /// fault *pattern* hits different helpers per stripe.
    pub storm: Vec<Vec<StormFault>>,
    /// Base seed; stripe `i` repairs under seed `mix(seed, i)`.
    pub seed: u64,
    /// Supervisor configuration (replan budget, hedging, deadline)
    /// shared by every stripe.
    pub cfg: SuperviseConfig,
}

impl Default for SupervisedRecoveryOptions {
    fn default() -> SupervisedRecoveryOptions {
        SupervisedRecoveryOptions {
            max_concurrent: None,
            storm: Vec::new(),
            seed: 17,
            cfg: SuperviseConfig::default(),
        }
    }
}

/// The result of a supervised fleet recovery.
#[derive(Clone, Debug)]
pub struct SupervisedRecoveryOutcome {
    /// Stripes the failure affected.
    pub stripes_affected: usize,
    /// Stripes whose supervised repair completed.
    pub completed: usize,
    /// Time until the last admitted wave finished.
    pub makespan: f64,
    /// Per-stripe repair durations (completed stripes only, in stripe
    /// order) — the distribution MTTR and the p99 summarize.
    pub stripe_seconds: Vec<f64>,
    /// Mean time to repair one stripe.
    pub mttr: f64,
    /// 99th-percentile stripe repair time.
    pub p99_stripe_seconds: f64,
    /// Supervision counters summed over the completed stripes.
    pub tally: RepairTally,
    /// Nodes the fleet-shared health tracker had quarantined by the end.
    pub quarantined_nodes: Vec<usize>,
    /// Per-stripe proof ledgers `(stripe id, ledger)` for completed
    /// stripes, in admission order — each independently auditable
    /// offline against that stripe's trace.
    pub ledgers: Vec<(usize, ProofLedger)>,
}

/// Knobs for scheduler-routed fleet recovery ([`Store::recover_fleet`]).
#[derive(Clone, Debug)]
pub struct FleetRecoveryOptions {
    /// Storm template applied to every stripe's repair; same shape and
    /// per-stripe seed derivation as [`SupervisedRecoveryOptions::storm`].
    pub storm: Vec<Vec<StormFault>>,
    /// Base seed; stripe `i` repairs under seed `mix(seed, i)`.
    pub seed: u64,
    /// Supervisor configuration shared by every stripe.
    pub cfg: SuperviseConfig,
    /// When false the bandwidth arbiter admits every stripe at time 0,
    /// so the schedule must match per-stripe supervised repair exactly —
    /// the cross-backend pin the integration tests rely on.
    pub arbitrate: bool,
    /// Finite aggregation-switch capacity for the **arbiter** (`None` =
    /// unconstrained fabric). Each stripe's stand-alone sim still
    /// assumes an otherwise idle cluster; the arbiter is what makes
    /// stripes wait for each other.
    pub agg_capacity: Option<f64>,
}

impl Default for FleetRecoveryOptions {
    fn default() -> FleetRecoveryOptions {
        FleetRecoveryOptions {
            storm: Vec::new(),
            seed: 17,
            cfg: SuperviseConfig::default(),
            arbitrate: true,
            agg_capacity: None,
        }
    }
}

/// The result of a scheduler-routed fleet recovery
/// ([`Store::recover_fleet`]).
#[derive(Clone, Debug)]
pub struct FleetRecoveryOutcome {
    /// Stripes the failure affected.
    pub stripes_affected: usize,
    /// Stripes whose storm was unrecoverable (excluded from the backlog).
    pub unrepairable: usize,
    /// Aggregate schedule numbers for the repaired stripes.
    pub summary: FleetSummary,
    /// Per-stripe admission records in ascending stripe order;
    /// [`StripeRecord::stripe`] is the store stripe id.
    pub records: Vec<StripeRecord>,
    /// Supervision counters summed over the repaired stripes.
    pub tally: RepairTally,
    /// Peak reservation on the most loaded arbitrated link as a fraction
    /// of its capacity (≤ 1 unless arbitration was disabled).
    pub max_utilization: f64,
    /// Per-stripe proof ledgers `(stripe id, ledger)` for repaired
    /// stripes, in backlog order.
    pub ledgers: Vec<(usize, ProofLedger)>,
}

impl Store {
    /// The `(stripe, lost blocks)` list a failure causes.
    pub fn affected_stripes(&self, failure: Failure) -> Vec<(usize, Vec<BlockId>)> {
        let mut per_stripe: Vec<(usize, Vec<BlockId>)> = Vec::new();
        let raw = match failure {
            Failure::Node(n) => self.blocks_on_node(n),
            Failure::Rack(r) => self.blocks_in_rack(r),
        };
        for (stripe, block) in raw {
            match per_stripe.iter_mut().find(|(s, _)| *s == stripe) {
                Some((_, blocks)) => blocks.push(block),
                None => per_stripe.push((stripe, vec![block])),
            }
        }
        for (_, blocks) in per_stripe.iter_mut() {
            blocks.sort_unstable();
        }
        per_stripe.sort_by_key(|&(s, _)| s);
        per_stripe
    }

    /// Recover from a failure with the given scheme: plan each affected
    /// stripe, then simulate every repair concurrently on the shared
    /// cluster. `options.max_concurrent` throttles how many stripes repair
    /// at once (production repair schedulers cap recovery traffic to
    /// protect foreground I/O); the remaining stripes run in later waves.
    ///
    /// # Panics
    /// Panics if the scheme is [`Scheme::Car`] and the failure is a rack
    /// failure that costs some stripe more than one block (CAR is
    /// single-failure-only), or if a plan fails validation (a bug).
    pub fn recover(
        &self,
        failure: Failure,
        scheme: Scheme,
        profile: &BandwidthProfile,
        cost: CostModel,
        options: &RecoveryOptions,
    ) -> RecoveryOutcome {
        let affected = self.affected_stripes(failure);
        if affected.is_empty() {
            return RecoveryOutcome {
                stripes_repaired: 0,
                makespan: 0.0,
                stripe_finish: Vec::new(),
                cross_rack_bytes: 0,
                inner_rack_bytes: 0,
                upload_imbalance: 0.0,
                rack_upload_bytes: vec![0; self.topology().rack_count()],
                rack_participants: vec![false; self.topology().rack_count()],
            };
        }

        // The units the imbalance metrics average over: every rack — and
        // every surviving node — hosting a block of an affected stripe.
        let mut rack_participants = vec![false; self.topology().rack_count()];
        let mut node_participants = vec![false; self.topology().node_count()];
        for (stripe, failed) in &affected {
            let placement = self.placement(*stripe);
            for r in placement.racks_used(self.topology()) {
                rack_participants[r.0] = true;
            }
            for b in self.codec().params().all_blocks() {
                if !failed.contains(&b) {
                    node_participants[placement.node_of(b).0] = true;
                }
            }
        }

        // Plan each stripe. CAR carries accumulated per-rack cross-upload
        // loads forward (its multi-stripe balancing); the others plan
        // independently.
        let mut rack_loads = vec![0u64; self.topology().rack_count()];
        let mut plans: Vec<RepairPlan> = Vec::with_capacity(affected.len());
        let mut contexts: Vec<RepairContext<'_>> = Vec::with_capacity(affected.len());
        for (stripe, failed) in &affected {
            let placement = self.placement(*stripe);
            let mut ctx = self.repair_context(*stripe, failed, profile, cost);
            if let Some(cap) = options.agg_capacity {
                ctx = ctx.with_agg_capacity(cap);
            }
            if let Failure::Rack(dead) = failure {
                // Rebuild in the least-loaded surviving rack used by this
                // stripe's survivors (or any other rack with a spare).
                let target = self
                    .topology()
                    .racks()
                    .filter(|&r| r != dead)
                    .filter(|&r| placement.replacement_in(r, self.topology()).is_some())
                    .min_by_key(|r| rack_loads[r.0])
                    .expect("a surviving rack with a spare node exists");
                ctx = ctx.with_recovery_rack(target);
            }

            let plan = match scheme {
                Scheme::Traditional => TraditionalPlanner::locality_aware().plan(&ctx),
                Scheme::Car => CarPlanner::with_rack_loads(rack_loads.clone()).plan(&ctx),
                Scheme::Rpr => RprPlanner::new().plan(&ctx),
            };
            plan.validate(self.codec(), self.topology(), placement)
                .expect("store-generated plans must validate");

            // Account this plan's cross-rack uploads per source rack.
            for op in &plan.ops {
                if let rpr_core::Op::Send { from, to, .. } = op {
                    if !self.topology().same_rack(*from, *to) {
                        rack_loads[self.topology().rack_of(*from).0] += self.config().block_bytes;
                    }
                }
            }
            plans.push(plan);
            contexts.push(ctx);
        }

        // Shared simulation, in waves of at most `max_concurrent` stripes:
        // a wave is one simulator running every stripe's job graph, so its
        // repairs contend for the same links; waves serialize (the
        // scheduler starts the next batch once the previous finished).
        let wave_size = options
            .max_concurrent
            .map_or(plans.len(), NonZeroUsize::get);
        let mut offset = 0.0f64;
        let mut stripe_finish = Vec::with_capacity(plans.len());
        let mut cross_rack_bytes = 0u64;
        let mut inner_rack_bytes = 0u64;
        let mut upload = vec![0u64; self.topology().node_count()];
        for wave in plans.chunks(wave_size) {
            let mut sim = Simulator::new(network_for(&contexts[0]));
            // Per stripe: the last job of each of its outputs.
            let outputs: Vec<Vec<JobId>> = (wave.iter().enumerate())
                .map(|(tag, plan)| {
                    let graph = JobGraph::new(plan, &vec![true; plan.ops.len()], &contexts[0]);
                    let ids = graph.add_to(&mut sim, tag);
                    let last = |op: OpId| ids[graph.ops[op.0].jobs.end - 1];
                    plan.outputs.iter().map(|&(_, op)| last(op)).collect()
                })
                .collect();
            let report = sim.run();
            stripe_finish.extend(outputs.iter().map(|outs| {
                let finish = outs.iter().map(|&j| report.record(j).finish);
                finish.fold(0.0f64, f64::max) + offset
            }));
            cross_rack_bytes += report.cross_rack_bytes;
            inner_rack_bytes += report.inner_rack_bytes;
            for (u, b) in upload.iter_mut().zip(&report.node_upload_bytes) {
                *u += b;
            }
            offset += report.makespan;
        }
        let makespan = offset;
        let participating_uploads: Vec<u64> = upload
            .iter()
            .zip(&node_participants)
            .filter(|&(&b, &p)| p || b > 0)
            .map(|(&b, _)| b)
            .collect();
        let upload_imbalance = max_over_mean(&participating_uploads);

        RecoveryOutcome {
            stripes_repaired: affected.len(),
            makespan,
            stripe_finish,
            cross_rack_bytes,
            inner_rack_bytes,
            upload_imbalance,
            rack_upload_bytes: rack_loads,
            rack_participants,
        }
    }

    /// Fleet recovery routed through the repair supervisor: every
    /// affected stripe repairs under the same fault-storm template while
    /// one [`HealthTracker`] is shared across the whole fleet — a helper
    /// that straggled or died in one stripe's repair is avoided by every
    /// later stripe's planning.
    ///
    /// Admission control mirrors [`Store::recover`]: at most
    /// `max_concurrent` stripes repair per wave and waves serialize. A
    /// wave lasts as long as its slowest supervised repair; unlike the
    /// fault-free path this does **not** model link contention inside a
    /// wave (the supervisor replans per stripe, which the shared batch
    /// simulator cannot follow), so makespans are comparable between
    /// supervised runs, not against [`Store::recover`].
    ///
    /// Stripes whose storm exceeds the retry budget or `k` total failures
    /// are reported in `stripes_affected - completed`, never panicked on.
    pub fn recover_supervised(
        &self,
        failure: Failure,
        profile: &BandwidthProfile,
        cost: CostModel,
        options: &SupervisedRecoveryOptions,
    ) -> SupervisedRecoveryOutcome {
        let affected = self.affected_stripes(failure);
        let mut tracker = HealthTracker::with_defaults();
        let mut stripe_seconds = Vec::with_capacity(affected.len());
        let mut tally = RepairTally::default();
        let mut ledgers: Vec<(usize, ProofLedger)> = Vec::new();

        let wave_size = options
            .max_concurrent
            .map_or(affected.len().max(1), NonZeroUsize::get);
        let mut makespan = 0.0f64;
        for wave in affected.chunks(wave_size) {
            let mut wave_wall = 0.0f64;
            for (stripe, failed) in wave {
                let ctx = self.repair_context(*stripe, failed, profile, cost);
                let storm = stripe_storm(options.seed, *stripe as u64, &options.storm);
                let Some((c, out)) = cost_repair(&ctx, &storm, &options.cfg, &mut tracker) else {
                    continue;
                };
                stripe_seconds.push(c.dur);
                wave_wall = wave_wall.max(c.dur);
                tally.add(&c, Some(&out));
                if options.cfg.proof.active() {
                    ledgers.push((*stripe, out.ledger));
                }
            }
            makespan += wave_wall;
        }

        let mut sorted_seconds = stripe_seconds.clone();
        sorted_seconds.sort_by(f64::total_cmp);
        let mttr = if stripe_seconds.is_empty() {
            0.0
        } else {
            stripe_seconds.iter().sum::<f64>() / stripe_seconds.len() as f64
        };
        SupervisedRecoveryOutcome {
            stripes_affected: affected.len(),
            completed: stripe_seconds.len(),
            makespan,
            p99_stripe_seconds: rpr_sched::quantile(&sorted_seconds, 0.99),
            stripe_seconds,
            mttr,
            tally,
            quarantined_nodes: tracker.quarantined(),
            ledgers,
        }
    }

    /// Fleet recovery routed through the `rpr-sched` scheduler: every
    /// affected stripe's supervised repair is costed stand-alone, then
    /// the backlog drains through the at-risk-prioritized stripe index
    /// under cross-stripe bandwidth arbitration on this store's own
    /// topology and profile. `rec` receives the `stripe_enqueued` /
    /// `stripe_admitted` / `bandwidth_waited` event stream.
    ///
    /// Two deliberate differences from [`Store::recover_supervised`]:
    /// admission is link-level (a stripe waits only while the cross-rack
    /// links its plan needs are reserved by in-flight repairs) instead
    /// of fixed-size waves, and each stripe repairs under a **fresh**
    /// health tracker rather than a fleet-shared one — so admission
    /// order cannot change any repair's outcome, which is what makes
    /// the run order-independent and, with `arbitrate: false`, the
    /// schedule bit-identical to per-stripe
    /// [`rpr_core::supervise_injected`] runs.
    ///
    /// Stripes whose storm is unrecoverable are counted in
    /// [`FleetRecoveryOutcome::unrepairable`] and excluded from the
    /// backlog, never panicked on. Nothing is journaled: a
    /// crash-restartable drain is `rpr_sched::run_fleet_with`
    /// (`rpr fleet --journal / --resume`).
    pub fn recover_fleet(
        &self,
        failure: Failure,
        profile: &BandwidthProfile,
        cost: CostModel,
        options: &FleetRecoveryOptions,
        rec: &dyn Recorder,
    ) -> FleetRecoveryOutcome {
        let affected = self.affected_stripes(failure);
        let mut net = Network::new(self.topology().clone(), profile.clone());
        if let Some(cap) = options.agg_capacity {
            net = net.with_agg_capacity(cap);
        }

        let mut jobs: Vec<FleetJob> = Vec::with_capacity(affected.len());
        let mut demands: Vec<Demand> = Vec::with_capacity(affected.len());
        let mut tally = RepairTally::default();
        let mut ledgers: Vec<(usize, ProofLedger)> = Vec::new();
        for (stripe, failed) in &affected {
            let ctx = self.repair_context(*stripe, failed, profile, cost);
            let storm = stripe_storm(options.seed, *stripe as u64, &options.storm);
            let mut tracker = HealthTracker::with_defaults();
            let Some((c, out)) = cost_repair(&ctx, &storm, &options.cfg, &mut tracker) else {
                continue;
            };
            tally.add(&c, Some(&out));
            if options.cfg.proof.active() {
                ledgers.push((*stripe, out.ledger));
            }
            demands.push(if options.arbitrate {
                stripe_demand(&ctx, &net)
            } else {
                Demand::default()
            });
            jobs.push(FleetJob::costed(*stripe as u32, failed.len(), &c));
        }

        let mut arbiter = BandwidthArbiter::new(&net);
        arbiter.set_enabled(options.arbitrate);
        let outcome = schedule_fleet(&jobs, &mut |j| demands[j].clone(), &mut arbiter, rec);
        FleetRecoveryOutcome {
            stripes_affected: affected.len(),
            unrepairable: affected.len() - jobs.len(),
            summary: outcome.summary,
            records: outcome.records,
            tally,
            max_utilization: arbiter.max_utilization(),
            ledgers,
        }
    }

    /// The repair context of one affected stripe on this store.
    fn repair_context<'a>(
        &'a self,
        stripe: usize,
        failed: &[BlockId],
        profile: &'a BandwidthProfile,
        cost: CostModel,
    ) -> RepairContext<'a> {
        RepairContext::new(
            self.codec(),
            self.topology(),
            self.placement(stripe),
            failed.to_vec(),
            self.config().block_bytes,
            profile,
            cost,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use rpr_codec::CodeParams;

    fn small_store() -> Store {
        Store::build(StoreConfig {
            params: CodeParams::new(4, 2),
            racks: 5,
            nodes_per_rack: 4,
            stripes: 12,
            block_bytes: 8 << 20,
            preplace_p0: true,
            seed: 77,
        })
    }

    fn profile(s: &Store) -> BandwidthProfile {
        BandwidthProfile::simics_default(s.topology().rack_count())
    }

    #[test]
    fn node_failure_affects_each_hosting_stripe_once() {
        let s = small_store();
        let node = NodeId(0);
        let affected = s.affected_stripes(Failure::Node(node));
        let hosted = s.blocks_on_node(node);
        assert_eq!(affected.len(), hosted.len());
        for (_, blocks) in &affected {
            assert_eq!(blocks.len(), 1, "a node holds one block per stripe");
        }
    }

    #[test]
    fn rack_failure_loses_at_most_k_blocks_per_stripe() {
        let s = small_store();
        let affected = s.affected_stripes(Failure::Rack(RackId(1)));
        assert!(!affected.is_empty());
        for (stripe, blocks) in &affected {
            assert!(
                blocks.len() <= s.config().params.k,
                "stripe {stripe} lost {} blocks",
                blocks.len()
            );
        }
    }

    #[test]
    fn all_schemes_recover_a_node_failure() {
        let s = small_store();
        let p = profile(&s);
        let mut times = Vec::new();
        for scheme in [Scheme::Traditional, Scheme::Car, Scheme::Rpr] {
            let out = s.recover(
                Failure::Node(NodeId(2)),
                scheme,
                &p,
                CostModel::free(),
                &RecoveryOptions::default(),
            );
            assert!(out.stripes_repaired > 0);
            assert!(out.makespan > 0.0 && out.makespan.is_finite());
            assert_eq!(out.stripe_finish.len(), out.stripes_repaired);
            assert!(out.mean_stripe_finish() <= out.makespan + 1e-9);
            times.push((scheme, out.makespan, out.cross_rack_bytes));
        }
        // RPR must beat traditional on both time and traffic.
        let tra = times[0];
        let rpr = times[2];
        assert!(rpr.1 < tra.1, "RPR {:?} vs Tra {:?}", rpr, tra);
        assert!(rpr.2 <= tra.2);
    }

    #[test]
    fn rpr_and_traditional_recover_a_rack_failure() {
        let s = small_store();
        let p = profile(&s);
        for scheme in [Scheme::Traditional, Scheme::Rpr] {
            let out = s.recover(
                Failure::Rack(RackId(0)),
                scheme,
                &p,
                CostModel::free(),
                &RecoveryOptions::default(),
            );
            assert!(out.stripes_repaired > 0, "{scheme:?}");
            assert!(out.makespan.is_finite());
        }
    }

    #[test]
    fn car_balancing_spreads_rack_uploads() {
        // With many stripes, load-aware CAR should not be more imbalanced
        // than plain traditional repair.
        let s = Store::build(StoreConfig {
            params: CodeParams::new(4, 2),
            racks: 6,
            nodes_per_rack: 5,
            stripes: 30,
            block_bytes: 4 << 20,
            preplace_p0: true,
            seed: 5,
        });
        let p = profile(&s);
        let car = s.recover(
            Failure::Node(NodeId(0)),
            Scheme::Car,
            &p,
            CostModel::free(),
            &RecoveryOptions::default(),
        );
        assert!(car.rack_upload_imbalance() >= 1.0);
        assert!(
            car.rack_upload_imbalance() < 3.0,
            "CAR should keep rack uploads roughly even, got {}",
            car.rack_upload_imbalance()
        );
    }

    #[test]
    fn idle_helper_rack_counts_toward_imbalance() {
        // Racks 0..=3 host the affected stripe's blocks; rack 2 is a
        // helper that happens to upload nothing; rack 4 is a spare rack
        // with no blocks at all. The idle *helper* must drag the mean
        // down (max/mean = 4 / 3 over racks 0..=3); the spare rack stays
        // out of the metric entirely.
        let out = RecoveryOutcome {
            stripes_repaired: 1,
            makespan: 1.0,
            stripe_finish: vec![1.0],
            cross_rack_bytes: 12,
            inner_rack_bytes: 0,
            upload_imbalance: 1.0,
            rack_upload_bytes: vec![4, 4, 0, 4, 0],
            rack_participants: vec![true, true, true, true, false],
        };
        let got = out.rack_upload_imbalance();
        assert!(
            (got - 4.0 / 3.0).abs() < 1e-12,
            "idle helper rack must lower the mean: got {got}, want 4/3"
        );
        // The old metric filtered zero-upload racks out and reported a
        // perfectly balanced 1.0 here.
        assert!(got > 1.3);
    }

    #[test]
    fn max_over_mean_includes_zero_entries() {
        assert_eq!(max_over_mean(&[]), 0.0);
        assert_eq!(max_over_mean(&[0, 0, 0]), 0.0);
        assert!((max_over_mean(&[6, 6, 6]) - 1.0).abs() < 1e-12);
        // A zero entry lowers the mean: max 8, mean 4 → 2.0.
        assert!((max_over_mean(&[8, 4, 0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_marks_participating_racks() {
        let s = small_store();
        let p = profile(&s);
        let out = s.recover(
            Failure::Node(NodeId(2)),
            Scheme::Rpr,
            &p,
            CostModel::free(),
            &RecoveryOptions::default(),
        );
        assert_eq!(out.rack_participants.len(), s.topology().rack_count());
        // Every rack that uploaded is a participant.
        for (r, (&bytes, &part)) in out
            .rack_upload_bytes
            .iter()
            .zip(&out.rack_participants)
            .enumerate()
        {
            assert!(part || bytes == 0, "rack {r} uploaded but not marked");
        }
        assert!(out.rack_participants.iter().any(|&p| p));
    }

    #[test]
    fn one_wave_contends_on_shared_links() {
        // (4,2) on the smallest cluster a store accepts (four racks of
        // three nodes): the stripes' blocks overlap on most nodes, so the
        // repairs of one node failure share links in one wave.
        let s = Store::build(StoreConfig {
            params: CodeParams::new(4, 2),
            racks: 4,
            nodes_per_rack: 3,
            stripes: 6,
            block_bytes: 64 << 20,
            preplace_p0: true,
            seed: 7,
        });
        let p = profile(&s);
        let node = s
            .topology()
            .nodes()
            .max_by_key(|&n| s.blocks_on_node(n).len())
            .unwrap();
        let recover = |max| {
            let options = RecoveryOptions {
                max_concurrent: NonZeroUsize::new(max),
                ..Default::default()
            };
            s.recover(
                Failure::Node(node),
                Scheme::Rpr,
                &p,
                CostModel::free(),
                &options,
            )
        };
        // One stripe per wave: each wave is that stripe's repair alone.
        let solo = recover(1);
        let m = solo.stripes_repaired;
        assert!(m >= 2, "need >=2 stripes in one wave");
        let slowest = (0..m)
            .map(|i| {
                solo.stripe_finish[i]
                    - if i == 0 {
                        0.0
                    } else {
                        solo.stripe_finish[i - 1]
                    }
            })
            .fold(0.0f64, f64::max);
        let batch = recover(m);
        assert_eq!(batch.stripe_finish.len(), m);
        assert!(
            batch.makespan > 1.2 * slowest,
            "shared links must contend: {} vs slowest solo {slowest}",
            batch.makespan
        );
        for f in &batch.stripe_finish {
            assert!(*f <= batch.makespan + 1e-9);
        }
        // Contention moves no extra bytes.
        assert_eq!(batch.cross_rack_bytes, solo.cross_rack_bytes);
        assert_eq!(batch.inner_rack_bytes, solo.inner_rack_bytes);
    }

    #[test]
    fn throttled_recovery_is_slower_but_equal_traffic() {
        let s = small_store();
        let p = profile(&s);
        let node = s
            .topology()
            .nodes()
            .max_by_key(|&n| s.blocks_on_node(n).len())
            .unwrap();
        let unthrottled = s.recover(
            Failure::Node(node),
            Scheme::Rpr,
            &p,
            CostModel::free(),
            &RecoveryOptions::default(),
        );
        let throttled = s.recover(
            Failure::Node(node),
            Scheme::Rpr,
            &p,
            CostModel::free(),
            &RecoveryOptions {
                max_concurrent: NonZeroUsize::new(1),
                ..Default::default()
            },
        );
        assert!(
            unthrottled.stripes_repaired >= 2,
            "need >=2 stripes to see waves"
        );
        assert!(
            throttled.makespan >= unthrottled.makespan,
            "serial waves cannot beat full concurrency: {} vs {}",
            throttled.makespan,
            unthrottled.makespan
        );
        assert_eq!(throttled.cross_rack_bytes, unthrottled.cross_rack_bytes);
        assert_eq!(
            throttled.stripe_finish.len(),
            unthrottled.stripe_finish.len()
        );
        // Wave finishes are cumulative (non-decreasing after sorting by wave).
        assert!(
            throttled.makespan
                >= *throttled
                    .stripe_finish
                    .iter()
                    .max_by(|a, b| a.partial_cmp(b).unwrap())
                    .unwrap()
                    - 1e-9
        );
    }

    #[test]
    fn supervised_recovery_completes_a_fleet_under_crash_storms() {
        use rpr_faults::CrashSite;
        let s = small_store();
        let p = profile(&s);
        let opts = SupervisedRecoveryOptions {
            storm: vec![vec![StormFault::Crash(CrashSite::SeedPick)]],
            seed: 7,
            ..SupervisedRecoveryOptions::default()
        };
        let out = s.recover_supervised(Failure::Node(NodeId(2)), &p, CostModel::free(), &opts);
        assert!(out.stripes_affected > 0);
        assert_eq!(
            out.completed, out.stripes_affected,
            "crash storms are survivable"
        );
        assert_eq!(out.stripe_seconds.len(), out.completed);
        assert!(
            out.tally.replans >= out.completed,
            "every stripe crashed at least once"
        );
        assert!(out.mttr > 0.0 && out.mttr.is_finite());
        assert!(out.p99_stripe_seconds >= out.mttr);
        assert!(out.makespan >= out.p99_stripe_seconds - 1e-9);
        // Determinism: the same seed replays to the same distribution.
        let out2 = s.recover_supervised(Failure::Node(NodeId(2)), &p, CostModel::free(), &opts);
        assert_eq!(out.stripe_seconds, out2.stripe_seconds);
    }

    #[test]
    fn supervised_admission_waves_serialize() {
        let s = small_store();
        let p = profile(&s);
        let wide = SupervisedRecoveryOptions {
            seed: 7,
            ..SupervisedRecoveryOptions::default()
        };
        let narrow = SupervisedRecoveryOptions {
            max_concurrent: NonZeroUsize::new(1),
            ..wide.clone()
        };
        let node = s
            .topology()
            .nodes()
            .max_by_key(|&n| s.blocks_on_node(n).len())
            .unwrap();
        let all = s.recover_supervised(Failure::Node(node), &p, CostModel::free(), &wide);
        let one = s.recover_supervised(Failure::Node(node), &p, CostModel::free(), &narrow);
        assert!(all.stripes_affected >= 2, "need >=2 stripes to see waves");
        // One-at-a-time admission sums stripe times; full admission takes
        // the max (contention inside a wave is not modeled here).
        assert!(
            one.makespan > all.makespan,
            "serial {} vs concurrent {}",
            one.makespan,
            all.makespan
        );
        assert_eq!(one.completed, all.completed);
        assert!((one.makespan - one.stripe_seconds.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn fleet_recovery_repairs_every_affected_stripe() {
        let s = small_store();
        let p = profile(&s);
        let opts = FleetRecoveryOptions::default();
        let out = s.recover_fleet(
            Failure::Node(NodeId(2)),
            &p,
            CostModel::free(),
            &opts,
            rpr_obs::noop(),
        );
        let affected = s.affected_stripes(Failure::Node(NodeId(2)));
        assert_eq!(out.stripes_affected, affected.len());
        assert_eq!(out.unrepairable, 0);
        assert_eq!(out.summary.repaired, affected.len());
        assert_eq!(out.records.len(), affected.len());
        for (rec, (stripe, failed)) in out.records.iter().zip(&affected) {
            assert_eq!(rec.stripe as usize, *stripe, "records use store stripe ids");
            assert_eq!(rec.level, failed.len());
            assert!(rec.finish > rec.admitted);
        }
        assert!(
            out.max_utilization <= 1.0 + 1e-6,
            "arbiter never oversubscribes"
        );
        // Determinism: a replay is bit-identical.
        let again = s.recover_fleet(
            Failure::Node(NodeId(2)),
            &p,
            CostModel::free(),
            &opts,
            rpr_obs::noop(),
        );
        assert_eq!(out.records, again.records);
        assert_eq!(out.summary.to_json(), again.summary.to_json());
    }

    #[test]
    fn fleet_recovery_without_arbitration_matches_durations_and_never_waits() {
        let s = small_store();
        let p = profile(&s);
        let node = s
            .topology()
            .nodes()
            .max_by_key(|&n| s.blocks_on_node(n).len())
            .unwrap();
        let arbitrated = s.recover_fleet(
            Failure::Node(node),
            &p,
            CostModel::free(),
            &FleetRecoveryOptions::default(),
            rpr_obs::noop(),
        );
        let free = s.recover_fleet(
            Failure::Node(node),
            &p,
            CostModel::free(),
            &FleetRecoveryOptions {
                arbitrate: false,
                ..FleetRecoveryOptions::default()
            },
            rpr_obs::noop(),
        );
        assert!(arbitrated.summary.repaired >= 2, "need >=2 stripes");
        for (a, b) in arbitrated.records.iter().zip(&free.records) {
            assert_eq!(a.stripe, b.stripe);
            assert_eq!(b.admitted, 0.0, "no arbitration: everything starts at 0");
            assert_eq!(b.waited, 0.0);
            // Contention only delays starts; stand-alone durations match.
            let da = a.finish - a.admitted;
            assert!(
                (da - b.finish).abs() < 1e-12,
                "stripe {}: {da} vs {}",
                a.stripe,
                b.finish
            );
        }
        assert!(arbitrated.summary.makespan >= free.summary.makespan - 1e-12);
    }

    #[test]
    fn fleet_recovery_survives_crash_storms() {
        use rpr_faults::CrashSite;
        let s = small_store();
        let p = profile(&s);
        let opts = FleetRecoveryOptions {
            storm: vec![vec![StormFault::Crash(CrashSite::SeedPick)]],
            seed: 7,
            ..FleetRecoveryOptions::default()
        };
        let out = s.recover_fleet(
            Failure::Node(NodeId(2)),
            &p,
            CostModel::free(),
            &opts,
            rpr_obs::noop(),
        );
        assert!(out.stripes_affected > 0);
        assert_eq!(out.unrepairable, 0, "crash storms are survivable");
        assert_eq!(out.summary.repaired, out.stripes_affected);
        assert!(
            out.tally.replans >= out.summary.repaired,
            "every stripe crashed at least once"
        );
    }

    #[test]
    fn supervised_recovery_convicts_liars_across_the_fleet() {
        use rpr_proof::ProofMode;
        let s = small_store();
        let p = profile(&s);
        let opts = SupervisedRecoveryOptions {
            storm: vec![vec![StormFault::Lie]],
            seed: 7,
            cfg: SuperviseConfig {
                proof: ProofMode::Mandatory,
                ..SuperviseConfig::default()
            },
            ..SupervisedRecoveryOptions::default()
        };
        let out = s.recover_supervised(Failure::Node(NodeId(2)), &p, CostModel::free(), &opts);
        assert!(out.stripes_affected > 0);
        assert_eq!(
            out.completed, out.stripes_affected,
            "lie storms are survivable"
        );
        assert!(
            out.tally.proofs_emitted > 0,
            "mandatory mode records proofs"
        );
        assert!(
            out.tally.proofs_rejected > 0,
            "every stripe's lie is caught"
        );
        assert!(
            out.tally.accusations > 0,
            "liars are convicted, not timed out"
        );
        assert_eq!(out.ledgers.len(), out.completed, "one ledger per stripe");
        for (stripe, ledger) in &out.ledgers {
            let report = ledger.audit();
            assert!(
                report.first_dishonest().is_some(),
                "stripe {stripe}: the audit localizes the lie offline"
            );
        }
        // Off mode: same failure, no proof artifacts.
        let off = SupervisedRecoveryOptions {
            cfg: SuperviseConfig::default(),
            ..opts.clone()
        };
        let base = s.recover_supervised(Failure::Node(NodeId(2)), &p, CostModel::free(), &off);
        assert_eq!(base.tally.proofs_emitted, 0);
        assert_eq!(base.tally.accusations, 0);
        assert!(base.ledgers.is_empty());
    }

    #[test]
    fn fleet_recovery_surfaces_proof_counters() {
        use rpr_proof::ProofMode;
        let s = small_store();
        let p = profile(&s);
        let opts = FleetRecoveryOptions {
            storm: vec![vec![StormFault::Lie]],
            seed: 7,
            cfg: SuperviseConfig {
                proof: ProofMode::Mandatory,
                ..SuperviseConfig::default()
            },
            ..FleetRecoveryOptions::default()
        };
        let out = s.recover_fleet(
            Failure::Node(NodeId(2)),
            &p,
            CostModel::free(),
            &opts,
            rpr_obs::noop(),
        );
        assert_eq!(out.unrepairable, 0, "lie storms are survivable");
        assert!(out.tally.proofs_emitted > 0);
        assert!(
            out.tally.accusations > 0,
            "liars are convicted across the fleet"
        );
        assert_eq!(out.ledgers.len(), out.summary.repaired);
    }

    #[test]
    fn failure_on_empty_node_is_a_noop() {
        // Build a store so small that some node hosts nothing.
        let s = Store::build(StoreConfig {
            params: CodeParams::new(4, 2),
            racks: 8,
            nodes_per_rack: 8,
            stripes: 1,
            block_bytes: 1 << 20,
            preplace_p0: false,
            seed: 1,
        });
        let empty = s
            .topology()
            .nodes()
            .find(|&n| s.blocks_on_node(n).is_empty())
            .expect("64 nodes, 6 blocks: most are empty");
        let p = profile(&s);
        let out = s.recover(
            Failure::Node(empty),
            Scheme::Rpr,
            &p,
            CostModel::free(),
            &RecoveryOptions::default(),
        );
        assert_eq!(out.stripes_repaired, 0);
        assert_eq!(out.makespan, 0.0);
    }
}
