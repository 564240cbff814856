//! Repair-supervisor acceptance suite (sim side, plus the properties
//! both backends inherit from the shared loop).
//!
//! The headline guarantees (see `docs/ROBUSTNESS.md`):
//! * a seeded 3-fault storm — helper crash, crash of its replacement,
//!   then a transient timeout — completes at (6,3) via multi-crash
//!   replanning with pooled partial reuse;
//! * the identical seed replays bit-deterministically (traces diff
//!   byte-for-byte clean);
//! * a hedged repair with one seeded straggler beats the unhedged
//!   makespan of the same seed (regression pin);
//! * the replan invariants hold across seeded chaos storms: reused
//!   partials never exceed the pool banked by prior generations, and
//!   replacement plans still satisfy the decode equation.

use rpr::codec::{BlockId, CodeParams, StripeCodec};
use rpr::core::{
    plan_with_pool, supervise_injected, CostModel, RepairContext, RepairPlanner, RprPlanner,
    SuperviseConfig, Tier,
};
use rpr::exec::execute_supervised;
use rpr::faults::{ChaosProcess, CrashSite, FaultStorm, HealthTracker, RetryPolicy, StormFault};
use rpr::obs::{export, Event, TraceRecorder};
use rpr::topology::{cluster_for, BandwidthProfile, Placement, RackId};
use rpr_proof::{ProofMode, ProofSource};
use std::collections::HashMap;

struct World {
    codec: StripeCodec,
    topo: rpr::topology::Topology,
    placement: Placement,
    profile: BandwidthProfile,
    block: u64,
}

impl World {
    fn new(n: usize, k: usize, block: u64) -> World {
        let params = CodeParams::new(n, k);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
        World {
            codec: StripeCodec::new(params),
            topo,
            placement,
            profile,
            block,
        }
    }

    /// An encoded stripe of real (patterned) bytes for the exec backend.
    fn stripe(&self) -> Vec<Vec<u8>> {
        let n = self.codec.params().n as u8;
        let data: Vec<Vec<u8>> = (0..n)
            .map(|i| vec![i.wrapping_mul(37) ^ 0x5a; self.block as usize])
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        self.codec.encode_stripe(&refs)
    }

    fn ctx(&self, failed: Vec<BlockId>) -> RepairContext<'_> {
        RepairContext::new(
            &self.codec,
            &self.topo,
            &self.placement,
            failed,
            self.block,
            &self.profile,
            CostModel::free(),
        )
    }
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        backoff: 0.01,
        multiplier: 2.0,
    }
}

fn three_fault_storm(seed: u64) -> FaultStorm {
    FaultStorm::new(seed)
        .with_generation(vec![StormFault::Crash(CrashSite::SeedPick)])
        .with_generation(vec![StormFault::Crash(CrashSite::NewHelper)])
        .with_generation(vec![StormFault::Timeout])
}

fn run_storm(
    world: &World,
    storm: &FaultStorm,
    cfg: &SuperviseConfig,
) -> (rpr::core::SuperviseOutcome, String) {
    let ctx = world.ctx(vec![BlockId(1)]);
    let rec = TraceRecorder::with_capacity(16384);
    let mut tracker = HealthTracker::with_defaults();
    let outcome = supervise_injected(&ctx, storm, cfg, &mut tracker, &rec)
        .expect("supervised repair completes");
    let trace = export::to_json_lines(&rec.take_events());
    (outcome, trace)
}

#[test]
fn three_fault_storm_completes_at_6_3() {
    let world = World::new(6, 3, 1 << 20);
    let storm = three_fault_storm(77);
    let cfg = SuperviseConfig {
        policy: fast_policy(),
        ..SuperviseConfig::default()
    };
    let (outcome, _) = run_storm(&world, &storm, &cfg);

    assert_eq!(outcome.replans, 2, "two crashes, two replans");
    assert_eq!(outcome.generations.len(), 3);
    assert!(outcome.generations[0].crashed.is_some());
    assert!(outcome.generations[1].crashed.is_some());
    assert!(outcome.generations[2].crashed.is_none());
    assert!(outcome.retries >= 1, "the timeout fired");
    assert!(
        outcome.repair_time > outcome.clean_time,
        "faults cost time: {} vs {}",
        outcome.repair_time,
        outcome.clean_time
    );
    assert_eq!(outcome.final_tier, Tier::Full);
    // The second crash hit the replacement helper: the fault resolved
    // to a node that was not a cross sender of generation 0's plan.
    assert!(outcome
        .fault_sites
        .iter()
        .any(|s| s.starts_with("replacement-crash")));
}

#[test]
fn identical_seed_replays_bit_deterministically() {
    let world = World::new(6, 3, 1 << 20);
    let cfg = SuperviseConfig {
        policy: fast_policy(),
        hedge: Some(2.0),
        deadline: Some(500.0),
        ..SuperviseConfig::default()
    };
    for chunked in [false, true] {
        let storm = three_fault_storm(4242);
        let run = |storm: &FaultStorm| {
            let mut ctx = world.ctx(vec![BlockId(1)]);
            if chunked {
                ctx = ctx.with_chunk_size(1 << 18);
            }
            let rec = TraceRecorder::with_capacity(16384);
            let mut tracker = HealthTracker::with_defaults();
            let outcome =
                supervise_injected(&ctx, storm, &cfg, &mut tracker, &rec).expect("completes");
            (
                outcome.repair_time,
                export::to_json_lines(&rec.take_events()),
            )
        };
        let (t1, trace1) = run(&storm);
        let (t2, trace2) = run(&storm);
        assert_eq!(t1.to_bits(), t2.to_bits(), "chunked={chunked}");
        assert_eq!(trace1, trace2, "trace replay must be byte-identical");
    }
}

#[test]
fn hedged_repair_beats_unhedged_with_seeded_straggler() {
    let world = World::new(6, 3, 8 << 20);
    // One seeded straggler: a helper's links run at 10% for the whole
    // repair. No crashes — hedging only arms in crash-free generations.
    let storm = FaultStorm::new(3).with_generation(vec![StormFault::Slow { factor: 0.1 }]);
    let base = SuperviseConfig {
        policy: fast_policy(),
        ..SuperviseConfig::default()
    };
    let hedged_cfg = SuperviseConfig {
        hedge: Some(2.0),
        ..base.clone()
    };
    let (unhedged, _) = run_storm(&world, &storm, &base);
    let (hedged, _) = run_storm(&world, &storm, &hedged_cfg);

    assert_eq!(unhedged.hedges, 0);
    assert!(hedged.hedges >= 1, "straggler must trigger a hedge");
    assert!(hedged.hedge_wins >= 1, "the alternate helper must win");
    assert!(
        hedged.repair_time < unhedged.repair_time,
        "hedged {} must beat unhedged {}",
        hedged.repair_time,
        unhedged.repair_time
    );
    // Regression pin: both makespans are deterministic for this seed.
    let (hedged2, _) = run_storm(&world, &storm, &hedged_cfg);
    assert_eq!(hedged.repair_time.to_bits(), hedged2.repair_time.to_bits());
}

#[test]
fn replan_invariants_hold_across_seeded_chaos_storms() {
    let world = World::new(6, 3, 1 << 20);
    let cfg = SuperviseConfig {
        policy: fast_policy(),
        ..SuperviseConfig::default()
    };
    let mut completed_runs = 0usize;
    for seed in 0..24u64 {
        let storm = ChaosProcess::new(seed).storm();
        let ctx = world.ctx(vec![BlockId(1)]);
        let rec = TraceRecorder::with_capacity(16384);
        let mut tracker = HealthTracker::with_defaults();
        let Ok(outcome) = supervise_injected(&ctx, &storm, &cfg, &mut tracker, &rec) else {
            // Some storms legitimately exceed the retry budget or k.
            continue;
        };
        completed_runs += 1;
        for (g, gen) in outcome.generations.iter().enumerate() {
            assert!(
                gen.reused_ops <= gen.pool_before,
                "seed {seed} gen {g}: reused {} partials but only {} were banked",
                gen.reused_ops,
                gen.pool_before
            );
            assert!(
                gen.completed_ops <= gen.executed_ops,
                "seed {seed} gen {g}: completed more ops than it executed"
            );
        }
        assert_eq!(outcome.generations[0].pool_before, 0);
        assert_eq!(
            outcome.replans,
            outcome.generations.len() - 1,
            "seed {seed}: every generation after the first is a replan"
        );
    }
    assert!(
        completed_runs >= 16,
        "most chaos storms must complete ({completed_runs}/24 did)"
    );
}

#[test]
fn pool_reuse_preserves_the_decode_equation() {
    let world = World::new(6, 3, 1 << 20);
    let ctx = world.ctx(vec![BlockId(1)]);
    let plan = RprPlanner::new().plan(&ctx);
    plan.validate(&world.codec, &world.topo, &world.placement)
        .expect("base plan valid");

    // Bank every op of the original plan, then replan around a crashed
    // helper with the pool available.
    let vecs = plan.symbolic_vectors();
    let crashed = world.placement.node_of(BlockId(3));
    let mut pool: HashMap<(usize, Vec<u8>), ()> = HashMap::new();
    for (i, op) in plan.ops.iter().enumerate() {
        let loc = op.output_location();
        if loc != crashed {
            pool.insert((loc.0, vecs[i].clone()), ());
        }
    }
    let mut ctx2 = world.ctx(vec![BlockId(1), BlockId(3)]);
    ctx2.recovery_node_override = Some(plan.recovery);
    ctx2.recovery_override = Some(world.topo.rack_of(plan.recovery));
    let rep = plan_with_pool(&ctx2, &pool, Tier::Full).expect("replan builds");

    // The replacement plan still solves the decode equation…
    rep.plan
        .validate(&world.codec, &world.topo, &world.placement)
        .expect("replacement plan valid");
    // …and every reused partial is byte-identical by construction: same
    // node, same symbolic coefficient vector as the new plan demands.
    let vecs2 = rep.plan.symbolic_vectors();
    let mut reused = 0usize;
    for (i, key) in rep.reused.iter().enumerate() {
        let Some((node, vec)) = key else { continue };
        reused += 1;
        assert_eq!(*node, rep.plan.ops[i].output_location().0);
        assert_eq!(*vec, vecs2[i]);
        assert!(
            pool.contains_key(&(*node, vec.clone())),
            "reused key must come from the pool"
        );
        assert!(!rep.lowered[i], "reused ops never re-execute");
    }
    assert!(reused > 0, "a fully-banked pool must be reused");
    assert!(reused <= pool.len());
}

/// Cross-send durations of generation 1, split into the slow node's and
/// everyone else's.
fn generation_1_cross_sends(events: &[Event], slow: usize) -> (Vec<f64>, Vec<f64>) {
    let mut sends = (Vec::new(), Vec::new());
    for e in events {
        if let Event::TransferDone { xfer, start, end } = e {
            if xfer.cross && xfer.label.starts_with("p1op") {
                let side = if xfer.src_node == slow {
                    &mut sends.0
                } else {
                    &mut sends.1
                };
                side.push(end - start);
            }
        }
    }
    sends
}

#[test]
fn slow_links_stay_slow_across_a_replan_on_both_backends() {
    // A derate and a crash in the same bucket: the crash forces a replan,
    // and the derated helper (a different node at this seed) still serves
    // a cross send in generation 1. Degraded hardware does not heal when
    // the supervisor replans around something else, on either substrate.
    let world = World::new(6, 3, 256 << 10);
    let storm = FaultStorm::new(8).with_generation(vec![
        StormFault::Slow { factor: 0.25 },
        StormFault::Crash(CrashSite::SeedPick),
    ]);
    let cfg = SuperviseConfig {
        policy: fast_policy(),
        ..SuperviseConfig::default()
    };
    let slow_node = |sites: &[String]| -> usize {
        let site = sites
            .iter()
            .find(|s| s.starts_with("slow node "))
            .expect("slow resolved");
        site.split_whitespace()
            .nth(2)
            .and_then(|n| n.parse().ok())
            .expect("node index")
    };

    // On the virtual clock durations are exact: compare against a peer.
    let ctx = world.ctx(vec![BlockId(1)]);
    let rec = TraceRecorder::with_capacity(16384);
    let sim = supervise_injected(
        &ctx,
        &storm,
        &cfg,
        &mut HealthTracker::with_defaults(),
        &rec,
    )
    .expect("sim completes");
    let (slow, peers) = generation_1_cross_sends(&rec.take_events(), slow_node(&sim.fault_sites));
    assert!(
        !slow.is_empty(),
        "sim: the derated helper must serve generation 1"
    );
    assert!(
        !peers.is_empty(),
        "sim: generation 1 needs a full-rate peer"
    );
    let fastest_slow = slow.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest_peer = peers.iter().copied().fold(0.0, f64::max);
    assert!(
        fastest_slow > 2.0 * slowest_peer,
        "sim: x0.25 derate must still show in generation 1 \
         ({fastest_slow} s vs full-rate {slowest_peer} s)"
    );

    // On the wall clock a peer's duration is noise-bound, so assert the
    // derated shaper's own floor instead: a token bucket passes at most
    // what it holds plus `rate x dt` in `dt`. The first 64 KiB shaper
    // granule is admitted before `start` is stamped, and the bucket holds
    // at most its burst or one granule, whichever is larger. A healed
    // full-rate link undercuts this floor; scheduler noise only exceeds it.
    let stripe = world.stripe();
    let rec = TraceRecorder::with_capacity(16384);
    let exec = execute_supervised(
        &ctx,
        &stripe,
        &rec,
        &storm,
        &cfg,
        &mut HealthTracker::with_defaults(),
    )
    .expect("exec completes");
    assert!(exec.report.verified);
    assert_eq!(
        exec.fault_sites, sim.fault_sites,
        "both backends resolve the same sites"
    );
    let (slow, _) = generation_1_cross_sends(&rec.take_events(), slow_node(&exec.fault_sites));
    assert!(
        !slow.is_empty(),
        "exec: the derated helper must serve generation 1"
    );
    let rate = 0.25 * world.profile.rate(RackId(0), RackId(1));
    let granule = (64 << 10) as f64;
    let held = rpr::exec::TokenBucket::new(rate).burst().max(granule);
    let floor = (world.block as f64 - granule - held) / rate;
    for took in slow {
        assert!(
            took >= floor,
            "exec: x0.25 derate must still show in generation 1 ({took} s, shaper floor {floor} s)"
        );
    }
}

#[test]
fn exec_pool_reserves_carry_provenance_back_to_the_liar() {
    // Advisory proofs, a lie and a crash in one bucket: the lied partial
    // chain finishes on surviving branches, is banked tainted (Advisory
    // records, never acts), and generation 1 re-serves it from the pool.
    // The re-serve's proof must name the (generation, op) that banked it,
    // so the offline audit walks the taint back to the lying sender
    // instead of convicting the innocent pool host.
    let world = World::new(6, 3, 32 << 10);
    let cfg = SuperviseConfig {
        policy: fast_policy(),
        proof: ProofMode::Advisory,
        ..SuperviseConfig::default()
    };
    let stripe = world.stripe();
    let ctx = world.ctx(vec![BlockId(1)]);
    let storm = FaultStorm::new(0).with_generation(vec![
        StormFault::Lie,
        StormFault::Crash(CrashSite::SeedPick),
    ]);
    let rec = rpr::obs::noop();
    let out = execute_supervised(
        &ctx,
        &stripe,
        rec,
        &storm,
        &cfg,
        &mut HealthTracker::with_defaults(),
    )
    .expect("advisory repair completes");
    assert_eq!(out.accusations, 0, "Advisory never accuses online");

    let liar: usize = out
        .fault_sites
        .iter()
        .find(|s| s.starts_with("lie "))
        .and_then(|s| s.trim_end_matches(')').rsplit("node ").next())
        .and_then(|n| n.parse().ok())
        .expect("site names the lying node");
    let tainted_reserves: Vec<_> = out
        .ledger
        .entries
        .iter()
        .filter(|e| e.proof.algorithm == "pool" && !e.proof.honest_output())
        .collect();
    assert!(
        !tainted_reserves.is_empty(),
        "a tainted partial must be re-served"
    );
    for e in &tainted_reserves {
        assert_ne!(e.proof.node, liar, "the pool host is not the liar");
        assert!(
            matches!(
                e.proof.inputs[..],
                [(ProofSource::Pooled { gen: 0, .. }, _)]
            ),
            "re-serve names its generation-0 producer: {:?}",
            e.proof.inputs
        );
    }
    let audit = out.ledger.audit();
    assert!(
        audit.wire_failures.is_empty(),
        "every provenance edge resolves"
    );
    assert!(!audit.dishonest.is_empty(), "the lie is localized");
    for &i in &audit.dishonest {
        assert_eq!(
            out.ledger.entries[i].proof.node, liar,
            "entry {i} blames the wrong node"
        );
    }
}

#[test]
fn chained_lies_are_accused_alike_on_both_backends_and_by_the_audit() {
    // Two lies in one Mandatory generation, at seeds where the second
    // liar forwards or folds the first liar's output. Its input is already
    // wrong, so nothing it holds shows that it lied too: the executor,
    // the simulator and the offline audit of either ledger all convict
    // the first liar alone.
    let cfg = SuperviseConfig {
        policy: fast_policy(),
        proof: ProofMode::Mandatory,
        ..SuperviseConfig::default()
    };
    let localized = |ledger: &rpr_proof::ProofLedger| {
        let audit = ledger.audit();
        let mut nodes: Vec<usize> = audit
            .dishonest
            .iter()
            .map(|&i| ledger.entries[i].proof.node)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    };
    for ((n, k), seed) in [((6, 3), 6), ((8, 4), 0)] {
        let mut world = World::new(n, k, 64 << 10);
        world.profile = BandwidthProfile::uniform(world.topo.rack_count(), 4.0e9, 4.0e9);
        let ctx = world.ctx(vec![BlockId(1)]);
        let storm = FaultStorm::new(seed).with_generation(vec![StormFault::Lie, StormFault::Lie]);
        let sim = supervise_injected(
            &ctx,
            &storm,
            &cfg,
            &mut HealthTracker::with_defaults(),
            rpr::obs::noop(),
        )
        .expect("sim completes");
        let exec = execute_supervised(
            &ctx,
            &world.stripe(),
            rpr::obs::noop(),
            &storm,
            &cfg,
            &mut HealthTracker::with_defaults(),
        )
        .expect("exec completes");
        let case = format!("({n},{k}) seed {seed}: {:?}", sim.fault_sites);
        assert!(exec.report.verified, "{case}");
        assert_eq!(exec.fault_sites, sim.fault_sites, "{case}");
        let liars: std::collections::BTreeSet<_> = sim
            .fault_sites
            .iter()
            .filter_map(|s| s.strip_prefix("lie "))
            .map(|s| s.rsplit("node ").next())
            .collect();
        assert_eq!(liars.len(), 2, "two different helpers lie: {case}");
        assert_eq!(sim.accusations, exec.accusations, "{case}");
        assert_eq!(
            sim.accusations,
            localized(&sim.ledger),
            "sim vs its audit, {case}"
        );
        assert_eq!(
            exec.accusations,
            localized(&exec.ledger),
            "exec vs its audit, {case}"
        );
        assert_eq!(
            sim.accusations, 1,
            "only the first liar is provable, {case}"
        );
    }
}
