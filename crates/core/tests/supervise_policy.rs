//! The supervision loop's policy, tested on a scripted backend: no
//! simulator, no threads, no bytes. The fake replays a list of generation
//! endings, so every assertion here is about [`supervise`] alone — the
//! tier ladder, the deadline cap, pool hygiene, the failure budget and the
//! generation cap.

use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_core::{
    supervise, Baseline, CostModel, Ending, Evidence, Generation, GenerationRun, Op, RepairBackend,
    RepairContext, RepairPlan, SuperviseConfig, SuperviseError, SuperviseOutcome, Tier,
};
use rpr_faults::{FaultStorm, HealthTracker};
use rpr_obs::Recorder;
use rpr_proof::{ProofKey, ProofMode};
use rpr_topology::{cluster_for, BandwidthProfile, NodeId, Placement};

#[derive(Clone, Copy)]
enum Step {
    /// Every op finishes honestly.
    Complete,
    /// The first live cross-rack helper dies; every op hosted elsewhere
    /// finishes.
    Crash,
    /// Every op finishes, but the evidence convicts the first helper.
    Lie,
}

/// Replays `script` (then its last step forever), ten clock seconds per
/// generation, and logs what each generation was handed.
struct Scripted {
    script: Vec<Step>,
    clock: f64,
    /// Per generation: hosts of the pool-served ops.
    served_from: Vec<Vec<usize>>,
    /// Nodes that crashed or were convicted, in order.
    condemned: Vec<usize>,
}

impl Scripted {
    fn new(script: &[Step]) -> Scripted {
        Scripted {
            script: script.to_vec(),
            clock: 0.0,
            served_from: Vec::new(),
            condemned: Vec::new(),
        }
    }

    fn step(&self, g: usize) -> Step {
        self.script[g.min(self.script.len() - 1)]
    }
}

/// The victim of a scripted crash or conviction: a cross-rack sender that
/// hosts a surviving block — preferably a rack aggregator, whose partial
/// sums are what the pool would be tempted to keep.
fn first_helper(gen: &Generation<'_, '_, ()>) -> NodeId {
    let live = |n: &NodeId| {
        let block = gen.ctx.placement.block_on(*n);
        *n != gen.plan.recovery && block.is_some_and(|b| !gen.ctx.failed.contains(&b))
    };
    let aggregates = |n: &NodeId| gen.plan.ops.iter().any(|op| op.output_location() == *n);
    let senders = gen.plan.cross_senders(gen.ctx.topo);
    let helpers: Vec<NodeId> = senders.into_iter().map(NodeId).filter(live).collect();
    *helpers
        .iter()
        .find(|n| aggregates(n))
        .unwrap_or(&helpers[0])
}

impl RepairBackend for Scripted {
    type Partial = ();

    fn begin(&mut self, _: &RepairPlan, _: &RepairContext<'_>) -> Baseline {
        Baseline::default()
    }

    fn run_generation(
        &mut self,
        gen: &Generation<'_, '_, ()>,
        _: &dyn Recorder,
    ) -> GenerationRun<()> {
        let ops = &gen.plan.ops;
        let hosts = (0..ops.len()).filter(|&i| gen.reused[i].is_some());
        self.served_from
            .push(hosts.map(|i| ops[i].output_location().0).collect());
        let crashed = matches!(self.step(gen.index), Step::Crash).then(|| first_helper(gen));
        self.condemned.extend(crashed.map(|n| n.0));
        self.clock += 10.0;
        GenerationRun {
            ending: crashed.map_or(Ending::Completed, Ending::Crashed),
            started: 0.0,
            now: self.clock,
            partials: (0..ops.len())
                .map(|i| {
                    (gen.lowered[i] && Some(ops[i].output_location()) != crashed).then_some(())
                })
                .collect(),
            spans: vec![(0.0, 1.0); ops.len()],
            retries: 0,
            traffic: (0, 0),
            splice: None,
        }
    }

    fn prove(
        &mut self,
        gen: &Generation<'_, '_, ()>,
        _: &GenerationRun<()>,
        _: ProofKey,
    ) -> Evidence {
        let mut evidence = Evidence::default();
        if matches!(self.step(gen.index), Step::Lie) {
            let liar = first_helper(gen).0;
            // Everything the liar sent is tainted and must not be banked.
            let sent_by_liar = |op: &Op| matches!(op, Op::Send { from, .. } if from.0 == liar);
            evidence.tainted = (0..gen.plan.ops.len())
                .filter(|&i| sent_by_liar(&gen.plan.ops[i]))
                .collect();
            evidence.dishonest = vec![liar];
            self.condemned.push(liar);
        }
        evidence
    }

    fn pause(&mut self, delay: f64) {
        self.clock += delay;
    }
}

fn run(
    (n, k): (usize, usize),
    script: &[Step],
    cfg: &SuperviseConfig,
) -> (Result<SuperviseOutcome, SuperviseError>, Scripted) {
    let params = CodeParams::new(n, k);
    let codec = StripeCodec::new(params);
    let topo = cluster_for(params, 1, 1);
    let placement = Placement::rpr_preplaced(params, &topo);
    let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
    let failed = vec![BlockId(1)];
    let ctx = RepairContext::new(
        &codec,
        &topo,
        &placement,
        failed,
        1 << 20,
        &profile,
        CostModel::free(),
    );
    let mut backend = Scripted::new(script);
    let mut tracker = HealthTracker::with_defaults();
    let storm = FaultStorm::new(1);
    let out = supervise(
        &mut backend,
        &ctx,
        None,
        &storm,
        cfg,
        &mut tracker,
        rpr_obs::noop(),
    );
    (out, backend)
}

fn tiers(out: &SuperviseOutcome) -> Vec<Tier> {
    out.generations.iter().map(|g| g.tier).collect()
}

#[test]
fn tier_descends_exactly_one_and_two_replans_past_the_budget() {
    use Step::{Complete, Crash};
    let cfg = SuperviseConfig {
        max_replans: 1,
        ..SuperviseConfig::default()
    };
    let (out, _) = run((8, 4), &[Crash, Crash, Crash, Complete], &cfg);
    let out = out.expect("three crashes fit k = 4");
    assert_eq!(out.replans, 3);
    assert_eq!(
        tiers(&out),
        [
            Tier::Full,
            Tier::Full,
            Tier::Traditional,
            Tier::DegradedRead
        ]
    );
    assert_eq!(out.final_tier, Tier::DegradedRead);
}

#[test]
fn a_deadline_breach_alone_caps_at_traditional() {
    use Step::{Complete, Crash};
    // Ten seconds per generation against a five-second deadline: breached
    // at the first crash, with the replan budget (4) never exhausted.
    let cfg = SuperviseConfig {
        deadline: Some(5.0),
        ..SuperviseConfig::default()
    };
    let (out, _) = run((8, 4), &[Crash, Crash, Crash, Complete], &cfg);
    let out = out.expect("completes");
    assert!(out.deadline_hit);
    assert_eq!(
        tiers(&out),
        [
            Tier::Full,
            Tier::Traditional,
            Tier::Traditional,
            Tier::Traditional
        ]
    );
}

#[test]
fn the_pool_never_serves_from_a_dead_or_accused_host() {
    use Step::{Complete, Crash, Lie};
    let cfg = SuperviseConfig {
        proof: ProofMode::Mandatory,
        ..SuperviseConfig::default()
    };
    // At (4,2) the crash after the conviction leaves too few helpers to
    // keep avoiding the convict, so generation 2 plans through it again —
    // and must not find its purged partials waiting in the pool.
    let (out, backend) = run((4, 2), &[Lie, Crash, Complete], &cfg);
    let out = out.expect("completes");
    assert_eq!((out.replans, out.accusations), (2, 1));
    assert!(out.reused_ops > 0, "the script must exercise the pool");
    for (g, hosts) in backend.served_from.iter().enumerate() {
        // Everything condemned so far happened in generations before g.
        let condemned = &backend.condemned[..g.min(backend.condemned.len())];
        assert!(
            hosts.iter().all(|h| !condemned.contains(h)),
            "generation {g} served from {hosts:?}, condemned {condemned:?}"
        );
    }
}

#[test]
fn more_than_k_failures_is_an_error() {
    let (out, backend) = run((6, 3), &[Step::Crash], &SuperviseConfig::default());
    let err = out.expect_err("1 lost block + 3 crashes exceed k = 3");
    assert!(
        matches!(&err, SuperviseError::Unrecoverable(m) if m.contains("exceed k = 3")),
        "{err:?}"
    );
    assert_eq!(backend.served_from.len(), 3, "gave up at the third crash");
}

#[test]
fn the_generation_cap_trips_instead_of_spinning() {
    // A helper convicted in every generation: no failure ever accrues, so
    // nothing but the cap ends the repair.
    let cfg = SuperviseConfig {
        proof: ProofMode::Mandatory,
        ..SuperviseConfig::default()
    };
    let (out, backend) = run((6, 3), &[Step::Lie], &cfg);
    let err = out.expect_err("never completes");
    assert!(
        matches!(&err, SuperviseError::Unrecoverable(m) if m.contains("exceeded")),
        "{err:?}"
    );
    // Empty storm, max_replans 4: the cap is 0 + 4 + 4, generations 0..=8.
    assert_eq!(backend.served_from.len(), 9);
}
