//! Byzantine-helper integration tests on the `rpr-netsim` backend: a
//! lying helper is convicted by proof evidence (never by timeout), the
//! health tracker's probe window governs re-admission, and the proof
//! plane's Off mode is bit-identical to a proof-free run.

use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_core::{supervise_injected, CostModel, RepairContext, SuperviseConfig, SuperviseOutcome};
use rpr_faults::{FaultStorm, HealthTracker, StormFault};
use rpr_obs::export::to_json_lines;
use rpr_obs::TraceRecorder;
use rpr_proof::{ProofMode, ProofSource};
use rpr_topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy};

struct Fx {
    codec: StripeCodec,
    topo: rpr_topology::Topology,
    placement: Placement,
    profile: BandwidthProfile,
}

impl Fx {
    fn new(n: usize, k: usize) -> Fx {
        let params = CodeParams::new(n, k);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::by_policy(PlacementPolicy::RprPreplaced, params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        Fx {
            codec: StripeCodec::new(params),
            topo,
            placement,
            profile,
        }
    }

    fn ctx(&self) -> RepairContext<'_> {
        RepairContext::new(
            &self.codec,
            &self.topo,
            &self.placement,
            vec![BlockId(1)],
            1 << 20,
            &self.profile,
            CostModel::free(),
        )
    }
}

fn lie_storm(seed: u64) -> FaultStorm {
    FaultStorm::new(seed).with_generation(vec![StormFault::Lie])
}

fn cfg(mode: ProofMode) -> SuperviseConfig {
    SuperviseConfig {
        proof: mode,
        ..SuperviseConfig::default()
    }
}

/// Extract the accused node from a resolved `lie op {i} (node {n})` site.
fn liar_node(out: &SuperviseOutcome) -> usize {
    let site = out
        .fault_sites
        .iter()
        .find(|s| s.starts_with("lie "))
        .expect("a lie site resolved");
    site.trim_end_matches(')')
        .rsplit("node ")
        .next()
        .and_then(|n| n.parse().ok())
        .expect("site names the lying node")
}

#[test]
fn mandatory_mode_convicts_the_liar_on_evidence_not_timeout() {
    let fx = Fx::new(6, 3);
    let mut tracker = HealthTracker::new(0.5, 0.4, 100);
    let rec = TraceRecorder::default();
    let out = supervise_injected(
        &fx.ctx(),
        &lie_storm(9),
        &cfg(ProofMode::Mandatory),
        &mut tracker,
        &rec,
    )
    .expect("mandatory repair completes past the liar");

    let liar = liar_node(&out);
    assert!(out.proofs_emitted > 0);
    assert!(
        out.proofs_rejected > 0,
        "the lie must fail proof verification"
    );
    assert_eq!(out.accusations, 1, "exactly one helper convicted");
    assert_eq!(
        out.retries, 0,
        "valid checksums: transport never retries a lie"
    );
    assert_eq!(out.replans, 1, "conviction forces one replan");
    assert!(
        tracker.is_quarantined(liar),
        "the liar sits in quarantine (probe window 100 generations)"
    );

    // The online conviction and the offline audit agree on the culprit.
    let audit = out.ledger.audit();
    let idx = audit.first_dishonest().expect("dishonest hop localized");
    assert_eq!(out.ledger.entries[idx].proof.node, liar);

    // Evidence events, in causal order; no transport-level failures.
    let names: Vec<&str> = rec.take_events().iter().map(|e| e.name()).collect();
    let rejected = names.iter().position(|n| *n == "proof_rejected");
    let accused = names.iter().position(|n| *n == "helper_accused");
    assert!(rejected.is_some() && accused.is_some() && rejected < accused);
    assert!(!names.contains(&"transfer_failed"));
    assert!(!names.contains(&"retry_scheduled"));
}

#[test]
fn accused_helper_turning_honest_is_readmitted_after_probe() {
    let fx = Fx::new(6, 3);
    // Probe after 3 generations: one lie repair ticks twice (replan +
    // completion), so the liar is still out when the next repair starts.
    let mut tracker = HealthTracker::new(0.5, 0.4, 3);
    let out = supervise_injected(
        &fx.ctx(),
        &lie_storm(9),
        &cfg(ProofMode::Mandatory),
        &mut tracker,
        &rpr_obs::NoopRecorder,
    )
    .expect("repair 1 completes");
    let liar = liar_node(&out);
    assert!(tracker.is_quarantined(liar), "still out after repair 1");

    // The helper turns honest: a fault-free repair on the same tracker.
    // Its plan must avoid the quarantined node, and its completion tick
    // closes the probe window.
    let rec = TraceRecorder::default();
    let clean = supervise_injected(
        &fx.ctx(),
        &FaultStorm::new(10),
        &cfg(ProofMode::Mandatory),
        &mut tracker,
        &rec,
    )
    .expect("repair 2 completes");
    assert_eq!(clean.accusations, 0);
    assert!(
        !tracker.is_quarantined(liar),
        "honest node re-admitted once the probe window elapses"
    );

    // Re-admitted for real: the next plan uses the full helper set again
    // (identical to an untracked plan), and the repair completes.
    let mut fresh = HealthTracker::with_defaults();
    let rec_probed = TraceRecorder::default();
    let rec_fresh = TraceRecorder::default();
    supervise_injected(
        &fx.ctx(),
        &FaultStorm::new(10),
        &cfg(ProofMode::Mandatory),
        &mut tracker,
        &rec_probed,
    )
    .expect("repair 3 completes");
    supervise_injected(
        &fx.ctx(),
        &FaultStorm::new(10),
        &cfg(ProofMode::Mandatory),
        &mut fresh,
        &rec_fresh,
    )
    .expect("untracked repair completes");
    assert_eq!(
        to_json_lines(&rec_probed.take_events()),
        to_json_lines(&rec_fresh.take_events()),
        "a probed-and-honest helper serves exactly like a never-accused one"
    );
}

#[test]
fn persistent_liar_is_reaccused_on_every_probe() {
    let fx = Fx::new(6, 3);
    // Default probe window (2): each lie repair ticks twice, so the liar
    // is on probation again when the next repair starts — and the same
    // seeded storm makes it lie again.
    let mut tracker = HealthTracker::with_defaults();
    let mut sites = Vec::new();
    for _ in 0..3 {
        let out = supervise_injected(
            &fx.ctx(),
            &lie_storm(9),
            &cfg(ProofMode::Mandatory),
            &mut tracker,
            &rpr_obs::NoopRecorder,
        )
        .expect("each repair completes past the liar");
        assert_eq!(out.accusations, 1, "re-accused on every probe");
        let liar = liar_node(&out);
        sites.push(liar);
        // Probation is not trust: the score never climbs past the
        // quarantine threshold, so one more offense re-quarantines.
        assert!(tracker.score(liar) <= 0.4 + 1e-12);
    }
    assert!(
        sites.windows(2).all(|w| w[0] == w[1]),
        "the same node lies every time: {sites:?}"
    );
}

#[test]
fn off_mode_is_bit_identical_and_advisory_only_adds_proof_events() {
    let fx = Fx::new(6, 3);
    let run = |mode: ProofMode| -> (SuperviseOutcome, String) {
        let mut tracker = HealthTracker::with_defaults();
        let rec = TraceRecorder::default();
        let out = supervise_injected(&fx.ctx(), &lie_storm(9), &cfg(mode), &mut tracker, &rec)
            .expect("repair completes");
        (out, to_json_lines(&rec.take_events()))
    };

    // Off mode: two same-seed runs are byte-identical and leave no
    // proof artifacts — the lie sails through undetected.
    let (off_a, trace_a) = run(ProofMode::Off);
    let (_, trace_b) = run(ProofMode::Off);
    assert_eq!(trace_a, trace_b);
    assert_eq!(off_a.proofs_emitted, 0);
    assert_eq!(off_a.proofs_rejected, 0);
    assert_eq!(off_a.accusations, 0);
    assert_eq!(off_a.ledger.entries.len(), 0);
    assert_eq!(off_a.replans, 0, "an undetected lie never forces a replan");

    // Advisory: detects (rejections recorded) but does not alter control
    // flow — stripping the proof vocabulary recovers the Off trace.
    let (adv, trace_adv) = run(ProofMode::Advisory);
    assert!(adv.proofs_rejected > 0);
    assert_eq!(adv.accusations, 0);
    assert_eq!(adv.replans, off_a.replans);
    assert_eq!(adv.generations.len(), off_a.generations.len());
    let stripped: String = trace_adv
        .lines()
        .filter(|l| !l.contains("\"type\":\"proof_"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(stripped, trace_a);
}

#[test]
fn pool_reserves_carry_provenance_and_audit_clean() {
    // A Mandatory lie conviction replans with the same failure set, so
    // the replacement plan re-serves banked partials from the pool.
    // Every re-serve proof must name its origin — the (generation, op)
    // that produced the banked partial — and the cross-generation edge
    // must resolve in the offline audit: no wire failures, and the only
    // dishonest entries belong to the original liar. (Before pool
    // provenance, re-serve proofs had no inputs at all, so any taint a
    // replayed partial carried convicted the innocent re-serving node.)
    let fx = Fx::new(6, 3);
    let mut reserves_seen = 0usize;
    for seed in 0..8u64 {
        let mut tracker = HealthTracker::with_defaults();
        let out = supervise_injected(
            &fx.ctx(),
            &lie_storm(seed),
            &cfg(ProofMode::Mandatory),
            &mut tracker,
            rpr_obs::noop(),
        )
        .expect("mandatory repair completes past the liar");
        let liar = liar_node(&out);
        let audit = out.ledger.audit();
        assert!(audit.binding_failures.is_empty(), "seed {seed}");
        assert!(
            audit.wire_failures.is_empty(),
            "seed {seed}: provenance edges must resolve across generations"
        );
        for (i, e) in out.ledger.entries.iter().enumerate() {
            if e.proof.algorithm != "pool" {
                continue;
            }
            reserves_seen += 1;
            let [(ProofSource::Pooled { gen, op }, _)] = e.proof.inputs.as_slice() else {
                panic!("seed {seed}: re-serve proof must name exactly one pool origin");
            };
            assert!(
                *gen < e.gen,
                "seed {seed}: the origin was banked by an earlier generation"
            );
            // The named origin exists in the ledger and produced exactly
            // the bytes the re-serve forwards.
            let origin = out
                .ledger
                .entries
                .iter()
                .find(|p| p.gen == *gen && p.proof.op == *op)
                .expect("origin entry present");
            assert_eq!(origin.proof.output_hash, e.proof.output_hash, "seed {seed}");
            assert!(
                !audit.dishonest.contains(&i),
                "seed {seed}: an honest re-serve is never blamed"
            );
        }
        for &i in &audit.dishonest {
            assert_eq!(
                out.ledger.entries[i].proof.node, liar,
                "seed {seed}: only the original liar is dishonest"
            );
        }
        // The ledger round-trips through JSON with provenance intact.
        let reparsed =
            rpr_proof::ProofLedger::parse(&out.ledger.to_json_lines()).expect("ledger reparses");
        assert_eq!(reparsed, out.ledger);
    }
    assert!(reserves_seen > 0, "no seed re-served a banked partial");
}
