//! Fleet-scheduler properties and the cross-backend pin.
//!
//! The scheduler's contract, checked end-to-end through the `rpr`
//! facade:
//!
//! * **no priority inversion** — under contention, no level-`z−1` stripe
//!   is ever admitted before a queued level-`z` stripe;
//! * **no oversubscription** — the arbiter's peak reservation never
//!   exceeds any link's capacity, and every reservation is released;
//! * **conservation** — every enqueued stripe is repaired, exactly once;
//! * **determinism** — two same-seed runs produce byte-identical
//!   summaries and records;
//! * **cross-backend pin** — `Store::recover_fleet` with arbitration off
//!   reproduces per-stripe `supervise_injected` results stripe-for-stripe,
//!   bitwise;
//! * **shared-tracker pin** — `Store::recover_supervised` under crash and
//!   lie storms equals sequential `supervise_injected` calls that share one
//!   `HealthTracker` in stripe order, bitwise.

use rpr::codec::CodeParams;
use rpr::core::{supervise_injected, CostModel, RepairContext, SuperviseConfig, Tier};
use rpr::faults::{CrashSite, HealthTracker, StormFault};
use rpr::netsim::Network;
use rpr::obs::NoopRecorder;
use rpr::sched::{
    run_synthetic_fleet, schedule_fleet, stripe_storm, BandwidthArbiter, Demand, FleetJob,
    FleetSpec,
};
use rpr::store::{Failure, FleetRecoveryOptions, Store, StoreConfig, SupervisedRecoveryOptions};
use rpr::topology::{BandwidthProfile, NodeId, Topology};
use rpr_proof::ProofMode;

/// A fleet on exactly `q` racks: every stripe shares the same physical
/// racks, so cross-rack links are heavily contended and admission has to
/// actually arbitrate.
fn contended_spec() -> FleetSpec {
    FleetSpec {
        params: CodeParams::new(4, 2),
        racks: 3,
        nodes_per_rack: 4,
        stripes: 240,
        block_bytes: 16 << 20,
        seed: 2024,
        level_weights: vec![0.6, 0.4],
        ..FleetSpec::default()
    }
}

#[test]
fn no_priority_inversion_under_contention() {
    let out = run_synthetic_fleet(&contended_spec(), &NoopRecorder);
    assert!(
        out.summary.waited > 0,
        "spec must actually contend to exercise priorities"
    );
    let admit = |level: usize| {
        out.records
            .iter()
            .filter(move |r| r.level == level)
            .map(|r| r.admitted)
    };
    let max_l2 = admit(2).fold(f64::NEG_INFINITY, f64::max);
    let min_l1 = admit(1).fold(f64::INFINITY, f64::min);
    assert!(
        admit(2).count() > 0 && admit(1).count() > 0,
        "both levels must occur"
    );
    assert!(
        max_l2 <= min_l1 + 1e-9,
        "a 2-failure stripe admitted at {max_l2} after a 1-failure stripe at {min_l1}"
    );
}

#[test]
fn arbiter_never_oversubscribes_any_link() {
    let out = run_synthetic_fleet(&contended_spec(), &NoopRecorder);
    assert!(
        out.max_utilization <= 1.0 + 1e-6,
        "peak link utilization {} exceeds capacity",
        out.max_utilization
    );
    assert!(
        out.max_utilization > 0.5,
        "the contended spec should load its links, got {}",
        out.max_utilization
    );
}

#[test]
fn every_enqueued_stripe_is_repaired_exactly_once() {
    let out = run_synthetic_fleet(&contended_spec(), &NoopRecorder);
    assert_eq!(out.summary.stripes, 240);
    assert_eq!(out.summary.repaired, 240, "repaired == enqueued");
    assert_eq!(out.records.len(), 240);
    let mut seen: Vec<u32> = out.records.iter().map(|r| r.stripe).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 240, "no stripe repaired twice");
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let a = run_synthetic_fleet(&contended_spec(), &NoopRecorder);
    let b = run_synthetic_fleet(&contended_spec(), &NoopRecorder);
    assert_eq!(a.summary.to_json(), b.summary.to_json());
    assert_eq!(a.records, b.records);
    assert_eq!(
        (a.classes, a.tally, a.unrepairable),
        (b.classes, b.tally, b.unrepairable)
    );
}

#[test]
fn randomized_backlog_conserves_reservations() {
    // A seeded random backlog of jobs with random link demands: after the
    // drain, the arbiter must be empty and never have over-committed.
    let net = Network::new(Topology::uniform(4, 3), BandwidthProfile::simics_default(4));
    let mut arb = BandwidthArbiter::new(&net);
    let cross = net.cross_class_rate(NodeId(0));
    let mut rng = 0x0123_4567_89AB_CDEFu64;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let jobs: Vec<FleetJob> = (0..200)
        .map(|i| FleetJob {
            stripe: i,
            level: (next() % 3 + 1) as usize,
            duration: (next() % 50 + 1) as f64 / 10.0,
            arrival: 0.0,
            cross_bytes: next() % 1000,
            inner_bytes: next() % 1000,
        })
        .collect();
    let demands: Vec<Demand> = (0..200)
        .map(|_| {
            let node = (next() % 12) as usize;
            let rate = (next() % 100 + 1) as f64 / 100.0 * cross;
            Demand {
                entries: vec![(BandwidthArbiter::uplink(node), rate)],
            }
        })
        .collect();
    let out = schedule_fleet(&jobs, &mut |i| demands[i].clone(), &mut arb, &NoopRecorder);
    assert_eq!(out.records.len(), jobs.len(), "total repaired == enqueued");
    assert!(
        arb.total_reserved().abs() < 1e-6,
        "all reservations released, residue {}",
        arb.total_reserved()
    );
    assert!(arb.max_utilization() <= 1.0 + 1e-6);
    assert_eq!(arb.in_flight(), 0);
}

/// A 64-stripe RS(6,3) store: the cross-backend pin fixture.
fn pin_store() -> Store {
    Store::build(StoreConfig {
        params: CodeParams::new(6, 3),
        racks: 4,
        nodes_per_rack: 5,
        stripes: 64,
        block_bytes: 8 << 20,
        preplace_p0: true,
        seed: 77,
    })
}

#[test]
fn fleet_backend_pins_to_per_stripe_supervised_repair() {
    let s = pin_store();
    let profile = BandwidthProfile::simics_default(s.topology().rack_count());
    let cost = CostModel::free();
    let node = NodeId(2);
    let opts = FleetRecoveryOptions {
        arbitrate: false,
        ..FleetRecoveryOptions::default()
    };
    let fleet = s.recover_fleet(Failure::Node(node), &profile, cost, &opts, rpr::obs::noop());
    let affected = s.affected_stripes(Failure::Node(node));
    assert_eq!(fleet.records.len(), affected.len());
    assert!(fleet.records.len() >= 8, "need a real fleet to pin against");
    assert_eq!(fleet.unrepairable, 0);

    for (rec, (stripe, failed)) in fleet.records.iter().zip(&affected) {
        // Reference: a direct supervised repair of the same stripe with a
        // fresh tracker and the same per-stripe seed derivation.
        let ctx = RepairContext::new(
            s.codec(),
            s.topology(),
            s.placement(*stripe),
            failed.clone(),
            s.config().block_bytes,
            &profile,
            cost,
        );
        let storm = stripe_storm(opts.seed, *stripe as u64, &opts.storm);
        let mut tracker = HealthTracker::with_defaults();
        let direct = supervise_injected(&ctx, &storm, &opts.cfg, &mut tracker, rpr::obs::noop())
            .expect("clean supervised repair cannot fail");
        assert_eq!(rec.stripe as usize, *stripe);
        assert_eq!(rec.admitted, 0.0, "no arbitration: everything starts at 0");
        assert_eq!(rec.waited, 0.0);
        assert_eq!(
            rec.finish, direct.repair_time,
            "stripe {stripe}: scheduler must reproduce supervise_injected bitwise"
        );
        assert_eq!(direct.final_tier, Tier::Full);
    }

    // Turning arbitration on may delay admissions but must not change any
    // stripe's repair duration.
    let arb = s.recover_fleet(
        Failure::Node(node),
        &profile,
        cost,
        &FleetRecoveryOptions::default(),
        rpr::obs::noop(),
    );
    for (a, b) in arb.records.iter().zip(&fleet.records) {
        assert_eq!(a.stripe, b.stripe);
        assert!(
            ((a.finish - a.admitted) - b.finish).abs() < 1e-9,
            "stripe {}: duration is contention-independent",
            a.stripe
        );
    }
}

#[test]
fn supervised_backend_pins_to_sequential_repairs_sharing_one_tracker() {
    let s = pin_store();
    let profile = BandwidthProfile::simics_default(s.topology().rack_count());
    let cost = CostModel::free();
    let failure = Failure::Node(NodeId(2));
    let affected = s.affected_stripes(failure);
    assert!(affected.len() >= 8, "need a real fleet to pin against");
    for storm in [
        vec![vec![StormFault::Crash(CrashSite::SeedPick)]],
        vec![vec![StormFault::Lie]],
    ] {
        let opts = SupervisedRecoveryOptions {
            storm,
            seed: 7,
            cfg: SuperviseConfig {
                proof: ProofMode::Mandatory,
                ..SuperviseConfig::default()
            },
            ..SupervisedRecoveryOptions::default()
        };
        let fleet = s.recover_supervised(failure, &profile, cost, &opts);

        // Reference: the same stripes repaired one after another in stripe
        // order, every repair reading and updating one health tracker.
        let mut tracker = HealthTracker::with_defaults();
        let (mut seconds, mut replans, mut degraded) = (Vec::new(), 0usize, 0usize);
        let mut ledgers = Vec::new();
        for (stripe, failed) in &affected {
            let ctx = RepairContext::new(
                s.codec(),
                s.topology(),
                s.placement(*stripe),
                failed.clone(),
                s.config().block_bytes,
                &profile,
                cost,
            );
            let storm = stripe_storm(opts.seed, *stripe as u64, &opts.storm);
            let Ok(out) =
                supervise_injected(&ctx, &storm, &opts.cfg, &mut tracker, rpr::obs::noop())
            else {
                continue;
            };
            seconds.push(out.repair_time.to_bits());
            replans += out.replans;
            degraded += usize::from(out.final_tier > Tier::Full);
            ledgers.push((*stripe, out.ledger.to_json_lines()));
        }
        let got: Vec<u64> = fleet.stripe_seconds.iter().map(|t| t.to_bits()).collect();
        assert_eq!(got, seconds, "{:?}: stripe_seconds bitwise", opts.storm);
        assert_eq!(fleet.completed, seconds.len());
        assert!(replans > 0, "{:?}: the storm must bite", opts.storm);
        assert_eq!(fleet.tally.replans, replans);
        assert_eq!(fleet.tally.degraded, degraded);
        assert_eq!(fleet.quarantined_nodes, tracker.quarantined());
        let got: Vec<(usize, String)> = fleet
            .ledgers
            .iter()
            .map(|(stripe, ledger)| (*stripe, ledger.to_json_lines()))
            .collect();
        assert_eq!(got, ledgers, "{:?}: per-stripe proof ledgers", opts.storm);
    }
}
