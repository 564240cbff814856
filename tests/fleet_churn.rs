//! Properties of the fleet drain under live churn, checked end-to-end
//! through the `rpr` facade:
//!
//! * **conservation** — every enqueued stripe terminates exactly once,
//!   as repaired or as a permanent loss, across seeds and churn rates;
//! * **strict escalation ordering** — replaying the trace, no stripe is
//!   ever admitted while a strictly higher-level stripe sits queued
//!   (escalations reorder the queue, they never inverts it);
//! * **no starvation** — sustained churn cannot park a stripe forever:
//!   the repaired + lost id sets partition the full backlog;
//! * **zero-churn neutrality** — at `churn_rate = 0` the escalation
//!   policy flag is unobservable and the churn counters stay zero;
//! * **crash restart** — resuming from a journal truncated mid-write
//!   reproduces the uninterrupted run's summary and records bit for
//!   bit, while skipping the already-costed simulations.

use std::cell::RefCell;
use std::collections::HashMap;

use rpr::codec::CodeParams;
use rpr::obs::{Event, NoopRecorder, TraceRecorder};
use rpr::sched::{
    run_fleet_with, run_synthetic_fleet, FleetIo, FleetJournal, FleetSpec, JournalReplay,
};

/// A small contended fleet that a churn stream keeps hitting: few racks,
/// so drains are long enough for arrivals to land on live stripes.
fn churned_spec(seed: u64, churn_rate: f64) -> FleetSpec {
    FleetSpec {
        params: CodeParams::new(4, 2),
        racks: 3,
        nodes_per_rack: 4,
        stripes: 300,
        block_bytes: 16 << 20,
        seed,
        level_weights: vec![0.7, 0.3],
        churn_rate,
        ..FleetSpec::default()
    }
}

#[test]
fn repaired_plus_lost_equals_enqueued_across_seeds_and_rates() {
    for seed in [3u64, 17, 99] {
        for rate in [0.01, 0.05, 0.2] {
            for escalate in [true, false] {
                let mut spec = churned_spec(seed, rate);
                spec.escalate = escalate;
                let out = run_synthetic_fleet(&spec, &NoopRecorder);
                let s = &out.summary;
                assert_eq!(
                    s.repaired + s.lost,
                    s.stripes,
                    "seed {seed} rate {rate} escalate {escalate}: every stripe terminates"
                );
                assert_eq!(out.records.len(), s.repaired);
                assert_eq!(out.lost.len(), s.lost);
                assert!(
                    s.churn_failures >= s.escalations,
                    "every escalation is caused by a churn hit"
                );
            }
        }
    }
}

#[test]
fn escalation_never_inverts_level_priority() {
    // Replay the trace: maintain the queued set (stripe → current
    // level) through enqueues, queued escalations, losses, and
    // admissions. At every admission the admitted stripe must carry the
    // maximum level present in the queue — a churn hit re-prioritizes
    // its victim, it never lets a safer stripe jump a riskier one.
    let rec = TraceRecorder::with_capacity(1 << 20);
    let out = run_synthetic_fleet(&churned_spec(42, 0.1), &rec);
    assert!(
        out.summary.escalations > 0,
        "the spec must actually escalate to exercise ordering"
    );
    let mut queued: HashMap<u64, usize> = HashMap::new();
    let mut admissions = 0usize;
    let mut lost_in_flight = 0usize;
    for e in rec.take_events() {
        match e {
            Event::StripeEnqueued { stripe, level, .. } => {
                queued.insert(stripe, level);
            }
            Event::RiskEscalated {
                stripe,
                to,
                in_flight: false,
                ..
            } => {
                queued.insert(stripe, to);
            }
            Event::StripeLost { stripe, .. } => match queued.remove(&stripe) {
                Some(_) => {}
                None => lost_in_flight += 1,
            },
            Event::StripeAdmitted { stripe, level, t } => {
                queued.remove(&stripe);
                admissions += 1;
                if let Some((&rival, &l)) = queued.iter().max_by_key(|(_, &l)| l) {
                    assert!(
                        l <= level,
                        "t={t}: stripe {stripe} admitted at level {level} \
                         while stripe {rival} queued at level {l}"
                    );
                }
            }
            _ => {}
        }
    }
    // Admitted stripes either finish or are lost in flight (a fatal
    // churn hit past `k` kills even a running repair).
    assert_eq!(admissions, out.summary.repaired + lost_in_flight);
}

#[test]
fn sustained_churn_starves_no_stripe() {
    // Heavy sustained churn with escalation on: the repaired and lost
    // id sets must still partition 0..stripes — nothing is dropped,
    // nothing is repaired twice, nothing waits forever.
    let spec = churned_spec(7, 0.2);
    let out = run_synthetic_fleet(&spec, &NoopRecorder);
    let mut ids: Vec<u32> = out.records.iter().map(|r| r.stripe).collect();
    ids.extend(out.lost.iter().map(|l| l.stripe));
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..spec.stripes as u32).collect::<Vec<_>>(),
        "repaired ∪ lost must partition the backlog"
    );
}

#[test]
fn zero_churn_makes_the_escalation_flag_unobservable() {
    let run = |escalate: bool| {
        let mut spec = churned_spec(2024, 0.0);
        spec.escalate = escalate;
        run_synthetic_fleet(&spec, &NoopRecorder)
    };
    let (a, b) = (run(true), run(false));
    assert_eq!(a.summary.to_json(), b.summary.to_json());
    assert_eq!(a.records, b.records);
    assert_eq!(a.summary.churn_failures, 0);
    assert_eq!(a.summary.escalations, 0);
    assert_eq!(a.summary.lost, 0);
}

#[test]
fn resume_from_a_truncated_journal_is_bit_identical() {
    // A storm template forces one supervised sim per stripe, which is
    // exactly the work the journal's cost records let a resume skip.
    let mut spec = churned_spec(11, 0.05);
    spec.stripes = 120;
    spec.storm = vec![vec![]];

    let dir = std::env::temp_dir();
    let full = dir.join(format!("rpr-churn-journal-{}.jsonl", std::process::id()));
    let cut = dir.join(format!("rpr-churn-journal-cut-{}.jsonl", std::process::id()));

    let journal = RefCell::new(
        FleetJournal::create(&full, spec.seed, spec.stripes).expect("create journal"),
    );
    let clean = run_fleet_with(
        &spec,
        FleetIo {
            journal: Some(&journal),
            resume: None,
        },
        &NoopRecorder,
    );
    drop(journal);
    assert!(clean.summary.lost > 0, "churn must cost the fleet stripes");
    assert_eq!(clean.replayed, 0);

    // Simulate a crash mid-write: keep 60% of the journal bytes, ending
    // mid-line, and resume from the torn log.
    let bytes = std::fs::read(&full).expect("read journal");
    std::fs::write(&cut, &bytes[..bytes.len() * 6 / 10]).expect("write truncated copy");
    let replay = JournalReplay::load(&cut).expect("torn journal still parses");
    assert!(replay.truncated, "the cut must land mid-record");
    assert!(!replay.costs.is_empty(), "the cut keeps some cost records");
    assert!(
        replay.completed.len() < clean.records.len(),
        "a mid-drain crash must leave completions unlogged"
    );

    let resumed = run_fleet_with(
        &spec,
        FleetIo {
            journal: None,
            resume: Some(&replay),
        },
        &NoopRecorder,
    );
    assert!(
        resumed.replayed > 0,
        "resume must skip the already-costed sims"
    );
    assert_eq!(
        resumed.summary.to_json(),
        clean.summary.to_json(),
        "a resumed drain is bit-identical to the uninterrupted run"
    );
    assert_eq!(resumed.records, clean.records);
    assert_eq!(resumed.lost, clean.lost);

    // The same replay with one stripe's cost record turned into an
    // `unrepairable` marker: the marker is honoured (the stripe is not
    // repaired) and counts in `unrepairable`, never in `replayed`.
    let mut marked_replay = replay.clone();
    let key = *marked_replay
        .costs
        .keys()
        .min()
        .expect("the cut keeps cost records");
    marked_replay.costs.remove(&key);
    marked_replay.unrepairable.insert(key.0);
    let marked = run_fleet_with(
        &spec,
        FleetIo {
            journal: None,
            resume: Some(&marked_replay),
        },
        &NoopRecorder,
    );
    assert_eq!(marked.unrepairable, clean.unrepairable + 1);
    assert_eq!(marked.replayed, resumed.replayed - 1);
    assert_eq!(marked.summary.stripes, clean.summary.stripes - 1);
    assert!(marked.records.iter().all(|r| r.stripe != key.0));

    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&cut);
}
