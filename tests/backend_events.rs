//! Both backends emit one event vocabulary.
//!
//! The simulator and the real-bytes executor record a repair through the
//! same supervision loop, so a plan's trace names the same events on
//! either substrate; only the clock differs. This pins:
//!
//! * clean block-mode runs of the six paper codes × rpr / car /
//!   traditional / chain: `simulate_traced` and `execute_recorded` give
//!   equal sorted multisets of (event type, label, timestep);
//! * one `(6,3)` crash storm on each backend: every generation's finished
//!   cross-rack waves are bracketed by `timestep_started` /
//!   `timestep_finished`, and no other wave is — nor, on the simulator,
//!   a wave a won hedge cut short; the crash trigger's send is queued,
//!   started and failed (`node_down`) at one instant;
//! * 1 MiB chunk mode under supervision: each backend writes one
//!   `stream_summary` per streamed send;
//! * a recorder that is not `enabled()` gets no `record` call from a
//!   supervised storm on either backend, nor from `run_load`.

use rpr::codec::{BlockId, CodeParams, StripeCodec};
use rpr::core::{
    first_valid_plan, op_label, simulate_traced, supervise_injected, CarPlanner, ChainPlanner,
    CostModel, Op, RepairContext, RepairPlanner, RprPlanner, SuperviseConfig, TraditionalPlanner,
};
use rpr::exec::{execute_recorded, execute_supervised};
use rpr::faults::{reason, CrashSite, FaultStorm, HealthTracker, StormFault};
use rpr::load::{run_load_recorded, LoadSpec, RepairMode};
use rpr::obs::{Event, Recorder, TraceRecorder};
use rpr::topology::{cluster_for, BandwidthProfile, Placement, Topology};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

const PAPER_CODES: [(usize, usize); 6] = [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)];

struct World {
    codec: StripeCodec,
    topo: Topology,
    placement: Placement,
    profile: BandwidthProfile,
    block: u64,
    stripe: Vec<Vec<u8>>,
}

impl World {
    fn new(n: usize, k: usize, block: u64) -> World {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), 4.0e9, 1.0e9);
        let data: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                (0..block)
                    .map(|j| (j as u8).wrapping_mul(31) ^ i as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        let stripe = codec.encode_stripe(&refs);
        World {
            codec,
            topo,
            placement,
            profile,
            block,
            stripe,
        }
    }

    fn ctx(&self, chunk: Option<u64>) -> RepairContext<'_> {
        let ctx = RepairContext::new(
            &self.codec,
            &self.topo,
            &self.placement,
            vec![BlockId(1)],
            self.block,
            &self.profile,
            CostModel::free(),
        );
        match chunk {
            Some(c) => ctx.with_chunk_size(c),
            None => ctx,
        }
    }
}

/// An event's (type, label, timestep): the fields that name it on either
/// substrate.
fn key(e: &Event) -> (&'static str, String, Option<usize>) {
    let (label, step) = match e {
        Event::TransferQueued { xfer, .. }
        | Event::TransferStarted { xfer, .. }
        | Event::TransferDone { xfer, .. }
        | Event::TransferFailed { xfer, .. }
        | Event::StreamSummary { xfer, .. } => (xfer.label.clone(), xfer.timestep),
        Event::CombineDone { label, .. } => (label.clone(), None),
        Event::TimestepStarted { step, .. } | Event::TimestepFinished { step, .. } => {
            (String::new(), Some(*step))
        }
        _ => (String::new(), None),
    };
    (e.name(), label, step)
}

fn vocabulary(events: &[Event]) -> Vec<(&'static str, String, Option<usize>)> {
    let mut keys: Vec<_> = events.iter().map(key).collect();
    keys.sort_unstable();
    keys
}

#[test]
fn clean_runs_name_the_same_events_on_both_backends() {
    for (n, k) in PAPER_CODES {
        let world = World::new(n, k, 256 << 10);
        let ctx = world.ctx(None);
        let planners: [Box<dyn RepairPlanner>; 4] = [
            Box::new(RprPlanner::new()),
            Box::new(CarPlanner::new()),
            Box::new(TraditionalPlanner::new()),
            Box::new(ChainPlanner::new()),
        ];
        for planner in planners {
            let plan = planner.plan(&ctx);
            plan.validate(&world.codec, &world.topo, &world.placement)
                .expect("valid plan");
            // A chain plan moves slices: run it on the stripe's first
            // segment (a segment of the encoding encodes the segment).
            let len = plan.block_bytes as usize;
            let stripe: Vec<Vec<u8>> = world.stripe.iter().map(|b| b[..len].to_vec()).collect();
            let (sim, exec) = (TraceRecorder::default(), TraceRecorder::default());
            simulate_traced(&plan, &ctx, &sim);
            let report = execute_recorded(&plan, &ctx, &stripe, &exec);
            assert!(report.verified, "({n},{k}) {}", plan.scheme);
            let sim = vocabulary(&sim.take_events());
            assert!(sim.iter().any(|k| k.0 == "timestep_started"));
            assert_eq!(
                sim,
                vocabulary(&exec.take_events()),
                "({n},{k}) {}: sim vs exec",
                plan.scheme
            );
        }
    }
}

/// Walk a supervised trace generation by generation: the waves of the
/// cross sends done since the last bracket must be exactly the steps of
/// the next bracket, each a finite `timestep_started` / `timestep_finished`
/// pair. Returns the number of brackets.
fn check_brackets(events: &[Event], backend: &str) -> usize {
    let (mut done, mut brackets, mut i) = (BTreeSet::new(), 0, 0);
    while i < events.len() {
        match &events[i] {
            Event::TransferDone { xfer, .. } if xfer.cross => {
                done.insert(xfer.timestep.expect("cross sends are tagged"));
            }
            Event::TimestepStarted { .. } => {
                let mut steps = BTreeSet::new();
                while let Some(Event::TimestepStarted { step, t: start }) = events.get(i) {
                    let Some(Event::TimestepFinished { step: s, t: end }) = events.get(i + 1)
                    else {
                        panic!("{backend}: unpaired timestep_started at event {i}");
                    };
                    assert_eq!(step, s, "{backend}");
                    assert!(
                        start.is_finite() && end.is_finite() && start <= end,
                        "{backend}"
                    );
                    steps.insert(*step);
                    i += 2;
                }
                assert_eq!(
                    steps,
                    std::mem::take(&mut done),
                    "{backend}: bracket {brackets}"
                );
                brackets += 1;
                continue;
            }
            Event::TimestepFinished { .. } => panic!("{backend}: unpaired timestep_finished"),
            _ => {}
        }
        i += 1;
    }
    assert!(done.is_empty(), "{backend}: waves {done:?} never bracketed");
    brackets
}

#[test]
fn a_crash_storm_brackets_every_generation_on_both_backends() {
    let world = World::new(6, 3, 256 << 10);
    let ctx = world.ctx(None);
    let storm = FaultStorm::new(17).with_generation(vec![StormFault::Crash(CrashSite::SeedPick)]);
    let cfg = SuperviseConfig::default();

    let rec = TraceRecorder::default();
    let sim = supervise_injected(
        &ctx,
        &storm,
        &cfg,
        &mut HealthTracker::with_defaults(),
        &rec,
    )
    .expect("the simulated storm completes");
    assert_eq!(sim.replans, 1);
    let events = rec.take_events();
    assert!(check_brackets(&events, "sim") >= 1);
    check_crash_trigger(&events, "sim");

    let rec = TraceRecorder::default();
    let tracker = &mut HealthTracker::with_defaults();
    let exec = execute_supervised(&ctx, &world.stripe, &rec, &storm, &cfg, tracker)
        .expect("the real-bytes storm completes");
    assert!(exec.report.verified && exec.replans == 1);
    let events = rec.take_events();
    assert!(check_brackets(&events, "exec") >= 1);
    check_crash_trigger(&events, "exec");
}

/// The crash trigger's node dies just after beginning its send: the
/// send's label names exactly a queued, a started and a `node_down`
/// failed event, at one instant.
fn check_crash_trigger(events: &[Event], backend: &str) {
    let trigger = events
        .iter()
        .find_map(|e| match e {
            Event::TransferFailed { xfer, reason, .. } if reason == reason::NODE_DOWN => {
                Some(xfer.label.clone())
            }
            _ => None,
        })
        .unwrap_or_else(|| panic!("{backend}: no node_down failure"));
    let sends: Vec<(&str, f64)> = events
        .iter()
        .filter(|e| match e {
            Event::TransferQueued { xfer, .. }
            | Event::TransferStarted { xfer, .. }
            | Event::TransferFailed { xfer, .. }
            | Event::TransferDone { xfer, .. } => xfer.label == trigger,
            _ => false,
        })
        .map(|e| (e.name(), e.time()))
        .collect();
    let names: Vec<&str> = sends.iter().map(|s| s.0).collect();
    assert_eq!(
        names,
        ["transfer_queued", "transfer_started", "transfer_failed"],
        "{backend}: {trigger}"
    );
    assert!(
        sends.iter().all(|s| s.1 == sends[0].1),
        "{backend}: {sends:?}"
    );
}

#[test]
fn a_won_simulator_hedge_brackets_only_what_ran_before_it() {
    // A helper at 10% bandwidth straggles; the hedge's alternative wins,
    // so the original plan's later waves never ran and get no bracket,
    // and no bracket closes after the repair does.
    let params = CodeParams::new(6, 3);
    let codec = StripeCodec::new(params);
    let topo = cluster_for(params, 1, 1);
    let placement = Placement::rpr_preplaced(params, &topo);
    let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
    let ctx = RepairContext::new(
        &codec,
        &topo,
        &placement,
        vec![BlockId(1)],
        64 << 20,
        &profile,
        CostModel::simics(),
    );
    let storm = FaultStorm::new(17).with_generation(vec![StormFault::Slow { factor: 0.1 }]);
    let cfg = SuperviseConfig {
        hedge: Some(2.0),
        ..SuperviseConfig::default()
    };
    let rec = TraceRecorder::default();
    let out = supervise_injected(
        &ctx,
        &storm,
        &cfg,
        &mut HealthTracker::with_defaults(),
        &rec,
    )
    .expect("the hedged repair completes");
    assert_eq!(out.hedge_wins, 1);
    let events = rec.take_events();
    let ran: BTreeSet<usize> = (events.iter())
        .filter_map(|e| match e {
            Event::TransferDone { xfer, .. } if xfer.cross && xfer.label.starts_with("p0") => {
                xfer.timestep
            }
            _ => None,
        })
        .collect();
    let bracketed: BTreeSet<usize> = (events.iter())
        .filter_map(|e| match e {
            Event::TimestepFinished { step, t } => {
                assert!(*t <= out.repair_time, "wave {step} closes at {t}");
                Some(*step)
            }
            _ => None,
        })
        .collect();
    assert!(!ran.is_empty());
    assert_eq!(bracketed, ran);
}

#[test]
fn chunked_supervision_summarizes_each_streamed_send_on_both_backends() {
    let world = World::new(6, 3, 2 << 20);
    let ctx = world.ctx(Some(1 << 20));
    let plan = first_valid_plan(&ctx).expect("a plan validates");
    let sends: Vec<String> = (0..plan.ops.len())
        .filter(|&i| matches!(plan.ops[i], Op::Send { .. }))
        .map(|i| op_label(&plan, 0, i, None))
        .collect();
    let summaries = |events: Vec<Event>| -> Vec<String> {
        let mut labels: Vec<String> = events
            .into_iter()
            .filter_map(|e| match e {
                Event::StreamSummary { xfer, chunks, .. } => {
                    assert_eq!(chunks, 2);
                    Some(xfer.label)
                }
                _ => None,
            })
            .collect();
        labels.sort_unstable();
        labels
    };
    let mut want = sends.clone();
    want.sort_unstable();
    let (storm, cfg) = (FaultStorm::new(3), SuperviseConfig::default());

    let rec = TraceRecorder::default();
    supervise_injected(
        &ctx,
        &storm,
        &cfg,
        &mut HealthTracker::with_defaults(),
        &rec,
    )
    .expect("the simulated repair completes");
    assert_eq!(summaries(rec.take_events()), want, "sim");

    let rec = TraceRecorder::default();
    let tracker = &mut HealthTracker::with_defaults();
    let exec = execute_supervised(&ctx, &world.stripe, &rec, &storm, &cfg, tracker)
        .expect("the real-bytes repair completes");
    assert!(exec.report.verified);
    assert_eq!(summaries(rec.take_events()), want, "exec");
}

/// Keeps nothing and says so; counts the `record` calls it gets anyway.
#[derive(Default)]
struct Disabled(AtomicUsize);

impl Recorder for Disabled {
    fn record(&self, _: Event) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    fn enabled(&self) -> bool {
        false
    }
}

#[test]
fn a_disabled_recorder_gets_no_record_call() {
    // A chunked crash-then-timeout storm on both backends, clean runs of
    // both, and the load co-simulation in each tenancy mode.
    let world = World::new(6, 3, 2 << 20);
    let ctx = world.ctx(Some(1 << 20));
    let storm = FaultStorm::new(17)
        .with_generation(vec![StormFault::Crash(CrashSite::SeedPick)])
        .with_generation(vec![StormFault::Timeout]);
    let cfg = SuperviseConfig::default();
    let rec = Disabled::default();

    let tracker = &mut HealthTracker::with_defaults();
    let sim = supervise_injected(&ctx, &storm, &cfg, tracker, &rec).expect("the storm completes");
    assert_eq!(sim.replans, 1);
    let tracker = &mut HealthTracker::with_defaults();
    let exec = execute_supervised(&ctx, &world.stripe, &rec, &storm, &cfg, tracker)
        .expect("the real-bytes storm completes");
    assert!(exec.report.verified && exec.replans == 1);
    let plan = RprPlanner::new().plan(&ctx);
    simulate_traced(&plan, &ctx, &rec);
    assert!(execute_recorded(&plan, &ctx, &world.stripe, &rec).verified);

    for mode in [
        RepairMode::Off,
        RepairMode::Unthrottled,
        LoadSpec::paper_qos(),
    ] {
        let mut spec = LoadSpec::paper_config(17, mode);
        (spec.requests, spec.block_bytes) = (60, 4 << 20);
        run_load_recorded(&spec, &rec);
    }
    assert_eq!(rec.0.load(Ordering::Relaxed), 0, "record calls");
}
