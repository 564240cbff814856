//! Deterministic chaos suite: single injected faults across both backends,
//! each run as a one-bucket [`FaultStorm`] through the supervision loop.
//!
//! The headline guarantees (see `docs/ROBUSTNESS.md`):
//! * a helper crash at *any* site of a single-failure RPR repair completes
//!   via replanning, never faster than the clean run, and reconstructs the
//!   lost block byte-identically on the real-data executor;
//! * transient faults (timeouts, corrupted payloads, switch outages) are
//!   retried and the repair still verifies;
//! * under a fixed seed the simulated degraded trace is bit-deterministic
//!   (the property `scripts/verify.sh` diffs end-to-end via `rpr chaos`).

use rpr::codec::{BlockId, CodeParams, StripeCodec};
use rpr::core::{
    crash_candidates, supervise_injected, CostModel, RepairContext, RepairPlanner, RprPlanner,
    SuperviseConfig, SuperviseOutcome,
};
use rpr::exec::{execute_supervised, ExecError};
use rpr::faults::{CrashSite, FaultStorm, HealthTracker, RetryPolicy, SplitMix64, StormFault};
use rpr::obs::{export, Event, TraceRecorder};
use rpr::topology::{cluster_for, BandwidthProfile, Placement};

/// The paper's single-failure configurations (kept in sync with
/// `rpr-experiments`).
const PAPER_CODES: [(usize, usize); 6] = [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)];

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

    fn stripe(&self, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = SplitMix64::new(seed);
        let data: Vec<Vec<u8>> = (0..self.codec.params().n)
            .map(|_| {
                (0..self.block as usize)
                    .map(|_| (rng.next_u64() >> 24) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        self.codec.encode_stripe(&refs)
    }
}

fn fast_cfg() -> SuperviseConfig {
    SuperviseConfig {
        policy: RetryPolicy {
            max_attempts: 4,
            backoff: 0.01,
            multiplier: 2.0,
        },
        ..SuperviseConfig::default()
    }
}

fn one_bucket(seed: u64, faults: Vec<StormFault>) -> FaultStorm {
    FaultStorm::new(seed).with_generation(faults)
}

/// The `(node, wave)` crash sites of the generation-0 plan the supervisor
/// will build for `ctx`. A [`CrashSite::Node`] strikes a node's *first*
/// site, so the sites are only all reachable while no node has two.
fn crash_sites(ctx: &RepairContext<'_>) -> Vec<(usize, usize)> {
    let sites = crash_candidates(&RprPlanner::new().plan(ctx), ctx);
    let mut nodes: Vec<usize> = sites.iter().map(|s| s.0).collect();
    nodes.sort_unstable();
    nodes.dedup();
    assert_eq!(nodes.len(), sites.len(), "a helper with two crash sites");
    sites
}

/// `fault_sites[0]` must name the requested node and wave: a
/// [`CrashSite::Node`] that is no candidate is silently re-aimed by the
/// resolver, which would turn a sweep over sites into a sweep over seeds.
fn assert_aimed(fault_sites: &[String], node: usize, wave: usize, what: &str) {
    let want = format!("crash node {node} (wave {wave}, ");
    assert!(fault_sites[0].starts_with(&want), "{what}: {fault_sites:?}");
}

fn sim(
    ctx: &RepairContext<'_>,
    storm: &FaultStorm,
    cfg: &SuperviseConfig,
) -> Result<(SuperviseOutcome, Vec<Event>), String> {
    let rec = TraceRecorder::default();
    let out = supervise_injected(ctx, storm, cfg, &mut HealthTracker::with_defaults(), &rec)?;
    Ok((out, rec.take_events()))
}

/// Simulated chaos sweep: for every paper configuration, crash every
/// possible helper at every timestep it participates in; the repair must
/// always complete by replanning, never faster than the clean run.
#[test]
fn sim_crash_at_every_site_replans_and_completes() {
    let mut total = 0;
    for (n, k) in PAPER_CODES {
        let w = World::new(n, k, 8 << 20);
        let ctx = w.ctx(vec![BlockId(1)]);
        let sites = crash_sites(&ctx);
        assert!(!sites.is_empty(), "({n},{k}): no crash sites");
        total += sites.len();
        for (site, &(node, wave)) in sites.iter().enumerate() {
            let what = format!("({n},{k}) crash node {node}@{wave}");
            let storm = one_bucket(
                1000 + site as u64,
                vec![StormFault::Crash(CrashSite::Node(node))],
            );
            let (out, events) =
                sim(&ctx, &storm, &fast_cfg()).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_aimed(&out.fault_sites, node, wave, &what);
            assert_eq!(out.replans, 1, "{what}");
            assert!(
                out.repair_time >= out.clean_time,
                "{what}: degraded {} < clean {}",
                out.repair_time,
                out.clean_time
            );
            let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
            for expect in ["helper_crashed", "replanned"] {
                assert!(
                    names.contains(&expect),
                    "{what}: missing {expect} in {names:?}"
                );
            }
            assert_eq!(*names.last().unwrap(), "repair_done", "{what}");
            // The timeline is monotone: repair_done is the latest instant.
            for e in &events {
                assert!(e.time() <= out.repair_time + 1e-9, "{what}: {e:?}");
            }
        }
    }
    assert_eq!(total, 16, "the six paper codes have 16 crash sites");
}

/// The acceptance scenario: kill each helper of an RS(6,3) and an RS(6,2)
/// repair in turn — every pipeline timestep included — store-and-forward
/// and streamed; the real-data executor must recover through replanning
/// and reconstruct the block byte-identically every time.
#[test]
fn exec_crash_at_every_site_recovers_byte_identically() {
    for (n, k) in [(6, 3), (6, 2)] {
        let w = World::new(n, k, 16 * 1024);
        let stripe = w.stripe(99);
        for chunk in [None, Some(4 * 1024)] {
            let ctx = match chunk {
                Some(c) => w.ctx(vec![BlockId(1)]).with_chunk_size(c),
                None => w.ctx(vec![BlockId(1)]),
            };
            let sites = crash_sites(&ctx);
            let mut waves: Vec<usize> = sites.iter().map(|s| s.1).collect();
            waves.dedup();
            assert!(waves.len() >= 2, "({n},{k}) pipelines over >= 2 timesteps");
            for &(node, wave) in &sites {
                let what = format!("({n},{k}) chunk {chunk:?} crash node {node}@{wave}");
                let storm = one_bucket(
                    7 + wave as u64,
                    vec![StormFault::Crash(CrashSite::Node(node))],
                );
                let rec = TraceRecorder::default();
                let mut tracker = HealthTracker::with_defaults();
                let out =
                    execute_supervised(&ctx, &stripe, &rec, &storm, &fast_cfg(), &mut tracker)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_aimed(&out.fault_sites, node, wave, &what);
                assert!(out.report.verified, "{what}: {:?}", out.report.mismatches);
                assert_eq!(out.replans, 1, "{what}");
                let names: Vec<&str> = rec.take_events().iter().map(|e| e.name()).collect();
                for expect in ["helper_crashed", "replanned"] {
                    assert!(names.contains(&expect), "{what}: no {expect} event");
                }
            }
        }
    }
}

/// Transient faults: each kind is retried in place on both backends
/// (`retry_scheduled`, no replan), the simulated repair slows down, and
/// the executed one still ends in a byte-verified reconstruction.
#[test]
fn transient_faults_retry_in_place_and_verify() {
    let w = World::new(6, 2, 16 * 1024);
    let ctx = w.ctx(vec![BlockId(1)]);
    let stripe = w.stripe(5);
    for fault in [
        StormFault::Timeout,
        StormFault::Corrupt,
        StormFault::RackOutage,
    ] {
        let storm = one_bucket(9, vec![fault]);

        let (out, events) = sim(&ctx, &storm, &fast_cfg()).expect("sim completes");
        assert_eq!((out.retries, out.replans), (1, 0), "sim {fault:?}");
        assert!(out.repair_time > out.clean_time, "sim {fault:?} costs time");
        assert_eq!(events.last().map(|e| e.name()), Some("repair_done"));

        let rec = TraceRecorder::default();
        let mut tracker = HealthTracker::with_defaults();
        let exec = execute_supervised(&ctx, &stripe, &rec, &storm, &fast_cfg(), &mut tracker)
            .unwrap_or_else(|e| panic!("{fault:?}: {e}"));
        assert!(exec.report.verified, "{fault:?}: not verified");
        assert_eq!((exec.retries, exec.replans), (1, 0), "exec {fault:?}");
        assert_eq!(
            exec.fault_sites, out.fault_sites,
            "both backends resolve the same site"
        );
        for names in [events, rec.take_events()] {
            let names: Vec<&str> = names.iter().map(|e| e.name()).collect();
            assert!(names.contains(&"transfer_failed"), "{fault:?}: {names:?}");
            assert!(names.contains(&"retry_scheduled"), "{fault:?}: {names:?}");
        }
    }
}

/// The two edges of the retry budget: no fault at all is exactly the clean
/// repair, and one fault against `max_attempts: 1` is a typed error on
/// both backends before anything runs.
#[test]
fn empty_storm_is_the_clean_repair_and_a_spent_budget_is_an_error() {
    let w = World::new(6, 3, 16 * 1024);
    let ctx = w.ctx(vec![BlockId(1)]);
    let (out, _) = sim(&ctx, &FaultStorm::new(7), &fast_cfg()).expect("runs");
    assert_eq!(out.repair_time, out.clean_time);
    assert_eq!((out.retries, out.replans), (0, 0));
    assert!(out.fault_sites.is_empty());

    let mut tight = fast_cfg();
    tight.policy.max_attempts = 1;
    let storm = one_bucket(5, vec![StormFault::Timeout]);
    let err = sim(&ctx, &storm, &tight).unwrap_err();
    assert!(err.contains("retry budget"), "{err}");
    let err = execute_supervised(
        &ctx,
        &w.stripe(5),
        rpr::obs::noop(),
        &storm,
        &tight,
        &mut HealthTracker::with_defaults(),
    )
    .unwrap_err();
    assert!(matches!(err, ExecError::RetriesExhausted(_)), "{err}");
}

/// Fixed seed in, identical bytes out: the simulated degraded trace —
/// including a full crash/replan cycle — serializes to byte-identical
/// JSONL across runs.
#[test]
fn sim_injected_trace_is_bit_deterministic() {
    let run = |seed: u64| -> String {
        let w = World::new(8, 4, 64 << 20);
        let ctx = w.ctx(vec![BlockId(2)]);
        let (node, _) = crash_sites(&ctx)[1];
        let storm = one_bucket(
            seed,
            vec![
                StormFault::Timeout,
                StormFault::Crash(CrashSite::Node(node)),
            ],
        );
        let (_, events) = sim(&ctx, &storm, &SuperviseConfig::default()).expect("completes");
        export::to_json_lines(&events)
    };
    assert_eq!(run(17), run(17), "same seed must replay identically");
    assert_ne!(run(17), run(4242), "the seed must actually steer the run");
}
