//! The executor's payload buffers outlive the repair that allocated
//! them: a second repair of a geometry is served from the process-wide
//! pool — and where a buffer came from must never change a single byte
//! of the repair.

use rpr::codec::{BlockId, CodeParams, StripeCodec};
use rpr::core::{CostModel, RepairContext, RepairPlanner, RprPlanner, SuperviseConfig};
use rpr::exec::{execute, execute_supervised, ExecReport};
use rpr::faults::{CrashSite, FaultStorm, HealthTracker, StormFault};
use rpr::topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy};
use rpr_proof::ProofMode;
use std::sync::{Mutex, MutexGuard};

/// The tests below read counters of the one pool their process shares,
/// so they take turns.
fn pool_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|failed| failed.into_inner())
}

fn checkouts(r: &ExecReport) -> usize {
    r.arena.fresh + r.arena.recycled
}

struct Fx {
    codec: StripeCodec,
    topo: rpr::topology::Topology,
    placement: Placement,
    profile: BandwidthProfile,
    block: u64,
}

impl Fx {
    fn new(n: usize, k: usize, block: u64) -> Fx {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::by_policy(PlacementPolicy::RprPreplaced, params, &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), 1.0e9, 400.0e6);
        Fx {
            codec,
            topo,
            placement,
            profile,
            block,
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

    fn stripe(&self, seed: u64) -> Vec<Vec<u8>> {
        let mut s = seed | 1;
        let data: Vec<Vec<u8>> = (0..self.codec.params().n)
            .map(|_| {
                (0..self.block)
                    .map(|_| {
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (s >> 33) as u8
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        self.codec.encode_stripe(&refs)
    }
}

#[test]
fn chunked_repair_recycles_buffers_and_stays_byte_identical() {
    let _turn = pool_turn();
    // 24 chunks of 8 KiB plus a ragged 11-byte tail over the (6,3) RPR
    // plan. Every chunk of every op's value is a pooled buffer held until
    // the repair ends, so the first repair allocates and the second finds
    // all of it idle in the pool.
    let fx = Fx::new(6, 3, 192 * 1024 + 11);
    let stripe = fx.stripe(0xA11E);
    let plan = RprPlanner::new().plan(&fx.ctx(None));

    for (mode, chunk) in [("streamed", Some(8 * 1024)), ("block", None)] {
        let first = execute(&plan, &fx.ctx(chunk), &stripe);
        assert!(first.verified, "{mode}: {:?}", first.mismatches);
        assert!(
            first.arena.fresh > 0,
            "{mode}: nothing this size was pooled yet"
        );
        let second = execute(&plan, &fx.ctx(chunk), &stripe);
        assert!(second.verified, "{mode}: {:?}", second.mismatches);
        assert_eq!(second.arena.fresh, 0, "{mode}: {:?}", second.arena);
        assert_eq!(second.arena.recycled, checkouts(&first), "{mode}");
        assert_eq!(second.recovered, first.recovered, "{mode}");
    }
}

#[test]
fn back_to_back_supervised_repairs_allocate_nothing_the_second_time() {
    let _turn = pool_turn();
    // Clean, and under a crash storm whose replan re-serves banked
    // values; proofs on, so the proof plane's scratch is counted too.
    // Only the blocks handed back in `recovered` are new memory.
    let fx = Fx::new(6, 3, 96 * 1024 + 7);
    let stripe = fx.stripe(0x5EED);
    let cfg = SuperviseConfig {
        proof: ProofMode::Advisory,
        ..SuperviseConfig::default()
    };
    let crash = FaultStorm::new(17).with_generation(vec![StormFault::Crash(CrashSite::SeedPick)]);
    for (name, storm) in [("clean", FaultStorm::new(0)), ("crash", crash)] {
        for chunk in [None, Some(16 * 1024)] {
            let ctx = fx.ctx(chunk);
            let repair = || {
                let mut tracker = HealthTracker::with_defaults();
                execute_supervised(&ctx, &stripe, rpr::obs::noop(), &storm, &cfg, &mut tracker)
                    .expect("repair completes")
            };
            let (first, second) = (repair(), repair());
            assert!(
                first.report.verified && second.report.verified,
                "{name} {chunk:?}"
            );
            assert_eq!(second.replans, first.replans, "{name} {chunk:?}");
            assert_eq!(
                second.report.arena.fresh, 0,
                "{name} {chunk:?}: {:?}",
                second.report.arena
            );
            assert_eq!(
                second.report.recovered, first.report.recovered,
                "{name} {chunk:?}"
            );
            assert_eq!(
                second.report.recovered[0].1.as_slice(),
                stripe[1].as_slice()
            );
            assert_eq!(second.ledger.to_json_lines(), first.ledger.to_json_lines());
        }
    }
}

#[test]
fn arena_reuse_is_invisible_across_chunk_sizes() {
    let _turn = pool_turn();
    // Different chunk sizes exercise different reuse patterns; all must
    // reconstruct the identical block (verified == byte equality with
    // the original).
    let fx = Fx::new(6, 2, 64 * 1024);
    let stripe = fx.stripe(0xBEE5);
    let plan = RprPlanner::new().plan(&fx.ctx(None));
    for chunk in [3_000u64, 16 * 1024, 40 * 1024] {
        let report = execute(&plan, &fx.ctx(Some(chunk)), &stripe);
        assert!(
            report.verified,
            "chunk={chunk}: mismatches {:?}",
            report.mismatches
        );
    }
}
