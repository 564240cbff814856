//! Dependency-free seeded property tests (SplitMix64 drives every random
//! choice, so failures reproduce exactly from the printed seed).
//!
//! Two families:
//! * pipeline-schedule invariants of [`cross_waves`] on random code
//!   geometries — a rack joins at most one cross transfer per wave, waves
//!   are dense, DAG order is respected, and the wave count meets the
//!   paper's `⌈log2(s+1)⌉` bound for single-failure RPR;
//! * executor byte-identity — on random geometries and stripe contents,
//!   the real-data executor reconstructs failed blocks byte-for-byte.

use rpr::codec::{BlockId, CodeParams, StripeCodec};
use rpr::core::{CostModel, Op, RepairContext, RepairPlanner, RprPlanner};
use rpr::exec::execute;
use rpr::faults::SplitMix64;
use rpr::topology::{cluster_for, BandwidthProfile, Placement};

const SEED: u64 = 0x5EED_CA5E;

/// A random paper-plausible geometry: `4 <= n <= 12`, `2 <= k <= 4`,
/// `z` failed data blocks with `1 <= z <= k`.
fn random_case(rng: &mut SplitMix64) -> (usize, usize, Vec<BlockId>) {
    let n = 4 + rng.pick(9); // 4..=12
    let k = 2 + rng.pick(3.min(n - 1)); // 2..=4, k <= n
    let z = 1 + rng.pick(k);
    let mut failed: Vec<BlockId> = Vec::new();
    while failed.len() < z {
        let b = BlockId(rng.pick(n));
        if !failed.contains(&b) {
            failed.push(b);
        }
    }
    (n, k, failed)
}

struct World {
    codec: StripeCodec,
    topo: rpr::topology::Topology,
    placement: Placement,
    profile: BandwidthProfile,
}

fn world(n: usize, k: usize) -> World {
    let params = CodeParams::new(n, k);
    let topo = cluster_for(params, 1, 1);
    let placement = Placement::rpr_preplaced(params, &topo);
    let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
    World {
        codec: StripeCodec::new(params),
        topo,
        placement,
        profile,
    }
}

fn ceil_log2(x: usize) -> usize {
    (usize::BITS - (x.max(1) - 1).leading_zeros()) as usize
}

#[test]
fn cross_waves_keep_racks_exclusive_on_random_cases() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..40 {
        let (n, k, failed) = random_case(&mut rng);
        let tag = format!("case {case}: ({n},{k}) failed {failed:?}");
        let w = world(n, k);
        let ctx = RepairContext::new(
            &w.codec,
            &w.topo,
            &w.placement,
            failed.clone(),
            1 << 20,
            &w.profile,
            CostModel::free(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&w.codec, &w.topo, &w.placement)
            .unwrap_or_else(|e| panic!("{tag}: invalid plan: {e}"));
        let (waves, count) = plan.cross_waves(&w.topo);

        // 1. Exactly the cross sends carry a wave tag.
        for (i, op) in plan.ops.iter().enumerate() {
            let is_cross = matches!(op, Op::Send { from, to, .. } if !w.topo.same_rack(*from, *to));
            assert_eq!(waves[i].is_some(), is_cross, "{tag}: op {i}");
        }

        // 2. Rack exclusivity: within one wave every rack joins at most
        //    one cross transfer (as sender or receiver) — the paper's
        //    one-block-per-rack-per-timestep pipeline discipline.
        for wave in 0..count {
            let mut busy = vec![false; w.topo.rack_count()];
            for (i, op) in plan.ops.iter().enumerate() {
                if waves[i] != Some(wave) {
                    continue;
                }
                let Op::Send { from, to, .. } = op else {
                    unreachable!()
                };
                for rack in [w.topo.rack_of(*from).0, w.topo.rack_of(*to).0] {
                    assert!(!busy[rack], "{tag}: rack {rack} reused in wave {wave}");
                    busy[rack] = true;
                }
            }
        }

        // 3. Waves are dense: every index in 0..count is used.
        let mut used = vec![false; count];
        for w in waves.iter().flatten() {
            used[*w] = true;
        }
        assert!(used.iter().all(|u| *u), "{tag}: sparse waves {waves:?}");

        // 4. DAG order: a cross send runs strictly after every upstream
        //    cross send.
        for i in 0..plan.ops.len() {
            let Some(wi) = waves[i] else { continue };
            for d in plan.deps_of(i) {
                if let Some(wd) = waves[d.0] {
                    assert!(
                        wd < wi,
                        "{tag}: op {i} (wave {wi}) depends on {} (wave {wd})",
                        d.0
                    );
                }
            }
        }

        // 5. The schedule can never beat the binary-merge lower bound,
        //    and single-failure plans meet it exactly (§3.2).
        let s = waves.iter().flatten().count();
        assert!(
            count >= ceil_log2(s + 1),
            "{tag}: {count} waves for {s} sends"
        );
        if failed.len() == 1 {
            assert_eq!(count, ceil_log2(s + 1), "{tag}: single failure is optimal");
        }
    }
}

#[test]
fn executor_reconstructs_random_cases_byte_identically() {
    let mut rng = SplitMix64::new(SEED ^ 0xEC5E_C0DE);
    let block = 4096usize;
    for case in 0..8 {
        let (n, k, failed) = random_case(&mut rng);
        let tag = format!("case {case}: ({n},{k}) failed {failed:?}");
        let w = world(n, k);

        // Random stripe contents from the same seeded stream.
        let data: Vec<Vec<u8>> = (0..n)
            .map(|_| (0..block).map(|_| (rng.next_u64() >> 24) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        let stripe = w.codec.encode_stripe(&refs);

        let ctx = RepairContext::new(
            &w.codec,
            &w.topo,
            &w.placement,
            failed,
            block as u64,
            &w.profile,
            CostModel::free(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&w.codec, &w.topo, &w.placement)
            .unwrap_or_else(|e| panic!("{tag}: invalid plan: {e}"));
        let report = execute(&plan, &ctx, &stripe);
        assert!(report.verified, "{tag}: mismatches {:?}", report.mismatches);
    }
}
