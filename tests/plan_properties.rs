//! Randomized integration properties: random codes, placements, and
//! failure sets — every generated plan must validate symbolically and
//! reconstruct real bytes exactly.
//!
//! Each property runs [`CASES`] scenarios drawn from [`SplitMix64`]
//! seeded with [`SEED`]; a failure prints the scenario and its case index.

use rpr::codec::{BlockId, CodeParams, StripeCodec};
use rpr::core::{
    simulate, CostModel, RepairContext, RepairPlanner, RprPlanner, TraditionalPlanner,
};
use rpr::exec::execute;
use rpr::faults::SplitMix64;
use rpr::topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy};

const BLOCK: u64 = 4096;
const SEED: u64 = 0x5BE0_CD19_137E_2179;
const CASES: usize = 48;

#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    k: usize,
    policy: PlacementPolicy,
    failed: Vec<usize>,
    seed: u64,
}

/// `2 <= n <= 12`, `1 <= k <= min(4, n)`, and `1..=k` distinct failures
/// anywhere in the stripe.
fn scenario(rng: &mut SplitMix64) -> Scenario {
    let n = 2 + rng.pick(11);
    let k = 1 + rng.pick(4.min(n));
    let policy = if rng.next_u64() & 1 == 0 {
        PlacementPolicy::Compact
    } else {
        PlacementPolicy::RprPreplaced
    };
    let mut blocks: Vec<usize> = (0..n + k).collect();
    let z = 1 + rng.pick(k);
    for i in 0..z {
        blocks.swap(i, i + rng.pick(n + k - i));
    }
    let mut failed = blocks[..z].to_vec();
    failed.sort_unstable();
    Scenario {
        n,
        k,
        policy,
        failed,
        seed: rng.next_u64(),
    }
}

fn run(case: usize, s: &Scenario, use_rpr: bool) {
    let params = CodeParams::new(s.n, s.k);
    let codec = StripeCodec::new(params);
    let topo = cluster_for(params, 1, 1);
    let placement = Placement::by_policy(s.policy, params, &topo);
    let profile = BandwidthProfile::uniform(topo.rack_count(), 4.0e9, 0.4e9);

    let mut rng = SplitMix64::new(s.seed);
    let data: Vec<Vec<u8>> = (0..s.n)
        .map(|_| (0..BLOCK).map(|_| rng.next_u64() as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
    let stripe = codec.encode_stripe(&refs);

    let failed: Vec<BlockId> = s.failed.iter().map(|&i| BlockId(i)).collect();
    let ctx = RepairContext::new(
        &codec,
        &topo,
        &placement,
        failed,
        BLOCK,
        &profile,
        CostModel::free(),
    );
    let plan = if use_rpr {
        RprPlanner::new().plan(&ctx)
    } else {
        TraditionalPlanner::new().plan(&ctx)
    };
    plan.validate(&codec, &topo, &placement)
        .unwrap_or_else(|e| panic!("case {case} {s:?}: {e}"));

    // The simulator must accept the plan (no deadlocks, no starvation).
    let sim = simulate(&plan, &ctx);
    assert!(sim.repair_time.is_finite(), "case {case} {s:?}");

    // Real execution must reconstruct the exact bytes.
    let report = execute(&plan, &ctx, &stripe);
    assert!(
        report.verified,
        "case {case} {s:?}: mismatch {:?}",
        report.mismatches
    );

    // Cross-rack traffic never exceeds traditional repair's n blocks for
    // single failures (§4.3.2 guarantees "does not increase" in general).
    if s.failed.len() == 1 && use_rpr {
        assert!(
            plan.stats(&topo).cross_transfers <= s.n,
            "case {case} {s:?}"
        );
    }
}

fn run_cases(use_rpr: bool) {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        run(case, &scenario(&mut rng), use_rpr);
    }
}

#[test]
fn rpr_plans_always_validate_and_reconstruct() {
    run_cases(true);
}

#[test]
fn traditional_plans_always_validate_and_reconstruct() {
    run_cases(false);
}
