//! Properties over randomized store configurations: placement invariants
//! and recovery sanity must hold for any cluster the constructor accepts.
//!
//! Each property runs [`CASES`] configurations drawn from [`SplitMix64`]
//! seeded with [`SEED`]; a failure names the case index and its config.

use rpr_codec::CodeParams;
use rpr_core::CostModel;
use rpr_faults::SplitMix64;
use rpr_store::{Failure, RecoveryOptions, Scheme, Store, StoreConfig};
use rpr_topology::{BandwidthProfile, RackId};

const SEED: u64 = 0x9B05_688C_2B3E_6C1F;
const CASES: usize = 32;

#[derive(Debug, Clone)]
struct Cfg {
    n: usize,
    k: usize,
    racks_extra: usize,
    nodes_extra: usize,
    stripes: usize,
    seed: u64,
}

/// `2 <= n <= 8`, `1 <= k <= min(3, n)`.
fn random_cfg(rng: &mut SplitMix64) -> Cfg {
    let n = 2 + rng.pick(7);
    Cfg {
        n,
        k: 1 + rng.pick(3.min(n)),
        racks_extra: rng.pick(3),
        nodes_extra: 1 + rng.pick(2),
        stripes: 1 + rng.pick(11),
        seed: rng.next_u64(),
    }
}

/// Run `check(tag, cfg)` on every seeded case.
fn for_each_cfg(mut check: impl FnMut(&str, &Cfg)) {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let c = random_cfg(&mut rng);
        check(&format!("case {case} {c:?}"), &c);
    }
}

fn build(c: &Cfg) -> Store {
    let params = CodeParams::new(c.n, c.k);
    Store::build(StoreConfig {
        params,
        racks: params.rack_count() + 1 + c.racks_extra,
        nodes_per_rack: c.k + c.nodes_extra,
        stripes: c.stripes,
        block_bytes: 1 << 16,
        preplace_p0: true,
        seed: c.seed,
    })
}

#[test]
fn random_stores_keep_per_stripe_invariants() {
    for_each_cfg(|tag, c| {
        let s = build(c);
        assert_eq!(s.stripe_count(), c.stripes, "{tag}");
        for i in 0..s.stripe_count() {
            let p = s.placement(i);
            assert!(
                p.is_single_rack_fault_tolerant(s.topology()),
                "{tag}: stripe {i}"
            );
            // One node never hosts two blocks of the same stripe.
            for b in s.config().params.all_blocks() {
                assert_eq!(p.block_on(p.node_of(b)), Some(b), "{tag}: stripe {i}");
            }
        }
    });
}

#[test]
fn any_node_failure_recovers_with_rpr() {
    for_each_cfg(|tag, c| {
        let s = build(c);
        let profile = BandwidthProfile::simics_default(s.topology().rack_count());
        // The busiest node is the worst case; an empty node is a no-op.
        let node = s
            .topology()
            .nodes()
            .max_by_key(|&n| s.blocks_on_node(n).len())
            .unwrap();
        let affected = s.affected_stripes(Failure::Node(node)).len();
        let out = s.recover(
            Failure::Node(node),
            Scheme::Rpr,
            &profile,
            CostModel::free(),
            &RecoveryOptions::default(),
        );
        assert_eq!(out.stripes_repaired, affected, "{tag}");
        assert_eq!(out.stripe_finish.len(), affected, "{tag}");
        if affected > 0 {
            assert!(out.makespan > 0.0 && out.makespan.is_finite(), "{tag}");
            assert!(
                out.cross_rack_bytes.is_multiple_of(s.config().block_bytes),
                "{tag}"
            );
        } else {
            assert_eq!(out.makespan, 0.0, "{tag}");
        }
    });
}

#[test]
fn any_rack_failure_recovers_with_rpr() {
    for_each_cfg(|tag, c| {
        let s = build(c);
        let profile = BandwidthProfile::simics_default(s.topology().rack_count());
        let rack = RackId(c.seed as usize % s.topology().rack_count());
        let affected = s.affected_stripes(Failure::Rack(rack));
        // Per-stripe losses never exceed k (single-rack fault tolerance).
        for (stripe, blocks) in &affected {
            assert!(blocks.len() <= c.k, "{tag}: stripe {stripe}");
        }
        let out = s.recover(
            Failure::Rack(rack),
            Scheme::Rpr,
            &profile,
            CostModel::free(),
            &RecoveryOptions::default(),
        );
        assert_eq!(out.stripes_repaired, affected.len(), "{tag}");
        assert!(out.makespan.is_finite(), "{tag}");
    });
}
