//! Property-based tests over randomized store configurations: placement
//! invariants and recovery sanity must hold for any cluster the
//! constructor accepts.

use proptest::prelude::*;
use rpr_codec::CodeParams;
use rpr_core::CostModel;
use rpr_store::{Failure, RecoveryOptions, Scheme, Store, StoreConfig};
use rpr_topology::{BandwidthProfile, RackId};

#[derive(Debug, Clone)]
struct Cfg {
    n: usize,
    k: usize,
    racks_extra: usize,
    nodes_extra: usize,
    stripes: usize,
    seed: u64,
}

fn cfg_strategy() -> impl Strategy<Value = Cfg> {
    (
        (2usize..=8),
        (1usize..=3),
        0usize..3,
        1usize..3,
        1usize..12,
        any::<u64>(),
    )
        .prop_filter("k <= n", |&(n, k, ..)| k <= n)
        .prop_map(|(n, k, racks_extra, nodes_extra, stripes, seed)| Cfg {
            n,
            k,
            racks_extra,
            nodes_extra,
            stripes,
            seed,
        })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_stores_keep_per_stripe_invariants(c in cfg_strategy()) {
        let s = build(&c);
        prop_assert_eq!(s.stripe_count(), c.stripes);
        for i in 0..s.stripe_count() {
            let p = s.placement(i);
            prop_assert!(p.is_single_rack_fault_tolerant(s.topology()), "stripe {i}");
            // One node never hosts two blocks of the same stripe.
            for b in s.config().params.all_blocks() {
                prop_assert_eq!(p.block_on(p.node_of(b)), Some(b));
            }
        }
    }

    #[test]
    fn any_node_failure_recovers_with_rpr(c in cfg_strategy()) {
        let s = build(&c);
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
        prop_assert_eq!(out.stripes_repaired, affected);
        prop_assert_eq!(out.stripe_finish.len(), affected);
        if affected > 0 {
            prop_assert!(out.makespan > 0.0 && out.makespan.is_finite());
            prop_assert!(out.cross_rack_bytes.is_multiple_of(s.config().block_bytes));
        } else {
            prop_assert_eq!(out.makespan, 0.0);
        }
    }

    #[test]
    fn any_rack_failure_recovers_with_rpr(c in cfg_strategy()) {
        let s = build(&c);
        let profile = BandwidthProfile::simics_default(s.topology().rack_count());
        let rack = RackId(c.seed as usize % s.topology().rack_count());
        let affected = s.affected_stripes(Failure::Rack(rack));
        // Per-stripe losses never exceed k (single-rack fault tolerance).
        for (stripe, blocks) in &affected {
            prop_assert!(blocks.len() <= c.k, "stripe {stripe}");
        }
        let out = s.recover(
            Failure::Rack(rack),
            Scheme::Rpr,
            &profile,
            CostModel::free(),
            &RecoveryOptions::default(),
        );
        prop_assert_eq!(out.stripes_repaired, affected.len());
        prop_assert!(out.makespan.is_finite());
    }
}
