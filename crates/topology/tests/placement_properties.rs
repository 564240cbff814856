//! Properties of placements and bandwidth profiles.
//!
//! The placement properties are exhaustive over their whole range: every
//! code `1 <= k <= n <= 16, k <= 6` (81 codes), under every policy each
//! property names. The profile property runs [`CASES`] cases drawn from
//! [`SplitMix64`] seeded with [`SEED`]; a failure names the case.

use rpr_codec::CodeParams;
use rpr_faults::SplitMix64;
use rpr_topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy, RackId, Topology};

const SEED: u64 = 0x1F83_D9AB_FB41_BD6B;
const CASES: usize = 96;

/// Every code the placement properties range over.
fn all_codes() -> impl Iterator<Item = CodeParams> {
    (1usize..=16).flat_map(|n| (1..=n.min(6)).map(move |k| CodeParams::new(n, k)))
}

#[test]
fn compact_and_preplaced_are_always_fault_tolerant() {
    assert_eq!(all_codes().count(), 81);
    for params in all_codes() {
        let topo = cluster_for(params, 1, 0);
        for policy in [PlacementPolicy::Compact, PlacementPolicy::RprPreplaced] {
            let tag = format!("{params:?} {policy:?}");
            let p = Placement::by_policy(policy, params, &topo);
            assert!(p.is_single_rack_fault_tolerant(&topo), "{tag}");
            // Bijectivity: every block on a distinct node, round-trips.
            for b in params.all_blocks() {
                assert_eq!(p.block_on(p.node_of(b)), Some(b), "{tag}");
            }
            // Rack counts: each rack holds at most k blocks.
            for rack in topo.racks() {
                assert!(p.blocks_in_rack(rack, &topo).len() <= params.k, "{tag}");
            }
        }
    }
}

#[test]
fn preplacement_colocates_p0_when_possible() {
    // k = 1 places one block per rack, so no parity can ever share a
    // rack with data; for k >= 2 the swap must land P0 with data.
    for params in all_codes().filter(|p| p.k >= 2 && p.rack_count() >= 2 && p.n >= 2) {
        let topo = cluster_for(params, 1, 0);
        let p = Placement::rpr_preplaced(params, &topo);
        assert!(p.p0_colocated_with_data(&topo), "{params:?}");
    }
}

#[test]
fn flat_placement_spreads_one_block_per_rack() {
    for params in all_codes() {
        let topo = Topology::uniform(params.total(), 2);
        let p = Placement::flat(params, &topo);
        for rack in topo.racks() {
            assert!(p.blocks_in_rack(rack, &topo).len() <= 1, "{params:?}");
        }
        assert!(p.is_single_rack_fault_tolerant(&topo), "{params:?}");
    }
}

#[test]
fn uniform_profile_statistics() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let racks = 1 + case % 7;
        let inner = 1.0 + rng.next_f64() * (1e9 - 1.0);
        let ratio = 1.0 + rng.next_f64() * 99.0;
        let tag = format!("case {case}: racks {racks} inner {inner} ratio {ratio}");
        let profile = BandwidthProfile::uniform(racks, inner, inner / ratio);
        assert!(
            (profile.mean_inner() - inner).abs() < inner * 1e-12,
            "{tag}"
        );
        if racks > 1 {
            assert!(
                (profile.cross_to_inner_ratio() - ratio).abs() < ratio * 1e-9,
                "{tag}"
            );
        }
        // Scaling preserves the ratio exactly.
        let scaled = profile.scaled(0.125);
        assert!(
            (scaled.cross_to_inner_ratio() - profile.cross_to_inner_ratio()).abs() < 1e-9,
            "{tag}"
        );
        // Transfer time is inversely proportional to rate.
        if racks > 1 {
            let t1 = profile.transfer_time(RackId(0), RackId(1), 1_000_000);
            let t2 = scaled.transfer_time(RackId(0), RackId(1), 1_000_000);
            assert!((t2 / t1 - 8.0).abs() < 1e-9, "{tag}");
        }
    }
}

#[test]
fn replacement_nodes_exist_with_spares() {
    for params in all_codes() {
        let topo = cluster_for(params, 2, 0);
        let p = Placement::compact(params, &topo);
        for rack in topo.racks() {
            let r = p.replacement_in(rack, &topo);
            assert!(r.is_some(), "{params:?}: rack {rack:?} must have a spare");
            let node = r.unwrap();
            assert_eq!(topo.rack_of(node), rack, "{params:?}");
            assert_eq!(p.block_on(node), None, "{params:?}");
        }
    }
}
