//! Golden simulator reports over the `sim_sweep` benchmark's case set:
//! the six paper codes × RPR / CAR / Traditional for a single failure,
//! plus (8,4) with two failures and (12,4) with four (RPR and
//! Traditional), at 64 MiB blocks in 1 MiB chunks.
//!
//! Each plan pins its `SimReport`'s makespan bits, its job count and an
//! FNV-1a digest of every record's `(start, finish)` bits, so any change
//! to the engine's arithmetic — or to which candidate the RPR planner's
//! simulated search keeps — shows as a changed row. The values were
//! recorded with the rescanning engine that the event-driven one
//! replaced.

use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_core::{
    simulate, CarPlanner, CostModel, RepairContext, RepairPlanner, RprPlanner, TraditionalPlanner,
};
use rpr_netsim::SimReport;
use rpr_topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy};

const BLOCK: u64 = 64 << 20;
const CHUNK: u64 = 1 << 20;

/// `(code, failed blocks, planner, makespan bits, jobs, record digest)`.
type Row = (
    (usize, usize),
    &'static [usize],
    &'static str,
    u64,
    usize,
    u64,
);

const GOLDEN: &[Row] = &[
    (
        (4, 2),
        &[1],
        "rpr",
        0x4015d1116ed7121a,
        512,
        0xa5c26b24a358f927,
    ),
    (
        (4, 2),
        &[1],
        "traditional",
        0x40357aa1c2ef0e9d,
        320,
        0x0f58617f7511e24b,
    ),
    (
        (4, 2),
        &[1],
        "car",
        0x40257b2b334e4fe0,
        448,
        0x9697a33b01d84a2c,
    ),
    (
        (6, 2),
        &[1],
        "rpr",
        0x401627811abf1577,
        768,
        0xe9de35ea541e15db,
    ),
    (
        (6, 2),
        &[1],
        "traditional",
        0x40401bf952334af5,
        448,
        0x8fa39afb2467b3c0,
    ),
    (
        (6, 2),
        &[1],
        "car",
        0x40301c3e0a62eba3,
        640,
        0xd10a093fa627a0bc,
    ),
    (
        (8, 2),
        &[1],
        "rpr",
        0x40167df0c6a718e5,
        1024,
        0x3f534b35449aec88,
    ),
    (
        (8, 2),
        &[1],
        "traditional",
        0x40457aa1c2ef0e9d,
        576,
        0x11a9af2f0cce7a93,
    ),
    (
        (8, 2),
        &[1],
        "car",
        0x40357ae67b1eaf48,
        832,
        0x945c1b47b1fb5a70,
    ),
    (
        (6, 3),
        &[1],
        "rpr",
        0x4015d1116ed7121d,
        768,
        0x7becbeaee1b00c5b,
    ),
    (
        (6, 3),
        &[1],
        "traditional",
        0x40401bf952334af5,
        448,
        0x8fa39afb2467b3c0,
    ),
    (
        (6, 3),
        &[1],
        "car",
        0x40257b2b334e4fe1,
        704,
        0x95c875cfc46b126e,
    ),
    (
        (8, 4),
        &[1],
        "rpr",
        0x4015d0e39eb751b4,
        1024,
        0x0ee13f5ba5ff2e11,
    ),
    (
        (8, 4),
        &[1],
        "traditional",
        0x40457aa1c2ef0e9d,
        576,
        0x11a9af2f0cce7a93,
    ),
    (
        (8, 4),
        &[1],
        "car",
        0x40257b2b334e4fd4,
        960,
        0xd3b4983848fe6cc8,
    ),
    (
        (12, 4),
        &[1],
        "rpr",
        0x40162776ec7f239b,
        1536,
        0x925e0d65899c8543,
    ),
    (
        (12, 4),
        &[1],
        "traditional",
        0x40501bf952334af5,
        832,
        0x8e6c90d9d1ae23a2,
    ),
    (
        (12, 4),
        &[1],
        "car",
        0x40301c3e0a62eb94,
        1408,
        0x6ea3927628ae86c9,
    ),
    (
        (8, 4),
        &[0, 4],
        "rpr",
        0x4025d2adbff4d5c9,
        1152,
        0x7d9152930ad32462,
    ),
    (
        (8, 4),
        &[0, 4],
        "traditional",
        0x40457bb4a3ad9118,
        640,
        0xb1867b3ecf615011,
    ),
    (
        (12, 4),
        &[0, 3, 6, 9],
        "rpr",
        0x40362a3e4c334814,
        3136,
        0x4908f4030a600e49,
    ),
    (
        (12, 4),
        &[0, 3, 6, 9],
        "traditional",
        0x40501e63cbdff06f,
        1024,
        0x77053dc862e7437f,
    ),
];

/// FNV-1a over the little-endian bytes of every record's start and
/// finish bits, in job order.
fn digest(report: &SimReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in &report.records {
        for word in [r.start.to_bits(), r.finish.to_bits()] {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// `(code, failed blocks, planners)`.
type Case = ((usize, usize), Vec<usize>, Vec<&'static str>);

/// The case set, in the benchmark's order.
fn cases() -> Vec<Case> {
    let codes = [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)];
    let mut out: Vec<_> = codes
        .iter()
        .map(|&c| (c, vec![1], vec!["rpr", "traditional", "car"]))
        .collect();
    out.push(((8, 4), vec![0, 4], vec!["rpr", "traditional"]));
    out.push(((12, 4), vec![0, 3, 6, 9], vec!["rpr", "traditional"]));
    out
}

fn planner(name: &str) -> Box<dyn RepairPlanner> {
    match name {
        "rpr" => Box::new(RprPlanner::new()),
        "car" => Box::new(CarPlanner::new()),
        _ => Box::new(TraditionalPlanner::new()),
    }
}

#[test]
fn sim_sweep_reports_match_the_recorded_engine() {
    let mut got: Vec<String> = Vec::new();
    for ((n, k), failed, planners) in cases() {
        let params = CodeParams::new(n, k);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::by_policy(PlacementPolicy::RprPreplaced, params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let codec = StripeCodec::new(params);
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            failed.iter().map(|&b| BlockId(b)).collect(),
            BLOCK,
            &profile,
            CostModel::simics().scaled_for_block(BLOCK),
        )
        .with_chunk_size(CHUNK);
        for name in planners {
            let p = planner(name);
            assert_eq!(p.name(), name, "planner names");
            let report = simulate(&p.plan(&ctx), &ctx).report;
            got.push(format!(
                "(({n}, {k}), &{failed:?}, {name:?}, {:#018x}, {}, {:#018x}),",
                report.makespan.to_bits(),
                report.records.len(),
                digest(&report)
            ));
        }
    }
    let want: Vec<String> = GOLDEN
        .iter()
        .map(|((n, k), failed, name, bits, jobs, dig)| {
            format!("(({n}, {k}), &{failed:?}, {name:?}, {bits:#018x}, {jobs}, {dig:#018x}),")
        })
        .collect();
    assert_eq!(got, want, "\nrecomputed rows:\n{}", got.join("\n"));
}
