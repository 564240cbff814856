//! Golden oracle for the simulated supervisor.
//!
//! Every other supervisor check in this repository compares a build with
//! itself (same-seed determinism soaks, sim-vs-exec agreement). This one
//! compares a build with its *parent*: a fixed matrix of paper codes ×
//! block / 8 MiB-chunk mode × fault storms × seeds runs through
//! [`supervise_injected`], and each case must reproduce a committed
//! FNV-1a digest over the exported trace, the proof ledger, and every
//! field of the outcome (or the error message, for storms that kill more
//! than `k` helpers). A refactor of the supervision loop must leave the
//! table untouched; a deliberate behaviour change updates exactly the
//! rows it explains.
//!
//! To regenerate after a deliberate change, run the test: on mismatch it
//! prints the full table in source form.

use rpr::codec::{BlockId, CodeParams, StripeCodec};
use rpr::core::{supervise_injected, CostModel, RepairContext, SuperviseConfig};
use rpr::faults::{CrashSite, FaultStorm, HealthTracker, StormFault};
use rpr::obs::{export, TraceRecorder};
use rpr::topology::{cluster_for, BandwidthProfile, Placement};
use rpr_proof::ProofMode;

const CODES: [(usize, usize); 3] = [(4, 2), (6, 3), (8, 4)];
const SEEDS: [u64; 3] = [8, 17, 4242];
const BLOCK: u64 = 64 << 20;
const CHUNK: u64 = 8 << 20;

/// The storm matrix: `(name, per-generation buckets, config)`.
fn storms() -> Vec<(&'static str, Vec<Vec<StormFault>>, SuperviseConfig)> {
    let crash = StormFault::Crash(CrashSite::SeedPick);
    let base = SuperviseConfig::default;
    let proof = |proof| SuperviseConfig { proof, ..base() };
    vec![
        ("empty", vec![], base()),
        ("crash", vec![vec![crash]], base()),
        (
            "crash-replacement-timeout",
            vec![
                vec![crash],
                vec![StormFault::Crash(CrashSite::NewHelper)],
                vec![StormFault::Timeout],
            ],
            base(),
        ),
        ("corrupt", vec![vec![StormFault::Corrupt]], base()),
        ("rack", vec![vec![StormFault::RackOutage]], base()),
        (
            "lie-off",
            vec![vec![StormFault::Lie]],
            proof(ProofMode::Off),
        ),
        (
            "lie-advisory",
            vec![vec![StormFault::Lie]],
            proof(ProofMode::Advisory),
        ),
        (
            "lie-mandatory",
            vec![vec![StormFault::Lie]],
            proof(ProofMode::Mandatory),
        ),
        // A tainted partial banked at the crash and re-served afterwards.
        (
            "lie+crash-advisory",
            vec![vec![StormFault::Lie, crash]],
            proof(ProofMode::Advisory),
        ),
        (
            "slow-hedge",
            vec![vec![StormFault::Slow { factor: 0.1 }]],
            SuperviseConfig {
                hedge: Some(2.0),
                ..base()
            },
        ),
        // A derate injected before a replan (does it persist?).
        (
            "slow+crash",
            vec![vec![StormFault::Slow { factor: 0.25 }, crash]],
            base(),
        ),
        // max_replans + 2 crashes walk the whole tier ladder.
        (
            "ladder",
            vec![vec![crash], vec![crash]],
            SuperviseConfig {
                max_replans: 0,
                ..base()
            },
        ),
        // Breached at the crash and again (per wave and whole-repair) in
        // the final generation, with proofs on to pin their relative order.
        (
            "deadline",
            vec![vec![crash], vec![StormFault::Lie]],
            SuperviseConfig {
                deadline: Some(1.0),
                proof: ProofMode::Advisory,
                ..base()
            },
        ),
    ]
}

fn digest(n: usize, k: usize, chunked: bool, storm: &FaultStorm, cfg: &SuperviseConfig) -> u64 {
    let params = CodeParams::new(n, k);
    let codec = StripeCodec::new(params);
    let topo = cluster_for(params, 1, 1);
    let placement = Placement::rpr_preplaced(params, &topo);
    let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
    let mut ctx = RepairContext::new(
        &codec,
        &topo,
        &placement,
        vec![BlockId(1)],
        BLOCK,
        &profile,
        CostModel::simics(),
    );
    if chunked {
        ctx = ctx.with_chunk_size(CHUNK);
    }
    let rec = TraceRecorder::with_capacity(1 << 16);
    let mut tracker = HealthTracker::with_defaults();
    let result = supervise_injected(&ctx, storm, cfg, &mut tracker, &rec);
    let mut text = export::to_json_lines(&rec.take_events());
    match result {
        Ok(o) => {
            text.push_str(&o.ledger.to_json_lines());
            text.push_str(&format!(
                "{:016x} {:016x} {} {} {} {} {:?} {} {} {} {:?} {} {} {} {} {} {:?}",
                o.repair_time.to_bits(),
                o.clean_time.to_bits(),
                o.retries,
                o.replans,
                o.reused_ops,
                o.final_scheme,
                o.final_tier,
                o.hedges,
                o.hedge_wins,
                o.deadline_hit,
                o.fault_sites,
                o.cross_bytes,
                o.inner_bytes,
                o.proofs_emitted,
                o.proofs_rejected,
                o.accusations,
                o.generations,
            ));
        }
        Err(e) => text.push_str(&format!("err: {e}")),
    }
    fnv1a(text.as_bytes())
}

/// The digest the committed table was taken with: private, so the table
/// does not move when the transport checksum does.
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn supervise_injected_reproduces_the_parent_commit() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    for (n, k) in CODES {
        for chunked in [false, true] {
            for (name, buckets, cfg) in storms() {
                for seed in SEEDS {
                    let mut storm = FaultStorm::new(seed);
                    for b in &buckets {
                        storm = storm.with_generation(b.clone());
                    }
                    let mode = if chunked { "chunk" } else { "block" };
                    actual.push((
                        format!("{n},{k}/{mode}/{name}/s{seed}"),
                        digest(n, k, chunked, &storm, &cfg),
                    ));
                }
            }
        }
    }
    let differing: Vec<&str> = actual
        .iter()
        .zip(GOLDEN.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|((name, d), g)| *g != Some(&(name.as_str(), *d)))
        .map(|((name, _), _)| name.as_str())
        .collect();
    if !differing.is_empty() || actual.len() != GOLDEN.len() {
        for (name, d) in &actual {
            eprintln!("    (\"{name}\", 0x{d:016x}),");
        }
        panic!(
            "{} of {} golden digests differ: {differing:?}",
            differing.len(),
            actual.len()
        );
    }
}

/// Generated at the parent of the supervisor unification (commit d7f8979).
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("4,2/block/empty/s8", 0xaea5feeb98cff3e1),
    ("4,2/block/empty/s17", 0xb93de1ec6cac5dcf),
    ("4,2/block/empty/s4242", 0x1f6f45f16b87e2ff),
    ("4,2/block/crash/s8", 0xd3f60cc72e5a491b),
    ("4,2/block/crash/s17", 0xb3da941afd263eda),
    ("4,2/block/crash/s4242", 0x2e746a52b1fec5d6),
    ("4,2/block/crash-replacement-timeout/s8", 0x353e3a716f999bdc),
    ("4,2/block/crash-replacement-timeout/s17", 0x4b6a220c3a801640),
    ("4,2/block/crash-replacement-timeout/s4242", 0x4b6a220c3a801640),
    ("4,2/block/corrupt/s8", 0xd67c8d83776afde7),
    ("4,2/block/corrupt/s17", 0x703065a41722eaa0),
    ("4,2/block/corrupt/s4242", 0x0b601bf6359e0c04),
    ("4,2/block/rack/s8", 0x69cafa7ba25c2151),
    ("4,2/block/rack/s17", 0x5ae8fbfe5c286652),
    ("4,2/block/rack/s4242", 0xd1f7eb811dbede86),
    ("4,2/block/lie-off/s8", 0x7c3c3067983c1f64),
    ("4,2/block/lie-off/s17", 0xd7bd7202cfbd110f),
    ("4,2/block/lie-off/s4242", 0x17357be8eef2199f),
    ("4,2/block/lie-advisory/s8", 0xea35c45a4d12dad3),
    ("4,2/block/lie-advisory/s17", 0xbe6f02a9c7814786),
    ("4,2/block/lie-advisory/s4242", 0xe176f5046b9668ba),
    ("4,2/block/lie-mandatory/s8", 0x3b1c11ad4e7b248e),
    ("4,2/block/lie-mandatory/s17", 0x1b375a4e5199b160),
    ("4,2/block/lie-mandatory/s4242", 0x208f886fa9058627),
    ("4,2/block/lie+crash-advisory/s8", 0x8dca1b4dea8bb3be),
    ("4,2/block/lie+crash-advisory/s17", 0x89a4de9cf433d45b),
    ("4,2/block/lie+crash-advisory/s4242", 0xef29e5105ee31768),
    ("4,2/block/slow-hedge/s8", 0x06afba4a8383c597),
    ("4,2/block/slow-hedge/s17", 0x2fd85a5f8bf8676f),
    ("4,2/block/slow-hedge/s4242", 0xb755f8050eac6ce3),
    ("4,2/block/slow+crash/s8", 0x7f2494839bfd4258),
    ("4,2/block/slow+crash/s17", 0x06ae90f909a79fc1),
    ("4,2/block/slow+crash/s4242", 0x07ce8608b18dc7ef),
    ("4,2/block/ladder/s8", 0xb78eea63fcf76374),
    ("4,2/block/ladder/s17", 0xcb8250d568335931),
    ("4,2/block/ladder/s4242", 0x10cd2699ee532c95),
    ("4,2/block/deadline/s8", 0xcb2e2e59b0a4ea28),
    ("4,2/block/deadline/s17", 0x56884298798ace49),
    ("4,2/block/deadline/s4242", 0x4978cf68973145ac),
    ("4,2/chunk/empty/s8", 0x129c11ed882ea012),
    ("4,2/chunk/empty/s17", 0xbc08b76ba80d5f8e),
    ("4,2/chunk/empty/s4242", 0x71e777fd464e797a),
    ("4,2/chunk/crash/s8", 0x31e08692d77f9034),
    ("4,2/chunk/crash/s17", 0x819171a21e403929),
    ("4,2/chunk/crash/s4242", 0x6bd8276bbbc13ef1),
    ("4,2/chunk/crash-replacement-timeout/s8", 0xfd3a9eb35c7003cc),
    ("4,2/chunk/crash-replacement-timeout/s17", 0xe84596e4b8d6443e),
    ("4,2/chunk/crash-replacement-timeout/s4242", 0xe84596e4b8d6443e),
    ("4,2/chunk/corrupt/s8", 0xe3dc76af926dd693),
    ("4,2/chunk/corrupt/s17", 0xf1f67e0093428942),
    ("4,2/chunk/corrupt/s4242", 0x760c36658f84f662),
    ("4,2/chunk/rack/s8", 0xb862ac2fffc08dfb),
    ("4,2/chunk/rack/s17", 0xea24c32da228c4ec),
    ("4,2/chunk/rack/s4242", 0xfa0dc10055560380),
    ("4,2/chunk/lie-off/s8", 0x28c175b1560d1cb8),
    ("4,2/chunk/lie-off/s17", 0xeba43a2e0d7e0dfd),
    ("4,2/chunk/lie-off/s4242", 0x49057abd26623429),
    ("4,2/chunk/lie-advisory/s8", 0x4e35923d1d49e13e),
    ("4,2/chunk/lie-advisory/s17", 0x934d502407903952),
    ("4,2/chunk/lie-advisory/s4242", 0x1d614b30b4c13927),
    ("4,2/chunk/lie-mandatory/s8", 0x02eaba1ca562aea8),
    ("4,2/chunk/lie-mandatory/s17", 0x8f23c75d3ca2943a),
    ("4,2/chunk/lie-mandatory/s4242", 0x68400d1e01470eff),
    ("4,2/chunk/lie+crash-advisory/s8", 0x467fd8fb2343624e),
    ("4,2/chunk/lie+crash-advisory/s17", 0xc90dcc14f2a7fd39),
    ("4,2/chunk/lie+crash-advisory/s4242", 0x45cce1f9659be0fd),
    ("4,2/chunk/slow-hedge/s8", 0x8d960a151d8c530a),
    ("4,2/chunk/slow-hedge/s17", 0x9ff44484f0a17136),
    ("4,2/chunk/slow-hedge/s4242", 0xc057c5edadc6b1ee),
    ("4,2/chunk/slow+crash/s8", 0x82945bfb7b884d6c),
    ("4,2/chunk/slow+crash/s17", 0x6f1c38b2b75a69f2),
    ("4,2/chunk/slow+crash/s4242", 0x1fffb8d4610b90e0),
    ("4,2/chunk/ladder/s8", 0x62db3516b8d5068c),
    ("4,2/chunk/ladder/s17", 0xac41b69ed0fba64d),
    ("4,2/chunk/ladder/s4242", 0x9d8726d9558b6553),
    ("4,2/chunk/deadline/s8", 0xc141cfef5f709805),
    ("4,2/chunk/deadline/s17", 0xaa1e025e371daac9),
    ("4,2/chunk/deadline/s4242", 0xe6daeb9373c04b8a),
    ("6,3/block/empty/s8", 0x8b2a0c94c59c87d6),
    ("6,3/block/empty/s17", 0xf27eee29834a4b72),
    ("6,3/block/empty/s4242", 0x094c3d634be31b0a),
    ("6,3/block/crash/s8", 0x3c617f2a4258f0ef),
    ("6,3/block/crash/s17", 0x5fa9deb45209ccbb),
    ("6,3/block/crash/s4242", 0xa479688ec96845cf),
    ("6,3/block/crash-replacement-timeout/s8", 0x55c35e9a03d3d1c1),
    ("6,3/block/crash-replacement-timeout/s17", 0x94037d71d9c0a66b),
    ("6,3/block/crash-replacement-timeout/s4242", 0x36a3d8018ebe3551),
    ("6,3/block/corrupt/s8", 0x545452d2c66238c2),
    ("6,3/block/corrupt/s17", 0x9f4ca3ead41ac097),
    ("6,3/block/corrupt/s4242", 0xfce11945715893c8),
    ("6,3/block/rack/s8", 0x5f9f4489705507a1),
    ("6,3/block/rack/s17", 0xbcfca25d1262d0ec),
    ("6,3/block/rack/s4242", 0xa7236d02cbf33f79),
    ("6,3/block/lie-off/s8", 0xc53c56e41ad74096),
    ("6,3/block/lie-off/s17", 0x49ab7a29be7829eb),
    ("6,3/block/lie-off/s4242", 0x82fcdc7d39064c36),
    ("6,3/block/lie-advisory/s8", 0x039c3439e77e9a97),
    ("6,3/block/lie-advisory/s17", 0xb14b0fcfb3117013),
    ("6,3/block/lie-advisory/s4242", 0x01dce3dfa7d585f9),
    ("6,3/block/lie-mandatory/s8", 0x45e4660c0c61a667),
    ("6,3/block/lie-mandatory/s17", 0x9b8849cffc362d29),
    ("6,3/block/lie-mandatory/s4242", 0x36d1a8b6ef6576a5),
    ("6,3/block/lie+crash-advisory/s8", 0x0d51f1a2f05d8242),
    ("6,3/block/lie+crash-advisory/s17", 0x4807da0f5fc3c79a),
    ("6,3/block/lie+crash-advisory/s4242", 0x611955c3ac0f1c12),
    ("6,3/block/slow-hedge/s8", 0x9ea8f006a279de61),
    ("6,3/block/slow-hedge/s17", 0x187601d02329c401),
    ("6,3/block/slow-hedge/s4242", 0xaa451125dfb26f4f),
    ("6,3/block/slow+crash/s8", 0x3a8f2657a961a56c),
    ("6,3/block/slow+crash/s17", 0xa3775f8ce817e62c),
    ("6,3/block/slow+crash/s4242", 0x3fafe3147dd60e75),
    ("6,3/block/ladder/s8", 0xb46fa4e564bd77a6),
    ("6,3/block/ladder/s17", 0x0a4eb3d8090716fd),
    ("6,3/block/ladder/s4242", 0x43d904ad0c9328e4),
    ("6,3/block/deadline/s8", 0x3d7a06fe5ba93fff),
    ("6,3/block/deadline/s17", 0xd7b8fc2987a99f5b),
    ("6,3/block/deadline/s4242", 0xfbf70501f0dd93c9),
    ("6,3/chunk/empty/s8", 0xa546aa3fd4fb294c),
    ("6,3/chunk/empty/s17", 0x2e20ae36ddb08bd8),
    ("6,3/chunk/empty/s4242", 0x40f2b9788f2620f8),
    ("6,3/chunk/crash/s8", 0x93b97876db35c5cc),
    ("6,3/chunk/crash/s17", 0x0956cc73406139ba),
    ("6,3/chunk/crash/s4242", 0xf94df4f37276c49e),
    ("6,3/chunk/crash-replacement-timeout/s8", 0x704114e1b8127a65),
    ("6,3/chunk/crash-replacement-timeout/s17", 0x8c0d6e7a2c2edce6),
    ("6,3/chunk/crash-replacement-timeout/s4242", 0x3858cc87a7490bfa),
    ("6,3/chunk/corrupt/s8", 0xa3445442628768d2),
    ("6,3/chunk/corrupt/s17", 0x23207545f941bc5f),
    ("6,3/chunk/corrupt/s4242", 0x2a74755425d4c721),
    ("6,3/chunk/rack/s8", 0x33dd1844527d785d),
    ("6,3/chunk/rack/s17", 0xca0b93c539bfec69),
    ("6,3/chunk/rack/s4242", 0xdaa76f665e3a65ce),
    ("6,3/chunk/lie-off/s8", 0x3d1c135c9e462c2c),
    ("6,3/chunk/lie-off/s17", 0x31ae42bb4b14d6e8),
    ("6,3/chunk/lie-off/s4242", 0x71c4a9e7faa5fa28),
    ("6,3/chunk/lie-advisory/s8", 0xfacae8d0b2d54aed),
    ("6,3/chunk/lie-advisory/s17", 0xcfb835a0913ee3b4),
    ("6,3/chunk/lie-advisory/s4242", 0x029513f44743a79b),
    ("6,3/chunk/lie-mandatory/s8", 0x0ae9d7a5a0c75f18),
    ("6,3/chunk/lie-mandatory/s17", 0xb764a41dc70e45df),
    ("6,3/chunk/lie-mandatory/s4242", 0x53ff739164193384),
    ("6,3/chunk/lie+crash-advisory/s8", 0xa97bf1d25251a3a4),
    ("6,3/chunk/lie+crash-advisory/s17", 0x1ca15970b6a2fa63),
    ("6,3/chunk/lie+crash-advisory/s4242", 0xc8ebb5640842f381),
    ("6,3/chunk/slow-hedge/s8", 0x5d7d5460e753db12),
    ("6,3/chunk/slow-hedge/s17", 0x4b870bbc1a8bb430),
    ("6,3/chunk/slow-hedge/s4242", 0x1563c720b2a33379),
    ("6,3/chunk/slow+crash/s8", 0x25e373a795eec8eb),
    ("6,3/chunk/slow+crash/s17", 0xa99a7df0b5905254),
    ("6,3/chunk/slow+crash/s4242", 0x0ef6613932803b09),
    ("6,3/chunk/ladder/s8", 0x2fb5c7b5bc8303a3),
    ("6,3/chunk/ladder/s17", 0x54bf8176bdf1c39e),
    ("6,3/chunk/ladder/s4242", 0x0b66b593b645300c),
    ("6,3/chunk/deadline/s8", 0xc8aec90d8342de38),
    ("6,3/chunk/deadline/s17", 0x87337de86f137242),
    ("6,3/chunk/deadline/s4242", 0xc2211d4e665f13fa),
    ("8,4/block/empty/s8", 0xc0fede938a589e7b),
    ("8,4/block/empty/s17", 0x3c45701bca1b8a11),
    ("8,4/block/empty/s4242", 0x8da7c7686587bb95),
    ("8,4/block/crash/s8", 0x7b45691b34344253),
    ("8,4/block/crash/s17", 0x9067bff4f7b2fbb6),
    ("8,4/block/crash/s4242", 0xb13fdaeaad7ac5d2),
    ("8,4/block/crash-replacement-timeout/s8", 0xeed8d1b267b1bbdb),
    ("8,4/block/crash-replacement-timeout/s17", 0xfed2fe59a0403543),
    ("8,4/block/crash-replacement-timeout/s4242", 0x35700ab674c0216b),
    ("8,4/block/corrupt/s8", 0xaaabf8ba7e5adaef),
    ("8,4/block/corrupt/s17", 0x65a5b2fb1522caff),
    ("8,4/block/corrupt/s4242", 0xf2fb856f27341987),
    ("8,4/block/rack/s8", 0xe7687dd72afc624f),
    ("8,4/block/rack/s17", 0x714888f9bcb32240),
    ("8,4/block/rack/s4242", 0x9df151ddfcde3353),
    ("8,4/block/lie-off/s8", 0xe0c0c49c3e34872b),
    ("8,4/block/lie-off/s17", 0x89bc40fb1e7ba359),
    ("8,4/block/lie-off/s4242", 0xd24c0fc34ffaabb5),
    ("8,4/block/lie-advisory/s8", 0xa3f71eef79ba932c),
    ("8,4/block/lie-advisory/s17", 0xe228356e75f47a0a),
    ("8,4/block/lie-advisory/s4242", 0xfee98984011329b9),
    ("8,4/block/lie-mandatory/s8", 0x83d5a49641d0f066),
    ("8,4/block/lie-mandatory/s17", 0x36b802749e0ba5f0),
    ("8,4/block/lie-mandatory/s4242", 0x3a708bcda48d130a),
    ("8,4/block/lie+crash-advisory/s8", 0xc0dbcda1b3389c2c),
    ("8,4/block/lie+crash-advisory/s17", 0x5e96426ee50176bd),
    ("8,4/block/lie+crash-advisory/s4242", 0xc07d965970c686e3),
    ("8,4/block/slow-hedge/s8", 0xe71ef3f9053647b2),
    ("8,4/block/slow-hedge/s17", 0x626989734a6cadbe),
    ("8,4/block/slow-hedge/s4242", 0x82870172a0893b5e),
    ("8,4/block/slow+crash/s8", 0x26245ecdf42dbe0f),
    ("8,4/block/slow+crash/s17", 0x7f0f6118abc90d4c),
    ("8,4/block/slow+crash/s4242", 0xe302e9e26db2fa10),
    ("8,4/block/ladder/s8", 0xf7e3973caa20d112),
    ("8,4/block/ladder/s17", 0xca44095abc61ad57),
    ("8,4/block/ladder/s4242", 0xccbdd6cc34a5ff84),
    ("8,4/block/deadline/s8", 0xaf6ce6a8ce2b6ba9),
    ("8,4/block/deadline/s17", 0x2c74dcaed9eb0deb),
    ("8,4/block/deadline/s4242", 0x1fbaf39f7c56af69),
    ("8,4/chunk/empty/s8", 0x87a48aeb0c2ed4dd),
    ("8,4/chunk/empty/s17", 0x663f283610c7e913),
    ("8,4/chunk/empty/s4242", 0x8581961d8480eaaf),
    ("8,4/chunk/crash/s8", 0x76d42d289037cb89),
    ("8,4/chunk/crash/s17", 0x3a413ace7699c3f4),
    ("8,4/chunk/crash/s4242", 0x97bcd03f27fe1bcc),
    ("8,4/chunk/crash-replacement-timeout/s8", 0x08aa06e9fe509160),
    ("8,4/chunk/crash-replacement-timeout/s17", 0x7d0a327a26174d46),
    ("8,4/chunk/crash-replacement-timeout/s4242", 0x910bcf9250daac2c),
    ("8,4/chunk/corrupt/s8", 0x00361a68a1c62f88),
    ("8,4/chunk/corrupt/s17", 0xd64813af93d1346a),
    ("8,4/chunk/corrupt/s4242", 0x2cee14485e07849a),
    ("8,4/chunk/rack/s8", 0x23b8cb7c8c283600),
    ("8,4/chunk/rack/s17", 0xbd9c3e0fd5e18dcf),
    ("8,4/chunk/rack/s4242", 0x6aa52c1938483a01),
    ("8,4/chunk/lie-off/s8", 0x6ff6007f21283971),
    ("8,4/chunk/lie-off/s17", 0x1f78b5643d0ec7eb),
    ("8,4/chunk/lie-off/s4242", 0xb2cea0cf6073497f),
    ("8,4/chunk/lie-advisory/s8", 0x8dc7923893eef033),
    ("8,4/chunk/lie-advisory/s17", 0xba67b8c4dbf5de55),
    ("8,4/chunk/lie-advisory/s4242", 0xcfa78b7c70b61539),
    ("8,4/chunk/lie-mandatory/s8", 0x96f4efce136ccbee),
    ("8,4/chunk/lie-mandatory/s17", 0x40d08e5a279c826b),
    ("8,4/chunk/lie-mandatory/s4242", 0x45033211b07a3abd),
    ("8,4/chunk/lie+crash-advisory/s8", 0x4ce5296bb7d8a524),
    ("8,4/chunk/lie+crash-advisory/s17", 0x180005ee482b5571),
    ("8,4/chunk/lie+crash-advisory/s4242", 0xeaed6ccf3764db49),
    ("8,4/chunk/slow-hedge/s8", 0x5ab3a215bd7fe079),
    ("8,4/chunk/slow-hedge/s17", 0x995239c851806490),
    ("8,4/chunk/slow-hedge/s4242", 0xf8c237329308e948),
    ("8,4/chunk/slow+crash/s8", 0x4894d93ef639634c),
    ("8,4/chunk/slow+crash/s17", 0x94d1e5eb7d10e5e4),
    ("8,4/chunk/slow+crash/s4242", 0x12ff9945329f2ca6),
    ("8,4/chunk/ladder/s8", 0xa8d65d01b328b10b),
    ("8,4/chunk/ladder/s17", 0x3544387f32057cd6),
    ("8,4/chunk/ladder/s4242", 0x5b2203e2db97aa56),
    ("8,4/chunk/deadline/s8", 0xb44884a69ed7fedb),
    ("8,4/chunk/deadline/s17", 0x13257b41dbcd260e),
    ("8,4/chunk/deadline/s4242", 0x37d26478852c59ff),
];
