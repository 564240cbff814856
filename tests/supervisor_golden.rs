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
    ("4,2/block/empty/s8", 0xdd56e32262583e92),
    ("4,2/block/empty/s17", 0xdcbd83c722e9b9b6),
    ("4,2/block/empty/s4242", 0x879a2dfdcc199876),
    ("4,2/block/crash/s8", 0x72f0fc49a54f9c43),
    ("4,2/block/crash/s17", 0x6359befee302ed5a),
    ("4,2/block/crash/s4242", 0x5ba9295e8e123856),
    ("4,2/block/crash-replacement-timeout/s8", 0x353e3a716f999bdc),
    ("4,2/block/crash-replacement-timeout/s17", 0x4b6a220c3a801640),
    ("4,2/block/crash-replacement-timeout/s4242", 0x4b6a220c3a801640),
    ("4,2/block/corrupt/s8", 0x8d697ea312ab3e3d),
    ("4,2/block/corrupt/s17", 0x691fcf625ecfd5b0),
    ("4,2/block/corrupt/s4242", 0x702048209a4ed3d4),
    ("4,2/block/rack/s8", 0xd22478b5237c3a27),
    ("4,2/block/rack/s17", 0xc4ac41cd3c003e3f),
    ("4,2/block/rack/s4242", 0xb11517f568b862d6),
    ("4,2/block/lie-off/s8", 0x34bb0d67b9a7fb8b),
    ("4,2/block/lie-off/s17", 0x34ed328c0621f36a),
    ("4,2/block/lie-off/s4242", 0xc87a62eccf35292a),
    ("4,2/block/lie-advisory/s8", 0x94989a3e53246e04),
    ("4,2/block/lie-advisory/s17", 0x731604edd2474855),
    ("4,2/block/lie-advisory/s4242", 0x7066436b931ce519),
    ("4,2/block/lie-mandatory/s8", 0x7062729b6b653c1c),
    ("4,2/block/lie-mandatory/s17", 0xf6dd3f5f20b8c6a9),
    ("4,2/block/lie-mandatory/s4242", 0x5807f452c550cae2),
    ("4,2/block/lie+crash-advisory/s8", 0x7c4019b909024db6),
    ("4,2/block/lie+crash-advisory/s17", 0x8165bcd12a0fc383),
    ("4,2/block/lie+crash-advisory/s4242", 0x53308c5abc704170),
    ("4,2/block/slow-hedge/s8", 0x814a584f27466e05),
    ("4,2/block/slow-hedge/s17", 0xdc7da7b4d9713c03),
    ("4,2/block/slow-hedge/s4242", 0xfc921666162fa67f),
    ("4,2/block/slow+crash/s8", 0xbeaa8425fb2fe5fc),
    ("4,2/block/slow+crash/s17", 0x0ff65c3b7c93d81e),
    ("4,2/block/slow+crash/s4242", 0x0a191217d873d99a),
    ("4,2/block/ladder/s8", 0xb78eea63fcf76374),
    ("4,2/block/ladder/s17", 0xcb8250d568335931),
    ("4,2/block/ladder/s4242", 0x10cd2699ee532c95),
    ("4,2/block/deadline/s8", 0xe48914b8e652bcb0),
    ("4,2/block/deadline/s17", 0xc28316902364a669),
    ("4,2/block/deadline/s4242", 0x1df88c4268416dcc),
    ("4,2/chunk/empty/s8", 0x3fe4cbc45da135be),
    ("4,2/chunk/empty/s17", 0x006ad7a4d7dc9cda),
    ("4,2/chunk/empty/s4242", 0xf9e90e8afb41a68e),
    ("4,2/chunk/crash/s8", 0x76b51b3d32e396a9),
    ("4,2/chunk/crash/s17", 0x31c5fa6f99cac66e),
    ("4,2/chunk/crash/s4242", 0x157cdcb37ce78642),
    ("4,2/chunk/crash-replacement-timeout/s8", 0xfd3a9eb35c7003cc),
    ("4,2/chunk/crash-replacement-timeout/s17", 0x83fc9a9c4fb28030),
    ("4,2/chunk/crash-replacement-timeout/s4242", 0x83fc9a9c4fb28030),
    ("4,2/chunk/corrupt/s8", 0x0f0c0ec830dcd1ec),
    ("4,2/chunk/corrupt/s17", 0x6195647ce475862f),
    ("4,2/chunk/corrupt/s4242", 0x70faca1becff789b),
    ("4,2/chunk/rack/s8", 0x65fda8a16ec3e349),
    ("4,2/chunk/rack/s17", 0x3f710209e0bd141b),
    ("4,2/chunk/rack/s4242", 0x0e6b1fda066b928d),
    ("4,2/chunk/lie-off/s8", 0x935a919de34d391c),
    ("4,2/chunk/lie-off/s17", 0x65b6446b005acf89),
    ("4,2/chunk/lie-off/s4242", 0x4a79f4f67c32f4fd),
    ("4,2/chunk/lie-advisory/s8", 0xe34581b80c42a382),
    ("4,2/chunk/lie-advisory/s17", 0x538ad3f3515e2cde),
    ("4,2/chunk/lie-advisory/s4242", 0x4f7b6105f30ca58b),
    ("4,2/chunk/lie-mandatory/s8", 0x352ecf66996f9a68),
    ("4,2/chunk/lie-mandatory/s17", 0xadf7bdf28df92f15),
    ("4,2/chunk/lie-mandatory/s4242", 0x84cc1b194c829620),
    ("4,2/chunk/lie+crash-advisory/s8", 0xb6de71b871bb8f81),
    ("4,2/chunk/lie+crash-advisory/s17", 0x9e7177f468d58488),
    ("4,2/chunk/lie+crash-advisory/s4242", 0xc1ef49eb2a52d868),
    ("4,2/chunk/slow-hedge/s8", 0xd1b37f249361e6a9),
    ("4,2/chunk/slow-hedge/s17", 0x2060ada0a0344ca3),
    ("4,2/chunk/slow-hedge/s4242", 0x1f8a9e6b36ea912f),
    ("4,2/chunk/slow+crash/s8", 0x685dac94796feca2),
    ("4,2/chunk/slow+crash/s17", 0xc1109e18ec624fef),
    ("4,2/chunk/slow+crash/s4242", 0x798d390af0100051),
    ("4,2/chunk/ladder/s8", 0x62db3516b8d5068c),
    ("4,2/chunk/ladder/s17", 0x98d1893c0fa5b8ff),
    ("4,2/chunk/ladder/s4242", 0xf549f691fdec89bd),
    ("4,2/chunk/deadline/s8", 0x00a4fb871dd04ea0),
    ("4,2/chunk/deadline/s17", 0x4391bb90d70fb629),
    ("4,2/chunk/deadline/s4242", 0xcea3ec095f376f6a),
    ("6,3/block/empty/s8", 0xc742df0994b63f81),
    ("6,3/block/empty/s17", 0x20f5935dee0df69b),
    ("6,3/block/empty/s4242", 0x2aaef083c28baccb),
    ("6,3/block/crash/s8", 0xaeec7c8e8982db2b),
    ("6,3/block/crash/s17", 0x16a3a0f2dfb312cf),
    ("6,3/block/crash/s4242", 0x920752e41f51be2b),
    ("6,3/block/crash-replacement-timeout/s8", 0x0858a894e794b51e),
    ("6,3/block/crash-replacement-timeout/s17", 0x24b4fabefb3f1af2),
    ("6,3/block/crash-replacement-timeout/s4242", 0x5f7022455cc60069),
    ("6,3/block/corrupt/s8", 0xdb2370d4e683113e),
    ("6,3/block/corrupt/s17", 0xe5150c33b5649ff4),
    ("6,3/block/corrupt/s4242", 0x6a4e479513cfa15f),
    ("6,3/block/rack/s8", 0xa64a590d6501f242),
    ("6,3/block/rack/s17", 0x6bd1d1fc0634c948),
    ("6,3/block/rack/s4242", 0x049e448a77835200),
    ("6,3/block/lie-off/s8", 0x7b180b2a464693f5),
    ("6,3/block/lie-off/s17", 0x9ed9275d8b20bc58),
    ("6,3/block/lie-off/s4242", 0x92b674ff256fee9f),
    ("6,3/block/lie-advisory/s8", 0xe5c9e65632c34896),
    ("6,3/block/lie-advisory/s17", 0x07476ab33ce053a0),
    ("6,3/block/lie-advisory/s4242", 0xecc815d7c8036afc),
    ("6,3/block/lie-mandatory/s8", 0xdd710bedefbbcf98),
    ("6,3/block/lie-mandatory/s17", 0x94710f298b9ba88d),
    ("6,3/block/lie-mandatory/s4242", 0x35ebc964ed91360e),
    ("6,3/block/lie+crash-advisory/s8", 0x5849aad0675d8c36),
    ("6,3/block/lie+crash-advisory/s17", 0x0e0817687b789aa6),
    ("6,3/block/lie+crash-advisory/s4242", 0xdfc658048777955e),
    ("6,3/block/slow-hedge/s8", 0x6db9d172b82377be),
    ("6,3/block/slow-hedge/s17", 0x439393f02820f6b0),
    ("6,3/block/slow-hedge/s4242", 0x505fe33cff76575c),
    ("6,3/block/slow+crash/s8", 0x6470f480a7260250),
    ("6,3/block/slow+crash/s17", 0x4f066597fbd93ae1),
    ("6,3/block/slow+crash/s4242", 0xe83ba94918bf8789),
    ("6,3/block/ladder/s8", 0x015bc22f450d5b7c),
    ("6,3/block/ladder/s17", 0xae9094fded14fd45),
    ("6,3/block/ladder/s4242", 0xb1d98a336f4b8fac),
    ("6,3/block/deadline/s8", 0xc25f9786143bd303),
    ("6,3/block/deadline/s17", 0x3ad98f70fbfdc6af),
    ("6,3/block/deadline/s4242", 0x39c98a1e60dbca7d),
    ("6,3/chunk/empty/s8", 0xa1ca980c6a195002),
    ("6,3/chunk/empty/s17", 0xbe168d00262a5e06),
    ("6,3/chunk/empty/s4242", 0xa4040701b3cdec2a),
    ("6,3/chunk/crash/s8", 0xdaba8ecb23f9d316),
    ("6,3/chunk/crash/s17", 0x52705195c8687905),
    ("6,3/chunk/crash/s4242", 0x54612bd837bb3945),
    ("6,3/chunk/crash-replacement-timeout/s8", 0x5374f9037092b659),
    ("6,3/chunk/crash-replacement-timeout/s17", 0x266702d2df0bf8b7),
    ("6,3/chunk/crash-replacement-timeout/s4242", 0x1caf2e2aae55081d),
    ("6,3/chunk/corrupt/s8", 0x5b021862dba70e32),
    ("6,3/chunk/corrupt/s17", 0x8252fc26ac1a83ee),
    ("6,3/chunk/corrupt/s4242", 0x864482a01665f702),
    ("6,3/chunk/rack/s8", 0xd053f64aa749c8ec),
    ("6,3/chunk/rack/s17", 0x7a5102a379c19935),
    ("6,3/chunk/rack/s4242", 0x7bd891221757434a),
    ("6,3/chunk/lie-off/s8", 0xf80eb86941631a86),
    ("6,3/chunk/lie-off/s17", 0xdf0125b515e053da),
    ("6,3/chunk/lie-off/s4242", 0xf3807d00f764b256),
    ("6,3/chunk/lie-advisory/s8", 0x8e85967d715d1ba3),
    ("6,3/chunk/lie-advisory/s17", 0x3b62577fc2dfb79e),
    ("6,3/chunk/lie-advisory/s4242", 0x339c29c65e0cd3e5),
    ("6,3/chunk/lie-mandatory/s8", 0x2804b812032cfa2f),
    ("6,3/chunk/lie-mandatory/s17", 0x6d58bc225b832595),
    ("6,3/chunk/lie-mandatory/s4242", 0x487b9a8dcffe20f6),
    ("6,3/chunk/lie+crash-advisory/s8", 0x76d4a816aa37944d),
    ("6,3/chunk/lie+crash-advisory/s17", 0xc15b5854b37a014c),
    ("6,3/chunk/lie+crash-advisory/s4242", 0x29a644c1158cdddf),
    ("6,3/chunk/slow-hedge/s8", 0x6634a051840e44f0),
    ("6,3/chunk/slow-hedge/s17", 0x464cb4d6d36bf021),
    ("6,3/chunk/slow-hedge/s4242", 0xf449e7b36c7ed1f1),
    ("6,3/chunk/slow+crash/s8", 0xf74d4f86940e5558),
    ("6,3/chunk/slow+crash/s17", 0x6e84e7f571b17279),
    ("6,3/chunk/slow+crash/s4242", 0x1e30db5138fc01c2),
    ("6,3/chunk/ladder/s8", 0xb9b462627d4a1abc),
    ("6,3/chunk/ladder/s17", 0xa0951f3fd1715889),
    ("6,3/chunk/ladder/s4242", 0xc5f526381294fee4),
    ("6,3/chunk/deadline/s8", 0x736e208253db0c26),
    ("6,3/chunk/deadline/s17", 0x605558f2ec79741c),
    ("6,3/chunk/deadline/s4242", 0xd4a6a76be5113054),
    ("8,4/block/empty/s8", 0xbf880e766c823d06),
    ("8,4/block/empty/s17", 0x95239df7cb471722),
    ("8,4/block/empty/s4242", 0x9be6471bba1082ba),
    ("8,4/block/crash/s8", 0x475aea65acd33dbb),
    ("8,4/block/crash/s17", 0x3a176ce90d7b9685),
    ("8,4/block/crash/s4242", 0x8385c89a758a3879),
    ("8,4/block/crash-replacement-timeout/s8", 0x9fbe573a9ccf9f66),
    ("8,4/block/crash-replacement-timeout/s17", 0xaca3c4a8be646c0a),
    ("8,4/block/crash-replacement-timeout/s4242", 0xc3503460f0758939),
    ("8,4/block/corrupt/s8", 0x711cb4b6690c9600),
    ("8,4/block/corrupt/s17", 0xc37623f981dcd4e9),
    ("8,4/block/corrupt/s4242", 0xa902192d722ea485),
    ("8,4/block/rack/s8", 0xb09c625958e9914b),
    ("8,4/block/rack/s17", 0x54ed6a610da5374d),
    ("8,4/block/rack/s4242", 0xf7e6a12ad1c9c4f5),
    ("8,4/block/lie-off/s8", 0xe0124368d4e34970),
    ("8,4/block/lie-off/s17", 0x7ccd3fd37b20abd4),
    ("8,4/block/lie-off/s4242", 0xd17e44b51013ba2c),
    ("8,4/block/lie-advisory/s8", 0x0d50657f9da1f43d),
    ("8,4/block/lie-advisory/s17", 0xa9cf0797d347dae1),
    ("8,4/block/lie-advisory/s4242", 0xc5ba520c3895f402),
    ("8,4/block/lie-mandatory/s8", 0x6452e70ebc27586b),
    ("8,4/block/lie-mandatory/s17", 0xfca6dfbfaade56da),
    ("8,4/block/lie-mandatory/s4242", 0xc5caace1a2b60e5c),
    ("8,4/block/lie+crash-advisory/s8", 0xdc02a61ab642f64f),
    ("8,4/block/lie+crash-advisory/s17", 0xae2907528376d614),
    ("8,4/block/lie+crash-advisory/s4242", 0x9dfd45d007f7a90b),
    ("8,4/block/slow-hedge/s8", 0xe71ef3f9053647b2),
    ("8,4/block/slow-hedge/s17", 0xf291f49ad7721be2),
    ("8,4/block/slow-hedge/s4242", 0xe726946e7b9ceafa),
    ("8,4/block/slow+crash/s8", 0x0295a9bf1e22219d),
    ("8,4/block/slow+crash/s17", 0x8463104ddcffed1f),
    ("8,4/block/slow+crash/s4242", 0x071ee6b47e228228),
    ("8,4/block/ladder/s8", 0xd1bc8fa4cb78f62a),
    ("8,4/block/ladder/s17", 0xfb997573f6c383af),
    ("8,4/block/ladder/s4242", 0xc4adf42ac4791d4c),
    ("8,4/block/deadline/s8", 0xc1ec8f727aaec831),
    ("8,4/block/deadline/s17", 0x0b9ff73ffdf7d2f3),
    ("8,4/block/deadline/s4242", 0x320d32575a8ac781),
    ("8,4/chunk/empty/s8", 0x901737f890e85ddc),
    ("8,4/chunk/empty/s17", 0x6eecba418861f768),
    ("8,4/chunk/empty/s4242", 0x3069eee369aeaf40),
    ("8,4/chunk/crash/s8", 0x1449876c9b29c53c),
    ("8,4/chunk/crash/s17", 0x6a557ef5da71d1b9),
    ("8,4/chunk/crash/s4242", 0x5b63d90abfd2c641),
    ("8,4/chunk/crash-replacement-timeout/s8", 0xeb6541f5de1b5f49),
    ("8,4/chunk/crash-replacement-timeout/s17", 0xf8224a030baa5338),
    ("8,4/chunk/crash-replacement-timeout/s4242", 0xe14a9c82f899c7c1),
    ("8,4/chunk/corrupt/s8", 0x3cdbbe580d3f07af),
    ("8,4/chunk/corrupt/s17", 0xee46f02d9b960475),
    ("8,4/chunk/corrupt/s4242", 0x700d7411dd0ca2ad),
    ("8,4/chunk/rack/s8", 0x62b1507b8917a84b),
    ("8,4/chunk/rack/s17", 0xde134c66c1f2cdad),
    ("8,4/chunk/rack/s4242", 0xf6618dc7374d28a2),
    ("8,4/chunk/lie-off/s8", 0x18cfd611e8272ad8),
    ("8,4/chunk/lie-off/s17", 0x955725860045d7c8),
    ("8,4/chunk/lie-off/s4242", 0xc686b8a80dbd9770),
    ("8,4/chunk/lie-advisory/s8", 0xd648303e70b2ec56),
    ("8,4/chunk/lie-advisory/s17", 0xdb623d4ee23e465c),
    ("8,4/chunk/lie-advisory/s4242", 0xce872a371fb6e88c),
    ("8,4/chunk/lie-mandatory/s8", 0xf47dd04d91bcfc05),
    ("8,4/chunk/lie-mandatory/s17", 0xfe3af475ac342011),
    ("8,4/chunk/lie-mandatory/s4242", 0x167871546b66a347),
    ("8,4/chunk/lie+crash-advisory/s8", 0xe2b9964acabed73b),
    ("8,4/chunk/lie+crash-advisory/s17", 0x888818b2bdcd7d50),
    ("8,4/chunk/lie+crash-advisory/s4242", 0xe5fc182197ad559a),
    ("8,4/chunk/slow-hedge/s8", 0x940c3e9694940533),
    ("8,4/chunk/slow-hedge/s17", 0x90e5c55dc544d685),
    ("8,4/chunk/slow-hedge/s4242", 0x7721ee70cf2b30f9),
    ("8,4/chunk/slow+crash/s8", 0x5dbbacf74a166742),
    ("8,4/chunk/slow+crash/s17", 0xfd99b0df696c7f10),
    ("8,4/chunk/slow+crash/s4242", 0xd63f62140f335ba2),
    ("8,4/chunk/ladder/s8", 0x4672dbe7a74aee1d),
    ("8,4/chunk/ladder/s17", 0xf9691775d0ef5ee7),
    ("8,4/chunk/ladder/s4242", 0x1ce479f5d4501406),
    ("8,4/chunk/deadline/s8", 0xe5950fc5235cf0a8),
    ("8,4/chunk/deadline/s17", 0xdd171c553b7fe046),
    ("8,4/chunk/deadline/s4242", 0xad8d10f901fa6017),
];
