//! Per-layer probes: direct calls into each crate's public functions at a
//! fixed size, timed from outside. They run in every traced run, whatever
//! the workload, so each layer has a number of its own to set beside the
//! workload's spans.

use crate::gen;
use crate::stats;
use crate::workloads::exec::ExecWorld;
use crate::workloads::sim::SimWorld;
use rpr_codec::{BlockId, CodeParams, PartialDecoder, StripeCodec};
use rpr_core::{
    simulate, supervise_injected, CostModel, RepairPlanner, SuperviseConfig, TraditionalPlanner,
};
use rpr_faults::{FaultStorm, HealthTracker, SplitMix64, StormFault};
use rpr_netsim::Network;
use rpr_obs::{export, NoopRecorder, Recorder, TraceRecorder};
use rpr_proof::{ProofKey, ProofMode};
use rpr_sched::{schedule_fleet, BandwidthArbiter, Demand, FleetJob};
use rpr_store::{Failure, FleetRecoveryOptions, Store, StoreConfig};
use rpr_topology::{BandwidthProfile, NodeId, Topology};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Buffer size for the kernel probes: fits in L2, as the folds see it.
const KERNEL_BYTES: usize = 256 << 10;
/// Block size for the codec, checksum and hash probes.
const BLOCK: usize = 1 << 20;
const FAST: Duration = Duration::from_millis(40);

/// A probe's value and how many timed calls it summarises.
pub type Probes = BTreeMap<&'static str, (f64, usize)>;

/// Median seconds per call of `f`, over at least three calls and `budget`.
fn time(budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    f(); // warm
    let began = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 3 || began.elapsed() < budget {
        let t = Instant::now();
        f();
        per_call.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&per_call), per_call.len())
}

/// Bytes per call and seconds per call → GB/s.
fn gbps(bytes: usize, (secs, n): (f64, usize)) -> (f64, usize) {
    (bytes as f64 / secs / 1e9, n)
}

fn mbps(bytes: usize, (secs, n): (f64, usize)) -> (f64, usize) {
    (bytes as f64 / secs / 1e6, n)
}

fn scaled(by: f64, (secs, n): (f64, usize)) -> (f64, usize) {
    (secs * by, n)
}

pub fn run_all(seed: u64) -> Probes {
    let mut out = Probes::new();
    kernels(seed, &mut out);
    codec(seed, &mut out);
    hashes(seed, &mut out);
    proof_audit(seed, &mut out);
    netsim_scaling(&mut out);
    sched_admission(&mut out);
    store(seed, &mut out);
    obs_export(seed, &mut out);
    out
}

fn kernels(seed: u64, out: &mut Probes) {
    let blocks = gen::data_blocks(seed, 6, KERNEL_BYTES);
    let mut dst = vec![0u8; KERNEL_BYTES];
    let t = time(FAST, || {
        rpr_gf::mul_acc_slice(0x1d, black_box(&blocks[0]), &mut dst)
    });
    out.insert("gf.mul_acc_gbps", gbps(KERNEL_BYTES, t));
    let t = time(FAST, || rpr_gf::xor_slice(&mut dst, black_box(&blocks[1])));
    out.insert("gf.xor_gbps", gbps(KERNEL_BYTES, t));

    // Three parity rows over six data blocks: the shape of an RS(6,3) encode.
    let codec = StripeCodec::new(CodeParams::new(6, 3));
    let rows: Vec<&[u8]> = (0..3).map(|r| codec.coding_matrix().row(r)).collect();
    let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
    let mut outs = vec![vec![0u8; KERNEL_BYTES]; 3];
    let t = time(FAST, || {
        let mut o: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        rpr_gf::lin_comb_multi(&rows, black_box(&refs), &mut o);
    });
    out.insert("gf.lin_comb_multi_gbps", gbps(6 * KERNEL_BYTES, t));
}

fn codec(seed: u64, out: &mut Probes) {
    let codec = StripeCodec::new(CodeParams::new(12, 4));
    let data = gen::data_blocks(seed, 12, BLOCK);
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let t = time(FAST, || {
        black_box(codec.encode_stripe(black_box(&refs)));
    });
    out.insert("codec.encode_mbps", mbps(12 * BLOCK, t));
    let stripe = codec.encode_stripe(&refs);

    // Decode one block with four gone, so a 12x12 survivor matrix must be
    // inverted. The gone set moves on each call, then stays put (d0..d3,
    // the all-parity worst case), so a per-pattern cache would show.
    let decode = |first_gone: usize| {
        let gone: Vec<usize> = (0..4).map(|i| (first_gone + i) % 16).collect();
        let survivors: Vec<(BlockId, &[u8])> = (0..16)
            .filter(|b| !gone.contains(b))
            .map(|b| (BlockId(b), stripe[b].as_slice()))
            .collect();
        let got = codec.decode(black_box(&survivors), &[BlockId(first_gone)]);
        assert!(
            got[0] == stripe[first_gone],
            "decode of block {first_gone} is wrong"
        );
    };
    let mut next = 0;
    let t = time(FAST, || {
        decode(next % 16);
        next += 1;
    });
    out.insert("codec.decode_mbps", mbps(BLOCK, t));
    let t = time(FAST, || decode(0));
    out.insert("codec.decode_repeat_mbps", mbps(BLOCK, t));

    // The eq.-6 path: d0 = d1 ^ ... ^ d11 ^ p0, pure XOR folds.
    let t = time(FAST, || {
        let mut pd = PartialDecoder::new(BLOCK);
        for blk in &stripe[1..=12] {
            pd.fold(1, black_box(blk));
        }
        black_box(pd.finish());
    });
    out.insert("codec.xor_decode_mbps", mbps(BLOCK, t));

    let helpers: Vec<BlockId> = (4..16).map(BlockId).collect();
    let lost: Vec<BlockId> = (0..4).map(BlockId).collect();
    let t = time(FAST, || {
        black_box(codec.repair_equations(black_box(&lost), black_box(&helpers)));
    });
    out.insert("codec.repair_equations_us", scaled(1e6, t));

    // The 12x12 matrix that worst-case decode inverts.
    let rows: Vec<usize> = (4..16).collect();
    let survivors = codec.generator().select_rows(&rows);
    let t = time(FAST, || {
        black_box(
            black_box(&survivors)
                .inverse()
                .expect("MDS rows are invertible"),
        );
    });
    out.insert("linalg.invert_us", scaled(1e6, t));
}

fn hashes(seed: u64, out: &mut Probes) {
    let block = &gen::data_blocks(seed, 1, BLOCK)[0];
    let t = time(FAST, || {
        black_box(rpr_faults::checksum64(black_box(block)));
    });
    out.insert("faults.checksum_gbps", gbps(BLOCK, t));
    let key = ProofKey::from_seed(seed);
    let t = time(FAST, || {
        black_box(rpr_proof::hash_bytes(key, black_box(block)));
    });
    out.insert("proof.hash_gbps", gbps(BLOCK, t));
}

/// Audit the ledger of a simulated (12,4) repair that met a lying helper.
fn proof_audit(seed: u64, out: &mut Probes) {
    let world = SimWorld::new(12, 4);
    let ctx = world.ctx(&[1], None);
    let cfg = SuperviseConfig {
        proof: ProofMode::Mandatory,
        ..SuperviseConfig::default()
    };
    let storm = FaultStorm::new(seed).with_generation(vec![StormFault::Lie]);
    let mut tracker = HealthTracker::with_defaults();
    let ledger = supervise_injected(&ctx, &storm, &cfg, &mut tracker, rpr_obs::noop())
        .expect("a lone lie never exceeds the replan budget")
        .ledger;
    let t = time(FAST, || {
        black_box(black_box(&ledger).audit());
    });
    out.insert("proof.audit_ms", scaled(1e3, t));
}

/// How `simulate` scales with the job count: log2 of its time on one
/// (6,3) plan at 512 KiB chunks over its time at 1 MiB chunks. Twice the
/// jobs for 1 (linear) to 2 (quadratic) doublings of the time.
fn netsim_scaling(out: &mut Probes) {
    let world = SimWorld::new(6, 3);
    let planner = TraditionalPlanner::new();
    let sim_s = |chunk: u64| {
        let ctx = world.ctx(&[1], Some(chunk));
        let plan = planner.plan(&ctx);
        time(Duration::ZERO, || {
            black_box(simulate(black_box(&plan), &ctx));
        })
    };
    let (coarse, n) = sim_s(1 << 20);
    let (fine, _) = sim_s(512 << 10);
    out.insert("netsim.scaling_exponent", ((fine / coarse).log2(), n));
}

/// Raw admission throughput of `schedule_fleet` over a pre-costed 100k
/// backlog (the lane of `crates/bench/benches/fleet.rs`, ten times longer).
fn sched_admission(out: &mut Probes) {
    const STRIPES: u32 = 100_000;
    let net = Network::new(
        Topology::uniform(16, 8),
        BandwidthProfile::simics_default(16),
    );
    let cross = net.cross_class_rate(NodeId(0));
    let mut rng = SplitMix64::new(0x9E37_79B9_7F4A_7C15);
    let jobs: Vec<FleetJob> = (0..STRIPES)
        .map(|stripe| FleetJob {
            stripe,
            level: rng.pick(3) + 1,
            duration: (rng.pick(900) + 100) as f64 / 100.0,
            arrival: 0.0,
            cross_bytes: 256 << 20,
            inner_bytes: 512 << 20,
        })
        .collect();
    let demands: Vec<Demand> = (0..STRIPES)
        .map(|_| Demand {
            entries: vec![(
                BandwidthArbiter::uplink(rng.pick(16 * 8)),
                (rng.pick(100) + 1) as f64 / 100.0 * cross,
            )],
        })
        .collect();
    let t = time(Duration::ZERO, || {
        let mut arb = BandwidthArbiter::new(&net);
        black_box(schedule_fleet(
            &jobs,
            &mut |i| demands[i].clone(),
            &mut arb,
            &NoopRecorder,
        ));
    });
    out.insert("sched.admit_stripes_per_s", (STRIPES as f64 / t.0, t.1));
}

/// The store wrapper over sched + core: build 10k stripes, then route the
/// busiest node's failure through the fleet scheduler.
fn store(seed: u64, out: &mut Probes) {
    let config = StoreConfig {
        stripes: 10_000,
        racks: 16,
        nodes_per_rack: 16,
        seed,
        ..StoreConfig::example()
    };
    let t = time(Duration::ZERO, || {
        black_box(Store::build(config.clone()));
    });
    out.insert("store.build_ms", scaled(1e3, t));
    let store = Store::build(config);
    let node = store
        .topology()
        .nodes()
        .max_by_key(|&n| store.blocks_on_node(n).len())
        .expect("the store has nodes");
    let profile = BandwidthProfile::simics_default(store.topology().rack_count());
    let t = time(Duration::ZERO, || {
        let got = store.recover_fleet(
            Failure::Node(node),
            &profile,
            CostModel::free(),
            &FleetRecoveryOptions::default(),
            rpr_obs::noop(),
        );
        assert_eq!(got.summary.repaired, got.stripes_affected);
    });
    out.insert("store.recover_fleet_ms", scaled(1e3, t));
}

/// JSON-lines export of the events one small traced repair records.
fn obs_export(seed: u64, out: &mut Probes) {
    let world = ExecWorld::new(seed, 256 << 10, Some(16 << 10), |racks| {
        BandwidthProfile::uniform(racks, 1e12, 1e12)
    });
    let rec = TraceRecorder::default();
    let ctx = world.ctx(&[0, 4]);
    let mut tracker = HealthTracker::with_defaults();
    let cfg = SuperviseConfig::default();
    rpr_exec::execute_supervised(
        &ctx,
        &world.stripe,
        &rec as &dyn Recorder,
        &FaultStorm::new(seed),
        &cfg,
        &mut tracker,
    )
    .expect("a clean repair completes");
    let events = rec.take_events();
    let bytes = export::to_json_lines(&events).len();
    let t = time(FAST, || {
        black_box(export::to_json_lines(black_box(&events)));
    });
    out.insert("obs.export_mb_per_s", mbps(bytes, t));
}
