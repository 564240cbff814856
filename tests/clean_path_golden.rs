//! Golden oracle for the clean (fault-free) repair paths.
//!
//! `tests/supervisor_golden.rs` pins the supervised loop; this file pins
//! the two unsupervised entry points every backend-shared rule feeds:
//!
//! * [`simulate_traced`]: an FNV-1a digest over the exported JSON-lines
//!   trace, the makespan bits and the simulator's traffic counters, for
//!   the six paper codes × block / 8 MiB-chunk mode × the four planners
//!   on a single failure, plus RPR and traditional on one multi-failure
//!   case each. The simulator is deterministic, so every field —
//!   timestamps, kernels, labels, stream summaries, wave spans — is in
//!   the digest.
//! * [`execute_recorded`]: event order and times follow the wall clock,
//!   so the digest covers the **sorted** non-time fields of every event
//!   (type, label, endpoints, bytes, timestep, kernel, inputs, chunks)
//!   plus the report's verification and traffic.
//!
//! A refactor of lowering, labelling, kernel choice, fold costing, wave
//! spans or stream summaries must leave both tables untouched. To
//! regenerate after a deliberate change, run the test: on mismatch it
//! prints the full table in source form.

use rpr::codec::{BlockId, CodeParams, StripeCodec};
use rpr::core::{
    simulate_traced, CarPlanner, ChainPlanner, CostModel, RepairContext, RepairPlanner, RprPlanner,
    TraditionalPlanner,
};
use rpr::exec::execute_recorded;
use rpr::obs::{export, Event, TraceRecorder, Transfer};
use rpr::topology::{cluster_for, BandwidthProfile, Placement};

const PAPER_CODES: [(usize, usize); 6] = [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)];
const SIM_BLOCK: u64 = 64 << 20;
const SIM_CHUNK: u64 = 8 << 20;
const EXEC_BLOCK: u64 = 4 << 20;
const EXEC_CHUNK: u64 = 1 << 20;

/// The digest the committed tables were taken with (as in
/// `tests/supervisor_golden.rs`).
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn planner(scheme: &str) -> Box<dyn RepairPlanner> {
    match scheme {
        "rpr" => Box::new(RprPlanner::new()),
        "car" => Box::new(CarPlanner::new()),
        "traditional" => Box::new(TraditionalPlanner::new()),
        "chain" => Box::new(ChainPlanner::new()),
        other => unreachable!("unknown scheme {other}"),
    }
}

/// Every sim case: `(n, k, failed blocks, scheme)`.
fn sim_cases() -> Vec<(usize, usize, Vec<usize>, &'static str)> {
    let mut cases = Vec::new();
    for (n, k) in PAPER_CODES {
        for scheme in ["rpr", "car", "traditional", "chain"] {
            cases.push((n, k, vec![1], scheme));
        }
    }
    cases.push((6, 3, vec![0, 3], "rpr"));
    cases.push((6, 3, vec![0, 3], "traditional"));
    cases
}

fn sim_digest(n: usize, k: usize, failed: &[usize], scheme: &str, chunked: bool) -> u64 {
    let params = CodeParams::new(n, k);
    let codec = StripeCodec::new(params);
    let topo = cluster_for(params, 1, 1);
    let placement = Placement::rpr_preplaced(params, &topo);
    let profile = BandwidthProfile::simics_default(topo.rack_count());
    let mut ctx = RepairContext::new(
        &codec,
        &topo,
        &placement,
        failed.iter().copied().map(BlockId).collect(),
        SIM_BLOCK,
        &profile,
        CostModel::simics(),
    );
    if chunked {
        ctx = ctx.with_chunk_size(SIM_CHUNK);
    }
    let plan = planner(scheme).plan(&ctx);
    plan.validate(&codec, &topo, &placement)
        .expect("valid plan");
    let rec = TraceRecorder::with_capacity(1 << 16);
    let out = simulate_traced(&plan, &ctx, &rec);
    let mut text = export::to_json_lines(&rec.take_events());
    text.push_str(&format!(
        "{:016x} {} {}",
        out.repair_time.to_bits(),
        out.cross_bytes,
        out.inner_bytes
    ));
    fnv1a(text.as_bytes())
}

fn xfer_fields(x: &Transfer) -> String {
    format!(
        "{} {}/{}->{}/{} {} {} {:?}",
        x.label, x.src_node, x.src_rack, x.dst_node, x.dst_rack, x.bytes, x.cross, x.timestep
    )
}

/// An event's fields that do not follow the wall clock.
fn non_time_fields(e: &Event) -> String {
    let fields = match e {
        Event::PlanBuilt {
            scheme,
            parts,
            ops,
            cross_transfers,
            inner_transfers,
            cross_timesteps,
            block_bytes,
        } => format!(
            "{scheme} {parts} {ops} {cross_transfers} {inner_transfers} {cross_timesteps} \
             {block_bytes}"
        ),
        Event::TransferQueued { xfer, .. }
        | Event::TransferStarted { xfer, .. }
        | Event::TransferDone { xfer, .. } => xfer_fields(xfer),
        Event::CombineDone {
            label,
            node,
            rack,
            kernel,
            inputs,
            bytes,
            ..
        } => format!("{label} {node}/{rack} {} {inputs} {bytes}", kernel.name()),
        Event::StreamSummary {
            xfer,
            chunks,
            chunk_bytes,
            ..
        } => format!("{} {chunks} {chunk_bytes}", xfer_fields(xfer)),
        Event::TimestepStarted { step, .. } | Event::TimestepFinished { step, .. } => {
            step.to_string()
        }
        Event::RepairDone {
            cross_bytes,
            inner_bytes,
            ..
        } => format!("{cross_bytes} {inner_bytes}"),
        other => panic!("a clean run emitted {}", other.name()),
    };
    format!("{} {fields}", e.name())
}

/// The `(6,3)` or `(12,4)` world the exec cases share, with its
/// encoded stripe (built once per code: encoding dominates a debug run).
struct ExecWorld {
    params: CodeParams,
    codec: StripeCodec,
    stripe: Vec<Vec<u8>>,
}

impl ExecWorld {
    fn new(n: usize, k: usize) -> ExecWorld {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        let data: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                (0..EXEC_BLOCK)
                    .map(|j| (j.wrapping_mul(131).wrapping_add(i as u64 * 7 + 3)) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        let stripe = codec.encode_stripe(&refs);
        ExecWorld {
            params,
            codec,
            stripe,
        }
    }

    fn digest(&self, scheme: &str, chunked: bool) -> u64 {
        let topo = cluster_for(self.params, 1, 1);
        let placement = Placement::rpr_preplaced(self.params, &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), 4.0e9, 1.0e9);
        let mut ctx = RepairContext::new(
            &self.codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            EXEC_BLOCK,
            &profile,
            CostModel::free(),
        );
        if chunked {
            ctx = ctx.with_chunk_size(EXEC_CHUNK);
        }
        let plan = planner(scheme).plan(&ctx);
        plan.validate(&self.codec, &topo, &placement)
            .expect("valid plan");
        // A chain plan moves slices: run it on the stripe's first segment
        // (encoding is linear, so a segment of the encoding is the
        // encoding of the segment).
        let segment: Vec<Vec<u8>>;
        let stripe = if plan.block_bytes == EXEC_BLOCK {
            &self.stripe
        } else {
            let len = plan.block_bytes as usize;
            segment = self.stripe.iter().map(|b| b[..len].to_vec()).collect();
            &segment
        };
        let rec = TraceRecorder::with_capacity(1 << 16);
        let report = execute_recorded(&plan, &ctx, stripe, &rec);
        assert!(report.verified, "{scheme}: {:?}", report.mismatches);
        let mut lines: Vec<String> = rec.take_events().iter().map(non_time_fields).collect();
        lines.sort_unstable();
        lines.push(format!(
            "{} {} {:?} {}",
            report.cross_bytes,
            report.inner_bytes,
            report.mismatches,
            report.recovered.len()
        ));
        fnv1a(lines.join("\n").as_bytes())
    }
}

fn compare(actual: &[(String, u64)], golden: &[(&str, u64)]) {
    let differing: Vec<&str> = actual
        .iter()
        .zip(golden.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|((name, d), g)| *g != Some(&(name.as_str(), *d)))
        .map(|((name, _), _)| name.as_str())
        .collect();
    if !differing.is_empty() || actual.len() != golden.len() {
        for (name, d) in actual {
            eprintln!("    (\"{name}\", 0x{d:016x}),");
        }
        panic!(
            "{} of {} golden digests differ: {differing:?}",
            differing.len(),
            actual.len()
        );
    }
}

#[test]
fn simulate_traced_reproduces_the_parent_commit() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    for (n, k, failed, scheme) in sim_cases() {
        for chunked in [false, true] {
            let mode = if chunked { "chunk" } else { "block" };
            let fails: Vec<String> = failed.iter().map(|b| format!("d{b}")).collect();
            actual.push((
                format!("{n},{k}/{mode}/{scheme}/{}", fails.join("+")),
                sim_digest(n, k, &failed, scheme, chunked),
            ));
        }
    }
    compare(&actual, SIM_GOLDEN);
}

/// One code's exec cases, checked against its rows of [`EXEC_GOLDEN`]
/// (one test per code, so the two run in parallel).
fn check_exec(n: usize, k: usize) {
    let world = ExecWorld::new(n, k);
    let mut actual: Vec<(String, u64)> = Vec::new();
    for chunked in [false, true] {
        for scheme in ["rpr", "car", "traditional", "chain"] {
            let mode = if chunked { "chunk" } else { "block" };
            actual.push((
                format!("{n},{k}/{mode}/{scheme}"),
                world.digest(scheme, chunked),
            ));
        }
    }
    let prefix = format!("{n},{k}/");
    let golden: Vec<(&str, u64)> = EXEC_GOLDEN
        .iter()
        .copied()
        .filter(|(name, _)| name.starts_with(&prefix))
        .collect();
    compare(&actual, &golden);
}

#[test]
fn execute_recorded_reproduces_the_parent_commit_at_6_3() {
    check_exec(6, 3);
}

#[test]
fn execute_recorded_reproduces_the_parent_commit_at_12_4() {
    check_exec(12, 4);
}

const SIM_GOLDEN: &[(&str, u64)] = &[
    ("4,2/block/rpr/d1", 0x042812f4ad7d4ec5),
    ("4,2/chunk/rpr/d1", 0x070bc619d2586189),
    ("4,2/block/car/d1", 0xdbc5b6bb4bfe6dfb),
    ("4,2/chunk/car/d1", 0x46dd9e33bd8266ca),
    ("4,2/block/traditional/d1", 0x575a9de8654c1ad0),
    ("4,2/chunk/traditional/d1", 0x91b58fc349e069a7),
    ("4,2/block/chain/d1", 0x18c8bbf3e22230c0),
    ("4,2/chunk/chain/d1", 0x18c8bbf3e22230c0),
    ("6,2/block/rpr/d1", 0xb914705868141459),
    ("6,2/chunk/rpr/d1", 0xd8f2bc4c4cab8758),
    ("6,2/block/car/d1", 0x02134faba08204d5),
    ("6,2/chunk/car/d1", 0x26ab3386cb5cd432),
    ("6,2/block/traditional/d1", 0x04ce39db9fae8b88),
    ("6,2/chunk/traditional/d1", 0x5e49ebd25396dfa2),
    ("6,2/block/chain/d1", 0x785013f63e38209b),
    ("6,2/chunk/chain/d1", 0x785013f63e38209b),
    ("8,2/block/rpr/d1", 0x0571d2c4b9cdd94d),
    ("8,2/chunk/rpr/d1", 0x67ef35fb669f82ac),
    ("8,2/block/car/d1", 0xe3e01260329817fe),
    ("8,2/chunk/car/d1", 0x9a9bf53572306bc3),
    ("8,2/block/traditional/d1", 0xa72c7485e751fc63),
    ("8,2/chunk/traditional/d1", 0x3aaa1ab119c03109),
    ("8,2/block/chain/d1", 0xe67345d93ccb6735),
    ("8,2/chunk/chain/d1", 0xe67345d93ccb6735),
    ("6,3/block/rpr/d1", 0x8f256a2676354b12),
    ("6,3/chunk/rpr/d1", 0x4732bcddafeb55c9),
    ("6,3/block/car/d1", 0x26ea8622076611aa),
    ("6,3/chunk/car/d1", 0x4396b3daa504a40b),
    ("6,3/block/traditional/d1", 0xc98b3148cb5dd2cd),
    ("6,3/chunk/traditional/d1", 0x57d0747ec218a606),
    ("6,3/block/chain/d1", 0x19a2f3655ead6311),
    ("6,3/chunk/chain/d1", 0x19a2f3655ead6311),
    ("8,4/block/rpr/d1", 0xeba991be7e2e3f21),
    ("8,4/chunk/rpr/d1", 0x62b7cc6d0e39a5c2),
    ("8,4/block/car/d1", 0x9f93d6e6b76e8f28),
    ("8,4/chunk/car/d1", 0x30f48f127e6d9cbc),
    ("8,4/block/traditional/d1", 0x9db200a3eaaa780e),
    ("8,4/chunk/traditional/d1", 0x477c43ff8f2a4c5e),
    ("8,4/block/chain/d1", 0x4060248e409f7f0a),
    ("8,4/chunk/chain/d1", 0x4060248e409f7f0a),
    ("12,4/block/rpr/d1", 0xc9b444d4c81d9897),
    ("12,4/chunk/rpr/d1", 0xaf7f4a9c11852ed1),
    ("12,4/block/car/d1", 0x95bc0386c2700c5a),
    ("12,4/chunk/car/d1", 0xe036c220f9e42d85),
    ("12,4/block/traditional/d1", 0x53a1c6dd0d7c0362),
    ("12,4/chunk/traditional/d1", 0x7267636057ddcc39),
    ("12,4/block/chain/d1", 0xa52553e8aeb85fe9),
    ("12,4/chunk/chain/d1", 0xa52553e8aeb85fe9),
    ("6,3/block/rpr/d0+d3", 0x67bb58d95c834030),
    ("6,3/chunk/rpr/d0+d3", 0xea3deb10f29f008d),
    ("6,3/block/traditional/d0+d3", 0x440b37712d858c1a),
    ("6,3/chunk/traditional/d0+d3", 0x7e7dd63cabdf4687),
];

const EXEC_GOLDEN: &[(&str, u64)] = &[
    ("6,3/block/rpr", 0xd32d8b241a0bed1e),
    ("6,3/block/car", 0xbf684cd2b028d553),
    ("6,3/block/traditional", 0x2ab4d0ff735ecb27),
    ("6,3/block/chain", 0xd6d026df5afe5739),
    ("6,3/chunk/rpr", 0x8ba34633f79f2bc4),
    ("6,3/chunk/car", 0x21e6539d92640c01),
    ("6,3/chunk/traditional", 0x824d7485b00ff365),
    ("6,3/chunk/chain", 0xd6d026df5afe5739),
    ("12,4/block/rpr", 0x2a7e0a09befb50b9),
    ("12,4/block/car", 0x9473a39313dad191),
    ("12,4/block/traditional", 0x4923ad8f164217cc),
    ("12,4/block/chain", 0x308d2b4fe118aca3),
    ("12,4/chunk/rpr", 0xacca039d55231486),
    ("12,4/chunk/car", 0x488ad5a9d4f7fa9b),
    ("12,4/chunk/traditional", 0xd3478c37f527aa64),
    ("12,4/chunk/chain", 0x308d2b4fe118aca3),
];
