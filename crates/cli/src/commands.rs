//! Command implementations.

use crate::args::{
    AuditArgs, Backend, ChaosArgs, ChaosFault, Command, FleetArgs, LoadArgs, LoadModeChoice,
    PlanArgs, TraceArgs, TraceFormat,
};
use rpr_codec::{CodeParams, StripeCodec};
use rpr_core::analysis::{rpr_repair_time, traditional_repair_time, AnalysisParams};
use rpr_core::{
    simulate, supervise_injected, viz, CarPlanner, CostModel, RepairContext, RepairPlanner,
    RprPlanner, SuperviseConfig, SuperviseOutcome, TraditionalPlanner,
};
use rpr_faults::{CrashSite, FaultStorm, HealthTracker, StormFault};
use rpr_proof::{ProofLedger, ProofMode};
use rpr_topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy, GBIT};

/// Execute a parsed command.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Plan(a) => plan(&a),
        Command::Compare(a) => compare(&a),
        Command::Trace(t) => trace(&t),
        Command::Chaos(c) => chaos(&c),
        Command::Fleet(f) => fleet(&f),
        Command::Load(l) => load(&l),
        Command::Audit(a) => audit(&a),
        Command::Topo { params, placement } => topo(params, placement),
        Command::Analyze { ti_ms, tc_ms } => analyze(ti_ms, tc_ms),
        Command::Kernels { json } => kernels(json),
    }
}

fn cost_model(name: &str) -> CostModel {
    match name {
        "ec2" => CostModel::ec2_t2micro(),
        "free" => CostModel::free(),
        "measured" => CostModel::measured(),
        _ => CostModel::simics(),
    }
}

/// Bytes per second of `work`, which touches `bytes` per call: the best of
/// eight timed calls. A SIMD window lasts ~0.2 ms, so one preemption in a
/// single window reads as a kernel ten times slower than it is.
fn best_rate(bytes: usize, mut work: impl FnMut()) -> f64 {
    let mut window = || {
        let t = std::time::Instant::now();
        work();
        t.elapsed().as_secs_f64()
    };
    let best = (0..8).map(|_| window()).fold(f64::INFINITY, f64::min);
    bytes as f64 / best
}

/// Fold rate of every tier this CPU offers, each pinned on the geometry
/// [`CostModel::measured`] calibrates with (256 KiB x 16 rounds, `0x1D`).
fn tier_rates() -> Vec<(&'static str, f64)> {
    const LEN: usize = 256 * 1024;
    const ROUNDS: usize = 16;
    let src: Vec<u8> = (0..LEN).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0u8; LEN];
    rpr_gf::available_tiers()
        .into_iter()
        .map(|tier| {
            let rate = best_rate(ROUNDS * LEN, || {
                for _ in 0..ROUNDS {
                    rpr_gf::kernels::mul_acc_slice_on(tier, 0x1D, &src, &mut dst);
                }
                std::hint::black_box(&dst);
            });
            (tier.name(), rate)
        })
        .collect()
}

/// Read rate of the transport checksum the executor runs on every chunk
/// (`rpr_faults::checksum64`) and of a byte-serial digest (FNV-1a) over
/// the same 1 MiB chunk in the same process, each by [`best_rate`].
fn checksum_rates() -> (f64, f64) {
    const LEN: usize = 1 << 20;
    const ROUNDS: usize = 16;
    let chunk: Vec<u8> = (0..LEN).map(|i| (i * 31 + 7) as u8).collect();
    let byte_serial = |data: &[u8]| {
        data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
    };
    let chunk = std::hint::black_box(chunk.as_slice());
    let word_wide = best_rate(ROUNDS * LEN, || {
        for _ in 0..ROUNDS {
            std::hint::black_box(rpr_faults::checksum64(std::hint::black_box(chunk)));
        }
    });
    let serial = best_rate(LEN, || {
        std::hint::black_box(byte_serial(std::hint::black_box(chunk)));
    });
    (word_wide, serial)
}

/// Report which GF(2^8) kernel tier this host dispatches to, every tier
/// the hardware offers with its own pinned fold rate, the dispatched
/// throughput the `measured` cost model would use, and the transport
/// checksum's read rate beside a byte-serial digest's (docs/PERFORMANCE.md;
/// `scripts/verify.sh` step 13 holds the folds to a floor over the scalar
/// tier and the checksum to one over the byte-serial digest).
fn kernels(json: bool) -> Result<(), String> {
    let active = rpr_gf::active_tier();
    let tiers = tier_rates();
    let (checksum, byte_serial) = checksum_rates();
    let available: Vec<String> = tiers.iter().map(|(name, _)| name.to_string()).collect();
    let forced = std::env::var_os("RPR_FORCE_SCALAR")
        .is_some_and(|v| !v.is_empty() && v != "0");
    let m = CostModel::measured();
    if json {
        let per_tier: Vec<String> = tiers
            .iter()
            .map(|(name, rate)| format!("{}:{rate:.0}", json_str(name)))
            .collect();
        println!(
            "{{\"command\":\"kernels\",\"active\":{},\"available\":{},\
             \"forced_scalar\":{},\"gf_bytes_per_sec\":{:.0},\
             \"xor_bytes_per_sec\":{:.0},\"matrix_build_seconds\":{:.9},\
             \"tier_bytes_per_sec\":{{{}}},\"checksum_bytes_per_sec\":{checksum:.0},\
             \"byte_serial_checksum_bytes_per_sec\":{byte_serial:.0}}}",
            json_str(active.name()),
            json_str_array(&available),
            forced,
            m.gf_rate,
            m.xor_rate,
            m.matrix_build_seconds,
            per_tier.join(","),
        );
        return Ok(());
    }
    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
    println!("GF(2^8) kernel dispatch");
    println!(
        "  active tier : {}{}",
        active.name(),
        if forced { "  (RPR_FORCE_SCALAR)" } else { "" }
    );
    println!("  available   : {}", available.join(", "));
    println!(
        "  measured    : gf fold {:.2} GiB/s, xor fold {:.2} GiB/s, \
         matrix build {:.1} us",
        m.gf_rate / GIB,
        m.xor_rate / GIB,
        m.matrix_build_seconds * 1e6,
    );
    let per_tier: Vec<String> = tiers
        .iter()
        .map(|(name, rate)| format!("{name} {:.2} GiB/s", rate / GIB))
        .collect();
    println!("  per tier    : gf fold {}", per_tier.join(", "));
    println!(
        "  checksum    : transport {:.2} GiB/s, byte-serial {:.2} GiB/s",
        checksum / GIB,
        byte_serial / GIB,
    );
    Ok(())
}

fn planner_by_name(name: &str) -> Box<dyn RepairPlanner> {
    match name {
        "car" => Box::new(CarPlanner::new()),
        "chain" => Box::new(rpr_core::ChainPlanner::new()),
        "traditional" => Box::new(TraditionalPlanner::new()),
        "traditional-local" => Box::new(TraditionalPlanner::locality_aware()),
        _ => Box::new(RprPlanner::new()),
    }
}

struct World {
    codec: StripeCodec,
    topo: rpr_topology::Topology,
    placement: Placement,
    profile: BandwidthProfile,
}

fn world(a: &PlanArgs) -> World {
    let topo = cluster_for(a.params, 1, 1);
    let placement = Placement::by_policy(a.placement, a.params, &topo);
    let profile = BandwidthProfile::uniform(topo.rack_count(), GBIT, GBIT / a.ratio);
    World {
        codec: StripeCodec::new(a.params),
        topo,
        placement,
        profile,
    }
}

/// Build the repair context of a scenario, including the optional
/// `--chunk-size` streaming configuration.
fn context<'w>(a: &PlanArgs, w: &'w World) -> RepairContext<'w> {
    let ctx = RepairContext::new(
        &w.codec,
        &w.topo,
        &w.placement,
        a.failed.clone(),
        a.block_bytes,
        &w.profile,
        cost_model(&a.cost).scaled_for_block(a.block_bytes),
    );
    match a.chunk_bytes {
        Some(c) => ctx.with_chunk_size(c),
        None => ctx,
    }
}

fn run_one(a: &PlanArgs, w: &World, scheme: &str) -> (rpr_core::RepairPlan, rpr_core::SimOutcome) {
    let ctx = context(a, w);
    let plan = planner_by_name(scheme).plan(&ctx);
    plan.validate(&w.codec, &w.topo, &w.placement)
        .expect("planner output must validate");
    let outcome = simulate(&plan, &ctx);
    (plan, outcome)
}

fn plan(a: &PlanArgs) -> Result<(), String> {
    let w = world(a);
    let (plan, outcome) = run_one(a, &w, &a.scheme);
    let names: Vec<String> = a.failed.iter().map(|b| b.name(&a.params)).collect();
    println!(
        "{} repair of {} on RS({},{}), block {} MiB, inner:cross 1:{}{}",
        a.scheme,
        names.join(","),
        a.params.n,
        a.params.k,
        a.block_bytes >> 20,
        a.ratio,
        match a.chunk_bytes {
            Some(c) => format!(", cut-through chunk {} MiB", c >> 20),
            None => String::new(),
        }
    );
    // Sliced plans (chain) move fractional blocks per send; report whole
    // blocks uniformly.
    let cross_blocks = outcome.stats.cross_bytes as f64 / a.block_bytes as f64;
    println!(
        "repair time {:.2} s | cross-rack {:.1} blocks | decoding matrix: {}",
        outcome.repair_time,
        cross_blocks,
        if outcome.stats.needs_matrix {
            "yes"
        } else {
            "no (XOR path)"
        },
    );
    if a.gantt {
        println!("\n{}", viz::gantt(&outcome, &w.topo, 56));
    }
    if a.dot {
        println!("\n{}", viz::dot(&plan, &w.topo));
    }
    Ok(())
}

fn compare(a: &PlanArgs) -> Result<(), String> {
    let w = world(a);
    let schemes: &[&str] = if a.failed.len() == 1 {
        &["traditional", "traditional-local", "car", "chain", "rpr"]
    } else {
        &["traditional", "traditional-local", "rpr"]
    };
    println!(
        "{:<18} {:>10} {:>8} {:>8}  {:<8}",
        "scheme", "time (s)", "cross", "inner", "matrix"
    );
    let mut base = f64::NAN;
    for scheme in schemes {
        let (plan, outcome) = run_one(a, &w, scheme);
        if base.is_nan() {
            base = outcome.repair_time;
        }
        // Sliced plans (chain) move fractional blocks per send; normalize
        // traffic to whole blocks for comparison.
        let blocks = |bytes: u64| bytes as f64 / a.block_bytes as f64;
        let inner_bytes = plan.stats(&w.topo).inner_transfers as u64 * plan.block_bytes;
        println!(
            "{:<18} {:>10.2} {:>8.1} {:>8.1}  {:<8} ({:>5.1}% of traditional)",
            scheme,
            outcome.repair_time,
            blocks(outcome.stats.cross_bytes),
            blocks(inner_bytes),
            if outcome.stats.needs_matrix {
                "yes"
            } else {
                "no"
            },
            outcome.repair_time / base * 100.0
        );
    }
    Ok(())
}

/// Simulate the scenario once with a [`rpr_obs::TraceRecorder`] attached
/// and dump the structured trace (schema: `docs/TRACING.md`). The trace
/// goes to `--out` or stdout; the human summary goes to stderr so piped
/// output stays valid JSON.
fn trace(t: &TraceArgs) -> Result<(), String> {
    let a = &t.plan;
    let w = world(a);
    let ctx = context(a, &w);
    let plan = planner_by_name(&a.scheme).plan(&ctx);
    plan.validate(&w.codec, &w.topo, &w.placement)
        .expect("planner output must validate");
    let rec = rpr_obs::TraceRecorder::default();
    let outcome = rpr_core::simulate_traced(&plan, &ctx, &rec);

    let snap = rec.snapshot();
    emit_trace(&rec.take_events(), t.format, &t.out, false)?;
    let (_, waves) = plan.cross_waves(&w.topo);
    eprintln!(
        "# {} repair: {:.2} s | {} cross + {} inner transfers | \
         {waves} cross-rack timesteps | {} events ({} dropped)",
        a.scheme,
        outcome.repair_time,
        outcome.stats.cross_transfers,
        outcome.stats.inner_transfers,
        snap.recorded_events,
        snap.dropped_events,
    );
    Ok(())
}

/// Deterministic stripe contents for the exec backend (same LCG as the
/// executor's own tests, so corruption scenarios are reproducible).
fn deterministic_stripe(codec: &StripeCodec, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut s = seed | 1;
    let data: Vec<Vec<u8>> = (0..codec.params().n)
        .map(|_| {
            (0..len)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (s >> 33) as u8
                })
                .collect()
        })
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
    codec.encode_stripe(&refs)
}

/// Minimal JSON string escaping (the repository avoids serde): quotes,
/// backslashes, and control characters only — every summary field is
/// ASCII to begin with.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", cells.join(","))
}

/// Write the trace to `--out`, or to stdout — unless a `--json` summary
/// owns stdout, in which case a missing `--out` drops the trace (noted
/// on stderr) so stdout stays one parseable object.
fn emit_trace(
    events: &[rpr_obs::Event],
    format: TraceFormat,
    out: &Option<String>,
    json_owns_stdout: bool,
) -> Result<(), String> {
    let output = match format {
        TraceFormat::Chrome => rpr_obs::export::to_chrome_trace(events),
        TraceFormat::Jsonl => rpr_obs::export::to_json_lines(events),
    };
    match out {
        Some(path) => {
            std::fs::write(path, &output).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} events to {path}", events.len());
        }
        None if json_owns_stdout => {
            eprintln!("# --json without --out: trace discarded ({} events)", events.len());
        }
        None => print!("{output}"),
    }
    Ok(())
}

fn storm_fault(f: ChaosFault) -> StormFault {
    match f {
        ChaosFault::Crash => StormFault::Crash(CrashSite::SeedPick),
        ChaosFault::ReplacementCrash => StormFault::Crash(CrashSite::NewHelper),
        ChaosFault::Timeout => StormFault::Timeout,
        ChaosFault::Corrupt => StormFault::Corrupt,
        ChaosFault::Slow => StormFault::Slow { factor: 0.25 },
        ChaosFault::Rack => StormFault::RackOutage,
        ChaosFault::Lie => StormFault::Lie,
    }
}

/// Drive a repair through the supervisor under a fault storm: `rpr
/// inject`'s single seed-picked fault, or `rpr chaos`'s one per generation
/// (`--storm crash,replacement-crash,timeout` is the acceptance storm: a
/// helper crash, then a crash of its replacement, then one transient
/// timeout). `--backend sim` replays bit-deterministically on the virtual
/// clock; `--backend exec` moves real bytes, cancels real transfers when
/// hedging fires, and byte-verifies the reconstruction. The supervisor
/// owns scheme selection (RPR first, degrading through the tier ladder),
/// which is why the parser rejects any other `--scheme`.
fn chaos(c: &ChaosArgs) -> Result<(), String> {
    let a = &c.plan;
    let w = world(a);
    let ctx = context(a, &w);
    let mut storm = FaultStorm::new(c.seed);
    for f in &c.storm {
        storm = storm.with_generation(vec![storm_fault(*f)]);
    }
    let cfg = SuperviseConfig {
        hedge: c.hedge,
        deadline: c.deadline,
        proof: ProofMode::from_name(&c.proof)?,
        ..SuperviseConfig::default()
    };
    let mut tracker = HealthTracker::with_defaults();
    let rec = rpr_obs::TraceRecorder::default();
    let storm_names: Vec<String> = storm.generations[..]
        .iter()
        .map(|g| g[0].name().to_string())
        .collect();
    eprintln!("# storm (seed {}): {}", c.seed, storm_names.join(" -> "));

    // Both backends report through the shared loop's outcome; the executor
    // adds byte verification and has no fault-free baseline to compare to.
    let (s, clean, verified) = match c.backend {
        Backend::Sim => {
            let out = supervise_injected(&ctx, &storm, &cfg, &mut tracker, &rec)?;
            let clean = out.clean_time;
            (out, Some(clean), None)
        }
        Backend::Exec => {
            let stripe = deterministic_stripe(&w.codec, a.block_bytes as usize, c.seed);
            let out =
                rpr_exec::execute_supervised(&ctx, &stripe, &rec, &storm, &cfg, &mut tracker)
                    .map_err(|e| e.to_string())?;
            let outcome = SuperviseOutcome {
                repair_time: out.report.wall_seconds,
                clean_time: f64::NAN,
                generations: out.generations,
                retries: out.retries,
                replans: out.replans,
                reused_ops: out.reused_ops,
                final_scheme: out.final_scheme.to_string(),
                final_tier: out.final_tier,
                hedges: out.hedges,
                hedge_wins: out.hedge_wins,
                deadline_hit: out.deadline_hit,
                fault_sites: out.fault_sites,
                cross_bytes: out.report.cross_bytes,
                inner_bytes: out.report.inner_bytes,
                proofs_emitted: out.proofs_emitted,
                proofs_rejected: out.proofs_rejected,
                accusations: out.accusations,
                ledger: out.ledger,
            };
            (outcome, None, Some(out.report.verified))
        }
    };
    if let Some(path) = &c.ledger_out {
        std::fs::write(path, s.ledger.to_json_lines())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {} proof entries to {path}", s.ledger.entries.len());
    }

    let events = rec.take_events();
    emit_trace(&events, c.format, &c.out, c.json)?;
    if c.json {
        println!(
            "{{\"command\":\"chaos\",\"backend\":{},\"seed\":{},\"storm\":{},\
             \"fault_sites\":{},\"generations\":{},\"attempts\":{},\"retries\":{},\
             \"replans\":{},\"reused_partials\":{},\"hedges\":{},\"hedge_wins\":{},\
             \"deadline_hit\":{},\"final_scheme\":{},\"final_tier\":{},\
             \"proof\":{},\"proofs_emitted\":{},\"proofs_rejected\":{},\
             \"accusations\":{},\"makespan\":{},\"clean\":{},\"verified\":{}}}",
            json_str(match c.backend {
                Backend::Sim => "sim",
                Backend::Exec => "exec",
            }),
            c.seed,
            json_str_array(&storm_names),
            json_str_array(&s.fault_sites),
            s.generations.len(),
            s.retries + s.replans + 1,
            s.retries,
            s.replans,
            s.reused_ops,
            s.hedges,
            s.hedge_wins,
            s.deadline_hit,
            json_str(&s.final_scheme),
            json_str(s.final_tier.name()),
            json_str(cfg.proof.name()),
            s.proofs_emitted,
            s.proofs_rejected,
            s.accusations,
            s.repair_time,
            clean.map_or("null".to_string(), |v| v.to_string()),
            verified.map_or("null".to_string(), |v| v.to_string()),
        );
    }
    eprintln!(
        "# supervised repair: {:.2} s{} | {} generations | retries {} | replans {} | \
         reused {} | hedges {}/{} | tier {} ({}){}",
        s.repair_time,
        clean
            .map(|cl| format!(" vs clean {cl:.2} s (+{:.1}%)", (s.repair_time / cl - 1.0) * 100.0))
            .unwrap_or_default(),
        s.generations.len(),
        s.retries,
        s.replans,
        s.reused_ops,
        s.hedge_wins,
        s.hedges,
        s.final_tier.name(),
        s.final_scheme,
        match verified {
            Some(true) => " | verified: yes",
            Some(false) => " | verified: NO",
            None => "",
        },
    );
    if s.deadline_hit {
        eprintln!("# deadline exceeded — repair degraded to meet it");
    }
    if cfg.proof.active() {
        eprintln!(
            "# proof plane ({}): {} emitted | {} rejected | {} accusation(s)",
            cfg.proof.name(),
            s.proofs_emitted,
            s.proofs_rejected,
            s.accusations,
        );
    }
    if verified == Some(false) {
        return Err("repair completed but the reconstruction failed byte verification".into());
    }
    if cfg.proof == ProofMode::Mandatory && s.proofs_rejected > 0 && s.accusations == 0 {
        return Err(
            "mandatory proof failure: rejected proofs could not be localized to a helper".into(),
        );
    }
    Ok(())
}

/// Drain a synthetic fleet backlog through the prioritized,
/// bandwidth-arbitrated repair scheduler (`rpr-sched`). The summary on
/// stdout is bit-deterministic for a fixed seed — `scripts/verify.sh`
/// diffs two identical runs — so wall-clock timing goes to stderr only.
fn fleet(f: &FleetArgs) -> Result<(), String> {
    let spec = rpr_sched::FleetSpec {
        params: f.params,
        racks: f.racks,
        nodes_per_rack: f.nodes_per_rack,
        stripes: f.stripes,
        block_bytes: f.block_bytes,
        seed: f.seed,
        storm: f.storm.iter().map(|&s| vec![storm_fault(s)]).collect(),
        agg_capacity: f.agg_gbit.map(|g| g * GBIT),
        arbitrate: f.arbitrate,
        inner_bps: GBIT,
        cross_bps: GBIT / f.ratio,
        threads: f.threads,
        churn_rate: f.churn_rate,
        escalate: f.escalate,
        ..rpr_sched::FleetSpec::default()
    };
    // The resume journal must be read before the new journal is
    // created: `--resume F --journal F` reuses one file, and create()
    // truncates it (re-simulation regenerates a complete journal).
    let resume = match &f.resume {
        Some(p) => Some(rpr_sched::JournalReplay::load(std::path::Path::new(p))?),
        None => None,
    };
    let journal = match &f.journal {
        Some(p) => {
            let mut j =
                rpr_sched::FleetJournal::create(std::path::Path::new(p), f.seed, f.stripes)
                    .map_err(|e| format!("cannot create journal {p}: {e}"))?;
            if let Ok(us) = std::env::var("RPR_JOURNAL_STALL_US") {
                let us: u64 = us
                    .parse()
                    .map_err(|_| "RPR_JOURNAL_STALL_US must be an integer (microseconds)")?;
                j.set_stall(std::time::Duration::from_micros(us));
            }
            Some(std::cell::RefCell::new(j))
        }
        None => None,
    };
    let io = rpr_sched::FleetIo {
        journal: journal.as_ref(),
        resume: resume.as_ref(),
    };
    let start = std::time::Instant::now();
    let out = match &f.out {
        Some(_) => {
            let rec = rpr_obs::TraceRecorder::default();
            let out = rpr_sched::run_fleet_with(&spec, io, &rec);
            let events = rec.take_events();
            emit_trace(&events, f.format, &f.out, f.json)?;
            out
        }
        None => rpr_sched::run_fleet_with(&spec, io, rpr_obs::noop()),
    };
    let wall = start.elapsed().as_secs_f64();

    let s = &out.summary;
    if f.json {
        println!(
            "{{\"command\":\"fleet\",\"code\":{},\"racks\":{},\"nodes_per_rack\":{},\
             \"block_mib\":{},\"seed\":{},\"arbitrate\":{},\"storm\":{},\
             \"classes\":{},\"unrepairable\":{},\"replans\":{},\"retries\":{},\
             \"degraded\":{},\"max_utilization\":{},\"churn_rate\":{},\
             \"escalate\":{},\"replayed\":{},\"summary\":{}}}",
            json_str(&format!("{},{}", f.params.n, f.params.k)),
            f.racks,
            f.nodes_per_rack,
            f.block_bytes >> 20,
            f.seed,
            f.arbitrate,
            json_str_array(
                &f.storm
                    .iter()
                    .map(|&sf| storm_fault(sf).name().to_string())
                    .collect::<Vec<_>>()
            ),
            out.classes,
            out.unrepairable,
            out.tally.replans,
            out.tally.retries,
            out.tally.degraded,
            out.max_utilization,
            f.churn_rate,
            f.escalate,
            out.replayed,
            s.to_json(),
        );
    } else {
        println!(
            "fleet of {} RS({},{}) stripes over {} racks x {} nodes, \
             block {} MiB, seed {}{}",
            f.stripes,
            f.params.n,
            f.params.k,
            f.racks,
            f.nodes_per_rack,
            f.block_bytes >> 20,
            f.seed,
            if f.arbitrate { "" } else { " (arbitration off)" },
        );
        println!(
            "  repaired {} / {} | {} repair classes | unrepairable {} | degraded {}",
            s.repaired, s.stripes, out.classes, out.unrepairable, out.tally.degraded,
        );
        println!(
            "  makespan {:.1} s | {:.1} stripes/s | {:.3} GB/s | peak link util {:.1}%",
            s.makespan,
            s.stripes_per_sec,
            s.bytes_per_sec / 1e9,
            out.max_utilization * 100.0,
        );
        println!(
            "  MTTR p50 {:.1} s | p99 {:.1} s | mean {:.1} s",
            s.mttr_p50, s.mttr_p99, s.mttr_mean,
        );
        println!(
            "  waited {} stripes ({:.1}%) | max wait {:.1} s | mean wait {:.1} s",
            s.waited,
            s.waited as f64 / s.stripes.max(1) as f64 * 100.0,
            s.max_wait,
            s.mean_wait,
        );
        if f.churn_rate > 0.0 {
            println!(
                "  churn {}/s: {} live failures | {} escalations | {} stripes LOST",
                f.churn_rate, s.churn_failures, s.escalations, s.lost,
            );
        }
        if out.replayed > 0 {
            println!("  resumed: {} stripe costs replayed from the journal", out.replayed);
        }
    }
    eprintln!(
        "# scheduled {} stripes in {wall:.2} s wall ({:.0} stripes/s admission)",
        s.stripes,
        s.stripes as f64 / wall.max(1e-9),
    );
    Ok(())
}

fn load(l: &LoadArgs) -> Result<(), String> {
    let mode = match l.mode {
        LoadModeChoice::Off => rpr_load::RepairMode::Off,
        LoadModeChoice::Unthrottled => rpr_load::RepairMode::Unthrottled,
        LoadModeChoice::Qos => rpr_load::RepairMode::Qos {
            foreground_share: l.share,
            repair_floor: l.floor,
        },
    };
    let spec = rpr_load::LoadSpec {
        params: l.params,
        block_bytes: l.block_bytes,
        chunk_bytes: l.chunk_bytes,
        inner_bps: 400.0e6,
        cross_bps: 400.0e6 / l.ratio,
        seed: l.seed,
        requests: l.requests,
        arrival_rate: l.rate,
        read_fraction: l.read_fraction,
        zipf_theta: l.zipf,
        objects: l.objects,
        request_bytes: l.request_bytes,
        repair_stripes: l.stripes,
        repair_stagger: l.stagger,
        mode,
    };
    let start = std::time::Instant::now();
    let summary = match &l.out {
        Some(_) => {
            let rec = rpr_obs::TraceRecorder::default();
            let summary = rpr_load::run_load_recorded(&spec, &rec);
            let events = rec.take_events();
            emit_trace(&events, l.format, &l.out, l.json)?;
            summary
        }
        None => rpr_load::run_load(&spec),
    };
    let wall = start.elapsed().as_secs_f64();

    if l.json {
        println!(
            "{{\"command\":\"load\",\"code\":{},\"block_mib\":{},\"request_mib\":{},\
             \"rate\":{},\"stripes\":{},\"stagger\":{},\"summary\":{}}}",
            json_str(&format!("{},{}", l.params.n, l.params.k)),
            l.block_bytes >> 20,
            l.request_bytes >> 20,
            l.rate,
            l.stripes,
            l.stagger,
            summary.to_json(),
        );
    } else {
        println!(
            "load of {} requests at {} req/s over RS({},{}), mode {} \
             (repair fraction {:.2}), seed {}",
            summary.requests,
            l.rate,
            l.params.n,
            l.params.k,
            summary.mode,
            summary.repair_fraction,
            summary.seed,
        );
        println!(
            "  reads {} | writes {} | degraded reads {} (pipeline-served)",
            summary.reads, summary.writes, summary.degraded,
        );
        println!(
            "  latency p50 {:.3} s | p99 {:.3} s | p999 {:.3} s | mean {:.3} s",
            summary.latency_p50, summary.latency_p99, summary.latency_p999, summary.mean_latency,
        );
        println!(
            "  first byte p50 {:.3} s | p99 {:.3} s | p999 {:.3} s",
            summary.first_byte_p50, summary.first_byte_p99, summary.first_byte_p999,
        );
        println!(
            "  repair makespan {:.1} s | run makespan {:.1} s",
            summary.repair_makespan, summary.makespan,
        );
    }
    eprintln!(
        "# simulated {} requests in {wall:.2} s wall",
        summary.requests,
    );
    Ok(())
}

/// Pull one unsigned integer field out of a hand-rolled JSON line.
fn json_usize_field(line: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Verify a recorded repair offline from its artifacts alone: parse the
/// proof ledger, re-derive the ledger key from the header seed, re-check
/// every binding / wire hop / output witness with [`ProofLedger::audit`],
/// and cross-check the verdict against the captured JSONL trace — every
/// ledger entry must have been announced (`proof_emitted`), every
/// mismatch flagged (`proof_rejected`), and, for a mandatory-mode
/// ledger, every localized dishonest hop must have drawn an online
/// accusation (`helper_accused`). Exits non-zero when the evidence does
/// not verify, so soak scripts can gate on it.
fn audit(t: &AuditArgs) -> Result<(), String> {
    let ledger_text =
        std::fs::read_to_string(&t.ledger).map_err(|e| format!("reading {}: {e}", t.ledger))?;
    let trace_text =
        std::fs::read_to_string(&t.trace).map_err(|e| format!("reading {}: {e}", t.trace))?;
    let ledger = ProofLedger::parse(&ledger_text)?;
    let report = ledger.audit();

    // The proof-plane event stream of the trace, keyed (gen, op) /
    // (gen, node).
    let mut emitted: Vec<(usize, usize)> = Vec::new();
    let mut rejected: Vec<(usize, usize)> = Vec::new();
    let mut accused: Vec<(usize, usize)> = Vec::new();
    for line in trace_text.lines() {
        let keyed = |a: &str, b: &str| -> Option<(usize, usize)> {
            Some((json_usize_field(line, a)?, json_usize_field(line, b)?))
        };
        if line.contains("\"type\":\"proof_emitted\"") {
            emitted.extend(keyed("gen", "op"));
        } else if line.contains("\"type\":\"proof_rejected\"") {
            rejected.extend(keyed("gen", "op"));
        } else if line.contains("\"type\":\"helper_accused\"") {
            accused.extend(keyed("gen", "node"));
        }
    }
    emitted.sort_unstable();
    rejected.sort_unstable();

    // Cross-checks: ledger entries <-> announcements, mismatched entries
    // <-> rejections, dishonest hops <-> accusations (mandatory only).
    let mut ledger_keys: Vec<(usize, usize)> = ledger
        .entries
        .iter()
        .map(|e| (e.gen, e.proof.op))
        .collect();
    ledger_keys.sort_unstable();
    let mut mismatch_keys: Vec<(usize, usize)> = report
        .mismatches
        .iter()
        .map(|&i| (ledger.entries[i].gen, ledger.entries[i].proof.op))
        .collect();
    mismatch_keys.sort_unstable();
    let mut inconsistencies: Vec<String> = Vec::new();
    if ledger_keys != emitted {
        inconsistencies.push(format!(
            "trace announces {} proof(s), ledger seals {}",
            emitted.len(),
            ledger_keys.len()
        ));
    }
    if mismatch_keys != rejected {
        inconsistencies.push(format!(
            "trace rejects {} proof(s), ledger witnesses {} mismatch(es)",
            rejected.len(),
            mismatch_keys.len()
        ));
    }
    let unaccused: Vec<usize> = if ledger.mode == ProofMode::Mandatory {
        report
            .dishonest
            .iter()
            .copied()
            .filter(|&i| {
                let e = &ledger.entries[i];
                !accused.contains(&(e.gen, e.proof.node))
            })
            .collect()
    } else {
        Vec::new()
    };
    if !unaccused.is_empty() {
        inconsistencies.push(format!(
            "{} dishonest hop(s) drew no online accusation under mandatory proofs",
            unaccused.len()
        ));
    }

    let verdict = if !report.binding_failures.is_empty() {
        "tampered"
    } else if !inconsistencies.is_empty() {
        "inconsistent"
    } else if report.clean() {
        "clean"
    } else {
        "dishonesty-localized"
    };
    let first = report.first_dishonest().map(|i| {
        let e = &ledger.entries[i];
        (e.gen, e.proof.op, e.proof.node, e.proof.algorithm.clone())
    });

    if t.json {
        println!(
            "{{\"command\":\"audit\",\"verdict\":{},\"mode\":{},\"seed\":{},\
             \"entries\":{},\"binding_failures\":{},\"wire_failures\":{},\
             \"mismatches\":{},\"dishonest\":{},\"accusations\":{},\
             \"first_dishonest\":{}}}",
            json_str(verdict),
            json_str(ledger.mode.name()),
            ledger.seed,
            report.entries,
            report.binding_failures.len(),
            report.wire_failures.len(),
            report.mismatches.len(),
            report.dishonest.len(),
            accused.len(),
            first.as_ref().map_or("null".to_string(), |(g, op, node, alg)| {
                format!(
                    "{{\"gen\":{g},\"op\":{op},\"node\":{node},\"algorithm\":{}}}",
                    json_str(alg)
                )
            }),
        );
    }
    eprintln!(
        "# audit of {} ({} mode, seed {}): {} entries | {} binding failure(s) | \
         {} wire failure(s) | {} mismatch(es) | {} dishonest | verdict: {verdict}",
        t.ledger,
        ledger.mode.name(),
        ledger.seed,
        report.entries,
        report.binding_failures.len(),
        report.wire_failures.len(),
        report.mismatches.len(),
        report.dishonest.len(),
    );
    if let Some((g, op, node, alg)) = &first {
        eprintln!(
            "# first dishonest hop: generation {g}, op {op} ({alg}) at node {node} — \
             wrong output from honest inputs"
        );
    }
    for msg in &inconsistencies {
        eprintln!("# inconsistency: {msg}");
    }
    match verdict {
        "clean" | "dishonesty-localized" => Ok(()),
        "tampered" => Err(format!(
            "audit failed: {} ledger binding(s) do not recompute (tampered or forged)",
            report.binding_failures.len()
        )),
        _ => Err(format!("audit failed: {}", inconsistencies.join("; "))),
    }
}

fn topo(params: CodeParams, policy: PlacementPolicy) -> Result<(), String> {
    // Flat placement needs one rack per block; the compact layouts use the
    // paper's q racks (+1 spare).
    let topo = if policy == PlacementPolicy::Flat {
        rpr_topology::Topology::uniform(params.total() + 1, 2)
    } else {
        cluster_for(params, 1, 1)
    };
    let placement = Placement::by_policy(policy, params, &topo);
    println!(
        "RS({},{}) over {} racks (q = {} + 1 spare), {} nodes/rack, {policy:?}:",
        params.n,
        params.k,
        topo.rack_count(),
        params.rack_count(),
        topo.nodes_in(rpr_topology::RackId(0)).len()
    );
    for rack in topo.racks() {
        let mut cells = Vec::new();
        for &node in topo.nodes_in(rack) {
            match placement.block_on(node) {
                Some(b) => cells.push(format!("{node:?}={}", b.name(&params))),
                None => cells.push(format!("{node:?}=·")),
            }
        }
        println!("  {rack:?}: {}", cells.join("  "));
    }
    println!(
        "single-rack fault tolerant: {} | P0 co-located with data: {}",
        placement.is_single_rack_fault_tolerant(&topo),
        placement.p0_colocated_with_data(&topo)
    );
    Ok(())
}

fn analyze(ti_ms: f64, tc_ms: f64) -> Result<(), String> {
    let a = AnalysisParams {
        t_i: ti_ms / 1e3,
        t_c: tc_ms / 1e3,
    };
    println!(
        "closed-form repair time (§4.1), t_i = {ti_ms} ms, t_c = {tc_ms} ms:\n\
         {:<8} {:>14} {:>14} {:>10}",
        "code", "traditional", "RPR worst", "reduction"
    );
    for (n, k) in [
        (4, 2),
        (6, 2),
        (8, 2),
        (6, 3),
        (8, 4),
        (12, 4),
        (10, 4),
        (16, 4),
    ] {
        let p = CodeParams::new(n, k);
        let tra = traditional_repair_time(p, a) * 1e3;
        let rpr = rpr_repair_time(p, a) * 1e3;
        println!(
            "({n:>2},{k})  {tra:>11.1} ms {rpr:>11.1} ms {:>9.1}%",
            (1.0 - rpr / tra) * 100.0
        );
    }
    Ok(())
}
