//! The threaded executor as a [`RepairBackend`]: one supervision
//! generation is one [`run_attempt`] on real bytes and the wall clock.
//! The loop itself — storm resolution, pool, replans, tier ladder,
//! accusations, the timestep brackets and `repair_done` — is
//! [`rpr_core::supervise()`], shared with the simulator. Every entry point
//! runs it: [`execute_supervised`] under a storm, [`execute`] and
//! [`execute_recorded`] fault-free with the caller's plan.

use crate::arena::{BufferPool, Chunk, Tally};
use crate::executor::{check_stripe, run_attempt, verify_outputs, AttemptCfg, Value};
use crate::{ExecError, ExecReport, OpTiming};
use rpr_codec::BlockId;
use rpr_core::{
    build_evidence, combine_kernel, supervise, Baseline, Ending, Evidence, Generation,
    GenerationRecord, GenerationRun, Op, OpId, RepairBackend, RepairContext, RepairPlan,
    SuperviseConfig, SuperviseError, SuperviseOutcome, Tier,
};
use rpr_faults::{FaultStorm, HealthTracker};
use rpr_obs::Recorder;
use rpr_proof::{hash_bytes, ProofHasher, ProofKey, ProofLedger};
use std::time::{Duration, Instant};

/// The result of a supervised execution under a fault storm.
#[derive(Clone, Debug)]
pub struct SupervisedReport {
    /// The final execution report (verification runs against the plan
    /// that actually completed the repair).
    pub report: ExecReport,
    /// Per-generation records, in order.
    pub generations: Vec<GenerationRecord>,
    /// Transfer attempts that failed and were retried.
    pub retries: usize,
    /// Plan replacements after helper crashes.
    pub replans: usize,
    /// Total ops satisfied from the partial-result pool.
    pub reused_ops: usize,
    /// Hedges launched (straggling generations cancelled mid-stream).
    pub hedges: usize,
    /// Hedges whose speculative alternative completed the repair.
    pub hedge_wins: usize,
    /// True when the repair deadline was exceeded at any point.
    pub deadline_hit: bool,
    /// Scheme of the plan that completed the repair.
    pub final_scheme: &'static str,
    /// Tier the repair completed at.
    pub final_tier: Tier,
    /// Human-readable resolved fault sites, in injection order.
    pub fault_sites: Vec<String>,
    /// Repair proofs recorded to the ledger (zero when proofs are Off).
    pub proofs_emitted: usize,
    /// Proofs whose output hash disagreed with the expectation.
    pub proofs_rejected: usize,
    /// Helpers quarantined on proof evidence (Mandatory mode only).
    pub accusations: usize,
    /// The proof ledger for the whole repair, verifiable offline with
    /// `rpr audit` against the recorded trace.
    pub ledger: ProofLedger,
}

impl From<SuperviseError> for ExecError {
    fn from(e: SuperviseError) -> ExecError {
        match e {
            SuperviseError::RetriesExhausted(m) => ExecError::RetriesExhausted(m),
            SuperviseError::Unrecoverable(m) => ExecError::Unrecoverable(m),
        }
    }
}

/// What the most recent generation left behind, for the final report.
struct LastRun {
    scheme: &'static str,
    op_timings: Vec<OpTiming>,
    /// The plan's outputs, and whatever value (executed or pool-served)
    /// the generation had for each.
    outputs: Vec<(BlockId, OpId)>,
    values: Vec<Option<Value>>,
}

/// The proof hash of a value — its chunks through the streaming hasher,
/// which is [`hash_bytes`] of the block they make up.
fn hash_value(key: ProofKey, value: &[Chunk]) -> u128 {
    let mut h = ProofHasher::new(key);
    value.iter().for_each(|chunk| h.update(chunk));
    h.finish()
}

/// The proof hash of the ground-truth block `Σ coeffs[b] · stripe[b]`,
/// folded into `scratch` and hashed one chunk of `sizes` at a time.
fn hash_truth(
    key: ProofKey,
    coeffs: &[u8],
    stripe: &[Vec<u8>],
    sizes: &[u64],
    scratch: &mut [u8],
) -> u128 {
    let (coeffs, blocks): (Vec<u8>, Vec<&Vec<u8>>) =
        (coeffs.iter().zip(stripe)).filter(|(&c, _)| c != 0).unzip();
    let mut h = ProofHasher::new(key);
    let mut at = 0;
    for &size in sizes {
        let r = at..at + size as usize;
        let spans: Vec<&[u8]> = blocks.iter().map(|b| &b[r.clone()]).collect();
        let truth = &mut scratch[..r.len()];
        rpr_gf::lin_comb(&coeffs, &spans, truth);
        h.update(truth);
        at = r.end;
    }
    h.finish()
}

/// [`RepairBackend`] on OS threads, token-bucket shapers, real bytes.
struct ExecBackend<'a> {
    stripe: &'a [Vec<u8>],
    t0: Instant,
    /// Buffer checkouts of the whole repair, every generation and proof.
    tally: Tally,
    /// Proof hash of every stripe block, taken once per repair (the
    /// ledger key does not change between generations).
    block_hashes: Option<Vec<u128>>,
    first_byte: Option<f64>,
    last: Option<LastRun>,
}

impl RepairBackend for ExecBackend<'_> {
    type Partial = Value;

    /// No fault-free dry run on real bytes: the wall clock starts here.
    fn begin(&mut self, _: &RepairPlan, _: &RepairContext<'_>) -> Baseline {
        self.t0 = Instant::now();
        Baseline::default()
    }

    /// Real time cannot be rewound, so hedging here is a deadline at
    /// `hedge ×` the plan's analytical makespan: past it the straggling
    /// generation is *actually cancelled* — in-flight transfers abort
    /// between shaper admissions — and the loop launches the alternative
    /// as the next generation.
    fn run_generation(
        &mut self,
        gen: &Generation<'_, '_, Self::Partial>,
        rec: &dyn Recorder,
    ) -> GenerationRun<Self::Partial> {
        let (plan, ctx) = (gen.plan, gen.ctx);
        let prefilled: Vec<Option<&[_]>> = gen
            .reused
            .iter()
            .map(|b| b.map(|b| b.partial.as_slice()))
            .collect();
        let deadline = gen.hedge.map(|m| {
            let budget = m * rpr_core::simulate(plan, ctx).repair_time;
            Instant::now() + Duration::from_secs_f64(budget.max(1e-3))
        });
        let cfg = AttemptCfg {
            faults: gen.faults,
            policy: *gen.policy,
            prefilled: &prefilled,
            graph: gen.graph,
            tag: gen.index,
            deadline,
            tally: &self.tally,
        };
        let run = run_attempt(ctx, self.stripe, rec, self.t0, &cfg);
        let now = self.t0.elapsed().as_secs_f64();
        self.first_byte = match (self.first_byte, run.first_out) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let completed: Vec<bool> = run.values.iter().map(|v| v.is_some()).collect();
        // Without a crash, only the hedge deadline stops a send early; a
        // deadline that passed after every send finished cancelled nothing.
        let unfinished_send = (0..plan.ops.len())
            .find(|&i| gen.lowered[i] && !completed[i] && matches!(&plan.ops[i], Op::Send { .. }));
        let ending = match (gen.faults.crash, unfinished_send) {
            // run_attempt already emitted the node_down transfer failure
            // and helper_crashed events at the moment the node died.
            (Some(crash), _) => Ending::Crashed(crash.node),
            (None, Some(straggler)) => Ending::Cancelled { straggler },
            (None, None) => Ending::Completed,
        };
        let spans = run.op_timings.iter().map(|t| (t.start, t.end)).collect();
        self.last = Some(LastRun {
            scheme: plan.scheme,
            outputs: plan.outputs.clone(),
            values: plan
                .outputs
                .iter()
                .map(|&(_, op)| {
                    let served = || prefilled[op.0].map(<[_]>::to_vec);
                    run.values[op.0].clone().or_else(served)
                })
                .collect(),
            op_timings: run.op_timings,
        });
        GenerationRun {
            ending,
            started: 0.0,
            now,
            traffic: plan.traffic(ctx.topo, &completed),
            spans,
            partials: run.values,
            retries: run.retries,
            splice: None,
        }
    }

    /// Evidence from the real bytes: an op's output hash is taken over
    /// the bytes it holds, its expected hash over the ground-truth GF
    /// linear combination of its symbolic vector applied to the original
    /// stripe, in the generation's chunk split; a block's hash is cached
    /// for the repair (the ledger key does not change between
    /// generations).
    fn prove(
        &mut self,
        gen: &Generation<'_, '_, Self::Partial>,
        run: &GenerationRun<Self::Partial>,
        key: ProofKey,
    ) -> Evidence {
        let (plan, stripe, sizes) = (gen.plan, self.stripe, &gen.graph.chunks);
        let block_hashes = self
            .block_hashes
            .get_or_insert_with(|| stripe.iter().map(|b| hash_bytes(key, b)).collect());
        // One chunk of scratch for every op's ground truth.
        let mut scratch = BufferPool::process().get(sizes[0] as usize, &self.tally);
        build_evidence(
            gen,
            run,
            |b| block_hashes[b],
            |coeffs, v| {
                let expected = hash_truth(key, coeffs, stripe, sizes, &mut scratch);
                (hash_value(key, v), expected)
            },
            |i| match combine_kernel(plan, i) {
                Some(kernel) => format!("{}/{}", kernel.name(), rpr_gf::active_tier().name()),
                None => "wire".to_string(),
            },
        )
    }

    fn pause(&mut self, delay: f64) {
        std::thread::sleep(Duration::from_secs_f64(delay));
    }
}

impl ExecBackend<'_> {
    /// Run [`supervise()`] on real bytes, generation 0 running `first` when
    /// given, and report.
    fn run(
        ctx: &RepairContext<'_>,
        first: Option<&RepairPlan>,
        stripe: &[Vec<u8>],
        rec: &dyn Recorder,
        storm: &FaultStorm,
        cfg: &SuperviseConfig,
        tracker: &mut HealthTracker,
    ) -> Result<SupervisedReport, ExecError> {
        let mut backend = ExecBackend {
            stripe,
            t0: Instant::now(),
            tally: Tally::default(),
            block_hashes: None,
            first_byte: None,
            last: None,
        };
        let out = supervise(&mut backend, ctx, first, storm, cfg, tracker, rec)?;
        backend.into_report(out)
    }

    /// Verify the final generation's outputs byte-for-byte against the
    /// lost originals and assemble the report.
    fn into_report(self, out: SuperviseOutcome) -> Result<SupervisedReport, ExecError> {
        let last = self.last.expect("a completed repair ran a generation");
        let values = last
            .outputs
            .into_iter()
            .zip(last.values.iter().map(Option::as_deref));
        let (mismatches, recovered) = verify_outputs(self.stripe, values)?;
        Ok(SupervisedReport {
            report: ExecReport {
                wall_seconds: out.repair_time,
                arena: self.tally.stats(),
                op_timings: last.op_timings,
                cross_bytes: out.cross_bytes,
                inner_bytes: out.inner_bytes,
                verified: mismatches.is_empty(),
                mismatches,
                recovered,
                first_byte_seconds: self.first_byte,
            },
            generations: out.generations,
            retries: out.retries,
            replans: out.replans,
            reused_ops: out.reused_ops,
            hedges: out.hedges,
            hedge_wins: out.hedge_wins,
            deadline_hit: out.deadline_hit,
            final_scheme: last.scheme,
            final_tier: out.final_tier,
            fault_sites: out.fault_sites,
            proofs_emitted: out.proofs_emitted,
            proofs_rejected: out.proofs_rejected,
            accusations: out.accusations,
            ledger: out.ledger,
        })
    }
}

/// Execute a supervised repair on real bytes — the wall-clock counterpart
/// of [`rpr_core::supervise_injected`], and the same [`supervise()`] loop:
/// identically seeded storm resolution, a pool of real byte buffers keyed
/// by `(node, symbolic coefficient vector)` prefilling replacement plans,
/// helper health consulted at re-selection, and the same RPR →
/// traditional → degraded-read tier ladder.
///
/// Hedging differs from the simulator by necessity — see
/// [`mod@rpr_core::supervise`]'s module docs. `hedge_wins` counts
/// alternatives that completed the repair; because the cancelled original
/// is never run to completion, `hedge_won.saved` is reported as zero on
/// this backend (the simulator reports the true saving for the same
/// seed).
///
/// The reconstruction is verified byte-for-byte against the lost
/// originals regardless of how many faults fired.
///
/// # Errors
/// [`ExecError::MalformedStripe`] before anything runs if the stripe does
/// not hold `n + k` blocks of the context's block size; otherwise the
/// supervision loop's [`ExecError::Unrecoverable`] or
/// [`ExecError::RetriesExhausted`].
pub fn execute_supervised(
    ctx: &RepairContext<'_>,
    stripe: &[Vec<u8>],
    rec: &dyn Recorder,
    storm: &FaultStorm,
    cfg: &SuperviseConfig,
    tracker: &mut HealthTracker,
) -> Result<SupervisedReport, ExecError> {
    check_stripe(ctx.params().total(), ctx.block_bytes, stripe)?;
    ExecBackend::run(ctx, None, stripe, rec, storm, cfg, tracker)
}

/// Execute a plan on real stripe contents.
///
/// `stripe` must hold all `n + k` blocks of the stripe (failed blocks
/// included — they are used only to *verify* the reconstruction, never read
/// by plan operations; the validator enforces that).
///
/// # Panics
/// Panics if the stripe has the wrong shape or the plan is malformed (run
/// [`RepairPlan::validate`] first).
pub fn execute(plan: &RepairPlan, ctx: &RepairContext<'_>, stripe: &[Vec<u8>]) -> ExecReport {
    execute_recorded(plan, ctx, stripe, rpr_obs::noop())
}

/// Like [`execute`], but record structured wall-clock events into `rec`:
/// a fault-free [`supervise()`] on real bytes with `plan` as generation 0,
/// so the trace is the one the simulator's
/// [`simulate_traced`](rpr_core::simulate_traced) records for the same
/// plan — `plan_built`, per-transfer queued/started/done (with the *real*
/// wait between inputs becoming ready and the shapers admitting the first
/// chunk), per-combine `combine_done` with its kernel kind, one
/// `stream_summary` per streamed send, cross-rack timestep brackets, and
/// a final `repair_done` — under the same `p0op{i}:send|combine` labels.
///
/// # Panics
/// As [`execute`].
pub fn execute_recorded(
    plan: &RepairPlan,
    ctx: &RepairContext<'_>,
    stripe: &[Vec<u8>],
    rec: &dyn Recorder,
) -> ExecReport {
    check_stripe(plan.params.total(), plan.block_bytes, stripe)
        .unwrap_or_else(|e| panic!("execute: {e}"));
    let (storm, cfg) = (FaultStorm::new(0), SuperviseConfig::default());
    let tracker = &mut HealthTracker::with_defaults();
    ExecBackend::run(ctx, Some(plan), stripe, rec, &storm, &cfg, tracker)
        .expect("a fault-free generation completes the repair")
        .report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::assemble;
    use crate::executor::tests::{fast_policy, stripe_for, Fx};
    use rpr_core::RepairPlanner;
    use rpr_faults::{CrashSite, StormFault};
    use rpr_obs::Event;
    use rpr_proof::ProofMode;

    fn supervised(
        fx: &Fx,
        storm: &FaultStorm,
        cfg: &SuperviseConfig,
        seed: u64,
    ) -> (SupervisedReport, Vec<Event>) {
        supervised_in(&fx.ctx(vec![BlockId(1)]), fx, storm, cfg, seed)
    }

    fn supervised_in(
        ctx: &RepairContext<'_>,
        fx: &Fx,
        storm: &FaultStorm,
        cfg: &SuperviseConfig,
        seed: u64,
    ) -> (SupervisedReport, Vec<Event>) {
        let stripe = stripe_for(&fx.codec, fx.block as usize, seed);
        let rec = rpr_obs::TraceRecorder::default();
        let mut tracker = HealthTracker::with_defaults();
        let out = execute_supervised(ctx, &stripe, &rec, storm, cfg, &mut tracker)
            .expect("supervised repair completes");
        (out, rec.take_events())
    }

    fn fast_cfg() -> SuperviseConfig {
        SuperviseConfig {
            policy: fast_policy(),
            ..SuperviseConfig::default()
        }
    }

    /// Store-and-forward, then cut-through in `chunk`-byte chunks.
    fn block_then_streamed(fx: &Fx, chunk: u64) -> [(&'static str, RepairContext<'_>); 2] {
        [
            ("block", fx.ctx(vec![BlockId(1)])),
            ("streamed", fx.ctx_chunked(vec![BlockId(1)], chunk)),
        ]
    }

    #[test]
    fn chunked_proof_hashes_equal_the_hash_of_the_contiguous_block() {
        // Ledgers must not depend on how a value is held: a ragged chunk
        // list hashes like the block it spells, and the ground truth
        // folded chunk by chunk like the ground truth folded whole.
        let fx = Fx::new(4, 2, 4099);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 3);
        let key = ProofKey::from_seed(7);
        let coeffs = [0u8, 1, 0x1D, 0, 0xF3, 7];
        let mut whole = vec![0u8; fx.block as usize];
        for (b, &c) in coeffs.iter().enumerate() {
            rpr_gf::mul_acc_slice(c, &stripe[b], &mut whole);
        }
        let (pool, tally) = (BufferPool::process(), Tally::default());
        for sizes in [
            vec![4099u64],
            vec![1024, 1024, 1024, 1024, 3],
            vec![5, 8, 1, 31, 4054],
        ] {
            let mut at = 0;
            let value: Vec<Chunk> = sizes
                .iter()
                .map(|&size| {
                    let mut c = pool.get(size as usize, &tally);
                    c.copy_from_slice(&whole[at..at + size as usize]);
                    at += size as usize;
                    std::sync::Arc::new(c)
                })
                .collect();
            assert_eq!(
                hash_value(key, &value),
                hash_bytes(key, &whole),
                "{sizes:?}"
            );
            let mut scratch = pool.get(*sizes.iter().max().unwrap() as usize, &tally);
            assert_eq!(
                hash_truth(key, &coeffs, &stripe, &sizes, &mut scratch),
                hash_bytes(key, &whole),
                "{sizes:?}"
            );
            assert_eq!(*assemble(&value), whole, "{sizes:?}");
        }
    }

    #[test]
    fn one_timeout_retries_and_still_verifies() {
        let fx = Fx::new(6, 2, 32 * 1024);
        let storm = FaultStorm::new(3)
            .with_generation(vec![StormFault::Timeout, StormFault::Slow { factor: 0.9 }]);
        for (mode, ctx) in block_then_streamed(&fx, 4 * 1024) {
            let (out, events) = supervised_in(&ctx, &fx, &storm, &fast_cfg(), 21);
            assert!(out.report.verified, "{mode}: {:?}", out.report.mismatches);
            assert_eq!((out.retries, out.replans), (1, 0), "{mode}");
            assert!(out.fault_sites[0].starts_with("timeout op "), "{mode}");
            let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
            assert!(names.contains(&"transfer_failed"), "{mode}");
            assert!(names.contains(&"retry_scheduled"), "{mode}");
            assert_eq!(names.contains(&"stream_summary"), mode == "streamed");
            assert_eq!(*names.last().unwrap(), "repair_done", "{mode}");
        }
    }

    #[test]
    fn one_corrupted_payload_is_caught_by_checksum_and_retried() {
        // Streamed, the corruption is caught at the first verified chunk.
        let fx = Fx::new(6, 2, 32 * 1024);
        let storm = FaultStorm::new(8).with_generation(vec![StormFault::Corrupt]);
        for (mode, ctx) in block_then_streamed(&fx, 4 * 1024) {
            let (out, events) = supervised_in(&ctx, &fx, &storm, &fast_cfg(), 33);
            assert!(out.report.verified, "{mode}: {:?}", out.report.mismatches);
            assert_eq!((out.retries, out.replans), (1, 0), "{mode}");
            let failures: Vec<&str> = events
                .iter()
                .filter_map(|e| match e {
                    Event::TransferFailed { reason, .. } => Some(reason.as_str()),
                    _ => None,
                })
                .collect();
            assert_eq!(failures, [rpr_faults::reason::CORRUPT], "{mode}");
            let retries = events
                .iter()
                .filter(|e| e.name() == "retry_scheduled")
                .count();
            assert_eq!(retries, 1, "{mode}");
        }
    }

    #[test]
    fn a_fault_past_the_retry_budget_is_a_typed_error() {
        let fx = Fx::new(6, 2, 16 * 1024);
        let storm = FaultStorm::new(3).with_generation(vec![StormFault::Timeout]);
        let mut cfg = fast_cfg();
        cfg.policy.max_attempts = 1;
        let err = execute_supervised(
            &fx.ctx(vec![BlockId(1)]),
            &stripe_for(&fx.codec, fx.block as usize, 5),
            rpr_obs::noop(),
            &storm,
            &cfg,
            &mut HealthTracker::with_defaults(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::RetriesExhausted(_)), "{err}");
    }

    #[test]
    fn one_helper_crash_replans_and_verifies() {
        let fx = Fx::new(6, 3, 16 * 1024);
        for (mode, ctx) in block_then_streamed(&fx, 2 * 1024) {
            let plan = rpr_core::RprPlanner::new().plan(&ctx);
            let (node, wave) = rpr_core::crash_candidates(&plan, &ctx)[0];
            let storm =
                FaultStorm::new(17).with_generation(vec![StormFault::Crash(CrashSite::Node(node))]);
            let (out, events) = supervised_in(&ctx, &fx, &storm, &fast_cfg(), 55);
            assert!(out.report.verified, "{mode}: {:?}", out.report.mismatches);
            assert_eq!(out.replans, 1, "{mode}");
            let site = format!("crash node {node} (wave {wave}, ");
            assert!(
                out.fault_sites[0].starts_with(&site),
                "{mode}: {:?}",
                out.fault_sites
            );
            let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
            assert!(names.contains(&"helper_crashed"), "{mode}");
            assert!(names.contains(&"replanned"), "{mode}");
            assert_eq!(*names.last().unwrap(), "repair_done", "{mode}");
        }
    }

    #[test]
    fn an_empty_storm_behaves_like_plain_execution() {
        let fx = Fx::new(4, 2, 32 * 1024);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_core::RprPlanner::new().plan(&ctx);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 77);
        let (out, _) = supervised(&fx, &FaultStorm::new(0), &fast_cfg(), 77);
        let plain = crate::execute_recorded(&plan, &ctx, &stripe, rpr_obs::noop());
        assert!(out.report.verified && plain.verified);
        assert_eq!((out.retries, out.replans, out.reused_ops), (0, 0, 0));
        assert_eq!(out.final_scheme, plan.scheme);
        assert_eq!(out.report.cross_bytes, plain.cross_bytes);
        assert_eq!(out.report.inner_bytes, plain.inner_bytes);
        assert_eq!(out.report.recovered, plain.recovered);
    }

    /// A supervised repair of `stripe` under a crash storm, which must be
    /// refused before any generation runs: nothing is recorded.
    fn refused(fx: &Fx, stripe: &[Vec<u8>]) -> ExecError {
        let storm =
            FaultStorm::new(5).with_generation(vec![StormFault::Crash(CrashSite::SeedPick)]);
        let rec = rpr_obs::TraceRecorder::default();
        let mut tracker = HealthTracker::with_defaults();
        let ctx = fx.ctx(vec![BlockId(1)]);
        let err = execute_supervised(&ctx, stripe, &rec, &storm, &fast_cfg(), &mut tracker)
            .expect_err("a malformed stripe is refused");
        assert!(rec.take_events().is_empty(), "{err}: the loop ran");
        err
    }

    #[test]
    fn a_stripe_with_the_wrong_block_count_is_an_error() {
        let fx = Fx::new(4, 2, 4096);
        let mut stripe = stripe_for(&fx.codec, fx.block as usize, 5);
        stripe.pop();
        let err = refused(&fx, &stripe);
        assert_eq!(
            err,
            ExecError::MalformedStripe("5 blocks, want n + k = 6".into())
        );
    }

    #[test]
    fn a_stripe_with_unequal_block_lengths_is_an_error() {
        let fx = Fx::new(4, 2, 4096);
        let mut stripe = stripe_for(&fx.codec, fx.block as usize, 5);
        stripe[3].truncate(4000);
        let err = refused(&fx, &stripe);
        assert_eq!(
            err,
            ExecError::MalformedStripe("block 3 holds 4000 bytes, want 4096".into())
        );
    }

    #[test]
    fn supervised_three_fault_storm_completes_and_verifies() {
        // The acceptance storm: helper crash, crash of its replacement,
        // then a transient timeout — all on real bytes at (6,3).
        let fx = Fx::new(6, 3, 32 * 1024);
        let storm = FaultStorm::new(77)
            .with_generation(vec![StormFault::Crash(CrashSite::SeedPick)])
            .with_generation(vec![StormFault::Crash(CrashSite::NewHelper)])
            .with_generation(vec![StormFault::Timeout]);
        let cfg = SuperviseConfig {
            policy: fast_policy(),
            ..SuperviseConfig::default()
        };
        let (out, events) = supervised(&fx, &storm, &cfg, 55);

        assert!(
            out.report.verified,
            "mismatches: {:?}",
            out.report.mismatches
        );
        assert_eq!(out.replans, 2, "two crashes, two replans");
        assert_eq!(out.generations.len(), 3);
        assert!(out.generations[0].crashed.is_some());
        assert!(out.generations[1].crashed.is_some());
        assert!(out.generations[2].crashed.is_none());
        assert!(out.retries >= 1, "the timeout fired");
        assert_eq!(out.final_tier, Tier::Full);
        assert!(out
            .fault_sites
            .iter()
            .any(|s| s.starts_with("replacement-crash")));
        let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
        assert_eq!(names.iter().filter(|n| **n == "helper_crashed").count(), 2);
        assert_eq!(names.iter().filter(|n| **n == "replanned").count(), 2);
        assert_eq!(*names.last().unwrap(), "repair_done");
        // The fault sites replay deterministically: the crash set after a
        // cancelled generation is structural, not timing-dependent.
        let (out2, _) = supervised(&fx, &storm, &cfg, 55);
        assert_eq!(out.fault_sites, out2.fault_sites);
        assert!(out2.report.verified);
    }

    #[test]
    fn supervised_hedge_cancels_the_straggler_and_switches() {
        let fx = Fx::new(6, 3, 256 * 1024);
        // One helper's links run at 10%: its cross send would take 10x
        // the clean makespan, so the hedge deadline at 2x cancels the
        // generation, and the pool-reusing alternative completes.
        let storm = FaultStorm::new(3).with_generation(vec![StormFault::Slow { factor: 0.1 }]);
        let cfg = SuperviseConfig {
            policy: fast_policy(),
            hedge: Some(2.0),
            ..SuperviseConfig::default()
        };
        let (out, events) = supervised(&fx, &storm, &cfg, 91);

        assert!(
            out.report.verified,
            "mismatches: {:?}",
            out.report.mismatches
        );
        assert_eq!(
            out.hedges, 1,
            "the straggler must trigger exactly one hedge"
        );
        assert_eq!(out.hedge_wins, 1, "the alternative must finish the repair");
        assert_eq!(out.replans, 0, "a hedge is not a crash replan");
        assert_eq!(out.generations.len(), 2);
        let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
        assert!(names.contains(&"hedge_launched"));
        assert!(names.contains(&"hedge_won"));
        // The cancelled straggler never reappears: the winning plan
        // avoids the slow node entirely.
        let slow = events
            .iter()
            .find_map(|e| match e {
                Event::HedgeLaunched { slow_node, .. } => Some(*slow_node),
                _ => None,
            })
            .expect("hedge_launched recorded");
        let last_gen = out.generations.last().unwrap();
        assert!(last_gen.completed_ops > 0);
        assert!(
            !out.fault_sites.is_empty() && out.fault_sites[0].contains("slow"),
            "sites: {:?}",
            out.fault_sites
        );
        assert_ne!(out.report.op_timings.len(), 0);
        let _ = slow;
    }

    #[test]
    fn supervised_lie_is_convicted_on_evidence_not_timeout() {
        // The acceptance storm for the proof plane: a Byzantine helper
        // sends wrong bytes under a valid transport checksum at (6,3). The
        // transport never retries; the generation completes, proofs
        // reject, and the liar is accused and replanned around.
        let fx = Fx::new(6, 3, 32 * 1024);
        let storm = FaultStorm::new(9).with_generation(vec![StormFault::Lie]);
        let cfg = SuperviseConfig {
            policy: fast_policy(),
            proof: ProofMode::Mandatory,
            ..SuperviseConfig::default()
        };
        let ctx = fx.ctx(vec![BlockId(1)]);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 13);
        let rec = rpr_obs::TraceRecorder::default();
        // Probe window far past the run so the conviction is observable
        // in the tracker after the repair returns.
        let mut tracker = HealthTracker::new(0.5, 0.4, 100);
        let out = execute_supervised(&ctx, &stripe, &rec, &storm, &cfg, &mut tracker)
            .expect("mandatory repair completes past the liar");

        assert!(
            out.report.verified,
            "mismatches: {:?}",
            out.report.mismatches
        );
        assert!(out.proofs_emitted > 0);
        assert!(
            out.proofs_rejected > 0,
            "the lie must fail proof verification"
        );
        assert_eq!(out.accusations, 1, "exactly one helper convicted");
        assert_eq!(
            out.retries, 0,
            "valid checksums: transport never retries a lie"
        );
        assert_eq!(out.replans, 1, "conviction forces one replan");
        let liar: usize = out
            .fault_sites
            .iter()
            .find(|s| s.starts_with("lie "))
            .and_then(|s| s.trim_end_matches(')').rsplit("node ").next())
            .and_then(|n| n.parse().ok())
            .expect("site names the lying node");
        assert!(tracker.is_quarantined(liar), "the liar sits in quarantine");

        // Online conviction and offline audit agree on the culprit.
        let audit = out.ledger.audit();
        let idx = audit.first_dishonest().expect("dishonest hop localized");
        assert_eq!(out.ledger.entries[idx].proof.node, liar);

        // Evidence events in causal order; no transport-level failures.
        let names: Vec<&str> = rec.take_events().iter().map(|e| e.name()).collect();
        let rejected = names.iter().position(|n| *n == "proof_rejected");
        let accused = names.iter().position(|n| *n == "helper_accused");
        assert!(rejected.is_some() && accused.is_some() && rejected < accused);
        assert!(!names.contains(&"transfer_failed"));
        assert!(!names.contains(&"retry_scheduled"));

        // Conviction is deterministic: a fresh same-seed run produces a
        // byte-identical ledger.
        let mut tracker2 = HealthTracker::new(0.5, 0.4, 100);
        let out2 = execute_supervised(
            &ctx,
            &stripe,
            &rpr_obs::NoopRecorder,
            &storm,
            &cfg,
            &mut tracker2,
        )
        .expect("replay completes");
        assert_eq!(out.ledger.to_json_lines(), out2.ledger.to_json_lines());
    }

    #[test]
    fn a_lie_convicts_the_same_node_on_the_same_evidence_in_both_modes() {
        // The lie is enacted once, for every chunk count: the liar flips
        // the first byte of each chunk before digesting it — of the whole
        // block when the stream is one chunk.
        let fx = Fx::new(6, 3, 32 * 1024);
        let storm = FaultStorm::new(9).with_generation(vec![StormFault::Lie]);
        let cfg = SuperviseConfig {
            policy: fast_policy(),
            proof: ProofMode::Mandatory,
            ..SuperviseConfig::default()
        };
        let stripe = stripe_for(&fx.codec, fx.block as usize, 13);
        let mut convicted = Vec::new();
        for (mode, ctx) in block_then_streamed(&fx, 4 * 1024) {
            let (out, _) = supervised_in(&ctx, &fx, &storm, &cfg, 13);
            assert!(out.report.verified, "{mode}: {:?}", out.report.mismatches);
            assert_eq!(out.accusations, 1, "{mode}");
            let idx = out.ledger.audit().first_dishonest().expect("lie localized");
            let proof = &out.ledger.entries[idx].proof;
            let mut lied = vec![0u8; fx.block as usize];
            for (b, &c) in proof.coeffs.iter().enumerate() {
                if c != 0 {
                    rpr_gf::mul_acc_slice(c, &stripe[b], &mut lied);
                }
            }
            assert_eq!(
                hash_bytes(out.ledger.key(), &lied),
                proof.expected_hash,
                "{mode}"
            );
            for start in (0..lied.len()).step_by(proof.chunk_bytes as usize) {
                lied[start] ^= 0xA5;
            }
            assert_eq!(
                hash_bytes(out.ledger.key(), &lied),
                proof.output_hash,
                "{mode}"
            );
            convicted.push((proof.node, proof.op, proof.expected_hash, out.fault_sites));
        }
        assert_eq!(convicted[0], convicted[1], "block vs streamed");
    }

    #[test]
    fn exec_accused_helper_probe_readmission_depends_on_conduct() {
        // One tracker across repairs, probe window 3: a lie repair ticks
        // the generation counter twice, so the liar is still quarantined
        // when the next repair begins. An honest follow-up closes the
        // window and re-admits it; a persistent liar (the same seeded
        // storm replayed) is re-accused on its very first probe.
        let fx = Fx::new(6, 3, 16 * 1024);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 29);
        let storm = FaultStorm::new(9).with_generation(vec![StormFault::Lie]);
        let cfg = SuperviseConfig {
            policy: fast_policy(),
            proof: ProofMode::Mandatory,
            ..SuperviseConfig::default()
        };

        let mut tracker = HealthTracker::new(0.5, 0.4, 3);
        let out = execute_supervised(
            &ctx,
            &stripe,
            &rpr_obs::NoopRecorder,
            &storm,
            &cfg,
            &mut tracker,
        )
        .expect("lie repair completes");
        assert!(out.report.verified);
        assert_eq!(out.accusations, 1);
        let liar = tracker.quarantined();
        assert_eq!(liar.len(), 1, "the convicted helper is quarantined");
        let liar = liar[0];

        // Turned honest: a fault-free repair on the same tracker elapses
        // the probe window and re-admits the node.
        let clean = execute_supervised(
            &ctx,
            &stripe,
            &rpr_obs::NoopRecorder,
            &FaultStorm::new(10),
            &cfg,
            &mut tracker,
        )
        .expect("clean repair completes");
        assert!(clean.report.verified);
        assert_eq!(clean.accusations, 0);
        assert!(
            !tracker.is_quarantined(liar),
            "honest node re-admitted once the probe window elapses"
        );

        // Persistent liar: replaying the same seeded storm makes the
        // re-admitted node lie again, and evidence puts it right back in
        // quarantine — probation never becomes trust.
        let again = execute_supervised(
            &ctx,
            &stripe,
            &rpr_obs::NoopRecorder,
            &storm,
            &cfg,
            &mut tracker,
        )
        .expect("repeat-offense repair completes");
        assert!(again.report.verified);
        assert_eq!(again.accusations, 1, "re-accused on the first probe");
        assert_eq!(again.fault_sites, out.fault_sites, "same node, same lie");
        assert!(tracker.score(liar) <= 0.4 + 1e-12, "score never recovers");
    }

    #[test]
    fn supervised_replan_budget_exhaustion_degrades_the_tier() {
        let fx = Fx::new(6, 3, 16 * 1024);
        let storm =
            FaultStorm::new(17).with_generation(vec![StormFault::Crash(CrashSite::SeedPick)]);
        let cfg = SuperviseConfig {
            policy: fast_policy(),
            max_replans: 0,
            ..SuperviseConfig::default()
        };
        let (out, events) = supervised(&fx, &storm, &cfg, 23);

        assert!(
            out.report.verified,
            "mismatches: {:?}",
            out.report.mismatches
        );
        assert_eq!(out.replans, 1);
        assert!(
            out.final_tier >= Tier::Traditional,
            "tier: {:?}",
            out.final_tier
        );
        assert!(events.iter().any(|e| e.name() == "degraded_fallback"));
    }
}
