//! The repair supervisor: one loop that drives a repair to byte-verified
//! completion under an arbitrary *sequence* of faults, on any substrate.
//!
//! [`supervise`] is a bounded **supervision loop** over a
//! [`RepairBackend`], and the only way a repair is run and recorded: a
//! single injected fault is a one-bucket [`FaultStorm`], and a clean run
//! ([`simulate_traced`](crate::trace::simulate_traced), `rpr-exec`'s
//! `execute`) is an empty storm over the caller's plan. Each iteration is
//! one *generation*: the backend runs a plan (the original, or a replan)
//! until it completes, a storm fault kills one of its helpers, or the
//! backend's hedge deadline cancels it, and the loop
//!
//! 1. resolves the storm's next bucket against the plan
//!    ([`resolve_storm_bucket`]: seeded, so every backend picks the same
//!    sites), carrying surplus crashes and every `Slow` derate forward;
//! 2. brackets the generation's finished cross-rack waves with
//!    `timestep_started` / `timestep_finished` and feeds each sender's
//!    finished-send duration into a [`HealthTracker`] so helper
//!    re-selection stops re-picking known-bad nodes (quarantined nodes
//!    are [avoided](crate::scenario::RepairContext::with_avoided), with
//!    probing re-admission);
//! 3. seals the backend's proof evidence into the ledger and, under
//!    Mandatory proofs, accuses the helpers it convicts;
//! 4. banks every finished partial result into a **pool** keyed by
//!    `(node, symbolic coefficient vector)` with its `(generation, op)`
//!    provenance — entries survive across *every* replan generation and
//!    are evicted only when their host dies or is accused;
//! 5. replans around the damage via [`plan_with_pool`], descending the
//!    RPR → CAR → traditional → degraded-read **tier ladder** when the
//!    replan budget or the repair deadline is blown.
//!
//! A backend owns only what genuinely differs between substrates: running
//! one generation under resolved faults, the clock, the hashes of what it
//! holds (symbolic on the simulator, keyed hashes of real bytes on the
//! executor), and *how* it hedges. Every proof is built once, by
//! [`build_evidence`], and a helper is convicted by
//! [`rpr_proof::convicts`], the rule `rpr audit` applies offline. Two
//! backends exist: [`SimBackend`]
//! (`rpr-netsim` on the virtual clock, behind [`supervise_injected`];
//! bit-deterministic for a fixed seed, which is what `scripts/verify.sh`'s
//! chaos soak checks) and `rpr-exec`'s threaded executor on real bytes.
//! Hedging is the one capability whose *shape* differs: virtual time can
//! be rewound, so the simulator resolves a hedge inside a completed
//! generation ([`Splice`] — the alternative is adopted only if it finishes
//! first); real time cannot, so a byte-moving backend cancels the
//! straggling generation ([`Ending::Cancelled`]) and the loop launches the
//! alternative as the next one.

mod sim_backend;

pub use sim_backend::{SimBackend, Taint};

use crate::plan::{Input, Op, OpId, Payload, RepairPlan};
use crate::scenario::RepairContext;
use crate::schemes::{CarPlanner, RepairPlanner, RprPlanner, TraditionalPlanner};
use crate::sim::JobGraph;
use crate::trace::{op_label, plan_built, wave_spans};
use rpr_faults::{
    reason, CrashSite, FaultStorm, HealthTracker, RetryPolicy, SplitMix64, StormFault,
};
use rpr_obs::{Event, Recorder};
use rpr_proof::{convicts, ProofKey, ProofLedger, ProofMode, ProofSource, RepairProof};
use rpr_topology::{NodeId, Topology};
use std::collections::HashMap;

/// Time tolerance when comparing simulation instants.
const EPS: f64 = 1e-9;

/// Service tier the supervisor is currently running at. Each step down
/// trades repair quality for certainty of completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Full planner chain (RPR → CAR → traditional, first to validate).
    Full,
    /// Forced traditional repair: no pipeline schedule to re-derive, the
    /// most predictable plan shape.
    Traditional,
    /// Degraded read: deliver the reconstruction straight to a live
    /// client node instead of the (possibly contended) replacement.
    DegradedRead,
}

impl Tier {
    /// Stable lowercase name used in events and summaries.
    pub fn name(&self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Traditional => "traditional",
            Tier::DegradedRead => "degraded-read",
        }
    }
}

/// Supervisor knobs. [`Default`] gives the stock retry policy, a budget
/// of 4 replans, and no hedging or deadline.
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Backoff policy between retries and replan generations.
    pub policy: RetryPolicy,
    /// Replans allowed before the tier ladder starts descending.
    pub max_replans: usize,
    /// Hedging threshold: a cross transfer running past this multiple of
    /// its wave's median duration triggers a speculative alternative.
    /// `None` disables hedging.
    pub hedge: Option<f64>,
    /// Whole-repair deadline in seconds, decomposed into per-wave budgets
    /// proportional to the clean run's wave spans. Blowing it degrades
    /// the tier instead of aborting. `None` disables deadline tracking.
    pub deadline: Option<f64>,
    /// Proof plane enforcement level. [`ProofMode::Off`] (the default)
    /// is bit-identical to the pre-proof behavior; `Advisory` emits and
    /// verifies proofs without altering control flow; `Mandatory` fails
    /// a generation on proof rejection, accuses the dishonest helper,
    /// and replans without it.
    pub proof: ProofMode,
}

impl Default for SuperviseConfig {
    fn default() -> SuperviseConfig {
        SuperviseConfig {
            policy: RetryPolicy::default(),
            max_replans: 4,
            hedge: None,
            deadline: None,
            proof: ProofMode::default(),
        }
    }
}

/// What one supervision generation did — the raw material for the
/// replan-invariant property tests and the `--json` summaries.
#[derive(Debug, Clone)]
pub struct GenerationRecord {
    /// Scheme of the plan this generation ran.
    pub scheme: String,
    /// Tier the generation ran at.
    pub tier: Tier,
    /// Ops the generation actually executed (lowered, not reused).
    pub executed_ops: usize,
    /// Ops satisfied from the partial-result pool without re-execution.
    pub reused_ops: usize,
    /// Executed ops that finished before the generation ended (all of
    /// them when it completed; fewer when a crash cut it short).
    pub completed_ops: usize,
    /// Partial-pool size when the generation started. The reuse
    /// invariant: `reused_ops <= pool_before`.
    pub pool_before: usize,
    /// Node that crashed and ended this generation, if any.
    pub crashed: Option<usize>,
    /// Names of the storm faults injected into this generation.
    pub faults: Vec<String>,
}

/// The outcome of one supervised repair.
#[derive(Debug, Clone)]
pub struct SuperviseOutcome {
    /// Total repair time including retries, backoff, and all replans.
    pub repair_time: f64,
    /// The original plan's fault-free repair time (degradation baseline).
    pub clean_time: f64,
    /// Per-generation records, in order.
    pub generations: Vec<GenerationRecord>,
    /// Transient-fault retries that actually fired.
    pub retries: usize,
    /// Replan generations after helper crashes.
    pub replans: usize,
    /// Total ops satisfied from the partial pool across all generations.
    pub reused_ops: usize,
    /// Scheme of the plan that ultimately completed the repair.
    pub final_scheme: String,
    /// Tier the repair completed at.
    pub final_tier: Tier,
    /// Hedges launched.
    pub hedges: usize,
    /// Hedges that beat the original transfer.
    pub hedge_wins: usize,
    /// True when the repair deadline was exceeded at any point.
    pub deadline_hit: bool,
    /// Human-readable resolved fault sites, in injection order.
    pub fault_sites: Vec<String>,
    /// Cross-rack bytes actually moved (completed transfers only).
    pub cross_bytes: u64,
    /// Inner-rack bytes actually moved.
    pub inner_bytes: u64,
    /// Proofs emitted across all generations (0 with the proof plane off).
    pub proofs_emitted: usize,
    /// Proofs whose output hash disagreed with its expected witness.
    pub proofs_rejected: usize,
    /// Helpers accused (and quarantined) on proof evidence. Mandatory
    /// mode only — Advisory records rejections without accusing.
    pub accusations: usize,
    /// The sealed proof ledger (no entries with the proof plane off).
    pub ledger: ProofLedger,
}

/// Why a supervised repair could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum SuperviseError {
    /// A transfer's injected failures exhaust the retry budget.
    RetriesExhausted(String),
    /// The storm killed more than `k` blocks in total, no fallback plan
    /// validates, or the generation cap tripped.
    Unrecoverable(String),
}

impl From<SuperviseError> for String {
    fn from(e: SuperviseError) -> String {
        match e {
            SuperviseError::RetriesExhausted(m) | SuperviseError::Unrecoverable(m) => m,
        }
    }
}

/// One resolved failure of a single transfer attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttemptFault {
    /// Fraction of the payload moved before the attempt is abandoned, in
    /// `[0, 1]` (1.0 models corruption: the full payload arrives and
    /// fails checksum verification).
    pub fraction: f64,
    /// Stable reason string (see [`rpr_faults::reason`]).
    pub reason: &'static str,
}

/// A helper crash resolved to the concrete op whose start triggers it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashFault {
    /// The dying helper.
    pub node: NodeId,
    /// The pipeline wave at which it dies.
    pub timestep: usize,
    /// The cross-rack send whose start marks the death: the node fails
    /// immediately after beginning this transfer, which therefore never
    /// completes.
    pub trigger: OpId,
}

/// Storm faults resolved against one concrete [`RepairPlan`]: every
/// symbolic fault pinned to plan ops with its free parameters (failure
/// fractions) drawn from the seeded stream.
#[derive(Clone, Debug)]
pub struct ResolvedFaults {
    /// Per-op injected attempt failures, in injection order (`op_faults[i]`
    /// is empty for unaffected ops).
    pub op_faults: Vec<Vec<AttemptFault>>,
    /// At most one helper crash.
    pub crash: Option<CrashFault>,
    /// Per-node bandwidth derates `(node, factor)` active for the whole
    /// generation.
    pub slow: Vec<(NodeId, f64)>,
    /// Send ops whose helper turns Byzantine: the payload carries wrong
    /// bytes under a valid transport checksum. Only the proof plane
    /// (`rpr-proof`, [`SuperviseConfig::proof`]) can detect these —
    /// transport-level retry never fires.
    pub lies: Vec<usize>,
}

/// One storm bucket resolved against a concrete generation plan.
#[derive(Debug, Clone)]
pub struct GenFaults {
    /// The concrete faults: per-op attempt failures, at most one crash,
    /// link derates.
    pub resolved: ResolvedFaults,
    /// Human-readable site descriptions, in injection order.
    pub descriptions: Vec<String>,
    /// Crash faults beyond the first: a generation ends at its first
    /// crash, so extra crashes carry over into the next bucket.
    pub deferred: Vec<StormFault>,
}

/// Resolve one storm bucket against the current generation's plan.
///
/// Both backends call this with identical inputs, so the seeded picks
/// land on identical sites: `lowered` restricts targets to ops the
/// generation actually executes, `prev_senders` (cross-rack senders of
/// the *previous* generation's plan) anchors
/// [`CrashSite::NewHelper`] — "crash the replacement" — and every free
/// parameter draws from `rng` in declaration order.
pub fn resolve_storm_bucket(
    bucket: &[StormFault],
    plan: &RepairPlan,
    lowered: &[bool],
    prev_senders: Option<&[usize]>,
    ctx: &RepairContext<'_>,
    rng: &mut SplitMix64,
) -> GenFaults {
    let (waves, _) = plan.cross_waves(ctx.topo);
    let mut out = GenFaults {
        resolved: ResolvedFaults {
            op_faults: vec![Vec::new(); plan.ops.len()],
            crash: None,
            slow: Vec::new(),
            lies: Vec::new(),
        },
        descriptions: Vec::new(),
        deferred: Vec::new(),
    };

    // Executed sends (timeout/corrupt targets) and cross sends.
    let send_ops: Vec<usize> = (0..plan.ops.len())
        .filter(|&i| lowered[i] && matches!(plan.ops[i], Op::Send { .. }))
        .collect();
    let cross_ops: Vec<usize> = send_ops
        .iter()
        .copied()
        .filter(|&i| waves[i].is_some())
        .collect();
    let candidates = crash_sites(plan, lowered, &waves, ctx);
    let mut nodes: Vec<usize> = candidates.iter().map(|&(n, _, _)| n).collect();
    nodes.dedup();
    let sender_nodes: Vec<usize> = {
        let mut ns: Vec<usize> = send_ops
            .iter()
            .filter_map(|&i| match &plan.ops[i] {
                Op::Send { from, .. } if *from != plan.recovery => Some(from.0),
                _ => None,
            })
            .collect();
        ns.sort_unstable();
        ns.dedup();
        ns
    };

    let trigger_for = |node: usize| -> Option<(usize, usize)> {
        candidates
            .iter()
            .find(|&&(n, _, _)| n == node)
            .map(|&(_, w, i)| (w, i))
    };

    for fault in bucket {
        match fault {
            StormFault::Crash(site) => {
                if out.resolved.crash.is_some() {
                    out.deferred.push(*fault);
                    continue;
                }
                if nodes.is_empty() {
                    out.descriptions
                        .push("crash skipped (no live cross-rack helpers)".into());
                    continue;
                }
                let node = match site {
                    CrashSite::Node(n) if nodes.contains(n) => *n,
                    CrashSite::Node(_) | CrashSite::SeedPick => nodes[rng.pick(nodes.len())],
                    CrashSite::NewHelper => {
                        let fresh: Vec<usize> = nodes
                            .iter()
                            .copied()
                            .filter(|n| prev_senders.is_none_or(|p| !p.contains(n)))
                            .collect();
                        if fresh.is_empty() || prev_senders.is_none() {
                            nodes[rng.pick(nodes.len())]
                        } else {
                            fresh[rng.pick(fresh.len())]
                        }
                    }
                };
                let (w, i) = trigger_for(node).expect("node came from candidates");
                out.resolved.crash = Some(CrashFault {
                    node: NodeId(node),
                    timestep: w,
                    trigger: OpId(i),
                });
                out.descriptions
                    .push(format!("{} node {node} (wave {w}, op {i})", fault.name()));
            }
            StormFault::Timeout => {
                if send_ops.is_empty() {
                    out.descriptions.push("timeout skipped (no sends)".into());
                    continue;
                }
                let i = send_ops[rng.pick(send_ops.len())];
                let fraction = 0.25 + 0.5 * rng.next_f64();
                out.resolved.op_faults[i].push(AttemptFault {
                    fraction,
                    reason: reason::TIMEOUT,
                });
                out.descriptions.push(format!("timeout op {i}"));
            }
            StormFault::Corrupt => {
                if send_ops.is_empty() {
                    out.descriptions.push("corrupt skipped (no sends)".into());
                    continue;
                }
                let i = send_ops[rng.pick(send_ops.len())];
                out.resolved.op_faults[i].push(AttemptFault {
                    fraction: 1.0,
                    reason: reason::CORRUPT,
                });
                out.descriptions.push(format!("corrupt op {i}"));
            }
            StormFault::Slow { factor } => {
                if sender_nodes.is_empty() {
                    out.descriptions.push("slow skipped (no helpers)".into());
                    continue;
                }
                let node = sender_nodes[rng.pick(sender_nodes.len())];
                out.resolved.slow.push((NodeId(node), *factor));
                out.descriptions
                    .push(format!("slow node {node} (x{factor:.2})"));
            }
            StormFault::Lie => {
                // A Byzantine helper: its send carries wrong bytes under
                // a valid transport checksum, so transport-level retry never
                // fires — only the proof plane can catch it. The target
                // must be a helper send (the recovery node folds, it does
                // not serve blocks) so there is a node to accuse.
                let liars: Vec<usize> = send_ops
                    .iter()
                    .copied()
                    .filter(|&i| matches!(&plan.ops[i], Op::Send { from, .. } if *from != plan.recovery))
                    .collect();
                if liars.is_empty() {
                    out.descriptions
                        .push("lie skipped (no helper sends)".into());
                    continue;
                }
                let i = liars[rng.pick(liars.len())];
                let node = match &plan.ops[i] {
                    Op::Send { from, .. } => from.0,
                    _ => unreachable!("lie targets sends"),
                };
                out.resolved.lies.push(i);
                out.descriptions.push(format!("lie op {i} (node {node})"));
            }
            StormFault::RackOutage => {
                let mut racks: Vec<usize> = cross_ops
                    .iter()
                    .filter_map(|&i| match &plan.ops[i] {
                        Op::Send { from, .. } => Some(ctx.topo.rack_of(*from).0),
                        _ => None,
                    })
                    .collect();
                racks.sort_unstable();
                racks.dedup();
                if racks.is_empty() {
                    out.descriptions
                        .push("rack outage skipped (no cross sends)".into());
                    continue;
                }
                let rack = racks[rng.pick(racks.len())];
                let mut hit = 0usize;
                for &i in &cross_ops {
                    if let Op::Send { from, .. } = &plan.ops[i] {
                        if ctx.topo.rack_of(*from).0 == rack {
                            let fraction = 0.25 + 0.5 * rng.next_f64();
                            out.resolved.op_faults[i].push(AttemptFault {
                                fraction,
                                reason: reason::SWITCH_OUTAGE,
                            });
                            hit += 1;
                        }
                    }
                }
                out.descriptions
                    .push(format!("rack {rack} outage ({hit} transfers)"));
            }
        }
    }
    out
}

/// `Err` when any op's injected failure count exhausts the retry budget
/// (`max_attempts` attempts per transfer, the last of which must succeed).
pub fn check_retry_budget(
    op_faults: &[Vec<AttemptFault>],
    policy: &RetryPolicy,
) -> Result<(), String> {
    let exhausted = |fs: &Vec<AttemptFault>| !fs.is_empty() && fs.len() >= policy.max_attempts;
    match op_faults.iter().position(exhausted) {
        Some(i) => Err(format!(
            "op {i}: {} injected failures exhaust the retry budget \
             (max_attempts = {})",
            op_faults[i].len(),
            policy.max_attempts
        )),
        None => Ok(()),
    }
}

/// Every `(node, timestep)` pair at which a helper crash can fire for this
/// plan: the sites [`resolve_storm_bucket`] picks crashes from, over all
/// ops — live-block-hosting helpers (not the recovery node) at the wave
/// of each of their cross-rack sends — sorted by `(timestep, node)` and
/// deduplicated. A [`CrashSite::Node`] naming one of these nodes crashes
/// it at its first listed timestep; tests and the benchmark enumerate
/// them to aim crashes.
pub fn crash_candidates(plan: &RepairPlan, ctx: &RepairContext<'_>) -> Vec<(usize, usize)> {
    let (waves, _) = plan.cross_waves(ctx.topo);
    let all = vec![true; plan.ops.len()];
    let mut out: Vec<(usize, usize)> = crash_sites(plan, &all, &waves, ctx)
        .into_iter()
        .map(|(n, w, _)| (n, w))
        .collect();
    out.dedup();
    out
}

/// Where a helper crash can land in the `lowered` ops of a plan, as
/// `(node, wave, op)`: every cross-rack send from a node other than the
/// plan's recovery node that hosts a live (not failed) block of the
/// stripe, sorted by `(wave, node, op)`.
fn crash_sites(
    plan: &RepairPlan,
    lowered: &[bool],
    waves: &[Option<usize>],
    ctx: &RepairContext<'_>,
) -> Vec<(usize, usize, usize)> {
    let mut sites: Vec<(usize, usize, usize)> = Vec::new();
    for (i, op) in plan.ops.iter().enumerate() {
        if let (true, Op::Send { from, .. }, Some(w)) = (lowered[i], op, waves[i]) {
            let live = ctx
                .placement
                .block_on(*from)
                .is_some_and(|b| !ctx.failed.contains(&b));
            if *from != plan.recovery && live {
                sites.push((from.0, w, i));
            }
        }
    }
    sites.sort_unstable_by_key(|&(n, w, i)| (w, n, i));
    sites
}

/// First validating plan along the RPR → CAR (single failures only) →
/// traditional chain: what the supervisor runs as its first generation,
/// and so what the fleet scheduler reserves bandwidth for (replans stay
/// within the stripe's rack footprint, so the initial plan's demand
/// remains the right reservation).
///
/// # Errors
/// Every planner's validation failure, if none in the chain produces a
/// valid plan (cannot happen for ≤ k failures on a single-rack-fault-
/// tolerant placement).
pub fn first_valid_plan(ctx: &RepairContext<'_>) -> Result<RepairPlan, String> {
    let mut errors = Vec::new();
    let rpr = RprPlanner::new().plan(ctx);
    match rpr.validate(ctx.codec, ctx.topo, ctx.placement) {
        Ok(()) => return Ok(rpr),
        Err(e) => errors.push(format!("rpr: {e}")),
    }
    if ctx.failed.len() == 1 {
        let car = CarPlanner::new().plan(ctx);
        match car.validate(ctx.codec, ctx.topo, ctx.placement) {
            Ok(()) => return Ok(car),
            Err(e) => errors.push(format!("car: {e}")),
        }
    }
    let trad = TraditionalPlanner::new().plan(ctx);
    match trad.validate(ctx.codec, ctx.topo, ctx.placement) {
        Ok(()) => return Ok(trad),
        Err(e) => errors.push(format!("traditional: {e}")),
    }
    Err(format!(
        "replan: no fallback validates ({})",
        errors.join("; ")
    ))
}

/// A pool-aware replacement plan: which ops the partial-result pool
/// already satisfies and which must actually execute.
#[derive(Debug, Clone)]
pub struct PoolReplan {
    /// The plan (built by the tier's planner chain).
    pub plan: RepairPlan,
    /// Per-op pool key `(node, symbolic vector)` satisfying it, if any.
    pub reused: Vec<Option<(usize, Vec<u8>)>>,
    /// Per-op: whether it must actually execute (reachable from an
    /// output and not satisfied by the pool).
    pub lowered: Vec<bool>,
}

impl PoolReplan {
    /// `plan` against `pool`: every op whose output the pool holds (same
    /// node, same symbolic vector — byte-identical contents) is reused, and
    /// the walk from the outputs stops there (its inputs need not rerun).
    fn new<V>(plan: RepairPlan, pool: &HashMap<PoolKey, V>) -> PoolReplan {
        let vecs = plan.symbolic_vectors();
        let key = |i: usize| (plan.ops[i].output_location().0, vecs[i].clone());
        let hit: Vec<bool> = (0..plan.ops.len())
            .map(|i| pool.contains_key(&key(i)))
            .collect();
        let mut needed = vec![false; plan.ops.len()];
        let mut stack: Vec<usize> = plan.outputs.iter().map(|&(_, op)| op.0).collect();
        while let Some(i) = stack.pop() {
            if !needed[i] {
                needed[i] = true;
                if !hit[i] {
                    stack.extend(plan.deps_of(i).iter().map(|d| d.0));
                }
            }
        }
        let ops = 0..plan.ops.len();
        let reused = ops
            .clone()
            .map(|i| (needed[i] && hit[i]).then(|| key(i)))
            .collect();
        let lowered = ops.map(|i| needed[i] && !hit[i]).collect();
        PoolReplan {
            plan,
            reused,
            lowered,
        }
    }

    /// Ops satisfied by the pool.
    pub fn reused_count(&self) -> usize {
        self.reused.iter().filter(|r| r.is_some()).count()
    }

    /// Ops that actually execute.
    pub fn executed_count(&self) -> usize {
        self.lowered.iter().filter(|l| **l).count()
    }
}

/// Build a plan for `ctx` at `tier`, marking every op whose output the
/// partial pool already holds as reused and lowering only what the
/// outputs still need. Reuse is conservative and provably correct: value
/// and location must both coincide.
///
/// Shared by both backends: the sim pool carries only keys, the exec
/// pool maps the same keys to real byte buffers, so `V` is generic.
pub fn plan_with_pool<V>(
    ctx: &RepairContext<'_>,
    pool: &HashMap<(usize, Vec<u8>), V>,
    tier: Tier,
) -> Result<PoolReplan, String> {
    let usable = ctx.survivors().len();
    if usable < ctx.params().n {
        // An avoid list (quarantined helpers) can starve the planners
        // below the n survivors decoding needs; that must surface as an
        // error the supervisor can catch with an unfiltered retry, not a
        // planner panic.
        return Err(format!(
            "replan: only {usable} usable survivors (need {})",
            ctx.params().n
        ));
    }
    let plan = match tier {
        Tier::Full => first_valid_plan(ctx)?,
        Tier::Traditional | Tier::DegradedRead => {
            let p = TraditionalPlanner::new().plan(ctx);
            p.validate(ctx.codec, ctx.topo, ctx.placement)
                .map_err(|e| format!("traditional: {e}"))?;
            p
        }
    };
    Ok(PoolReplan::new(plan, pool))
}

/// Pool key of a partial result: `(hosting node, symbolic coefficient
/// vector)` — equal keys hold byte-identical values for any stripe.
pub type PoolKey = (usize, Vec<u8>);

/// One banked partial result.
#[derive(Debug, Clone)]
pub struct Banked<P> {
    /// The backend's handle on the value (real bytes, or a symbolic
    /// stand-in).
    pub partial: P,
    /// The `(generation, op)` that produced it, so a pool re-serve's proof
    /// names its true origin ([`ProofSource::Pooled`](rpr_proof::ProofSource)).
    pub origin: (usize, usize),
}

/// Everything a backend needs to run one generation.
pub struct Generation<'a, 'c, P> {
    /// Generation index `g` — also the label tag (`p{g}op{i}`).
    pub index: usize,
    /// This generation's context: grown failure set, pinned recovery node
    /// (or degraded-read client), same topology and cost model.
    pub ctx: &'a RepairContext<'c>,
    /// The plan to run.
    pub plan: &'a RepairPlan,
    /// [`RepairPlan::symbolic_vectors`] of `plan`.
    pub vecs: &'a [Vec<u8>],
    /// `plan` lowered over [`lowered`](Generation::lowered): the one job
    /// graph the backend runs, and the chunk split its proofs record.
    pub graph: &'a JobGraph<'a>,
    /// Per-op: whether it executes (false: pruned, or served by the pool).
    pub lowered: &'a [bool],
    /// Per-op: the banked partial serving it instead of execution.
    pub reused: Vec<Option<&'a Banked<P>>>,
    /// This generation's resolved faults. `slow` holds every derate
    /// injected so far, not just this bucket's: degraded hardware does
    /// not heal when the supervisor replans around it.
    pub faults: &'a ResolvedFaults,
    /// Retry backoff schedule for transient transfer failures.
    pub policy: &'a RetryPolicy,
    /// Straggler multiple ([`SuperviseConfig::hedge`]) when this generation
    /// may hedge.
    pub hedge: Option<f64>,
    tier: Tier,
    pool: &'a HashMap<PoolKey, Banked<P>>,
    dead: &'a [NodeId],
    tracker: &'a HealthTracker,
}

impl<P> Generation<'_, '_, P> {
    /// The speculative alternative to this generation: a pool-reusing plan
    /// at the same tier that avoids `slow` (and every quarantined node),
    /// counting the ops flagged in `done` as already banked. `None` when
    /// no plan exists without the slow node.
    pub fn alternative(&self, slow: NodeId, done: &[bool]) -> Option<PoolReplan> {
        let mut banked: HashMap<PoolKey, ()> = self.pool.keys().map(|k| (k.clone(), ())).collect();
        for (i, op) in self.plan.ops.iter().enumerate() {
            let loc = op.output_location();
            if done[i] && !self.dead.contains(&loc) {
                banked.insert((loc.0, self.vecs[i].clone()), ());
            }
        }
        let avoid = avoid_list(quarantined(self.tracker), Some(slow), self.dead);
        plan_with_pool(&self.ctx.clone().with_avoided(avoid), &banked, self.tier).ok()
    }
}

/// How a generation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    /// Every lowered op finished.
    Completed,
    /// This helper died mid-generation.
    Crashed(NodeId),
    /// The backend's hedge deadline cancelled the generation while send
    /// op `straggler` was still in flight.
    Cancelled {
        /// The unfinished send whose source is the straggling helper.
        straggler: usize,
    },
}

/// A hedge the backend resolved *inside* a completed generation (the
/// simulator's counterfactual splice).
#[derive(Debug, Clone, Copy)]
pub struct Splice {
    /// Pool-served ops of the adopted alternative; `None` when the
    /// original transfer still finished first.
    pub won: Option<usize>,
    /// Where the trace switches to the alternative, on the generation's
    /// clock (infinity when the original finished first): the original
    /// plan's sends that finish later never ran.
    pub cut: f64,
}

/// What one generation did.
pub struct GenerationRun<P> {
    /// How it ended.
    pub ending: Ending,
    /// Clock reading the [`spans`](GenerationRun::spans) are relative to.
    pub started: f64,
    /// Clock reading when the generation ended.
    pub now: f64,
    /// Per-op output of every executed op that finished (`None`: pruned,
    /// pool-served, or cut short).
    pub partials: Vec<Option<P>>,
    /// Per-op `(start, end)`, meaningful where the op finished.
    pub spans: Vec<(f64, f64)>,
    /// Transient-fault retries that fired.
    pub retries: usize,
    /// `(cross-rack, inner-rack)` bytes of completed transfers.
    pub traffic: (u64, u64),
    /// A hedge launched and resolved within the generation.
    pub splice: Option<Splice>,
}

/// One generation's proof evidence.
#[derive(Debug, Clone, Default)]
pub struct Evidence {
    /// One proof per available value (finished or pool-served), op order.
    pub proofs: Vec<RepairProof>,
    /// Ops whose output disagrees with its expected witness.
    pub tainted: Vec<usize>,
    /// Nodes the evidence convicts (sorted, deduplicated) by
    /// [`rpr_proof::convicts`]: wrong output from honest inputs.
    pub dishonest: Vec<usize>,
}

/// Build one generation's proof evidence: the one proof builder both
/// backends call from [`RepairBackend::prove`]. It walks every available
/// value — executed, or re-served from the pool — in op order and derives
/// the suspect node (the sender of a transfer, the folding node of a
/// combine, the host of a re-serve), the inputs in consumption order, a
/// re-serve's `Pooled` provenance and `"pool"` algorithm, the chunk
/// geometry from [`Generation::graph`], taint (output ≠ expected) and
/// conviction by [`rpr_proof::convicts`], the rule `rpr audit` applies
/// offline.
///
/// The backend supplies only what it holds: `block(b)` hashes stripe
/// block `b` as stored; `value(coeffs, v)` returns the `(output,
/// expected)` hashes of an available value `v` whose symbolic vector is
/// `coeffs` — its own bytes, and the ground truth it should equal;
/// `label(i)` names the algorithm executed op `i` ran.
pub fn build_evidence<P>(
    gen: &Generation<'_, '_, P>,
    run: &GenerationRun<P>,
    block: impl Fn(usize) -> u128,
    mut value: impl FnMut(&[u8], &P) -> (u128, u128),
    label: impl Fn(usize) -> String,
) -> Evidence {
    let (plan, chunks) = (gen.plan, &gen.graph.chunks);
    // Per op: the (output, expected) hashes of its available value.
    let mut hashes: Vec<Option<(u128, u128)>> = vec![None; plan.ops.len()];
    let mut evidence = Evidence::default();
    for (i, op) in plan.ops.iter().enumerate() {
        let banked = gen.reused[i];
        let Some(v) = banked.map(|b| &b.partial).or(run.partials[i].as_ref()) else {
            continue;
        };
        let (output_hash, expected_hash) = value(&gen.vecs[i], v);
        hashes[i] = Some((output_hash, expected_hash));
        let op_input = |s: OpId| {
            let (h, _) = hashes[s.0].expect("producers precede consumers");
            (ProofSource::Op(s.0), h)
        };
        let block_input = |b: usize| (ProofSource::Block(b), block(b));
        let (node, algorithm, inputs) = match (banked, op) {
            // A re-serve forwards the banked bytes: its one input is the
            // partial's original producer, hash equal to its own output,
            // so audits chase taint back to the liar across generations.
            (Some(b), _) => {
                let (gen, origin_op) = b.origin;
                let source = ProofSource::Pooled { gen, op: origin_op };
                let host = op.output_location().0;
                (host, "pool".to_string(), vec![(source, output_hash)])
            }
            (None, Op::Send { what, from, .. }) => {
                let input = match what {
                    Payload::Block(b) => block_input(b.0),
                    Payload::Intermediate(src) => op_input(*src),
                };
                (from.0, label(i), vec![input])
            }
            (None, Op::Combine { node, inputs, .. }) => {
                let inputs = inputs
                    .iter()
                    .map(|inp| match inp {
                        Input::Block { via: Some(v), .. } => op_input(*v),
                        Input::Block { block, .. } => block_input(block.0),
                        Input::Intermediate(src) => op_input(*src),
                    })
                    .collect();
                (node.0, label(i), inputs)
            }
        };
        let proof = RepairProof {
            op: i,
            node,
            coeffs: gen.vecs[i].clone(),
            inputs,
            output_hash,
            expected_hash,
            algorithm,
            chunks: chunks.len(),
            chunk_bytes: chunks[0],
        };
        if !proof.honest_output() {
            evidence.tainted.push(i);
        }
        // A re-serve's producer banked this very coefficient vector, so
        // its expected hash is this op's.
        let producer_expected = |src| match src {
            ProofSource::Op(s) => hashes[s].map(|(_, e)| e),
            ProofSource::Pooled { .. } => Some(expected_hash),
            ProofSource::Block(_) => None,
        };
        if convicts(&proof, producer_expected) {
            evidence.dishonest.push(node);
        }
        evidence.proofs.push(proof);
    }
    evidence.dishonest.sort_unstable();
    evidence.dishonest.dedup();
    evidence
}

/// The fault-free reference a backend measured for the original plan.
/// [`Default`] (no measurement) disables per-wave deadline budgets.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Fault-free repair time.
    pub clean_time: f64,
    /// Per-wave `(start, finish)` of the fault-free run.
    pub wave_spans: Vec<(f64, f64)>,
}

/// A substrate that can run one generation of a repair plan. Everything
/// else — which faults strike, what is banked and purged, when to replan
/// and at which tier, who is accused — is [`supervise`]'s.
pub trait RepairBackend {
    /// The backend's handle on a partial result: real bytes on a
    /// byte-moving substrate, a symbolic stand-in on a simulated one.
    type Partial;

    /// Called once with the original plan before generation 0.
    fn begin(&mut self, plan: &RepairPlan, ctx: &RepairContext<'_>) -> Baseline;

    /// Run one generation under its resolved faults, streaming transfer
    /// and combine events (and, for a crash, the `node_down` failure and
    /// `helper_crashed`) into `rec`.
    fn run_generation(
        &mut self,
        gen: &Generation<'_, '_, Self::Partial>,
        rec: &dyn Recorder,
    ) -> GenerationRun<Self::Partial>;

    /// Evidence for every value `run` made available: [`build_evidence`]
    /// over the backend's hashes of what it holds.
    fn prove(
        &mut self,
        gen: &Generation<'_, '_, Self::Partial>,
        run: &GenerationRun<Self::Partial>,
        key: ProofKey,
    ) -> Evidence;

    /// Let `delay` seconds of backoff pass on the backend's clock.
    fn pause(&mut self, delay: f64);
}

/// Median of a non-empty duration list.
fn median_of(durs: &mut [f64]) -> f64 {
    durs.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    let mid = durs.len() / 2;
    if durs.len() % 2 == 1 {
        durs[mid]
    } else {
        0.5 * (durs[mid - 1] + durs[mid])
    }
}

/// Feed per-sender health scores from one generation: each sender scores
/// its mean finished-send duration against the median of its link class
/// (cross vs inner — peers move the same block size over the same class),
/// so healthy-but-contended plans stay near 1.0 while a genuinely slow
/// node decays. A sender is one observation per class per generation,
/// however many slices its plan cuts its work into, so one generation
/// alone cannot quarantine a healthy node. Returns nodes *newly*
/// quarantined, with their scores.
fn feed_health<P>(
    tracker: &mut HealthTracker,
    plan: &RepairPlan,
    topo: &Topology,
    run: &GenerationRun<P>,
) -> Vec<(usize, f64)> {
    let before = tracker.quarantined();
    // Per class: (sender, total seconds, sends), in first-send order.
    let mut classes: [Vec<(usize, f64, f64)>; 2] = [Vec::new(), Vec::new()];
    for (i, op) in plan.ops.iter().enumerate() {
        let (Op::Send { from, to, .. }, Some(_)) = (op, &run.partials[i]) else {
            continue;
        };
        let dur = run.spans[i].1 - run.spans[i].0;
        if *from != plan.recovery && dur > 0.0 {
            let class = &mut classes[usize::from(!topo.same_rack(*from, *to))];
            match class.iter_mut().find(|s| s.0 == from.0) {
                Some(s) => (s.1, s.2) = (s.1 + dur, s.2 + 1.0),
                None => class.push((from.0, dur, 1.0)),
            }
        }
    }
    for members in classes.iter().filter(|m| m.len() >= 2) {
        let mut durs: Vec<f64> = members.iter().map(|&(_, total, n)| total / n).collect();
        let median = median_of(&mut durs);
        for &(node, total, n) in members {
            tracker.record_success(node, total / n, median);
        }
    }
    tracker
        .quarantined()
        .into_iter()
        .filter(|n| !before.contains(n))
        .map(|n| (n, tracker.score(n)))
        .collect()
}

/// Pick the degraded-read client: the lowest-index live spare node (no
/// block of this stripe), or failing that any live non-failed host.
fn degraded_client(ctx: &RepairContext<'_>, dead: &[NodeId], recovery: NodeId) -> Option<NodeId> {
    let failed_hosts: Vec<NodeId> = ctx
        .failed
        .iter()
        .map(|b| ctx.placement.node_of(*b))
        .collect();
    let live = |n: NodeId| !dead.contains(&n) && !failed_hosts.contains(&n) && n != recovery;
    let spare = (0..ctx.topo.node_count())
        .map(NodeId)
        .find(|&n| live(n) && ctx.placement.block_on(n).is_none());
    spare.or_else(|| (0..ctx.topo.node_count()).map(NodeId).find(|&n| live(n)))
}

/// The helper a hedge switches to: the alternative plan's first
/// cross-rack sender other than `slow` (its recovery node when none).
fn hedge_node(alt: &RepairPlan, topo: &Topology, slow: NodeId) -> usize {
    alt.ops
        .iter()
        .find_map(|op| match op {
            Op::Send { from, to, .. } if !topo.same_rack(*from, *to) && *from != slow => {
                Some(from.0)
            }
            _ => None,
        })
        .unwrap_or(alt.recovery.0)
}

/// Helper-selection avoid list: quarantined nodes plus an optional
/// straggler, minus the dead (their blocks are in the failure set).
fn avoid_list(mut avoid: Vec<NodeId>, straggler: Option<NodeId>, dead: &[NodeId]) -> Vec<NodeId> {
    avoid.extend(straggler.filter(|n| !avoid.contains(n)));
    avoid.retain(|n| !dead.contains(n));
    avoid
}

fn quarantined(tracker: &HealthTracker) -> Vec<NodeId> {
    tracker.quarantined().into_iter().map(NodeId).collect()
}

/// Health-aware, pool-reusing plan for `ctx` at `tier`, falling back to
/// unfiltered helper selection if the avoid list starves the planner.
fn replan<V>(
    ctx: &RepairContext<'_>,
    tracker: &HealthTracker,
    dead: &[NodeId],
    straggler: Option<NodeId>,
    pool: &HashMap<PoolKey, V>,
    tier: Tier,
) -> Result<PoolReplan, SuperviseError> {
    let avoid = avoid_list(quarantined(tracker), straggler, dead);
    plan_with_pool(&ctx.clone().with_avoided(avoid), pool, tier)
        .or_else(|_| plan_with_pool(ctx, pool, tier))
        .map_err(SuperviseError::Unrecoverable)
}

/// Record the whole-repair deadline breach, once.
fn check_deadline(cfg: &SuperviseConfig, now: f64, out: &mut SuperviseOutcome, rec: &dyn Recorder) {
    if let Some(d) = cfg.deadline.filter(|&d| now > d && !out.deadline_hit) {
        out.deadline_hit = true;
        rec.emit(|| Event::DeadlineExceeded {
            scope: "repair".to_string(),
            budget: d,
            elapsed: now,
            t: now,
        });
    }
}

/// Seal one generation's proofs into the ledger and the trace: a
/// `proof_emitted` event each, plus `proof_rejected` for every output
/// that disagrees with its expected witness.
fn record_proofs(
    proofs: Vec<RepairProof>,
    gen: usize,
    t: f64,
    out: &mut SuperviseOutcome,
    rec: &dyn Recorder,
) {
    for proof in proofs {
        let (op, node, honest) = (proof.op, proof.node, proof.honest_output());
        out.ledger.push(gen, proof);
        out.proofs_emitted += 1;
        rec.emit(|| Event::ProofEmitted { op, node, gen, t });
        if !honest {
            out.proofs_rejected += 1;
            rec.emit(|| Event::ProofRejected { op, node, gen, t });
        }
    }
}

/// Drive a repair to completion on `backend` under a fault storm: the one
/// supervision loop. Each iteration is a generation — resolve the storm
/// bucket against the current plan, have the backend run it, bracket its
/// finished waves, feed helper health, seal proofs, then either finish or
/// bank what completed, purge what died or lied, descend the tier ladder
/// if the replan budget or the deadline is blown, and replan around the
/// damage.
///
/// Generation 0 runs `first` when given — the clean paths' caller-chosen
/// plan, trusted to be valid — and otherwise the first plan of the
/// RPR → CAR → traditional chain that validates ([`first_valid_plan`]).
///
/// `tracker` persists across calls so a fleet recovery can share one
/// health view. Returns `Err` when the storm kills more than `k` blocks
/// in total, a fault exhausts the retry budget, no fallback plan
/// validates, or the generation cap trips.
pub fn supervise<B: RepairBackend>(
    backend: &mut B,
    ctx: &RepairContext<'_>,
    first: Option<&RepairPlan>,
    storm: &FaultStorm,
    cfg: &SuperviseConfig,
    tracker: &mut HealthTracker,
    rec: &dyn Recorder,
) -> Result<SuperviseOutcome, SuperviseError> {
    use SuperviseError::{RetriesExhausted, Unrecoverable};
    let mandatory = cfg.proof == ProofMode::Mandatory;
    let mut rng = SplitMix64::new(storm.seed);
    let mut pool: HashMap<PoolKey, Banked<B::Partial>> = HashMap::new();
    let mut failed = ctx.failed.clone();
    let mut dead: Vec<NodeId> = Vec::new();
    let mut ctx_g = ctx.clone();
    let mut rep = match first {
        Some(plan) => PoolReplan::new(plan.clone(), &pool),
        None => replan(&ctx_g, tracker, &dead, None, &pool, Tier::Full)?,
    };
    let baseline = backend.begin(&rep.plan, ctx);
    rec.emit(|| plan_built(&rep.plan, ctx.topo));

    // The ledger key derives from the storm seed, so the offline auditor
    // re-derives it without any side channel.
    let mut out = SuperviseOutcome {
        repair_time: 0.0,
        clean_time: baseline.clean_time,
        generations: Vec::new(),
        retries: 0,
        replans: 0,
        reused_ops: 0,
        final_scheme: String::new(),
        final_tier: Tier::Full,
        hedges: 0,
        hedge_wins: 0,
        deadline_hit: false,
        fault_sites: Vec::new(),
        cross_bytes: 0,
        inner_bytes: 0,
        proofs_emitted: 0,
        proofs_rejected: 0,
        accusations: 0,
        ledger: ProofLedger::new(storm.seed, cfg.proof),
    };
    let key = out.ledger.key();
    let mut prev_senders: Option<Vec<usize>> = None;
    let mut carry: Vec<StormFault> = Vec::new();
    let mut slow: Vec<(NodeId, f64)> = Vec::new();
    // A cancelled straggler: (label, hedge node) until the alternative
    // completes; one cancelling hedge per repair.
    let mut hedge_pending: Option<(String, usize)> = None;
    let mut hedge_spent = false;

    let max_generations = storm.generations.len() + cfg.max_replans + 4;
    for g in 0..=max_generations {
        let plan = &rep.plan;
        let pool_before = pool.len();
        let mut bucket = std::mem::take(&mut carry);
        bucket.extend(storm.generations.get(g).into_iter().flatten().copied());
        let GenFaults {
            mut resolved,
            descriptions,
            deferred,
        } = resolve_storm_bucket(
            &bucket,
            plan,
            &rep.lowered,
            prev_senders.as_deref(),
            &ctx_g,
            &mut rng,
        );
        carry = deferred;
        out.fault_sites.extend(descriptions);
        check_retry_budget(&resolved.op_faults, &cfg.policy).map_err(RetriesExhausted)?;
        slow.extend(resolved.slow.iter().copied());
        resolved.slow.clone_from(&slow);

        // Hedging arms in generations expected to complete: no crash, no
        // lie a Mandatory verifier will reject, no hedge already spent.
        let doomed = resolved.crash.is_some() || (mandatory && !resolved.lies.is_empty());
        let hedge = cfg.hedge.filter(|_| !doomed && !hedge_spent);
        let vecs = plan.symbolic_vectors();
        let graph = JobGraph::new(plan, &rep.lowered, &ctx_g);
        let gen = Generation {
            index: g,
            ctx: &ctx_g,
            plan,
            vecs: &vecs,
            graph: &graph,
            lowered: &rep.lowered,
            reused: rep
                .reused
                .iter()
                .map(|k| k.as_ref().map(|k| &pool[k]))
                .collect(),
            faults: &resolved,
            policy: &cfg.policy,
            hedge,
            tier: out.final_tier,
            pool: &pool,
            dead: &dead,
            tracker,
        };
        let run = backend.run_generation(&gen, rec);
        // Per-wave spans over the sends that finished — before a spliced
        // hedge took over, if one did; a wave none of whose sends
        // finished has no bracket.
        let cut = run.splice.map_or(f64::INFINITY, |s| s.cut);
        let finished: Vec<bool> = (run.partials.iter().zip(&run.spans))
            .map(|(p, &(_, end))| p.is_some() && end <= cut + EPS)
            .collect();
        let waves = wave_spans(plan, ctx.topo, &finished, &run.spans);
        for (step, &(start, finish)) in waves.iter().enumerate().filter(|(_, w)| w.0.is_finite()) {
            let t = run.started + start;
            rec.emit(|| Event::TimestepStarted { step, t });
            let t = run.started + finish;
            rec.emit(|| Event::TimestepFinished { step, t });
        }
        let evidence = if cfg.proof.active() {
            backend.prove(&gen, &run, key)
        } else {
            Evidence::default()
        };
        let now = run.now;
        out.retries += run.retries;
        out.cross_bytes += run.traffic.0;
        out.inner_bytes += run.traffic.1;
        if let Some(splice) = run.splice {
            out.hedges += 1;
            if let Some(reused) = splice.won {
                out.hedge_wins += 1;
                out.reused_ops += reused;
            }
        }

        // Health: the node that ended the generation failed; finished
        // peers score against their class median.
        let (crashed, straggler) = match run.ending {
            Ending::Completed => (None, None),
            Ending::Crashed(node) => (Some(node), None),
            Ending::Cancelled { straggler } => match &plan.ops[straggler] {
                Op::Send { from, .. } => (None, Some(*from)),
                Op::Combine { .. } => unreachable!("stragglers are sends"),
            },
        };
        if let Some(node) = crashed.or(straggler) {
            tracker.record_failure(node.0);
        }
        for (node, score) in feed_health(tracker, plan, ctx.topo, &run) {
            rec.emit(|| Event::HelperQuarantined {
                node,
                score,
                t: now,
            });
        }
        out.generations.push(GenerationRecord {
            scheme: plan.scheme.to_string(),
            tier: out.final_tier,
            executed_ops: rep.executed_count(),
            reused_ops: rep.reused_count(),
            completed_ops: run.partials.iter().filter(|p| p.is_some()).count(),
            pool_before,
            crashed: crashed.map(|n| n.0),
            faults: bucket.iter().map(|f| f.name().to_string()).collect(),
        });

        // Accusations steer control flow in Mandatory mode only: Advisory
        // records rejections without acting on them.
        let accused = if mandatory {
            evidence.dishonest
        } else {
            Vec::new()
        };
        if run.ending == Ending::Completed && accused.is_empty() {
            // ---- done: deadline hierarchy, final proofs, close out. ----
            if let Some((label, winner_node)) = hedge_pending.take() {
                // The cancelled original never ran to completion, so the
                // true saving is unknown on a cancelling backend.
                out.hedge_wins += 1;
                rec.emit(|| Event::HedgeWon {
                    label,
                    winner_node,
                    saved: 0.0,
                    t: now,
                });
            }
            if let Some(d) = cfg.deadline {
                // Per-wave budgets proportional to the clean run's spans,
                // then the whole-repair budget.
                let clean_total = baseline.clean_time.max(EPS);
                for (&(start, finish), &(cs, cf)) in waves.iter().zip(&baseline.wave_spans) {
                    if !start.is_finite() || !cs.is_finite() {
                        continue;
                    }
                    let budget = d * (cf - cs) / clean_total;
                    let actual = finish - start;
                    if actual > budget + EPS {
                        rec.emit(|| Event::DeadlineExceeded {
                            scope: "wave".to_string(),
                            budget,
                            elapsed: actual,
                            t: run.started + finish,
                        });
                    }
                }
            }
            check_deadline(cfg, now, &mut out, rec);
            record_proofs(evidence.proofs, g, now, &mut out, rec);
            rec.emit(|| Event::RepairDone {
                t: now,
                cross_bytes: out.cross_bytes,
                inner_bytes: out.inner_bytes,
            });
            tracker.tick_generation();
            out.repair_time = now;
            out.final_scheme = plan.scheme.to_string();
            return Ok(out);
        }

        // ---- not done: seal what finished, bank it, purge the dead and
        // the dishonest, replan. ----
        record_proofs(evidence.proofs, g, now, &mut out, rec);
        // Bank every finished partial whose host is alive. Under Mandatory
        // proofs a tainted partial is evidence, never cache.
        for (i, partial) in run.partials.into_iter().enumerate() {
            let loc = plan.ops[i].output_location();
            let hosted = Some(loc) != crashed && !dead.contains(&loc);
            let clean = !(mandatory && evidence.tainted.contains(&i));
            if let (Some(partial), true, true) = (partial, hosted, clean) {
                let origin = (g, i);
                pool.insert((loc.0, vecs[i].clone()), Banked { partial, origin });
            }
        }
        if let Some(node) = crashed {
            dead.push(node);
            pool.retain(|(host, _), _| *host != node.0);
        }
        for &node in &accused {
            rec.emit(|| Event::HelperAccused {
                node,
                gen: g,
                t: now,
            });
            tracker.accuse(node);
            out.accusations += 1;
        }
        pool.retain(|(host, _), _| !accused.contains(host));

        if straggler.is_some() {
            // A cancelled straggler is a hedge, not a replan: same tier,
            // same failure set, no backoff.
            out.hedges += 1;
            hedge_spent = true;
        } else {
            if let Some(node) = crashed {
                // The dead helper's block joins the failure set.
                let block = ctx.placement.block_on(node);
                failed.push(block.expect("crashed helpers host blocks"));
                if failed.len() > ctx.params().k {
                    return Err(Unrecoverable(format!(
                        "supervise: {} failures exceed k = {} — stripe unrecoverable",
                        failed.len(),
                        ctx.params().k
                    )));
                }
            }
            out.replans += 1;
            check_deadline(cfg, now, &mut out, rec);

            // Tier ladder: replan budget first, deadline breach second.
            let excess = out.replans.saturating_sub(cfg.max_replans);
            let mut next_tier = match excess {
                0 => Tier::Full,
                1 => Tier::Traditional,
                _ => Tier::DegradedRead,
            };
            if out.deadline_hit && next_tier < Tier::Traditional {
                next_tier = Tier::Traditional;
            }
            if next_tier > out.final_tier {
                rec.emit(|| Event::DegradedFallback {
                    tier: next_tier.name().to_string(),
                    reason: if out.deadline_hit && excess == 0 {
                        "deadline exceeded".to_string()
                    } else {
                        format!("replan budget ({}) exhausted", cfg.max_replans)
                    },
                    t: now,
                });
                out.final_tier = next_tier;
            }

            // Next generation's context: grown failure set, recovery
            // pinned — or, at the last tier, a degraded-read client.
            let recovery = plan.recovery;
            ctx_g = ctx.clone();
            ctx_g.failed = failed.clone();
            let client = (out.final_tier == Tier::DegradedRead)
                .then(|| degraded_client(&ctx_g, &dead, recovery))
                .flatten();
            match client {
                Some(client) => ctx_g = ctx_g.with_recovery_node(client),
                None => {
                    ctx_g.recovery_node_override = Some(recovery);
                    ctx_g.recovery_override = Some(ctx.topo.rack_of(recovery));
                }
            }
        }
        let next = replan(&ctx_g, tracker, &dead, straggler, &pool, out.final_tier)?;
        out.reused_ops += next.reused_count();
        match straggler {
            Some(slow_node) => {
                let Ending::Cancelled { straggler: op } = run.ending else {
                    unreachable!("stragglers come from cancelled generations");
                };
                let label = op_label(plan, g, op, None);
                let hedge_node = hedge_node(&next.plan, ctx.topo, slow_node);
                rec.emit(|| Event::HedgeLaunched {
                    label: label.clone(),
                    slow_node: slow_node.0,
                    hedge_node,
                    multiple: hedge.expect("only hedging generations are cancelled"),
                    t: now,
                });
                hedge_pending = Some((label, hedge_node));
            }
            None => {
                rec.emit(|| Event::Replanned {
                    scheme: next.plan.scheme.to_string(),
                    failed: failed.len(),
                    reused_ops: next.reused_count(),
                    t: now,
                });
                backend.pause(cfg.policy.delay(out.replans - 1));
            }
        }
        prev_senders = Some(plan.cross_senders(ctx.topo));
        rep = next;
        tracker.tick_generation();
    }
    Err(Unrecoverable(format!(
        "supervision loop exceeded {max_generations} generations"
    )))
}

/// Run a supervised repair on the `rpr-netsim` backend: [`supervise`] on
/// the virtual clock, bit-deterministically.
///
/// `tracker` persists across calls so a fleet recovery can share one
/// health view; pass [`HealthTracker::with_defaults`] for a one-shot
/// repair. Events stream into `rec`: the transfer and combine events of
/// [`simulate_traced`](crate::trace::simulate_traced), the failure
/// vocabulary (`transfer_failed`, `retry_scheduled`, `helper_crashed`,
/// `replanned`), and the supervisor's (`hedge_launched`, `hedge_won`,
/// `helper_quarantined`, `deadline_exceeded`, `degraded_fallback`).
///
/// Returns `Err` when the storm kills more than `k - failed` helpers
/// (unrecoverable), a fault exhausts the retry budget, or no fallback
/// plan validates.
pub fn supervise_injected(
    ctx: &RepairContext<'_>,
    storm: &FaultStorm,
    cfg: &SuperviseConfig,
    tracker: &mut HealthTracker,
    rec: &dyn Recorder,
) -> Result<SuperviseOutcome, String> {
    let backend = &mut SimBackend::default();
    supervise(backend, ctx, None, storm, cfg, tracker, rec).map_err(String::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use rpr_codec::{BlockId, CodeParams, StripeCodec};
    use rpr_topology::{cluster_for, BandwidthProfile, Placement};

    /// (6,3), block 1 failed, the RPR plan, every op lowered.
    fn with_plan(check: impl Fn(&RepairContext<'_>, &RepairPlan, &[bool])) {
        let params = CodeParams::new(6, 3);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            64 << 20,
            &profile,
            CostModel::free(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&codec, &topo, &placement).expect("valid");
        check(&ctx, &plan, &vec![true; plan.ops.len()]);
    }

    fn resolve_one(
        fault: StormFault,
        seed: u64,
        ctx: &RepairContext<'_>,
        plan: &RepairPlan,
        lowered: &[bool],
    ) -> GenFaults {
        resolve_storm_bucket(
            &[fault],
            plan,
            lowered,
            None,
            ctx,
            &mut SplitMix64::new(seed),
        )
    }

    #[test]
    fn every_crash_candidate_resolves_to_itself_at_its_first_wave() {
        with_plan(|ctx, plan, lowered| {
            let cands = crash_candidates(plan, ctx);
            assert!(!cands.is_empty());
            for &(node, _) in &cands {
                assert_ne!(node, ctx.recovery_node().0);
                assert!(ctx.placement.block_on(NodeId(node)).is_some());
                let first = cands.iter().find(|c| c.0 == node).expect("listed").1;
                let site = StormFault::Crash(CrashSite::Node(node));
                // Whatever the seed: a listed node is never substituted.
                for seed in 0..8 {
                    let crash = resolve_one(site, seed, ctx, plan, lowered).resolved.crash;
                    let crash = crash.expect("candidate crashes");
                    assert_eq!((crash.node.0, crash.timestep), (node, first));
                    let Op::Send { from, .. } = &plan.ops[crash.trigger.0] else {
                        panic!("trigger is a send");
                    };
                    assert_eq!(from.0, node);
                }
            }
        });
    }

    #[test]
    fn a_node_site_off_the_candidate_list_is_substituted_not_skipped() {
        // The documented `CrashSite::Node` fallback: the recovery node is
        // never a candidate, so a candidate is seed-picked in its place —
        // the same one `SeedPick` draws from the same stream — and the
        // site description names the node actually crashed.
        with_plan(|ctx, plan, lowered| {
            let off = ctx.recovery_node().0;
            let nodes: Vec<usize> = crash_candidates(plan, ctx).iter().map(|c| c.0).collect();
            assert!(!nodes.contains(&off));
            let mut picked = Vec::new();
            for seed in 0..16 {
                let got = resolve_one(
                    StormFault::Crash(CrashSite::Node(off)),
                    seed,
                    ctx,
                    plan,
                    lowered,
                );
                let crash = got.resolved.crash.expect("substituted, not skipped");
                assert!(nodes.contains(&crash.node.0));
                assert!(
                    got.descriptions[0].starts_with(&format!("crash node {} ", crash.node.0)),
                    "{:?}",
                    got.descriptions
                );
                let seed_pick = resolve_one(
                    StormFault::Crash(CrashSite::SeedPick),
                    seed,
                    ctx,
                    plan,
                    lowered,
                );
                assert_eq!(seed_pick.resolved.crash, Some(crash));
                picked.push(crash.node.0);
            }
            picked.dedup();
            assert!(picked.len() > 1, "the seed steers the substitute");
        });
    }

    #[test]
    fn transient_faults_pick_among_all_executed_sends() {
        with_plan(|ctx, plan, lowered| {
            let is_raw = |i: usize| {
                matches!(
                    &plan.ops[i],
                    Op::Send {
                        what: crate::plan::Payload::Block(_),
                        ..
                    }
                )
            };
            let (waves, _) = plan.cross_waves(ctx.topo);
            let (mut corrupt_raw, mut corrupt_interm, mut timeout_inner) = (false, false, false);
            for seed in 0..64 {
                // Corrupt: one full-payload failure on any send — the
                // documented behaviour, raw block sends included.
                let got = resolve_one(StormFault::Corrupt, seed, ctx, plan, lowered);
                let hit: Vec<usize> = (0..plan.ops.len())
                    .filter(|&i| !got.resolved.op_faults[i].is_empty())
                    .collect();
                assert_eq!(hit.len(), 1);
                assert!(matches!(plan.ops[hit[0]], Op::Send { .. }));
                let want = AttemptFault {
                    fraction: 1.0,
                    reason: reason::CORRUPT,
                };
                assert_eq!(got.resolved.op_faults[hit[0]], vec![want]);
                assert_eq!(got.descriptions, vec![format!("corrupt op {}", hit[0])]);
                corrupt_raw |= is_raw(hit[0]);
                corrupt_interm |= !is_raw(hit[0]);

                // Timeout: stalls a quarter to three quarters in, on any
                // send — inner-rack ones too.
                let got = resolve_one(StormFault::Timeout, seed, ctx, plan, lowered);
                let hit: Vec<usize> = (0..plan.ops.len())
                    .filter(|&i| !got.resolved.op_faults[i].is_empty())
                    .collect();
                assert_eq!(hit.len(), 1);
                let f = got.resolved.op_faults[hit[0]][0];
                assert_eq!(f.reason, reason::TIMEOUT);
                assert!((0.25..0.75).contains(&f.fraction), "{}", f.fraction);
                timeout_inner |= waves[hit[0]].is_none();

                // Rack outage: every cross send out of one rack, once each,
                // and nothing else.
                let got = resolve_one(StormFault::RackOutage, seed, ctx, plan, lowered);
                let mut racks = Vec::new();
                for (i, fs) in got.resolved.op_faults.iter().enumerate() {
                    if let (Op::Send { from, .. }, false) = (&plan.ops[i], fs.is_empty()) {
                        assert!(waves[i].is_some(), "op {i} is not a cross send");
                        assert_eq!((fs.len(), fs[0].reason), (1, reason::SWITCH_OUTAGE));
                        racks.push(ctx.topo.rack_of(*from));
                    }
                }
                racks.dedup();
                assert_eq!(racks.len(), 1, "one rack blips");
                let from_rack = (0..plan.ops.len()).filter(|&i| {
                    matches!(&plan.ops[i], Op::Send { from, .. }
                        if waves[i].is_some() && ctx.topo.rack_of(*from) == racks[0])
                });
                assert!(from_rack
                    .into_iter()
                    .all(|i| !got.resolved.op_faults[i].is_empty()));
            }
            assert!(
                corrupt_raw && corrupt_interm,
                "corrupt is not limited to intermediates"
            );
            assert!(timeout_inner, "timeout is not limited to cross sends");
        });
    }

    #[test]
    fn resolution_only_targets_executed_ops() {
        with_plan(|ctx, plan, _| {
            let none = vec![false; plan.ops.len()];
            let bucket = [
                StormFault::Crash(CrashSite::SeedPick),
                StormFault::Timeout,
                StormFault::Corrupt,
                StormFault::Slow { factor: 0.5 },
                StormFault::Lie,
                StormFault::RackOutage,
            ];
            let got =
                resolve_storm_bucket(&bucket, plan, &none, None, ctx, &mut SplitMix64::new(1));
            assert!(got.resolved.crash.is_none() && got.resolved.slow.is_empty());
            assert!(got.resolved.lies.is_empty());
            assert!(got.resolved.op_faults.iter().all(|f| f.is_empty()));
            assert_eq!(got.descriptions.len(), bucket.len());
            assert!(
                got.descriptions.iter().all(|d| d.contains("skipped")),
                "{:?}",
                got.descriptions
            );
        });
    }

    #[test]
    fn retry_budget_counts_injected_failures_per_op() {
        let fault = AttemptFault {
            fraction: 0.5,
            reason: reason::TIMEOUT,
        };
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        assert!(check_retry_budget(&[vec![], vec![fault]], &policy).is_ok());
        let err = check_retry_budget(&[vec![], vec![fault, fault]], &policy).unwrap_err();
        assert!(
            err.starts_with("op 1: 2 injected failures exhaust the retry budget"),
            "{err}"
        );
    }

    #[test]
    fn a_slow_slice_sender_is_one_health_observation_per_generation() {
        // A chain plan sends every block as eight slices. One helper's
        // inner-rack slices all run 10x its peers': that is one slow
        // sender, scored once, not eight quarantining votes from one
        // generation.
        with_plan(|ctx, _, _| {
            let plan = crate::schemes::ChainPlanner::new().plan(ctx);
            let sender = |i: usize| match plan.ops[i] {
                Op::Send { from, to, .. } if ctx.topo.same_rack(from, to) => Some(from.0),
                _ => None,
            };
            let slow = (0..plan.ops.len())
                .find_map(sender)
                .expect("a helper sends");
            let slices = (0..plan.ops.len()).filter(|&i| sender(i) == Some(slow));
            assert!(slices.count() > 2, "the helper sends several slices");
            let run = GenerationRun {
                ending: Ending::Completed,
                started: 0.0,
                now: 10.0,
                partials: vec![Some(()); plan.ops.len()],
                spans: (0..plan.ops.len())
                    .map(|i| (0.0, if sender(i) == Some(slow) { 10.0 } else { 1.0 }))
                    .collect(),
                retries: 0,
                traffic: (0, 0),
                splice: None,
            };
            let mut tracker = HealthTracker::with_defaults();
            assert_eq!(feed_health(&mut tracker, &plan, ctx.topo, &run), vec![]);
            assert!(!tracker.is_quarantined(slow));
            assert!(tracker.score(slow) < 1.0, "the slow sender still decays");
        });
    }
}
