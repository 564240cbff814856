//! Fault-injected repair and failure recovery.
//!
//! This module is the bridge between the symbolic fault descriptions of
//! `rpr-faults` and the concrete repair machinery: [`resolve`] turns a
//! [`FaultPlan`] into per-op attempt failures, link derates, and (at most
//! one) helper crash against a specific [`RepairPlan`];
//! [`replan_after_crash`] builds a replacement plan around a dead helper
//! while provably reusing partial results already aggregated elsewhere;
//! and [`simulate_injected`] runs the whole degraded repair on the
//! `rpr-netsim` backend, recording the full failure/recovery event
//! vocabulary of `docs/TRACING.md`.
//!
//! Everything here is deterministic: the same plan, fault plan, and
//! retry policy produce bit-identical traces (the property
//! `scripts/verify.sh` checks). The `rpr-exec` backend enacts the same
//! resolved faults on real bytes and wall clocks; see
//! `docs/ROBUSTNESS.md` for the full fault model.

use crate::plan::{Op, OpId, Payload, RepairPlan};
use crate::scenario::RepairContext;
use crate::schemes::{CarPlanner, RepairPlanner, RprPlanner, TraditionalPlanner};
use crate::sim::{lower_partial, lower_plan, network_for, simulate};
use crate::trace::{emit_stream_summaries, emit_wave_boundaries, plan_built, PlanTagger};
use rpr_codec::BlockId;
use rpr_faults::{reason, FaultKind, FaultPlan, RetryPolicy, SplitMix64};
use rpr_netsim::{FailSpec, JobId, SimReport, Simulator};
use rpr_obs::{Event, Recorder, Transfer};
use rpr_topology::{NodeId, Topology};
use std::collections::HashMap;

/// Time tolerance when comparing simulation instants.
const EPS: f64 = 1e-9;

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
    /// The pipeline wave at (or after) which it dies.
    pub timestep: usize,
    /// The cross-rack send whose start marks the death: the node fails
    /// immediately after beginning this transfer, which therefore never
    /// completes.
    pub trigger: OpId,
}

/// A [`FaultPlan`] resolved against one concrete [`RepairPlan`]: every
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
    /// repair.
    pub slow: Vec<(NodeId, f64)>,
    /// Send ops whose helper turns Byzantine: the payload carries wrong
    /// bytes under a valid FNV checksum. Only the proof plane
    /// (`rpr-proof`, [`SuperviseConfig::proof`]) can detect these —
    /// transport-level retry never fires.
    ///
    /// [`SuperviseConfig::proof`]: crate::supervise::SuperviseConfig
    pub lies: Vec<usize>,
}

/// Resolve a symbolic fault plan against a concrete repair plan.
///
/// The seed fixes every free parameter deterministically; faults are
/// processed in declaration order and each draws a fixed number of values
/// from the stream. Returns `Err` when a fault cannot apply to this plan
/// (wrong op kind, out-of-range index, no matching transfer, or a second
/// helper crash).
pub fn resolve(
    plan: &RepairPlan,
    topo: &Topology,
    fp: &FaultPlan,
) -> Result<ResolvedFaults, String> {
    let mut rng = SplitMix64::new(fp.seed);
    let (waves, _) = plan.cross_waves(topo);
    let mut out = ResolvedFaults {
        op_faults: vec![Vec::new(); plan.ops.len()],
        crash: None,
        slow: Vec::new(),
        lies: Vec::new(),
    };
    for fault in &fp.faults {
        match fault {
            FaultKind::TransferTimeout { op } => {
                if *op >= plan.ops.len() {
                    return Err(format!("timeout: op {op} out of range"));
                }
                if !matches!(plan.ops[*op], Op::Send { .. }) {
                    return Err(format!("timeout: op {op} is not a transfer"));
                }
                // Stall partway through: a quarter to three quarters in.
                let fraction = 0.25 + 0.5 * rng.next_f64();
                out.op_faults[*op].push(AttemptFault {
                    fraction,
                    reason: reason::TIMEOUT,
                });
            }
            FaultKind::CorruptIntermediate { op } => {
                if *op >= plan.ops.len() {
                    return Err(format!("corrupt: op {op} out of range"));
                }
                match &plan.ops[*op] {
                    Op::Send {
                        what: Payload::Intermediate(_),
                        ..
                    } => {}
                    _ => {
                        return Err(format!(
                            "corrupt: op {op} does not carry an intermediate block"
                        ))
                    }
                }
                // The full payload arrives; verification rejects it.
                out.op_faults[*op].push(AttemptFault {
                    fraction: 1.0,
                    reason: reason::CORRUPT,
                });
            }
            FaultKind::SlowLink { node, factor } => {
                if *node >= topo.node_count() {
                    return Err(format!("slow link: node {node} out of range"));
                }
                if !(*factor > 0.0 && *factor <= 1.0) {
                    return Err(format!("slow link: factor {factor} not in (0, 1]"));
                }
                out.slow.push((NodeId(*node), *factor));
            }
            FaultKind::RackSwitchOutage { rack, timestep } => {
                if *rack >= topo.rack_count() {
                    return Err(format!("switch outage: rack {rack} out of range"));
                }
                let mut hit = false;
                for (i, op) in plan.ops.iter().enumerate() {
                    if waves[i] != Some(*timestep) {
                        continue;
                    }
                    if let Op::Send { from, to, .. } = op {
                        if topo.rack_of(*from).0 == *rack || topo.rack_of(*to).0 == *rack {
                            hit = true;
                            out.op_faults[i].push(AttemptFault {
                                fraction: rng.next_f64(),
                                reason: reason::SWITCH_OUTAGE,
                            });
                        }
                    }
                }
                if !hit {
                    return Err(format!(
                        "switch outage: no cross transfer touches rack {rack} \
                         at timestep {timestep}"
                    ));
                }
            }
            FaultKind::HelperCrash { node, timestep } => {
                if *node >= topo.node_count() {
                    return Err(format!("crash: node {node} out of range"));
                }
                if out.crash.is_some() {
                    return Err("crash: at most one helper crash per repair".into());
                }
                // The node dies right before its first cross-rack send
                // scheduled at wave `timestep` or later.
                let trigger = plan
                    .ops
                    .iter()
                    .enumerate()
                    .filter_map(|(i, op)| match op {
                        Op::Send { from, .. } if from.0 == *node => {
                            waves[i].filter(|w| *w >= *timestep).map(|w| (w, i))
                        }
                        _ => None,
                    })
                    .min()
                    .map(|(_, i)| OpId(i));
                match trigger {
                    Some(t) => {
                        out.crash = Some(CrashFault {
                            node: NodeId(*node),
                            timestep: *timestep,
                            trigger: t,
                        })
                    }
                    None => {
                        return Err(format!(
                            "crash: node {node} performs no cross-rack send at or \
                             after timestep {timestep}"
                        ))
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Every `(node, timestep)` pair at which a [`FaultKind::HelperCrash`]
/// can fire for this plan: block-hosting helpers (not the recovery node)
/// at the wave of each of their cross-rack sends, sorted by
/// `(timestep, node)` and deduplicated. Used by the chaos suite and the
/// `rpr inject` CLI to enumerate or seed-pick crash sites.
pub fn crash_candidates(plan: &RepairPlan, ctx: &RepairContext<'_>) -> Vec<(usize, usize)> {
    let (waves, _) = plan.cross_waves(ctx.topo);
    let rec = ctx.recovery_node();
    let mut out: Vec<(usize, usize)> = Vec::new();
    for (i, op) in plan.ops.iter().enumerate() {
        if let (Op::Send { from, .. }, Some(w)) = (op, waves[i]) {
            if *from != rec && ctx.placement.block_on(*from).is_some() {
                out.push((from.0, w));
            }
        }
    }
    out.sort_by_key(|&(n, w)| (w, n));
    out.dedup();
    out
}

/// The replacement plan produced after a mid-repair helper crash.
#[derive(Clone, Debug)]
pub struct Replan {
    /// The new plan, repairing the original failures plus the crashed
    /// helper's block, delivering to the same recovery node.
    pub plan: RepairPlan,
    /// The new failure set (original failures + the crashed block).
    pub failed: Vec<BlockId>,
    /// For each new-plan op: the completed original-plan op whose output
    /// (same node, same symbolic coefficient vector — hence byte-identical
    /// contents) satisfies it without re-execution, if any.
    pub reused: Vec<Option<OpId>>,
    /// For each new-plan op: whether it must actually execute. False for
    /// reused ops and for ops only reachable through reused ones.
    pub lowered: Vec<bool>,
}

impl Replan {
    /// Number of new-plan ops satisfied by reused partial results.
    pub fn reused_count(&self) -> usize {
        self.reused.iter().filter(|r| r.is_some()).count()
    }
}

/// Build a replacement plan after helper `crashed` died mid-repair.
///
/// `completed[i]` marks original-plan ops whose outputs finished before
/// the crash; those located off the dead node are candidates for reuse.
/// The crashed helper's block joins the failure set (the node never comes
/// back), the recovery node is pinned to the original plan's, and the
/// planner fallback chain is RPR → CAR (single failure only) →
/// traditional — the first plan that validates wins. Reuse is
/// conservative and provably correct: a new-plan op is satisfied by a
/// completed old op only when both value (symbolic coefficient vector
/// over the stripe) and location coincide.
///
/// Returns `Err` when the combined failure count exceeds `k` (the stripe
/// is unrecoverable) or no fallback plan validates.
pub fn replan_after_crash(
    ctx: &RepairContext<'_>,
    plan: &RepairPlan,
    crashed: NodeId,
    completed: &[bool],
) -> Result<Replan, String> {
    assert_eq!(
        completed.len(),
        plan.ops.len(),
        "replan_after_crash: completed flags must cover every op"
    );
    if crashed == plan.recovery {
        return Err("replan: the recovery node itself crashed".into());
    }
    let block = ctx
        .placement
        .block_on(crashed)
        .ok_or_else(|| format!("replan: {crashed:?} hosts no block of this stripe"))?;
    if ctx.failed.contains(&block) {
        return Err(format!("replan: {block:?} already failed"));
    }
    let mut failed = ctx.failed.clone();
    failed.push(block);
    if failed.len() > ctx.params().k {
        return Err(format!(
            "replan: {} failures exceed k = {} — stripe unrecoverable",
            failed.len(),
            ctx.params().k
        ));
    }

    let mut ctx2 = ctx.clone();
    ctx2.failed = failed.clone();
    ctx2.recovery_node_override = Some(plan.recovery);
    ctx2.recovery_override = Some(ctx.topo.rack_of(plan.recovery));

    let new_plan = fallback_plan(&ctx2)?;

    // Reuse: index completed, still-reachable old outputs by
    // (location, symbolic vector).
    let vecs1 = plan.symbolic_vectors();
    let mut by_value: HashMap<(usize, Vec<u8>), usize> = HashMap::new();
    for (j, done) in completed.iter().enumerate() {
        let loc = plan.ops[j].output_location();
        if *done && loc != crashed {
            by_value.entry((loc.0, vecs1[j].clone())).or_insert(j);
        }
    }
    let vecs2 = new_plan.symbolic_vectors();
    let mut reused: Vec<Option<OpId>> = (0..new_plan.ops.len())
        .map(|i| {
            by_value
                .get(&(new_plan.ops[i].output_location().0, vecs2[i].clone()))
                .map(|&j| OpId(j))
        })
        .collect();

    // Prune: walk back from the outputs; reused ops cut the traversal
    // (their dependencies need not run again).
    let mut needed = vec![false; new_plan.ops.len()];
    let mut stack: Vec<usize> = new_plan.outputs.iter().map(|&(_, op)| op.0).collect();
    while let Some(i) = stack.pop() {
        if needed[i] {
            continue;
        }
        needed[i] = true;
        if reused[i].is_some() {
            continue;
        }
        for d in new_plan.deps_of(i) {
            stack.push(d.0);
        }
    }
    let lowered: Vec<bool> = (0..new_plan.ops.len())
        .map(|i| needed[i] && reused[i].is_none())
        .collect();
    for (i, r) in reused.iter_mut().enumerate() {
        if !needed[i] {
            *r = None;
        }
    }

    Ok(Replan {
        plan: new_plan,
        failed,
        reused,
        lowered,
    })
}

/// First validating plan along the RPR → CAR → traditional chain.
pub(crate) fn fallback_plan(ctx: &RepairContext<'_>) -> Result<RepairPlan, String> {
    // An avoid list (quarantined helpers) can starve the planners below
    // the n survivors decoding needs; that must surface as an error the
    // supervisor can catch with an unfiltered retry, not a planner panic.
    let usable = ctx.survivors().len();
    if usable < ctx.params().n {
        return Err(format!(
            "replan: only {usable} usable survivors (need {})",
            ctx.params().n
        ));
    }
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
    Err(format!("replan: no fallback validates ({})", errors.join("; ")))
}

/// The outcome of one fault-injected, recovered repair.
#[derive(Clone, Debug)]
pub struct RobustOutcome {
    /// Total repair time including retries, backoff, and replanning.
    pub repair_time: f64,
    /// The same plan's fault-free repair time (the degradation baseline).
    pub clean_time: f64,
    /// Injected attempt failures that actually fired.
    pub retries: usize,
    /// Plan replacements after helper crashes (0 or 1).
    pub replans: usize,
    /// Replacement-plan ops satisfied by reused partial results.
    pub reused_ops: usize,
    /// Scheme of the plan that ultimately completed the repair.
    pub final_scheme: &'static str,
}

/// A recorder adapter collecting events into a buffer for replay.
#[derive(Default)]
pub(crate) struct Collect(std::sync::Mutex<Vec<Event>>);

impl Collect {
    pub(crate) fn into_events(self) -> Vec<Event> {
        self.0.into_inner().expect("collector poisoned")
    }
}

impl Recorder for Collect {
    fn record(&self, event: Event) {
        self.0.lock().expect("collector poisoned").push(event);
    }
}

/// Shift every timestamp of an event by `dt` seconds (used to splice a
/// post-replan simulation, which starts its own clock at zero, into the
/// original repair timeline). Durations (`queue_wait`) are unchanged.
pub(crate) fn shift_event(mut event: Event, dt: f64) -> Event {
    match &mut event {
        Event::PlanBuilt { .. } => {}
        Event::TimestepStarted { t, .. }
        | Event::TimestepFinished { t, .. }
        | Event::TransferQueued { t, .. }
        | Event::TransferStarted { t, .. }
        | Event::TransferFailed { t, .. }
        | Event::RetryScheduled { t, .. }
        | Event::HelperCrashed { t, .. }
        | Event::Replanned { t, .. }
        | Event::StreamSummary { t, .. }
        | Event::HedgeLaunched { t, .. }
        | Event::HedgeWon { t, .. }
        | Event::HelperQuarantined { t, .. }
        | Event::DeadlineExceeded { t, .. }
        | Event::DegradedFallback { t, .. }
        | Event::StripeEnqueued { t, .. }
        | Event::StripeAdmitted { t, .. }
        | Event::BandwidthWaited { t, .. }
        | Event::ChurnFailure { t, .. }
        | Event::RiskEscalated { t, .. }
        | Event::StripeLost { t, .. }
        | Event::JournalCheckpoint { t, .. }
        | Event::QosThrottled { t, .. }
        | Event::RequestIssued { t, .. }
        | Event::ProofEmitted { t, .. }
        | Event::ProofRejected { t, .. }
        | Event::HelperAccused { t, .. }
        | Event::RepairDone { t, .. } => *t += dt,
        Event::TransferDone { start, end, .. } | Event::CombineDone { start, end, .. } => {
            *start += dt;
            *end += dt;
        }
        Event::RequestDone {
            first_byte: _,
            issued,
            end,
            ..
        } => {
            *issued += dt;
            *end += dt;
        }
    }
    event
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

/// Apply resolved derates and per-op attempt failures to a fresh
/// simulator; `first_job` maps an op to its first chunk job (`None` for
/// ops that were not lowered). Attempt faults land on the op's *first*
/// chunk: corruption is detected at the first verified chunk and a
/// stream resumes from its last verified chunk, so only that chunk's
/// latency is re-paid. The caller has already run [`check_retry_budget`].
pub(crate) fn arm_simulator(
    sim: &mut Simulator,
    first_job: impl Fn(usize) -> Option<JobId>,
    faults: &ResolvedFaults,
    policy: &RetryPolicy,
) {
    for &(node, factor) in &faults.slow {
        sim.derate_node(node, factor);
    }
    for (i, fs) in faults.op_faults.iter().enumerate() {
        let (false, Some(job)) = (fs.is_empty(), first_job(i)) else {
            continue;
        };
        let specs: Vec<FailSpec> = fs
            .iter()
            .enumerate()
            .map(|(a, f)| FailSpec {
                fraction: f.fraction,
                delay: policy.delay(a),
                reason: f.reason.to_string(),
            })
            .collect();
        sim.fail_attempts(job, specs);
    }
}

/// First activation instant of a job (the start of its first attempt).
pub(crate) fn first_start(report: &SimReport, job: JobId) -> f64 {
    let r = report.record(job);
    r.failures.first().map(|f| f.start).unwrap_or(r.start)
}

/// Simulate a plan under injected faults with bounded retry and crash
/// recovery, recording the full trace (including `transfer_failed`,
/// `retry_scheduled`, `helper_crashed`, and `replanned` events) into
/// `rec`.
///
/// Transient faults (timeouts, corruption, switch outages, slow links)
/// retry in place with the policy's exponential backoff; a helper crash
/// aborts the in-flight plan at the crash instant, replans around the
/// dead node via [`replan_after_crash`], and resumes after one backoff
/// delay, reusing completed partial results. Virtual time throughout —
/// the result is bit-deterministic for fixed inputs.
///
/// Returns `Err` when the fault plan does not apply to this plan, the
/// retry budget is exhausted, or the crash makes the stripe
/// unrecoverable.
pub fn simulate_injected(
    plan: &RepairPlan,
    ctx: &RepairContext<'_>,
    fp: &FaultPlan,
    policy: &RetryPolicy,
    rec: &dyn Recorder,
) -> Result<RobustOutcome, String> {
    let resolved = resolve(plan, ctx.topo, fp)?;
    let clean_time = simulate(plan, ctx).repair_time;
    let (waves, wave_count) = plan.cross_waves(ctx.topo);
    rec.record(plan_built(plan, ctx.topo));

    let chunk = ctx.effective_chunk();
    let mut sim = Simulator::new(network_for(ctx));
    let mut matrix_paid = vec![false; ctx.topo.node_count()];
    let jobs = lower_plan(&mut sim, plan, &ctx.cost, &mut matrix_paid, 0, chunk);
    check_retry_budget(&resolved.op_faults, policy)?;
    arm_simulator(&mut sim, |i| Some(jobs[i][0]), &resolved, policy);

    let Some(crash) = resolved.crash else {
        // Transient faults only: one simulation, retries in place.
        let tagger = PlanTagger::new(plan, &waves, chunk, rec);
        let report = sim.run_recorded(&tagger);
        emit_stream_summaries(rec, plan, ctx, &waves, &jobs, &report);
        emit_wave_boundaries(rec, &waves, wave_count, &jobs, &report);
        rec.record(Event::RepairDone {
            t: report.makespan,
            cross_bytes: report.cross_rack_bytes,
            inner_bytes: report.inner_rack_bytes,
        });
        let retries = report.records.iter().map(|r| r.failures.len()).sum();
        return Ok(RobustOutcome {
            repair_time: report.makespan,
            clean_time,
            retries,
            replans: 0,
            reused_ops: 0,
            final_scheme: plan.scheme,
        });
    };

    // Helper crash: simulate the original plan to locate the crash
    // instant, replay its trace up to that point, then replan and splice
    // in the recovery simulation.
    let buffer = Collect::default();
    let tagger = PlanTagger::new(plan, &waves, chunk, &buffer);
    let report1 = sim.run_recorded(&tagger);
    let t_star = first_start(&report1, jobs[crash.trigger.0][0]);
    let completed: Vec<bool> = (0..plan.ops.len())
        .map(|i| {
            let last = *jobs[i].last().expect("ops lower to >= 1 job");
            report1.record(last).finish <= t_star + EPS
        })
        .collect();
    let retries_before: usize = report1
        .records
        .iter()
        .map(|r| r.failures.iter().filter(|f| f.at <= t_star + EPS).count())
        .sum();
    for event in buffer.into_events() {
        if event.time() <= t_star + EPS {
            rec.record(event);
        }
    }

    let (from, to) = match plan.ops[crash.trigger.0] {
        Op::Send { from, to, .. } => (from, to),
        _ => unreachable!("resolve only triggers crashes on sends"),
    };
    rec.record(Event::TransferFailed {
        xfer: Transfer {
            label: format!("p0op{}:send", crash.trigger.0),
            src_node: from.0,
            src_rack: ctx.topo.rack_of(from).0,
            dst_node: to.0,
            dst_rack: ctx.topo.rack_of(to).0,
            bytes: plan.block_bytes,
            cross: !ctx.topo.same_rack(from, to),
            timestep: waves[crash.trigger.0],
        },
        attempt: 0,
        reason: reason::NODE_DOWN.to_string(),
        t: t_star,
    });
    rec.record(Event::HelperCrashed {
        node: crash.node.0,
        rack: ctx.topo.rack_of(crash.node).0,
        t: t_star,
    });

    let replan = replan_after_crash(ctx, plan, crash.node, &completed)?;
    let reused_ops = replan.reused_count();
    rec.record(Event::Replanned {
        scheme: replan.plan.scheme.to_string(),
        failed: replan.failed.len(),
        reused_ops,
        t: t_star,
    });

    // Recovery attempt, spliced in after one backoff delay. Non-crash
    // faults were one-shot against the original plan and do not recur.
    let delay = policy.delay(0);
    let t0 = t_star + delay;
    let mut sim2 = Simulator::new(network_for(ctx));
    for &(node, factor) in &resolved.slow {
        sim2.derate_node(node, factor);
    }
    lower_partial(
        &mut sim2,
        &replan.plan,
        &replan.lowered,
        &ctx.cost,
        ctx.topo.node_count(),
        1,
        chunk,
    );
    let (waves2, _) = replan.plan.cross_waves(ctx.topo);
    let buffer2 = Collect::default();
    let tagger2 = PlanTagger::new(&replan.plan, &waves2, chunk, &buffer2);
    let report2 = sim2.run_recorded(&tagger2);
    for event in buffer2.into_events() {
        rec.record(shift_event(event, t0));
    }

    // Traffic actually moved: completed original sends plus executed
    // replacement sends (full payloads only; the aborted trigger's
    // partial bytes are not counted).
    let (c1, i1) = plan.traffic(ctx.topo, &completed);
    let (c2, i2) = replan.plan.traffic(ctx.topo, &replan.lowered);
    let (cross, inner) = (c1 + c2, i1 + i2);
    let repair_time = t0 + report2.makespan;
    rec.record(Event::RepairDone {
        t: repair_time,
        cross_bytes: cross,
        inner_bytes: inner,
    });

    Ok(RobustOutcome {
        repair_time,
        clean_time,
        retries: retries_before,
        replans: 1,
        reused_ops,
        final_scheme: replan.plan.scheme,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::schemes::{RepairPlanner, RprPlanner};
    use rpr_codec::{CodeParams, StripeCodec};
    use rpr_obs::TraceRecorder;
    use rpr_topology::{cluster_for, BandwidthProfile, Placement};

    struct Fixture {
        codec: StripeCodec,
        topo: Topology,
        placement: Placement,
        profile: BandwidthProfile,
    }

    impl Fixture {
        fn new(n: usize, k: usize) -> Fixture {
            let params = CodeParams::new(n, k);
            let topo = cluster_for(params, 1, 1);
            let placement = Placement::rpr_preplaced(params, &topo);
            let profile = BandwidthProfile::simics_default(topo.rack_count());
            Fixture {
                codec: StripeCodec::new(params),
                topo,
                placement,
                profile,
            }
        }

        fn ctx(&self, failed: Vec<BlockId>) -> RepairContext<'_> {
            RepairContext::new(
                &self.codec,
                &self.topo,
                &self.placement,
                failed,
                64 << 20,
                &self.profile,
                CostModel::free(),
            )
        }
    }

    fn rpr_plan(ctx: &RepairContext<'_>) -> RepairPlan {
        let plan = RprPlanner::new().plan(ctx);
        plan.validate(ctx.codec, ctx.topo, ctx.placement)
            .expect("valid");
        plan
    }

    fn first_cross_send(plan: &RepairPlan, topo: &Topology) -> usize {
        plan.ops
            .iter()
            .position(
                |op| matches!(op, Op::Send { from, to, .. } if !topo.same_rack(*from, *to)),
            )
            .expect("plan has a cross send")
    }

    fn first_intermediate_send(plan: &RepairPlan) -> usize {
        plan.ops
            .iter()
            .position(|op| {
                matches!(
                    op,
                    Op::Send {
                        what: Payload::Intermediate(_),
                        ..
                    }
                )
            })
            .expect("plan ships an intermediate")
    }

    #[test]
    fn resolve_pins_transient_faults_to_ops() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let send = first_cross_send(&plan, &fx.topo);
        let interm = first_intermediate_send(&plan);
        let fp = FaultPlan::new(42)
            .with(FaultKind::TransferTimeout { op: send })
            .with(FaultKind::CorruptIntermediate { op: interm })
            .with(FaultKind::SlowLink {
                node: 0,
                factor: 0.5,
            });
        let r = resolve(&plan, &fx.topo, &fp).expect("resolves");
        assert_eq!(r.op_faults[send][0].reason, reason::TIMEOUT);
        let f = r.op_faults[send][0].fraction;
        assert!((0.25..0.75).contains(&f), "{f}");
        assert_eq!(
            r.op_faults[interm].last().unwrap(),
            &AttemptFault {
                fraction: 1.0,
                reason: reason::CORRUPT
            }
        );
        assert_eq!(r.slow, vec![(NodeId(0), 0.5)]);
        assert!(r.crash.is_none());
        // Same seed, same resolution.
        let r2 = resolve(&plan, &fx.topo, &fp).unwrap();
        assert_eq!(r.op_faults[send][0].fraction, r2.op_faults[send][0].fraction);
    }

    #[test]
    fn resolve_rejects_misapplied_faults() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let combine = plan
            .ops
            .iter()
            .position(|op| matches!(op, Op::Combine { .. }))
            .unwrap();
        let raw_send = plan
            .ops
            .iter()
            .position(|op| {
                matches!(
                    op,
                    Op::Send {
                        what: Payload::Block(_),
                        ..
                    }
                )
            })
            .unwrap();
        for (fault, want) in [
            (
                FaultKind::TransferTimeout { op: combine },
                "not a transfer",
            ),
            (
                FaultKind::CorruptIntermediate { op: raw_send },
                "does not carry an intermediate",
            ),
            (FaultKind::TransferTimeout { op: 10_000 }, "out of range"),
            (
                FaultKind::SlowLink {
                    node: 0,
                    factor: 0.0,
                },
                "not in (0, 1]",
            ),
            (
                FaultKind::RackSwitchOutage {
                    rack: 0,
                    timestep: 999,
                },
                "no cross transfer",
            ),
            (
                FaultKind::HelperCrash {
                    node: fx.topo.node_count() - 1,
                    timestep: 999,
                },
                "no cross-rack send",
            ),
        ] {
            let err = resolve(&plan, &fx.topo, &FaultPlan::new(1).with(fault)).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
        // A second crash is rejected even if both sites are valid.
        let (node, step) = crash_candidates(&plan, &ctx)[0];
        let fp = FaultPlan::new(1)
            .with(FaultKind::HelperCrash {
                node,
                timestep: step,
            })
            .with(FaultKind::HelperCrash {
                node,
                timestep: step,
            });
        let err = resolve(&plan, &fx.topo, &fp).unwrap_err();
        assert!(err.contains("at most one"), "{err}");
    }

    #[test]
    fn switch_outage_hits_every_wave_transfer_touching_the_rack() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let (waves, _) = plan.cross_waves(&fx.topo);
        let rack = ctx.recovery_rack().0;
        let fp = FaultPlan::new(9).with(FaultKind::RackSwitchOutage { rack, timestep: 0 });
        let r = resolve(&plan, &fx.topo, &fp).expect("resolves");
        for (i, w) in waves.iter().enumerate() {
            let hit = !r.op_faults[i].is_empty();
            if hit {
                assert_eq!(*w, Some(0), "op {i} hit outside wave 0");
                assert_eq!(r.op_faults[i][0].reason, reason::SWITCH_OUTAGE);
            }
        }
        assert!(r.op_faults.iter().any(|f| !f.is_empty()));
    }

    #[test]
    fn crash_candidates_are_block_hosting_cross_senders() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let cands = crash_candidates(&plan, &ctx);
        assert!(!cands.is_empty());
        let rec = ctx.recovery_node().0;
        for &(node, step) in &cands {
            assert_ne!(node, rec);
            assert!(fx.placement.block_on(NodeId(node)).is_some());
            // Each candidate resolves to a concrete trigger.
            let fp = FaultPlan::new(1).with(FaultKind::HelperCrash {
                node,
                timestep: step,
            });
            let r = resolve(&plan, &fx.topo, &fp).expect("candidate resolves");
            let crash = r.crash.unwrap();
            assert_eq!(crash.node.0, node);
        }
    }

    #[test]
    fn replan_reuses_completed_results_and_validates() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let &(node, _) = crash_candidates(&plan, &ctx).last().unwrap();
        // Everything except the crashed node's own ops completed.
        let completed: Vec<bool> = plan
            .ops
            .iter()
            .map(|op| op.output_location().0 != node)
            .collect();
        let rep = replan_after_crash(&ctx, &plan, NodeId(node), &completed).expect("replans");
        assert_eq!(rep.failed.len(), 2);
        assert_eq!(rep.plan.recovery, plan.recovery);
        rep.plan
            .validate(&fx.codec, &fx.topo, &fx.placement)
            .expect("replacement plan is valid");
        // No lowered op may depend on a pruned (reused / dead) op's job,
        // and reused ops are never re-executed.
        for (i, r) in rep.reused.iter().enumerate() {
            if r.is_some() {
                assert!(!rep.lowered[i], "reused op {i} must not re-execute");
            }
        }
        // Reused values really are byte-identical: same location and
        // symbolic vector by construction.
        let v1 = plan.symbolic_vectors();
        let v2 = rep.plan.symbolic_vectors();
        for (i, r) in rep.reused.iter().enumerate() {
            if let Some(j) = r {
                assert_eq!(v2[i], v1[j.0]);
                assert_eq!(
                    rep.plan.ops[i].output_location(),
                    plan.ops[j.0].output_location()
                );
            }
        }
    }

    #[test]
    fn replan_rejects_unrecoverable_crash() {
        let fx = Fixture::new(4, 2);
        let ctx = fx.ctx(vec![BlockId(0), BlockId(1)]); // already k = 2 failures
        let plan = crate::schemes::TraditionalPlanner::new().plan(&ctx);
        let survivor = fx.placement.node_of(BlockId(2));
        let completed = vec![false; plan.ops.len()];
        let err = replan_after_crash(&ctx, &plan, survivor, &completed).unwrap_err();
        assert!(err.contains("unrecoverable"), "{err}");
    }

    #[test]
    fn injected_run_without_faults_matches_clean_simulation() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let out = simulate_injected(
            &plan,
            &ctx,
            &FaultPlan::new(7),
            &RetryPolicy::default(),
            rpr_obs::noop(),
        )
        .expect("runs");
        assert_eq!(out.repair_time, out.clean_time);
        assert_eq!(out.retries, 0);
        assert_eq!(out.replans, 0);
    }

    #[test]
    fn injected_timeout_retries_and_slows_the_repair() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let send = first_cross_send(&plan, &fx.topo);
        let fp = FaultPlan::new(5).with(FaultKind::TransferTimeout { op: send });
        let rec = TraceRecorder::default();
        let out =
            simulate_injected(&plan, &ctx, &fp, &RetryPolicy::default(), &rec).expect("runs");
        assert_eq!(out.retries, 1);
        assert_eq!(out.replans, 0);
        assert!(
            out.repair_time > out.clean_time,
            "{} vs {}",
            out.repair_time,
            out.clean_time
        );
        let names: Vec<&str> = rec.take_events().iter().map(|e| e.name()).collect();
        assert!(names.contains(&"transfer_failed"));
        assert!(names.contains(&"retry_scheduled"));
        assert_eq!(*names.last().unwrap(), "repair_done");
    }

    #[test]
    fn injected_crash_replans_and_completes() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        for &(node, step) in &crash_candidates(&plan, &ctx) {
            let fp = FaultPlan::new(11).with(FaultKind::HelperCrash {
                node,
                timestep: step,
            });
            let rec = TraceRecorder::default();
            let out = simulate_injected(&plan, &ctx, &fp, &RetryPolicy::default(), &rec)
                .unwrap_or_else(|e| panic!("crash ({node}, {step}): {e}"));
            assert_eq!(out.replans, 1);
            assert!(out.repair_time >= out.clean_time);
            let events = rec.take_events();
            let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
            assert!(names.contains(&"helper_crashed"));
            assert!(names.contains(&"replanned"));
            assert_eq!(*names.last().unwrap(), "repair_done");
            // Timeline is monotone: repair_done is the latest instant.
            for e in &events {
                assert!(e.time() <= out.repair_time + 1e-9);
            }
        }
    }

    #[test]
    fn injected_run_exhausting_retry_budget_fails() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let send = first_cross_send(&plan, &fx.topo);
        let fp = FaultPlan::new(5).with(FaultKind::TransferTimeout { op: send });
        let tight = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let err = simulate_injected(&plan, &ctx, &fp, &tight, rpr_obs::noop()).unwrap_err();
        assert!(err.contains("retry budget"), "{err}");
    }

    #[test]
    fn injected_trace_is_bit_deterministic() {
        let fx = Fixture::new(8, 4);
        let ctx = fx.ctx(vec![BlockId(2)]);
        let plan = rpr_plan(&ctx);
        let (node, step) = crash_candidates(&plan, &ctx)[0];
        let fp = FaultPlan::new(4242)
            .with(FaultKind::TransferTimeout {
                op: first_cross_send(&plan, &fx.topo),
            })
            .with(FaultKind::HelperCrash {
                node,
                timestep: step,
            });
        let mut traces = Vec::new();
        for _ in 0..2 {
            let rec = TraceRecorder::default();
            simulate_injected(&plan, &ctx, &fp, &RetryPolicy::default(), &rec).expect("runs");
            traces.push(rpr_obs::export::to_json_lines(&rec.take_events()));
        }
        assert_eq!(traces[0], traces[1]);
    }
}
