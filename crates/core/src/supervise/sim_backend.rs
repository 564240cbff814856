//! The `rpr-netsim` backend of the supervision loop: one generation is one
//! flow-level simulation on the virtual clock, spliced into the repair
//! timeline at `t_base`.

use super::{
    hedge_node, median_of, wave_spans, Baseline, Ending, Evidence, Generation, GenerationRun, RepairBackend,
    ResolvedFaults, Splice,
};
use crate::plan::{Input, Op, Payload, RepairPlan};
use crate::scenario::RepairContext;
use crate::sim::{lower_partial, network_for};
use crate::trace::PlanTagger;
use rpr_faults::{reason, RetryPolicy};
use rpr_netsim::{FailSpec, JobId, SimReport, Simulator};
use rpr_obs::{Event, Recorder, Transfer};
use rpr_proof::{symbolic_block_hash, symbolic_output_hash, ProofKey, ProofSource, RepairProof};

/// Time tolerance when comparing simulation instants.
const EPS: f64 = 1e-9;

/// The simulator's stand-in for a partial result's bytes: the sorted
/// `(generation, op)` lie sites corrupting it (empty = honest bytes).
/// Taint enters at a lying send and flows through every data dependency —
/// cut-through folding means one lied block poisons the whole downstream
/// partial-sum chain — and through pool reuse (a banked partial carries
/// the taint it was produced with).
pub type Taint = Vec<(usize, usize)>;

/// [`RepairBackend`] on the virtual clock.
#[derive(Debug, Default)]
pub struct SimBackend {
    /// Where the next generation's clock starts on the repair timeline.
    t_base: f64,
}

/// A recorder adapter collecting events into a buffer for replay.
#[derive(Default)]
struct Collect(std::sync::Mutex<Vec<Event>>);

impl Collect {
    fn into_events(self) -> Vec<Event> {
        self.0.into_inner().expect("collector poisoned")
    }
}

impl Recorder for Collect {
    fn record(&self, event: Event) {
        self.0.lock().expect("collector poisoned").push(event);
    }
}

/// Apply resolved derates and per-op attempt failures to a fresh
/// simulator; `first_job` maps an op to its first chunk job (`None` for
/// ops that were not lowered). Attempt faults land on the op's *first*
/// chunk: corruption is detected at the first verified chunk and a
/// stream resumes from its last verified chunk, so only that chunk's
/// latency is re-paid. The loop has already run
/// [`check_retry_budget`](super::check_retry_budget).
fn arm_simulator(
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
fn first_start(report: &SimReport, job: JobId) -> f64 {
    let r = report.record(job);
    r.failures.first().map(|f| f.start).unwrap_or(r.start)
}

/// Per-op `(first start, last finish)` of the executed ops.
fn op_spans(report: &SimReport, jobs: &[Option<Vec<JobId>>]) -> Vec<(f64, f64)> {
    jobs.iter()
        .map(|js| match js {
            Some(js) => {
                let last = *js.last().expect("ops lower to >= 1 job");
                (first_start(report, js[0]), report.record(last).finish)
            }
            None => (0.0, 0.0),
        })
        .collect()
}

/// Which executed ops finished at or before `t`.
fn finished_by(spans: &[(f64, f64)], lowered: &[bool], t: f64) -> Vec<bool> {
    spans
        .iter()
        .zip(lowered)
        .map(|(&(_, finish), &l)| l && finish <= t + EPS)
        .collect()
}

/// Find the worst straggling send: one whose duration exceeds
/// `multiple` times its peer-group median. Peers are the send's wave
/// when the wave has at least two sends, otherwise its whole link class
/// (all cross sends, or all inner sends — peers move the same block
/// size over the same link class). Returns `(op, detection instant)`
/// where detection fires at `start + multiple * median` — the earliest
/// moment the supervisor can *know* the transfer is late.
fn find_straggler(
    plan: &RepairPlan,
    waves: &[Option<usize>],
    lowered: &[bool],
    spans: &[(f64, f64)],
    multiple: f64,
) -> Option<(usize, f64)> {
    let sends: Vec<(usize, Option<usize>, f64, f64)> = plan // (op, wave, start, dur)
        .ops
        .iter()
        .enumerate()
        .filter(|(i, op)| lowered[*i] && matches!(op, Op::Send { .. }))
        .map(|(i, _)| (i, waves[i], spans[i].0, spans[i].1 - spans[i].0))
        .collect();
    let mut best: Option<(f64, usize, f64)> = None;
    for &(i, w, start, dur) in &sends {
        // Peer group, always excluding the candidate itself (a 10x
        // outlier must not drag its own baseline up): the send's wave
        // when it has company there, else its whole link class —
        // single-failure pipelines ship one cross block per wave, so
        // waves alone are no peer group.
        let mut peers: Vec<f64> = sends
            .iter()
            .filter(|&&(pi, pw, _, _)| pi != i && w.is_some() && pw == w)
            .map(|&(.., d)| d)
            .collect();
        if peers.is_empty() {
            peers = sends
                .iter()
                .filter(|&&(pi, pw, _, _)| pi != i && pw.is_some() == w.is_some())
                .map(|&(.., d)| d)
                .collect();
        }
        if peers.is_empty() {
            continue;
        }
        let median = median_of(&mut peers);
        if median <= 0.0 {
            continue;
        }
        if dur > multiple * median {
            let excess = dur / median;
            if best.as_ref().is_none_or(|&(e, ..)| excess > e) {
                best = Some((excess, i, start + multiple * median));
            }
        }
    }
    best.map(|(_, i, detect)| (i, detect))
}

/// The transfer descriptor of send op `i` under `tag`, for the
/// `node_down` failure a crash emits.
fn send_xfer(
    plan: &RepairPlan,
    ctx: &RepairContext<'_>,
    waves: &[Option<usize>],
    tag: usize,
    i: usize,
) -> Transfer {
    let Op::Send { from, to, .. } = &plan.ops[i] else {
        unreachable!("crash triggers are sends");
    };
    Transfer {
        label: format!("p{tag}op{i}:send"),
        src_node: from.0,
        src_rack: ctx.topo.rack_of(*from).0,
        dst_node: to.0,
        dst_rack: ctx.topo.rack_of(*to).0,
        bytes: plan.block_bytes,
        cross: !ctx.topo.same_rack(*from, *to),
        timestep: waves[i],
    }
}

/// Per-op taint for one generation (see [`Taint`]).
fn gen_taints(gen: &Generation<'_, '_, Taint>) -> Vec<Taint> {
    let mut taints: Vec<Taint> = Vec::with_capacity(gen.plan.ops.len());
    for (i, op) in gen.plan.ops.iter().enumerate() {
        let mut t: Taint = match gen.reused[i] {
            Some(banked) => banked.partial.clone(),
            None => {
                let mut t = Vec::new();
                for d in op.dependencies() {
                    t.extend(taints[d.0].iter().copied());
                }
                if gen.faults.lies.contains(&i) {
                    t.push((gen.index, i));
                }
                t
            }
        };
        t.sort_unstable();
        t.dedup();
        taints.push(t);
    }
    taints
}

/// The proof inputs of op `i`: one `(source, hash)` pair per consumed
/// value, in consumption order. Blocks that arrive via a send reference
/// the send op (its output is what was actually consumed); locally-read
/// blocks reference the stripe block itself.
fn proof_inputs(
    key: ProofKey,
    plan: &RepairPlan,
    i: usize,
    vecs: &[Vec<u8>],
    taints: &[&Taint],
) -> Vec<(ProofSource, u128)> {
    let op_hash = |s: usize| symbolic_output_hash(key, &vecs[s], taints[s]);
    match &plan.ops[i] {
        Op::Send { what, .. } => match what {
            Payload::Block(b) => vec![(ProofSource::Block(b.0), symbolic_block_hash(key, b.0))],
            Payload::Intermediate(src) => vec![(ProofSource::Op(src.0), op_hash(src.0))],
        },
        Op::Combine { inputs, .. } => inputs
            .iter()
            .map(|inp| match inp {
                Input::Block { via: Some(v), .. } => (ProofSource::Op(v.0), op_hash(v.0)),
                Input::Block {
                    block, via: None, ..
                } => (
                    ProofSource::Block(block.0),
                    symbolic_block_hash(key, block.0),
                ),
                Input::Intermediate(src) => (ProofSource::Op(src.0), op_hash(src.0)),
            })
            .collect(),
    }
}

impl RepairBackend for SimBackend {
    type Partial = Taint;

    /// The clean baseline: makespan and per-wave spans of a fault-free
    /// run of the original plan (deadline budgets).
    fn begin(&mut self, plan: &RepairPlan, ctx: &RepairContext<'_>) -> Baseline {
        let all = vec![true; plan.ops.len()];
        let mut sim = Simulator::new(network_for(ctx));
        let nodes = ctx.topo.node_count();
        let jobs = lower_partial(
            &mut sim,
            plan,
            &all,
            &ctx.cost,
            nodes,
            0,
            ctx.effective_chunk(),
        );
        let report = sim.run();
        let wave_spans = wave_spans(plan, ctx.topo, &all, &op_spans(&report, &jobs));
        Baseline {
            clean_time: report.makespan,
            wave_spans,
        }
    }

    fn run_generation(
        &mut self,
        gen: &Generation<'_, '_, Taint>,
        rec: &dyn Recorder,
    ) -> GenerationRun<Taint> {
        let (plan, ctx, g, t_base) = (gen.plan, gen.ctx, gen.index, self.t_base);
        let chunk = ctx.effective_chunk();
        let nodes = ctx.topo.node_count();
        let (waves, _) = plan.cross_waves(ctx.topo);
        let mut sim = Simulator::new(network_for(ctx));
        let jobs = lower_partial(&mut sim, plan, gen.lowered, &ctx.cost, nodes, g, chunk);
        let first_job = |i: usize| jobs[i].as_ref().map(|js| js[0]);
        arm_simulator(&mut sim, first_job, gen.faults, gen.policy);
        let buffer = Collect::default();
        let report = sim.run_recorded(&PlanTagger::new(plan, &waves, chunk, &buffer));
        let events = buffer.into_events();
        let spans = op_spans(&report, &jobs);
        let taints = gen_taints(gen);
        let partials_of = |taints: Vec<Taint>, done: &[bool]| -> Vec<Option<Taint>> {
            taints
                .into_iter()
                .zip(done)
                .map(|(t, &d)| d.then_some(t))
                .collect()
        };

        if let Some(crash) = gen.faults.crash {
            // The generation runs until the dying helper's trigger send
            // starts: replay the trace up to that instant, then the crash.
            let t_star = spans[crash.trigger.0].0;
            let completed = finished_by(&spans, gen.lowered, t_star);
            for e in events {
                if e.time() <= t_star + EPS {
                    rec.record(e.shifted(t_base));
                }
            }
            let now = t_base + t_star;
            rec.record(Event::TransferFailed {
                xfer: send_xfer(plan, ctx, &waves, g, crash.trigger.0),
                attempt: 0,
                reason: reason::NODE_DOWN.to_string(),
                t: now,
            });
            rec.record(Event::HelperCrashed {
                node: crash.node.0,
                rack: ctx.topo.rack_of(crash.node).0,
                t: now,
            });
            self.t_base = now;
            return GenerationRun {
                ending: Ending::Crashed(crash.node),
                started: t_base,
                now,
                partials: partials_of(taints, &completed),
                spans,
                retries: report
                    .records
                    .iter()
                    .map(|r| r.failures.iter().filter(|f| f.at <= t_star + EPS).count())
                    .sum(),
                traffic: plan.traffic(ctx.topo, &completed),
                splice: None,
            };
        }

        // Crash-free: every lowered op finishes. A straggling cross stream
        // past the hedge multiple of its peers' median gets a speculative
        // alternative; virtual time can be rewound, so the hedge is a
        // counterfactual — adopted only when it finishes first.
        let mut makespan = report.makespan;
        let mut traffic = plan.traffic(ctx.topo, gen.lowered);
        let mut cut = f64::INFINITY; // replay the original's events up to here
        let mut adopted: Vec<Event> = Vec::new();
        let mut splice = None;
        let straggler = gen
            .hedge
            .and_then(|m| Some((m, find_straggler(plan, &waves, gen.lowered, &spans, m)?)));
        if let Some((multiple, (slow_i, detect))) = straggler {
            let Op::Send {
                from: slow_node, ..
            } = plan.ops[slow_i]
            else {
                unreachable!("stragglers are sends");
            };
            let done_at_detect = finished_by(&spans, gen.lowered, detect);
            // Hedge only if an alternative exists without the slow node.
            if let Some(alt) = gen.alternative(slow_node, &done_at_detect) {
                let winner_node = hedge_node(&alt.plan, ctx.topo, slow_node);
                let mut hsim = Simulator::new(network_for(ctx));
                lower_partial(
                    &mut hsim,
                    &alt.plan,
                    &alt.lowered,
                    &ctx.cost,
                    nodes,
                    g + 1,
                    chunk,
                );
                for &(node, factor) in &gen.faults.slow {
                    hsim.derate_node(node, factor);
                }
                let (hwaves, _) = alt.plan.cross_waves(ctx.topo);
                let hbuffer = Collect::default();
                let hreport =
                    hsim.run_recorded(&PlanTagger::new(&alt.plan, &hwaves, chunk, &hbuffer));
                let label = format!("p{g}op{slow_i}:send");
                rec.record(Event::HedgeLaunched {
                    label: label.clone(),
                    slow_node: slow_node.0,
                    hedge_node: winner_node,
                    multiple,
                    t: t_base + detect,
                });
                let hedged_makespan = detect + hreport.makespan;
                let won = hedged_makespan + EPS < makespan;
                if won {
                    // Adopt the hedged timeline: original events up to
                    // detection, then the alternative's.
                    cut = detect;
                    adopted = hbuffer
                        .into_events()
                        .into_iter()
                        .map(|e| e.shifted(t_base + detect))
                        .collect();
                    adopted.push(Event::HedgeWon {
                        label,
                        winner_node,
                        saved: makespan - hedged_makespan,
                        t: t_base + hedged_makespan,
                    });
                    makespan = hedged_makespan;
                    let before = plan.traffic(ctx.topo, &done_at_detect);
                    let after = alt.plan.traffic(ctx.topo, &alt.lowered);
                    traffic = (before.0 + after.0, before.1 + after.1);
                }
                splice = Some(Splice {
                    won: won.then(|| alt.reused_count()),
                });
            }
        }
        for e in events {
            if e.time() <= cut + EPS {
                rec.record(e.shifted(t_base));
            }
        }
        for e in adopted {
            rec.record(e);
        }
        self.t_base = t_base + makespan;
        GenerationRun {
            ending: Ending::Completed,
            started: t_base,
            now: self.t_base,
            partials: partials_of(taints, gen.lowered),
            spans,
            retries: report.records.iter().map(|r| r.failures.len()).sum(),
            traffic,
            splice,
        }
    }

    /// Symbolic evidence: an op's output hash covers its coefficient
    /// vector and taint, its expected hash the vector alone. The
    /// simulator knows ground truth, so the nodes it convicts are exactly
    /// the senders whose lies completed.
    fn prove(
        &mut self,
        gen: &Generation<'_, '_, Taint>,
        run: &GenerationRun<Taint>,
        key: ProofKey,
    ) -> Evidence {
        let (plan, vecs) = (gen.plan, gen.vecs);
        let chunk = gen.ctx.effective_chunk();
        let (chunks, chunk_bytes) = match chunk {
            Some(c) if c > 0 && c < plan.block_bytes => (plan.block_bytes.div_ceil(c) as usize, c),
            _ => (1, plan.block_bytes),
        };
        let honest = Taint::new();
        let taints: Vec<&Taint> = (0..plan.ops.len())
            .map(|i| match (gen.reused[i], &run.partials[i]) {
                (Some(banked), _) => &banked.partial,
                (None, Some(taint)) => taint,
                (None, None) => &honest,
            })
            .collect();
        let mut evidence = Evidence::default();
        for (i, op) in plan.ops.iter().enumerate() {
            if gen.reused[i].is_none() && run.partials[i].is_none() {
                continue;
            }
            let output_hash = symbolic_output_hash(key, &vecs[i], taints[i]);
            // The node under suspicion: the sender for transfers (it
            // produced the bytes on the wire), the folding node for
            // combines, the hosting node for pool re-serves. A re-serve's
            // single input is the banked partial: the provenance edge
            // points at its original producer, and the hash equals this
            // op's own output (a re-serve forwards the banked bytes, taint
            // and all), so audits chase taint back to the liar across
            // generations.
            let (node, algorithm, inputs) = match (gen.reused[i], op) {
                (Some(banked), _) => {
                    let (src_gen, src_op) = banked.origin;
                    let source = ProofSource::Pooled {
                        gen: src_gen,
                        op: src_op,
                    };
                    (op.output_location().0, "pool", vec![(source, output_hash)])
                }
                (None, Op::Send { from, .. }) => {
                    (from.0, "sim", proof_inputs(key, plan, i, vecs, &taints))
                }
                (None, Op::Combine { node, .. }) => {
                    (node.0, "sim", proof_inputs(key, plan, i, vecs, &taints))
                }
            };
            if !taints[i].is_empty() {
                evidence.tainted.push(i);
            }
            if gen.faults.lies.contains(&i) && gen.reused[i].is_none() {
                evidence.dishonest.push(node);
            }
            evidence.proofs.push(RepairProof {
                op: i,
                node,
                coeffs: vecs[i].clone(),
                inputs,
                output_hash,
                expected_hash: symbolic_output_hash(key, &vecs[i], &[]),
                algorithm: algorithm.to_string(),
                chunks,
                chunk_bytes,
            });
        }
        evidence.dishonest.sort_unstable();
        evidence.dishonest.dedup();
        evidence
    }

    fn pause(&mut self, delay: f64) {
        self.t_base += delay;
    }
}
