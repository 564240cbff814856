//! The `rpr-netsim` backend of the supervision loop: one generation is one
//! flow-level simulation on the virtual clock, spliced into the repair
//! timeline at `t_base`.

use super::{
    build_evidence, hedge_node, median_of, Baseline, Ending, Evidence, Generation, GenerationRun,
    RepairBackend, ResolvedFaults, Splice,
};
use crate::plan::{Op, RepairPlan};
use crate::scenario::RepairContext;
use crate::sim::{network_for, op_spans, JobGraph};
use crate::trace::{graph_events, op_label, send_transfer, stream_summary, wave_spans};
use rpr_faults::{reason, RetryPolicy};
use rpr_netsim::{FailSpec, JobId, SimReport, Simulator};
use rpr_obs::{Event, Recorder};
use rpr_proof::{symbolic_block_hash, symbolic_output_hash, ProofKey};

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
    /// `begin`'s fault-free report of the first plan and its job ids,
    /// until the first generation: when that generation runs the same
    /// graph unarmed, it is this run.
    clean: Option<(SimReport, Vec<JobId>)>,
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

impl RepairBackend for SimBackend {
    type Partial = Taint;

    /// The clean baseline: makespan and per-wave spans of a fault-free
    /// run of the original plan (deadline budgets).
    fn begin(&mut self, plan: &RepairPlan, ctx: &RepairContext<'_>) -> Baseline {
        let all = vec![true; plan.ops.len()];
        let mut sim = Simulator::new(network_for(ctx));
        let graph = JobGraph::new(plan, &all, ctx);
        let ids = graph.add_to(&mut sim, 0);
        let report = sim.run();
        let wave_spans = wave_spans(plan, ctx.topo, &all, &op_spans(&report, &graph, &ids));
        let clean_time = report.makespan;
        self.clean = Some((report, ids));
        Baseline {
            clean_time,
            wave_spans,
        }
    }

    fn run_generation(
        &mut self,
        gen: &Generation<'_, '_, Taint>,
        rec: &dyn Recorder,
    ) -> GenerationRun<Taint> {
        let (plan, ctx, g, t_base) = (gen.plan, gen.ctx, gen.index, self.t_base);
        let (waves, _) = plan.cross_waves(ctx.topo);
        let graph = gen.graph;
        // Generation 0 runs `begin`'s plan: unarmed and fully lowered, it
        // is the run `begin` already simulated.
        let unarmed = gen.faults.slow.is_empty() && gen.faults.op_faults.iter().all(Vec::is_empty);
        let (report, ids) = match self.clean.take() {
            Some(clean) if g == 0 && unarmed && gen.lowered.iter().all(|&l| l) => clean,
            _ => {
                let mut sim = Simulator::new(network_for(ctx));
                let ids = graph.add_to(&mut sim, g);
                let first_job = |i: usize| graph.lowered(i).then(|| ids[graph.ops[i].jobs.start]);
                arm_simulator(&mut sim, first_job, gen.faults, gen.policy);
                (sim.run(), ids)
            }
        };
        let spans = op_spans(&report, graph, &ids);
        let taints = gen_taints(gen);
        let partials_of = |taints: Vec<Taint>, done: &[bool]| -> Vec<Option<Taint>> {
            taints
                .into_iter()
                .zip(done)
                .map(|(t, &d)| d.then_some(t))
                .collect()
        };
        // Replay the generation's events up to `cut`, then one
        // `stream_summary` per streamed send finished by then: its span,
        // and its chunk-0 job's finish as the first chunk through. Returns
        // which executed ops finished by `cut`.
        let replay = |cut: f64| -> Vec<bool> {
            let m = graph.chunks.len();
            let done = finished_by(&spans, gen.lowered, cut);
            let summaries = (0..plan.ops.len())
                .filter(|&i| m > 1 && done[i] && matches!(plan.ops[i], Op::Send { .. }))
                .map(|i| {
                    let first = report.record(ids[graph.ops[i].jobs.start]).finish;
                    let xfer = send_transfer(plan, ctx.topo, &waves, g, i);
                    stream_summary(xfer, m, graph.chunks[0], spans[i].0, first, spans[i].1)
                });
            if rec.enabled() {
                let events = graph_events(graph, ctx.topo, &report, &ids).into_iter();
                let replayed = events.filter(|&(at, _)| at <= cut + EPS);
                for e in replayed.map(|(_, e)| e).chain(summaries) {
                    rec.record(e.shifted(t_base));
                }
            }
            done
        };

        if let Some(crash) = gen.faults.crash {
            // The generation runs until the dying helper's trigger send
            // starts: replay the trace up to that instant, then the crash.
            let t_star = spans[crash.trigger.0].0;
            let completed = replay(t_star);
            let now = t_base + t_star;
            rec.emit(|| Event::TransferFailed {
                xfer: send_transfer(plan, ctx.topo, &waves, g, crash.trigger.0),
                attempt: 0,
                reason: reason::NODE_DOWN.to_string(),
                t: now,
            });
            rec.emit(|| Event::HelperCrashed {
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
                let hgraph = JobGraph::new(&alt.plan, &alt.lowered, ctx);
                let hids = hgraph.add_to(&mut hsim, g + 1);
                for &(node, factor) in &gen.faults.slow {
                    hsim.derate_node(node, factor);
                }
                let hreport = hsim.run();
                let label = op_label(plan, g, slow_i, None);
                rec.emit(|| Event::HedgeLaunched {
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
                    adopted = graph_events(&hgraph, ctx.topo, &hreport, &hids)
                        .into_iter()
                        .map(|(_, e)| e.shifted(t_base + detect))
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
                    cut,
                });
            }
        }
        replay(cut);
        for e in adopted {
            rec.emit(|| e);
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
    /// vector and taint, its expected hash the vector alone, and a block's
    /// hash its index.
    fn prove(
        &mut self,
        gen: &Generation<'_, '_, Taint>,
        run: &GenerationRun<Taint>,
        key: ProofKey,
    ) -> Evidence {
        build_evidence(
            gen,
            run,
            |b| symbolic_block_hash(key, b),
            |coeffs, taint| {
                let expected = symbolic_output_hash(key, coeffs, &[]);
                (symbolic_output_hash(key, coeffs, taint), expected)
            },
            |_| "sim".to_string(),
        )
    }

    fn pause(&mut self, delay: f64) {
        self.t_base += delay;
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Banked, PoolKey, Tier};
    use super::*;
    use crate::cost::CostModel;
    use crate::schemes::{RepairPlanner, RprPlanner};
    use rpr_codec::{BlockId, CodeParams, StripeCodec};
    use rpr_faults::HealthTracker;
    use rpr_obs::TraceRecorder;
    use rpr_topology::{cluster_for, BandwidthProfile, NodeId, Placement};
    use std::collections::HashMap;

    /// Generation 0 of `plan` under `faults`, with the events it records.
    fn first_generation(
        backend: &mut SimBackend,
        ctx: &RepairContext<'_>,
        plan: &RepairPlan,
        faults: &ResolvedFaults,
    ) -> (GenerationRun<Taint>, Vec<Event>) {
        let lowered = vec![true; plan.ops.len()];
        let vecs = plan.symbolic_vectors();
        let graph = JobGraph::new(plan, &lowered, ctx);
        let pool: HashMap<PoolKey, Banked<Taint>> = HashMap::new();
        let tracker = HealthTracker::with_defaults();
        let policy = RetryPolicy::default();
        let gen = Generation {
            index: 0,
            ctx,
            plan,
            vecs: &vecs,
            graph: &graph,
            lowered: &lowered,
            reused: vec![None; plan.ops.len()],
            faults,
            policy: &policy,
            hedge: None,
            tier: Tier::Full,
            pool: &pool,
            dead: &[],
            tracker: &tracker,
        };
        let rec = TraceRecorder::default();
        let run = backend.run_generation(&gen, &rec);
        (run, rec.take_events())
    }

    #[test]
    fn a_clean_first_generation_reuses_begins_simulation() {
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
            8 << 20,
            &profile,
            CostModel::simics(),
        )
        .with_chunk_size(1 << 20);
        let plan = RprPlanner::new().plan(&ctx);
        let clean = ResolvedFaults {
            op_faults: vec![Vec::new(); plan.ops.len()],
            crash: None,
            slow: Vec::new(),
            lies: Vec::new(),
        };

        let mut warm = SimBackend::default();
        let baseline = warm.begin(&plan, &ctx);
        assert!(warm.clean.is_some(), "begin keeps its report");
        let (run, events) = first_generation(&mut warm, &ctx, &plan, &clean);
        assert!(warm.clean.is_none(), "generation 0 took begin's report");
        assert_eq!(run.now.to_bits(), baseline.clean_time.to_bits());

        // Without a baseline the same generation simulates afresh, and
        // comes out the same.
        let (fresh, fresh_events) =
            first_generation(&mut SimBackend::default(), &ctx, &plan, &clean);
        assert_eq!(run.now.to_bits(), fresh.now.to_bits());
        assert_eq!(run.spans, fresh.spans);
        assert_eq!((run.retries, run.traffic), (fresh.retries, fresh.traffic));
        assert_eq!(events, fresh_events);

        // An armed generation 0 cannot be the clean run: derated links
        // slow it down.
        let mut slowed = clean.clone();
        slowed.slow = (0..topo.node_count()).map(|n| (NodeId(n), 0.25)).collect();
        let mut armed = SimBackend::default();
        armed.begin(&plan, &ctx);
        let (run, _) = first_generation(&mut armed, &ctx, &plan, &slowed);
        assert!(armed.clean.is_none(), "the baseline is dropped either way");
        assert!(run.now > baseline.clean_time + EPS, "{}", run.now);
    }
}
