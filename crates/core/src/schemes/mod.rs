//! Repair planners and the machinery they share.
//!
//! * [`PlanBuilder`] — incremental construction of a [`RepairPlan`] DAG;
//! * [`inner_tree`] — Algorithm 1 ("Inner"): recursive pairwise partial
//!   decoding within one rack;
//! * [`inner_star`] — the multi-failure inner phase (Algorithm 3,
//!   "Inner-multi"): raw blocks funnel into the rack aggregator once and
//!   are folded into one intermediate per sub-equation;
//! * [`cross_pipeline`] — Algorithm 2/4 ("Cross"/"Cross-multi"): the greedy
//!   pipeline scheduler that merges intermediates at peer racks so
//!   cross-rack transfers overlap.

mod car;
mod chain;
mod rpr;
mod traditional;

pub use car::CarPlanner;
pub use chain::ChainPlanner;
pub use rpr::RprPlanner;
pub use traditional::{RecoverySite, TraditionalPlanner};

use crate::plan::{Input, Op, OpId, Payload, RepairPlan};
use crate::scenario::RepairContext;
use crate::sim::chunk_sizes;
use rpr_codec::{BlockId, RepairEquation};
use rpr_topology::{NodeId, RackId};

/// A repair planner: turns a failure scenario into an executable plan.
pub trait RepairPlanner {
    /// Scheme name used in reports.
    fn name(&self) -> &'static str;
    /// Produce the plan for a scenario.
    fn plan(&self, ctx: &RepairContext<'_>) -> RepairPlan;
}

/// Incremental [`RepairPlan`] construction.
pub struct PlanBuilder {
    ops: Vec<Op>,
}

impl PlanBuilder {
    /// An empty builder.
    pub fn new() -> PlanBuilder {
        PlanBuilder { ops: Vec::new() }
    }

    /// Append an op, returning its id.
    pub fn push(&mut self, op: Op) -> OpId {
        self.ops.push(op);
        OpId(self.ops.len() - 1)
    }

    /// Append a raw-block send.
    pub fn send_block(&mut self, block: BlockId, from: NodeId, to: NodeId) -> OpId {
        self.push(Op::Send {
            what: Payload::Block(block),
            from,
            to,
        })
    }

    /// Append an intermediate send.
    pub fn send_interm(&mut self, op: OpId, from: NodeId, to: NodeId) -> OpId {
        self.push(Op::Send {
            what: Payload::Intermediate(op),
            from,
            to,
        })
    }

    /// Append a combine.
    pub fn combine(&mut self, node: NodeId, eq: usize, inputs: Vec<Input>) -> OpId {
        self.push(Op::Combine { node, eq, inputs })
    }

    /// Finish into a plan whose reconstructions land on `recovery`.
    pub fn finish(
        self,
        ctx: &RepairContext<'_>,
        recovery: NodeId,
        outputs: Vec<(BlockId, OpId)>,
        force_matrix: bool,
        scheme: &'static str,
    ) -> RepairPlan {
        RepairPlan {
            params: ctx.params(),
            block_bytes: ctx.block_bytes,
            ops: self.ops,
            outputs,
            force_matrix,
            scheme,
            recovery,
            ordering: Vec::new(),
        }
    }

    /// Ops added so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no ops were added.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl Default for PlanBuilder {
    fn default() -> Self {
        PlanBuilder::new()
    }
}

/// The value a rack contributes to the cross phase: either a single raw
/// block (a one-helper rack — the coefficient travels with it and is
/// applied at the receiver) or a produced intermediate op.
#[derive(Clone, Copy, Debug)]
pub enum Interm {
    /// A raw block plus the coefficient to apply on arrival.
    Raw(BlockId, u8),
    /// A finished intermediate (coefficients already applied).
    Op(OpId),
}

/// One rack's contribution entering the cross-rack phase.
#[derive(Clone, Debug)]
pub struct RackInterm {
    /// Which sub-equation (eq. 9 row) this intermediate serves.
    pub eq: usize,
    /// The rack holding it.
    pub rack: RackId,
    /// The node holding it.
    pub node: NodeId,
    /// The value.
    pub value: Interm,
    /// Estimated time at which it is ready (scheduler bookkeeping, in units
    /// of the caller's choosing).
    pub ready: f64,
}

/// Algorithm 1, "Inner": combine one rack's helper blocks for one equation
/// by recursive pairwise partial decoding (a binomial tree of inner-rack
/// transfers).
///
/// `helpers` are `(block, coeff)` pairs hosted in one rack; `root`, when
/// given, is an extra empty participant (the recovery node) that the tree
/// terminates at — this reproduces Figure 4, where the failed rack's
/// survivors flow into the replacement node while remote racks aggregate at
/// a helper node.
///
/// Returns the rack's [`Interm`], the node holding it, and the tree depth
/// in inner-rack transfer rounds (the `⌈log2⌉` of eq. 11).
pub fn inner_tree(
    b: &mut PlanBuilder,
    ctx: &RepairContext<'_>,
    helpers: &[(BlockId, u8)],
    eq: usize,
    root: Option<NodeId>,
) -> (Interm, NodeId, usize) {
    assert!(!helpers.is_empty(), "inner_tree: no helpers");

    // Participants: (node, current value). The optional root goes first so
    // it ends up owning the final intermediate. A helper hosted *on* the
    // root node (possible for degraded reads served by a storage node)
    // seeds the root's value directly instead of becoming a peer — a node
    // never sends to itself.
    let mut entries: Vec<(NodeId, Option<Interm>)> = Vec::new();
    if let Some(r) = root {
        let local = helpers
            .iter()
            .find(|&&(block, _)| ctx.placement.node_of(block) == r)
            .map(|&(block, coeff)| Interm::Raw(block, coeff));
        entries.push((r, local));
    }
    for &(block, coeff) in helpers {
        if root.is_some_and(|r| ctx.placement.node_of(block) == r) {
            continue;
        }
        entries.push((
            ctx.placement.node_of(block),
            Some(Interm::Raw(block, coeff)),
        ));
    }

    if entries.len() == 1 {
        let (node, value) = entries.pop().unwrap();
        return (value.expect("sole participant holds the block"), node, 0);
    }

    let mut depth = 0usize;
    while entries.len() > 1 {
        depth += 1;
        let mut next: Vec<(NodeId, Option<Interm>)> = Vec::new();
        let mut iter = entries.chunks(2);
        for pair in &mut iter {
            if pair.len() == 1 {
                next.push(pair[0]);
                continue;
            }
            let (recv_node, recv_val) = pair[0];
            let (send_node, send_val) = pair[1];
            let send_val = send_val.expect("only the root can be empty, and it is index 0");

            // Ship the sender's value and fold it at the receiver.
            let delivered: Input = match send_val {
                Interm::Raw(block, coeff) => {
                    let s = b.send_block(block, send_node, recv_node);
                    Input::Block {
                        block,
                        coeff,
                        via: Some(s),
                    }
                }
                Interm::Op(op) => {
                    let s = b.send_interm(op, send_node, recv_node);
                    Input::Intermediate(s)
                }
            };
            let mut inputs = Vec::with_capacity(2);
            match recv_val {
                None => {}
                Some(Interm::Raw(block, coeff)) => inputs.push(Input::Block {
                    block,
                    coeff,
                    via: None,
                }),
                Some(Interm::Op(op)) => inputs.push(Input::Intermediate(op)),
            }
            inputs.push(delivered);
            let c = b.combine(recv_node, eq, inputs);
            next.push((recv_node, Some(Interm::Op(c))));
        }
        entries = next;
    }
    let (node, value) = entries.pop().unwrap();
    (value.expect("root merged at least one input"), node, depth)
}

/// Algorithm 3, "Inner-multi": the multi-failure inner phase for one rack.
///
/// Each non-aggregator helper node sends its raw block to the rack
/// aggregator **once**; the aggregator then folds one intermediate per
/// sub-equation (the same delivered block feeds every equation with its
/// equation-specific coefficient). This is what bounds the inner phase at
/// `k·t_i` in §4.3.1.
///
/// `equations[e]` holds the `(block, coeff)` terms of sub-equation `e`
/// restricted to this rack (empty slots are skipped). `root`, when given,
/// is the recovery node, which acts as the aggregator.
///
/// Returns one [`RackInterm`]-shaped tuple `(eq, Interm, node)` per
/// non-empty equation.
pub fn inner_star(
    b: &mut PlanBuilder,
    ctx: &RepairContext<'_>,
    rack_blocks: &[BlockId],
    equations: &[Vec<(BlockId, u8)>],
    root: Option<NodeId>,
) -> Vec<(usize, Interm, NodeId)> {
    assert!(!rack_blocks.is_empty(), "inner_star: empty rack");
    let agg = root.unwrap_or_else(|| ctx.placement.node_of(rack_blocks[0]));

    // Deliver every needed non-local block to the aggregator once.
    let mut delivery: Vec<(BlockId, Option<OpId>)> = Vec::new();
    for &block in rack_blocks {
        let host = ctx.placement.node_of(block);
        let needed = equations
            .iter()
            .any(|eq| eq.iter().any(|&(bl, _)| bl == block));
        if !needed {
            continue;
        }
        if host == agg {
            delivery.push((block, None));
        } else {
            let s = b.send_block(block, host, agg);
            delivery.push((block, Some(s)));
        }
    }

    let mut out = Vec::new();
    for (e, terms) in equations.iter().enumerate() {
        if terms.is_empty() {
            continue;
        }
        // Single raw term at a non-aggregator node and no root: ship the
        // raw block directly in the cross phase instead of copying it.
        if terms.len() == 1 && root.is_none() {
            let (block, coeff) = terms[0];
            let host = ctx.placement.node_of(block);
            if host == agg
                && delivery
                    .iter()
                    .all(|&(bl, via)| bl != block || via.is_none())
            {
                out.push((e, Interm::Raw(block, coeff), host));
                continue;
            }
        }
        let inputs: Vec<Input> = terms
            .iter()
            .map(|&(block, coeff)| {
                let via = delivery
                    .iter()
                    .find(|&&(bl, _)| bl == block)
                    .expect("delivered above")
                    .1;
                Input::Block { block, coeff, via }
            })
            .collect();
        let c = b.combine(agg, e, inputs);
        out.push((e, Interm::Op(c), agg));
    }
    out
}

/// Algorithm 2/4, "Cross": the greedy pipeline scheduler.
///
/// Takes every rack's intermediates (tagged by sub-equation) and schedules
/// cross-rack merges so that transfers overlap: at every step the earliest
/// feasible `(sender, receiver)` merge is chosen, where a rack participates
/// in at most one cross transfer at a time (the paper's timestep
/// discipline) and the recovery rack is always a valid receiver. The
/// resulting merge tree is materialized into the plan; the real timing is
/// later produced by the simulator or executor, which honours the same
/// link constraints.
///
/// When the context enables cut-through streaming
/// ([`RepairContext::with_chunk_size`](crate::RepairContext::with_chunk_size)
/// with more than one chunk per block), the store-and-forward timestep
/// discipline is the wrong objective: a merge *tree* funnels several full
/// blocks through the sink's downlink, which lower-bounds the makespan at
/// `fan_in × t_block` no matter how finely the payloads are chunked. Each
/// equation is instead merged as an ECPipe-style *chain* — earliest-ready
/// intermediate at the head, the sink as the only final receiver — so
/// every rack's downlink carries exactly one stream and chunk `j` of each
/// hop overlaps chunk `j + 1` of the hop upstream. The chain's extra
/// depth costs only one chunk latency per hop, collapsing the critical
/// path from `waves × t_block` to `t_block + (waves − 1) × t_chunk`
/// (paper §3.2 meets ECPipe §3).
///
/// Returns the final op per sub-equation, each located at `sink_node`.
#[allow(clippy::needless_range_loop)] // per-equation state is index-addressed
pub fn cross_pipeline(
    b: &mut PlanBuilder,
    ctx: &RepairContext<'_>,
    mut items: Vec<RackInterm>,
    sink_rack: RackId,
    sink_node: NodeId,
    t_c: f64,
) -> Vec<(usize, OpId)> {
    assert!(!items.is_empty(), "cross_pipeline: nothing to merge");
    let streaming = chunk_sizes(ctx.block_bytes, ctx.effective_chunk()).len() > 1;
    let eq_count = 1 + items.iter().map(|i| i.eq).max().unwrap();
    // Per-rack half-duplex cross-link availability.
    let mut link_free = vec![0.0f64; ctx.topo.rack_count()];
    let mut finals: Vec<Option<(usize, OpId)>> = vec![None; eq_count];

    if streaming {
        chain_equations(
            b,
            &mut items,
            &mut link_free,
            eq_count,
            sink_rack,
            sink_node,
            t_c,
        );
    }

    while !streaming && !items.is_empty() {
        // An equation is finished when its only item sits at the sink.
        // Collect per-equation live item indices.
        let mut live: Vec<Vec<usize>> = vec![Vec::new(); eq_count];
        for (i, it) in items.iter().enumerate() {
            live[it.eq].push(i);
        }
        let mut pending = false;
        for e in 0..eq_count {
            match live[e].as_slice() {
                [] => {}
                [only] if items[*only].rack == sink_rack => {}
                _ => pending = true,
            }
        }
        if !pending {
            break;
        }

        // Choose the feasible merge with the earliest completion:
        // sender = any live item not alone-at-sink; receiver = an item of
        // the same equation in another rack, or the sink rack itself.
        let mut best: Option<(f64, usize, Option<usize>)> = None; // (done, sender, receiver item)
        for e in 0..eq_count {
            let l = &live[e];
            if l.len() == 1 && items[l[0]].rack == sink_rack {
                continue;
            }
            for &s in l {
                let it = &items[s];
                // The sink's accumulator never leaves the recovery rack.
                if it.rack == sink_rack {
                    continue;
                }
                // Receiver candidates: other items of the same equation.
                for &r in l {
                    if r == s || items[r].rack == items[s].rack {
                        continue;
                    }
                    let start = it
                        .ready
                        .max(items[r].ready)
                        .max(link_free[it.rack.0])
                        .max(link_free[items[r].rack.0]);
                    let done = start + t_c;
                    if best.is_none_or(|(bd, ..)| done < bd - 1e-12) {
                        best = Some((done, s, Some(r)));
                    }
                }
                // The sink rack as a bare receiver (no item of this eq
                // there yet).
                if it.rack != sink_rack {
                    let has_sink_item = l.iter().any(|&i| items[i].rack == sink_rack);
                    if !has_sink_item {
                        let start = it
                            .ready
                            .max(link_free[it.rack.0])
                            .max(link_free[sink_rack.0]);
                        let done = start + t_c;
                        if best.is_none_or(|(bd, ..)| done < bd - 1e-12) {
                            best = Some((done, s, None));
                        }
                    }
                }
            }
        }
        let (done, s_idx, r_idx) = best.expect("pending equations always admit a merge");
        merge_items(
            b,
            &mut items,
            &mut link_free,
            done,
            s_idx,
            r_idx,
            sink_rack,
            sink_node,
        );
    }

    // Read off the finals; every equation must have its item at the sink.
    for it in &items {
        assert_eq!(it.rack, sink_rack, "cross_pipeline: unfinished equation");
        let op = match it.value {
            Interm::Op(op) => op,
            Interm::Raw(block, coeff) => {
                // Degenerate: a single local contribution that never needed
                // a cross transfer. Give it a combine so the output is an
                // op at the sink node.
                b.combine(
                    sink_node,
                    it.eq,
                    vec![Input::Block {
                        block,
                        coeff,
                        via: None,
                    }],
                )
            }
        };
        finals[it.eq] = Some((it.eq, op));
    }
    finals.into_iter().flatten().collect()
}

/// The cut-through chain policy of [`cross_pipeline`]: merge each
/// equation's intermediates as an ECPipe-style chain into the sink.
///
/// The discipline that makes streaming pay off is *receiver-at-most-once*:
/// each hop sends the running accumulator into the earliest-ready item
/// that has not yet participated, so every rack's cross downlink carries
/// exactly one full-block stream. (Any tree shape — including the
/// store-and-forward greedy's — makes some rack receive twice, and the two
/// streams contend on that downlink for `2 × t_block` no matter the chunk
/// size.) Later-ready items join closer to the sink, paying fewer
/// downstream chunk latencies.
#[allow(clippy::too_many_arguments)]
fn chain_equations(
    b: &mut PlanBuilder,
    items: &mut Vec<RackInterm>,
    link_free: &mut [f64],
    eq_count: usize,
    sink_rack: RackId,
    sink_node: NodeId,
    t_c: f64,
) {
    for e in 0..eq_count {
        // The chain order is fixed up front by readiness (ties broken by
        // rack id for determinism).
        let mut remote: Vec<usize> = (0..items.len())
            .filter(|&i| items[i].eq == e && items[i].rack != sink_rack)
            .collect();
        if remote.is_empty() {
            continue;
        }
        remote.sort_by(|&a, &b| {
            items[a]
                .ready
                .total_cmp(&items[b].ready)
                .then(items[a].rack.0.cmp(&items[b].rack.0))
        });

        // Fold the chain: accumulator starts at the earliest-ready item
        // and rolls through the rest. `merge_items` removes the sender's
        // slot, so every stored index above it shifts down by one after
        // each hop.
        let mut acc = remote[0];
        for w in 1..remote.len() {
            let next = remote[w];
            let start = items[acc]
                .ready
                .max(items[next].ready)
                .max(link_free[items[acc].rack.0])
                .max(link_free[items[next].rack.0]);
            merge_items(
                b,
                items,
                link_free,
                start + t_c,
                acc,
                Some(next),
                sink_rack,
                sink_node,
            );
            for idx in remote[w + 1..].iter_mut() {
                if *idx > acc {
                    *idx -= 1;
                }
            }
            // The accumulator now lives in the receiver's slot.
            acc = if next > acc { next - 1 } else { next };
        }

        // Final hop into the sink: fold into the sink rack's own item if
        // this equation has one, the bare sink node otherwise.
        let sink_item =
            (0..items.len()).find(|&i| items[i].eq == e && items[i].rack == sink_rack && i != acc);
        let start = match sink_item {
            Some(r) => items[acc]
                .ready
                .max(items[r].ready)
                .max(link_free[items[acc].rack.0])
                .max(link_free[items[r].rack.0]),
            None => items[acc]
                .ready
                .max(link_free[items[acc].rack.0])
                .max(link_free[sink_rack.0]),
        };
        merge_items(
            b,
            items,
            link_free,
            start + t_c,
            acc,
            sink_item,
            sink_rack,
            sink_node,
        );
    }
}

/// Materialize one cross-rack merge chosen by [`cross_pipeline`]: ship
/// `items[s_idx]`'s value, fold it at the receiver (`items[r_idx]`, or the
/// bare sink when `None`), and update the item pool and per-rack link
/// availability.
#[allow(clippy::too_many_arguments)]
fn merge_items(
    b: &mut PlanBuilder,
    items: &mut Vec<RackInterm>,
    link_free: &mut [f64],
    done: f64,
    s_idx: usize,
    r_idx: Option<usize>,
    sink_rack: RackId,
    sink_node: NodeId,
) {
    let sender = items[s_idx].clone();

    // Materialize: ship the sender's value, fold at the receiver.
    let (recv_node, recv_rack, recv_prev): (NodeId, RackId, Option<Interm>) = match r_idx {
        Some(r) => (items[r].node, items[r].rack, Some(items[r].value)),
        None => (sink_node, sink_rack, None),
    };
    let delivered = match sender.value {
        Interm::Raw(block, coeff) => {
            let s = b.send_block(block, sender.node, recv_node);
            Input::Block {
                block,
                coeff,
                via: Some(s),
            }
        }
        Interm::Op(op) => {
            let s = b.send_interm(op, sender.node, recv_node);
            Input::Intermediate(s)
        }
    };
    let mut inputs = Vec::with_capacity(2);
    match recv_prev {
        None => {}
        Some(Interm::Raw(block, coeff)) => inputs.push(Input::Block {
            block,
            coeff,
            via: None,
        }),
        Some(Interm::Op(op)) => inputs.push(Input::Intermediate(op)),
    }
    inputs.push(delivered);
    let merged = b.combine(recv_node, sender.eq, inputs);

    link_free[sender.rack.0] = done;
    link_free[recv_rack.0] = done;

    // Update the pool.
    let eq = sender.eq;
    match r_idx {
        Some(r) => {
            items[r].value = Interm::Op(merged);
            items[r].ready = done;
            items.remove(s_idx);
        }
        None => {
            items[s_idx] = RackInterm {
                eq,
                rack: sink_rack,
                node: sink_node,
                value: Interm::Op(merged),
                ready: done,
            };
        }
    }
}

/// Split one repair equation into per-rack term lists, ordered as
/// `survivors_by_rack`.
pub fn equation_by_rack(
    ctx: &RepairContext<'_>,
    eq: &RepairEquation,
) -> Vec<(RackId, Vec<(BlockId, u8)>)> {
    ctx.survivors_by_rack()
        .into_iter()
        .filter_map(|(rack, blocks)| {
            let terms: Vec<(BlockId, u8)> = blocks
                .iter()
                .filter_map(|&b| eq.coefficient(b).map(|c| (b, c)))
                .collect();
            if terms.is_empty() {
                None
            } else {
                Some((rack, terms))
            }
        })
        .collect()
}
