//! The backend-independent repair plan: a DAG of block/intermediate
//! transfers and partial-decoding combines, plus a symbolic validator that
//! proves the plan reconstructs exactly the failed blocks.

use crate::trace::combine_kernel;
use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_gf as gf;
use rpr_obs::Kernel;
use rpr_topology::{NodeId, Placement, Topology};

/// Identifies an operation within one [`RepairPlan`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

impl core::fmt::Debug for OpId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// What a [`Op::Send`] carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Payload {
    /// A raw (unscaled) stripe block, read from its host node.
    Block(BlockId),
    /// The intermediate block produced by a previous operation.
    Intermediate(OpId),
}

/// One input of a [`Op::Combine`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Input {
    /// A raw stripe block, scaled by `coeff` as it is folded in. `via` is
    /// `None` when the block is hosted on the combining node itself, or the
    /// `Send` that delivered it.
    Block {
        /// The stripe block.
        block: BlockId,
        /// Its decoding coefficient (nonzero).
        coeff: u8,
        /// The `Send` op that delivered the block, if remote.
        via: Option<OpId>,
    },
    /// A pre-scaled intermediate available at the combining node: either a
    /// `Combine` executed there or a `Send` that delivered one. Merged by
    /// pure XOR.
    Intermediate(OpId),
}

/// One operation of a repair plan.
#[derive(Clone, Debug)]
pub enum Op {
    /// Move a payload (one block worth of bytes) between two nodes.
    Send {
        /// What is being moved.
        what: Payload,
        /// Source node; for `Payload::Block` this must be the block's host.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
    /// Partial decoding at `node` (paper §2.1.2): fold coefficient-scaled
    /// raw blocks and XOR-merge intermediates into a new intermediate.
    Combine {
        /// The node doing the work.
        node: NodeId,
        /// Which repair sub-equation (paper eq. 9 row) this serves;
        /// single-failure plans use 0.
        eq: usize,
        /// The inputs folded together.
        inputs: Vec<Input>,
    },
}

impl Op {
    /// The node whose output buffer holds this op's result.
    pub fn output_location(&self) -> NodeId {
        match *self {
            Op::Send { to, .. } => to,
            Op::Combine { node, .. } => node,
        }
    }

    /// Ids of the operations this op must wait for.
    pub fn dependencies(&self) -> Vec<OpId> {
        match self {
            Op::Send { what, .. } => match what {
                Payload::Block(_) => Vec::new(),
                Payload::Intermediate(op) => vec![*op],
            },
            Op::Combine { inputs, .. } => inputs
                .iter()
                .filter_map(|inp| match inp {
                    Input::Block { via, .. } => *via,
                    Input::Intermediate(op) => Some(*op),
                })
                .collect(),
        }
    }
}

/// A complete, validated-on-demand repair plan.
#[derive(Clone, Debug)]
pub struct RepairPlan {
    /// Code geometry the plan serves.
    pub params: CodeParams,
    /// Bytes per block (every transfer moves exactly one block's worth).
    pub block_bytes: u64,
    /// The operation DAG (an op's dependencies always have smaller ids).
    pub ops: Vec<Op>,
    /// For every failed block: the op whose output is its reconstruction.
    pub outputs: Vec<(BlockId, OpId)>,
    /// True if the scheme always builds the full decoding matrix
    /// (traditional and CAR do; RPR builds it only when some coefficient
    /// is ≠ 1, thanks to pre-placement).
    pub force_matrix: bool,
    /// Human-readable scheme name (`"traditional"`, `"car"`, `"rpr"`).
    pub scheme: &'static str,
    /// The node every reconstruction must end up on (the replacement node
    /// or, for degraded reads, the requesting client). The validator
    /// enforces that each output op's result is located here.
    pub recovery: NodeId,
    /// Extra *ordering* edges `(before, after)`: the `after` op may not
    /// start until `before` finished, without any data flowing between
    /// them. Used by slice-pipelined plans to enforce per-link FIFO order
    /// (fluid fair-sharing would otherwise let all slices finish together,
    /// destroying the pipeline). Empty for the paper's schemes.
    pub ordering: Vec<(OpId, OpId)>,
}

/// Aggregate statistics of a plan (what Figures 7 and 10 plot).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanStats {
    /// Number of cross-rack block transfers.
    pub cross_transfers: usize,
    /// Number of inner-rack block transfers.
    pub inner_transfers: usize,
    /// Cross-rack traffic in bytes.
    pub cross_bytes: u64,
    /// Number of combine (partial-decoding) operations.
    pub combines: usize,
    /// True if executing the plan requires building a decoding matrix
    /// (i.e. it is not a pure-XOR repair).
    pub needs_matrix: bool,
}

impl RepairPlan {
    /// All scheduling dependencies of op `i`: its data dependencies plus
    /// any ordering edges targeting it.
    pub fn deps_of(&self, i: usize) -> Vec<OpId> {
        let mut deps = self.ops[i].dependencies();
        for &(before, after) in &self.ordering {
            if after.0 == i && !deps.contains(&before) {
                deps.push(before);
            }
        }
        deps
    }

    /// The scheduling dependencies of op `i` that carry no data: the
    /// ordering edges targeting it, minus its data dependencies. Both
    /// backends let such an op start only once these finished whole
    /// ([`JobGraph`](crate::JobGraph) records them per op).
    pub(crate) fn ordering_deps(&self, i: usize) -> Vec<OpId> {
        let mut deps = self.deps_of(i);
        deps.drain(..self.ops[i].dependencies().len());
        deps
    }

    /// Compute traffic statistics against a topology.
    pub fn stats(&self, topo: &Topology) -> PlanStats {
        let mut cross = 0usize;
        let mut inner = 0usize;
        let mut combines = 0usize;
        let mut any_gf = false;
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                Op::Send { from, to, .. } => {
                    if topo.same_rack(*from, *to) {
                        inner += 1;
                    } else {
                        cross += 1;
                    }
                }
                Op::Combine { .. } => {
                    combines += 1;
                    any_gf |= combine_kernel(self, i) == Some(Kernel::Gf);
                }
            }
        }
        PlanStats {
            cross_transfers: cross,
            inner_transfers: inner,
            cross_bytes: cross as u64 * self.block_bytes,
            combines,
            needs_matrix: self.force_matrix || any_gf,
        }
    }

    /// `(cross-rack, inner-rack)` bytes moved by the sends flagged in
    /// `moved` (one flag per op; combines move nothing). Full payloads
    /// only — aborted attempts and retransmissions are not traffic.
    pub fn traffic(&self, topo: &Topology, moved: &[bool]) -> (u64, u64) {
        let (mut cross, mut inner) = (0u64, 0u64);
        for (op, _) in self.ops.iter().zip(moved).filter(|(_, m)| **m) {
            if let Op::Send { from, to, .. } = op {
                if topo.same_rack(*from, *to) {
                    inner += self.block_bytes;
                } else {
                    cross += self.block_bytes;
                }
            }
        }
        (cross, inner)
    }

    /// Distinct cross-rack sender nodes, sorted — the anchor for
    /// `CrashSite::NewHelper` ("crash the replacement") resolution in the
    /// next supervision generation.
    pub fn cross_senders(&self, topo: &Topology) -> Vec<usize> {
        let mut nodes: Vec<usize> = self
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Send { from, to, .. } if !topo.same_rack(*from, *to) => Some(from.0),
                _ => None,
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The failed blocks this plan reconstructs.
    pub fn targets(&self) -> Vec<BlockId> {
        self.outputs.iter().map(|&(b, _)| b).collect()
    }

    /// Assign every cross-rack [`Op::Send`] to its pipeline *timestep*
    /// (the paper's §3.2 "waves"): list-schedule the cross sends in op
    /// order under the same discipline the planner's greedy scheduler
    /// uses — a send must come after every cross send upstream of it in
    /// the DAG, and a rack participates in at most one cross transfer per
    /// timestep. Returns one `Option<usize>` per op (`None` for combines
    /// and inner-rack sends) plus the total timestep count —
    /// `⌈log2(s+1)⌉` for an optimally pipelined single-failure RPR plan
    /// merging `s` source racks into the recovery rack.
    pub fn cross_waves(&self, topo: &Topology) -> (Vec<Option<usize>>, usize) {
        // depth[i] = first timestep usable by ops that consume op i's
        // output. Dependencies always have smaller ids, so one forward
        // pass suffices; ids follow the scheduler's materialization
        // order, so first-fit per rack reproduces its schedule.
        let mut depth = vec![0usize; self.ops.len()];
        let mut wave = vec![None; self.ops.len()];
        let mut rack_free = vec![0usize; topo.rack_count()];
        let mut count = 0usize;
        for i in 0..self.ops.len() {
            let ready = self
                .deps_of(i)
                .iter()
                .map(|d| depth[d.0])
                .max()
                .unwrap_or(0);
            depth[i] = ready;
            if let Op::Send { from, to, .. } = &self.ops[i] {
                if !topo.same_rack(*from, *to) {
                    let (a, b) = (topo.rack_of(*from).0, topo.rack_of(*to).0);
                    let w = ready.max(rack_free[a]).max(rack_free[b]);
                    wave[i] = Some(w);
                    rack_free[a] = w + 1;
                    rack_free[b] = w + 1;
                    depth[i] = w + 1;
                    count = count.max(w + 1);
                }
            }
        }
        (wave, count)
    }

    /// The symbolic coefficient vector of every op's value over the
    /// stripe's blocks — the same vectors [`RepairPlan::validate`] checks
    /// output ops against. Two ops (possibly from *different* plans over
    /// the same stripe) whose outputs share a location and have equal
    /// vectors hold byte-identical values for any stripe contents; the
    /// crash-recovery replanner uses this to reuse partial results.
    ///
    /// Assumes a structurally valid plan (run [`RepairPlan::validate`]
    /// first); out-of-range references panic.
    pub fn symbolic_vectors(&self) -> Vec<Vec<u8>> {
        let total = self.params.total();
        let mut vectors: Vec<Vec<u8>> = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let v = match op {
                Op::Send { what, .. } => match what {
                    Payload::Block(b) => {
                        let mut v = vec![0u8; total];
                        v[b.0] = 1;
                        v
                    }
                    Payload::Intermediate(src) => vectors[src.0].clone(),
                },
                Op::Combine { inputs, .. } => {
                    let mut v = vec![0u8; total];
                    for inp in inputs {
                        match inp {
                            Input::Block { block, coeff, .. } => v[block.0] ^= *coeff,
                            Input::Intermediate(src) => {
                                for (acc, &c) in v.iter_mut().zip(&vectors[src.0]) {
                                    *acc ^= c;
                                }
                            }
                        }
                    }
                    v
                }
            };
            vectors.push(v);
        }
        vectors
    }

    /// Validate the plan against the codec and placement. Checks, for every
    /// operation:
    ///
    /// * structural sanity (ids in range, dependencies acyclic by
    ///   construction, senders hold what they send, combine inputs are
    ///   physically present at the combining node);
    /// * no failed block is ever read;
    /// * **data consistency** (the paper's invariant from §4.2): the
    ///   symbolic coefficient vector of every output op equals the target
    ///   block's generator row — i.e. the plan provably reconstructs the
    ///   right bytes for *any* stripe contents.
    ///
    /// Returns `Err(reason)` on the first violation.
    pub fn validate(
        &self,
        codec: &StripeCodec,
        topo: &Topology,
        placement: &Placement,
    ) -> Result<(), String> {
        let total = self.params.total();
        let failed = self.targets();
        for &(before, after) in &self.ordering {
            if before.0 >= self.ops.len() || after.0 >= self.ops.len() {
                return Err("ordering edge out of range".into());
            }
            if before.0 >= after.0 {
                return Err(format!(
                    "ordering edge {before:?} -> {after:?} must point forward"
                ));
            }
        }
        // vectors[i] = coefficient vector of op i's value over stripe blocks.
        let mut vectors: Vec<Vec<u8>> = Vec::with_capacity(self.ops.len());

        for (i, op) in self.ops.iter().enumerate() {
            let vec = match op {
                Op::Send { what, from, to } => {
                    if from == to {
                        return Err(format!("op{i}: send to self"));
                    }
                    if to.0 >= topo.node_count() || from.0 >= topo.node_count() {
                        return Err(format!("op{i}: node out of range"));
                    }
                    match what {
                        Payload::Block(b) => {
                            if b.0 >= total {
                                return Err(format!("op{i}: block out of range"));
                            }
                            if failed.contains(b) {
                                return Err(format!("op{i}: reads failed block {b:?}"));
                            }
                            if placement.node_of(*b) != *from {
                                return Err(format!("op{i}: {b:?} not hosted at {from:?}"));
                            }
                            let mut v = vec![0u8; total];
                            v[b.0] = 1;
                            v
                        }
                        Payload::Intermediate(src) => {
                            if src.0 >= i {
                                return Err(format!("op{i}: forward reference {src:?}"));
                            }
                            if self.ops[src.0].output_location() != *from {
                                return Err(format!(
                                    "op{i}: intermediate {src:?} not located at {from:?}"
                                ));
                            }
                            vectors[src.0].clone()
                        }
                    }
                }
                Op::Combine { node, inputs, .. } => {
                    if node.0 >= topo.node_count() {
                        return Err(format!("op{i}: node out of range"));
                    }
                    if inputs.is_empty() {
                        return Err(format!("op{i}: empty combine"));
                    }
                    let mut v = vec![0u8; total];
                    for inp in inputs {
                        match inp {
                            Input::Block { block, coeff, via } => {
                                if block.0 >= total {
                                    return Err(format!("op{i}: block out of range"));
                                }
                                if failed.contains(block) {
                                    return Err(format!("op{i}: reads failed block {block:?}"));
                                }
                                if *coeff == 0 {
                                    return Err(format!("op{i}: zero coefficient"));
                                }
                                match via {
                                    None => {
                                        if placement.node_of(*block) != *node {
                                            return Err(format!(
                                                "op{i}: {block:?} not local to {node:?}"
                                            ));
                                        }
                                    }
                                    Some(s) => {
                                        if s.0 >= i {
                                            return Err(format!("op{i}: forward reference {s:?}"));
                                        }
                                        match &self.ops[s.0] {
                                            Op::Send {
                                                what: Payload::Block(b),
                                                to,
                                                ..
                                            } if b == block && to == node => {}
                                            _ => {
                                                return Err(format!(
                                                    "op{i}: via {s:?} does not deliver \
                                                     {block:?} to {node:?}"
                                                ))
                                            }
                                        }
                                    }
                                }
                                v[block.0] ^= *coeff;
                            }
                            Input::Intermediate(src) => {
                                if src.0 >= i {
                                    return Err(format!("op{i}: forward reference {src:?}"));
                                }
                                if self.ops[src.0].output_location() != *node {
                                    return Err(format!(
                                        "op{i}: intermediate {src:?} not at {node:?}"
                                    ));
                                }
                                if matches!(
                                    &self.ops[src.0],
                                    Op::Send {
                                        what: Payload::Block(_),
                                        ..
                                    }
                                ) {
                                    return Err(format!(
                                        "op{i}: raw-block send {src:?} used as intermediate \
                                         (needs a coefficient)"
                                    ));
                                }
                                for (acc, &c) in v.iter_mut().zip(&vectors[src.0]) {
                                    *acc ^= c;
                                }
                            }
                        }
                    }
                    v
                }
            };
            vectors.push(vec);
        }

        // Every output must symbolically equal its target's generator row
        // and be physically located at the recovery node.
        let n = self.params.n;
        for &(target, op) in &self.outputs {
            if op.0 >= self.ops.len() {
                return Err(format!("output op {op:?} out of range"));
            }
            if self.ops[op.0].output_location() != self.recovery {
                return Err(format!(
                    "output for {target:?} is at {:?}, not the recovery node {:?}",
                    self.ops[op.0].output_location(),
                    self.recovery
                ));
            }
            let v = &vectors[op.0];
            if v[target.0] != 0 {
                return Err(format!("output for {target:?} reads the target itself"));
            }
            // Expand to data space: sum_b v[b] * generator_row(b).
            let mut acc = vec![0u8; n];
            for (b, &c) in v.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let row = codec.generator().row(b);
                for (a, &g) in acc.iter_mut().zip(row) {
                    *a ^= gf::mul(c, g);
                }
            }
            if acc != codec.generator().row(target.0) {
                return Err(format!(
                    "data-consistency violation: output for {target:?} decodes a different \
                     linear combination"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_codec::{CodeParams, StripeCodec};
    use rpr_topology::{cluster_for, Placement};

    /// Hand-built valid plan: repair d1 of RS(4,2) via the XOR equation
    /// d1 = d0 + d2 + d3 + p0 with one inner-rack partial decode,
    /// mirroring the paper's Figure 4.
    fn figure4_plan() -> (StripeCodec, rpr_topology::Topology, Placement, RepairPlan) {
        let params = CodeParams::new(4, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 0);
        let placement = Placement::compact(params, &topo);
        // Layout: r0 = {d0 n0, d1 n1}, r1 = {d2 n3, d3 n4}, r2 = {p0 n6, p1 n7}.
        // Recovery node: spare in r0 (n2).
        let rec = placement
            .replacement_in(rpr_topology::RackId(0), &topo)
            .unwrap();
        let d0 = placement.node_of(BlockId(0));
        let d2 = placement.node_of(BlockId(2));
        let d3 = placement.node_of(BlockId(3));
        let p0 = placement.node_of(BlockId(4));

        // r1: d3 -> d2's node, combine.
        let mut ops = vec![Op::Send {
            what: Payload::Block(BlockId(3)),
            from: d3,
            to: d2,
        }];
        ops.push(Op::Combine {
            node: d2,
            eq: 0,
            inputs: vec![
                Input::Block {
                    block: BlockId(2),
                    coeff: 1,
                    via: None,
                },
                Input::Block {
                    block: BlockId(3),
                    coeff: 1,
                    via: Some(OpId(0)),
                },
            ],
        });
        // r1's intermediate -> recovery.
        ops.push(Op::Send {
            what: Payload::Intermediate(OpId(1)),
            from: d2,
            to: rec,
        });
        // r2: p0 -> recovery (single helper in rack, raw block).
        ops.push(Op::Send {
            what: Payload::Block(BlockId(4)),
            from: p0,
            to: rec,
        });
        // r0: d0 -> recovery (inner).
        ops.push(Op::Send {
            what: Payload::Block(BlockId(0)),
            from: d0,
            to: rec,
        });
        // Final combine at recovery.
        ops.push(Op::Combine {
            node: rec,
            eq: 0,
            inputs: vec![
                Input::Intermediate(OpId(2)),
                Input::Block {
                    block: BlockId(4),
                    coeff: 1,
                    via: Some(OpId(3)),
                },
                Input::Block {
                    block: BlockId(0),
                    coeff: 1,
                    via: Some(OpId(4)),
                },
            ],
        });

        let plan = RepairPlan {
            params,
            block_bytes: 1024,
            ops,
            outputs: vec![(BlockId(1), OpId(5))],
            force_matrix: false,
            scheme: "test",
            recovery: rec,
            ordering: Vec::new(),
        };
        (codec, topo, placement, plan)
    }

    #[test]
    fn figure4_plan_validates() {
        let (codec, topo, placement, plan) = figure4_plan();
        plan.validate(&codec, &topo, &placement)
            .expect("valid plan");
    }

    #[test]
    fn figure4_plan_stats() {
        let (_, topo, _, plan) = figure4_plan();
        let s = plan.stats(&topo);
        // Sends: d3->d2 inner, interm-> rec cross, p0->rec cross, d0->rec inner.
        assert_eq!(s.inner_transfers, 2);
        assert_eq!(s.cross_transfers, 2);
        assert_eq!(s.cross_bytes, 2048);
        assert_eq!(s.combines, 2);
        assert!(!s.needs_matrix, "all-ones coefficients need no matrix");
        assert_eq!(plan.targets(), vec![BlockId(1)]);
    }

    #[test]
    fn figure4_plan_cross_waves() {
        let (_, topo, _, plan) = figure4_plan();
        let (waves, count) = plan.cross_waves(&topo);
        // The two cross sends (ops 2 and 3) both land on the recovery
        // rack, whose link admits one cross transfer per timestep — so
        // they occupy waves 0 and 1 (⌈log2(2+1)⌉ = 2 for two source
        // racks); inner sends and combines get no wave.
        assert_eq!(waves, vec![None, None, Some(0), Some(1), None, None]);
        assert_eq!(count, 2);
    }

    /// Minimal plan with two cross sends between disjoint rack pairs on a
    /// four-rack topology (only `ops`/`ordering`/the topology matter to
    /// `cross_waves`).
    fn disjoint_cross_plan() -> (Topology, RepairPlan) {
        let topo = Topology::uniform(4, 2);
        let ops = vec![
            Op::Send {
                what: Payload::Block(BlockId(0)),
                from: NodeId(0), // rack 0
                to: NodeId(2),   // rack 1
            },
            Op::Send {
                what: Payload::Block(BlockId(2)),
                from: NodeId(4), // rack 2
                to: NodeId(6),   // rack 3
            },
        ];
        let plan = RepairPlan {
            params: CodeParams::new(4, 2),
            block_bytes: 1024,
            ops,
            outputs: Vec::new(),
            force_matrix: false,
            scheme: "test",
            recovery: NodeId(2),
            ordering: Vec::new(),
        };
        (topo, plan)
    }

    #[test]
    fn cross_waves_overlap_on_disjoint_racks() {
        let (topo, plan) = disjoint_cross_plan();
        let (waves, count) = plan.cross_waves(&topo);
        assert_eq!(waves, vec![Some(0), Some(0)]);
        assert_eq!(count, 1);
    }

    #[test]
    fn cross_waves_follow_ordering_edges() {
        let (topo, mut plan) = disjoint_cross_plan();
        // Serialize the two (otherwise link-disjoint) cross sends with a
        // pure ordering edge: the second must now sit one wave deeper.
        plan.ordering.push((OpId(0), OpId(1)));
        let (waves, count) = plan.cross_waves(&topo);
        assert_eq!(waves, vec![Some(0), Some(1)]);
        assert_eq!(count, 2);
    }

    #[test]
    fn symbolic_vectors_match_validator_semantics() {
        let (_, _, _, plan) = figure4_plan();
        let v = plan.symbolic_vectors();
        // Output op 5 folds d0, d2, d3, p0 with coefficient 1 each and
        // never touches the failed d1.
        assert_eq!(v[5], vec![1, 0, 1, 1, 1, 0]);
        // A forwarded intermediate carries its producer's vector.
        assert_eq!(v[2], v[1]);
        // A raw-block send is a unit vector.
        assert_eq!(v[0], vec![0, 0, 0, 1, 0, 0]);
    }

    #[test]
    fn validator_rejects_wrong_coefficient() {
        let (codec, topo, placement, mut plan) = figure4_plan();
        if let Op::Combine { inputs, .. } = &mut plan.ops[5] {
            if let Input::Block { coeff, .. } = &mut inputs[1] {
                *coeff = 2;
            }
        }
        let err = plan.validate(&codec, &topo, &placement).unwrap_err();
        assert!(err.contains("data-consistency"), "{err}");
    }

    #[test]
    fn validator_rejects_reading_failed_block() {
        let (codec, topo, placement, mut plan) = figure4_plan();
        let d1 = placement.node_of(BlockId(1));
        plan.ops.push(Op::Send {
            what: Payload::Block(BlockId(1)),
            from: d1,
            to: placement.node_of(BlockId(0)),
        });
        let err = plan.validate(&codec, &topo, &placement).unwrap_err();
        assert!(err.contains("reads failed block"), "{err}");
    }

    #[test]
    fn validator_rejects_misplaced_block_send() {
        let (codec, topo, placement, mut plan) = figure4_plan();
        if let Op::Send { from, .. } = &mut plan.ops[0] {
            *from = placement.node_of(BlockId(0)); // wrong host for d3
        }
        let err = plan.validate(&codec, &topo, &placement).unwrap_err();
        assert!(err.contains("not hosted"), "{err}");
    }

    #[test]
    fn validator_rejects_nonlocal_combine_input() {
        let (codec, topo, placement, mut plan) = figure4_plan();
        if let Op::Combine { inputs, .. } = &mut plan.ops[1] {
            // Claim p1 is local to d2's node (it is not).
            inputs.push(Input::Block {
                block: BlockId(5),
                coeff: 1,
                via: None,
            });
        }
        let err = plan.validate(&codec, &topo, &placement).unwrap_err();
        assert!(err.contains("not local"), "{err}");
    }

    #[test]
    fn validator_rejects_raw_send_used_as_intermediate() {
        let (codec, topo, placement, mut plan) = figure4_plan();
        if let Op::Combine { inputs, .. } = &mut plan.ops[5] {
            inputs[1] = Input::Intermediate(OpId(3));
        }
        let err = plan.validate(&codec, &topo, &placement).unwrap_err();
        assert!(err.contains("raw-block send"), "{err}");
    }

    #[test]
    fn validator_rejects_misrouted_intermediate() {
        let (codec, topo, placement, mut plan) = figure4_plan();
        if let Op::Send { from, .. } = &mut plan.ops[2] {
            *from = placement.node_of(BlockId(4)); // intermediate lives at d2
        }
        let err = plan.validate(&codec, &topo, &placement).unwrap_err();
        assert!(err.contains("not located"), "{err}");
    }

    #[test]
    fn op_dependencies_are_extracted() {
        let (_, _, _, plan) = figure4_plan();
        assert!(plan.ops[0].dependencies().is_empty());
        assert_eq!(plan.ops[2].dependencies(), vec![OpId(1)]);
        let deps5 = plan.ops[5].dependencies();
        assert!(deps5.contains(&OpId(2)) && deps5.contains(&OpId(3)) && deps5.contains(&OpId(4)));
    }

    #[test]
    fn ordering_edges_validate_and_extend_deps() {
        let (codec, topo, placement, mut plan) = figure4_plan();
        // A legal forward ordering edge between two sends.
        plan.ordering.push((OpId(0), OpId(3)));
        plan.validate(&codec, &topo, &placement).expect("valid");
        assert!(
            plan.deps_of(3).contains(&OpId(0)),
            "ordering edge must appear in scheduling deps"
        );
        // Data deps are still present and not duplicated.
        let deps5 = plan.deps_of(5);
        assert_eq!(
            deps5.len(),
            plan.ops[5].dependencies().len(),
            "no spurious deps added"
        );
    }

    #[test]
    fn ordering_edges_must_point_forward() {
        let (codec, topo, placement, mut plan) = figure4_plan();
        plan.ordering.push((OpId(3), OpId(0)));
        let err = plan.validate(&codec, &topo, &placement).unwrap_err();
        assert!(err.contains("forward"), "{err}");
    }

    #[test]
    fn ordering_edges_must_be_in_range() {
        let (codec, topo, placement, mut plan) = figure4_plan();
        plan.ordering.push((OpId(0), OpId(99)));
        let err = plan.validate(&codec, &topo, &placement).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn needs_matrix_when_any_coefficient_is_not_one() {
        let (_, topo, _, mut plan) = figure4_plan();
        if let Op::Combine { inputs, .. } = &mut plan.ops[1] {
            if let Input::Block { coeff, .. } = &mut inputs[0] {
                *coeff = 7;
            }
        }
        assert!(plan.stats(&topo).needs_matrix);
        // force_matrix alone also triggers it.
        let (_, topo2, _, mut plan2) = figure4_plan();
        plan2.force_matrix = true;
        assert!(plan2.stats(&topo2).needs_matrix);
    }
}
