//! The repair scenario handed to every planner: codec, cluster, placement,
//! failures, and derived conveniences (recovery rack/node, survivors per
//! rack).

use crate::cost::CostModel;
use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_topology::{BandwidthProfile, NodeId, Placement, RackId, Topology};

/// Everything a planner needs to know about one failure event.
#[derive(Clone, Debug)]
pub struct RepairContext<'a> {
    /// The stripe's codec.
    pub codec: &'a StripeCodec,
    /// The cluster.
    pub topo: &'a Topology,
    /// Where each block of the stripe lives.
    pub placement: &'a Placement,
    /// The failed blocks (1..=k of them).
    pub failed: Vec<BlockId>,
    /// Bytes per block.
    pub block_bytes: u64,
    /// Link rates — the schedulers' `t_i` / `t_c` derive from this.
    pub profile: &'a BandwidthProfile,
    /// Decode-cost model for plan lowering and selection search.
    pub cost: CostModel,
    /// Optional recovery-rack override. `None` uses the first failed
    /// block's rack (the paper's default); rack-failure recovery must
    /// rebuild elsewhere and sets this.
    pub recovery_override: Option<RackId>,
    /// Optional recovery-*node* override: reconstruct directly at this
    /// node (degraded reads deliver to the requesting client instead of a
    /// replacement node). Implies its rack as the recovery rack.
    pub recovery_node_override: Option<NodeId>,
    /// Optional total aggregation-switch capacity (bytes/sec) shared by
    /// all concurrent cross-rack traffic (`None` = unconstrained
    /// backplane, the paper's implicit assumption).
    pub agg_capacity: Option<f64>,
    /// Optional cut-through streaming chunk size in bytes. `None` keeps
    /// the classic store-and-forward behavior (each hop waits for the full
    /// block); `Some(c)` streams every payload hop-to-hop in `c`-byte
    /// sub-block chunks, ECPipe-style, and also sets the executor's
    /// rate-limiter granularity so shaping and streaming agree.
    pub chunk_bytes: Option<u64>,
    /// Nodes helper selection must avoid (quarantined by the repair
    /// supervisor's health tracker). Their blocks are filtered out of
    /// [`RepairContext::survivors`] / [`RepairContext::survivors_by_rack`],
    /// so planners never pick them as helpers; the blocks themselves are
    /// *not* failed — the data is intact, the node is just distrusted.
    pub avoid: Vec<NodeId>,
}

impl<'a> RepairContext<'a> {
    /// Build and sanity-check a context.
    ///
    /// # Panics
    /// Panics if there are no failures, more than `k` failures, duplicate
    /// failures, out-of-range ids, if the profile does not cover the
    /// topology, or if the recovery rack has no spare node to host the
    /// reconstruction.
    pub fn new(
        codec: &'a StripeCodec,
        topo: &'a Topology,
        placement: &'a Placement,
        failed: Vec<BlockId>,
        block_bytes: u64,
        profile: &'a BandwidthProfile,
        cost: CostModel,
    ) -> RepairContext<'a> {
        let params = codec.params();
        assert!(!failed.is_empty(), "RepairContext: nothing failed");
        assert!(
            failed.len() <= params.k,
            "RepairContext: more than k failures are unrecoverable"
        );
        let mut sorted: Vec<usize> = failed.iter().map(|b| b.0).collect();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "RepairContext: duplicate failure"
        );
        assert!(
            sorted.iter().all(|&b| b < params.total()),
            "RepairContext: failed id out of range"
        );
        assert!(block_bytes > 0, "RepairContext: zero block size");
        assert!(
            profile.covers(topo),
            "RepairContext: profile must cover the topology"
        );
        let ctx = RepairContext {
            codec,
            topo,
            placement,
            failed,
            block_bytes,
            profile,
            cost,
            recovery_override: None,
            recovery_node_override: None,
            agg_capacity: None,
            chunk_bytes: None,
            avoid: Vec::new(),
        };
        assert!(
            ctx.placement
                .replacement_in(ctx.recovery_rack(), topo)
                .is_some(),
            "RepairContext: recovery rack has no spare node"
        );
        ctx
    }

    /// Override the recovery rack (used when the failed rack itself is
    /// down and reconstruction must land elsewhere).
    ///
    /// # Panics
    /// Panics if the rack is out of range, still hosts a failed block, or
    /// has no spare node.
    pub fn with_recovery_rack(mut self, rack: RackId) -> Self {
        assert!(rack.0 < self.topo.rack_count(), "recovery rack range");
        assert!(
            self.failed
                .iter()
                .all(|b| self.placement.rack_of(*b, self.topo) != rack),
            "recovery rack must not be a failed rack"
        );
        assert!(
            self.placement.replacement_in(rack, self.topo).is_some(),
            "recovery rack has no spare node"
        );
        self.recovery_override = Some(rack);
        self
    }

    /// Deliver the reconstruction to a specific node — the *degraded read*
    /// configuration: a client somewhere in the cluster asks for a block
    /// that is currently lost, and the repair pipeline streams the decoded
    /// block straight to it.
    ///
    /// # Panics
    /// Panics if the node is out of range or hosts one of the failed
    /// blocks (i.e. it is the dead node itself).
    pub fn with_recovery_node(mut self, node: NodeId) -> Self {
        assert!(node.0 < self.topo.node_count(), "recovery node range");
        assert!(
            self.failed
                .iter()
                .all(|b| self.placement.node_of(*b) != node),
            "recovery node must not be a failed block's host"
        );
        self.recovery_node_override = Some(node);
        self.recovery_override = Some(self.topo.rack_of(node));
        self
    }

    /// Constrain the aggregation switch: all concurrent cross-rack flows
    /// share at most `bytes_per_sec` in total (an oversubscribed
    /// datacenter fabric).
    ///
    /// # Panics
    /// Panics if the capacity is not positive and finite.
    pub fn with_agg_capacity(mut self, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "agg capacity must be positive and finite"
        );
        self.agg_capacity = Some(bytes_per_sec);
        self
    }

    /// Stream payloads hop-to-hop in `bytes`-sized chunks instead of
    /// store-and-forwarding whole blocks (§3.2 pipelining done at the
    /// slice level, as in ECPipe). Chunk sizes at or above the block size
    /// degenerate to a single chunk, i.e. classic behavior with the same
    /// timing.
    ///
    /// # Panics
    /// Panics if `bytes` is zero.
    pub fn with_chunk_size(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "chunk size must be positive");
        self.chunk_bytes = Some(bytes);
        self
    }

    /// The effective streaming chunk size: the configured chunk clamped
    /// to the block size, or `None` when streaming is off.
    pub fn effective_chunk(&self) -> Option<u64> {
        self.chunk_bytes.map(|c| c.min(self.block_bytes))
    }

    /// The code geometry.
    pub fn params(&self) -> CodeParams {
        self.codec.params()
    }

    /// The recovery rack: the rack of the first failed block (the paper's
    /// single "recovery node/rack", §3.4), unless overridden via
    /// [`RepairContext::with_recovery_rack`].
    pub fn recovery_rack(&self) -> RackId {
        self.recovery_override
            .unwrap_or_else(|| self.placement.rack_of(self.failed[0], self.topo))
    }

    /// The node hosting the reconstruction: the overridden target (degraded
    /// read) or a spare node in the recovery rack.
    pub fn recovery_node(&self) -> NodeId {
        if let Some(node) = self.recovery_node_override {
            return node;
        }
        self.placement
            .replacement_in(self.recovery_rack(), self.topo)
            .expect("checked at construction")
    }

    /// Quarantine `nodes`: their blocks disappear from helper selection
    /// ([`RepairContext::survivors`] / [`RepairContext::survivors_by_rack`])
    /// without being marked failed. Used by the repair supervisor to stop
    /// replans from re-picking known-bad helpers. Avoiding too many nodes
    /// can make planning infeasible — callers should fall back to an
    /// unfiltered context if plan construction fails.
    pub fn with_avoided(mut self, nodes: Vec<NodeId>) -> Self {
        self.avoid = nodes;
        self
    }

    /// True when the block is hosted on a quarantined node.
    fn avoided(&self, b: BlockId) -> bool {
        !self.avoid.is_empty() && self.avoid.contains(&self.placement.node_of(b))
    }

    /// All surviving blocks, in id order, excluding blocks hosted on
    /// avoided (quarantined) nodes.
    pub fn survivors(&self) -> Vec<BlockId> {
        self.params()
            .all_blocks()
            .filter(|b| !self.failed.contains(b) && !self.avoided(*b))
            .collect()
    }

    /// Surviving blocks grouped by rack: `(rack, blocks)` for every rack
    /// that holds at least one survivor, in rack order. Blocks on avoided
    /// (quarantined) nodes are excluded, same as [`RepairContext::survivors`].
    pub fn survivors_by_rack(&self) -> Vec<(RackId, Vec<BlockId>)> {
        let mut out: Vec<(RackId, Vec<BlockId>)> = Vec::new();
        for rack in self.topo.racks() {
            let blocks: Vec<BlockId> = self
                .placement
                .blocks_in_rack(rack, self.topo)
                .into_iter()
                .filter(|b| !self.failed.contains(b) && !self.avoided(*b))
                .collect();
            if !blocks.is_empty() {
                out.push((rack, blocks));
            }
        }
        out
    }

    /// Mean inner-rack and cross-rack transfer times for one block — the
    /// `t_i` / `t_c` the greedy scheduler estimates with.
    pub fn transfer_times(&self) -> (f64, f64) {
        let b = self.block_bytes as f64;
        (b / self.profile.mean_inner(), b / self.profile.mean_cross())
    }

    /// A rack holding no blocks of this stripe (where classic repair would
    /// typically spawn the replacement node, Figure 3), if one exists.
    pub fn spare_rack(&self) -> Option<RackId> {
        let used = self.placement.racks_used(self.topo);
        self.topo.racks().find(|r| !used.contains(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_codec::CodeParams;
    use rpr_topology::cluster_for;

    fn fixture(n: usize, k: usize) -> (StripeCodec, Topology, BandwidthProfile) {
        let params = CodeParams::new(n, k);
        let topo = cluster_for(params, 1, 1);
        let profile = BandwidthProfile::uniform(topo.rack_count(), 100.0, 10.0);
        (StripeCodec::new(params), topo, profile)
    }

    #[test]
    fn recovery_site_is_failed_rack() {
        let (codec, topo, profile) = fixture(6, 2);
        let placement = Placement::compact(codec.params(), &topo);
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(3)],
            1024,
            &profile,
            CostModel::free(),
        );
        // d3 lives in rack 1 under compact placement.
        assert_eq!(ctx.recovery_rack(), RackId(1));
        let rec = ctx.recovery_node();
        assert_eq!(topo.rack_of(rec), RackId(1));
        assert_eq!(placement.block_on(rec), None, "recovery node must be spare");
    }

    #[test]
    fn survivors_partition() {
        let (codec, topo, profile) = fixture(4, 2);
        let placement = Placement::compact(codec.params(), &topo);
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1), BlockId(4)],
            64,
            &profile,
            CostModel::free(),
        );
        let s = ctx.survivors();
        assert_eq!(s, vec![BlockId(0), BlockId(2), BlockId(3), BlockId(5)]);
        let by_rack = ctx.survivors_by_rack();
        assert_eq!(by_rack.len(), 3);
        assert_eq!(by_rack[0].1, vec![BlockId(0)]);
        assert_eq!(by_rack[1].1, vec![BlockId(2), BlockId(3)]);
        assert_eq!(by_rack[2].1, vec![BlockId(5)]);
        let total: usize = by_rack.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, codec.params().total() - 2);
    }

    #[test]
    fn transfer_times_follow_profile() {
        let (codec, topo, _) = fixture(4, 2);
        let placement = Placement::compact(codec.params(), &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), 100.0, 10.0);
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(0)],
            1000,
            &profile,
            CostModel::free(),
        );
        let (ti, tc) = ctx.transfer_times();
        assert!((ti - 10.0).abs() < 1e-9);
        assert!((tc - 100.0).abs() < 1e-9);
    }

    #[test]
    fn spare_rack_is_found_when_present() {
        let (codec, topo, profile) = fixture(4, 2);
        let placement = Placement::compact(codec.params(), &topo);
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(0)],
            64,
            &profile,
            CostModel::free(),
        );
        // cluster_for(.., extra_racks = 1): the last rack holds no blocks.
        assert_eq!(ctx.spare_rack(), Some(RackId(topo.rack_count() - 1)));
    }

    #[test]
    fn avoided_nodes_drop_out_of_helper_selection() {
        let (codec, topo, profile) = fixture(4, 2);
        let placement = Placement::compact(codec.params(), &topo);
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            64,
            &profile,
            CostModel::free(),
        );
        let full = ctx.survivors();
        let quarantined = placement.node_of(BlockId(3));
        let ctx = ctx.with_avoided(vec![quarantined]);
        let filtered = ctx.survivors();
        assert!(full.contains(&BlockId(3)));
        assert!(!filtered.contains(&BlockId(3)));
        assert_eq!(filtered.len(), full.len() - 1);
        let by_rack: Vec<BlockId> = ctx
            .survivors_by_rack()
            .into_iter()
            .flat_map(|(_, b)| b)
            .collect();
        assert!(!by_rack.contains(&BlockId(3)));
    }

    #[test]
    #[should_panic(expected = "more than k failures")]
    fn too_many_failures_rejected() {
        let (codec, topo, profile) = fixture(4, 2);
        let placement = Placement::compact(codec.params(), &topo);
        RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(0), BlockId(1), BlockId(2)],
            64,
            &profile,
            CostModel::free(),
        );
    }

    #[test]
    #[should_panic(expected = "duplicate failure")]
    fn duplicate_failures_rejected() {
        let (codec, topo, profile) = fixture(4, 2);
        let placement = Placement::compact(codec.params(), &topo);
        RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(0), BlockId(0)],
            64,
            &profile,
            CostModel::free(),
        );
    }
}
