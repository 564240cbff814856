//! The [`Store`]: stripe placement over a shared cluster.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_topology::{NodeId, Placement, RackId, Topology};

/// Configuration of a multi-stripe store.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// The erasure code.
    pub params: CodeParams,
    /// Number of racks in the cluster (must be ≥ `q + 1` so repairs always
    /// have somewhere to go even under a rack failure).
    pub racks: usize,
    /// Nodes per rack.
    pub nodes_per_rack: usize,
    /// Number of stripes stored.
    pub stripes: usize,
    /// Bytes per block.
    pub block_bytes: u64,
    /// Apply the §3.3 pre-placement (P0 co-located with data) per stripe.
    pub preplace_p0: bool,
    /// RNG seed for placement.
    pub seed: u64,
}

impl StoreConfig {
    /// A reasonable evaluation default: RS(6,3) over 8 racks × 8 nodes.
    pub fn example() -> StoreConfig {
        StoreConfig {
            params: CodeParams::new(6, 3),
            racks: 8,
            nodes_per_rack: 8,
            stripes: 48,
            block_bytes: 64 << 20,
            preplace_p0: true,
            seed: 0xDA7A,
        }
    }
}

/// A populated store: a cluster plus one [`Placement`] per stripe.
///
/// ```
/// use rpr_store::{Failure, RecoveryOptions, Scheme, Store, StoreConfig};
/// use rpr_topology::{BandwidthProfile, NodeId};
/// use rpr_core::CostModel;
///
/// let store = Store::build(StoreConfig {
///     stripes: 8,
///     block_bytes: 1 << 20,
///     ..StoreConfig::example()
/// });
/// let node = store
///     .topology()
///     .nodes()
///     .max_by_key(|&n| store.blocks_on_node(n).len())
///     .unwrap();
/// let profile = BandwidthProfile::simics_default(store.topology().rack_count());
/// let out = store.recover(
///     Failure::Node(node),
///     Scheme::Rpr,
///     &profile,
///     CostModel::free(),
///     &RecoveryOptions::default(),
/// );
/// assert!(out.stripes_repaired >= 1);
/// assert!(out.makespan.is_finite());
/// ```
pub struct Store {
    config: StoreConfig,
    codec: StripeCodec,
    topo: Topology,
    placements: Vec<Placement>,
}

impl Store {
    /// Scatter stripes over the cluster.
    ///
    /// Per stripe: pick `q` distinct racks uniformly at random, then `k`
    /// (or fewer, for the tail rack) distinct free-enough nodes per rack.
    /// A node may host blocks of many stripes (that is what makes node
    /// failures expensive) but never two blocks of the same stripe.
    ///
    /// # Panics
    /// Panics if the cluster is too small for the code
    /// (`racks < q + 1` or `nodes_per_rack < k + 1`).
    pub fn build(config: StoreConfig) -> Store {
        let params = config.params;
        let q = params.rack_count();
        assert!(
            config.racks > q,
            "Store: need at least q+1 racks for rack-failure recovery"
        );
        assert!(
            config.nodes_per_rack > params.k,
            "Store: racks must fit k blocks plus a spare node"
        );
        let topo = Topology::uniform(config.racks, config.nodes_per_rack);
        let codec = StripeCodec::new(params);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

        let mut placements = Vec::with_capacity(config.stripes);
        for _ in 0..config.stripes {
            let mut racks: Vec<usize> = (0..config.racks).collect();
            racks.shuffle(&mut rng);
            let racks = &racks[..q];

            // Block order: k blocks to rack 0, k to rack 1, ... (compact);
            // then optionally swap P0 with the last data block.
            let mut order: Vec<usize> = (0..params.total()).collect();
            if config.preplace_p0 {
                let p0 = params.n;
                order.swap(p0, params.n - 1);
            }
            let mut location = vec![NodeId(0); params.total()];
            // Track nodes already claimed by this stripe explicitly:
            // `location` is indexed by *block*, and once the P0 swap
            // reorders `order`, slots are not filled in block order, so a
            // prefix scan of `location` would miss assignments.
            let mut used: Vec<NodeId> = Vec::with_capacity(params.total());
            for (slot, &block) in order.iter().enumerate() {
                let rack = RackId(racks[slot / params.k]);
                let mut nodes: Vec<NodeId> = topo.nodes_in(rack).to_vec();
                nodes.shuffle(&mut rng);
                let node = nodes
                    .into_iter()
                    .find(|n| !used.contains(n))
                    .expect("nodes_per_rack > k guarantees a free node");
                used.push(node);
                location[block] = node;
            }
            placements.push(Placement::from_locations(params, &topo, location));
        }
        Store {
            config,
            codec,
            topo,
            placements,
        }
    }

    /// The configuration this store was built from.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The shared codec.
    pub fn codec(&self) -> &StripeCodec {
        &self.codec
    }

    /// The cluster.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.placements.len()
    }

    /// Placement of one stripe.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    pub fn placement(&self, stripe: usize) -> &Placement {
        &self.placements[stripe]
    }

    /// Blocks of every stripe hosted on a node: `(stripe, block)` pairs.
    pub fn blocks_on_node(&self, node: NodeId) -> Vec<(usize, BlockId)> {
        self.placements
            .iter()
            .enumerate()
            .filter_map(|(s, p)| p.block_on(node).map(|b| (s, b)))
            .collect()
    }

    /// Blocks of every stripe hosted in a rack.
    pub fn blocks_in_rack(&self, rack: RackId) -> Vec<(usize, BlockId)> {
        self.topo
            .nodes_in(rack)
            .iter()
            .flat_map(|&n| self.blocks_on_node(n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Store {
        Store::build(StoreConfig {
            stripes: 24,
            ..StoreConfig::example()
        })
    }

    #[test]
    fn every_stripe_is_single_rack_fault_tolerant() {
        let s = store();
        for i in 0..s.stripe_count() {
            assert!(
                s.placement(i).is_single_rack_fault_tolerant(s.topology()),
                "stripe {i}"
            );
        }
    }

    #[test]
    fn preplacement_is_applied_per_stripe() {
        let s = store();
        for i in 0..s.stripe_count() {
            assert!(
                s.placement(i).p0_colocated_with_data(s.topology()),
                "stripe {i}: P0 must sit with data"
            );
        }
        let plain = Store::build(StoreConfig {
            preplace_p0: false,
            stripes: 8,
            ..StoreConfig::example()
        });
        // Compact order: P0 lands in the parity rack for every stripe.
        for i in 0..plain.stripe_count() {
            assert!(!plain.placement(i).p0_colocated_with_data(plain.topology()));
        }
    }

    #[test]
    fn node_to_blocks_round_trips() {
        let s = store();
        let mut counted = 0;
        for node in s.topology().nodes() {
            for (stripe, block) in s.blocks_on_node(node) {
                assert_eq!(s.placement(stripe).node_of(block), node);
                counted += 1;
            }
        }
        assert_eq!(counted, s.stripe_count() * s.config().params.total());
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let a = store();
        let b = store();
        for i in 0..a.stripe_count() {
            for blk in a.config().params.all_blocks() {
                assert_eq!(a.placement(i).node_of(blk), b.placement(i).node_of(blk));
            }
        }
        let c = Store::build(StoreConfig {
            seed: 999,
            stripes: 24,
            ..StoreConfig::example()
        });
        let same = (0..a.stripe_count()).all(|i| {
            a.config()
                .params
                .all_blocks()
                .all(|blk| a.placement(i).node_of(blk) == c.placement(i).node_of(blk))
        });
        assert!(!same, "different seeds should shuffle placements");
    }

    #[test]
    fn storage_load_is_spread() {
        let s = Store::build(StoreConfig {
            stripes: 96,
            ..StoreConfig::example()
        });
        let blocks = s.stripe_count() * s.config().params.total();
        let mean = blocks as f64 / s.topology().node_count() as f64;
        assert!(mean > 10.0, "example config should load nodes meaningfully");
        // No node should be wildly overloaded (> 3x mean).
        for node in s.topology().nodes() {
            let got = s.blocks_on_node(node).len() as f64;
            assert!(got < mean * 3.0, "node {node:?} hosts {got} blocks");
        }
    }

    #[test]
    #[should_panic(expected = "q+1 racks")]
    fn tiny_cluster_rejected() {
        Store::build(StoreConfig {
            racks: 3,
            ..StoreConfig::example()
        });
    }
}
