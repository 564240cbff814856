//! A discrete-event, flow-level network simulator for rack-organized
//! clusters.
//!
//! This crate substitutes for the paper's evaluation substrate (Simics VMs
//! with wondershaper-shaped NICs, §5.1). It simulates:
//!
//! * **transfers** between nodes as fluid flows that share link resources
//!   under max-min fairness — each node has an uplink and a downlink at the
//!   inner-rack NIC rate, plus a *cross-traffic class* shaped to the
//!   cross-rack rate (exactly wondershaper's behaviour: traffic to peers
//!   outside the rack is throttled to 0.1 Gb/s while rack-local traffic
//!   runs at the full 1 Gb/s NIC rate);
//! * **computations** (decode work) as processor-sharing jobs on a node's
//!   CPU;
//! * an arbitrary **dependency DAG** between jobs, which is how repair
//!   plans express "this cross-rack transfer may start only after that
//!   inner-rack partial decoding finished".
//!
//! The simulator reports makespan, per-job timing, and traffic statistics
//! (cross-rack bytes, per-node upload/download) — the quantities plotted in
//! the paper's Figures 7–14.
//!
//! The engine is event-driven. Each job counts its unfinished dependencies;
//! a finished job counts itself off its dependents, and those it readies
//! start at once or wait in a heap for their release or retry time. Each
//! event re-runs the global progressive filling over the active set in id
//! order, so every report is bit-identical to the earlier engine's, which
//! rescanned every job on every event.
//!
//! [`Simulator::run_within`] runs against a time limit, keeping each
//! resource's outstanding work: the remaining bytes or CPU-seconds of the
//! unfinished jobs using it. `now + max_r work[r] / capacity[r]` floors
//! the makespan (no allocation exceeds a capacity; releases, backoffs and
//! failures only add time), and the run gives up once it passes the limit
//! by a relative 1e-6. [`Simulator::run`] is `run_within(f64::INFINITY)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod report;

pub use engine::Simulator;
pub use report::{FailSpec, FailureRecord, JobRecord, SimReport};

use rpr_topology::{BandwidthProfile, NodeId, Topology};

/// Identifies a job inside one [`Simulator`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub usize);

impl core::fmt::Debug for JobId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// What a job does.
#[derive(Clone, Debug, PartialEq)]
pub enum JobKind {
    /// Move `bytes` from one node to another.
    Transfer {
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Perform `seconds` of CPU work (at rate 1.0 with no contention) on a
    /// node.
    Compute {
        /// The node doing the work.
        node: NodeId,
        /// CPU-seconds of work.
        seconds: f64,
    },
}

/// The cluster a simulation runs on: a topology plus a bandwidth profile
/// covering its racks, and optionally a finite aggregation-switch
/// capacity.
#[derive(Clone, Debug)]
pub struct Network {
    topo: Topology,
    profile: BandwidthProfile,
    agg_capacity: f64,
}

impl Network {
    /// Bind a bandwidth profile to a topology. The aggregation switch is
    /// unconstrained (infinite backplane).
    ///
    /// # Panics
    /// Panics if the profile covers fewer racks than the topology has.
    pub fn new(topo: Topology, profile: BandwidthProfile) -> Network {
        assert!(
            profile.covers(&topo),
            "Network: bandwidth profile must cover every rack"
        );
        Network {
            topo,
            profile,
            agg_capacity: f64::INFINITY,
        }
    }

    /// Limit the aggregation switch (Figure 2): the total bytes/sec of
    /// **all** concurrent cross-rack traffic is capped at `bytes_per_sec`.
    /// An oversubscribed switch makes repair traffic *volume* (not just
    /// the per-link schedule) the bottleneck.
    ///
    /// # Panics
    /// Panics if the capacity is not positive.
    pub fn with_agg_capacity(mut self, bytes_per_sec: f64) -> Network {
        assert!(
            bytes_per_sec > 0.0,
            "Network: aggregation capacity must be positive"
        );
        self.agg_capacity = bytes_per_sec;
        self
    }

    /// The aggregation switch's total cross-rack capacity (infinite when
    /// unconstrained).
    #[inline]
    pub fn agg_capacity(&self) -> f64 {
        self.agg_capacity
    }

    /// The topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The bandwidth profile.
    #[inline]
    pub fn profile(&self) -> &BandwidthProfile {
        &self.profile
    }

    /// True if a transfer between these nodes crosses racks.
    #[inline]
    pub fn is_cross(&self, from: NodeId, to: NodeId) -> bool {
        !self.topo.same_rack(from, to)
    }

    /// Nominal rate of the `from → to` pair in bytes/sec.
    #[inline]
    pub fn pair_rate(&self, from: NodeId, to: NodeId) -> f64 {
        self.profile
            .rate(self.topo.rack_of(from), self.topo.rack_of(to))
    }

    /// The inner-rack NIC rate of a node (its rack's diagonal rate).
    #[inline]
    pub fn nic_rate(&self, node: NodeId) -> f64 {
        let r = self.topo.rack_of(node);
        self.profile.rate(r, r)
    }

    /// The shaped cross-traffic class rate of a node: the fastest
    /// cross-rack rate its rack has (for uniform profiles this is simply
    /// *the* cross-rack rate).
    pub fn cross_class_rate(&self, node: NodeId) -> f64 {
        let r = self.topo.rack_of(node);
        let q = self.topo.rack_count();
        (0..q)
            .filter(|&b| b != r.0)
            .map(|b| self.profile.rate(r, rpr_topology::RackId(b)))
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0)
            .max(if q == 1 { self.nic_rate(node) } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_topology::{RackId, GBIT};

    #[test]
    fn network_rates() {
        let topo = Topology::uniform(3, 2);
        let net = Network::new(topo, BandwidthProfile::simics_default(3));
        let a = NodeId(0);
        let b = NodeId(1); // same rack
        let c = NodeId(2); // other rack
        assert!(!net.is_cross(a, b));
        assert!(net.is_cross(a, c));
        assert_eq!(net.pair_rate(a, b), GBIT);
        assert_eq!(net.pair_rate(a, c), 0.1 * GBIT);
        assert_eq!(net.nic_rate(a), GBIT);
        assert_eq!(net.cross_class_rate(a), 0.1 * GBIT);
        assert_eq!(net.topology().rack_of(c), RackId(1));
        assert_eq!(net.profile().rack_count(), 3);
    }

    #[test]
    fn single_rack_network_cross_class_is_nic() {
        let topo = Topology::uniform(1, 4);
        let net = Network::new(topo, BandwidthProfile::simics_default(1));
        assert_eq!(net.cross_class_rate(NodeId(0)), GBIT);
    }

    #[test]
    #[should_panic(expected = "must cover every rack")]
    fn undersized_profile_rejected() {
        let topo = Topology::uniform(4, 1);
        Network::new(topo, BandwidthProfile::simics_default(2));
    }
}
