//! Cross-stripe bandwidth arbitration.
//!
//! Every repair plan the fleet admits reserves capacity on the shared
//! cluster links for its whole duration, so concurrent repairs stop
//! assuming an idle cluster. The arbitrated resources are the ones that
//! bottleneck rack-aware repair:
//!
//! * each node's shaped **cross-traffic class**, uplink and downlink
//!   separately (wondershaper throttles cross-rack traffic per node, so
//!   two stripes pulling through the same helper NIC contend there);
//! * the **aggregation switch**, when the cluster models a finite
//!   backplane (`Network::with_agg_capacity`).
//!
//! Inner-rack links are deliberately *not* arbitrated: they run at the
//! full NIC rate (10× the shaped cross rate in the paper's profile) and
//! the whole point of rack-aware repair is that inner-rack traffic is
//! cheap; cross-rack bandwidth is the contended resource.
//!
//! **Admission rule.** A stripe's [`Demand`] is its stand-alone peak
//! rate on every resource it touches (see [`plan_demand`]). The arbiter
//! admits the stripe iff *every* entry fits under the remaining capacity
//! of its resource, then commits all reservations atomically; on
//! completion the same demand is released. Demands are clamped to
//! resource capacity first ([`BandwidthArbiter::clamp`]), so a stripe
//! alone on an idle arbiter always admits — admission can stall a queue
//! head only while other repairs are in flight, never forever.
//!
//! **QoS classes.** Under [`QosClass::ForegroundPriority`] the arbiter
//! admits repair against the *residual* capacity
//! `capacity × max(repair_floor, 1 − foreground_share)` of every link,
//! keeping the set-aside share free for foreground I/O while
//! guaranteeing repair a floor it can always make progress on.
//! [`QosClass::Unthrottled`] is the pre-QoS behavior. Releases are
//! checked against an outstanding-admission ledger, so a double release
//! is a hard error in debug builds and a counted, unapplied event in
//! release builds (see [`BandwidthArbiter::release`]).

use std::collections::BTreeMap;

use rpr_core::plan::{Op, RepairPlan};
use rpr_netsim::Network;
use rpr_topology::Topology;

/// Relative + absolute float tolerance for capacity checks, so releasing
/// and re-reserving the same rates never spuriously rejects.
const EPS: f64 = 1e-9;

/// Admission class governing how much of each arbitrated link repair
/// traffic may reserve. See `docs/FOREGROUND.md`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QosClass {
    /// Repair admits against full link capacity (the pre-QoS behavior):
    /// foreground traffic gets whatever max-min fairness leaves over.
    Unthrottled,
    /// Foreground-priority: a `foreground_share` fraction of every
    /// arbitrated link is set aside for user traffic, and repair admits
    /// against the residual — but never against less than a
    /// `repair_floor` fraction, so repair cannot be starved outright.
    ForegroundPriority {
        /// Fraction of each link reserved for foreground I/O, in `[0, 1)`.
        foreground_share: f64,
        /// Guaranteed minimum fraction repair may always use, in `(0, 1]`.
        repair_floor: f64,
    },
}

impl QosClass {
    /// Fraction of each arbitrated link's capacity repair admission may
    /// use under this class.
    pub fn repair_fraction(&self) -> f64 {
        match *self {
            QosClass::Unthrottled => 1.0,
            QosClass::ForegroundPriority {
                foreground_share,
                repair_floor,
            } => {
                assert!(
                    (0.0..1.0).contains(&foreground_share),
                    "foreground_share must be in [0, 1)"
                );
                assert!(
                    repair_floor > 0.0 && repair_floor <= 1.0,
                    "repair_floor must be in (0, 1]"
                );
                (1.0 - foreground_share).max(repair_floor)
            }
        }
    }
}

/// The bandwidth a single repair wants to reserve: `(resource, rate)`
/// pairs, sorted by resource id, at most one entry per resource.
///
/// Resource ids are assigned by [`BandwidthArbiter`]: `2*node` is node
/// `node`'s cross-class uplink, `2*node + 1` its cross-class downlink,
/// and `2*node_count` the aggregation switch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Demand {
    /// `(resource id, bytes/sec)` reservations, ascending by resource.
    pub entries: Vec<(u32, f64)>,
}

impl Demand {
    /// True when the repair reserves nothing (e.g. a repair whose plan
    /// never crosses racks).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Reservation ledger over a cluster's contended links.
///
/// See the [module docs](self) for the admission rule and which links
/// are arbitrated.
pub struct BandwidthArbiter {
    capacity: Vec<f64>,
    reserved: Vec<f64>,
    peak: Vec<f64>,
    enabled: bool,
    in_flight: usize,
    qos: QosClass,
    /// Outstanding admissions keyed by demand fingerprint, so a release
    /// that was never admitted (or already released) is caught instead of
    /// silently saturating reservations to zero.
    outstanding: BTreeMap<u64, u32>,
    mismatched_releases: u64,
}

impl BandwidthArbiter {
    /// An arbiter over a cluster: per-node cross-class up/down links at
    /// the shaped cross rate, plus the aggregation switch (infinite
    /// unless the network constrains it).
    pub fn new(net: &Network) -> BandwidthArbiter {
        let nodes = net.topology().node_count();
        let mut capacity = Vec::with_capacity(2 * nodes + 1);
        for node in 0..nodes {
            let rate = net.cross_class_rate(rpr_topology::NodeId(node));
            capacity.push(rate); // uplink
            capacity.push(rate); // downlink
        }
        capacity.push(net.agg_capacity());
        BandwidthArbiter {
            reserved: vec![0.0; capacity.len()],
            peak: vec![0.0; capacity.len()],
            capacity,
            enabled: true,
            in_flight: 0,
            qos: QosClass::Unthrottled,
            outstanding: BTreeMap::new(),
            mismatched_releases: 0,
        }
    }

    /// Fingerprint of a demand's exact entries (FNV-1a over resource ids
    /// and rate bit patterns). Two demands release-match iff their
    /// fingerprints match, which is exactly the bit-equality the
    /// reservation subtraction needs.
    fn fingerprint(demand: &Demand) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for &(r, rate) in &demand.entries {
            mix(r as u64);
            mix(rate.to_bits());
        }
        h
    }

    /// Resource id of a node's cross-class uplink.
    #[inline]
    pub fn uplink(node: usize) -> u32 {
        (2 * node) as u32
    }

    /// Resource id of a node's cross-class downlink.
    #[inline]
    pub fn downlink(node: usize) -> u32 {
        (2 * node + 1) as u32
    }

    /// Resource id of the aggregation switch for a cluster of
    /// `node_count` nodes.
    #[inline]
    pub fn agg(node_count: usize) -> u32 {
        (2 * node_count) as u32
    }

    /// Disable admission control: [`BandwidthArbiter::try_admit`] always
    /// succeeds without reserving anything. Used to prove the arbiter
    /// only adds waiting — with contention off, the fleet schedule must
    /// match per-stripe supervised repair exactly.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether admission control is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Set the repair QoS class. Under
    /// [`QosClass::ForegroundPriority`] every admission check (and
    /// [`BandwidthArbiter::clamp`]) runs against the residual
    /// `capacity × repair_fraction` instead of full link capacity, so
    /// the set-aside share stays free for foreground flows.
    ///
    /// # Panics
    /// Panics if the class's parameters are out of range (foreground
    /// share must be in `[0, 1)`, the repair floor in `(0, 1]`).
    pub fn set_qos(&mut self, qos: QosClass) {
        let _ = qos.repair_fraction(); // validate eagerly
        self.qos = qos;
    }

    /// The active repair QoS class.
    pub fn qos(&self) -> QosClass {
        self.qos
    }

    /// Capacity repair admission may use on a resource under the active
    /// QoS class (bytes/sec).
    fn admissible(&self, r: usize) -> f64 {
        self.capacity[r] * self.qos.repair_fraction()
    }

    /// Releases whose demand did not match any outstanding admission
    /// (counted instead of applied, so accounting cannot drift; a debug
    /// build panics at the offending call site instead).
    pub fn mismatched_releases(&self) -> u64 {
        self.mismatched_releases
    }

    /// Repairs currently holding reservations.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Cap each demand entry at its resource's admissible capacity
    /// (total capacity × the QoS repair fraction), so a repair whose
    /// stand-alone peak exceeds what the link can ever give (it would
    /// then simply run slower) is still admissible on an idle arbiter.
    /// Drops entries on unconstrained (infinite) resources.
    pub fn clamp(&self, demand: &mut Demand) {
        demand.entries.retain_mut(|(r, rate)| {
            let cap = self.capacity[*r as usize];
            if cap.is_infinite() {
                return false;
            }
            let cap = self.admissible(*r as usize);
            if *rate > cap {
                *rate = cap;
            }
            *rate > 0.0
        });
    }

    /// Admit a repair if every entry fits under the remaining capacity
    /// of its resource; on success all reservations are committed
    /// atomically and `true` is returned. A disabled arbiter admits
    /// everything and reserves nothing.
    pub fn try_admit(&mut self, demand: &Demand) -> bool {
        if !self.enabled {
            self.in_flight += 1;
            return true;
        }
        for &(r, rate) in &demand.entries {
            let r = r as usize;
            if self.reserved[r] + rate > self.admissible(r) * (1.0 + EPS) + EPS {
                return false;
            }
        }
        for &(r, rate) in &demand.entries {
            let r = r as usize;
            self.reserved[r] += rate;
            if self.reserved[r] > self.peak[r] {
                self.peak[r] = self.reserved[r];
            }
        }
        self.in_flight += 1;
        *self
            .outstanding
            .entry(Self::fingerprint(demand))
            .or_insert(0) += 1;
        true
    }

    /// Release a previously admitted demand.
    ///
    /// Every release must pair with one earlier successful
    /// [`BandwidthArbiter::try_admit`] of a bit-identical demand. A
    /// mismatched release (double release, or a demand that was never
    /// admitted) panics in debug builds; in release builds it is counted
    /// in [`BandwidthArbiter::mismatched_releases`] and **not** applied,
    /// so reservations can neither drift below what is actually in
    /// flight nor silently saturate at zero and mask oversubscription.
    pub fn release(&mut self, demand: &Demand) {
        if !self.enabled {
            debug_assert!(self.in_flight > 0, "release without admit");
            self.in_flight = self.in_flight.saturating_sub(1);
            return;
        }
        let fp = Self::fingerprint(demand);
        match self.outstanding.get_mut(&fp) {
            Some(count) => {
                *count -= 1;
                if *count == 0 {
                    self.outstanding.remove(&fp);
                }
            }
            None => {
                debug_assert!(
                    false,
                    "release of a demand that has no outstanding admission \
                     (double release?): {demand:?}"
                );
                self.mismatched_releases += 1;
                return;
            }
        }
        self.in_flight = self.in_flight.saturating_sub(1);
        for &(r, rate) in &demand.entries {
            let r = r as usize;
            self.reserved[r] -= rate;
            // Exact subtraction of an admitted rate can leave only float
            // dust below zero; clamp that, not whole double-releases.
            if self.reserved[r] < 0.0 {
                debug_assert!(self.reserved[r] > -EPS * self.capacity[r].max(1.0));
                self.reserved[r] = 0.0;
            }
        }
    }

    /// Current reservation on a resource (bytes/sec).
    pub fn reserved(&self, resource: u32) -> f64 {
        self.reserved[resource as usize]
    }

    /// Capacity of a resource (bytes/sec).
    pub fn capacity(&self, resource: u32) -> f64 {
        self.capacity[resource as usize]
    }

    /// Largest reservation ever committed on any resource, as a fraction
    /// of that resource's capacity — the oversubscription witness the
    /// property tests check stays ≤ 1 (within float tolerance).
    pub fn max_utilization(&self) -> f64 {
        self.capacity
            .iter()
            .zip(&self.peak)
            .filter(|(cap, _)| cap.is_finite() && **cap > 0.0)
            .map(|(cap, peak)| peak / cap)
            .fold(0.0, f64::max)
    }

    /// Sum of all current reservations (bytes/sec) — ≈ 0 once every
    /// admitted repair has been released.
    pub fn total_reserved(&self) -> f64 {
        self.reserved.iter().sum()
    }
}

/// A repair plan's stand-alone peak bandwidth demand.
///
/// The plan's cross-rack sends are laid out on the timestep schedule
/// from [`RepairPlan::cross_waves`]; within a wave each flow runs at its
/// pair's nominal rate. The demand on a node's cross up/downlink is the
/// *peak over waves* of the sum of that node's concurrent flow rates
/// (capped at the shaped class rate — the NIC can't exceed it), and the
/// aggregation-switch demand is the peak over waves of the total
/// cross-rack rate. A plan with no cross-rack sends (or one timed on a
/// single-rack topology) demands nothing.
pub fn plan_demand(plan: &RepairPlan, topo: &Topology, net: &Network) -> Demand {
    let (waves, count) = plan.cross_waves(topo);
    if count == 0 {
        return Demand::default();
    }
    // (wave, resource) -> summed rate. BTreeMap keeps the iteration (and
    // therefore the float accumulation) order deterministic.
    let mut load: BTreeMap<(usize, u32), f64> = BTreeMap::new();
    let mut agg: Vec<f64> = vec![0.0; count];
    for (i, op) in plan.ops.iter().enumerate() {
        let Some(w) = waves[i] else { continue };
        let Op::Send { from, to, .. } = op else {
            continue;
        };
        let rate = net.pair_rate(*from, *to);
        *load
            .entry((w, BandwidthArbiter::uplink(from.0)))
            .or_insert(0.0) += rate;
        *load
            .entry((w, BandwidthArbiter::downlink(to.0)))
            .or_insert(0.0) += rate;
        agg[w] += rate;
    }
    let mut peak: BTreeMap<u32, f64> = BTreeMap::new();
    for (&(_, resource), &rate) in &load {
        let node = rpr_topology::NodeId(resource as usize / 2);
        let capped = rate.min(net.cross_class_rate(node));
        let entry = peak.entry(resource).or_insert(0.0);
        if capped > *entry {
            *entry = capped;
        }
    }
    let mut entries: Vec<(u32, f64)> = peak.into_iter().collect();
    let agg_peak = agg.iter().fold(0.0, |a: f64, &b| a.max(b));
    if agg_peak > 0.0 {
        entries.push((
            BandwidthArbiter::agg(topo.node_count()),
            agg_peak.min(net.agg_capacity()),
        ));
    }
    Demand { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_topology::{BandwidthProfile, NodeId, Topology, GBIT};

    fn net() -> Network {
        Network::new(Topology::uniform(3, 2), BandwidthProfile::simics_default(3))
    }

    #[test]
    fn admit_reserve_release_roundtrip() {
        let mut arb = BandwidthArbiter::new(&net());
        let cross = 0.1 * GBIT;
        let d = Demand {
            entries: vec![(BandwidthArbiter::uplink(0), cross)],
        };
        assert!(arb.try_admit(&d));
        // The uplink is saturated: a second identical demand must wait.
        assert!(!arb.try_admit(&d));
        assert_eq!(arb.in_flight(), 1);
        arb.release(&d);
        assert_eq!(arb.total_reserved(), 0.0);
        assert!(arb.try_admit(&d), "released capacity is reusable");
        assert!(arb.max_utilization() <= 1.0 + 1e-6);
    }

    #[test]
    fn admission_is_atomic() {
        let mut arb = BandwidthArbiter::new(&net());
        let cross = 0.1 * GBIT;
        let half = Demand {
            entries: vec![(BandwidthArbiter::downlink(1), 0.6 * cross)],
        };
        assert!(arb.try_admit(&half));
        // Fits on uplink 0 but not downlink 1: nothing may be reserved.
        let both = Demand {
            entries: vec![
                (BandwidthArbiter::uplink(0), 0.5 * cross),
                (BandwidthArbiter::downlink(1), 0.5 * cross),
            ],
        };
        assert!(!arb.try_admit(&both));
        assert_eq!(arb.reserved(BandwidthArbiter::uplink(0)), 0.0);
    }

    #[test]
    fn clamp_makes_any_demand_admissible_when_idle() {
        let arb = BandwidthArbiter::new(&net());
        let mut d = Demand {
            entries: vec![
                (BandwidthArbiter::uplink(0), 10.0 * GBIT),
                (BandwidthArbiter::agg(6), GBIT),
            ],
        };
        arb.clamp(&mut d);
        // The uplink entry is capped to the class rate; the infinite agg
        // resource is dropped entirely.
        assert_eq!(d.entries, vec![(BandwidthArbiter::uplink(0), 0.1 * GBIT)]);
        let mut arb = arb;
        assert!(arb.try_admit(&d), "clamped demand admits on idle arbiter");
    }

    #[test]
    fn disabled_arbiter_admits_everything() {
        let mut arb = BandwidthArbiter::new(&net());
        arb.set_enabled(false);
        let d = Demand {
            entries: vec![(BandwidthArbiter::uplink(0), 100.0 * GBIT)],
        };
        for _ in 0..10 {
            assert!(arb.try_admit(&d));
        }
        assert_eq!(arb.total_reserved(), 0.0);
        assert_eq!(arb.in_flight(), 10);
    }

    #[test]
    fn agg_capacity_is_arbitrated_when_finite() {
        let network = Network::new(Topology::uniform(3, 2), BandwidthProfile::simics_default(3))
            .with_agg_capacity(0.15 * GBIT);
        let mut arb = BandwidthArbiter::new(&network);
        let d = Demand {
            entries: vec![(BandwidthArbiter::agg(6), 0.1 * GBIT)],
        };
        assert!(arb.try_admit(&d));
        assert!(!arb.try_admit(&d), "agg switch is saturated");
    }

    #[test]
    fn plan_demand_covers_cross_sends_only() {
        use rpr_codec::{CodeParams, StripeCodec};
        use rpr_core::{CostModel, RepairContext, RepairPlanner, RprPlanner};
        use rpr_topology::Placement;

        let params = CodeParams::new(4, 2);
        let codec = StripeCodec::new(params);
        let topo = Topology::uniform(3, 3);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::simics_default(3);
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![rpr_codec::BlockId(0)],
            8 << 20,
            &profile,
            CostModel::free(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        let network = Network::new(topo.clone(), profile.clone());
        let demand = plan_demand(&plan, &topo, &network);
        assert!(!demand.is_empty(), "RPR single-failure plan crosses racks");
        let agg_id = BandwidthArbiter::agg(topo.node_count());
        for &(r, rate) in &demand.entries {
            assert!(rate > 0.0);
            if r == agg_id {
                continue;
            }
            let node = NodeId(r as usize / 2);
            assert!(
                rate <= network.cross_class_rate(node) * (1.0 + 1e-9),
                "per-node demand never exceeds the shaped class rate"
            );
        }
        let mut arb = BandwidthArbiter::new(&network);
        let mut d = demand.clone();
        arb.clamp(&mut d);
        assert!(arb.try_admit(&d), "a lone stripe always admits");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "no outstanding admission")]
    fn double_release_is_a_hard_error_in_debug() {
        let mut arb = BandwidthArbiter::new(&net());
        let d = Demand {
            entries: vec![(BandwidthArbiter::uplink(0), 0.05 * GBIT)],
        };
        assert!(arb.try_admit(&d));
        arb.release(&d);
        arb.release(&d);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn double_release_is_counted_and_not_applied_in_release() {
        let mut arb = BandwidthArbiter::new(&net());
        let cross = 0.1 * GBIT;
        let half = Demand {
            entries: vec![(BandwidthArbiter::uplink(0), 0.5 * cross)],
        };
        assert!(arb.try_admit(&half));
        assert!(arb.try_admit(&half));
        arb.release(&half);
        arb.release(&half);
        // Third release has no outstanding admission: counted, ignored.
        arb.release(&half);
        assert_eq!(arb.mismatched_releases(), 1);
        assert_eq!(arb.reserved(BandwidthArbiter::uplink(0)), 0.0);
        // A never-admitted demand is also rejected, so reservations can't
        // drift negative and mask oversubscription.
        assert!(arb.try_admit(&half));
        let other = Demand {
            entries: vec![(BandwidthArbiter::uplink(0), 0.25 * cross)],
        };
        arb.release(&other);
        assert_eq!(arb.mismatched_releases(), 2);
        assert_eq!(arb.reserved(BandwidthArbiter::uplink(0)), 0.5 * cross);
    }

    #[test]
    fn release_matches_by_exact_entries() {
        let mut arb = BandwidthArbiter::new(&net());
        let cross = 0.1 * GBIT;
        let a = Demand {
            entries: vec![(BandwidthArbiter::uplink(0), 0.25 * cross)],
        };
        let b = Demand {
            entries: vec![(BandwidthArbiter::uplink(1), 0.25 * cross)],
        };
        assert!(arb.try_admit(&a));
        assert!(arb.try_admit(&b));
        arb.release(&b);
        arb.release(&a);
        assert_eq!(arb.mismatched_releases(), 0);
        assert_eq!(arb.total_reserved(), 0.0);
        assert_eq!(arb.in_flight(), 0);
    }

    #[test]
    fn foreground_priority_admits_against_residual() {
        let mut arb = BandwidthArbiter::new(&net());
        arb.set_qos(QosClass::ForegroundPriority {
            foreground_share: 0.5,
            repair_floor: 0.1,
        });
        let cross = 0.1 * GBIT;
        let mut d = Demand {
            entries: vec![(BandwidthArbiter::uplink(0), cross)],
        };
        arb.clamp(&mut d);
        // Clamped to the residual half of the shaped class rate.
        assert_eq!(d.entries, vec![(BandwidthArbiter::uplink(0), 0.5 * cross)]);
        assert!(arb.try_admit(&d), "the residual itself is admissible");
        assert!(
            !arb.try_admit(&d),
            "the foreground set-aside is never given to repair"
        );
        assert!(arb.max_utilization() <= 0.5 + 1e-9);
    }

    #[test]
    fn repair_floor_bounds_the_throttle() {
        let qos = QosClass::ForegroundPriority {
            foreground_share: 0.95,
            repair_floor: 0.25,
        };
        assert_eq!(qos.repair_fraction(), 0.25, "floor wins over the share");
        assert_eq!(QosClass::Unthrottled.repair_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "foreground_share")]
    fn qos_rejects_out_of_range_share() {
        let mut arb = BandwidthArbiter::new(&net());
        arb.set_qos(QosClass::ForegroundPriority {
            foreground_share: 1.0,
            repair_floor: 0.1,
        });
    }
}
