//! Fleet-scale repair scheduling: turn the per-stripe repair primitive
//! into a storage-system repair *service*.
//!
//! The paper's §4 fleet-recovery results assume many stripes repair
//! concurrently under shared rack bandwidth. This crate supplies the
//! three pieces that makes true at scale:
//!
//! * [`StripeIndex`] — a sharded admission queue keyed by **at-risk
//!   level**: stripes with `z` failures are served strictly before
//!   stripes with `z − 1`, FIFO within a level, with O(1) requeue when
//!   a queued stripe loses another block.
//! * [`BandwidthArbiter`] — cross-stripe admission control on the same
//!   `netsim` topology the per-stripe simulator uses: each admitted
//!   repair reserves its plan's peak rates on the shaped cross-rack
//!   links (and the aggregation switch, when finite) and releases them
//!   on completion, so concurrent plans stop assuming an idle cluster.
//! * [`run_indexed`] — a work-stealing thread pool
//!   that batches plan construction and sim-backed repair costing, so a
//!   10k-node / million-stripe fleet fits in one process (see
//!   [`fleet`] for the repair-class decomposition that makes the
//!   million-stripe case cheap).
//!
//! [`schedule_fleet`] drains a backlog through the index and arbiter on
//! a deterministic virtual clock; [`drain_fleet`] extends it with
//! co-simulated churn arrivals, O(1) risk escalation, a permanent-loss
//! ledger, and a crash-restartable write-ahead [`journal`];
//! [`run_synthetic_fleet`] is the
//! end-to-end entry point behind `rpr fleet` and the
//! `rpr-experiments fleet-scale` table, and `Store::recover_fleet`
//! (in `rpr-store`) routes real store failures through the same
//! scheduler. Everything is bit-deterministic for a fixed seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod fleet;
pub mod index;
pub mod journal;
pub mod pool;
pub mod sched;

pub use arbiter::{plan_demand, BandwidthArbiter, Demand, QosClass};
pub use fleet::{
    cost_repair, run_fleet_with, run_synthetic_fleet, stripe_demand, stripe_storm, FleetIo,
    FleetOutcome, FleetSpec, RepairTally,
};
pub use index::StripeIndex;
pub use journal::{Checkpoint, CompletedRec, CostRec, FleetJournal, JournalReplay};
pub use pool::{default_threads, run_indexed};
pub use sched::{
    drain_fleet, quantile, schedule_fleet, AdmissionOutcome, ChurnOptions, DrainOptions, FleetJob,
    FleetSummary, JobCost, LostStripe, StripeRecord,
};
