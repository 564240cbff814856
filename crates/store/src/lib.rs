//! A multi-stripe erasure-coded store model.
//!
//! The RPR paper evaluates single stripes, but its motivation is fleet
//! scale: Facebook moves "a median of over 180 TB" of repair traffic per
//! day because a *node* failure invalidates one block of **every stripe
//! that node hosted** (§1). This crate models that setting:
//!
//! * a [`Store`] scatters `S` stripes of an RS `(n, k)` code over a cluster
//!   much larger than one stripe (`R` racks × `N` nodes), at most `k`
//!   blocks of any stripe per rack (single-rack fault tolerance preserved
//!   per stripe);
//! * a [`Failure`] (node or whole rack) identifies the affected stripes
//!   and lost blocks;
//! * [`Store::recover`] plans every affected stripe with the chosen
//!   [`Scheme`] and simulates all repairs **concurrently** on the shared
//!   cluster (each admission wave adds every stripe's `rpr_core::JobGraph`
//!   to one simulator), so plans contend for the same links exactly as
//!   they would in production;
//! * the CAR scheme applies its multi-stripe balancing here: helper racks
//!   are chosen against the cross-rack load already assigned to them by
//!   the other stripes' repairs;
//! * [`Store::recover_supervised`] routes the same fleet recovery through
//!   the repair supervisor (`rpr_core::supervise_injected`): every stripe
//!   repairs under a seeded fault storm with admission-controlled waves
//!   and a **fleet-shared** helper-health tracker, reporting MTTR and the
//!   p99 stripe-repair time;
//! * [`Store::recover_fleet`] hands the same backlog to the `rpr-sched`
//!   fleet scheduler: stripes are served in at-risk-level priority order
//!   under link-level bandwidth arbitration instead of fixed waves, with
//!   per-stripe trackers so the schedule never changes repair outcomes.
//!
//! These three are the Store's only recovery entry points. Both
//! supervised ones cost each stripe with `rpr_sched::cost_repair` and sum
//! its counters in an `rpr_sched::RepairTally`, as `rpr fleet` does. None
//! of them journals: crash-restart goes through
//! `rpr_sched::run_fleet_with` (`rpr fleet --journal / --resume`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod recovery;
mod store;

pub use recovery::{
    Failure, FleetRecoveryOptions, FleetRecoveryOutcome, RecoveryOptions, RecoveryOutcome, Scheme,
    SupervisedRecoveryOptions, SupervisedRecoveryOutcome,
};
pub use store::{Store, StoreConfig};
