//! Foreground workload generation for repair co-simulation.
//!
//! The paper evaluates repair schemes on an otherwise idle cluster; real
//! clusters repair *under* client traffic. This crate closes that gap:
//! a seeded open-loop request generator ([`LoadSpec`]) emits reads and
//! writes with Poisson arrivals and zipfian object popularity, lowers
//! them as transfer flows into the **same** `rpr-netsim` simulator as a
//! staggered stream of RPR repair plans (each a [`rpr_core::JobGraph`]),
//! and reports exact per-request latency quantiles ([`LoadSummary`]).
//!
//! Three repair tenancy modes ([`RepairMode`]) are co-simulated against
//! an identical request schedule (same seed — same arrivals, objects and
//! clients), so latency differences isolate the repair traffic itself:
//!
//! * [`RepairMode::Off`] — the pre-failure baseline: no repair flows;
//! * [`RepairMode::Unthrottled`] — repair competes at full link rate;
//! * [`RepairMode::Qos`] — repair `Send` flows are rate-capped to the
//!   residual fraction of [`rpr_sched::QosClass::ForegroundPriority`],
//!   mirroring what the fleet scheduler's bandwidth arbiter admits.
//!
//! Reads of the lost block become **degraded reads served from the
//! repair pipeline**: relay transfers from the recovery node to the
//! client are dependency-chained on the output op's chunk jobs, so the
//! first decoded chunk streams to the client cut-through instead of
//! waiting for full reconstruction (`first_byte` in the summary).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod run;
mod spec;

pub use gen::{Request, RequestKind, Zipf};
pub use run::{run_load, run_load_recorded, LoadSummary};
pub use spec::{LoadSpec, RepairMode};
