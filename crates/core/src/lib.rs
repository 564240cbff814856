//! RPR — rack-aware pipeline repair for erasure-coded storage.
//!
//! This crate implements the paper's contribution: repair **planners** that
//! turn a failure scenario into an executable [`RepairPlan`] DAG, plus the
//! machinery around them.
//!
//! * [`TraditionalPlanner`] — classic RS repair: ship `n` helper blocks to
//!   the recovery node, decode there (§2.3);
//! * [`CarPlanner`] — the CAR baseline (Shen et al., DSN '16): per-rack
//!   partial decoding with traffic-minimizing helper selection, but all
//!   intermediates sent straight to the recovery rack with no pipeline
//!   schedule (§5.1);
//! * [`RprPlanner`] — the paper's scheme: helper-selection search,
//!   inner-rack partial decoding (Algorithm 1), greedy cross-rack pipeline
//!   scheduling (Algorithm 2), the §3.3 pre-placement XOR fast path, and the
//!   §3.4 multi-failure extension (Algorithms 3/4).
//!
//! Plans are backend-independent. [`JobGraph::new`] lowers a plan to chunk
//! jobs once; [`simulate`] runs that graph on the `rpr-netsim` flow
//! simulator (the "Simics" experiments), while `rpr-exec` runs the same
//! graph on real bytes with rate-limited threads (the "EC2" experiments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cost;
pub mod plan;
pub mod scenario;
pub mod schemes;
pub mod sim;
pub mod supervise;
pub mod trace;
pub mod viz;

pub use cost::CostModel;
pub use plan::{Input, Op, OpId, Payload, PlanStats, RepairPlan};
/// The cluster [`network_for`] builds: the one source of link rates for
/// the simulator and the real-bytes executor alike.
pub use rpr_netsim::Network;
pub use scenario::RepairContext;
pub use schemes::{
    CarPlanner, ChainPlanner, RecoverySite, RepairPlanner, RprPlanner, TraditionalPlanner,
};
pub use sim::{network_for, simulate, Job, JobGraph, OpJobs, SimOutcome};
pub use supervise::{
    build_evidence, check_retry_budget, crash_candidates, first_valid_plan, plan_with_pool,
    resolve_storm_bucket, supervise, supervise_injected, AttemptFault, Banked, Baseline,
    CrashFault, Ending, Evidence, GenFaults, Generation, GenerationRecord, GenerationRun, PoolKey,
    PoolReplan, RepairBackend, ResolvedFaults, SimBackend, Splice, SuperviseConfig, SuperviseError,
    SuperviseOutcome, Tier,
};
pub use trace::{combine_kernel, op_label, send_transfer, simulate_traced, stream_summary};
