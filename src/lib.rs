//! # RPR — rack-aware pipeline repair for erasure-coded storage
//!
//! Facade crate re-exporting the whole system. Reproduction of Liu,
//! Alibhai, He — *"A Rack-Aware Pipeline Repair Scheme for Erasure-Coded
//! Distributed Storage Systems"* (ICPP '20).
//!
//! The one-minute tour — encode, fail, plan, simulate, execute, verify:
//!
//! ```
//! use rpr::codec::{BlockId, CodeParams, StripeCodec};
//! use rpr::core::{simulate, CostModel, RepairContext, RepairPlanner, RprPlanner};
//! use rpr::exec::execute;
//! use rpr::topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy};
//!
//! // An RS(4,2) stripe over 3 racks (+1 spare), P0 co-located with data.
//! let params = CodeParams::new(4, 2);
//! let codec = StripeCodec::new(params);
//! let topo = cluster_for(params, 1, 1);
//! let placement = Placement::by_policy(PlacementPolicy::RprPreplaced, params, &topo);
//! let profile = BandwidthProfile::uniform(topo.rack_count(), 400e6, 40e6);
//!
//! // Real data, tiny blocks for the doc test.
//! let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; 4096]).collect();
//! let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
//! let stripe = codec.encode_stripe(&refs);
//!
//! // d1 fails; plan a rack-aware pipelined repair.
//! let ctx = RepairContext::new(&codec, &topo, &placement, vec![BlockId(1)],
//!                              4096, &profile, CostModel::free());
//! let plan = RprPlanner::new().plan(&ctx);
//! plan.validate(&codec, &topo, &placement).unwrap();
//!
//! // Simulated timing…
//! let outcome = simulate(&plan, &ctx);
//! assert!(outcome.repair_time > 0.0);
//! // …and a byte-exact reconstruction on the real-data engine.
//! let report = execute(&plan, &ctx, &stripe);
//! assert!(report.verified);
//! ```
//!
//! | module | contents |
//! |---|---|
//! | [`gf`] | GF(2^8) arithmetic and slice kernels |
//! | [`linalg`] | matrices over GF(2^8), MDS constructions |
//! | [`codec`] | the RS codec, repair equations, partial decoding |
//! | [`topology`] | racks, placements, bandwidth profiles |
//! | [`netsim`] | the flow-level network simulator |
//! | [`core`] | planners (Traditional/CAR/RPR), plans, analysis, viz |
//! | [`exec`] | the real-data executor |
//! | [`store`] | multi-stripe store and fleet-failure recovery |
//! | [`sched`] | fleet-scale repair scheduler: stripe index, bandwidth arbiter |
//! | [`load`] | foreground workload generator, repair QoS co-simulation |
//! | [`obs`] | structured repair traces: a bounded event ring and its exporters |
//! | [`faults`] | deterministic fault injection: fault storms, helper health, retry policies |
//!
//! To capture a structured trace of a repair, attach an [`obs::TraceRecorder`]
//! via [`core::simulate_traced`] or [`exec::execute_recorded`] — both the
//! supervision loop ([`core::supervise()`]) run fault-free with your plan,
//! so the two backends write one event vocabulary — and export the events
//! with [`obs::export`]; schema in `docs/TRACING.md`.

pub use rpr_codec as codec;
pub use rpr_core as core;
pub use rpr_exec as exec;
pub use rpr_faults as faults;
pub use rpr_gf as gf;
pub use rpr_linalg as linalg;
pub use rpr_load as load;
pub use rpr_netsim as netsim;
pub use rpr_obs as obs;
pub use rpr_sched as sched;
pub use rpr_store as store;
pub use rpr_topology as topology;
