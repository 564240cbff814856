//! # rpr-obs — repair observability
//!
//! Structured trace events, a bounded recorder, and exporters for the
//! rack-aware pipeline repair (RPR) reproduction. The paper's central
//! claims are measurements — cross-rack timesteps (`⌈log2(sources+1)⌉`),
//! per-rack upload imbalance, the wide-/narrow-decode gap — and this
//! crate makes them visible *inside* a repair rather than only as final
//! aggregates.
//!
//! Three pieces:
//!
//! - [`Recorder`]: the sink trait. [`NoopRecorder`] (via [`noop()`])
//!   keeps untraced call sites free; [`TraceRecorder`] is the default
//!   real implementation — a bounded drop-oldest event ring that counts
//!   what it evicts ([`TraceRecorder::dropped`]). Totals — bytes,
//!   transfers, retries, per-rack splits — are folds over the events
//!   it hands back, never a second copy kept beside them.
//! - [`Event`]: the structured event vocabulary (plan built, timestep
//!   started/finished, transfer queued/started/done, combine done with
//!   XOR-vs-GF kernel kind, repair done, and the fault, supervisor, proof,
//!   fleet and foreground-load events). Each event is declared **once**,
//!   in the `events!` table of `event.rs`: wire name, field keys in wire
//!   order, and per field whether it is a timestamp or a duration. The
//!   enum, [`Event::name`], [`Event::time`], [`Event::shifted`] and both
//!   exporters derive from that table; `docs/TRACING.md` specifies units
//!   and semantics and is checked against it by a unit test.
//! - [`export`]: JSON-lines ([`export::to_json_lines`]) and Chrome
//!   `trace_event` ([`export::to_chrome_trace`]) serialization, both
//!   hand-rolled so this crate stays dependency-free (the build
//!   environment has no registry access). JSON-lines is the declared
//!   fields in order; the Chrome document is one rendering row per event
//!   over the same fields.
//!
//! Racks and nodes appear as plain `usize` indices, so `rpr-obs` sits at
//! the bottom of the workspace dependency graph next to `rpr-gf`, and
//! every layer (`core`, `netsim`, `exec`, `cli`, `experiments`) can
//! record into it without cycles.
//!
//! ```
//! use rpr_obs::{Event, Recorder, TraceRecorder, Transfer};
//!
//! let rec = TraceRecorder::default();
//! rec.record(Event::TransferDone {
//!     xfer: Transfer {
//!         label: "p0op0:send".into(),
//!         src_node: 4, src_rack: 1, dst_node: 0, dst_rack: 0,
//!         bytes: 4096, cross: true, timestep: Some(0),
//!     },
//!     start: 0.0,
//!     end: 0.5,
//! });
//! let events = rec.take_events();
//! let cross_bytes: u64 = events
//!     .iter()
//!     .map(|e| match e {
//!         Event::TransferDone { xfer, .. } if xfer.cross => xfer.bytes,
//!         _ => 0,
//!     })
//!     .sum();
//! assert_eq!(cross_bytes, 4096);
//! assert_eq!(rec.dropped(), 0);
//! let jsonl = rpr_obs::export::to_json_lines(&events);
//! assert!(jsonl.contains("\"type\":\"transfer_done\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod export;
mod recorder;

pub use event::{Event, Kernel, Transfer};
pub use recorder::{noop, NoopRecorder, Recorder, TraceRecorder, DEFAULT_RING_CAPACITY};
