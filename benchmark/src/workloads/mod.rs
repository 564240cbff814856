//! The seven workloads. Names are fixed: later issues cite them.

pub mod exec;
pub mod fleet;
pub mod load;
pub mod sim;
pub mod storm;

use crate::trace::Tracer;

/// How large a run is: the reference sizes, or about a tenth for smoke use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

impl Size {
    /// `full` at reference size, `quick` under `--quick`.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Size::Full => full,
            Size::Quick => quick,
        }
    }
}

/// One workload: a fixture built from the seed, and a closed loop of
/// operations on it, one in flight at a time.
pub trait Workload {
    /// Untimed operations run first so caches fill and lazy set-up ends.
    fn warmup_ops(&self) -> usize;
    /// Run operation `i` and check its output. Calls into a layer go
    /// through `tr.span`, counts through `tr.count`.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String>;
    /// Extra measurement a traced run makes once, after its loop.
    fn after_trace(&mut self, _tr: &mut Tracer) {}
    /// Whole-run invariants, checked once after the loop: `(holds, what)`.
    fn invariants(&mut self) -> Vec<(bool, String)>;
}

/// A workload's name, why it exists, and how to build it.
pub struct Entry {
    pub name: &'static str,
    pub why: &'static str,
    pub build: fn(seed: u64, size: Size, out_dir: &std::path::Path) -> Box<dyn Workload>,
}

pub const WORKLOADS: [Entry; 7] = [
    exec::BULK,
    exec::SMALL,
    storm::SHAPED_STORM,
    sim::SWEEP,
    load::COSIM,
    fleet::DRAIN,
    fleet::CHURN,
];

pub fn find(name: &str) -> Option<&'static Entry> {
    WORKLOADS.iter().find(|e| e.name == name)
}
