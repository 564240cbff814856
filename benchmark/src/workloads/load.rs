//! `load_cosim`: foreground traffic co-simulated with repair. `netsim`
//! used differently from `sim_sweep` — thousands of independent timed
//! releases and throttles instead of one dependency DAG. The load is an
//! open loop *inside the simulator's virtual clock* (Poisson, 40 req/s);
//! on the host each mode is one batch call.

use super::{Entry, Workload};
use crate::gen;
use crate::trace::Tracer;
use rpr_load::{run_load, LoadSpec, RepairMode};

pub const COSIM: Entry = Entry {
    name: "load_cosim",
    why: "4800 Poisson client requests against 8 stripe repairs in three tenancy modes: netsim driven by arrivals and throttles instead of one DAG",
    build: |seed, size, _| Box::new(LoadCosim::new(seed, size.pick(4800, 480))),
};

/// Mode, and the span its co-simulation runs under.
fn modes() -> [(RepairMode, &'static str); 3] {
    [
        (RepairMode::Off, "load.run_load.off"),
        (RepairMode::Unthrottled, "load.run_load.unthrottled"),
        (LoadSpec::paper_qos(), "load.run_load.qos"),
    ]
}

struct LoadCosim {
    specs: Vec<(LoadSpec, &'static str)>,
    /// `to_json` of each mode's summary from the first round.
    first: Vec<String>,
    identical: bool,
}

impl LoadCosim {
    fn new(seed: u64, requests: usize) -> LoadCosim {
        let load_seed = gen::derive(seed, 3, 0);
        let specs: Vec<(LoadSpec, &'static str)> = modes()
            .into_iter()
            .map(|(mode, span)| {
                let spec = LoadSpec {
                    requests,
                    repair_stripes: 8,
                    ..LoadSpec::paper_config(load_seed, mode)
                };
                spec.validate();
                (spec, span)
            })
            .collect();
        // Pre-flight at 1/100 size: lazy initialisation is paid in set-up.
        for (spec, _) in &specs {
            let small = LoadSpec {
                requests: requests / 100,
                repair_stripes: 1,
                ..spec.clone()
            };
            std::hint::black_box(run_load(&small));
        }
        LoadCosim {
            specs,
            first: Vec::new(),
            identical: true,
        }
    }
}

impl Workload for LoadCosim {
    fn warmup_ops(&self) -> usize {
        0
    }

    /// One round: the same request schedule under each of the three modes.
    fn op(&mut self, _i: usize, tr: &mut Tracer) -> Result<(), String> {
        let mut seen = Vec::new();
        for (spec, span) in &self.specs {
            let summary = tr.span(span, |_| run_load(spec));
            if summary.requests != spec.requests {
                return Err(format!(
                    "{span}: {} of {} requests",
                    summary.requests, spec.requests
                ));
            }
            tr.count("load.requests", summary.requests as f64);
            tr.count("load.degraded", summary.degraded as f64);
            if matches!(spec.mode, RepairMode::Qos { .. }) {
                tr.count("load.fg_latency_p99_s", summary.latency_p99);
            }
            seen.push(summary.to_json());
        }
        if self.first.is_empty() {
            self.first = seen;
        } else if self.first != seen {
            self.identical = false;
        }
        Ok(())
    }

    fn invariants(&mut self) -> Vec<(bool, String)> {
        vec![(
            self.identical,
            "load summaries differ between rounds".into(),
        )]
    }
}
