//! `fleet_drain` and `fleet_churn`: the `rpr-sched` index / arbiter /
//! admission loop over a synthetic backlog. The first is the read-only
//! drain (class-cached costing, no churn, no I/O); the second is its
//! write-beside-read twin (escalation requeues, loss ledger, a journal
//! record flushed per decision).

use super::{Entry, Workload};
use crate::gen;
use crate::trace::Tracer;
use rpr_sched::{run_fleet_with, FleetIo, FleetJournal, FleetOutcome, FleetSpec, JournalReplay};
use std::cell::RefCell;
use std::path::{Path, PathBuf};

pub const DRAIN: Entry = Entry {
    name: "fleet_drain",
    why: "a million-stripe backlog over 625 racks, no churn, no I/O: the rpr-sched index, arbiter and admission loop with class-cached costing",
    build: |seed, size, _| {
        let (stripes, racks) = size.pick((1_000_000, 625), (100_000, 125));
        let spec = FleetSpec {
            stripes,
            racks,
            seed: gen::derive(seed, 4, 0),
            ..FleetSpec::default()
        };
        Box::new(FleetLoop::new(spec, None))
    },
};

pub const CHURN: Entry = Entry {
    name: "fleet_churn",
    why: "a 40k-stripe drain under churn with escalation and a journal: requeues, the loss ledger and per-record journal flushes, beside fleet_drain's read-only loop",
    build: |seed, size, out_dir| {
        let spec = FleetSpec {
            stripes: size.pick(40_000, 10_000),
            racks: 125,
            churn_rate: 0.02,
            escalate: true,
            seed: gen::derive(seed, 5, 0),
            ..FleetSpec::default()
        };
        Box::new(FleetLoop::new(spec, Some(out_dir.join("fleet_churn.journal"))))
    },
};

/// One operation = one full drain of the same backlog.
struct FleetLoop {
    spec: FleetSpec,
    journal: Option<PathBuf>,
    /// `FleetSummary::to_json` of the first drain.
    first: Option<String>,
    identical: bool,
}

impl FleetLoop {
    fn new(spec: FleetSpec, journal: Option<PathBuf>) -> FleetLoop {
        spec.validate();
        // Pre-flight at 1/100 size: lazy initialisation is paid in set-up.
        let small = FleetSpec {
            stripes: spec.stripes / 100,
            ..spec.clone()
        };
        std::hint::black_box(run_fleet_with(&small, FleetIo::default(), rpr_obs::noop()));
        FleetLoop {
            spec,
            journal,
            first: None,
            identical: true,
        }
    }

    fn drain(
        &self,
        journal: Option<&Path>,
        span: &'static str,
        tr: &mut Tracer,
    ) -> Result<FleetOutcome, String> {
        let journal = match journal {
            Some(p) => Some(RefCell::new(
                FleetJournal::create(p, self.spec.seed, self.spec.stripes)
                    .map_err(|e| format!("journal {}: {e}", p.display()))?,
            )),
            None => None,
        };
        let io = FleetIo {
            journal: journal.as_ref(),
            resume: None,
        };
        Ok(tr.span(span, |_| run_fleet_with(&self.spec, io, rpr_obs::noop())))
    }
}

impl Workload for FleetLoop {
    fn warmup_ops(&self) -> usize {
        1
    }

    fn op(&mut self, _i: usize, tr: &mut Tracer) -> Result<(), String> {
        let out = self.drain(self.journal.as_deref(), "sched.run_fleet", tr)?;
        let s = &out.summary;
        if s.repaired + s.lost != s.stripes || s.stripes != self.spec.stripes {
            return Err(format!(
                "{} repaired + {} lost != {} enqueued",
                s.repaired, s.lost, s.stripes
            ));
        }
        if s.mismatched_releases != 0 {
            return Err(format!("{} mismatched releases", s.mismatched_releases));
        }
        tr.count("sched.fleet_makespan_s", s.makespan);
        tr.count("sched.stripes_lost", s.lost as f64);
        tr.count("sched.classes", out.classes as f64);
        tr.count("sched.waited", s.waited as f64);
        tr.count("sched.max_utilization", out.max_utilization);
        tr.count("sched.churn_events", s.churn_failures as f64);
        tr.count("sched.escalations", s.escalations as f64);
        if let Some(p) = &self.journal {
            let bytes = std::fs::metadata(p).map_err(|e| format!("{}: {e}", p.display()))?;
            tr.count("sched.journal_bytes", bytes.len() as f64);
        }
        let json = s.to_json();
        match &self.first {
            None => self.first = Some(json),
            Some(first) => self.identical &= *first == json,
        }
        Ok(())
    }

    /// The same drain without the journal, so the journal's cost shows.
    fn after_trace(&mut self, tr: &mut Tracer) {
        if self.journal.is_some() {
            let _ = self.drain(None, "sched.drain_without_journal", tr);
        }
    }

    fn invariants(&mut self) -> Vec<(bool, String)> {
        let mut out = vec![(
            self.identical,
            "fleet summaries differ between drains".into(),
        )];
        if let Some(p) = &self.journal {
            let replay = JournalReplay::load(p);
            let ok = matches!(&replay, Ok(r) if r.stripes == self.spec.stripes && !r.truncated);
            out.push((
                ok,
                format!("journal does not parse back: {:?}", replay.err()),
            ));
        }
        out
    }
}
