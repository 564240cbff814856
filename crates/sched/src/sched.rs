//! The fleet admission loop: a deterministic virtual-clock scheduler
//! driving the stripe index and the bandwidth arbiter.
//!
//! Jobs enter the index at their [`FleetJob::arrival`] time (0 for the
//! backlog; later for failures detected mid-drain, enqueued when the
//! clock reaches them, never deferred to a next run). The loop then
//! alternates between two moves:
//!
//! 1. **Admit** — while the index head's (clamped) demand fits under the
//!    arbiter, pop it, reserve, and schedule its completion at
//!    `now + duration`. Admission is strictly head-of-line: nothing
//!    behind the head is ever admitted before it, so a level-`z−1`
//!    stripe can never jump a runnable level-`z` stripe (priority
//!    inversion is impossible by construction).
//! 2. **Advance** — when the head is blocked (or the queue is empty),
//!    jump the clock to the earlier of the next in-flight completion
//!    (releasing its reservations) and the next arrival (enqueuing it).
//!
//! **Timing model.** An admitted repair reserves its stand-alone peak
//! link rates for its stand-alone duration. Because the arbiter never
//! over-commits any link, every admitted repair runs at exactly the
//! rates its plan assumed on an idle cluster — so contention changes
//! *when* a repair starts, never how long it takes or which plan it
//! uses. MTTR under contention = admission wait + idle-cluster repair
//! time.
//!
//! Under churn ([`drain_fleet`]) each hit draws its victims from an
//! order-statistic live set: O(log n) per victim, never a backlog scan.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;

use rpr_faults::{ChurnProcess, SplitMix64};
use rpr_obs::{Event, Recorder};

use crate::arbiter::{BandwidthArbiter, Demand};
use crate::index::StripeIndex;
use crate::journal::{CostRec, FleetJournal};

/// One schedulable unit of fleet work: a stripe whose repair plan has
/// been built and costed.
#[derive(Clone, Debug)]
pub struct FleetJob {
    /// Fleet-wide stripe id (reported in records and events).
    pub stripe: u32,
    /// At-risk level = number of failed blocks; higher repairs first.
    pub level: usize,
    /// Stand-alone repair time in seconds (idle-cluster supervised sim).
    pub duration: f64,
    /// Cross-rack bytes the repair moves.
    pub cross_bytes: u64,
    /// Inner-rack bytes the repair moves.
    pub inner_bytes: u64,
    /// Fleet-clock seconds when the stripe's failure is detected: 0 for
    /// the pre-existing backlog, later for failures that arrive while
    /// the drain is already running.
    pub arrival: f64,
}

impl FleetJob {
    /// A backlog stripe (arrival 0) priced by its cost record.
    pub fn costed(stripe: u32, level: usize, cost: &CostRec) -> FleetJob {
        FleetJob {
            stripe,
            level,
            duration: cost.dur,
            cross_bytes: cost.cross,
            inner_bytes: cost.inner,
            arrival: 0.0,
        }
    }
}

/// Per-stripe outcome of a fleet run.
#[derive(Clone, Debug, PartialEq)]
pub struct StripeRecord {
    /// Fleet-wide stripe id.
    pub stripe: u32,
    /// At-risk level the stripe was served at.
    pub level: usize,
    /// Fleet-clock seconds when the repair was admitted.
    pub admitted: f64,
    /// Fleet-clock seconds when the repair finished. Its MTTR is
    /// `finish − arrival`.
    pub finish: f64,
    /// Seconds spent queued between arrival and admission.
    pub waited: f64,
}

/// Aggregate results of a fleet run — the numbers the `fleet-scale`
/// experiment tables and `rpr fleet --json` report.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSummary {
    /// Stripes enqueued.
    pub stripes: usize,
    /// Stripes repaired. Equals `stripes` except under churn, where
    /// permanently lost stripes are accounted in `lost` instead
    /// (`repaired + lost == stripes` always holds).
    pub repaired: usize,
    /// Fleet-clock seconds until the last repair finished.
    pub makespan: f64,
    /// Sustained repair throughput in stripes per fleet-clock second.
    pub stripes_per_sec: f64,
    /// Sustained repair traffic in bytes per fleet-clock second
    /// (cross + inner).
    pub bytes_per_sec: f64,
    /// Median time-to-repair in seconds (nearest-rank).
    pub mttr_p50: f64,
    /// 99th-percentile time-to-repair in seconds (nearest-rank).
    pub mttr_p99: f64,
    /// Mean time-to-repair in seconds.
    pub mttr_mean: f64,
    /// Stripes whose admission was delayed by bandwidth contention.
    pub waited: usize,
    /// Longest admission wait in seconds.
    pub max_wait: f64,
    /// Mean admission wait in seconds over all stripes.
    pub mean_wait: f64,
    /// Total cross-rack bytes moved.
    pub cross_bytes: u64,
    /// Total inner-rack bytes moved.
    pub inner_bytes: u64,
    /// Releases during this drain that did not match an admitted
    /// reservation (see [`BandwidthArbiter::mismatched_releases`]).
    /// Always zero for a healthy scheduler; soaks assert on it.
    pub mismatched_releases: u64,
    /// Stripes permanently lost: churn pushed them past the code's
    /// parity count (`z > r`) before their repair finished. Always
    /// `repaired + lost == stripes`.
    pub lost: usize,
    /// Risk escalations applied by the drain (queued re-prioritizations
    /// plus in-flight supervisor handoffs).
    pub escalations: usize,
    /// Individual churn block-failures that hit live stripes mid-drain.
    pub churn_failures: usize,
}

impl FleetSummary {
    /// One-line JSON rendering with a stable field order. Two runs with
    /// the same seed produce byte-identical output (all values are
    /// computed deterministically and formatted with Rust's default
    /// shortest-roundtrip float formatting).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"stripes\":{}", self.stripes);
        let _ = write!(s, ",\"repaired\":{}", self.repaired);
        let _ = write!(s, ",\"makespan\":{}", self.makespan);
        let _ = write!(s, ",\"stripes_per_sec\":{}", self.stripes_per_sec);
        let _ = write!(s, ",\"bytes_per_sec\":{}", self.bytes_per_sec);
        let _ = write!(s, ",\"mttr_p50\":{}", self.mttr_p50);
        let _ = write!(s, ",\"mttr_p99\":{}", self.mttr_p99);
        let _ = write!(s, ",\"mttr_mean\":{}", self.mttr_mean);
        let _ = write!(s, ",\"waited\":{}", self.waited);
        let _ = write!(s, ",\"max_wait\":{}", self.max_wait);
        let _ = write!(s, ",\"mean_wait\":{}", self.mean_wait);
        let _ = write!(s, ",\"cross_bytes\":{}", self.cross_bytes);
        let _ = write!(s, ",\"inner_bytes\":{}", self.inner_bytes);
        let _ = write!(s, ",\"mismatched_releases\":{}", self.mismatched_releases);
        let _ = write!(s, ",\"lost\":{}", self.lost);
        let _ = write!(s, ",\"escalations\":{}", self.escalations);
        let _ = write!(s, ",\"churn_failures\":{}", self.churn_failures);
        s.push('}');
        s
    }
}

/// One permanently lost stripe: churn pushed it past the code's parity
/// count before its repair finished.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LostStripe {
    /// Fleet-wide stripe id.
    pub stripe: u32,
    /// At-risk level at the moment of loss (parity count + 1 or more).
    pub level: usize,
    /// Fleet-clock seconds when the fatal churn hit landed.
    pub t: f64,
}

/// Result of [`schedule_fleet`] / [`drain_fleet`]: the summary plus
/// per-stripe records.
#[derive(Clone, Debug)]
pub struct AdmissionOutcome {
    /// Aggregate fleet numbers.
    pub summary: FleetSummary,
    /// One record per **repaired** job, in the input job order. Without
    /// churn every job is repaired, so this aligns positionally with
    /// the job slice; lost stripes are in `lost` instead.
    pub records: Vec<StripeRecord>,
    /// Permanent-loss ledger, in loss order.
    pub lost: Vec<LostStripe>,
}

/// The costed shape of one repair at one at-risk level, materialized
/// when a stripe reaches the queue head (or escalates mid-flight):
/// stand-alone duration, bytes moved, and clamped bandwidth demand.
#[derive(Clone, Debug)]
pub struct JobCost {
    /// Stand-alone repair time in seconds (idle-cluster supervised sim).
    pub duration: f64,
    /// Cross-rack bytes the repair moves.
    pub cross_bytes: u64,
    /// Inner-rack bytes the repair moves.
    pub inner_bytes: u64,
    /// Peak per-link rates the repair reserves while admitted.
    pub demand: Demand,
}

/// Churn co-simulation knobs for [`drain_fleet`].
#[derive(Clone, Debug)]
pub struct ChurnOptions {
    /// The seeded failure arrival stream, co-simulated on the drain's
    /// virtual clock.
    pub process: ChurnProcess,
    /// Highest repairable at-risk level (the code's parity count `r`).
    /// A stripe pushed past it is permanently lost.
    pub max_level: usize,
    /// `true`: each churn hit escalates the victim's priority (queued
    /// stripes requeue at the higher level; in-flight stripes hand the
    /// failure to the running supervisor). `false`: risk still rises —
    /// and `z > r` still loses the stripe — but admission order ignores
    /// it (the baseline policy the `churn` experiments table contrasts).
    pub escalate: bool,
}

/// Optional drain extensions: churn co-simulation and the write-ahead
/// journal. `DrainOptions::default()` is exactly [`schedule_fleet`].
#[derive(Default)]
pub struct DrainOptions<'a> {
    /// Co-simulate a failure arrival stream with the drain.
    pub churn: Option<ChurnOptions>,
    /// Append every scheduling decision to this write-ahead journal
    /// (shared with the costing layer via `RefCell`, which also writes
    /// per-stripe cost records into it).
    pub journal: Option<&'a RefCell<FleetJournal>>,
}

/// Total order on completion times for the virtual-clock heap.
#[derive(PartialEq)]
struct TimeKey(f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Drain a backlog of repair jobs through the arbiter on a virtual
/// clock. See the [module docs](self) for the admission discipline and
/// timing model.
///
/// `demand_of(job_index)` materializes the clamped bandwidth demand of
/// a job when it reaches the queue head; the scheduler holds at most
/// one demand per in-flight repair, so a million-stripe backlog never
/// materializes a million demand vectors at once.
///
/// # Panics
/// Panics if a job's duration is negative or NaN, or a demand is not
/// admissible on an idle arbiter (clamp demands to capacity first).
pub fn schedule_fleet(
    jobs: &[FleetJob],
    demand_of: &mut dyn FnMut(usize) -> Demand,
    arbiter: &mut BandwidthArbiter,
    rec: &dyn Recorder,
) -> AdmissionOutcome {
    drain_fleet(
        jobs,
        &mut |i, _level| JobCost {
            duration: jobs[i].duration,
            cross_bytes: jobs[i].cross_bytes,
            inner_bytes: jobs[i].inner_bytes,
            demand: demand_of(i),
        },
        arbiter,
        DrainOptions::default(),
        rec,
    )
}

/// [`schedule_fleet`] extended for a world that keeps failing while it
/// repairs: co-simulated churn arrivals, O(1) risk escalation, a
/// permanent-loss ledger, and write-ahead journaling.
///
/// `cost_of(job, level)` materializes the repair cost of a job *at a
/// given at-risk level* — called at admission with the job's current
/// level, and again when an in-flight stripe escalates (the supervisor
/// absorbs the new failure: the running repair stretches by the cost
/// difference between the two levels instead of restarting). With
/// [`DrainOptions::default()`] the loop is bit-identical to
/// [`schedule_fleet`].
///
/// Churn hits land on live stripes (queued or in-flight), drawn
/// deterministically from the event's seed. A hit raises the victim's
/// level; under the escalation policy queued victims requeue at the
/// higher level (strict level ordering preserved, O(1) via the index's
/// lazy requeue) and in-flight victims stretch. A victim pushed past
/// [`ChurnOptions::max_level`] is **permanently lost**: counted, evented
/// (`stripe_lost`), journaled, and removed from the drain — never
/// retried forever. The invariant `repaired + lost == enqueued` holds on
/// every exit.
///
/// # Panics
/// Panics if a job's duration is negative or NaN, a demand is not
/// admissible on an idle arbiter, or a journal write fails.
pub fn drain_fleet(
    jobs: &[FleetJob],
    cost_of: &mut dyn FnMut(usize, usize) -> JobCost,
    arbiter: &mut BandwidthArbiter,
    opts: DrainOptions<'_>,
    rec: &dyn Recorder,
) -> AdmissionOutcome {
    let DrainOptions { churn, journal } = opts;
    let mut churn = churn;
    let loss_level = churn.as_ref().map(|c| c.max_level).unwrap_or(usize::MAX);
    let base_max = jobs.iter().map(|j| j.level).max().unwrap_or(1).max(1);
    let index_max = if churn.is_some() {
        base_max.max(loss_level)
    } else {
        base_max
    };
    let mut index = StripeIndex::new(index_max, jobs.len());
    // Jobs not yet arrived, ascending by arrival time (ties in job
    // order); `next_due` walks this list as the clock advances.
    let mut due: Vec<u32> = (0..jobs.len() as u32).collect();
    due.sort_by(|&a, &b| {
        jobs[a as usize]
            .arrival
            .total_cmp(&jobs[b as usize].arrival)
            .then(a.cmp(&b))
    });
    for (i, job) in jobs.iter().enumerate() {
        assert!(
            job.duration >= 0.0,
            "drain_fleet: job {i} has invalid duration"
        );
        assert!(
            job.arrival >= 0.0 && job.arrival.is_finite(),
            "drain_fleet: job {i} has invalid arrival"
        );
    }
    let mut next_due = 0usize;
    let mismatch_base = arbiter.mismatched_releases();

    // Per-job drain state. `level` is the authoritative at-risk level
    // (the index's copy goes stale under the no-escalation policy);
    // `finish_at` is the authoritative completion time of in-flight
    // jobs — escalations push updated heap entries and stale ones are
    // dropped lazily, mirroring the index's O(1) requeue.
    let mut level: Vec<usize> = jobs.iter().map(|j| j.level).collect();
    let mut finish_at: Vec<f64> = vec![f64::NAN; jobs.len()];
    let mut dur_standalone: Vec<f64> = vec![0.0; jobs.len()];
    let mut bytes: Vec<(u64, u64)> = jobs
        .iter()
        .map(|j| (j.cross_bytes, j.inner_bytes))
        .collect();
    // The live jobs churn hits; without churn it stays a one-slot tree.
    let mut live = LiveSet(vec![0; if churn.is_some() { jobs.len() + 1 } else { 1 }]);
    let mut lost_flag: Vec<bool> = vec![false; jobs.len()];
    let mut lost: Vec<LostStripe> = Vec::new();
    let mut escalations = 0usize;
    let mut churn_failures = 0usize;
    let mut churn_next = churn.as_mut().and_then(|c| c.process.next_event());

    let mut now = 0.0f64;
    // Earliest-completion heap of (finish, job index); reservations of
    // in-flight jobs are parked in `holding` until released.
    let mut running: BinaryHeap<Reverse<(TimeKey, u32)>> = BinaryHeap::new();
    let mut holding: Vec<Option<Demand>> = vec![None; jobs.len()];
    let mut records: Vec<Option<StripeRecord>> = vec![None; jobs.len()];
    let mut makespan = 0.0f64;
    // The clamped cost of the queue head `try_admit` last turned away,
    // keyed by `(job, level)`: it stays the head until bandwidth frees
    // up, and `cost_of` is pure. An escalation changes the level and a
    // loss tombstones the head, so neither can reuse a stale cost.
    let mut blocked: Option<(usize, usize, JobCost)> = None;

    loop {
        // Re-scan arrivals: failures detected by now enter the live
        // index (mid-drain arrivals are never deferred to a next run).
        while next_due < due.len() && jobs[due[next_due] as usize].arrival <= now {
            let i = due[next_due];
            next_due += 1;
            let job = &jobs[i as usize];
            live.update(i as usize, 1);
            index.enqueue(i, job.level);
            rec.emit(|| Event::StripeEnqueued {
                stripe: job.stripe as u64,
                level: job.level,
                t: job.arrival,
            });
            if let Some(j) = journal {
                j.borrow_mut().enqueue(job.stripe, job.level, job.arrival);
            }
        }
        // Admit as much of the queue head as fits right now.
        while let Some((head, _)) = index.peek() {
            let i = head as usize;
            if lost_flag[i] {
                // Lost while queued: the index entry is a tombstone.
                index.pop();
                continue;
            }
            let lvl = level[i];
            let cost = match blocked.take() {
                Some((j, l, cost)) if (j, l) == (i, lvl) => cost,
                _ => {
                    let mut cost = cost_of(i, lvl);
                    arbiter.clamp(&mut cost.demand);
                    cost
                }
            };
            if !arbiter.try_admit(&cost.demand) {
                if !has_running(&mut running, &finish_at, &holding) {
                    panic!(
                        "drain_fleet: job {i} inadmissible on an idle arbiter \
                         (demand exceeds clamped capacity)"
                    );
                }
                blocked = Some((i, lvl, cost));
                break;
            }
            index.pop();
            let job = &jobs[i];
            let waited = now - job.arrival;
            rec.emit(|| Event::StripeAdmitted {
                stripe: job.stripe as u64,
                level: lvl,
                t: now,
            });
            if waited > 0.0 {
                rec.emit(|| Event::BandwidthWaited {
                    stripe: job.stripe as u64,
                    level: lvl,
                    waited,
                    t: now,
                });
            }
            if let Some(j) = journal {
                j.borrow_mut().admit(job.stripe, lvl, now, waited);
            }
            let finish = now + cost.duration;
            dur_standalone[i] = cost.duration;
            bytes[i] = (cost.cross_bytes, cost.inner_bytes);
            records[i] = Some(StripeRecord {
                stripe: job.stripe,
                level: lvl,
                admitted: now,
                finish,
                waited,
            });
            holding[i] = Some(cost.demand);
            finish_at[i] = finish;
            running.push(Reverse((TimeKey(finish), head)));
        }
        // Advance the clock to the next completion, the next arrival, or
        // the next churn hit, whichever is earlier.
        let next_arrival = due
            .get(next_due)
            .map(|&i| jobs[i as usize].arrival)
            .unwrap_or(f64::INFINITY);
        let next_churn = churn_next.as_ref().map(|e| e.t).unwrap_or(f64::INFINITY);
        prune_stale(&mut running, &finish_at, &holding);
        let next_completion = running.peek().map(|&Reverse((TimeKey(f), i))| (f, i));
        match next_completion {
            Some((finish, idx)) if finish <= next_arrival && finish <= next_churn => {
                running.pop();
                now = finish;
                makespan = makespan.max(finish);
                let i = idx as usize;
                let demand = holding[i].take().expect("in-flight demand");
                arbiter.release(&demand);
                finish_at[i] = f64::NAN;
                live.update(i, -1);
                // Refresh level/finish: an in-flight escalation may have
                // raised both since admission.
                let r = records[i].as_mut().expect("admitted record");
                r.level = level[i];
                r.finish = finish;
                if let Some(j) = journal {
                    let cp = j
                        .borrow_mut()
                        .complete(r.stripe, r.level, r.admitted, r.finish, r.waited);
                    if let Some(cp) = cp {
                        rec.emit(|| Event::JournalCheckpoint {
                            seq: cp.seq,
                            completed: cp.completed,
                            lost: cp.lost,
                            t: now,
                        });
                    }
                }
            }
            blocked => {
                if blocked.is_none() && next_due >= due.len() && index.is_empty() {
                    // Backlog drained: stop even if the churn stream
                    // continues — there is nothing left for it to hit.
                    break;
                }
                if next_churn <= next_arrival && next_churn.is_finite() {
                    let ev = churn_next.take().expect("finite churn time");
                    let c = churn.as_mut().expect("churn options present");
                    churn_next = c.process.next_event();
                    now = ev.t;
                    apply_churn_hit(ChurnHit {
                        jobs,
                        ev: &ev,
                        escalate: c.escalate,
                        loss_level,
                        cost_of,
                        rec,
                        journal,
                        index: &mut index,
                        running: &mut running,
                        arbiter,
                        level: &mut level,
                        finish_at: &mut finish_at,
                        dur_standalone: &mut dur_standalone,
                        bytes: &mut bytes,
                        live: &mut live,
                        lost_flag: &mut lost_flag,
                        lost: &mut lost,
                        holding: &mut holding,
                        records: &mut records,
                        escalations: &mut escalations,
                        churn_failures: &mut churn_failures,
                    });
                } else if next_arrival.is_finite() {
                    now = next_arrival;
                } else {
                    break;
                }
            }
        }
    }
    if let Some(j) = journal {
        j.borrow_mut().flush();
    }

    let mut repaired: Vec<StripeRecord> = Vec::with_capacity(jobs.len() - lost.len());
    let mut mttr: Vec<f64> = Vec::with_capacity(jobs.len());
    let mut cross_total = 0u64;
    let mut inner_total = 0u64;
    for i in 0..jobs.len() {
        match records[i].take() {
            Some(r) => {
                mttr.push(r.finish - jobs[i].arrival);
                cross_total += bytes[i].0;
                inner_total += bytes[i].1;
                repaired.push(r);
            }
            None => assert!(
                lost_flag[i],
                "drain_fleet: stripe {i} neither repaired nor lost"
            ),
        }
    }
    mttr.sort_by(f64::total_cmp);
    let mut summary = summarize(SummaryParts {
        stripes: jobs.len(),
        records: &repaired,
        mttr_sorted: &mttr,
        cross_bytes: cross_total,
        inner_bytes: inner_total,
        makespan,
        lost: lost.len(),
        escalations,
        churn_failures,
    });
    summary.mismatched_releases = arbiter.mismatched_releases() - mismatch_base;
    AdmissionOutcome {
        summary,
        records: repaired,
        lost,
    }
}

/// Everything one churn arrival needs to mutate; bundling the drain's
/// state keeps `apply_churn_hit` a plain function instead of a closure
/// fighting the borrow checker.
struct ChurnHit<'a, 'b> {
    jobs: &'a [FleetJob],
    ev: &'a rpr_faults::ChurnEvent,
    escalate: bool,
    loss_level: usize,
    cost_of: &'a mut dyn FnMut(usize, usize) -> JobCost,
    rec: &'a dyn Recorder,
    journal: Option<&'b RefCell<FleetJournal>>,
    index: &'a mut StripeIndex,
    running: &'a mut BinaryHeap<Reverse<(TimeKey, u32)>>,
    arbiter: &'a mut BandwidthArbiter,
    level: &'a mut [usize],
    finish_at: &'a mut [f64],
    dur_standalone: &'a mut [f64],
    bytes: &'a mut [(u64, u64)],
    live: &'a mut LiveSet,
    lost_flag: &'a mut [bool],
    lost: &'a mut Vec<LostStripe>,
    holding: &'a mut [Option<Demand>],
    records: &'a mut [Option<StripeRecord>],
    escalations: &'a mut usize,
    churn_failures: &'a mut usize,
}

/// Land one churn arrival on the live stripe population: draw distinct
/// victims, raise their levels, escalate or lose them.
fn apply_churn_hit(h: ChurnHit<'_, '_>) {
    let t = h.ev.t;
    // Every victim is drawn before the first loss leaves the live set.
    for idx in h.live.draw(h.ev.draw, h.ev.kind.victims()) {
        let i = idx as usize;
        let stripe = h.jobs[i].stripe;
        *h.churn_failures += 1;
        let from = h.level[i];
        let to = from + 1;
        h.rec.emit(|| Event::ChurnFailure {
            stripe: stripe as u64,
            level: to,
            t,
        });
        if to > h.loss_level {
            // Permanent loss: past the parity count no plan can rebuild
            // the stripe. Ledger it and stop spending repair bandwidth.
            h.lost_flag[i] = true;
            h.live.update(i, -1);
            h.lost.push(LostStripe {
                stripe,
                level: to,
                t,
            });
            h.rec.emit(|| Event::StripeLost {
                stripe: stripe as u64,
                level: to,
                t,
            });
            if let Some(j) = h.journal {
                j.borrow_mut().lost(stripe, to, t);
            }
            if let Some(demand) = h.holding[i].take() {
                // Cancel the now-moot in-flight repair and free its
                // bandwidth immediately; its heap entry goes stale.
                h.arbiter.release(&demand);
                h.finish_at[i] = f64::NAN;
                h.records[i] = None;
            }
            continue;
        }
        h.level[i] = to;
        if !h.escalate {
            // Risk rises (and can still cross into loss) but admission
            // order ignores it — the baseline policy the churn table
            // contrasts against.
            continue;
        }
        *h.escalations += 1;
        let in_flight = h.holding[i].is_some();
        h.rec.emit(|| Event::RiskEscalated {
            stripe: stripe as u64,
            from,
            to,
            in_flight,
            t,
        });
        if let Some(j) = h.journal {
            j.borrow_mut().escalate(stripe, from, to, in_flight, t);
        }
        if in_flight {
            // Hand the new failure to the running repair's supervisor
            // (the PR 4 storm path): banked partials are kept, so the
            // repair stretches by the extra stand-alone cost of the
            // higher level instead of restarting from scratch.
            let cost = (h.cost_of)(i, to);
            let delta = (cost.duration - h.dur_standalone[i]).max(0.0);
            h.dur_standalone[i] = cost.duration;
            h.bytes[i] = (cost.cross_bytes, cost.inner_bytes);
            let nf = h.finish_at[i] + delta;
            h.finish_at[i] = nf;
            h.running.push(Reverse((TimeKey(nf), idx)));
        } else {
            // O(1) lazy requeue at the higher level; strict level
            // ordering is preserved by the index.
            h.index.requeue(idx, to);
        }
    }
}

/// The live jobs (arrived, not lost, not completed) as an order-statistic
/// set: a Fenwick tree of 0/1 counts over job indices, slot `p` summing
/// the `p & -p` jobs below `p` and slot 0 counting all.
struct LiveSet(Vec<i32>);

impl LiveSet {
    /// Add job `i` (`delta = 1`) or remove it (`delta = -1`).
    fn update(&mut self, i: usize, delta: i32) {
        self.0[0] += delta;
        let mut p = i + 1;
        while p < self.0.len() {
            self.0[p] += delta;
            p += p & p.wrapping_neg();
        }
    }

    /// The member of 0-based `rank` in ascending job order.
    fn select(&self, mut rank: i32) -> u32 {
        let mut pos = 0;
        for step in (0..=self.0.len().ilog2()).rev().map(|b| 1 << b) {
            if pos + step < self.0.len() && self.0[pos + step] <= rank {
                pos += step;
                rank -= self.0[pos];
            }
        }
        pos as u32
    }

    /// Up to `n` distinct members drawn from `SplitMix64::new(seed)`: the
    /// same ones, in the same order, as `pick` then `swap_remove` on the
    /// ascending member vector, whose refilled slots overlay `select`.
    fn draw(&self, seed: u64, n: usize) -> Vec<u32> {
        let (mut rng, mut len) = (SplitMix64::new(seed), self.0[0] as usize);
        let mut refilled: Vec<(usize, u32)> = Vec::new();
        (0..n.min(len))
            .map(|_| {
                let slot = rng.pick(len);
                len -= 1;
                let at = |s: usize| match refilled.iter().rev().find(|r| r.0 == s) {
                    Some(&(_, job)) => job,
                    None => self.select(s as i32),
                };
                let (victim, last) = (at(slot), at(len));
                refilled.push((slot, last));
                victim
            })
            .collect()
    }
}

/// Drop completion-heap entries invalidated by an escalation (a newer
/// finish entry exists) or a mid-flight loss (the repair was cancelled).
fn prune_stale(
    running: &mut BinaryHeap<Reverse<(TimeKey, u32)>>,
    finish_at: &[f64],
    holding: &[Option<Demand>],
) {
    while let Some(&Reverse((TimeKey(f), idx))) = running.peek() {
        let i = idx as usize;
        if holding[i].is_some() && finish_at[i].to_bits() == f.to_bits() {
            break;
        }
        running.pop();
    }
}

fn has_running(
    running: &mut BinaryHeap<Reverse<(TimeKey, u32)>>,
    finish_at: &[f64],
    holding: &[Option<Demand>],
) -> bool {
    prune_stale(running, finish_at, holding);
    !running.is_empty()
}

/// Inputs to [`summarize`], bundled to keep the call site readable.
struct SummaryParts<'a> {
    stripes: usize,
    records: &'a [StripeRecord],
    mttr_sorted: &'a [f64],
    cross_bytes: u64,
    inner_bytes: u64,
    makespan: f64,
    lost: usize,
    escalations: usize,
    churn_failures: usize,
}

/// Aggregate per-stripe records into a [`FleetSummary`].
fn summarize(parts: SummaryParts<'_>) -> FleetSummary {
    let waits: Vec<f64> = parts.records.iter().map(|r| r.waited).collect();
    let waited = waits.iter().filter(|&&w| w > 0.0).count();
    let makespan = parts.makespan;
    FleetSummary {
        stripes: parts.stripes,
        repaired: parts.records.len(),
        makespan,
        stripes_per_sec: if makespan > 0.0 {
            parts.records.len() as f64 / makespan
        } else {
            0.0
        },
        bytes_per_sec: if makespan > 0.0 {
            (parts.cross_bytes + parts.inner_bytes) as f64 / makespan
        } else {
            0.0
        },
        mttr_p50: quantile(parts.mttr_sorted, 0.50),
        mttr_p99: quantile(parts.mttr_sorted, 0.99),
        mttr_mean: mean(parts.mttr_sorted),
        waited,
        max_wait: waits.iter().fold(0.0, |a: f64, &b| a.max(b)),
        mean_wait: mean(&waits),
        cross_bytes: parts.cross_bytes,
        inner_bytes: parts.inner_bytes,
        mismatched_releases: 0,
        lost: parts.lost,
        escalations: parts.escalations,
        churn_failures: parts.churn_failures,
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank quantile over an ascending-sorted sample; 0 when empty.
/// `q·len` is snapped to the nearest integer rank when float rounding
/// puts it within one ulp-scale tolerance, so e.g. `q = 0.5` over two
/// elements reliably selects rank 1 instead of spilling to rank 2.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let len = sorted.len();
    let pos = q.clamp(0.0, 1.0) * len as f64;
    let snapped = pos.round();
    let rank = if (pos - snapped).abs() < 1e-9 * (len as f64).max(1.0) {
        snapped as usize
    } else {
        pos.ceil() as usize
    };
    sorted[rank.clamp(1, len) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_netsim::Network;
    use rpr_obs::NoopRecorder;
    use rpr_topology::{BandwidthProfile, Topology, GBIT};

    fn arb() -> BandwidthArbiter {
        BandwidthArbiter::new(&Network::new(
            Topology::uniform(3, 2),
            BandwidthProfile::simics_default(3),
        ))
    }

    fn job(stripe: u32, level: usize, duration: f64) -> FleetJob {
        FleetJob {
            stripe,
            level,
            duration,
            arrival: 0.0,
            cross_bytes: 100,
            inner_bytes: 50,
        }
    }

    #[test]
    fn uncontended_jobs_all_start_at_zero() {
        let jobs = vec![job(0, 1, 2.0), job(1, 2, 3.0), job(2, 1, 1.0)];
        let mut arb = arb();
        let out = schedule_fleet(&jobs, &mut |_| Demand::default(), &mut arb, &NoopRecorder);
        assert_eq!(out.summary.repaired, 3);
        assert_eq!(out.summary.waited, 0);
        assert_eq!(out.summary.makespan, 3.0);
        for r in &out.records {
            assert_eq!(r.admitted, 0.0);
            assert_eq!(r.waited, 0.0);
        }
        // Records are in job order regardless of service order.
        assert_eq!(out.records[1].stripe, 1);
        assert_eq!(out.records[1].finish, 3.0);
    }

    #[test]
    fn saturated_link_serializes_by_level_then_fifo() {
        // Three jobs all demanding the full cross uplink of node 0: they
        // must run one at a time, the level-2 job first.
        let cross = 0.1 * GBIT;
        let jobs = vec![job(10, 1, 1.0), job(11, 2, 1.0), job(12, 1, 1.0)];
        let mut arb = arb();
        let mut demand_of = |_: usize| Demand {
            entries: vec![(BandwidthArbiter::uplink(0), cross)],
        };
        let out = schedule_fleet(&jobs, &mut demand_of, &mut arb, &NoopRecorder);
        let by_stripe = |s: u32| out.records.iter().find(|r| r.stripe == s).unwrap();
        assert_eq!(by_stripe(11).admitted, 0.0, "level 2 first");
        assert_eq!(by_stripe(10).admitted, 1.0, "then FIFO within level 1");
        assert_eq!(by_stripe(12).admitted, 2.0);
        assert_eq!(out.summary.makespan, 3.0);
        assert_eq!(out.summary.waited, 2);
        assert_eq!(out.summary.max_wait, 2.0);
        assert!(arb.total_reserved() < 1e-6, "all reservations released");
    }

    #[test]
    fn contended_drain_costs_each_admission_once() {
        // Two of these repairs fill node 0's cross uplink, so the queue
        // head is turned away after every completion but the last few;
        // its cost must be taken once, not once per attempt.
        let half = 0.05 * GBIT;
        let jobs: Vec<FleetJob> = (0..12)
            .map(|s| job(s, 1 + usize::from(s % 3 == 0), 1.0 + f64::from(s) / 4.0))
            .collect();
        let mut arb = arb();
        let mut calls = 0usize;
        let mut cost_of = |i: usize, lvl: usize| {
            calls += 1;
            JobCost {
                duration: jobs[i].duration,
                cross_bytes: jobs[i].cross_bytes * lvl as u64,
                inner_bytes: jobs[i].inner_bytes,
                demand: Demand {
                    entries: vec![(BandwidthArbiter::uplink(0), half)],
                },
            }
        };
        let out = drain_fleet(
            &jobs,
            &mut cost_of,
            &mut arb,
            DrainOptions::default(),
            &NoopRecorder,
        );
        assert_eq!(out.summary.repaired, 12);
        assert_eq!(out.summary.waited, 10, "all but the first two waited");
        assert_eq!(calls, out.records.len(), "one cost per admission");
    }

    #[test]
    fn mid_drain_failure_is_enqueued_not_dropped() {
        // Regression for the enqueue-once drain: stripe 99's failure is
        // detected at t = 0.5, after the drain has started on a
        // saturated link. It must be enqueued into the live index and
        // repaired in this run — and, being level 2, it must be served
        // ahead of the level-1 stripes still queued at its arrival.
        let cross = 0.1 * GBIT;
        let mut jobs = vec![job(10, 1, 1.0), job(11, 1, 1.0), job(12, 1, 1.0)];
        jobs.push(FleetJob {
            stripe: 99,
            level: 2,
            duration: 1.0,
            arrival: 0.5,
            cross_bytes: 100,
            inner_bytes: 50,
        });
        let mut arb = arb();
        let mut demand_of = |_: usize| Demand {
            entries: vec![(BandwidthArbiter::uplink(0), cross)],
        };
        let out = schedule_fleet(&jobs, &mut demand_of, &mut arb, &NoopRecorder);
        assert_eq!(out.summary.repaired, 4, "mid-drain arrival is repaired");
        let by_stripe = |s: u32| out.records.iter().find(|r| r.stripe == s).unwrap();
        // Stripe 10 holds the link over [0, 1); 99 arrives at 0.5 and,
        // at the t = 1 completion, outranks the queued level-1 stripes.
        assert_eq!(by_stripe(10).admitted, 0.0);
        assert_eq!(by_stripe(99).admitted, 1.0, "level 2 jumps the queue");
        assert_eq!(by_stripe(99).waited, 0.5, "waited counts from arrival");
        assert_eq!(by_stripe(11).admitted, 2.0);
        assert_eq!(by_stripe(12).admitted, 3.0);
        // MTTR is measured from arrival, not from drain start.
        assert_eq!(by_stripe(99).finish, 2.0);
        assert!(arb.total_reserved() < 1e-6, "all reservations released");
    }

    #[test]
    fn idle_clock_jumps_to_next_arrival() {
        // Nothing to do until t = 4: the scheduler must advance the
        // clock to the arrival instead of panicking on an idle arbiter.
        let jobs = vec![FleetJob {
            stripe: 7,
            level: 1,
            duration: 2.0,
            arrival: 4.0,
            cross_bytes: 100,
            inner_bytes: 50,
        }];
        let mut arb = arb();
        let out = schedule_fleet(&jobs, &mut |_| Demand::default(), &mut arb, &NoopRecorder);
        assert_eq!(out.records[0].admitted, 4.0);
        assert_eq!(out.records[0].waited, 0.0);
        assert_eq!(out.records[0].finish, 6.0);
        assert_eq!(out.summary.makespan, 6.0);
        // MTTR is finish − arrival, not absolute finish time.
        assert_eq!(out.summary.mttr_p50, 2.0);
    }

    #[test]
    fn summary_json_is_stable() {
        let jobs = vec![job(0, 1, 2.0)];
        let mut arb1 = arb();
        let mut arb2 = arb();
        let a = schedule_fleet(&jobs, &mut |_| Demand::default(), &mut arb1, &NoopRecorder);
        let b = schedule_fleet(&jobs, &mut |_| Demand::default(), &mut arb2, &NoopRecorder);
        assert_eq!(a.summary.to_json(), b.summary.to_json());
        assert!(a
            .summary
            .to_json()
            .starts_with("{\"stripes\":1,\"repaired\":1,"));
        // Churn counters are surfaced last so the established field
        // order stays a stable prefix.
        assert!(a.summary.to_json().ends_with(",\"churn_failures\":0}"));
        assert!(a.summary.to_json().contains(",\"mismatched_releases\":0,"));
        assert_eq!(a.summary.mismatched_releases, 0);
        assert_eq!(a.summary.lost, 0);
    }

    fn churned(rate: f64, seed: u64, escalate: bool, max_level: usize) -> AdmissionOutcome {
        let jobs: Vec<FleetJob> = (0..40).map(|s| job(s, 1 + (s as usize % 2), 1.0)).collect();
        let cross = 0.1 * GBIT;
        let mut arb = arb();
        let mut cost_of = |i: usize, lvl: usize| JobCost {
            duration: jobs[i].duration * lvl as f64,
            cross_bytes: jobs[i].cross_bytes * lvl as u64,
            inner_bytes: jobs[i].inner_bytes * lvl as u64,
            demand: Demand {
                entries: vec![(BandwidthArbiter::uplink(0), cross)],
            },
        };
        let opts = DrainOptions {
            churn: Some(ChurnOptions {
                process: ChurnProcess::new(seed, rate),
                max_level,
                escalate,
            }),
            journal: None,
        };
        drain_fleet(&jobs, &mut cost_of, &mut arb, opts, &NoopRecorder)
    }

    #[test]
    fn churned_drain_accounts_every_stripe() {
        // Aggressive churn with a tight loss threshold: some stripes are
        // lost, yet repaired + lost == enqueued and the arbiter drains
        // clean (cancelled in-flight repairs release their bandwidth).
        let out = churned(0.8, 42, true, 2);
        assert_eq!(out.summary.stripes, 40);
        assert_eq!(out.records.len() + out.lost.len(), 40);
        assert_eq!(out.summary.repaired + out.summary.lost, 40);
        assert!(out.summary.churn_failures > 0, "churn actually landed");
        assert_eq!(out.summary.mismatched_releases, 0);
        for l in &out.lost {
            assert!(l.level > 2, "losses only past the parity count");
        }
    }

    #[test]
    fn churned_drain_is_deterministic() {
        let a = churned(0.8, 42, true, 2);
        let b = churned(0.8, 42, true, 2);
        assert_eq!(a.summary.to_json(), b.summary.to_json());
        assert_eq!(a.records, b.records);
        assert_eq!(a.lost, b.lost);
    }

    #[test]
    fn zero_churn_drain_matches_schedule_fleet() {
        // A churn process with rate 0 never fires: the drain must be
        // bit-identical to the plain scheduler.
        let jobs = vec![job(0, 1, 2.0), job(1, 2, 3.0), job(2, 1, 1.0)];
        let mut arb1 = arb();
        let plain = schedule_fleet(&jobs, &mut |_| Demand::default(), &mut arb1, &NoopRecorder);
        let mut arb2 = arb();
        let mut cost_of = |i: usize, _lvl: usize| JobCost {
            duration: jobs[i].duration,
            cross_bytes: jobs[i].cross_bytes,
            inner_bytes: jobs[i].inner_bytes,
            demand: Demand::default(),
        };
        let opts = DrainOptions {
            churn: Some(ChurnOptions {
                process: ChurnProcess::new(9, 0.0),
                max_level: 4,
                escalate: true,
            }),
            journal: None,
        };
        let churny = drain_fleet(&jobs, &mut cost_of, &mut arb2, opts, &NoopRecorder);
        assert_eq!(plain.summary.to_json(), churny.summary.to_json());
        assert_eq!(plain.records, churny.records);
    }

    #[test]
    fn escalation_raises_priority_without_restart() {
        // One long level-1 repair holds the link; a churn hit escalates a
        // queued level-1 stripe to level 2, which must then be admitted
        // ahead of the other queued level-1 stripe. With escalation off,
        // FIFO order within level 1 is preserved instead.
        let esc = churned(0.8, 42, true, 4);
        let base = churned(0.8, 42, false, 4);
        // Escalated repairs stretch, so the drain runs longer and soaks
        // up more churn hits — but only the escalation policy counts
        // escalations.
        assert!(esc.summary.churn_failures > 0);
        assert!(base.summary.churn_failures > 0);
        assert!(esc.summary.escalations > 0);
        assert_eq!(base.summary.escalations, 0);
        // Escalated records report the level they were actually served
        // at, which can exceed the enqueue level.
        assert!(
            esc.records.iter().any(|r| r.level > 2),
            "some stripe was served above its base level"
        );
    }

    /// The victim draw the live set replaced: scan every job for the live
    /// ones, then `pick` + `swap_remove` on that ascending vector.
    fn reference_victims(
        arrived: &[bool],
        lost_flag: &[bool],
        records: &[Option<()>],
        holding: &[Option<()>],
        draw: u64,
        victims: usize,
    ) -> Vec<u32> {
        // Live = arrived, not lost, not completed (queued or in-flight).
        let mut live: Vec<u32> = (0..arrived.len() as u32)
            .filter(|&i| {
                let i = i as usize;
                arrived[i] && !lost_flag[i] && (records[i].is_none() || holding[i].is_some())
            })
            .collect();
        let mut vrng = SplitMix64::new(draw);
        let nvict = victims.min(live.len());
        (0..nvict)
            .map(|_| {
                let vi = vrng.pick(live.len());
                live.swap_remove(vi)
            })
            .collect()
    }

    #[test]
    fn live_set_draws_the_victims_the_full_scan_drew() {
        // Seeded random histories of arrivals, admissions, completions,
        // losses and 1–4-victim hits, including hits on an empty live set
        // and hits wanting more victims than there are live jobs. The
        // per-job flags move as the drain moves them.
        let (mut hits, mut short_hits, mut empty_hits) = (0, 0, 0);
        for history in 0..4000u64 {
            let mut rng = SplitMix64::new(history);
            let n = rng.pick(48);
            let mut arrived = vec![false; n];
            let mut lost_flag = vec![false; n];
            let mut records: Vec<Option<()>> = vec![None; n];
            let mut holding: Vec<Option<()>> = vec![None; n];
            let mut live = LiveSet(vec![0; n + 1]);
            for _ in 0..rng.pick(160) {
                let i = rng.pick(n.max(1));
                match rng.pick(6) {
                    0 | 1 if n > 0 && !arrived[i] => {
                        arrived[i] = true;
                        live.update(i, 1);
                    }
                    2 if n > 0 && arrived[i] && !lost_flag[i] && records[i].is_none() => {
                        (records[i], holding[i]) = (Some(()), Some(()));
                    }
                    3 if n > 0 && holding[i].is_some() => {
                        holding[i] = None;
                        live.update(i, -1);
                    }
                    4 | 5 => {
                        let (victims, draw) = (1 + rng.pick(4), rng.next_u64());
                        let want = reference_victims(
                            &arrived, &lost_flag, &records, &holding, draw, victims,
                        );
                        hits += 1;
                        short_hits += usize::from(want.len() < victims);
                        empty_hits += usize::from(live.0[0] == 0);
                        assert_eq!(live.draw(draw, victims), want, "history {history}");
                        for v in want.into_iter().map(|v| v as usize) {
                            if rng.pick(3) == 0 {
                                lost_flag[v] = true;
                                (records[v], holding[v]) = (None, None);
                                live.update(v, -1);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        assert!(hits > 100_000 && short_hits > 10_000 && empty_hits > 1_000);
    }

    #[test]
    fn quantile_nearest_rank_edge_cases() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.0), 7.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[7.0], 1.0), 7.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.0, "p50 of 2 is rank 1");
        assert_eq!(quantile(&[1.0, 2.0], 0.99), 2.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.0), 1.0, "rank 0 clamps to rank 1");
        assert_eq!(quantile(&[1.0, 2.0], 0.51), 2.0);
        // (0.1 + 0.2) * 10 = 3.0000000000000004: an unguarded ceil turns
        // that into rank 4. Nearest-rank must stay at rank 3.
        let ten: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let q = 0.1 + 0.2;
        assert!(q > 0.3, "this q must carry the classic fp excess");
        assert_eq!(quantile(&ten, q), 3.0);
    }
}
