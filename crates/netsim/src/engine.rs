//! The discrete-event engine: dependency scheduling plus max-min fair rate
//! allocation (progressive filling) over link and CPU resources.
//!
//! [`Simulator::run`] is event-driven (see the crate docs), and bit-identical
//! to the rescanning engine that `tests/differential.rs` keeps as reference.
//! [`Simulator::run_within`] is the same loop with an early exit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use crate::report::{FailSpec, FailureRecord, JobRecord, SimReport};
use crate::{JobId, JobKind, Network};

/// Relative tolerance for "work finished" comparisons.
const EPS: f64 = 1e-9;

/// Relative margin by which a bounded run's floor must pass its limit.
const BOUND_SLACK: f64 = 1e-6;

/// The most resources one job draws from (a cross-rack transfer's).
const MAX_RESOURCES: usize = 5;

#[derive(Clone, Debug)]
struct Job {
    kind: JobKind,
    label: String,
    /// Its dependencies: `Simulator::deps[deps]`.
    deps: Range<u32>,
    /// Resource indices this job draws from while active (the first `resource_count`).
    resources: [u32; MAX_RESOURCES],
    resource_count: u8,
    /// Per-job rate ceiling (pair rate for transfers, 1.0 for computes).
    rate_cap: f64,
    /// Remaining work: bytes for transfers, CPU-seconds for computes.
    remaining: f64,
    /// Total work of one attempt (restored when an attempt fails).
    total: f64,
    /// Injected one-shot attempt failures, consumed in order.
    fails: Vec<FailSpec>,
    /// Index of the next unconsumed entry in `fails`.
    next_fail: usize,
    /// Earliest time a retry may start (0 until a failure fires).
    resume_at: f64,
    /// Failed attempts so far, for the report.
    failures: Vec<FailureRecord>,
    start: f64,
    finish: f64,
}

impl Job {
    fn has_pending_fail(&self) -> bool {
        self.next_fail < self.fails.len()
    }

    fn resources(&self) -> &[u32] {
        &self.resources[..usize::from(self.resource_count)]
    }
}

/// A dependency-DAG simulator over a [`Network`].
///
/// Build jobs with [`Simulator::transfer`] / [`Simulator::compute`], wire
/// dependencies, then [`Simulator::run`] to completion.
///
/// ```
/// use rpr_netsim::{Network, Simulator};
/// use rpr_topology::{BandwidthProfile, NodeId, Topology};
///
/// // Two racks of two nodes: 100 B/s inner, 10 B/s cross.
/// let net = Network::new(
///     Topology::uniform(2, 2),
///     BandwidthProfile::uniform(2, 100.0, 10.0),
/// );
/// let mut sim = Simulator::new(net);
/// let a = sim.transfer("inner", NodeId(0), NodeId(1), 500, &[]);
/// let b = sim.transfer("cross", NodeId(1), NodeId(2), 100, &[a]);
/// let _ = sim.compute("decode", NodeId(2), 1.0, &[b]);
/// let report = sim.run();
/// // 5 s inner, then 10 s cross, then 1 s compute.
/// assert!((report.makespan - 16.0).abs() < 1e-9);
/// ```
pub struct Simulator {
    net: Network,
    jobs: Vec<Job>,
    /// Every job's dependencies, job by job (each job keeps its range).
    deps: Vec<u32>,
    /// capacity per resource (bytes/sec for links, 1.0 for CPUs).
    capacity: Vec<f64>,
}

/// Resource layout per node: uplink, downlink, cross-class uplink,
/// cross-class downlink, CPU.
const RES_PER_NODE: usize = 5;

/// Per-run state: unfinished dependencies per job, dependents in CSR form,
/// the active set (in id order once sorted), and `allocate`'s buffers.
struct Run {
    waiting_on: Vec<u32>,
    /// Job `i`'s dependents are `dependents[first_dependent[i]..first_dependent[i + 1]]`.
    first_dependent: Vec<u32>,
    dependents: Vec<u32>,
    active: Vec<usize>,
    /// Readied jobs waiting for `resume_at`, earliest first: `(resume_at bits, id)`.
    wake: BinaryHeap<Reverse<(u64, usize)>>,
    /// One rate per active job: `allocate`'s result.
    rate: Vec<f64>,
    /// Positions in `active` of the jobs `allocate` has not frozen yet.
    unfrozen: Vec<usize>,
    /// Per resource; valid for the `touched` ones, which the active jobs use.
    cap_left: Vec<f64>,
    /// Unfrozen users per resource; all zero between calls.
    users: Vec<usize>,
    touched: Vec<usize>,
    /// Outstanding work per resource (crate docs); empty when unbounded.
    work: Vec<f64>,
}

impl Run {
    /// A job's remaining work changed by `delta`: so did its resources'.
    fn charge(&mut self, job: &Job, delta: f64) {
        if !self.work.is_empty() {
            for &r in job.resources() {
                self.work[r as usize] += delta;
            }
        }
    }
}

impl Simulator {
    /// Create an empty simulator over a network.
    pub fn new(net: Network) -> Simulator {
        let nodes = net.topology().node_count();
        // One extra resource slot models the aggregation switch when its
        // capacity is finite (infinite capacity would confuse the
        // progressive-filling exhaustion test, so it is only materialized
        // when constrained).
        let mut capacity = vec![0.0; nodes * RES_PER_NODE + 1];
        for i in 0..nodes {
            let node = rpr_topology::NodeId(i);
            capacity[i * RES_PER_NODE] = net.nic_rate(node);
            capacity[i * RES_PER_NODE + 1] = net.nic_rate(node);
            capacity[i * RES_PER_NODE + 2] = net.cross_class_rate(node);
            capacity[i * RES_PER_NODE + 3] = net.cross_class_rate(node);
            capacity[i * RES_PER_NODE + 4] = 1.0;
        }
        capacity[nodes * RES_PER_NODE] = if net.agg_capacity().is_finite() {
            net.agg_capacity()
        } else {
            1.0 // placeholder; never referenced by any job
        };
        Simulator {
            net,
            jobs: Vec::new(),
            deps: Vec::new(),
            capacity,
        }
    }

    /// Add a transfer job. Returns its id.
    ///
    /// # Panics
    /// Panics if nodes are out of range, source equals destination, or a
    /// dependency id is unknown.
    pub fn transfer(
        &mut self,
        label: impl Into<String>,
        from: rpr_topology::NodeId,
        to: rpr_topology::NodeId,
        bytes: u64,
        deps: &[JobId],
    ) -> JobId {
        let nodes = self.net.topology().node_count();
        assert!(from.0 < nodes && to.0 < nodes, "transfer: node range");
        assert_ne!(from, to, "transfer: loopback transfers are meaningless");
        let res = |node: rpr_topology::NodeId, slot: usize| (node.0 * RES_PER_NODE + slot) as u32;
        let agg = (nodes * RES_PER_NODE) as u32;
        // Uplink, downlink; across racks also both cross classes and, when
        // finite, the aggregation switch.
        let resources = [res(from, 0), res(to, 1), res(from, 2), res(to, 3), agg];
        let used = match self.net.is_cross(from, to) {
            false => 2,
            true => 4 + usize::from(self.net.agg_capacity().is_finite()),
        };
        let rate_cap = self.net.pair_rate(from, to);
        self.push(
            JobKind::Transfer { from, to, bytes },
            label.into(),
            deps,
            &resources[..used],
            rate_cap,
            bytes as f64,
        )
    }

    /// Add a compute job (`seconds` of CPU work on `node`). Returns its id.
    ///
    /// # Panics
    /// Panics if the node is out of range, `seconds` is negative/NaN, or a
    /// dependency id is unknown.
    pub fn compute(
        &mut self,
        label: impl Into<String>,
        node: rpr_topology::NodeId,
        seconds: f64,
        deps: &[JobId],
    ) -> JobId {
        assert!(node.0 < self.net.topology().node_count(), "compute: node");
        assert!(seconds >= 0.0 && seconds.is_finite(), "compute: seconds");
        self.push(
            JobKind::Compute { node, seconds },
            label.into(),
            deps,
            &[(node.0 * RES_PER_NODE + 4) as u32],
            1.0,
            seconds,
        )
    }

    /// Inject one-shot attempt failures into a job, consumed in order: the
    /// job's first attempt aborts after `specs[0].fraction` of its work and
    /// restarts from scratch `specs[0].delay` seconds later, the second
    /// attempt consumes `specs[1]`, and so on until the specs run out and
    /// an attempt completes. Deterministic: same specs, same schedule.
    ///
    /// # Panics
    /// Panics if the job id is unknown or a spec has a fraction outside
    /// `[0, 1]` or a negative/non-finite delay.
    pub fn fail_attempts(&mut self, job: JobId, specs: Vec<FailSpec>) {
        assert!(job.0 < self.jobs.len(), "fail_attempts: unknown job");
        for s in &specs {
            assert!(
                (0.0..=1.0).contains(&s.fraction),
                "fail_attempts: fraction out of range"
            );
            assert!(
                s.delay >= 0.0 && s.delay.is_finite(),
                "fail_attempts: bad delay"
            );
        }
        self.jobs[job.0].fails.extend(specs);
    }

    /// Derate every link of `node` to `factor` of its profiled bandwidth
    /// (a slow NIC or congested ToR port). Affects uplink, downlink, and
    /// both cross-class shapers; CPU is untouched. Call before `run`.
    ///
    /// # Panics
    /// Panics if the node is out of range or `factor` is not in `(0, 1]`.
    pub fn derate_node(&mut self, node: rpr_topology::NodeId, factor: f64) {
        assert!(node.0 < self.net.topology().node_count(), "derate: node");
        assert!(
            factor > 0.0 && factor <= 1.0,
            "derate: factor must be in (0, 1]"
        );
        for r in 0..4 {
            self.capacity[node.0 * RES_PER_NODE + r] *= factor;
        }
    }

    /// Hold a job back until simulated time `t` even once its
    /// dependencies are done — an *arrival* time. Open-loop workload
    /// generators use this to inject requests on a fixed schedule, and
    /// co-simulations use it to stagger repair waves against foreground
    /// traffic. The engine already advances the idle clock to the next
    /// `resume_at`, so a released job on an otherwise quiet network
    /// starts exactly at `t`. Call before `run`.
    ///
    /// # Panics
    /// Panics if the job id is unknown or `t` is negative/non-finite.
    pub fn release_at(&mut self, job: JobId, t: f64) {
        assert!(job.0 < self.jobs.len(), "release_at: unknown job");
        assert!(t >= 0.0 && t.is_finite(), "release_at: bad time");
        let j = &mut self.jobs[job.0];
        j.resume_at = j.resume_at.max(t);
    }

    /// Cap a job's standalone rate at `factor` of its current cap — the
    /// QoS throttle: a repair flow admitted under a foreground-priority
    /// class keeps only its repair share of the path rate, leaving the
    /// rest to client traffic even when the link is otherwise idle.
    /// Max-min fairness still applies on top: the job may get *less*
    /// under contention, never more. Compute jobs cannot be throttled
    /// (their cap is the definition of one core-second). Call before
    /// `run`.
    ///
    /// # Panics
    /// Panics if the job id is unknown, the job is a compute job, or
    /// `factor` is not in `(0, 1]` — a zero cap would starve the job
    /// forever, which the engine (rightly) rejects.
    pub fn throttle(&mut self, job: JobId, factor: f64) {
        assert!(job.0 < self.jobs.len(), "throttle: unknown job");
        assert!(
            factor > 0.0 && factor <= 1.0,
            "throttle: factor must be in (0, 1]"
        );
        let j = &mut self.jobs[job.0];
        assert!(
            matches!(j.kind, JobKind::Transfer { .. }),
            "throttle: only transfer jobs can be throttled"
        );
        j.rate_cap *= factor;
    }

    fn push(
        &mut self,
        kind: JobKind,
        label: String,
        deps: &[JobId],
        resources: &[u32],
        rate_cap: f64,
        work: f64,
    ) -> JobId {
        let id = self.jobs.len();
        for d in deps {
            assert!(d.0 < id, "unknown dependency {:?}", d);
        }
        let first = self.deps.len() as u32;
        self.deps.extend(deps.iter().map(|d| d.0 as u32));
        let mut inline = [0; MAX_RESOURCES];
        inline[..resources.len()].copy_from_slice(resources);
        self.jobs.push(Job {
            kind,
            label,
            deps: first..self.deps.len() as u32,
            resources: inline,
            resource_count: resources.len() as u8,
            rate_cap,
            remaining: work,
            total: work,
            fails: Vec::new(),
            next_fail: 0,
            resume_at: 0.0,
            failures: Vec::new(),
            start: f64::NAN,
            finish: f64::NAN,
        });
        JobId(id)
    }

    /// Number of jobs added so far.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Run the DAG to completion and produce a report.
    ///
    /// # Panics
    /// Panics if the dependency graph deadlocks (a cycle), which indicates
    /// a malformed plan.
    pub fn run(self) -> SimReport {
        self.run_within(f64::INFINITY)
            .expect("an unbounded run always completes")
    }

    /// Run the DAG, giving up once its makespan provably exceeds `limit`
    /// (the bound is in the crate docs). Returns `Some(report)` exactly
    /// when the makespan is at most `limit`, bit-identical to
    /// [`Simulator::run`]'s report.
    ///
    /// # Panics
    /// Panics if `limit` is NaN, or as [`Simulator::run`] does.
    pub fn run_within(mut self, limit: f64) -> Option<SimReport> {
        assert!(!limit.is_nan(), "run_within: NaN limit");
        let total = self.jobs.len();
        // Dependents in CSR form: count, prefix-sum, fill segments from the end.
        let mut first_dependent = vec![0u32; total + 1];
        for &d in &self.deps {
            first_dependent[d as usize] += 1;
        }
        for i in 1..=total {
            first_dependent[i] += first_dependent[i - 1];
        }
        let mut dependents = vec![0; first_dependent[total] as usize];
        for (i, job) in self.jobs.iter().enumerate() {
            for &d in &self.deps[job.deps.start as usize..job.deps.end as usize] {
                first_dependent[d as usize] -= 1;
                dependents[first_dependent[d as usize] as usize] = i as u32;
            }
        }
        let mut run = Run {
            waiting_on: self.jobs.iter().map(|j| j.deps.len() as u32).collect(),
            first_dependent,
            dependents,
            active: Vec::new(),
            wake: BinaryHeap::new(),
            rate: Vec::new(),
            unfrozen: Vec::new(),
            cap_left: self.capacity.clone(),
            users: vec![0; self.capacity.len()],
            touched: Vec::new(),
            work: Vec::new(),
        };
        if limit.is_finite() {
            run.work = vec![0.0; self.capacity.len()];
            for job in &self.jobs {
                run.charge(job, job.remaining);
            }
        }

        let mut now = 0.0f64;
        let mut done = 0usize;
        for i in 0..total {
            if run.waiting_on[i] == 0 {
                self.ready(i, now, &mut run);
            }
        }
        while done < total {
            // Activate every job whose release or retry backoff has
            // elapsed; the active set runs in id order.
            while let Some(&Reverse((at, i))) = run.wake.peek() {
                if f64::from_bits(at) > now {
                    break;
                }
                run.wake.pop();
                self.jobs[i].start = now;
                run.active.push(i);
            }
            run.active.sort_unstable();
            if run.active.is_empty() {
                // Everything runnable is waiting on the clock: advance it
                // to the earliest release or retry.
                let Some(&Reverse((at, _))) = run.wake.peek() else {
                    panic!(
                        "simulator deadlock: {} pending jobs form a cycle",
                        total - done
                    );
                };
                now = f64::from_bits(at);
                continue;
            }

            // Zero-work jobs complete (or fail) instantly. Jobs this pass
            // readies are appended past `n` and wait for the next pass.
            let n = run.active.len();
            let mut instant = false;
            for a in 0..n {
                let i = run.active[a];
                if self.jobs[i].remaining <= EPS {
                    if self.jobs[i].has_pending_fail() {
                        self.fail_job(i, now, &mut run);
                    } else {
                        self.finish_job(i, now, &mut run);
                        done += 1;
                    }
                    run.active[a] = usize::MAX;
                    instant = true;
                }
            }
            if instant {
                run.active.retain(|&i| i != usize::MAX);
                continue;
            }

            self.allocate(&mut run);

            // Find the earliest event among active jobs: a completion or
            // an injected attempt failure.
            let mut dt = f64::INFINITY;
            for (idx, &i) in run.active.iter().enumerate() {
                let r = run.rate[idx];
                assert!(
                    r > 0.0,
                    "job {:?} ({}) starved: zero allocated rate",
                    JobId(i),
                    self.jobs[i].label
                );
                let job = &self.jobs[i];
                let mut t = job.remaining / r;
                if let Some(spec) = job.fails.get(job.next_fail) {
                    let to_fail = spec.fraction * job.total - (job.total - job.remaining);
                    t = t.min(to_fail.max(0.0) / r);
                }
                dt = dt.min(t);
            }
            // Don't step past a pending release or retry (rounding is
            // monotone, so the earliest one gives the smallest step).
            if let Some(&Reverse((at, _))) = run.wake.peek() {
                dt = dt.min(f64::from_bits(at) - now);
            }
            assert!(dt.is_finite(), "no progress possible");

            now += dt;
            for a in 0..n {
                let i = run.active[a];
                let rate = run.rate[a];
                let before = self.jobs[i].remaining;
                self.jobs[i].remaining -= rate * dt;
                run.charge(&self.jobs[i], self.jobs[i].remaining - before);
                let tol = EPS * (1.0 + rate * dt);
                let failing = {
                    let job = &self.jobs[i];
                    match job.fails.get(job.next_fail) {
                        Some(spec) => job.total - job.remaining >= spec.fraction * job.total - tol,
                        None => false,
                    }
                };
                if failing {
                    self.fail_job(i, now, &mut run);
                    run.active[a] = usize::MAX;
                } else if self.jobs[i].remaining <= tol {
                    self.finish_job(i, now, &mut run);
                    done += 1;
                    run.active[a] = usize::MAX;
                }
            }
            run.active.retain(|&i| i != usize::MAX);

            if !run.work.is_empty() {
                let floor = run
                    .work
                    .iter()
                    .zip(&self.capacity)
                    .fold(0.0f64, |m, (w, c)| m.max(w / c));
                if now + floor > limit * (1.0 + BOUND_SLACK) {
                    return None;
                }
            }
        }

        (now <= limit).then(|| self.into_report(now))
    }

    /// Job `i`'s dependencies are done: start it now, or park it until `resume_at`.
    fn ready(&mut self, i: usize, now: f64, run: &mut Run) {
        let job = &mut self.jobs[i];
        if job.resume_at <= now {
            job.start = now;
            run.active.push(i);
        } else {
            // `resume_at > now >= 0`, so bit order is time order.
            run.wake.push(Reverse((job.resume_at.to_bits(), i)));
        }
    }

    /// Job `i` finished at `now`: count it off each dependent and ready
    /// those it was the last dependency of.
    fn finish_job(&mut self, i: usize, now: f64, run: &mut Run) {
        let job = &mut self.jobs[i];
        job.finish = now;
        run.charge(job, -job.remaining);
        job.remaining = 0.0;
        for k in run.first_dependent[i]..run.first_dependent[i + 1] {
            let d = run.dependents[k as usize] as usize;
            run.waiting_on[d] -= 1;
            if run.waiting_on[d] == 0 {
                self.ready(d, now, run);
            }
        }
    }

    /// Fire the next injected failure of job `i` at time `now`: record it,
    /// reset the job's work, and ready the retry after the backoff.
    fn fail_job(&mut self, i: usize, now: f64, run: &mut Run) {
        let job = &mut self.jobs[i];
        let spec = job.fails[job.next_fail].clone();
        job.next_fail += 1;
        job.failures.push(FailureRecord {
            start: job.start,
            at: now,
            delay: spec.delay,
            fraction: spec.fraction,
            reason: spec.reason,
        });
        run.charge(job, job.total - job.remaining);
        job.remaining = job.total;
        job.resume_at = now + spec.delay;
        job.start = f64::NAN;
        self.ready(i, now, run);
    }

    /// Max-min fair allocation (progressive filling with per-job caps) for
    /// the active jobs: one rate per active job, left in `run.rate`. Only
    /// the resources the active jobs draw from are reset and scanned; the
    /// minimum increment is the same in any order. Every unfrozen job has
    /// taken the same increments from zero, so one `level` is all their
    /// rates, and each round takes `inc` off a resource once per unfrozen
    /// user: the float operations of a per-job loop, in the same order.
    fn allocate(&self, run: &mut Run) {
        let Run {
            active,
            rate,
            unfrozen,
            cap_left,
            users,
            touched,
            ..
        } = run;
        rate.clear();
        rate.resize(active.len(), 0.0);
        touched.clear();
        // The smallest rate cap among the unfrozen jobs.
        let mut min_cap = f64::INFINITY;
        for &i in active.iter() {
            let job = &self.jobs[i];
            min_cap = min_cap.min(job.rate_cap);
            for &r in job.resources() {
                let r = r as usize;
                if users[r] == 0 {
                    touched.push(r);
                    cap_left[r] = self.capacity[r];
                }
                users[r] += 1;
            }
        }
        unfrozen.clear();
        unfrozen.extend(0..active.len());

        let mut level = 0.0f64;
        while !unfrozen.is_empty() {
            // The uniform increment every unfrozen job can still take.
            // Rounding is monotone, so `min_cap - level` is the least of
            // the unfrozen jobs' `rate_cap - level`.
            let mut inc = f64::INFINITY;
            for &r in touched.iter() {
                let u = users[r];
                if u > 0 {
                    inc = inc.min(cap_left[r] / u as f64);
                }
            }
            inc = inc.min(min_cap - level);
            debug_assert!(inc >= 0.0 && inc.is_finite());

            // Apply the increment and subtract it from the resources.
            level += inc;
            for &r in touched.iter() {
                for _ in 0..users[r] {
                    cap_left[r] -= inc;
                }
            }

            // Freeze jobs at their personal cap or on an exhausted resource.
            let before = unfrozen.len();
            min_cap = f64::INFINITY;
            unfrozen.retain(|&idx| {
                let job = &self.jobs[active[idx]];
                let at_cap = level >= job.rate_cap * (1.0 - EPS);
                let exhausted = job
                    .resources()
                    .iter()
                    .any(|&r| cap_left[r as usize] <= self.capacity[r as usize] * EPS);
                if at_cap || exhausted {
                    rate[idx] = level;
                    for &r in job.resources() {
                        users[r as usize] -= 1;
                    }
                    false
                } else {
                    min_cap = min_cap.min(job.rate_cap);
                    true
                }
            });
            // inc == 0 without any freeze would loop forever; freezing at
            // least one job per round is guaranteed because inc is limited
            // by some binding constraint.
            assert!(
                unfrozen.len() < before || inc > 0.0,
                "progressive filling failed to converge"
            );
        }
    }

    fn into_report(self, makespan: f64) -> SimReport {
        let nodes = self.net.topology().node_count();
        let mut records = Vec::with_capacity(self.jobs.len());
        let mut cross_bytes = 0u64;
        let mut inner_bytes = 0u64;
        let mut upload = vec![0u64; nodes];
        let mut download = vec![0u64; nodes];
        let mut compute_seconds = vec![0.0f64; nodes];
        let mut retransmitted = 0u64;

        for (i, job) in self.jobs.into_iter().enumerate() {
            match job.kind {
                JobKind::Transfer { from, to, bytes } => {
                    if self.net.is_cross(from, to) {
                        cross_bytes += bytes;
                    } else {
                        inner_bytes += bytes;
                    }
                    upload[from.0] += bytes;
                    download[to.0] += bytes;
                    for f in &job.failures {
                        retransmitted += (f.fraction * bytes as f64).round() as u64;
                    }
                }
                JobKind::Compute { node, seconds } => {
                    compute_seconds[node.0] += seconds;
                }
            }
            records.push(JobRecord {
                id: JobId(i),
                kind: job.kind,
                label: job.label,
                start: job.start,
                finish: job.finish,
                failures: job.failures,
            });
        }

        SimReport {
            makespan,
            records,
            cross_rack_bytes: cross_bytes,
            inner_rack_bytes: inner_bytes,
            node_upload_bytes: upload,
            node_download_bytes: download,
            node_compute_seconds: compute_seconds,
            retransmitted_bytes: retransmitted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_topology::{BandwidthProfile, NodeId, Topology};

    /// 3 racks x 2 nodes, inner 100 B/s, cross 10 B/s for easy arithmetic.
    fn net() -> Network {
        Network::new(
            Topology::uniform(3, 2),
            BandwidthProfile::uniform(3, 100.0, 10.0),
        )
    }

    #[test]
    fn single_inner_transfer_runs_at_nic_rate() {
        let mut sim = Simulator::new(net());
        sim.transfer("t", NodeId(0), NodeId(1), 1000, &[]);
        let r = sim.run();
        assert!((r.makespan - 10.0).abs() < 1e-6, "{}", r.makespan);
        assert_eq!(r.inner_rack_bytes, 1000);
        assert_eq!(r.cross_rack_bytes, 0);
    }

    #[test]
    fn single_cross_transfer_runs_at_cross_rate() {
        let mut sim = Simulator::new(net());
        sim.transfer("t", NodeId(0), NodeId(2), 1000, &[]);
        let r = sim.run();
        assert!((r.makespan - 100.0).abs() < 1e-6, "{}", r.makespan);
        assert_eq!(r.cross_rack_bytes, 1000);
    }

    #[test]
    fn cross_flows_into_one_node_share_the_cross_class() {
        // Two senders in different racks stream to the same destination:
        // the destination's shaped cross class (10 B/s) is the bottleneck,
        // so 2 x 1000 bytes take 200 s — transfers serialize in aggregate,
        // matching the paper's one-cross-transfer-per-rack accounting.
        let mut sim = Simulator::new(net());
        sim.transfer("a", NodeId(2), NodeId(0), 1000, &[]);
        sim.transfer("b", NodeId(4), NodeId(0), 1000, &[]);
        let r = sim.run();
        assert!((r.makespan - 200.0).abs() < 1e-6, "{}", r.makespan);
    }

    #[test]
    fn cross_flows_to_distinct_racks_run_in_parallel() {
        let mut sim = Simulator::new(net());
        sim.transfer("a", NodeId(0), NodeId(2), 1000, &[]);
        sim.transfer("b", NodeId(1), NodeId(4), 1000, &[]);
        let r = sim.run();
        assert!((r.makespan - 100.0).abs() < 1e-6, "{}", r.makespan);
    }

    #[test]
    fn dependencies_serialize_jobs() {
        let mut sim = Simulator::new(net());
        let a = sim.transfer("a", NodeId(0), NodeId(1), 500, &[]);
        let b = sim.transfer("b", NodeId(1), NodeId(0), 500, &[a]);
        let r = sim.run();
        assert!((r.makespan - 10.0).abs() < 1e-6);
        assert!((r.records[b.0].start - 5.0).abs() < 1e-6);
        assert!(r.records[a.0].finish <= r.records[b.0].start + 1e-9);
    }

    #[test]
    fn compute_jobs_share_the_cpu() {
        let mut sim = Simulator::new(net());
        sim.compute("c1", NodeId(0), 2.0, &[]);
        sim.compute("c2", NodeId(0), 2.0, &[]);
        let r = sim.run();
        // Processor sharing: both finish at 4 s.
        assert!((r.makespan - 4.0).abs() < 1e-6, "{}", r.makespan);
        assert!((r.node_compute_seconds[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn compute_on_different_nodes_is_parallel() {
        let mut sim = Simulator::new(net());
        sim.compute("c1", NodeId(0), 2.0, &[]);
        sim.compute("c2", NodeId(1), 2.0, &[]);
        let r = sim.run();
        assert!((r.makespan - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_transfer_and_zero_compute_complete_instantly() {
        let mut sim = Simulator::new(net());
        let a = sim.transfer("z", NodeId(0), NodeId(1), 0, &[]);
        let b = sim.compute("c", NodeId(0), 0.0, &[a]);
        let c = sim.transfer("t", NodeId(0), NodeId(1), 100, &[b]);
        let r = sim.run();
        assert!((r.makespan - 1.0).abs() < 1e-6);
        assert_eq!(r.records[a.0].finish, 0.0);
        assert_eq!(r.records[c.0].start, 0.0);
    }

    #[test]
    fn release_at_delays_start_on_an_idle_network() {
        let mut sim = Simulator::new(net());
        let a = sim.transfer("a", NodeId(0), NodeId(1), 100, &[]);
        sim.release_at(a, 7.0);
        let r = sim.run();
        assert!(
            (r.records[a.0].start - 7.0).abs() < 1e-9,
            "{}",
            r.records[a.0].start
        );
        assert!((r.makespan - 8.0).abs() < 1e-6);
    }

    #[test]
    fn release_at_composes_with_dependencies() {
        // Dep finishes at 5 s, release is 2 s: the later bound (the dep)
        // governs. Then the other way around: release at 9 s wins.
        let mut sim = Simulator::new(net());
        let a = sim.transfer("a", NodeId(0), NodeId(1), 500, &[]); // 5 s
        let b = sim.transfer("b", NodeId(1), NodeId(0), 100, &[a]);
        sim.release_at(b, 2.0);
        let c = sim.transfer("c", NodeId(2), NodeId(3), 100, &[a]);
        sim.release_at(c, 9.0);
        let r = sim.run();
        assert!((r.records[b.0].start - 5.0).abs() < 1e-6);
        assert!((r.records[c.0].start - 9.0).abs() < 1e-6);
    }

    #[test]
    fn throttle_caps_a_transfer_below_its_path_rate() {
        let mut sim = Simulator::new(net());
        let a = sim.transfer("a", NodeId(0), NodeId(1), 1000, &[]);
        sim.throttle(a, 0.5); // 50 B/s on a 100 B/s path
        let r = sim.run();
        assert!((r.makespan - 20.0).abs() < 1e-6, "{}", r.makespan);
    }

    #[test]
    fn throttled_flow_leaves_headroom_for_a_competitor() {
        // Both flows leave node 0's uplink. Unthrottled they split 50/50
        // and finish together at 20 s; with "a" throttled to 30%, "b"
        // takes the residual 70 B/s and finishes at ~14.3 s.
        let mut sim = Simulator::new(net());
        let a = sim.transfer("a", NodeId(0), NodeId(1), 1000, &[]);
        sim.transfer("b", NodeId(0), NodeId(1), 1000, &[]);
        sim.throttle(a, 0.3);
        let r = sim.run();
        let b_rec = &r.records[1];
        assert!(b_rec.finish < 15.0, "residual goes to b: {}", b_rec.finish);
        assert!((r.records[a.0].finish - 1000.0 / 30.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "factor must be in (0, 1]")]
    fn throttle_rejects_zero_factor() {
        let mut sim = Simulator::new(net());
        let a = sim.transfer("a", NodeId(0), NodeId(1), 100, &[]);
        sim.throttle(a, 0.0);
    }

    #[test]
    #[should_panic(expected = "only transfer jobs")]
    fn throttle_rejects_compute_jobs() {
        let mut sim = Simulator::new(net());
        let c = sim.compute("c", NodeId(0), 1.0, &[]);
        sim.throttle(c, 0.5);
    }

    #[test]
    fn fan_in_dependency_waits_for_all() {
        let mut sim = Simulator::new(net());
        let a = sim.transfer("a", NodeId(0), NodeId(1), 100, &[]); // 1 s
        let b = sim.transfer("b", NodeId(2), NodeId(3), 300, &[]); // 3 s
        let c = sim.compute("c", NodeId(1), 1.0, &[a, b]);
        let r = sim.run();
        assert!((r.records[c.0].start - 3.0).abs() < 1e-6);
        assert!((r.makespan - 4.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "unknown dependency")]
    fn forward_dependencies_are_rejected() {
        // Dependencies must reference already-added jobs, which makes
        // dependency cycles unconstructible through the public API.
        let mut sim = Simulator::new(net());
        let a = sim.transfer("a", NodeId(0), NodeId(1), 100, &[]);
        let _b = sim.transfer("b", NodeId(0), NodeId(1), 100, &[a, JobId(2)]);
    }

    #[test]
    fn aggregation_switch_caps_total_cross_traffic() {
        // Two cross flows between disjoint rack pairs: unconstrained they
        // run in parallel (10 B/s each); an agg switch of 10 B/s total
        // halves them.
        let topo = Topology::uniform(4, 1);
        let profile = BandwidthProfile::uniform(4, 100.0, 10.0);
        let mut sim = Simulator::new(Network::new(topo.clone(), profile.clone()));
        sim.transfer("a", NodeId(0), NodeId(1), 1000, &[]);
        sim.transfer("b", NodeId(2), NodeId(3), 1000, &[]);
        let free = sim.run();
        assert!((free.makespan - 100.0).abs() < 1e-6, "{}", free.makespan);

        let net = Network::new(topo, profile).with_agg_capacity(10.0);
        assert_eq!(net.agg_capacity(), 10.0);
        let mut sim = Simulator::new(net);
        sim.transfer("a", NodeId(0), NodeId(1), 1000, &[]);
        sim.transfer("b", NodeId(2), NodeId(3), 1000, &[]);
        let capped = sim.run();
        assert!(
            (capped.makespan - 200.0).abs() < 1e-6,
            "{}",
            capped.makespan
        );
    }

    #[test]
    fn aggregation_switch_ignores_inner_traffic() {
        let topo = Topology::uniform(2, 2);
        let profile = BandwidthProfile::uniform(2, 100.0, 10.0);
        let net = Network::new(topo, profile).with_agg_capacity(1.0);
        let mut sim = Simulator::new(net);
        // Pure inner-rack transfer: unaffected by a tiny agg capacity.
        sim.transfer("i", NodeId(0), NodeId(1), 1000, &[]);
        let r = sim.run();
        assert!((r.makespan - 10.0).abs() < 1e-6, "{}", r.makespan);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_agg_capacity_rejected() {
        let topo = Topology::uniform(2, 1);
        let profile = BandwidthProfile::uniform(2, 100.0, 10.0);
        let _ = Network::new(topo, profile).with_agg_capacity(0.0);
    }

    #[test]
    fn inner_and_cross_traffic_are_accounted_separately() {
        let mut sim = Simulator::new(net());
        sim.transfer("i", NodeId(0), NodeId(1), 700, &[]);
        sim.transfer("x", NodeId(0), NodeId(2), 900, &[]);
        let r = sim.run();
        assert_eq!(r.inner_rack_bytes, 700);
        assert_eq!(r.cross_rack_bytes, 900);
        assert_eq!(r.node_upload_bytes[0], 1600);
        assert_eq!(r.node_download_bytes[1], 700);
        assert_eq!(r.node_download_bytes[2], 900);
    }

    fn fail(fraction: f64, delay: f64) -> crate::FailSpec {
        crate::FailSpec {
            fraction,
            delay,
            reason: "timeout".into(),
        }
    }

    #[test]
    fn injected_failure_retries_with_backoff() {
        // Cross transfer at 10 B/s: clean time 100 s. Fail at 50% with a
        // 5 s backoff: 50 s wasted + 5 s backoff + 100 s retry = 155 s.
        let mut sim = Simulator::new(net());
        let j = sim.transfer("t", NodeId(0), NodeId(2), 1000, &[]);
        sim.fail_attempts(j, vec![fail(0.5, 5.0)]);
        let r = sim.run();
        assert!((r.makespan - 155.0).abs() < 1e-6, "{}", r.makespan);
        let rec = r.record(j);
        assert_eq!(rec.attempts(), 2);
        assert_eq!(rec.failures.len(), 1);
        assert!((rec.failures[0].at - 50.0).abs() < 1e-6);
        assert!((rec.start - 55.0).abs() < 1e-6, "{}", rec.start);
        assert_eq!(r.retransmitted_bytes, 500);
        // Clean per-class accounting is unchanged by the retry.
        assert_eq!(r.cross_rack_bytes, 1000);
    }

    #[test]
    fn full_fraction_failure_models_detected_corruption() {
        // fraction 1.0: the whole payload arrives, verification rejects
        // it, and the transfer repeats — exactly double the clean time.
        let mut sim = Simulator::new(net());
        let j = sim.transfer("t", NodeId(0), NodeId(2), 1000, &[]);
        sim.fail_attempts(j, vec![fail(1.0, 0.0)]);
        let r = sim.run();
        assert!((r.makespan - 200.0).abs() < 1e-6, "{}", r.makespan);
        assert_eq!(r.retransmitted_bytes, 1000);
    }

    #[test]
    fn multiple_failures_consume_specs_in_order() {
        let mut sim = Simulator::new(net());
        let j = sim.transfer("t", NodeId(0), NodeId(2), 1000, &[]);
        sim.fail_attempts(j, vec![fail(0.1, 1.0), fail(0.2, 2.0)]);
        let r = sim.run();
        // 10 + 1 + 20 + 2 + 100 = 133 s.
        assert!((r.makespan - 133.0).abs() < 1e-6, "{}", r.makespan);
        assert_eq!(r.record(j).failures.len(), 2);
        assert!((r.record(j).failures[1].at - 31.0).abs() < 1e-6);
    }

    #[test]
    fn dependent_jobs_wait_for_a_retried_producer() {
        let mut sim = Simulator::new(net());
        let a = sim.transfer("a", NodeId(0), NodeId(1), 500, &[]); // clean 5 s
        sim.fail_attempts(a, vec![fail(0.5, 1.0)]);
        let b = sim.transfer("b", NodeId(1), NodeId(0), 500, &[a]);
        let r = sim.run();
        // a: 2.5 wasted + 1 backoff + 5 = 8.5; b starts only then.
        assert!((r.record(a).finish - 8.5).abs() < 1e-6);
        assert!((r.record(b).start - 8.5).abs() < 1e-6);
        assert!((r.makespan - 13.5).abs() < 1e-6, "{}", r.makespan);
    }

    #[test]
    fn concurrent_job_keeps_running_through_anothers_backoff() {
        // The retrying cross flow leaves and re-enters the competition;
        // the long-running independent flow is simulated continuously.
        let mut sim = Simulator::new(net());
        let a = sim.transfer("a", NodeId(0), NodeId(2), 1000, &[]); // 100 s clean
        let b = sim.transfer("b", NodeId(1), NodeId(4), 2000, &[]); // 200 s clean
        sim.fail_attempts(a, vec![fail(0.3, 10.0)]);
        let r = sim.run();
        // Disjoint rack pairs: no contention. a = 30 + 10 + 100 = 140.
        assert!((r.record(a).finish - 140.0).abs() < 1e-6);
        assert!((r.record(b).finish - 200.0).abs() < 1e-6);
    }

    #[test]
    fn derate_node_slows_only_its_links() {
        let mut sim = Simulator::new(net());
        sim.derate_node(NodeId(0), 0.5);
        let a = sim.transfer("a", NodeId(0), NodeId(1), 1000, &[]);
        let b = sim.transfer("b", NodeId(2), NodeId(3), 1000, &[]);
        let r = sim.run();
        // Node 0 uplink halved to 50 B/s → 20 s; node 2 untouched → 10 s.
        assert!(
            (r.record(a).finish - 20.0).abs() < 1e-6,
            "{}",
            r.record(a).finish
        );
        assert!((r.record(b).finish - 10.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn fail_attempts_rejects_bad_fraction() {
        let mut sim = Simulator::new(net());
        let j = sim.transfer("t", NodeId(0), NodeId(1), 100, &[]);
        sim.fail_attempts(j, vec![fail(1.5, 0.0)]);
    }

    #[test]
    fn inner_transfer_unaffected_by_concurrent_cross_traffic() {
        // Wondershaper shapes only the cross class; an inner transfer from
        // the same node still gets most of the NIC.
        let mut sim = Simulator::new(net());
        sim.transfer("x", NodeId(0), NodeId(2), 1000, &[]); // cross, 10 B/s
        sim.transfer("i", NodeId(0), NodeId(1), 900, &[]); // inner
        let r = sim.run();
        // Inner flow: NIC 100 shared max-min with cross flow capped at 10
        // => inner gets 90 B/s, finishes at 10 s; cross at 100 s.
        assert!((r.makespan - 100.0).abs() < 1e-6, "{}", r.makespan);
        let inner = r.records.iter().find(|j| j.label == "i").unwrap();
        assert!((inner.finish - 10.0).abs() < 1e-6, "{}", inner.finish);
    }
}
