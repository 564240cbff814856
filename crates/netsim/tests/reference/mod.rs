//! The rescanning engine that `Simulator::run` replaced, kept verbatim
//! as the differential harness's reference: every event it rescans
//! every job to activate, collect the active set and find the next
//! retry. Only the imports changed (`crate::` became `rpr_netsim::`).
//! Test-only code; `tests/differential.rs` runs it beside the
//! event-driven engine on the same graphs.

//! The discrete-event engine: dependency scheduling plus max-min fair rate
//! allocation (progressive filling) over link and CPU resources.

use rpr_netsim::{FailSpec, FailureRecord, JobRecord, SimReport};
use rpr_netsim::{JobId, JobKind, Network};

/// Relative tolerance for "work finished" comparisons.
const EPS: f64 = 1e-9;

#[derive(Clone, Debug)]
struct Job {
    kind: JobKind,
    label: String,
    deps: Vec<JobId>,
    /// Resource indices this job draws from while active.
    resources: Vec<usize>,
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
    state: JobState,
    start: f64,
    finish: f64,
}

impl Job {
    fn has_pending_fail(&self) -> bool {
        self.next_fail < self.fails.len()
    }

    /// True when this job is waiting only on the clock (deps done, retry
    /// backoff not yet elapsed).
    fn runnable(&self, jobs: &[Job]) -> bool {
        self.state == JobState::Pending
            && self.deps.iter().all(|d| jobs[d.0].state == JobState::Done)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum JobState {
    Pending,
    Active,
    Done,
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
    /// capacity per resource (bytes/sec for links, 1.0 for CPUs).
    capacity: Vec<f64>,
}

/// Resource layout per node: uplink, downlink, cross-class uplink,
/// cross-class downlink, CPU.
const RES_PER_NODE: usize = 5;

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
        let cross = self.net.is_cross(from, to);
        let mut resources = vec![
            from.0 * RES_PER_NODE,   // uplink
            to.0 * RES_PER_NODE + 1, // downlink
        ];
        if cross {
            resources.push(from.0 * RES_PER_NODE + 2); // cross-class up
            resources.push(to.0 * RES_PER_NODE + 3); // cross-class down
            if self.net.agg_capacity().is_finite() {
                resources.push(nodes * RES_PER_NODE); // aggregation switch
            }
        }
        let rate_cap = self.net.pair_rate(from, to);
        self.push(Job {
            kind: JobKind::Transfer { from, to, bytes },
            label: label.into(),
            deps: deps.to_vec(),
            resources,
            rate_cap,
            remaining: bytes as f64,
            total: bytes as f64,
            fails: Vec::new(),
            next_fail: 0,
            resume_at: 0.0,
            failures: Vec::new(),
            state: JobState::Pending,
            start: f64::NAN,
            finish: f64::NAN,
        })
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
        self.push(Job {
            kind: JobKind::Compute { node, seconds },
            label: label.into(),
            deps: deps.to_vec(),
            resources: vec![node.0 * RES_PER_NODE + 4],
            rate_cap: 1.0,
            remaining: seconds,
            total: seconds,
            fails: Vec::new(),
            next_fail: 0,
            resume_at: 0.0,
            failures: Vec::new(),
            state: JobState::Pending,
            start: f64::NAN,
            finish: f64::NAN,
        })
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

    fn push(&mut self, job: Job) -> JobId {
        for d in &job.deps {
            assert!(d.0 < self.jobs.len(), "unknown dependency {:?}", d);
        }
        self.jobs.push(job);
        JobId(self.jobs.len() - 1)
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
    pub fn run(mut self) -> SimReport {
        let mut now = 0.0f64;
        let mut done = 0usize;
        let total = self.jobs.len();

        while done < total {
            // Activate every pending job whose dependencies are all done
            // and whose retry backoff (if any) has elapsed.
            for i in 0..self.jobs.len() {
                if self.jobs[i].runnable(&self.jobs) && self.jobs[i].resume_at <= now {
                    self.jobs[i].state = JobState::Active;
                    self.jobs[i].start = now;
                }
            }

            let active: Vec<usize> = (0..self.jobs.len())
                .filter(|&i| self.jobs[i].state == JobState::Active)
                .collect();
            if active.is_empty() {
                // Everything runnable is backing off after a failure:
                // advance the clock to the earliest retry.
                let next = (0..self.jobs.len())
                    .filter(|&i| self.jobs[i].runnable(&self.jobs))
                    .map(|i| self.jobs[i].resume_at)
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    next.is_finite(),
                    "simulator deadlock: {} pending jobs form a cycle",
                    total - done
                );
                now = next;
                continue;
            }

            // Zero-work jobs complete (or fail) instantly.
            let mut instant = false;
            for &i in &active {
                if self.jobs[i].remaining <= EPS {
                    if self.jobs[i].has_pending_fail() {
                        self.fail_job(i, now);
                    } else {
                        self.jobs[i].state = JobState::Done;
                        self.jobs[i].finish = now;
                        done += 1;
                    }
                    instant = true;
                }
            }
            if instant {
                continue;
            }

            let rates = self.allocate(&active);

            // Find the earliest event among active jobs: a completion or
            // an injected attempt failure.
            let mut dt = f64::INFINITY;
            for (idx, &i) in active.iter().enumerate() {
                let r = rates[idx];
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
            // Don't step past a pending retry: the retrying job must
            // re-enter the bandwidth competition exactly at resume time.
            for i in 0..self.jobs.len() {
                if self.jobs[i].runnable(&self.jobs) && self.jobs[i].resume_at > now {
                    dt = dt.min(self.jobs[i].resume_at - now);
                }
            }
            assert!(dt.is_finite(), "no progress possible");

            now += dt;
            for (idx, &i) in active.iter().enumerate() {
                self.jobs[i].remaining -= rates[idx] * dt;
                let tol = EPS * (1.0 + rates[idx] * dt);
                let failing = {
                    let job = &self.jobs[i];
                    match job.fails.get(job.next_fail) {
                        Some(spec) => job.total - job.remaining >= spec.fraction * job.total - tol,
                        None => false,
                    }
                };
                if failing {
                    self.fail_job(i, now);
                } else if self.jobs[i].remaining <= tol {
                    self.jobs[i].remaining = 0.0;
                    self.jobs[i].state = JobState::Done;
                    self.jobs[i].finish = now;
                    done += 1;
                }
            }
        }

        self.into_report(now)
    }

    /// Fire the next injected failure of job `i` at time `now`: record it,
    /// reset the job's work, and schedule the retry after the backoff.
    fn fail_job(&mut self, i: usize, now: f64) {
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
        job.remaining = job.total;
        job.state = JobState::Pending;
        job.resume_at = now + spec.delay;
        job.start = f64::NAN;
    }

    /// Max-min fair allocation (progressive filling with per-job caps) for
    /// the given active job indices. Returns one rate per active job.
    fn allocate(&self, active: &[usize]) -> Vec<f64> {
        let m = active.len();
        let mut rate = vec![0.0f64; m];
        let mut frozen = vec![false; m];
        let mut cap_left = self.capacity.clone();

        loop {
            // Count unfrozen users per resource.
            let mut users = vec![0usize; cap_left.len()];
            let mut any = false;
            for (idx, &i) in active.iter().enumerate() {
                if frozen[idx] {
                    continue;
                }
                any = true;
                for &r in &self.jobs[i].resources {
                    users[r] += 1;
                }
            }
            if !any {
                break;
            }

            // The uniform increment every unfrozen job can still take.
            let mut inc = f64::INFINITY;
            for (r, &u) in users.iter().enumerate() {
                if u > 0 {
                    inc = inc.min(cap_left[r] / u as f64);
                }
            }
            for (idx, &i) in active.iter().enumerate() {
                if !frozen[idx] {
                    inc = inc.min(self.jobs[i].rate_cap - rate[idx]);
                }
            }
            debug_assert!(inc >= 0.0 && inc.is_finite());

            // Apply the increment and subtract from the resources.
            for (idx, &i) in active.iter().enumerate() {
                if frozen[idx] {
                    continue;
                }
                rate[idx] += inc;
                for &r in &self.jobs[i].resources {
                    cap_left[r] -= inc;
                }
            }

            // Freeze jobs at their personal cap or on an exhausted resource.
            let mut progressed = false;
            for (idx, &i) in active.iter().enumerate() {
                if frozen[idx] {
                    continue;
                }
                let at_cap = rate[idx] >= self.jobs[i].rate_cap * (1.0 - EPS);
                let exhausted = self.jobs[i]
                    .resources
                    .iter()
                    .any(|&r| cap_left[r] <= self.capacity[r] * EPS);
                if at_cap || exhausted {
                    frozen[idx] = true;
                    progressed = true;
                }
            }
            // inc == 0 without any freeze would loop forever; freezing at
            // least one job per round is guaranteed because inc is limited
            // by some binding constraint.
            assert!(
                progressed || inc > 0.0,
                "progressive filling failed to converge"
            );
        }
        rate
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

        for (i, job) in self.jobs.iter().enumerate() {
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
                kind: job.kind.clone(),
                label: job.label.clone(),
                start: job.start,
                finish: job.finish,
                failures: job.failures.clone(),
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
