//! Structured repair events.
//!
//! Every event carries simulation or wall-clock time in **seconds** from
//! the start of the repair (`t`, or `start`/`end` for spans). Racks and
//! nodes are plain indices so this crate has no dependency on the
//! topology types; callers translate.
//!
//! The full schema — every event type, field, and unit — is documented in
//! `docs/TRACING.md` at the repository root.

/// Which combine kernel ran: plain XOR (all coefficients 1) or a general
/// GF(2^8) linear combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Pure XOR accumulation — no field multiplications.
    Xor,
    /// General GF(2^8) scaled accumulation.
    Gf,
}

impl Kernel {
    /// Stable lowercase name used in trace output.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Xor => "xor",
            Kernel::Gf => "gf",
        }
    }
}

/// Endpoints and classification of one block/intermediate movement,
/// shared by the three transfer events.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    /// Plan-derived label (e.g. `"p0op5:send"`), stable across sim/exec.
    pub label: String,
    /// Sending node index.
    pub src_node: usize,
    /// Rack of the sending node.
    pub src_rack: usize,
    /// Receiving node index.
    pub dst_node: usize,
    /// Rack of the receiving node.
    pub dst_rack: usize,
    /// Payload size in bytes.
    pub bytes: u64,
    /// True when the transfer crosses racks (uses oversubscribed links).
    pub cross: bool,
    /// Cross-rack pipeline timestep (wave) this transfer belongs to;
    /// `None` for inner-rack transfers.
    pub timestep: Option<usize>,
}

/// One structured repair event. See `docs/TRACING.md` for the schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A repair plan was constructed and is about to run.
    PlanBuilt {
        /// Planner name (`"rpr"`, `"traditional"`, ...).
        scheme: String,
        /// Independent failure-repair parts in the plan.
        parts: usize,
        /// Total operation count (sends + combines).
        ops: usize,
        /// Cross-rack transfer count.
        cross_transfers: usize,
        /// Inner-rack transfer count.
        inner_transfers: usize,
        /// Number of cross-rack pipeline timesteps (waves) in the plan.
        cross_timesteps: usize,
        /// Block size in bytes.
        block_bytes: u64,
    },
    /// First transfer of cross-rack timestep `step` began at `t`.
    TimestepStarted {
        /// Zero-based wave index.
        step: usize,
        /// Seconds from repair start.
        t: f64,
    },
    /// Last transfer of cross-rack timestep `step` finished at `t`.
    TimestepFinished {
        /// Zero-based wave index.
        step: usize,
        /// Seconds from repair start.
        t: f64,
    },
    /// A transfer became eligible to run (its inputs were ready).
    TransferQueued {
        /// Endpoints and classification.
        xfer: Transfer,
        /// Seconds from repair start.
        t: f64,
    },
    /// A transfer began moving bytes.
    TransferStarted {
        /// Endpoints and classification.
        xfer: Transfer,
        /// Seconds spent waiting between queued and started.
        queue_wait: f64,
        /// Seconds from repair start.
        t: f64,
    },
    /// A transfer completed.
    TransferDone {
        /// Endpoints and classification.
        xfer: Transfer,
        /// Seconds from repair start when the transfer began.
        start: f64,
        /// Seconds from repair start when the last byte arrived.
        end: f64,
    },
    /// A partial-decode combine completed on a node.
    CombineDone {
        /// Plan-derived label (e.g. `"p0op7:combine"`).
        label: String,
        /// Node the combine ran on.
        node: usize,
        /// Rack of that node.
        rack: usize,
        /// Kernel kind: XOR or general GF(2^8).
        kernel: Kernel,
        /// Number of input payloads folded.
        inputs: usize,
        /// Output size in bytes.
        bytes: u64,
        /// Seconds from repair start when the combine began.
        start: f64,
        /// Seconds from repair start when it finished.
        end: f64,
    },
    /// A transfer attempt failed — injected fault, checksum mismatch, or
    /// dead sender. Followed by [`Event::RetryScheduled`] when the
    /// transfer will be retried, or by [`Event::HelperCrashed`] /
    /// [`Event::Replanned`] when the failure escalates to a replan.
    TransferFailed {
        /// Endpoints and classification of the failed attempt.
        xfer: Transfer,
        /// Zero-based attempt number that failed.
        attempt: usize,
        /// Stable failure reason (`"timeout"`, `"corrupt"`,
        /// `"switch_outage"`, `"node_down"` — see `rpr-faults`).
        reason: String,
        /// Seconds from repair start when the failure was detected.
        t: f64,
    },
    /// A failed transfer was scheduled for retry after a backoff delay.
    RetryScheduled {
        /// Plan-derived label of the transfer being retried.
        label: String,
        /// Rack of the sending node (per-rack retry accounting).
        rack: usize,
        /// Zero-based attempt number that just failed.
        attempt: usize,
        /// Backoff delay in seconds before the retry starts.
        delay: f64,
        /// Seconds from repair start when the retry was scheduled.
        t: f64,
    },
    /// A helper node died mid-repair; its partial results on other nodes
    /// survive but everything it still had to produce is lost.
    HelperCrashed {
        /// The dead node.
        node: usize,
        /// Rack of the dead node.
        rack: usize,
        /// Seconds from repair start when the crash was detected.
        t: f64,
    },
    /// The supervisor produced a replacement plan after a helper crash,
    /// re-selecting surviving helpers and reusing partial results.
    Replanned {
        /// Scheme of the replacement plan (`"rpr"`, `"traditional"`, ...).
        scheme: String,
        /// Failure count the replacement plan repairs (original failures
        /// plus the crashed helper's block).
        failed: usize,
        /// Ops of the replacement plan satisfied by already-aggregated
        /// partial results (not re-executed).
        reused_ops: usize,
        /// Seconds from repair start when the new plan was adopted.
        t: f64,
    },
    /// Summary of one chunked cut-through stream along a plan edge:
    /// emitted once per streamed send (bounded — never per chunk), after
    /// its last chunk arrived. Absent from block-level (unchunked) runs.
    StreamSummary {
        /// Endpoints and classification of the streamed send.
        xfer: Transfer,
        /// Number of sub-block chunks the payload moved in.
        chunks: usize,
        /// Configured chunk size in bytes (the tail chunk may be
        /// shorter).
        chunk_bytes: u64,
        /// Seconds from the stream's first activation until its first
        /// chunk had fully arrived downstream — the cut-through latency
        /// that lets the next hop start early.
        first_chunk_latency: f64,
        /// Mean delivered bytes/sec over the whole stream.
        throughput: f64,
        /// Seconds from repair start when the last chunk arrived.
        t: f64,
    },
    /// A transfer fell past the hedge latency multiple of its wave's
    /// median; a speculative duplicate was launched from an alternate
    /// helper. Followed by [`Event::HedgeWon`] if the duplicate finishes
    /// first.
    HedgeLaunched {
        /// Plan-derived label of the straggling transfer.
        label: String,
        /// The straggling (original) helper node.
        slow_node: usize,
        /// The alternate helper the duplicate runs from.
        hedge_node: usize,
        /// Configured latency multiple that triggered the hedge.
        multiple: f64,
        /// Seconds from repair start when the hedge launched.
        t: f64,
    },
    /// A hedged duplicate beat the original transfer; the loser was
    /// cancelled.
    HedgeWon {
        /// Plan-derived label of the hedged transfer.
        label: String,
        /// The helper whose copy won the race.
        winner_node: usize,
        /// Seconds the hedge saved versus the projected original finish.
        saved: f64,
        /// Seconds from repair start when the winning copy arrived.
        t: f64,
    },
    /// A helper's health score sank below the quarantine threshold; the
    /// supervisor will avoid it during helper re-selection until it is
    /// probed back in.
    HelperQuarantined {
        /// The quarantined node.
        node: usize,
        /// EWMA health score at quarantine time (below the threshold).
        score: f64,
        /// Seconds from repair start when the quarantine was imposed.
        t: f64,
    },
    /// A repair/wave deadline budget was blown; the supervisor degrades
    /// (fallback scheme or degraded read) instead of waiting forever.
    DeadlineExceeded {
        /// What ran out: `"repair"` or `"wave"`.
        scope: String,
        /// The budget that was exceeded, in seconds.
        budget: f64,
        /// Observed elapsed seconds when the breach was detected.
        elapsed: f64,
        /// Seconds from repair start when the breach was detected.
        t: f64,
    },
    /// The supervisor exhausted its replan/fallback options and switched
    /// to a degraded service tier (e.g. degraded read to a client node).
    DegradedFallback {
        /// The tier entered (`"car"`, `"traditional"`, `"degraded-read"`).
        tier: String,
        /// Why the previous tier was abandoned.
        reason: String,
        /// Seconds from repair start when the fallback was taken.
        t: f64,
    },
    /// A stripe entered the fleet scheduler's at-risk index (emitted by
    /// `rpr-sched`, not by single-stripe repairs).
    StripeEnqueued {
        /// Fleet-wide stripe id.
        stripe: u64,
        /// At-risk level: number of blocks the stripe has lost. Higher
        /// levels are scheduled strictly first.
        level: usize,
        /// Fleet-clock seconds when the stripe was queued.
        t: f64,
    },
    /// The bandwidth arbiter admitted a stripe's repair: its plan's
    /// demand was reserved on the shared links and the repair started.
    StripeAdmitted {
        /// Fleet-wide stripe id.
        stripe: u64,
        /// At-risk level at admission time.
        level: usize,
        /// Fleet-clock seconds when the repair was admitted.
        t: f64,
    },
    /// A stripe's admission was delayed by bandwidth contention: the
    /// arbiter could not fit its demand when it reached the head of the
    /// queue. Emitted once per delayed stripe, at admission.
    BandwidthWaited {
        /// Fleet-wide stripe id.
        stripe: u64,
        /// At-risk level at admission time.
        level: usize,
        /// Seconds spent waiting at the queue head for link capacity.
        waited: f64,
        /// Fleet-clock seconds when the repair was finally admitted.
        t: f64,
    },
    /// A churn arrival hit a live stripe mid-drain: the stripe lost one
    /// more block while queued or in flight (emitted by `rpr-sched`
    /// drains co-simulated with a `ChurnProcess`).
    ChurnFailure {
        /// Fleet-wide stripe id.
        stripe: u64,
        /// At-risk level **after** the hit (blocks now lost).
        level: usize,
        /// Fleet-clock seconds of the churn arrival.
        t: f64,
    },
    /// The drain escalated a stripe's risk level in response to a churn
    /// hit: queued stripes are re-queued at the higher level (strict
    /// level ordering is preserved); in-flight stripes hand the new
    /// failure to the supervisor's storm path and their repair stretches
    /// instead of restarting.
    RiskEscalated {
        /// Fleet-wide stripe id.
        stripe: u64,
        /// At-risk level before the hit.
        from: usize,
        /// At-risk level after the hit.
        to: usize,
        /// True when the stripe was already admitted (mid-repair) and
        /// the escalation was absorbed by the running supervisor.
        in_flight: bool,
        /// Fleet-clock seconds of the escalation.
        t: f64,
    },
    /// A stripe crossed the unrecoverable threshold (`z > r` failed
    /// blocks) before its repair finished: it is moved to the
    /// permanent-loss ledger, counted and reported instead of retried
    /// forever.
    StripeLost {
        /// Fleet-wide stripe id.
        stripe: u64,
        /// At-risk level at the moment of loss (> parity count).
        level: usize,
        /// Fleet-clock seconds when the stripe became unrecoverable.
        t: f64,
    },
    /// The fleet journal flushed a periodic checkpoint record; on crash,
    /// resume replays from the log so everything acknowledged before this
    /// point is never repaired twice.
    JournalCheckpoint {
        /// Monotone journal sequence number of the checkpoint record.
        seq: u64,
        /// Stripes recorded complete at checkpoint time.
        completed: u64,
        /// Stripes recorded permanently lost at checkpoint time.
        lost: u64,
        /// Fleet-clock seconds of the checkpoint.
        t: f64,
    },
    /// A foreground client request entered the open-loop workload (its
    /// scheduled arrival instant, independent of service capacity).
    RequestIssued {
        /// Workload-wide request id, in arrival order.
        request: u64,
        /// True for a read, false for a write.
        read: bool,
        /// True if the request targets a block under repair and is
        /// served from the repair pipeline (a degraded read).
        degraded: bool,
        /// Clock seconds when the request arrived.
        t: f64,
    },
    /// A foreground client request finished: the last byte reached the
    /// client (reads) or the server (writes).
    RequestDone {
        /// Workload-wide request id, matching [`Event::RequestIssued`].
        request: u64,
        /// True for a read, false for a write.
        read: bool,
        /// True if the request was a degraded read served from the
        /// repair pipeline.
        degraded: bool,
        /// Seconds from arrival until the **first** byte reached the
        /// client — for degraded reads under cut-through streaming this
        /// is much earlier than `end − issued`.
        first_byte: f64,
        /// Clock seconds when the request arrived.
        issued: f64,
        /// Clock seconds when the request completed.
        end: f64,
    },
    /// A QoS class throttled repair flows to a fraction of their path
    /// rate, leaving the residual to foreground traffic. Emitted once
    /// per repair plan lowered under a foreground-priority class.
    QosThrottled {
        /// Repair transfer flows the cap was applied to.
        flows: u64,
        /// The repair fraction: each flow's rate cap as a share of its
        /// path rate, in `(0, 1]`.
        fraction: f64,
        /// Clock seconds when the throttle was applied.
        t: f64,
    },
    /// A repair proof was emitted for one op's output: its input hashes,
    /// claimed coefficient vector, and output hash were sealed into the
    /// repair's proof ledger (see `rpr-proof` and `docs/ROBUSTNESS.md`).
    /// Absent when the repair runs with proofs off.
    ProofEmitted {
        /// Plan op index within the generation.
        op: usize,
        /// Node whose output the proof covers.
        node: usize,
        /// Supervision generation (replan index) the op ran in.
        gen: usize,
        /// Seconds from repair start when the proof was sealed.
        t: f64,
    },
    /// Proof verification rejected an op's output: its output hash
    /// disagrees with the supervisor's expected hash. In Mandatory mode
    /// this fails the generation; in Advisory mode it is evidence only.
    ProofRejected {
        /// Plan op index within the generation.
        op: usize,
        /// Node whose output failed verification.
        node: usize,
        /// Supervision generation (replan index) the op ran in.
        gen: usize,
        /// Seconds from repair start when the rejection was detected.
        t: f64,
    },
    /// The supervisor accused a helper of dishonesty on proof evidence
    /// (wrong output from honest inputs) and quarantined it — evidence-
    /// based, unlike the EWMA path behind
    /// [`Event::HelperQuarantined`]. Mandatory mode only.
    HelperAccused {
        /// The accused node.
        node: usize,
        /// Supervision generation in which the dishonest op ran.
        gen: usize,
        /// Seconds from repair start when the accusation was made.
        t: f64,
    },
    /// The whole repair finished.
    RepairDone {
        /// Seconds from repair start (the repair makespan).
        t: f64,
        /// Total bytes moved across racks.
        cross_bytes: u64,
        /// Total bytes moved within racks.
        inner_bytes: u64,
    },
}

impl Event {
    /// Stable snake_case event-type name used in trace output.
    pub fn name(&self) -> &'static str {
        match self {
            Event::PlanBuilt { .. } => "plan_built",
            Event::TimestepStarted { .. } => "timestep_started",
            Event::TimestepFinished { .. } => "timestep_finished",
            Event::TransferQueued { .. } => "transfer_queued",
            Event::TransferStarted { .. } => "transfer_started",
            Event::TransferDone { .. } => "transfer_done",
            Event::CombineDone { .. } => "combine_done",
            Event::TransferFailed { .. } => "transfer_failed",
            Event::RetryScheduled { .. } => "retry_scheduled",
            Event::HelperCrashed { .. } => "helper_crashed",
            Event::Replanned { .. } => "replanned",
            Event::StreamSummary { .. } => "stream_summary",
            Event::HedgeLaunched { .. } => "hedge_launched",
            Event::HedgeWon { .. } => "hedge_won",
            Event::HelperQuarantined { .. } => "helper_quarantined",
            Event::DeadlineExceeded { .. } => "deadline_exceeded",
            Event::DegradedFallback { .. } => "degraded_fallback",
            Event::StripeEnqueued { .. } => "stripe_enqueued",
            Event::StripeAdmitted { .. } => "stripe_admitted",
            Event::BandwidthWaited { .. } => "bandwidth_waited",
            Event::ChurnFailure { .. } => "churn_failure",
            Event::RiskEscalated { .. } => "risk_escalated",
            Event::StripeLost { .. } => "stripe_lost",
            Event::JournalCheckpoint { .. } => "journal_checkpoint",
            Event::RequestIssued { .. } => "request_issued",
            Event::RequestDone { .. } => "request_done",
            Event::QosThrottled { .. } => "qos_throttled",
            Event::ProofEmitted { .. } => "proof_emitted",
            Event::ProofRejected { .. } => "proof_rejected",
            Event::HelperAccused { .. } => "helper_accused",
            Event::RepairDone { .. } => "repair_done",
        }
    }

    /// Representative timestamp: the instant for point events, the end
    /// for spans. Useful for chronological sorting.
    pub fn time(&self) -> f64 {
        match self {
            Event::PlanBuilt { .. } => 0.0,
            Event::TimestepStarted { t, .. }
            | Event::TimestepFinished { t, .. }
            | Event::TransferQueued { t, .. }
            | Event::TransferStarted { t, .. }
            | Event::TransferFailed { t, .. }
            | Event::RetryScheduled { t, .. }
            | Event::HelperCrashed { t, .. }
            | Event::Replanned { t, .. }
            | Event::StreamSummary { t, .. }
            | Event::HedgeLaunched { t, .. }
            | Event::HedgeWon { t, .. }
            | Event::HelperQuarantined { t, .. }
            | Event::DeadlineExceeded { t, .. }
            | Event::DegradedFallback { t, .. }
            | Event::StripeEnqueued { t, .. }
            | Event::StripeAdmitted { t, .. }
            | Event::BandwidthWaited { t, .. }
            | Event::ChurnFailure { t, .. }
            | Event::RiskEscalated { t, .. }
            | Event::StripeLost { t, .. }
            | Event::JournalCheckpoint { t, .. }
            | Event::RequestIssued { t, .. }
            | Event::QosThrottled { t, .. }
            | Event::ProofEmitted { t, .. }
            | Event::ProofRejected { t, .. }
            | Event::HelperAccused { t, .. }
            | Event::RepairDone { t, .. } => *t,
            Event::TransferDone { end, .. }
            | Event::CombineDone { end, .. }
            | Event::RequestDone { end, .. } => *end,
        }
    }

    /// The same event `dt` seconds later: every timestamp field moves,
    /// durations (`queue_wait`, `first_byte`) do not. Splices a trace
    /// recorded on its own zero-based clock into a longer timeline.
    pub fn shifted(mut self, dt: f64) -> Event {
        match &mut self {
            Event::PlanBuilt { .. } => {}
            Event::TimestepStarted { t, .. }
            | Event::TimestepFinished { t, .. }
            | Event::TransferQueued { t, .. }
            | Event::TransferStarted { t, .. }
            | Event::TransferFailed { t, .. }
            | Event::RetryScheduled { t, .. }
            | Event::HelperCrashed { t, .. }
            | Event::Replanned { t, .. }
            | Event::StreamSummary { t, .. }
            | Event::HedgeLaunched { t, .. }
            | Event::HedgeWon { t, .. }
            | Event::HelperQuarantined { t, .. }
            | Event::DeadlineExceeded { t, .. }
            | Event::DegradedFallback { t, .. }
            | Event::StripeEnqueued { t, .. }
            | Event::StripeAdmitted { t, .. }
            | Event::BandwidthWaited { t, .. }
            | Event::ChurnFailure { t, .. }
            | Event::RiskEscalated { t, .. }
            | Event::StripeLost { t, .. }
            | Event::JournalCheckpoint { t, .. }
            | Event::QosThrottled { t, .. }
            | Event::RequestIssued { t, .. }
            | Event::ProofEmitted { t, .. }
            | Event::ProofRejected { t, .. }
            | Event::HelperAccused { t, .. }
            | Event::RepairDone { t, .. } => *t += dt,
            Event::TransferDone { start, end, .. } | Event::CombineDone { start, end, .. } => {
                *start += dt;
                *end += dt;
            }
            Event::RequestDone { issued, end, .. } => {
                *issued += dt;
                *end += dt;
            }
        }
        self
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn xfer() -> Transfer {
        Transfer {
            label: "p0op5:send".to_string(),
            src_node: 2,
            src_rack: 0,
            dst_node: 7,
            dst_rack: 2,
            bytes: 1 << 20,
            cross: true,
            timestep: Some(1),
        }
    }

    /// One sample of every variant, each with distinct non-zero times.
    pub(crate) fn one_of_each() -> Vec<Event> {
        let s = String::new;
        vec![
            Event::PlanBuilt {
                scheme: s(),
                parts: 1,
                ops: 9,
                cross_transfers: 2,
                inner_transfers: 3,
                cross_timesteps: 2,
                block_bytes: 1 << 20,
            },
            Event::TimestepStarted { step: 0, t: 1.0 },
            Event::TimestepFinished { step: 0, t: 2.0 },
            Event::TransferQueued {
                xfer: xfer(),
                t: 3.0,
            },
            Event::TransferStarted {
                xfer: xfer(),
                queue_wait: 0.25,
                t: 4.0,
            },
            Event::TransferDone {
                xfer: xfer(),
                start: 4.0,
                end: 5.0,
            },
            Event::CombineDone {
                label: s(),
                node: 7,
                rack: 2,
                kernel: Kernel::Xor,
                inputs: 2,
                bytes: 1 << 20,
                start: 5.0,
                end: 6.0,
            },
            Event::TransferFailed {
                xfer: xfer(),
                attempt: 0,
                reason: s(),
                t: 7.0,
            },
            Event::RetryScheduled {
                label: s(),
                rack: 0,
                attempt: 0,
                delay: 0.05,
                t: 8.0,
            },
            Event::HelperCrashed {
                node: 2,
                rack: 0,
                t: 9.0,
            },
            Event::Replanned {
                scheme: s(),
                failed: 2,
                reused_ops: 3,
                t: 10.0,
            },
            Event::StreamSummary {
                xfer: xfer(),
                chunks: 8,
                chunk_bytes: 1 << 17,
                first_chunk_latency: 0.5,
                throughput: 1e6,
                t: 11.0,
            },
            Event::HedgeLaunched {
                label: s(),
                slow_node: 2,
                hedge_node: 3,
                multiple: 2.0,
                t: 12.0,
            },
            Event::HedgeWon {
                label: s(),
                winner_node: 3,
                saved: 1.5,
                t: 13.0,
            },
            Event::HelperQuarantined {
                node: 2,
                score: 0.2,
                t: 14.0,
            },
            Event::DeadlineExceeded {
                scope: s(),
                budget: 10.0,
                elapsed: 15.0,
                t: 15.0,
            },
            Event::DegradedFallback {
                tier: s(),
                reason: s(),
                t: 16.0,
            },
            Event::StripeEnqueued {
                stripe: 1,
                level: 1,
                t: 17.0,
            },
            Event::StripeAdmitted {
                stripe: 1,
                level: 1,
                t: 18.0,
            },
            Event::BandwidthWaited {
                stripe: 1,
                level: 1,
                waited: 0.75,
                t: 19.0,
            },
            Event::ChurnFailure {
                stripe: 1,
                level: 2,
                t: 20.0,
            },
            Event::RiskEscalated {
                stripe: 1,
                from: 1,
                to: 2,
                in_flight: true,
                t: 21.0,
            },
            Event::StripeLost {
                stripe: 1,
                level: 4,
                t: 22.0,
            },
            Event::JournalCheckpoint {
                seq: 5,
                completed: 3,
                lost: 0,
                t: 23.0,
            },
            Event::RequestIssued {
                request: 1,
                read: true,
                degraded: false,
                t: 24.0,
            },
            Event::RequestDone {
                request: 1,
                read: true,
                degraded: false,
                first_byte: 0.125,
                issued: 24.0,
                end: 25.0,
            },
            Event::QosThrottled {
                flows: 4,
                fraction: 0.15,
                t: 26.0,
            },
            Event::ProofEmitted {
                op: 5,
                node: 2,
                gen: 0,
                t: 27.0,
            },
            Event::ProofRejected {
                op: 5,
                node: 2,
                gen: 0,
                t: 28.0,
            },
            Event::HelperAccused {
                node: 2,
                gen: 0,
                t: 29.0,
            },
            Event::RepairDone {
                t: 30.0,
                cross_bytes: 2 << 20,
                inner_bytes: 3 << 20,
            },
        ]
    }

    #[test]
    fn shifted_moves_every_timestamp_and_no_duration() {
        let duration = |e: &Event| match e {
            Event::TransferStarted { queue_wait: d, .. }
            | Event::RequestDone { first_byte: d, .. } => Some(*d),
            _ => None,
        };
        let span_start = |e: &Event| match e {
            Event::TransferDone { start: s, .. }
            | Event::CombineDone { start: s, .. }
            | Event::RequestDone { issued: s, .. } => Some(*s),
            _ => None,
        };
        let dt = 100.0;
        let mut names = Vec::new();
        for e in one_of_each() {
            names.push(e.name());
            let moved = e.clone().shifted(dt);
            if let Event::PlanBuilt { .. } = e {
                assert_eq!(moved, e, "plan_built carries no time");
                continue;
            }
            assert_eq!(moved.time(), e.time() + dt, "{}", e.name());
            assert_eq!(duration(&moved), duration(&e), "{}", e.name());
            assert_eq!(
                span_start(&moved),
                span_start(&e).map(|s| s + dt),
                "{}: spans move as a whole",
                e.name()
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 31, "one sample per variant");
    }
}
