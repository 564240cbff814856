//! The [`Recorder`] trait, the no-op recorder, and the default
//! [`TraceRecorder`] (atomic counters + bounded event ring).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use crate::event::Event;
use crate::metrics::{Histogram, HistogramSnapshot, RackCounters, RackTotals};

/// A sink for structured repair events.
///
/// Implementations must be cheap and thread-safe: the executor calls
/// [`Recorder::record`] from many worker threads on the data path.
pub trait Recorder: Sync {
    /// Record one event. Implementations must not block for long.
    fn record(&self, event: Event);
}

/// Discards every event. [`noop()`] returns a shared instance so callers
/// without a recorder pay one virtual call per event and nothing else.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record(&self, _event: Event) {}
}

/// A shared no-op recorder for call sites that don't trace.
pub fn noop() -> &'static NoopRecorder {
    static NOOP: NoopRecorder = NoopRecorder;
    &NOOP
}

/// Default number of events a [`TraceRecorder`] ring retains.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

// Why a lock of the recorder can only be poisoned by a bug in it: its
// holders push, pop and index, nothing else.
const RING: &str = "a recording thread panicked holding the event ring";
const RACKS: &str = "a recording thread panicked holding the rack table";

/// The default [`Recorder`]: lock-cheap aggregate metrics (relaxed
/// atomics), per-rack counters, latency histograms, and a bounded
/// event ring for export.
///
/// Overflow policy: when the ring is full the **oldest** event is dropped
/// and `dropped_events` is incremented — recent history wins, and the
/// metrics (which are updated before ring insertion) stay complete.
#[derive(Debug)]
pub struct TraceRecorder {
    ring_capacity: usize,
    ring: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
    recorded: AtomicU64,
    cross_bytes: AtomicU64,
    inner_bytes: AtomicU64,
    transfers: AtomicU64,
    combines: AtomicU64,
    transfer_failures: AtomicU64,
    retries: AtomicU64,
    crashes: AtomicU64,
    replans: AtomicU64,
    streams: AtomicU64,
    chunks_streamed: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    quarantines: AtomicU64,
    deadlines_exceeded: AtomicU64,
    degraded_fallbacks: AtomicU64,
    requests: AtomicU64,
    degraded_reads: AtomicU64,
    qos_throttles: AtomicU64,
    racks: RwLock<Vec<RackCounters>>,
    queue_wait: Histogram,
    transfer_time: Histogram,
    combine_time: Histogram,
    first_chunk_latency: Histogram,
    request_latency: Histogram,
    request_first_byte: Histogram,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::with_capacity(DEFAULT_RING_CAPACITY)
    }
}

impl TraceRecorder {
    /// Create a recorder retaining at most `ring_capacity` events.
    pub fn with_capacity(ring_capacity: usize) -> TraceRecorder {
        TraceRecorder {
            ring_capacity: ring_capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            cross_bytes: AtomicU64::new(0),
            inner_bytes: AtomicU64::new(0),
            transfers: AtomicU64::new(0),
            combines: AtomicU64::new(0),
            transfer_failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            replans: AtomicU64::new(0),
            streams: AtomicU64::new(0),
            chunks_streamed: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            hedge_wins: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            deadlines_exceeded: AtomicU64::new(0),
            degraded_fallbacks: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            degraded_reads: AtomicU64::new(0),
            qos_throttles: AtomicU64::new(0),
            racks: RwLock::new(Vec::new()),
            queue_wait: Histogram::default(),
            transfer_time: Histogram::default(),
            combine_time: Histogram::default(),
            first_chunk_latency: Histogram::default(),
            request_latency: Histogram::default(),
            request_first_byte: Histogram::default(),
        }
    }

    /// Run `f` against the counters for `rack`, growing the per-rack
    /// table if this rack has not been seen yet. The fast path is a read
    /// lock plus relaxed atomic updates.
    fn with_rack(&self, rack: usize, f: impl Fn(&RackCounters)) {
        {
            let racks = self.racks.read().expect(RACKS);
            if let Some(c) = racks.get(rack) {
                f(c);
                return;
            }
        }
        let mut racks = self.racks.write().expect(RACKS);
        while racks.len() <= rack {
            racks.push(RackCounters::default());
        }
        f(&racks[rack]);
    }

    fn update_metrics(&self, event: &Event) {
        match event {
            Event::TransferStarted {
                xfer, queue_wait, ..
            } => {
                self.queue_wait.record(*queue_wait);
                self.with_rack(xfer.src_rack, |c| {
                    c.queue_wait_micros
                        .fetch_add((queue_wait * 1e6) as u64, Ordering::Relaxed);
                });
            }
            Event::TransferDone { xfer, start, end } => {
                self.transfers.fetch_add(1, Ordering::Relaxed);
                self.transfer_time.record(end - start);
                if xfer.cross {
                    self.cross_bytes.fetch_add(xfer.bytes, Ordering::Relaxed);
                } else {
                    self.inner_bytes.fetch_add(xfer.bytes, Ordering::Relaxed);
                }
                self.with_rack(xfer.src_rack, |c| {
                    c.bytes_out.fetch_add(xfer.bytes, Ordering::Relaxed);
                    c.transfers_out.fetch_add(1, Ordering::Relaxed);
                    if xfer.cross {
                        c.cross_bytes_out.fetch_add(xfer.bytes, Ordering::Relaxed);
                    } else {
                        c.inner_bytes_out.fetch_add(xfer.bytes, Ordering::Relaxed);
                    }
                });
                self.with_rack(xfer.dst_rack, |c| {
                    c.bytes_in.fetch_add(xfer.bytes, Ordering::Relaxed);
                });
            }
            Event::CombineDone {
                rack, start, end, ..
            } => {
                self.combines.fetch_add(1, Ordering::Relaxed);
                self.combine_time.record(end - start);
                self.with_rack(*rack, |c| {
                    c.combines.fetch_add(1, Ordering::Relaxed);
                });
            }
            Event::TransferFailed { xfer, .. } => {
                self.transfer_failures.fetch_add(1, Ordering::Relaxed);
                self.with_rack(xfer.src_rack, |c| {
                    c.transfer_failures.fetch_add(1, Ordering::Relaxed);
                });
            }
            Event::RetryScheduled { rack, .. } => {
                self.retries.fetch_add(1, Ordering::Relaxed);
                self.with_rack(*rack, |c| {
                    c.retries.fetch_add(1, Ordering::Relaxed);
                });
            }
            Event::HelperCrashed { .. } => {
                self.crashes.fetch_add(1, Ordering::Relaxed);
            }
            Event::Replanned { .. } => {
                self.replans.fetch_add(1, Ordering::Relaxed);
            }
            Event::StreamSummary {
                chunks,
                first_chunk_latency,
                ..
            } => {
                self.streams.fetch_add(1, Ordering::Relaxed);
                self.chunks_streamed
                    .fetch_add(*chunks as u64, Ordering::Relaxed);
                self.first_chunk_latency.record(*first_chunk_latency);
            }
            Event::HedgeLaunched { .. } => {
                self.hedges.fetch_add(1, Ordering::Relaxed);
            }
            Event::HedgeWon { .. } => {
                self.hedge_wins.fetch_add(1, Ordering::Relaxed);
            }
            Event::HelperQuarantined { .. } => {
                self.quarantines.fetch_add(1, Ordering::Relaxed);
            }
            Event::DeadlineExceeded { .. } => {
                self.deadlines_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            Event::DegradedFallback { .. } => {
                self.degraded_fallbacks.fetch_add(1, Ordering::Relaxed);
            }
            Event::RequestDone {
                degraded,
                first_byte,
                issued,
                end,
                ..
            } => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                if *degraded {
                    self.degraded_reads.fetch_add(1, Ordering::Relaxed);
                }
                self.request_latency.record(end - issued);
                self.request_first_byte.record(*first_byte);
            }
            Event::QosThrottled { .. } => {
                self.qos_throttles.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Drain and return the retained events in arrival order.
    pub fn take_events(&self) -> Vec<Event> {
        self.ring.lock().expect(RING).drain(..).collect()
    }

    /// Copy out the aggregate metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let racks = self.racks.read().expect(RACKS);
        MetricsSnapshot {
            recorded_events: self.recorded.load(Ordering::Relaxed),
            dropped_events: self.dropped.load(Ordering::Relaxed),
            transfers: self.transfers.load(Ordering::Relaxed),
            combines: self.combines.load(Ordering::Relaxed),
            transfer_failures: self.transfer_failures.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            replans: self.replans.load(Ordering::Relaxed),
            streams: self.streams.load(Ordering::Relaxed),
            chunks_streamed: self.chunks_streamed.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            deadlines_exceeded: self.deadlines_exceeded.load(Ordering::Relaxed),
            degraded_fallbacks: self.degraded_fallbacks.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            degraded_reads: self.degraded_reads.load(Ordering::Relaxed),
            qos_throttles: self.qos_throttles.load(Ordering::Relaxed),
            cross_bytes: self.cross_bytes.load(Ordering::Relaxed),
            inner_bytes: self.inner_bytes.load(Ordering::Relaxed),
            racks: racks
                .iter()
                .enumerate()
                .map(|(i, c)| c.totals(i))
                .collect(),
            queue_wait: self.queue_wait.snapshot(),
            transfer_time: self.transfer_time.snapshot(),
            combine_time: self.combine_time.snapshot(),
            first_chunk_latency: self.first_chunk_latency.snapshot(),
            request_latency: self.request_latency.snapshot(),
            request_first_byte: self.request_first_byte.snapshot(),
        }
    }
}

impl Recorder for TraceRecorder {
    fn record(&self, event: Event) {
        self.update_metrics(&event);
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().expect(RING);
        if ring.len() >= self.ring_capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }
}

/// An owned copy of a [`TraceRecorder`]'s aggregate metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Events seen by the recorder (including any later dropped).
    pub recorded_events: u64,
    /// Events evicted from the ring by the drop-oldest policy.
    pub dropped_events: u64,
    /// Completed transfers.
    pub transfers: u64,
    /// Completed combines.
    pub combines: u64,
    /// Failed transfer attempts (injected faults, checksum mismatches,
    /// dead senders).
    pub transfer_failures: u64,
    /// Retries scheduled for failed transfers.
    pub retries: u64,
    /// Helper crashes detected mid-repair.
    pub crashes: u64,
    /// Replacement plans adopted after a crash.
    pub replans: u64,
    /// Chunked cut-through streams completed (one per streamed send).
    pub streams: u64,
    /// Total sub-block chunks moved by those streams.
    pub chunks_streamed: u64,
    /// Speculative duplicate transfers launched against stragglers.
    pub hedges: u64,
    /// Hedged duplicates that beat the original transfer.
    pub hedge_wins: u64,
    /// Helpers quarantined by the health tracker.
    pub quarantines: u64,
    /// Repair/wave deadline budgets blown.
    pub deadlines_exceeded: u64,
    /// Degraded service tiers entered by the supervisor.
    pub degraded_fallbacks: u64,
    /// Completed foreground client requests.
    pub requests: u64,
    /// Of those, degraded reads served from the repair pipeline.
    pub degraded_reads: u64,
    /// QoS throttles applied to repair plans.
    pub qos_throttles: u64,
    /// Total bytes moved across racks.
    pub cross_bytes: u64,
    /// Total bytes moved within racks.
    pub inner_bytes: u64,
    /// Per-rack totals, indexed by rack.
    pub racks: Vec<RackTotals>,
    /// Distribution of queued→started waits.
    pub queue_wait: HistogramSnapshot,
    /// Distribution of transfer durations.
    pub transfer_time: HistogramSnapshot,
    /// Distribution of combine durations.
    pub combine_time: HistogramSnapshot,
    /// Distribution of first-chunk (cut-through) latencies per stream.
    pub first_chunk_latency: HistogramSnapshot,
    /// Distribution of foreground request completion latencies
    /// (arrival → last byte).
    pub request_latency: HistogramSnapshot,
    /// Distribution of foreground request first-byte latencies — for
    /// degraded reads this is the pipeline cut-through moment.
    pub request_first_byte: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Kernel, Transfer};

    fn xfer(src_rack: usize, dst_rack: usize, bytes: u64) -> Transfer {
        Transfer {
            label: "p0op0:send".into(),
            src_node: src_rack * 10,
            src_rack,
            dst_node: dst_rack * 10,
            dst_rack,
            bytes,
            cross: src_rack != dst_rack,
            timestep: if src_rack != dst_rack { Some(0) } else { None },
        }
    }

    #[test]
    fn counters_aggregate_by_rack_and_class() {
        let rec = TraceRecorder::default();
        rec.record(Event::TransferDone {
            xfer: xfer(0, 1, 100),
            start: 0.0,
            end: 0.5,
        });
        rec.record(Event::TransferDone {
            xfer: xfer(1, 1, 40),
            start: 0.0,
            end: 0.1,
        });
        rec.record(Event::CombineDone {
            label: "p0op2:combine".into(),
            node: 10,
            rack: 1,
            kernel: Kernel::Xor,
            inputs: 2,
            bytes: 100,
            start: 0.5,
            end: 0.6,
        });
        let snap = rec.snapshot();
        assert_eq!(snap.transfers, 2);
        assert_eq!(snap.combines, 1);
        assert_eq!(snap.cross_bytes, 100);
        assert_eq!(snap.inner_bytes, 40);
        assert_eq!(snap.racks[0].cross_bytes_out, 100);
        assert_eq!(snap.racks[0].bytes_out, 100);
        assert_eq!(snap.racks[1].bytes_in, 140);
        assert_eq!(snap.racks[1].inner_bytes_out, 40);
        assert_eq!(snap.racks[1].combines, 1);
        assert_eq!(snap.transfer_time.count(), 2);
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let rec = TraceRecorder::with_capacity(3);
        for step in 0..5 {
            rec.record(Event::TimestepStarted {
                step,
                t: step as f64,
            });
        }
        let events = rec.take_events();
        assert_eq!(events.len(), 3);
        // Oldest (steps 0 and 1) were evicted; newest retained in order.
        let steps: Vec<usize> = events
            .iter()
            .map(|e| match e {
                Event::TimestepStarted { step, .. } => *step,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(steps, vec![2, 3, 4]);
        let snap = rec.snapshot();
        assert_eq!(snap.recorded_events, 5);
        assert_eq!(snap.dropped_events, 2);
    }

    #[test]
    fn queue_wait_feeds_histogram_and_rack_total() {
        let rec = TraceRecorder::default();
        rec.record(Event::TransferStarted {
            xfer: xfer(2, 0, 64),
            queue_wait: 0.25,
            t: 0.25,
        });
        let snap = rec.snapshot();
        assert_eq!(snap.queue_wait.count(), 1);
        assert!((snap.racks[2].queue_wait_seconds - 0.25).abs() < 1e-6);
    }

    #[test]
    fn failure_events_feed_retry_counters() {
        let rec = TraceRecorder::default();
        rec.record(Event::TransferFailed {
            xfer: xfer(2, 0, 64),
            attempt: 0,
            reason: "timeout".into(),
            t: 0.5,
        });
        rec.record(Event::RetryScheduled {
            label: "p0op0:send".into(),
            rack: 2,
            attempt: 0,
            delay: 0.05,
            t: 0.5,
        });
        rec.record(Event::HelperCrashed {
            node: 20,
            rack: 2,
            t: 0.7,
        });
        rec.record(Event::Replanned {
            scheme: "rpr".into(),
            failed: 2,
            reused_ops: 3,
            t: 0.75,
        });
        let snap = rec.snapshot();
        assert_eq!(snap.transfer_failures, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.crashes, 1);
        assert_eq!(snap.replans, 1);
        assert_eq!(snap.racks[2].transfer_failures, 1);
        assert_eq!(snap.racks[2].retries, 1);
        // Failed attempts never count as completed transfers.
        assert_eq!(snap.transfers, 0);
    }

    #[test]
    fn stream_summaries_feed_stream_counters() {
        let rec = TraceRecorder::default();
        rec.record(Event::StreamSummary {
            xfer: xfer(0, 1, 4096),
            chunks: 4,
            chunk_bytes: 1024,
            first_chunk_latency: 0.125,
            throughput: 8192.0,
            t: 0.5,
        });
        rec.record(Event::StreamSummary {
            xfer: xfer(1, 0, 4096),
            chunks: 8,
            chunk_bytes: 512,
            first_chunk_latency: 0.0625,
            throughput: 8192.0,
            t: 0.6,
        });
        let snap = rec.snapshot();
        assert_eq!(snap.streams, 2);
        assert_eq!(snap.chunks_streamed, 12);
        assert_eq!(snap.first_chunk_latency.count(), 2);
        // Stream summaries are bookkeeping, not transfers.
        assert_eq!(snap.transfers, 0);
    }

    #[test]
    fn supervisor_events_feed_counters() {
        let rec = TraceRecorder::default();
        rec.record(Event::HedgeLaunched {
            label: "p0op0:send".into(),
            slow_node: 3,
            hedge_node: 5,
            multiple: 2.0,
            t: 0.4,
        });
        rec.record(Event::HedgeWon {
            label: "p0op0:send".into(),
            winner_node: 5,
            saved: 0.2,
            t: 0.6,
        });
        rec.record(Event::HelperQuarantined {
            node: 3,
            score: 0.25,
            t: 0.6,
        });
        rec.record(Event::DeadlineExceeded {
            scope: "repair".into(),
            budget: 1.0,
            elapsed: 1.4,
            t: 1.4,
        });
        rec.record(Event::DegradedFallback {
            tier: "degraded-read".into(),
            reason: "deadline".into(),
            t: 1.4,
        });
        let snap = rec.snapshot();
        assert_eq!(snap.hedges, 1);
        assert_eq!(snap.hedge_wins, 1);
        assert_eq!(snap.quarantines, 1);
        assert_eq!(snap.deadlines_exceeded, 1);
        assert_eq!(snap.degraded_fallbacks, 1);
        assert_eq!(rec.take_events().len(), 5);
    }

    #[test]
    fn request_events_feed_counters_and_histograms() {
        let rec = TraceRecorder::default();
        rec.record(Event::RequestIssued {
            request: 0,
            read: true,
            degraded: false,
            t: 0.0,
        });
        rec.record(Event::RequestDone {
            request: 0,
            read: true,
            degraded: false,
            first_byte: 0.1,
            issued: 0.0,
            end: 0.5,
        });
        rec.record(Event::RequestDone {
            request: 1,
            read: true,
            degraded: true,
            first_byte: 0.05,
            issued: 0.2,
            end: 0.9,
        });
        rec.record(Event::QosThrottled {
            flows: 4,
            fraction: 0.4,
            t: 0.0,
        });
        let snap = rec.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.degraded_reads, 1);
        assert_eq!(snap.qos_throttles, 1);
        assert_eq!(snap.request_latency.count(), 2);
        assert_eq!(snap.request_first_byte.count(), 2);
        // Issuing alone completes nothing.
        assert_eq!(rec.take_events().len(), 4);
    }

    #[test]
    fn recorder_is_usable_across_threads() {
        let rec = TraceRecorder::default();
        std::thread::scope(|s| {
            for i in 0..4 {
                let rec = &rec;
                s.spawn(move || {
                    for j in 0..100 {
                        rec.record(Event::TransferDone {
                            xfer: xfer(i, (i + 1) % 4, j),
                            start: 0.0,
                            end: 0.001,
                        });
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().transfers, 400);
        assert_eq!(rec.take_events().len(), 400);
    }
}
