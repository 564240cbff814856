//! The [`Recorder`] trait, the no-op recorder, and the default
//! [`TraceRecorder`] (a bounded event ring).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::Event;

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

// Why the ring's lock can only be poisoned by a bug in the recorder: its
// holders push, pop and drain, nothing else.
const RING: &str = "a recording thread panicked holding the event ring";

/// The default [`Recorder`]: a bounded event ring for export and for
/// folds. Totals (bytes, transfers, retries, …) are folds over
/// [`TraceRecorder::take_events`]; the recorder keeps no mirror of them.
///
/// Overflow policy: when the ring is full the **oldest** event is dropped
/// and [`TraceRecorder::dropped`] is incremented — recent history wins.
/// Every recorded event is either returned by one `take_events` call or
/// counted by `dropped()`.
#[derive(Debug)]
pub struct TraceRecorder {
    ring_capacity: usize,
    ring: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
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
        }
    }

    /// Drain and return the retained events in arrival order.
    pub fn take_events(&self) -> Vec<Event> {
        self.ring.lock().expect(RING).drain(..).collect()
    }

    /// Events evicted from the ring by the drop-oldest policy so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Recorder for TraceRecorder {
    fn record(&self, event: Event) {
        let mut ring = self.ring.lock().expect(RING);
        if ring.len() >= self.ring_capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Transfer;

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
        assert_eq!(rec.dropped(), 2);
        assert_eq!(events.len() as u64 + rec.dropped(), 5);
    }

    #[test]
    fn recorder_is_usable_across_threads() {
        let rec = TraceRecorder::with_capacity(300);
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
        let events = rec.take_events();
        assert_eq!(events.len(), 300);
        assert_eq!(events.len() as u64 + rec.dropped(), 400);
        assert!(events
            .iter()
            .all(|e| matches!(e, Event::TransferDone { .. })));
    }
}
