//! At-risk stripe index.
//!
//! The scheduler's admission queue, keyed by **at-risk level** — the
//! number of blocks a stripe has lost. A stripe one more failure away
//! from data loss is strictly more urgent than one with spare parity
//! left, so stripes at level `z` are always served before any stripe at
//! level `z − 1`; within a level, service is FIFO in enqueue order.
//!
//! Each level is one queue of `(seq, stripe)` entries. Sequence numbers
//! are handed out in increasing order, so a queue's front is its oldest
//! entry and popping the front keeps level-wide FIFO exact.
//!
//! **O(1) requeue.** When a new failure is detected on an already-queued
//! stripe, [`StripeIndex::requeue`] bumps its level record and pushes a
//! fresh entry — it never searches the old level's queue. The stale
//! entry stays behind and is skipped lazily when it surfaces at a queue
//! front (its recorded level no longer matches). Every entry is pushed at
//! most once per (re)queue and discarded at most once, so the amortized
//! cost stays O(1) per operation.

use std::collections::VecDeque;

/// Marker for "stripe is not tracked at any level".
const NO_LEVEL: u8 = u8::MAX;

/// Per-stripe bookkeeping backing the lazy-deletion scheme.
#[derive(Clone, Copy)]
struct StripeState {
    /// Current at-risk level, or [`NO_LEVEL`] when untracked.
    level: u8,
    /// True while the stripe has a live (non-stale) queue entry.
    queued: bool,
    /// Sequence number of the live entry. Distinguishes the live entry
    /// from stale ones even when a stripe is requeued back to a level it
    /// already has an abandoned entry at (A → B → A would otherwise make
    /// the old entry look live again).
    seq: u64,
}

/// A FIFO queue of at-risk stripes, prioritized by level.
///
/// See the [module docs](self) for the priority and requeue semantics.
pub struct StripeIndex {
    /// `queues[level]` holds `(seq, stripe)` entries, oldest first.
    queues: Vec<VecDeque<(u64, u32)>>,
    state: Vec<StripeState>,
    next_seq: u64,
    live: usize,
}

impl StripeIndex {
    /// An index accepting levels `1..=max_level` over `stripes` stripe
    /// ids.
    ///
    /// # Panics
    /// Panics if `max_level` is 0 or ≥ 255.
    pub fn new(max_level: usize, stripes: usize) -> StripeIndex {
        assert!(
            max_level > 0 && max_level < NO_LEVEL as usize,
            "StripeIndex: max_level out of range"
        );
        StripeIndex {
            queues: (0..=max_level).map(|_| VecDeque::new()).collect(),
            state: vec![
                StripeState {
                    level: NO_LEVEL,
                    queued: false,
                    seq: 0,
                };
                stripes
            ],
            next_seq: 0,
            live: 0,
        }
    }

    /// Number of stripes currently queued (live entries only).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no stripe is waiting.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Queue a stripe at an at-risk level. O(1).
    ///
    /// If the stripe is already queued this behaves like
    /// [`StripeIndex::requeue`] (the level record moves; same-level
    /// enqueues are no-ops so a stripe never holds two live entries).
    ///
    /// # Panics
    /// Panics if `level` is 0 or above `max_level`, or `stripe` is out
    /// of range.
    pub fn enqueue(&mut self, stripe: u32, level: usize) {
        assert!(
            level > 0 && level < self.queues.len(),
            "StripeIndex: level {level} out of range"
        );
        let st = &mut self.state[stripe as usize];
        if st.queued && st.level as usize == level {
            return;
        }
        if !st.queued {
            self.live += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        st.level = level as u8;
        st.queued = true;
        st.seq = seq;
        self.queues[level].push_back((seq, stripe));
    }

    /// Move an already-tracked stripe to a new level after a newly
    /// detected failure. O(1): the stale entry at the old level is
    /// abandoned in place and skipped lazily when it reaches its queue's
    /// front.
    pub fn requeue(&mut self, stripe: u32, new_level: usize) {
        self.enqueue(stripe, new_level);
    }

    /// The next stripe to serve — highest level first, oldest entry
    /// within the level — without removing it. Prunes stale entries it
    /// encounters.
    pub fn peek(&mut self) -> Option<(u32, usize)> {
        self.head(false)
    }

    /// Remove and return the next stripe to serve.
    pub fn pop(&mut self) -> Option<(u32, usize)> {
        self.head(true)
    }

    /// Shared scan behind [`StripeIndex::peek`] / [`StripeIndex::pop`].
    fn head(&mut self, take: bool) -> Option<(u32, usize)> {
        if self.live == 0 {
            return None;
        }
        for level in (1..self.queues.len()).rev() {
            let queue = &mut self.queues[level];
            // Lazy deletion: drop stale fronts (requeued or served).
            while let Some(&(seq, stripe)) = queue.front() {
                let st = &mut self.state[stripe as usize];
                if st.queued && st.level as usize == level && st.seq == seq {
                    if take {
                        queue.pop_front();
                        st.queued = false;
                        self.live -= 1;
                    }
                    return Some((stripe, level));
                }
                queue.pop_front();
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_a_level() {
        let mut ix = StripeIndex::new(3, 100);
        for s in [7u32, 3, 12, 5, 9] {
            ix.enqueue(s, 1);
        }
        let order: Vec<u32> = std::iter::from_fn(|| ix.pop().map(|(s, _)| s)).collect();
        assert_eq!(order, vec![7, 3, 12, 5, 9], "level-wide FIFO");
        assert!(ix.is_empty());
    }

    #[test]
    fn higher_level_always_wins() {
        let mut ix = StripeIndex::new(3, 10);
        ix.enqueue(0, 1);
        ix.enqueue(1, 3);
        ix.enqueue(2, 2);
        ix.enqueue(3, 3);
        let order: Vec<(u32, usize)> = std::iter::from_fn(|| ix.pop()).collect();
        assert_eq!(order, vec![(1, 3), (3, 3), (2, 2), (0, 1)]);
    }

    #[test]
    fn requeue_escalates_in_o1_and_skips_stale_entry() {
        let mut ix = StripeIndex::new(3, 10);
        ix.enqueue(0, 1);
        ix.enqueue(1, 1);
        // Stripe 0 loses another block: it jumps ahead of stripe 1.
        ix.requeue(0, 2);
        assert_eq!(ix.len(), 2, "requeue does not double-count");
        assert_eq!(ix.pop(), Some((0, 2)));
        assert_eq!(ix.pop(), Some((1, 1)), "stale level-1 entry for 0 skipped");
        assert_eq!(ix.pop(), None);
    }

    #[test]
    fn same_level_reenqueue_is_a_noop() {
        let mut ix = StripeIndex::new(2, 4);
        ix.enqueue(0, 1);
        ix.enqueue(0, 1);
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.pop(), Some((0, 1)));
        assert_eq!(ix.pop(), None);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut ix = StripeIndex::new(2, 4);
        ix.enqueue(2, 1);
        assert_eq!(ix.peek(), Some((2, 1)));
        assert_eq!(ix.peek(), Some((2, 1)));
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.pop(), Some((2, 1)));
    }

    #[test]
    fn randomized_against_reference_model() {
        // Reference: a flat Vec of (seq, level, stripe) with linear scans.
        let mut ix = StripeIndex::new(4, 256);
        let mut model: Vec<(u64, usize, u32)> = Vec::new();
        let mut level_of = [0usize; 256];
        let mut seq = 0u64;
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..2000 {
            match next() % 3 {
                0 | 1 => {
                    let s = (next() % 256) as u32;
                    let lvl = (next() % 4 + 1) as usize;
                    if level_of[s as usize] != lvl {
                        ix.enqueue(s, lvl);
                        model.retain(|&(_, _, ms)| ms != s);
                        model.push((seq, lvl, s));
                        level_of[s as usize] = lvl;
                        seq += 1;
                    }
                }
                _ => {
                    let got = ix.pop();
                    let want = model
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, &(sq, lvl, _))| (lvl, std::cmp::Reverse(sq)))
                        .map(|(i, _)| i);
                    match (got, want) {
                        (None, None) => {}
                        (Some((gs, gl)), Some(wi)) => {
                            let (_, wl, ws) = model.remove(wi);
                            level_of[ws as usize] = 0;
                            assert_eq!((gs, gl), (ws, wl));
                        }
                        other => panic!("index/model diverged: {other:?}"),
                    }
                    assert_eq!(ix.len(), model.len());
                }
            }
        }
    }
}
