//! A reusable chunk-buffer arena for the streaming executor.
//!
//! Cut-through streaming moves one `Delivery` per chunk per dependency
//! edge. Before the arena existed every forwarded chunk allocated a fresh
//! `Vec<u8>` (`Arc::new(buf[r].to_vec())`), so a chunked repair performed
//! `O(chunks × edges)` heap allocations on its hot path. The arena turns
//! that into a steady state of a handful of buffers per edge: a producer
//! checks a buffer out of the shared [`BufferPool`], fills it, and wraps
//! it in a [`Chunk`]; when the last consumer drops its handle the buffer
//! flows back to the pool's free list and the next chunk reuses it.
//!
//! The pool is deliberately simple — one mutex-guarded free list, no
//! size classes. A run streams chunks of at most two distinct lengths
//! (the configured chunk size and one ragged tail), and `Vec::resize`
//! on a recycled buffer never reallocates once its capacity has grown
//! to the chunk size, so a single list is enough.

use parking_lot::Mutex;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Allocation counters of one execution's buffer pool, reported on
/// [`ExecReport`](crate::ExecReport) so tests (and the curious) can see
/// the steady state: after warm-up, `recycled` should dwarf `fresh`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers allocated fresh from the heap (pool was empty).
    pub fresh: usize,
    /// Checkouts served from the free list without a heap allocation.
    pub recycled: usize,
}

impl ArenaStats {
    /// Element-wise sum — used to aggregate the pools of a multi-attempt
    /// execution (retry generations each run their own pool).
    pub fn plus(self, other: ArenaStats) -> ArenaStats {
        ArenaStats {
            fresh: self.fresh + other.fresh,
            recycled: self.recycled + other.recycled,
        }
    }
}

/// A free list of chunk buffers shared by every op thread of one
/// execution attempt. Checked-out buffers return automatically when
/// their last [`Chunk`] handle drops.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    fresh: AtomicUsize,
    recycled: AtomicUsize,
}

impl BufferPool {
    /// A fresh, empty pool. `Arc` because [`PoolBuf`]s hold a weak
    /// back-reference for their return trip.
    pub fn new() -> Arc<BufferPool> {
        Arc::new(BufferPool::default())
    }

    /// Check out a buffer of exactly `len` bytes. Contents are
    /// unspecified — the caller must overwrite the whole buffer.
    pub fn get(self: &Arc<Self>, len: usize) -> PoolBuf {
        let popped = self.free.lock().pop();
        let mut data = match popped {
            Some(d) => {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                d
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        };
        data.resize(len, 0);
        PoolBuf {
            data,
            pool: Arc::downgrade(self),
        }
    }

    /// Allocation counters so far.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            fresh: self.fresh.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
        }
    }
}

/// A buffer checked out of a [`BufferPool`]. Dereferences to its bytes;
/// on drop the underlying allocation returns to the pool's free list
/// (or is simply freed if the pool is already gone).
#[derive(Debug)]
pub struct PoolBuf {
    data: Vec<u8>,
    pool: Weak<BufferPool>,
}

impl Deref for PoolBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.free.lock().push(std::mem::take(&mut self.data));
        }
    }
}

/// The payload of one `Delivery`: a pooled buffer for a chunk smaller
/// than its block — the streaming hot path — or, when the chunk *is* the
/// block (no streaming chunk size, or one at least the block size), the
/// producing op's finished output itself. Which one is decided by the
/// chunk's length alone. Cloning either variant is an `Arc` bump —
/// fan-out edges share one buffer.
#[derive(Clone, Debug)]
pub enum Chunk {
    /// A pool-backed chunk; returns to its [`BufferPool`] on last drop.
    Pooled(Arc<PoolBuf>),
    /// A whole block, shared with the op that produced it: the same
    /// allocation the attempt keeps as that op's value, so a one-chunk
    /// stream copies nothing into the pool.
    Shared(Arc<Vec<u8>>),
}

impl Chunk {
    /// Wrap a checked-out buffer for forwarding.
    pub fn pooled(buf: PoolBuf) -> Chunk {
        Chunk::Pooled(Arc::new(buf))
    }

    /// Wrap an already-shared whole-block value.
    pub fn shared(v: Arc<Vec<u8>>) -> Chunk {
        Chunk::Shared(v)
    }
}

impl Deref for Chunk {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Chunk::Pooled(b) => b,
            Chunk::Shared(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_returns_requested_length() {
        let pool = BufferPool::new();
        assert_eq!(pool.get(17).len(), 17);
        assert_eq!(pool.get(0).len(), 0);
    }

    #[test]
    fn dropped_buffers_are_recycled() {
        let pool = BufferPool::new();
        let a = pool.get(64);
        drop(a);
        let b = pool.get(64);
        let stats = pool.stats();
        assert_eq!(stats.fresh, 1, "second checkout must reuse the first");
        assert_eq!(stats.recycled, 1);
        drop(b);
    }

    #[test]
    fn recycled_buffer_is_resized_not_stale() {
        let pool = BufferPool::new();
        {
            let mut a = pool.get(8);
            a.copy_from_slice(&[0xAB; 8]);
        }
        let b = pool.get(4);
        assert_eq!(b.len(), 4, "recycled buffer must shrink to fit");
        let c = pool.get(12);
        assert_eq!(c.len(), 12);
    }

    #[test]
    fn chunk_fanout_shares_one_buffer_until_last_drop() {
        let pool = BufferPool::new();
        let mut buf = pool.get(16);
        buf.copy_from_slice(&[7u8; 16]);
        let c1 = Chunk::pooled(buf);
        let c2 = c1.clone();
        assert_eq!(&c1[..], &c2[..]);
        drop(c1);
        assert_eq!(pool.stats().fresh, 1);
        assert!(pool.free.lock().is_empty(), "c2 still holds the buffer");
        drop(c2);
        assert_eq!(pool.free.lock().len(), 1, "last drop returns the buffer");
    }

    #[test]
    fn pool_death_orphans_outstanding_buffers_safely() {
        let pool = BufferPool::new();
        let buf = pool.get(8);
        drop(pool);
        drop(buf); // must not panic — buffer is simply freed
    }

    #[test]
    fn shared_chunks_expose_the_block_without_copying() {
        let v = Arc::new(vec![1u8, 2, 3]);
        let c = Chunk::shared(v.clone());
        assert!(std::ptr::eq(&c[..], v.as_slice()), "deref must not copy");
    }

    #[test]
    fn stats_aggregate_across_attempts() {
        let a = ArenaStats {
            fresh: 2,
            recycled: 10,
        };
        let b = ArenaStats {
            fresh: 1,
            recycled: 5,
        };
        assert_eq!(
            a.plus(b),
            ArenaStats {
                fresh: 3,
                recycled: 15
            }
        );
    }
}
