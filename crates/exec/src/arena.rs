//! The executor's payload buffers: one free list for the whole process.
//!
//! Every payload byte the executor touches lives in a [`PoolBuf`]: a
//! `Send` copies its stripe block into one chunk by chunk, a `Combine`
//! folds straight into one, and the [`Chunk`] — an `Arc` around it — is
//! what travels down the dependency channels and what an op keeps as its
//! value. When the last handle drops, the allocation goes back to the
//! [`BufferPool`] it came from.
//!
//! The pool outlives attempts and repairs ([`BufferPool::process`]), so
//! from the second repair of a geometry on the executor allocates
//! nothing: a fresh `Vec` of a block-sized length is an `mmap` and a
//! minor fault per page, every time, and at 32 MiB blocks that was most
//! of a repair's CPU (docs/PERFORMANCE.md, "exec data path"). What an
//! idle pool may keep is bounded in bytes ([`RETAIN_BYTES`]); a buffer
//! returned above the bound is freed.
//!
//! One mutex-guarded list, no size classes: a run checks out chunks of at
//! most two lengths (the chunk size and one ragged tail), so the most
//! recently returned buffer almost always fits. A buffer is zeroed once,
//! when it is allocated, and never resized.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Bytes of idle buffers the process-wide pool keeps. The largest repair
/// the repository runs — two 32 MiB blocks of a (6,3) stripe — has about
/// half a GiB of op values live at once; a repair that needs more still
/// runs, it just allocates the excess fresh each time.
const RETAIN_BYTES: usize = 1 << 30;

/// Checkout counters of one execution, reported on
/// [`ExecReport`](crate::ExecReport): `fresh` checkouts had to allocate,
/// `recycled` ones were served from the pool. The first repair of a
/// geometry in a process is mostly `fresh`; later ones should not be.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers allocated fresh from the heap (nothing idle was big enough).
    pub fresh: usize,
    /// Checkouts served from the free list without a heap allocation.
    pub recycled: usize,
}

/// One execution's checkout counts. The pool is shared by every repair
/// in the process, concurrent ones included, so the counts live with the
/// execution, not with the pool.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    fresh: AtomicUsize,
    recycled: AtomicUsize,
}

impl Tally {
    pub(crate) fn stats(&self) -> ArenaStats {
        ArenaStats {
            fresh: self.fresh.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Default)]
struct FreeList {
    bufs: Vec<Vec<u8>>,
    /// Sum of `bufs[..].len()`, held to the pool's bound.
    bytes: usize,
}

/// A free list of payload buffers. Checked-out buffers return on their
/// own when the last [`Chunk`] handle drops.
#[derive(Debug)]
pub(crate) struct BufferPool {
    retain: usize,
    free: Mutex<FreeList>,
}

impl BufferPool {
    /// A pool that keeps at most `retain` bytes of idle buffers.
    fn with_retention(retain: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            retain,
            free: Mutex::default(),
        })
    }

    /// The pool every execution in this process shares.
    pub(crate) fn process() -> &'static Arc<BufferPool> {
        static POOL: OnceLock<Arc<BufferPool>> = OnceLock::new();
        POOL.get_or_init(|| BufferPool::with_retention(RETAIN_BYTES))
    }

    /// Check out a buffer of exactly `len` bytes, counted on `tally`.
    /// Contents are unspecified — the caller must overwrite all of it.
    pub(crate) fn get(self: &Arc<Self>, len: usize, tally: &Tally) -> PoolBuf {
        let idle = {
            let mut free = self.free.lock().expect("a pool-lock holder panicked");
            let fits = free.bufs.iter().rposition(|b| b.len() >= len);
            fits.map(|at| {
                let buf = free.bufs.swap_remove(at);
                free.bytes -= buf.len();
                buf
            })
        };
        let data = match idle {
            Some(buf) => {
                tally.recycled.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                tally.fresh.fetch_add(1, Ordering::Relaxed);
                vec![0u8; len]
            }
        };
        PoolBuf {
            data,
            len,
            pool: Arc::clone(self),
        }
    }

    /// Bytes of idle buffers held right now.
    #[cfg(test)]
    pub(crate) fn retained_bytes(&self) -> usize {
        self.free.lock().expect("a pool-lock holder panicked").bytes
    }
}

/// A buffer checked out of a [`BufferPool`]. Dereferences to the `len`
/// bytes asked for; on drop the allocation returns to the pool's free
/// list, or is freed if the pool already holds its bound.
#[derive(Debug)]
pub(crate) struct PoolBuf {
    data: Vec<u8>,
    len: usize,
    pool: Arc<BufferPool>,
}

impl Deref for PoolBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[..self.len]
    }
}

impl DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[..self.len]
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        // A poisoned lock means a holder panicked between two Vec moves;
        // never panic in drop over it — let the buffer go to the heap.
        if let Ok(mut free) = self.pool.free.lock() {
            if free.bytes + data.len() <= self.pool.retain {
                free.bytes += data.len();
                free.bufs.push(data);
            }
        }
    }
}

/// One chunk of an op's output, as it is produced, forwarded and kept:
/// cloning is an `Arc` bump, so fan-out edges, the op's own value and a
/// later generation's re-serve all share one buffer. An op's value is
/// the list of its chunks.
pub(crate) type Chunk = Arc<PoolBuf>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_returns_requested_length() {
        let (pool, tally) = (BufferPool::with_retention(1 << 20), Tally::default());
        assert_eq!(pool.get(17, &tally).len(), 17);
        assert_eq!(pool.get(0, &tally).len(), 0);
    }

    #[test]
    fn dropped_buffers_are_recycled() {
        let (pool, tally) = (BufferPool::with_retention(1 << 20), Tally::default());
        drop(pool.get(64, &tally));
        let again = pool.get(64, &tally);
        let stats = tally.stats();
        assert_eq!(stats.fresh, 1, "second checkout must reuse the first");
        assert_eq!(stats.recycled, 1);
        drop(again);
    }

    #[test]
    fn a_recycled_buffer_has_the_length_asked_for() {
        let (pool, tally) = (BufferPool::with_retention(1 << 20), Tally::default());
        pool.get(8, &tally).copy_from_slice(&[0xAB; 8]);
        assert_eq!(
            pool.get(4, &tally).len(),
            4,
            "a longer buffer serves a shorter ask"
        );
        // Too short for this ask: left idle, a fresh one allocated.
        assert_eq!(pool.get(12, &tally).len(), 12);
        assert_eq!(
            tally.stats(),
            ArenaStats {
                fresh: 2,
                recycled: 1
            }
        );
        assert_eq!(pool.get(8, &tally).len(), 8, "the 12 is on top and fits");
        assert_eq!(tally.stats().recycled, 2);
    }

    #[test]
    fn chunk_fanout_shares_one_buffer_until_last_drop() {
        let (pool, tally) = (BufferPool::with_retention(1 << 20), Tally::default());
        let mut buf = pool.get(16, &tally);
        buf.copy_from_slice(&[7u8; 16]);
        let c1: Chunk = Arc::new(buf);
        let c2 = c1.clone();
        assert!(std::ptr::eq(&c1[..], &c2[..]), "a clone is the same bytes");
        drop(c1);
        assert_eq!(pool.retained_bytes(), 0, "c2 still holds the buffer");
        drop(c2);
        assert_eq!(pool.retained_bytes(), 16, "last drop returns the buffer");
    }

    #[test]
    fn the_idle_pool_never_exceeds_its_bound() {
        // A large repair's worth of buffers comes back at once; the pool
        // keeps what fits under its bound and frees the rest. A small
        // repair afterwards is served from what was kept and adds nothing.
        let (pool, tally) = (BufferPool::with_retention(100 * 1024), Tally::default());
        let large: Vec<PoolBuf> = (0..10).map(|_| pool.get(32 * 1024, &tally)).collect();
        assert_eq!(pool.retained_bytes(), 0);
        drop(large);
        assert_eq!(
            pool.retained_bytes(),
            96 * 1024,
            "three fit, seven are freed"
        );
        let small: Vec<PoolBuf> = (0..5).map(|_| pool.get(1024, &tally)).collect();
        assert_eq!(
            tally.stats(),
            ArenaStats {
                fresh: 12,
                recycled: 3
            }
        );
        drop(small);
        // Three 32 KiB buffers back, then 1 KiB ones while they fit.
        assert_eq!(pool.retained_bytes(), 98 * 1024);
        assert!(pool.retained_bytes() <= pool.retain);
        assert!(BufferPool::process().retained_bytes() <= RETAIN_BYTES);
    }
}
