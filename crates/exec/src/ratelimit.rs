//! A blocking token bucket — the wondershaper of this repository.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

struct State {
    tokens: f64,
    last: Instant,
}

/// A token bucket refilled continuously at `rate` units/sec. `take` blocks
/// the calling thread until the requested amount is available, so threads
/// sharing a bucket share its bandwidth approximately fairly (FIFO on the
/// internal lock).
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    state: Mutex<State>,
}

impl TokenBucket {
    /// A bucket refilling at `rate` units/sec with a 20 ms burst allowance
    /// (enough to absorb scheduler jitter without distorting transfer
    /// times).
    ///
    /// # Panics
    /// Panics if the rate is not strictly positive and finite.
    pub fn new(rate: f64) -> TokenBucket {
        assert!(rate > 0.0 && rate.is_finite(), "TokenBucket: bad rate");
        let burst = rate * 0.02;
        TokenBucket {
            rate,
            burst,
            state: Mutex::new(State {
                tokens: burst,
                last: Instant::now(),
            }),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("a taker panicked mid-update")
    }

    /// The configured rate, units/sec.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The burst allowance in units (20 ms worth of the rate).
    pub fn burst(&self) -> f64 {
        self.burst
    }

    /// Discard every accumulated token without blocking, so the next
    /// [`TokenBucket::take`] pays the full steady rate. Microbenchmarks
    /// call this before starting their clock; see
    /// `measure_path_throughput`.
    pub fn drain_burst(&self) {
        let mut s = self.state();
        s.tokens = 0.0;
        s.last = Instant::now();
    }

    /// Block until `amount` tokens are available, then consume them.
    ///
    /// # Panics
    /// Panics on a negative or non-finite amount.
    pub fn take(&self, amount: f64) {
        assert!(amount >= 0.0 && amount.is_finite(), "TokenBucket: amount");
        if amount == 0.0 {
            return;
        }
        loop {
            let wait = {
                let mut s = self.state();
                let now = Instant::now();
                let elapsed = now.duration_since(s.last).as_secs_f64();
                s.tokens = (s.tokens + elapsed * self.rate).min(self.burst.max(amount));
                s.last = now;
                if s.tokens >= amount {
                    s.tokens -= amount;
                    return;
                }
                (amount - s.tokens) / self.rate
            };
            // Sleep outside the lock so other takers can run.
            std::thread::sleep(Duration::from_secs_f64(wait.min(0.05)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn take_enforces_the_rate() {
        let b = TokenBucket::new(1_000_000.0); // 1 MB/s
        let start = Instant::now();
        b.take(200_000.0); // burst covers 50k; ~0.15 s for the rest
        let dt = start.elapsed().as_secs_f64();
        assert!((0.10..0.40).contains(&dt), "took {dt}s");
    }

    #[test]
    fn zero_take_is_free() {
        let b = TokenBucket::new(1.0);
        let start = Instant::now();
        b.take(0.0);
        assert!(start.elapsed().as_secs_f64() < 0.01);
    }

    #[test]
    fn concurrent_takers_share_bandwidth() {
        let b = Arc::new(TokenBucket::new(2_000_000.0));
        let start = Instant::now();
        let mut handles = Vec::new();
        for _ in 0..2 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                // 300 KB each through a shared 2 MB/s bucket in 64 KB chunks.
                for _ in 0..5 {
                    b.take(60_000.0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let dt = start.elapsed().as_secs_f64();
        // 600 KB total at 2 MB/s ≈ 0.3 s minus the 100 KB of shared burst.
        assert!((0.15..0.80).contains(&dt), "took {dt}s");
    }

    #[test]
    fn drain_burst_removes_the_free_allowance() {
        let b = TokenBucket::new(1_000_000.0); // 1 MB/s, 20 KB burst
        assert!((b.burst() - 20_000.0).abs() < 1e-9);
        b.drain_burst();
        let start = Instant::now();
        // A fresh bucket would serve this instantly from the burst; after
        // draining it must take ~20 ms of refill.
        b.take(20_000.0);
        let dt = start.elapsed().as_secs_f64();
        assert!((0.01..0.30).contains(&dt), "took {dt}s");
    }

    #[test]
    #[should_panic(expected = "bad rate")]
    fn zero_rate_rejected() {
        TokenBucket::new(0.0);
    }

    #[test]
    #[should_panic(expected = "bad rate")]
    fn negative_rate_rejected() {
        TokenBucket::new(-8.0e6);
    }

    #[test]
    #[should_panic(expected = "bad rate")]
    fn non_finite_rate_rejected() {
        TokenBucket::new(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "bad rate")]
    fn nan_rate_rejected() {
        TokenBucket::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "amount")]
    fn negative_take_rejected() {
        TokenBucket::new(1.0e6).take(-1.0);
    }

    #[test]
    #[should_panic(expected = "amount")]
    fn non_finite_take_rejected() {
        TokenBucket::new(1.0e6).take(f64::NAN);
    }

    #[test]
    fn burst_larger_than_transfer_still_caps_accumulation() {
        // A request far larger than the burst allowance must not deadlock:
        // the cap tracks max(burst, amount), so the bucket eventually
        // accumulates enough, paying the full steady rate for the excess.
        let b = TokenBucket::new(1_000_000.0); // 1 MB/s, 20 KB burst
        let start = Instant::now();
        b.take(5.0 * b.burst()); // 100 KB: ~80 ms beyond the burst
        let dt = start.elapsed().as_secs_f64();
        assert!((0.05..0.40).contains(&dt), "took {dt}s");
        // And the opposite shape: a transfer smaller than the burst goes
        // through instantly on a fresh bucket.
        let small = TokenBucket::new(1_000_000.0);
        let start = Instant::now();
        small.take(small.burst() * 0.5);
        assert!(start.elapsed().as_secs_f64() < 0.01);
    }
}
