//! Real-data execution of repair plans — the repository's stand-in for the
//! paper's Amazon EC2 deployment (§5.2).
//!
//! Where `rpr-netsim` *simulates* a plan on a virtual clock, this crate
//! *executes* it: every operation runs on its own OS thread, transfers move
//! real buffers through token-bucket rate limiters that reproduce the
//! bandwidth matrix (e.g. the paper's Table 1, scaled to laptop speeds),
//! and combines perform genuine GF(2^8) arithmetic via `rpr-gf`. Because
//! the XOR kernel runs several times faster than the table-lookup Galois
//! kernel, the paper's `t_wd ≫ t_nd` decode gap emerges from the real
//! machine rather than from a model.
//!
//! The executor finally verifies, byte for byte, that every reconstructed
//! block equals the lost original — plans do not merely *time* well, they
//! *decode correctly*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod executor;
mod ratelimit;
mod supervised;

pub use arena::ArenaStats;
pub use executor::{ExecError, ExecReport, OpTiming};
pub use ratelimit::TokenBucket;
pub use supervised::{execute, execute_recorded, execute_supervised, SupervisedReport};

use rpr_topology::BandwidthProfile;

/// Scale an "EC2" bandwidth profile down to a laptop-friendly rate while
/// preserving every inter/intra-region ratio. With the default `1/16`
/// scale, the mean cross-region rate of Table 1 (≈ 53 Mbps) becomes
/// ≈ 0.41 MB/s, so a 1 MiB block crosses "regions" in ≈ 2.5 s — measurable
/// timing without multi-minute experiments.
pub fn scaled_ec2_profile(racks: usize, scale: f64) -> BandwidthProfile {
    rpr_topology::ec2_table1_profile(racks).scaled(scale)
}

/// Measure the achieved throughput (bytes/sec) of a rate-limited path by
/// pushing `seconds`-worth of traffic through a fresh token bucket — the
/// microbenchmark used to regenerate Table 1. The bucket's burst
/// allowance is explicitly discarded ([`TokenBucket::drain_burst`])
/// before the clock starts, so the result reflects the steady rate
/// regardless of how large the allowance is.
pub fn measure_path_throughput(rate_bps: f64, seconds: f64) -> f64 {
    let bucket = TokenBucket::new(rate_bps);
    bucket.drain_burst();
    let bytes = (rate_bps * seconds).max(1.0) as u64;
    let start = std::time::Instant::now();
    let mut left = bytes;
    const CHUNK: u64 = 64 * 1024;
    while left > 0 {
        let take = left.min(CHUNK);
        bucket.take(take as f64);
        left -= take;
    }
    bytes as f64 / start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_topology::MBIT;

    #[test]
    fn scaled_profile_keeps_ratios() {
        let p = scaled_ec2_profile(5, 1.0 / 16.0);
        assert!((p.cross_to_inner_ratio() - 11.32).abs() < 0.02);
    }

    #[test]
    fn measurement_is_not_inflated_by_the_burst_allowance() {
        // Over a 0.1 s window an undrained 20 ms burst would read ~20%
        // high; the explicit drain keeps short measurements honest.
        let rate = 64.0 * MBIT;
        let got = measure_path_throughput(rate, 0.1);
        assert!(got <= rate * 1.10, "measured {got:.0} vs nominal {rate:.0}");
    }

    #[test]
    fn measured_throughput_tracks_configured_rate() {
        let rate = 64.0 * MBIT;
        let got = measure_path_throughput(rate, 0.25);
        assert!(
            (got / rate - 1.0).abs() < 0.20,
            "measured {got:.0} vs nominal {rate:.0}"
        );
    }
}
