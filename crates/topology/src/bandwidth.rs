//! Bandwidth profiles: how fast a byte moves between two nodes.
//!
//! Two shapes are supported:
//!
//! * [`BandwidthProfile::uniform`] — the production datacenter model of the
//!   paper (§2.3): one inner-rack rate, one cross-rack rate (default 10 : 1);
//! * [`BandwidthProfile::rack_matrix`] — arbitrary per-rack-pair rates, used
//!   to replay the paper's Table 1 EC2 measurement (regions as racks).

use crate::{RackId, Topology};

/// One megabit per second, in bytes per second.
pub const MBIT: f64 = 1_000_000.0 / 8.0;

/// One gigabit per second, in bytes per second.
pub const GBIT: f64 = 1_000.0 * MBIT;

/// Bandwidth between node pairs, resolved at rack granularity.
#[derive(Clone, Debug)]
pub struct BandwidthProfile {
    /// `rates[a][b]` = bytes/sec from rack `a` to rack `b`; the diagonal is
    /// the inner-rack rate.
    rates: Vec<Vec<f64>>,
}

impl BandwidthProfile {
    /// A uniform profile: every rack's inner rate is `inner_bps`, every
    /// cross-rack pair runs at `cross_bps` (both in bytes/sec).
    ///
    /// # Panics
    /// Panics if rates are not strictly positive or `racks == 0`.
    #[allow(clippy::needless_range_loop)] // matrix construction reads best indexed
    pub fn uniform(racks: usize, inner_bps: f64, cross_bps: f64) -> BandwidthProfile {
        assert!(racks > 0, "BandwidthProfile: no racks");
        assert!(
            inner_bps > 0.0 && cross_bps > 0.0,
            "BandwidthProfile: rates must be positive"
        );
        let rates = (0..racks)
            .map(|a| {
                (0..racks)
                    .map(|b| if a == b { inner_bps } else { cross_bps })
                    .collect()
            })
            .collect();
        BandwidthProfile { rates }
    }

    /// The paper's simulator setting: inner 1 Gb/s, cross 0.1 Gb/s (§5.1).
    pub fn simics_default(racks: usize) -> BandwidthProfile {
        BandwidthProfile::uniform(racks, GBIT, 0.1 * GBIT)
    }

    /// An arbitrary symmetric rack-pair rate matrix (bytes/sec).
    ///
    /// # Panics
    /// Panics if the matrix is not square, empty, asymmetric, or has a
    /// non-positive rate.
    #[allow(clippy::needless_range_loop)] // validation reads best indexed
    pub fn rack_matrix(rates: Vec<Vec<f64>>) -> BandwidthProfile {
        let q = rates.len();
        assert!(q > 0, "BandwidthProfile: empty matrix");
        assert!(
            rates.iter().all(|r| r.len() == q),
            "BandwidthProfile: matrix must be square"
        );
        for a in 0..q {
            for b in 0..q {
                assert!(rates[a][b] > 0.0, "BandwidthProfile: rate must be positive");
                assert!(
                    (rates[a][b] - rates[b][a]).abs() < f64::EPSILON,
                    "BandwidthProfile: matrix must be symmetric"
                );
            }
        }
        BandwidthProfile { rates }
    }

    /// Number of racks covered.
    #[inline]
    pub fn rack_count(&self) -> usize {
        self.rates.len()
    }

    /// Bytes/sec between two racks (diagonal = inner-rack).
    ///
    /// # Panics
    /// Panics if either rack id is out of range.
    #[inline]
    pub fn rate(&self, a: RackId, b: RackId) -> f64 {
        self.rates[a.0][b.0]
    }

    /// Time in seconds to move `bytes` between the two racks at the pair's
    /// nominal rate (no contention).
    #[inline]
    pub fn transfer_time(&self, a: RackId, b: RackId, bytes: u64) -> f64 {
        bytes as f64 / self.rate(a, b)
    }

    /// Mean inner-rack rate (diagonal average).
    pub fn mean_inner(&self) -> f64 {
        let q = self.rates.len();
        (0..q).map(|i| self.rates[i][i]).sum::<f64>() / q as f64
    }

    /// Mean cross-rack rate (off-diagonal average); returns the inner mean
    /// for a single-rack profile.
    pub fn mean_cross(&self) -> f64 {
        let q = self.rates.len();
        if q < 2 {
            return self.mean_inner();
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        for a in 0..q {
            for b in 0..q {
                if a != b {
                    sum += self.rates[a][b];
                    count += 1;
                }
            }
        }
        sum / count as f64
    }

    /// The paper's `t_c / t_i` ratio for this profile (≈ 10 in production,
    /// ≈ 11.3 for the EC2 table).
    pub fn cross_to_inner_ratio(&self) -> f64 {
        self.mean_inner() / self.mean_cross()
    }

    /// Scale every rate by `factor` (used by `rpr-exec` to shrink the
    /// experiment to laptop scale while preserving all ratios).
    pub fn scaled(&self, factor: f64) -> BandwidthProfile {
        assert!(factor > 0.0, "BandwidthProfile: scale must be positive");
        BandwidthProfile {
            rates: self
                .rates
                .iter()
                .map(|row| row.iter().map(|r| r * factor).collect())
                .collect(),
        }
    }

    /// Sanity helper: true if this profile is consistent with a topology
    /// (covers at least its racks).
    pub fn covers(&self, topo: &Topology) -> bool {
        self.rack_count() >= topo.rack_count()
    }
}

/// The measured EC2 inter/intra-region bandwidths of the paper's Table 1,
/// in Mbps, symmetrized. Region order: Ohio, Tokyo, Paris, São Paulo,
/// Sydney.
pub const EC2_TABLE1_MBPS: [[f64; 5]; 5] = [
    [583.39, 51.798, 59.281, 67.613, 41.4],
    [51.798, 583.26, 45.56, 41.605, 91.21],
    [59.281, 45.56, 641.403, 56.57, 40.79],
    [67.613, 41.605, 56.57, 631.416, 34.44],
    [41.4, 91.21, 40.79, 34.44, 565.39],
];

/// Region names for [`EC2_TABLE1_MBPS`], in matrix order.
pub const EC2_REGIONS: [&str; 5] = ["Ohio", "Tokyo", "Paris", "São Paulo", "Sydney"];

/// Build the Table-1 EC2 bandwidth profile (regions as racks). Codes that
/// need more than five racks wrap around the region list; two distinct
/// racks that land on the same region are still separated by the WAN, so
/// their pair runs at the table's mean cross-region rate rather than the
/// intra-region rate.
#[allow(clippy::needless_range_loop)] // matrix construction reads best indexed
pub fn ec2_table1_profile(racks: usize) -> BandwidthProfile {
    assert!(racks > 0);
    let mean_cross = {
        let mut sum = 0.0;
        let mut cnt = 0;
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    sum += EC2_TABLE1_MBPS[a][b];
                    cnt += 1;
                }
            }
        }
        sum / cnt as f64
    };
    let rates = (0..racks)
        .map(|a| {
            (0..racks)
                .map(|b| {
                    if a == b {
                        EC2_TABLE1_MBPS[a % 5][a % 5] * MBIT
                    } else if a % 5 == b % 5 {
                        mean_cross * MBIT
                    } else {
                        EC2_TABLE1_MBPS[a % 5][b % 5] * MBIT
                    }
                })
                .collect()
        })
        .collect();
    BandwidthProfile::rack_matrix(rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_profile_rates() {
        let p = BandwidthProfile::uniform(3, 100.0, 10.0);
        assert_eq!(p.rate(RackId(0), RackId(0)), 100.0);
        assert_eq!(p.rate(RackId(0), RackId(2)), 10.0);
        assert_eq!(p.rack_count(), 3);
        assert!((p.cross_to_inner_ratio() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn simics_default_is_ten_to_one() {
        let p = BandwidthProfile::simics_default(4);
        assert!((p.cross_to_inner_ratio() - 10.0).abs() < 1e-9);
        assert_eq!(
            BandwidthProfile::simics_default(2).rate(RackId(0), RackId(0)),
            GBIT
        );
    }

    #[test]
    fn transfer_time_is_bytes_over_rate() {
        let p = BandwidthProfile::uniform(2, 128.0 * MBIT, 12.8 * MBIT);
        let t = p.transfer_time(RackId(0), RackId(1), (256.0 * MBIT) as u64);
        assert!((t - 20.0).abs() < 1e-6, "got {t}");
    }

    #[test]
    fn ec2_profile_matches_paper_statistics() {
        let p = ec2_table1_profile(5);
        // §5.2: average cross ≈ 53.03 Mbps, average inner ≈ 600.97 Mbps,
        // ratio ≈ 11.32.
        let cross_mbps = p.mean_cross() / MBIT;
        let inner_mbps = p.mean_inner() / MBIT;
        assert!((cross_mbps - 53.03).abs() < 0.05, "cross {cross_mbps}");
        assert!((inner_mbps - 600.97).abs() < 0.05, "inner {inner_mbps}");
        assert!((p.cross_to_inner_ratio() - 11.32).abs() < 0.02);
    }

    #[test]
    fn ec2_profile_wraps_for_more_racks() {
        let p = ec2_table1_profile(7);
        // Rack 5 maps to Ohio again; rack 5 <-> rack 0 are distinct racks
        // in the same region, separated by the WAN at the mean cross rate.
        assert!((p.rate(RackId(5), RackId(0)) / MBIT - 53.03).abs() < 0.05);
        assert_eq!(p.rate(RackId(5), RackId(1)), EC2_TABLE1_MBPS[0][1] * MBIT);
        assert_eq!(p.rate(RackId(5), RackId(5)), EC2_TABLE1_MBPS[0][0] * MBIT);
    }

    #[test]
    fn scaling_preserves_ratio() {
        let p = ec2_table1_profile(5).scaled(1.0 / 16.0);
        assert!((p.cross_to_inner_ratio() - 11.32).abs() < 0.02);
        assert!(p.mean_inner() < 601.0 * MBIT / 15.0);
    }

    #[test]
    #[should_panic(expected = "must be symmetric")]
    fn asymmetric_matrix_rejected() {
        BandwidthProfile::rack_matrix(vec![vec![1.0, 2.0], vec![3.0, 1.0]]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_rejected() {
        BandwidthProfile::uniform(2, 0.0, 1.0);
    }

    #[test]
    fn covers_checks_rack_count() {
        let p = BandwidthProfile::uniform(3, 1.0, 1.0);
        assert!(p.covers(&Topology::uniform(3, 1)));
        assert!(p.covers(&Topology::uniform(2, 1)));
        assert!(!p.covers(&Topology::uniform(4, 1)));
    }
}
