//! Systematic Reed-Solomon codec with *repair equations* and *partial
//! decoding*, the coding substrate of the RPR repair scheme.
//!
//! The paper's terminology is used throughout: an RS `(n, k)` code has `n`
//! **data** blocks and `k` **parity** blocks; the `n + k` blocks of one
//! codeword are a **stripe**; any `n` surviving blocks can reconstruct the
//! stripe.
//!
//! Three layers:
//!
//! * [`CodeParams`] / [`BlockId`] — stripe geometry;
//! * [`StripeCodec`] — encode, and the derivation of [`RepairEquation`]s:
//!   for a set of `z` lost blocks and `n` chosen helper blocks, the
//!   equation set expresses each lost block as a linear combination of
//!   helpers (paper eq. 8). A repair equation is what the planners
//!   distribute across racks; `decode` applies the same equations to bytes;
//! * [`PartialDecoder`] — an incremental accumulator implementing partial
//!   decoding (paper §2.1.2 / eq. 4): coefficient-scaled blocks can be folded
//!   in any grouping or order, so racks can combine locally and merge
//!   intermediates later.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod equation;
mod stripe;

pub use equation::{PartialDecoder, RepairEquation};
pub use stripe::StripeCodec;

use rpr_linalg::Matrix;

/// The `(n, k)` geometry of an RS code: `n` data blocks, `k` parity blocks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CodeParams {
    /// Number of data blocks per stripe.
    pub n: usize,
    /// Number of parity blocks per stripe.
    pub k: usize,
}

impl CodeParams {
    /// Create and validate code parameters.
    ///
    /// # Panics
    /// Panics unless `1 <= k`, `1 <= n`, and `n + k <= 256`.
    pub fn new(n: usize, k: usize) -> CodeParams {
        assert!(n >= 1 && k >= 1, "CodeParams: need n, k >= 1");
        assert!(n + k <= 256, "CodeParams: n + k must fit GF(2^8)");
        CodeParams { n, k }
    }

    /// Total number of blocks in a stripe.
    #[inline]
    pub fn total(&self) -> usize {
        self.n + self.k
    }

    /// Number of racks used by the paper's compact placement: `⌈(n+k)/k⌉`
    /// racks with at most `k` blocks each (single-rack fault tolerance).
    #[inline]
    pub fn rack_count(&self) -> usize {
        self.total().div_ceil(self.k)
    }

    /// Iterator over all data block ids.
    pub fn data_blocks(&self) -> impl Iterator<Item = BlockId> {
        (0..self.n).map(BlockId)
    }

    /// Iterator over all parity block ids.
    pub fn parity_blocks(&self) -> impl Iterator<Item = BlockId> {
        (self.n..self.total()).map(BlockId)
    }

    /// Iterator over every block id in the stripe.
    pub fn all_blocks(&self) -> impl Iterator<Item = BlockId> {
        (0..self.total()).map(BlockId)
    }
}

/// Identifies one block position within a stripe: `0..n` are data blocks
/// (`d0..d(n-1)`), `n..n+k` are parity blocks (`p0..p(k-1)`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

impl BlockId {
    /// True if this id is a data block under `params`.
    #[inline]
    pub fn is_data(&self, params: &CodeParams) -> bool {
        self.0 < params.n
    }

    /// True if this id is a parity block under `params`.
    #[inline]
    pub fn is_parity(&self, params: &CodeParams) -> bool {
        self.0 >= params.n && self.0 < params.total()
    }

    /// The id of the first parity block, `p0` — the block whose coding row
    /// is all ones and which the pre-placement optimization co-locates with
    /// data blocks (§3.3).
    #[inline]
    pub fn p0(params: &CodeParams) -> BlockId {
        BlockId(params.n)
    }

    /// Paper-style name: `d3`, `p0`, …
    pub fn name(&self, params: &CodeParams) -> String {
        if self.is_data(params) {
            format!("d{}", self.0)
        } else {
            format!("p{}", self.0 - params.n)
        }
    }
}

impl core::fmt::Debug for BlockId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Build the full `(n+k) × n` generator matrix `[I; C]` from a coding
/// matrix.
pub(crate) fn generator_from_coding(n: usize, coding: &Matrix) -> Matrix {
    Matrix::identity(n).vstack(coding)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_geometry() {
        let p = CodeParams::new(6, 2);
        assert_eq!(p.total(), 8);
        assert_eq!(p.rack_count(), 4);
        assert_eq!(p.data_blocks().count(), 6);
        assert_eq!(p.parity_blocks().count(), 2);
        assert_eq!(p.all_blocks().count(), 8);
        // Paper configs and their rack counts (§2.3: q = (n+k)/k).
        for ((n, k), q) in [
            ((4, 2), 3),
            ((6, 2), 4),
            ((8, 2), 5),
            ((6, 3), 3),
            ((8, 4), 3),
            ((12, 4), 4),
        ] {
            assert_eq!(CodeParams::new(n, k).rack_count(), q, "({n},{k})");
        }
    }

    #[test]
    fn block_id_classification() {
        let p = CodeParams::new(4, 2);
        assert!(BlockId(0).is_data(&p));
        assert!(BlockId(3).is_data(&p));
        assert!(!BlockId(4).is_data(&p));
        assert!(BlockId(4).is_parity(&p));
        assert!(BlockId(5).is_parity(&p));
        assert!(!BlockId(6).is_parity(&p), "out of stripe");
        assert_eq!(BlockId::p0(&p), BlockId(4));
        assert_eq!(BlockId(2).name(&p), "d2");
        assert_eq!(BlockId(5).name(&p), "p1");
        assert_eq!(format!("{:?}", BlockId(3)), "b3");
    }

    #[test]
    #[should_panic(expected = "need n, k >= 1")]
    fn params_reject_zero() {
        CodeParams::new(0, 2);
    }
}
