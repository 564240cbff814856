//! Repair equations and the incremental [`PartialDecoder`].

use crate::BlockId;
use rpr_gf as gf;

/// One repair equation (one row of paper eq. 8/9): the `target` block equals
/// the GF(2^8) linear combination of the `terms`.
///
/// Terms carry nonzero coefficients only. The planners split an equation's
/// terms by rack; each rack's share is partially decoded into an
/// *intermediate block* (`I` in the paper) and intermediates are pure-XOR
/// merged, because every term's coefficient is applied exactly once at the
/// leaf.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RepairEquation {
    /// The block being reconstructed.
    pub target: BlockId,
    /// `(helper, coefficient)` pairs; coefficients are nonzero.
    pub terms: Vec<(BlockId, u8)>,
}

impl RepairEquation {
    /// Create an equation, dropping zero-coefficient terms.
    ///
    /// # Panics
    /// Panics if the term list is empty after filtering or contains a
    /// duplicate helper.
    pub fn new(target: BlockId, terms: Vec<(BlockId, u8)>) -> RepairEquation {
        let terms: Vec<(BlockId, u8)> = terms.into_iter().filter(|&(_, c)| c != 0).collect();
        assert!(!terms.is_empty(), "RepairEquation: no nonzero terms");
        let mut ids: Vec<usize> = terms.iter().map(|(b, _)| b.0).collect();
        ids.sort_unstable();
        assert!(
            ids.windows(2).all(|w| w[0] != w[1]),
            "RepairEquation: duplicate helper"
        );
        RepairEquation { target, terms }
    }

    /// True if all coefficients are 1 — the eq.-6 matrix-free XOR path.
    pub fn is_xor_only(&self) -> bool {
        self.terms.iter().all(|&(_, c)| c == 1)
    }

    /// The helpers referenced by this equation.
    pub fn helpers(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.terms.iter().map(|&(b, _)| b)
    }

    /// Coefficient on a given helper, if present.
    pub fn coefficient(&self, helper: BlockId) -> Option<u8> {
        self.terms
            .iter()
            .find(|&&(b, _)| b == helper)
            .map(|&(_, c)| c)
    }
}

/// Incremental partial decoder: an accumulator over coefficient-scaled
/// blocks (paper §2.1.2).
///
/// The algebraic contract — verified by property tests — is that any
/// grouping of the same `(coefficient, block)` multiset into
/// `PartialDecoder`s merged in any order yields the same final buffer. This
/// is precisely what lets racks combine locally and the Cross scheduler
/// merge intermediates at arbitrary peer racks.
#[derive(Clone, Debug)]
pub struct PartialDecoder {
    acc: Vec<u8>,
    blocks_folded: usize,
    gf_mults: usize,
}

impl PartialDecoder {
    /// A fresh accumulator for blocks of `len` bytes.
    pub fn new(len: usize) -> PartialDecoder {
        PartialDecoder {
            acc: vec![0u8; len],
            blocks_folded: 0,
            gf_mults: 0,
        }
    }

    /// Fold in `coeff * block`.
    ///
    /// # Panics
    /// Panics on length mismatch or a zero coefficient (zero terms must be
    /// filtered out upstream — folding them would hide an equation bug).
    pub fn fold(&mut self, coeff: u8, block: &[u8]) {
        assert_eq!(block.len(), self.acc.len(), "PartialDecoder: length");
        assert!(coeff != 0, "PartialDecoder: zero coefficient");
        gf::mul_acc_slice(coeff, block, &mut self.acc);
        self.blocks_folded += 1;
        if coeff != 1 {
            self.gf_mults += 1;
        }
    }

    /// Merge another intermediate (pure XOR — coefficients were applied at
    /// the leaves).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn merge(&mut self, other: &PartialDecoder) {
        assert_eq!(other.acc.len(), self.acc.len(), "PartialDecoder: length");
        gf::xor_slice(&mut self.acc, &other.acc);
        self.blocks_folded += other.blocks_folded;
        self.gf_mults += other.gf_mults;
    }

    /// Number of leaf blocks folded so far.
    pub fn blocks_folded(&self) -> usize {
        self.blocks_folded
    }

    /// Number of folds that required a Galois multiplication (coefficient
    /// ≠ 1). Zero means the whole combination ran on the XOR fast path.
    pub fn gf_mults(&self) -> usize {
        self.gf_mults
    }

    /// Current intermediate value.
    pub fn as_bytes(&self) -> &[u8] {
        &self.acc
    }

    /// Consume the accumulator, returning the intermediate block.
    pub fn finish(self) -> Vec<u8> {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_filters_zero_terms() {
        let eq = RepairEquation::new(
            BlockId(0),
            vec![(BlockId(1), 0), (BlockId(2), 5), (BlockId(3), 0)],
        );
        assert_eq!(eq.terms, vec![(BlockId(2), 5)]);
    }

    #[test]
    #[should_panic(expected = "no nonzero terms")]
    fn new_rejects_empty() {
        RepairEquation::new(BlockId(0), vec![(BlockId(1), 0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate helper")]
    fn new_rejects_duplicate_helpers() {
        RepairEquation::new(BlockId(0), vec![(BlockId(1), 2), (BlockId(1), 3)]);
    }

    #[test]
    fn xor_only_and_coefficient_lookup() {
        let eq = RepairEquation::new(BlockId(9), vec![(BlockId(1), 1), (BlockId(2), 1)]);
        assert!(eq.is_xor_only());
        assert_eq!(eq.coefficient(BlockId(2)), Some(1));
        assert_eq!(eq.coefficient(BlockId(7)), None);
        let eq2 = RepairEquation::new(BlockId(9), vec![(BlockId(1), 1), (BlockId(2), 9)]);
        assert!(!eq2.is_xor_only());
        assert_eq!(
            eq2.helpers().collect::<Vec<_>>(),
            vec![BlockId(1), BlockId(2)]
        );
    }

    #[test]
    fn fold_then_merge_equals_direct_combination() {
        let b1 = vec![1u8; 8];
        let b2: Vec<u8> = (0..8).collect();
        let b3: Vec<u8> = (100..108).collect();

        let mut direct = PartialDecoder::new(8);
        direct.fold(3, &b1);
        direct.fold(1, &b2);
        direct.fold(7, &b3);

        let mut left = PartialDecoder::new(8);
        left.fold(3, &b1);
        let mut right = PartialDecoder::new(8);
        right.fold(7, &b3);
        right.fold(1, &b2);
        left.merge(&right);

        assert_eq!(direct.as_bytes(), left.as_bytes());
        assert_eq!(direct.blocks_folded(), 3);
        assert_eq!(left.blocks_folded(), 3);
        assert_eq!(direct.gf_mults(), 2, "coefficient 1 must not count");
    }

    #[test]
    #[should_panic(expected = "zero coefficient")]
    fn fold_rejects_zero_coefficient() {
        PartialDecoder::new(4).fold(0, &[0u8; 4]);
    }
}
