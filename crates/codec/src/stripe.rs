//! The [`StripeCodec`]: encoding, decoding, and repair-equation
//! derivation for one RS `(n, k)` configuration. Decoding and the repair
//! equations share one coefficient derivation (paper eq. 8–9).

use crate::{generator_from_coding, BlockId, CodeParams, RepairEquation};
use rpr_gf as gf;
use rpr_linalg::{rs_coding_matrix, Matrix};

/// A Reed-Solomon encoder/decoder for one `(n, k)` configuration.
///
/// Holds the `k × n` coding matrix (first row all ones, see
/// [`rs_coding_matrix`]) and the stacked `(n+k) × n` generator `[I; C]`.
///
/// ```
/// use rpr_codec::{BlockId, CodeParams, StripeCodec};
///
/// let codec = StripeCodec::new(CodeParams::new(4, 2));
/// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 64]).collect();
/// let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
/// let stripe = codec.encode_stripe(&refs);
///
/// // Lose d1 and p0, decode from the remaining four blocks.
/// let survivors: Vec<(BlockId, &[u8])> = [0, 2, 3, 5]
///     .map(|i| (BlockId(i), stripe[i].as_slice()))
///     .to_vec();
/// let recovered = codec.decode(&survivors, &[BlockId(1), BlockId(4)]);
/// assert_eq!(recovered[0], stripe[1]);
/// assert_eq!(recovered[1], stripe[4]);
/// ```
#[derive(Clone, Debug)]
pub struct StripeCodec {
    params: CodeParams,
    coding: Matrix,
    generator: Matrix,
}

impl StripeCodec {
    /// Create a codec with the default (column-normalized Cauchy) coding
    /// matrix: MDS with an all-ones first parity row.
    pub fn new(params: CodeParams) -> StripeCodec {
        let coding = rs_coding_matrix(params.n, params.k);
        let generator = generator_from_coding(params.n, &coding);
        StripeCodec {
            params,
            coding,
            generator,
        }
    }

    /// Create a codec from a caller-supplied `k × n` coding matrix
    /// (for ablations — e.g. the Jerasure-style Vandermonde systematic
    /// matrix).
    ///
    /// # Panics
    /// Panics if the matrix dimensions do not match `params`.
    pub fn with_coding_matrix(params: CodeParams, coding: Matrix) -> StripeCodec {
        assert_eq!(coding.rows(), params.k, "coding matrix must be k x n");
        assert_eq!(coding.cols(), params.n, "coding matrix must be k x n");
        let generator = generator_from_coding(params.n, &coding);
        StripeCodec {
            params,
            coding,
            generator,
        }
    }

    /// The code geometry.
    #[inline]
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// The `k × n` coding matrix.
    #[inline]
    pub fn coding_matrix(&self) -> &Matrix {
        &self.coding
    }

    /// The `(n+k) × n` generator matrix `[I; C]`.
    #[inline]
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    /// Encode: produce the `k` parity blocks from the `n` data blocks.
    ///
    /// All `k` parity rows are computed in one cache-blocked multi-row
    /// pass ([`gf::lin_comb_multi`]): each data span is loaded once and
    /// folded into every parity row while resident, instead of streaming
    /// the whole stripe through cache once per parity.
    ///
    /// # Panics
    /// Panics if `data.len() != n` or block lengths differ.
    pub fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        let p = &self.params;
        assert_eq!(data.len(), p.n, "encode: need exactly n data blocks");
        let len = data[0].len();
        assert!(
            data.iter().all(|b| b.len() == len),
            "encode: unequal block lengths"
        );
        let rows: Vec<&[u8]> = (0..p.k).map(|i| self.coding.row(i)).collect();
        let mut parities: Vec<Vec<u8>> = (0..p.k).map(|_| vec![0u8; len]).collect();
        let mut outs: Vec<&mut [u8]> = parities.iter_mut().map(|b| b.as_mut_slice()).collect();
        gf::lin_comb_multi(&rows, data, &mut outs);
        parities
    }

    /// Encode a full stripe: returns `n + k` blocks (data copied first).
    pub fn encode_stripe(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut stripe: Vec<Vec<u8>> = data.iter().map(|b| b.to_vec()).collect();
        stripe.extend(self.encode(data));
        stripe
    }

    /// Decode: reconstruct the listed `lost` blocks from the first `n`
    /// surviving blocks, folding each lost block's eq.-8 coefficients (the
    /// ones [`StripeCodec::repair_equations`] derives) over them in one
    /// cache-blocked pass: one fold per survivor per output byte.
    ///
    /// # Panics
    /// Panics if fewer than `n` survivors are supplied, block lengths are
    /// unequal, survivors overlap `lost`, the first `n` survivors repeat an
    /// id, or ids are out of range.
    pub fn decode(&self, survivors: &[(BlockId, &[u8])], lost: &[BlockId]) -> Vec<Vec<u8>> {
        let p = &self.params;
        assert!(
            survivors.len() >= p.n,
            "decode: need at least n survivors ({} < {})",
            survivors.len(),
            p.n
        );
        for (id, _) in survivors {
            assert!(id.0 < p.total(), "decode: survivor id out of range");
            assert!(!lost.contains(id), "decode: survivor listed as lost");
        }
        let chosen = &survivors[..p.n];
        let len = chosen[0].1.len();
        assert!(
            chosen.iter().all(|(_, b)| b.len() == len),
            "decode: unequal block lengths"
        );
        let helpers: Vec<BlockId> = chosen.iter().map(|(id, _)| *id).collect();
        if lost.is_empty() {
            self.check_ids(lost, &helpers);
            return Vec::new();
        }

        let coeffs = self.coefficients(lost, &helpers);
        let rows: Vec<&[u8]> = (0..lost.len()).map(|t| coeffs.row(t)).collect();
        let blocks: Vec<&[u8]> = chosen.iter().map(|(_, b)| *b).collect();
        let mut out: Vec<Vec<u8>> = lost.iter().map(|_| vec![0u8; len]).collect();
        let mut outs: Vec<&mut [u8]> = out.iter_mut().map(|b| b.as_mut_slice()).collect();
        gf::lin_comb_multi(&rows, &blocks, &mut outs);
        out
    }

    /// Derive the repair equations (paper eq. 8): for each lost block, the
    /// coefficient on each of the `n` chosen helper blocks such that
    /// `lost = Σ coeff_h * helper_h`.
    ///
    /// Returns one [`RepairEquation`] per lost block, in input order. Zero
    /// coefficients are kept out of the term list (the corresponding helper
    /// is simply not needed for that equation).
    ///
    /// # Panics
    /// Panics unless exactly `n` distinct helpers are given, helpers and
    /// lost are disjoint, and all ids are in range.
    pub fn repair_equations(&self, lost: &[BlockId], helpers: &[BlockId]) -> Vec<RepairEquation> {
        assert!(!lost.is_empty(), "repair_equations: nothing lost");
        assert!(
            lost.len() <= self.params.k,
            "repair_equations: more than k losses are unrecoverable"
        );
        let coeffs = self.coefficients(lost, helpers);
        lost.iter()
            .enumerate()
            .map(|(t, &target)| {
                let terms: Vec<(BlockId, u8)> = helpers
                    .iter()
                    .zip(coeffs.row(t))
                    .filter(|(_, &c)| c != 0)
                    .map(|(&h, &c)| (h, c))
                    .collect();
                RepairEquation::new(target, terms)
            })
            .collect()
    }

    /// The one coefficient derivation (paper eq. 8–9): the `z × n` matrix
    /// whose row `t` rebuilds `lost[t]` from `helpers` — the lost blocks'
    /// generator rows times the inverse of the helpers' generator rows.
    ///
    /// # Panics
    /// Panics if `lost` is empty, or as [`StripeCodec::check_ids`] does.
    fn coefficients(&self, lost: &[BlockId], helpers: &[BlockId]) -> Matrix {
        self.check_ids(lost, helpers);
        let rows = |ids: &[BlockId]| ids.iter().map(|b| b.0).collect::<Vec<_>>();
        #[allow(clippy::disallowed_methods, reason = "the one decoding inversion")]
        let inv = self.generator.select_rows(&rows(helpers)).inverse();
        let inv = inv.expect("n distinct rows of an MDS generator are invertible");
        self.generator.select_rows(&rows(lost)).mul(&inv)
    }

    /// Panics unless exactly `n` distinct in-range helpers are given, none
    /// of them lost, and every lost id is in range.
    fn check_ids(&self, lost: &[BlockId], helpers: &[BlockId]) {
        let p = &self.params;
        assert_eq!(helpers.len(), p.n, "coefficients: need exactly n helpers");
        let mut seen = vec![false; p.total()];
        for h in helpers {
            assert!(h.0 < p.total(), "coefficients: helper out of range");
            assert!(!seen[h.0], "coefficients: duplicate helper");
            seen[h.0] = true;
            assert!(!lost.contains(h), "coefficients: helper listed as lost");
        }
        for l in lost {
            assert!(l.0 < p.total(), "coefficients: lost id out of range");
        }
    }

    /// Verify a repair equation symbolically: the weighted sum of the
    /// helpers' generator rows must equal the target's generator row. This
    /// is the data-consistency invariant every plan validator relies on.
    pub fn equation_is_valid(&self, eq: &RepairEquation) -> bool {
        let p = &self.params;
        if eq.target.0 >= p.total() {
            return false;
        }
        let n = p.n;
        let mut acc = vec![0u8; n];
        for &(h, c) in &eq.terms {
            if h.0 >= p.total() || c == 0 || h == eq.target {
                return false;
            }
            let row = self.generator.row(h.0);
            for j in 0..n {
                acc[j] ^= gf::mul(c, row[j]);
            }
        }
        acc == self.generator.row(eq.target.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_blocks(n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (s >> 33) as u8
                    })
                    .collect()
            })
            .collect()
    }

    fn codec(n: usize, k: usize) -> StripeCodec {
        StripeCodec::new(CodeParams::new(n, k))
    }

    #[test]
    fn encode_then_decode_every_single_loss() {
        let c = codec(4, 2);
        let data = rand_blocks(4, 64, 42);
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        let stripe = c.encode_stripe(&refs);
        assert_eq!(stripe.len(), 6);
        for lost in 0..6 {
            let survivors: Vec<(BlockId, &[u8])> = (0..6)
                .filter(|&i| i != lost)
                .map(|i| (BlockId(i), stripe[i].as_slice()))
                .collect();
            let rec = c.decode(&survivors, &[BlockId(lost)]);
            assert_eq!(rec[0], stripe[lost], "lost block {lost}");
        }
    }

    #[test]
    fn decode_recovers_k_simultaneous_losses() {
        let c = codec(6, 3);
        let data = rand_blocks(6, 32, 7);
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        let stripe = c.encode_stripe(&refs);
        // Lose d1, d4 and p2 at once (the maximum k = 3).
        let lost = [BlockId(1), BlockId(4), BlockId(8)];
        let survivors: Vec<(BlockId, &[u8])> = (0..9)
            .filter(|i| !lost.iter().any(|l| l.0 == *i))
            .map(|i| (BlockId(i), stripe[i].as_slice()))
            .collect();
        let rec = c.decode(&survivors, &lost);
        for (r, l) in rec.iter().zip(&lost) {
            assert_eq!(r, &stripe[l.0], "block {:?}", l);
        }
    }

    #[test]
    fn p0_equals_xor_of_data() {
        let c = codec(5, 3);
        let data = rand_blocks(5, 16, 3);
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        let parities = c.encode(&refs);
        let mut xor = vec![0u8; 16];
        for d in &data {
            gf::xor_slice(&mut xor, d);
        }
        assert_eq!(parities[0], xor, "paper eq. 2: P0 = XOR of all data");
    }

    #[test]
    fn repair_equation_for_single_data_loss_with_p0_is_xor_only() {
        // Paper §3.3: losing one data block and repairing with the other
        // data blocks + P0 needs no decoding matrix — all coefficients 1.
        let c = codec(6, 2);
        let lost = BlockId(2);
        let mut helpers: Vec<BlockId> = (0..6).filter(|&i| i != 2).map(BlockId).collect();
        helpers.push(BlockId::p0(&c.params()));
        let eqs = c.repair_equations(&[lost], &helpers);
        assert_eq!(eqs.len(), 1);
        assert!(
            eqs[0].is_xor_only(),
            "eq 6 must be a pure XOR: {:?}",
            eqs[0]
        );
        assert!(c.equation_is_valid(&eqs[0]));
        assert_eq!(eqs[0].terms.len(), 6);
    }

    #[test]
    fn repair_equations_reconstruct_actual_bytes() {
        let c = codec(8, 4);
        let data = rand_blocks(8, 48, 99);
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        let stripe = c.encode_stripe(&refs);

        let lost = [BlockId(0), BlockId(5), BlockId(9)];
        let helpers: Vec<BlockId> = (0..12)
            .map(BlockId)
            .filter(|b| !lost.contains(b))
            .take(8)
            .collect();
        let eqs = c.repair_equations(&lost, &helpers);
        for (eq, l) in eqs.iter().zip(&lost) {
            assert!(c.equation_is_valid(eq));
            // Apply the equation to the real bytes.
            let mut out = vec![0u8; 48];
            for &(h, coeff) in &eq.terms {
                gf::mul_acc_slice(coeff, &stripe[h.0], &mut out);
            }
            assert_eq!(out, stripe[l.0], "equation for {:?}", l);
        }
    }

    #[test]
    fn equation_validity_rejects_corruption() {
        let c = codec(4, 2);
        let helpers: Vec<BlockId> = vec![BlockId(1), BlockId(2), BlockId(3), BlockId(4)];
        let mut eqs = c.repair_equations(&[BlockId(0)], &helpers);
        assert!(c.equation_is_valid(&eqs[0]));
        // Corrupt one coefficient.
        eqs[0].terms[0].1 ^= 1;
        if eqs[0].terms[0].1 == 0 {
            eqs[0].terms[0].1 = 2;
        }
        assert!(!c.equation_is_valid(&eqs[0]));
    }

    #[test]
    fn vandermonde_codec_roundtrips_too() {
        let params = CodeParams::new(6, 3);
        let coding = rpr_linalg::vandermonde_systematic(6, 3);
        let c = StripeCodec::with_coding_matrix(params, coding);
        let data = rand_blocks(6, 24, 5);
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        let stripe = c.encode_stripe(&refs);
        let survivors: Vec<(BlockId, &[u8])> =
            (3..9).map(|i| (BlockId(i), stripe[i].as_slice())).collect();
        let rec = c.decode(&survivors, &[BlockId(0), BlockId(1), BlockId(2)]);
        assert_eq!(rec[0], stripe[0]);
        assert_eq!(rec[1], stripe[1]);
        assert_eq!(rec[2], stripe[2]);
    }

    #[test]
    fn decode_with_nothing_lost_returns_nothing() {
        let c = codec(4, 2);
        let block = [0u8; 8];
        let survivors: Vec<(BlockId, &[u8])> = (0..4).map(|i| (BlockId(i), &block[..])).collect();
        assert!(c.decode(&survivors, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "coefficients: duplicate helper")]
    fn decode_rejects_a_repeated_survivor() {
        let c = codec(4, 2);
        let block = [0u8; 8];
        let survivors: Vec<(BlockId, &[u8])> =
            [1, 2, 2, 3].map(|i| (BlockId(i), &block[..])).to_vec();
        c.decode(&survivors, &[BlockId(0)]);
    }

    #[test]
    #[should_panic(expected = "coefficients: lost id out of range")]
    fn decode_rejects_an_out_of_range_lost_id() {
        let c = codec(4, 2);
        let block = [0u8; 8];
        let survivors: Vec<(BlockId, &[u8])> = (0..4).map(|i| (BlockId(i), &block[..])).collect();
        c.decode(&survivors, &[BlockId(6)]);
    }

    #[test]
    #[should_panic(expected = "need exactly n helpers")]
    fn repair_equations_require_n_helpers() {
        let c = codec(4, 2);
        c.repair_equations(&[BlockId(0)], &[BlockId(1), BlockId(2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate helper")]
    fn repair_equations_reject_duplicates() {
        let c = codec(4, 2);
        c.repair_equations(
            &[BlockId(0)],
            &[BlockId(1), BlockId(1), BlockId(2), BlockId(3)],
        );
    }

    #[test]
    #[should_panic(expected = "more than k losses")]
    fn repair_equations_reject_unrecoverable() {
        let c = codec(4, 2);
        c.repair_equations(
            &[BlockId(0), BlockId(1), BlockId(2)],
            &[BlockId(3), BlockId(4), BlockId(5), BlockId(2)],
        );
    }
}
