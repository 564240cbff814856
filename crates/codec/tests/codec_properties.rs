//! Codec properties: an exhaustive decode sweep over every paper code,
//! sampled repair-equation soundness, and the grouping-independence of
//! partial decoding — the algebraic fact the whole RPR pipeline rests on.

use proptest::prelude::*;
use rpr_codec::{BlockId, CodeParams, PartialDecoder, StripeCodec};
use rpr_linalg::{for_each_combination, vandermonde_systematic};

/// The six RS configurations evaluated in the paper.
const PAPER_CODES: [(usize, usize); 6] = [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)];

fn code_strategy() -> impl Strategy<Value = (usize, usize)> {
    proptest::sample::select(PAPER_CODES.to_vec())
}

/// Exhaustive, not sampled: every paper code × every loss pattern of
/// `1..=k` blocks × both the default (Cauchy) and the Vandermonde coding
/// matrix — 7100 cases. `decode` from the first `n` survivors must return
/// each lost block's original bytes, and the repair equations over those
/// same `n` helpers must pass the symbolic validator.
#[test]
fn every_loss_pattern_decodes_on_every_paper_code() {
    const LEN: usize = 37;
    let mut cases = 0usize;
    for (n, k) in PAPER_CODES {
        let params = CodeParams::new(n, k);
        let codecs = [
            StripeCodec::new(params),
            StripeCodec::with_coding_matrix(params, vandermonde_systematic(n, k)),
        ];
        let mut s = (n * 31 + k) as u64;
        let data: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                (0..LEN)
                    .map(|_| {
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (s >> 33) as u8
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        for codec in &codecs {
            let stripe = codec.encode_stripe(&refs);
            for z in 1..=k {
                for_each_combination(n + k, z, |ids| {
                    let lost: Vec<BlockId> = ids.iter().map(|&i| BlockId(i)).collect();
                    let survivors: Vec<(BlockId, &[u8])> = (0..n + k)
                        .filter(|i| !ids.contains(i))
                        .map(|i| (BlockId(i), stripe[i].as_slice()))
                        .collect();
                    let rec = codec.decode(&survivors, &lost);
                    assert_eq!(rec.len(), z);
                    for (r, l) in rec.iter().zip(&lost) {
                        assert_eq!(r, &stripe[l.0], "RS({n},{k}) lost {ids:?}: block {l:?}");
                    }
                    let helpers: Vec<BlockId> = survivors[..n].iter().map(|(id, _)| *id).collect();
                    for eq in codec.repair_equations(&lost, &helpers) {
                        assert!(
                            codec.equation_is_valid(&eq),
                            "RS({n},{k}) lost {ids:?}: {eq:?}"
                        );
                    }
                    cases += 1;
                });
            }
        }
    }
    assert_eq!(cases, 7100);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn repair_equations_are_symbolically_valid_and_byte_exact(
        (n, k) in code_strategy(),
        seed: u64,
    ) {
        let codec = StripeCodec::new(CodeParams::new(n, k));
        let len = 32;
        let data: Vec<Vec<u8>> = (0..n).map(|i| {
            let mut s = seed.wrapping_add(1 + i as u64);
            (0..len).map(|_| { s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1); (s >> 40) as u8 }).collect()
        }).collect();
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        let stripe = codec.encode_stripe(&refs);

        let z = 1 + (seed as usize) % k;
        let mut ids: Vec<usize> = (0..n + k).collect();
        let mut s = seed ^ 0xABCD;
        for i in (1..ids.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ids.swap(i, (s >> 33) as usize % (i + 1));
        }
        let lost: Vec<BlockId> = ids[..z].iter().map(|&i| BlockId(i)).collect();
        let helpers: Vec<BlockId> = ids[z..z + n].iter().map(|&i| BlockId(i)).collect();

        for (eq, l) in codec.repair_equations(&lost, &helpers).iter().zip(&lost) {
            prop_assert!(codec.equation_is_valid(eq));
            let mut pd = PartialDecoder::new(len);
            for &(h, c) in &eq.terms {
                pd.fold(c, &stripe[h.0]);
            }
            prop_assert_eq!(pd.finish(), stripe[l.0].clone());
        }
    }

    #[test]
    fn partial_decoding_is_grouping_independent(
        terms in proptest::collection::vec((1u8.., proptest::collection::vec(any::<u8>(), 16..=16)), 2..8),
        split in any::<u64>(),
    ) {
        // Direct fold of everything.
        let mut direct = PartialDecoder::new(16);
        for (c, b) in &terms {
            direct.fold(*c, b);
        }

        // Random 2-way partition, folded separately and merged.
        let mut left = PartialDecoder::new(16);
        let mut right = PartialDecoder::new(16);
        let mut left_used = false;
        for (i, (c, b)) in terms.iter().enumerate() {
            if (split >> (i % 64)) & 1 == 0 {
                left.fold(*c, b);
                left_used = true;
            } else {
                right.fold(*c, b);
            }
        }
        let _ = left_used;
        left.merge(&right);
        prop_assert_eq!(direct.as_bytes(), left.as_bytes());
    }

    #[test]
    fn single_data_loss_with_p0_has_xor_equation_for_all_codes(
        (n, k) in code_strategy(),
        which in any::<usize>(),
    ) {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        let lost = BlockId(which % n);
        let mut helpers: Vec<BlockId> = (0..n).filter(|&i| i != lost.0).map(BlockId).collect();
        helpers.push(BlockId::p0(&params));
        let eqs = codec.repair_equations(&[lost], &helpers);
        prop_assert!(eqs[0].is_xor_only(),
            "pre-placement XOR path must exist for every data block of every paper code");
        prop_assert_eq!(eqs[0].terms.len(), n);
    }
}
