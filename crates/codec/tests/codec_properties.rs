//! Codec properties: an exhaustive decode sweep over every paper code,
//! sampled repair-equation soundness, and the grouping-independence of
//! partial decoding — the algebraic fact the whole RPR pipeline rests on.
//!
//! The decode sweep and the XOR-equation property enumerate their whole
//! spaces; the other two run [`CASES`] cases each, drawn from
//! [`SplitMix64`] seeded with [`SEED`], and a failure names the case.

use rpr_codec::{BlockId, CodeParams, PartialDecoder, StripeCodec};
use rpr_faults::SplitMix64;
use rpr_linalg::{for_each_combination, vandermonde_systematic};

/// The six RS configurations evaluated in the paper.
const PAPER_CODES: [(usize, usize); 6] = [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)];

const SEED: u64 = 0xA54F_F53A_5F1D_36F1;
const CASES: usize = 48;

fn bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Exhaustive, not sampled: every paper code × every loss pattern of
/// `1..=k` blocks × both the default (Cauchy) and the Vandermonde coding
/// matrix — 7100 cases. `decode` from the first `n` survivors must return
/// each lost block's original bytes, and the repair equations over those
/// same `n` helpers must pass the symbolic validator.
#[test]
fn every_loss_pattern_decodes_on_every_paper_code() {
    const LEN: usize = 37;
    let mut rng = SplitMix64::new(SEED);
    let mut cases = 0usize;
    for (n, k) in PAPER_CODES {
        let params = CodeParams::new(n, k);
        let codecs = [
            StripeCodec::new(params),
            StripeCodec::with_coding_matrix(params, vandermonde_systematic(n, k)),
        ];
        let data: Vec<Vec<u8>> = (0..n).map(|_| bytes(&mut rng, LEN)).collect();
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

/// Random `1..=k` lost blocks and a random `n` of the survivors as
/// helpers, on each paper code in turn.
#[test]
fn repair_equations_are_symbolically_valid_and_byte_exact() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let (n, k) = PAPER_CODES[case % PAPER_CODES.len()];
        let codec = StripeCodec::new(CodeParams::new(n, k));
        let len = 32;
        let data: Vec<Vec<u8>> = (0..n).map(|_| bytes(&mut rng, len)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        let stripe = codec.encode_stripe(&refs);

        let z = 1 + rng.pick(k);
        let mut ids: Vec<usize> = (0..n + k).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.pick(i + 1));
        }
        let lost: Vec<BlockId> = ids[..z].iter().map(|&i| BlockId(i)).collect();
        let helpers: Vec<BlockId> = ids[z..z + n].iter().map(|&i| BlockId(i)).collect();

        for (eq, l) in codec.repair_equations(&lost, &helpers).iter().zip(&lost) {
            assert!(codec.equation_is_valid(eq), "case {case}: {eq:?}");
            let mut pd = PartialDecoder::new(len);
            for &(h, c) in &eq.terms {
                pd.fold(c, &stripe[h.0]);
            }
            assert_eq!(pd.finish(), stripe[l.0].clone(), "case {case}: {eq:?}");
        }
    }
}

#[test]
fn partial_decoding_is_grouping_independent() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let terms: Vec<(u8, Vec<u8>)> = (0..2 + rng.pick(6))
            .map(|_| (1 + rng.pick(255) as u8, bytes(&mut rng, 16)))
            .collect();

        // Direct fold of everything.
        let mut direct = PartialDecoder::new(16);
        for (c, b) in &terms {
            direct.fold(*c, b);
        }

        // Random 2-way partition, folded separately and merged.
        let mut left = PartialDecoder::new(16);
        let mut right = PartialDecoder::new(16);
        for (c, b) in &terms {
            if rng.next_u64() & 1 == 0 {
                left.fold(*c, b);
            } else {
                right.fold(*c, b);
            }
        }
        left.merge(&right);
        assert_eq!(direct.as_bytes(), left.as_bytes(), "case {case}");
    }
}

/// Exhaustive: every data block of every paper code.
#[test]
fn single_data_loss_with_p0_has_xor_equation_for_all_codes() {
    for (n, k) in PAPER_CODES {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        for lost in (0..n).map(BlockId) {
            let mut helpers: Vec<BlockId> = (0..n).filter(|&i| i != lost.0).map(BlockId).collect();
            helpers.push(BlockId::p0(&params));
            let eqs = codec.repair_equations(&[lost], &helpers);
            assert!(
                eqs[0].is_xor_only(),
                "pre-placement XOR path must exist for every data block of every paper code: \
                 RS({n},{k}) lost {lost:?}"
            );
            assert_eq!(eqs[0].terms.len(), n, "RS({n},{k}) lost {lost:?}");
        }
    }
}
