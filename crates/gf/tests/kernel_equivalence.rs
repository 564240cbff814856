//! Cross-kernel equivalence: every runtime-dispatchable SIMD tier must be
//! byte-for-byte identical to the scalar table path — and the scalar path
//! to the bit-level reference multiplier — for every coefficient, ragged
//! length, and misalignment the repair pipeline can produce. The ragged
//! length and alignment sweeps are exhaustive (every coefficient × every
//! available tier); the dispatched-entry check runs 256 seeded cases.
//!
//! This is the bit-identity guarantee `rpr_gf::kernels` documents: tier
//! choice changes throughput, never output.

use rpr_faults::SplitMix64;
use rpr_gf::kernels::{available_tiers, mul_acc_slice_on, mul_slice_on, xor_slice_on, KernelTier};

/// Seed of every pseudo-random buffer and of the dispatched-kernel cases.
const SEED: u64 = 0xBB67_AE85_84CA_A73B;

/// Seeded pseudo-random fill so failures reproduce exactly.
fn fill(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(SEED ^ seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// The bit-level reference multiplier tabulated once: `table[c][s]`.
fn reference_table() -> Vec<[u8; 256]> {
    (0..=255u8)
        .map(|c| std::array::from_fn(|s| rpr_gf::mul_reference(c, s as u8)))
        .collect()
}

/// Every length in 0..=257 crosses each kernel's vector-width boundary
/// (16 and 32) several times and exercises the empty, sub-vector, exact,
/// and ragged-tail cases; every coefficient runs on every available tier
/// at every one of them.
#[test]
fn all_tiers_match_reference_for_ragged_lengths() {
    let tiers = available_tiers();
    assert!(tiers.contains(&KernelTier::Scalar));
    let table = reference_table();
    for len in 0..=257usize {
        let src = fill(len, 0x9E37 + len as u64);
        let init = fill(len, 0x7F4A + len as u64);
        for c in 0..=255u8 {
            let want_mul: Vec<u8> = src.iter().map(|&s| table[c as usize][s as usize]).collect();
            let want_acc: Vec<u8> = init.iter().zip(&want_mul).map(|(&d, &p)| d ^ p).collect();
            for &tier in &tiers {
                let mut dst = vec![0xA5u8; len];
                mul_slice_on(tier, c, &src, &mut dst);
                assert_eq!(dst, want_mul, "mul_slice {tier} c={c:#04x} len={len}");

                let mut acc = init.clone();
                mul_acc_slice_on(tier, c, &src, &mut acc);
                assert_eq!(acc, want_acc, "mul_acc_slice {tier} c={c:#04x} len={len}");
            }
        }
        // Bulk XOR: every tier equals the pointwise reference XOR.
        let want_xor: Vec<u8> = init.iter().zip(&src).map(|(&d, &s)| d ^ s).collect();
        for &tier in &tiers {
            let mut dst = init.clone();
            xor_slice_on(tier, &mut dst, &src);
            assert_eq!(dst, want_xor, "xor_slice {tier} len={len}");
        }
    }
}

/// Unaligned offsets: carve sub-slices at every offset 0..32 out of an
/// over-allocated buffer so the vector kernels see pointers at every
/// possible alignment class (they use unaligned loads — this must never
/// matter), for every coefficient on every available tier.
#[test]
fn all_tiers_match_at_every_alignment_offset() {
    const LEN: usize = 97; // prime: never a multiple of any vector width
    let table = reference_table();
    let backing_src = fill(LEN + 64, 0xDEAD);
    let backing_dst = fill(LEN + 64, 0xBEEF);
    for off in 0..32usize {
        let src = &backing_src[off..off + LEN];
        let init = &backing_dst[off..off + LEN];
        for c in 0..=255u8 {
            let want: Vec<u8> = init
                .iter()
                .zip(src)
                .map(|(&d, &s)| d ^ table[c as usize][s as usize])
                .collect();
            for &tier in &available_tiers() {
                // Rebuild an offset destination each round so the kernel
                // writes through a pointer with alignment `off mod 32`.
                let mut dst_backing = backing_dst.clone();
                let dst = &mut dst_backing[off..off + LEN];
                mul_acc_slice_on(tier, c, src, dst);
                assert_eq!(dst, want.as_slice(), "{tier} c={c:#04x} off={off}");
                // Bytes outside the slice must be untouched.
                assert_eq!(dst_backing[..off], backing_dst[..off], "prefix {tier}");
                assert_eq!(
                    dst_backing[off + LEN..],
                    backing_dst[off + LEN..],
                    "suffix {tier}"
                );
            }
        }
    }
}

/// The dispatched entry points (whatever tier this host selected) agree
/// with the scalar tier on seeded slices: every coefficient once, with
/// contents, length (< 300) and sub-slice offset (< 64) drawn from
/// [`SplitMix64`] seeded with [`SEED`].
#[test]
fn dispatched_kernels_match_scalar_on_random_slices() {
    let mut rng = SplitMix64::new(SEED);
    for c in 0..=255u8 {
        let len = rng.pick(300);
        let off = rng.pick(64).min(len);
        let a = fill(len, rng.next_u64());
        let b = fill(len, rng.next_u64());
        let src = &a[off..len];
        let init = &b[off..len];

        let mut scalar_acc = init.to_vec();
        mul_acc_slice_on(KernelTier::Scalar, c, src, &mut scalar_acc);
        let mut fast_acc = init.to_vec();
        rpr_gf::mul_acc_slice(c, src, &mut fast_acc);
        assert_eq!(&scalar_acc, &fast_acc, "acc c={c:#04x} len={len} off={off}");

        let mut scalar_mul = vec![0u8; src.len()];
        mul_slice_on(KernelTier::Scalar, c, src, &mut scalar_mul);
        let mut fast_mul = vec![0xFFu8; src.len()];
        rpr_gf::mul_slice(c, src, &mut fast_mul);
        assert_eq!(&scalar_mul, &fast_mul, "mul c={c:#04x} len={len} off={off}");

        let mut scalar_xor = init.to_vec();
        xor_slice_on(KernelTier::Scalar, &mut scalar_xor, src);
        let mut fast_xor = init.to_vec();
        rpr_gf::xor_slice(&mut fast_xor, src);
        assert_eq!(&scalar_xor, &fast_xor, "xor c={c:#04x} len={len} off={off}");
    }
}

/// lin_comb and lin_comb_multi build on the dispatched kernels; their
/// results must equal the scalar-composed combination regardless of the
/// active tier, including across cache-span boundaries.
#[test]
fn combinators_are_tier_independent() {
    const LEN: usize = 40_000; // > one 32 KiB cache span, ragged tail
    let blocks: Vec<Vec<u8>> = (0..5).map(|i| fill(LEN, 100 + i)).collect();
    let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
    let coeffs = [7u8, 1, 0, 0xC3, 2];

    let mut scalar_out = vec![0u8; LEN];
    for (o, byte) in scalar_out.iter_mut().enumerate() {
        let mut acc = 0u8;
        for (&c, b) in coeffs.iter().zip(&blocks) {
            acc ^= rpr_gf::mul_reference(c, b[o]);
        }
        *byte = acc;
    }

    let mut out = vec![0u8; LEN];
    rpr_gf::lin_comb(&coeffs, &refs, &mut out);
    assert_eq!(out, scalar_out, "lin_comb");

    let rows: [&[u8]; 2] = [&coeffs, &[1, 1, 1, 1, 1]];
    let mut multi: Vec<Vec<u8>> = vec![vec![0u8; LEN]; 2];
    {
        let mut out_refs: Vec<&mut [u8]> = multi.iter_mut().map(|o| o.as_mut_slice()).collect();
        rpr_gf::lin_comb_multi(&rows, &refs, &mut out_refs);
    }
    assert_eq!(multi[0], scalar_out, "lin_comb_multi row 0");
    let mut xor_all = vec![0u8; LEN];
    for b in &blocks {
        rpr_gf::xor_slice(&mut xor_all, b);
    }
    assert_eq!(multi[1], xor_all, "lin_comb_multi XOR row");
}
