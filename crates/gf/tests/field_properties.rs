//! GF(2^8) satisfies the field axioms and the bulk slice kernels agree with
//! scalar arithmetic.
//!
//! Unary laws run on all 256 elements and binary laws on all 65,536
//! pairs; ternary laws run on every `(a, b)` pair with `c` drawn from
//! [`SplitMix64`] seeded with [`SEED`], and `pow` on every `(a, e)` with
//! `e < 600`. The slice properties run [`CASES`] seeded cases each (every
//! coefficient once for the coefficient-taking kernels). A failure names
//! the elements, or the case index under [`SEED`], that reproduce it.

use rpr_faults::SplitMix64;
use rpr_gf::{add, div, inv, is_xor_only, lin_comb, mul, mul_acc_slice, mul_slice, pow, xor_slice};

const SEED: u64 = 0x6A09_E667_F3BC_C908;
const CASES: usize = 256;

/// Every `(a, b)` pair of field elements.
fn all_pairs() -> impl Iterator<Item = (u8, u8)> {
    (0..=255u8).flat_map(|a| (0..=255u8).map(move |b| (a, b)))
}

fn bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn addition_is_commutative_and_associative() {
    let mut rng = SplitMix64::new(SEED);
    for (a, b) in all_pairs() {
        let c = rng.next_u64() as u8;
        assert_eq!(add(a, b), add(b, a), "a={a} b={b}");
        assert_eq!(add(add(a, b), c), add(a, add(b, c)), "a={a} b={b} c={c}");
    }
}

#[test]
fn addition_identity_and_self_inverse() {
    for a in 0..=255u8 {
        assert_eq!(add(a, 0), a, "a={a}");
        assert_eq!(
            add(a, a),
            0,
            "every element is its own additive inverse: a={a}"
        );
    }
}

#[test]
fn multiplication_is_commutative_and_associative() {
    let mut rng = SplitMix64::new(SEED);
    for (a, b) in all_pairs() {
        let c = rng.next_u64() as u8;
        assert_eq!(mul(a, b), mul(b, a), "a={a} b={b}");
        assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)), "a={a} b={b} c={c}");
    }
}

#[test]
fn multiplication_distributes_over_addition() {
    let mut rng = SplitMix64::new(SEED);
    for (a, b) in all_pairs() {
        let c = rng.next_u64() as u8;
        assert_eq!(
            mul(a, add(b, c)),
            add(mul(a, b), mul(a, c)),
            "a={a} b={b} c={c}"
        );
    }
}

#[test]
fn multiplicative_identity_and_zero() {
    for a in 0..=255u8 {
        assert_eq!(mul(a, 1), a, "a={a}");
        assert_eq!(mul(a, 0), 0, "a={a}");
    }
}

#[test]
fn nonzero_elements_have_inverses() {
    for a in 1..=255u8 {
        assert_eq!(mul(a, inv(a)), 1, "a={a}");
        assert_eq!(div(1, a), inv(a), "a={a}");
    }
}

#[test]
fn division_is_multiplication_by_inverse() {
    for (a, b) in all_pairs().filter(|&(_, b)| b != 0) {
        assert_eq!(div(a, b), mul(a, inv(b)), "a={a} b={b}");
    }
}

#[test]
fn pow_is_repeated_multiplication() {
    for a in 0..=255u8 {
        let mut expect = 1u8;
        for e in 0..600usize {
            assert_eq!(pow(a, e), expect, "a={a} e={e}");
            expect = mul(expect, a);
        }
    }
}

#[test]
fn xor_slice_equals_scalar_loop() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let len = case % 200;
        let src = bytes(&mut rng, len);
        let mut dst = bytes(&mut rng, len);
        let expect: Vec<u8> = dst.iter().zip(&src).map(|(d, s)| d ^ s).collect();
        xor_slice(&mut dst, &src);
        assert_eq!(dst, expect, "case {case}");
    }
}

#[test]
fn mul_slice_equals_scalar_loop() {
    let mut rng = SplitMix64::new(SEED);
    for c in 0..=255u8 {
        let len = rng.pick(200);
        let src = bytes(&mut rng, len);
        let mut dst = vec![0u8; src.len()];
        mul_slice(c, &src, &mut dst);
        let expect: Vec<u8> = src.iter().map(|&s| mul(c, s)).collect();
        assert_eq!(dst, expect, "c={c} len={len}");
    }
}

#[test]
fn mul_acc_slice_equals_scalar_loop() {
    let mut rng = SplitMix64::new(SEED);
    for c in 0..=255u8 {
        let len = rng.pick(200);
        let src = bytes(&mut rng, len);
        let mut dst = bytes(&mut rng, len);
        let expect: Vec<u8> = dst.iter().zip(&src).map(|(d, s)| d ^ mul(c, *s)).collect();
        mul_acc_slice(c, &src, &mut dst);
        assert_eq!(dst, expect, "c={c} len={len}");
    }
}

#[test]
fn lin_comb_is_order_independent_under_permutation() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let arity = 1 + rng.pick(5);
        let blocks: Vec<Vec<u8>> = (0..arity).map(|_| bytes(&mut rng, 16)).collect();
        let coeffs = bytes(&mut rng, arity);
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let mut out = vec![0u8; 16];
        lin_comb(&coeffs, &refs, &mut out);

        // Reversed order must give the same combination (commutativity).
        let rev_coeffs: Vec<u8> = coeffs.iter().rev().copied().collect();
        let rev_refs: Vec<&[u8]> = refs.iter().rev().copied().collect();
        let mut out_rev = vec![0u8; 16];
        lin_comb(&rev_coeffs, &rev_refs, &mut out_rev);
        assert_eq!(out, out_rev, "case {case}");
    }
}

#[test]
fn xor_only_combinations_match_plain_xor() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let blocks: Vec<Vec<u8>> = (0..1 + rng.pick(4)).map(|_| bytes(&mut rng, 32)).collect();
        let coeffs = vec![1u8; blocks.len()];
        assert!(is_xor_only(&coeffs), "case {case}");
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let mut via_lincomb = vec![0u8; 32];
        lin_comb(&coeffs, &refs, &mut via_lincomb);
        let mut via_xor = vec![0u8; 32];
        for b in &blocks {
            xor_slice(&mut via_xor, b);
        }
        assert_eq!(via_lincomb, via_xor, "case {case}");
    }
}
