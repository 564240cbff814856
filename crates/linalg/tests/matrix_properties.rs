//! Properties of matrix algebra over GF(2^8) and of the MDS constructions
//! used by the codec.
//!
//! The algebraic laws run [`CASES`] seeded cases each on square matrices
//! of every dimension 1..=6 (the dimension cycles with the case index),
//! drawn from [`SplitMix64`] seeded with [`SEED`]; a failure names the
//! case index. The RS survivor-set property is exhaustive: every `n`-row
//! subset of each generator.
#![allow(
    clippy::disallowed_methods,
    reason = "properties of Matrix::inverse itself"
)]

use rpr_faults::SplitMix64;
use rpr_linalg::{
    cauchy, for_each_combination, is_superregular, rs_coding_matrix, vandermonde, Matrix,
};

const SEED: u64 = 0x3C6E_F372_FE94_F82B;
const CASES: usize = 64;

/// A seeded random `n × n` matrix.
fn square_matrix(rng: &mut SplitMix64, n: usize) -> Matrix {
    let mut m = Matrix::zero(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = rng.next_u64() as u8;
        }
    }
    m
}

/// Run `check(case, rng, n)` for every case, `n` cycling through 1..=6.
fn for_each_case(mut check: impl FnMut(usize, &mut SplitMix64, usize)) {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        check(case, &mut rng, 1 + case % 6);
    }
}

#[test]
fn inverse_roundtrip() {
    for_each_case(|case, rng, n| {
        let m = square_matrix(rng, n);
        if let Some(inv) = m.inverse() {
            assert_eq!(m.mul(&inv), Matrix::identity(n), "case {case}");
            assert_eq!(inv.mul(&m), Matrix::identity(n), "case {case}");
            assert!(m.determinant() != 0, "case {case}");
            assert_eq!(m.rank(), n, "case {case}");
        } else {
            assert_eq!(m.determinant(), 0, "case {case}");
            assert!(m.rank() < m.rows(), "case {case}");
        }
    });
}

#[test]
fn determinant_is_multiplicative() {
    for_each_case(|case, rng, n| {
        let a = square_matrix(rng, n);
        let b = square_matrix(rng, n);
        let lhs = a.mul(&b).determinant();
        let rhs = rpr_gf::mul(a.determinant(), b.determinant());
        assert_eq!(lhs, rhs, "case {case}");
    });
}

#[test]
fn matrix_multiplication_is_associative() {
    for_each_case(|case, rng, n| {
        let a = square_matrix(rng, n);
        let b = square_matrix(rng, n);
        let c = square_matrix(rng, n);
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)), "case {case}");
    });
}

#[test]
fn any_n_rows_of_rs_generator_are_invertible() {
    // Every survivor set of size n from the n+k generator rows is
    // invertible — the operational MDS property used by every decode in
    // the repository.
    let mut cases = 0usize;
    for (n, k) in [(4usize, 2usize), (6, 2), (6, 3), (8, 4)] {
        let generator = Matrix::identity(n).vstack(&rs_coding_matrix(n, k));
        for_each_combination(n + k, n, |rows| {
            assert!(
                generator.select_rows(rows).is_invertible(),
                "survivor rows {rows:?} of RS({n},{k}) must decode"
            );
            cases += 1;
        });
    }
    assert_eq!(cases, 622, "C(6,4) + C(8,6) + C(9,6) + C(12,8)");
}

#[test]
fn vandermonde_any_rows_invertible_small() {
    // For the 8x4 Vandermonde matrix, every 4-row selection is invertible.
    let v = vandermonde(8, 4);
    for_each_combination(8, 4, |sel| {
        assert!(
            v.select_rows(sel).is_invertible(),
            "vandermonde rows {sel:?}"
        );
    });
}

#[test]
fn cauchy_superregularity_exhaustive_small() {
    for k in 1..=3 {
        for n in 1..=6 {
            assert!(is_superregular(&cauchy(k, n)), "cauchy {k}x{n}");
        }
    }
}
