//! Property-based tests for matrix algebra over GF(2^8) and the MDS
//! constructions used by the codec.
#![allow(
    clippy::disallowed_methods,
    reason = "properties of Matrix::inverse itself"
)]

use proptest::prelude::*;
use rpr_linalg::{cauchy, is_superregular, rs_coding_matrix, vandermonde, Matrix};

/// Strategy: a random square matrix with dimension 1..=6.
fn square_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=6).prop_flat_map(|n| {
        proptest::collection::vec(any::<u8>(), n * n).prop_map(move |data| {
            let mut m = Matrix::zero(n, n);
            for i in 0..n {
                for j in 0..n {
                    m[(i, j)] = data[i * n + j];
                }
            }
            m
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inverse_roundtrip(m in square_matrix()) {
        if let Some(inv) = m.inverse() {
            let n = m.rows();
            prop_assert_eq!(m.mul(&inv), Matrix::identity(n));
            prop_assert_eq!(inv.mul(&m), Matrix::identity(n));
            prop_assert!(m.determinant() != 0);
            prop_assert_eq!(m.rank(), n);
        } else {
            prop_assert_eq!(m.determinant(), 0);
            prop_assert!(m.rank() < m.rows());
        }
    }

    #[test]
    fn determinant_is_multiplicative(a in square_matrix(), seed: u64) {
        // Build b with the same dimension as a from the seed.
        let n = a.rows();
        let mut b = Matrix::zero(n, n);
        let mut s = seed;
        for i in 0..n {
            for j in 0..n {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                b[(i, j)] = (s >> 33) as u8;
            }
        }
        let lhs = a.mul(&b).determinant();
        let rhs = rpr_gf::mul(a.determinant(), b.determinant());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn matrix_multiplication_is_associative(a in square_matrix(), s1: u64, s2: u64) {
        let n = a.rows();
        let gen = |seed: u64| {
            let mut m = Matrix::zero(n, n);
            let mut s = seed | 1;
            for i in 0..n {
                for j in 0..n {
                    s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i as u64 + j as u64);
                    m[(i, j)] = (s >> 40) as u8;
                }
            }
            m
        };
        let b = gen(s1);
        let c = gen(s2);
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn any_n_rows_of_rs_generator_are_invertible(
        (n, k) in prop_oneof![Just((4usize, 2usize)), Just((6, 2)), Just((6, 3)), Just((8, 4))],
        seed: u64,
    ) {
        // Draw a random survivor set of size n from the n+k generator rows
        // and check invertibility — the operational MDS property used by
        // every decode in the repository.
        let generator = Matrix::identity(n).vstack(&rs_coding_matrix(n, k));
        let mut rows: Vec<usize> = (0..n + k).collect();
        let mut s = seed;
        // Fisher-Yates with an inline LCG for determinism under proptest.
        for i in (1..rows.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            rows.swap(i, (s >> 33) as usize % (i + 1));
        }
        rows.truncate(n);
        rows.sort_unstable();
        prop_assert!(generator.select_rows(&rows).is_invertible(),
            "survivor rows {:?} of RS({},{}) must decode", rows, n, k);
    }
}

#[test]
fn vandermonde_any_rows_invertible_small() {
    // For the 8x4 Vandermonde matrix, every 4-row selection is invertible.
    let v = vandermonde(8, 4);
    rpr_linalg::for_each_combination(8, 4, |sel| {
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
