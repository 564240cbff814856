//! Arithmetic over the Galois field GF(2^8) and bulk slice kernels.
//!
//! This crate provides the finite-field substrate for the Reed-Solomon codec
//! used throughout the RPR repository. It mirrors what the paper obtains from
//! the Jerasure library: `w = 8` Galois-field arithmetic with the primitive
//! polynomial `x^8 + x^4 + x^3 + x^2 + 1` (`0x11D`), the same polynomial
//! Jerasure uses for `w = 8`.
//!
//! Two API layers are exposed:
//!
//! * scalar ops on [`Gf8`] / raw `u8` ([`add`], [`mul`], [`div`], [`inv`],
//!   [`pow`], [`exp`], [`log`]) used by matrix algebra and plan construction;
//! * bulk kernels ([`xor_slice`], [`mul_slice`], [`mul_acc_slice`],
//!   [`lin_comb`], [`lin_comb_multi`]) used on block-sized buffers.
//!   `xor_slice` runs at memory bandwidth (wide `u64` lanes); the multiply
//!   kernels are runtime-dispatched through [`kernels`] to SSSE3/AVX2
//!   `pshufb` or NEON `tbl` split-nibble SIMD, with a per-coefficient
//!   256-entry table row as the mandatory scalar fallback
//!   (`RPR_FORCE_SCALAR=1` pins it).
//!
//! On the *scalar* fallback a general-coefficient fold runs roughly 10×
//! slower than an XOR fold — the physical origin of the paper's
//! `t_wd ≈ 4 × t_nd` observation (§3.3), which folds in per-fold fixed
//! costs. With the SIMD kernels active the gap nearly closes: measured on
//! the AVX2 reference host (see `docs/PERFORMANCE.md`; `rpr kernels`
//! reads your own), `mul_acc_slice` reaches ≈ 21.5 GB/s on
//! 256 KiB buffers — ≈ 0.8× the 27.6 GB/s `xor_slice` rate and ≈ 10×
//! the ≈ 2.1 GB/s scalar multiply path — so chunked repair pipelines
//! stop being CPU-bound and the paper's ratio survives only as a
//! *modeled* cost on hosts without SIMD.
//!
//! All tables are computed at compile time (`const fn`), so there is no
//! runtime initialization or locking; kernel detection happens once at
//! first use and is cached.
//!
//! ```
//! use rpr_gf::{mul, inv, lin_comb};
//!
//! // Scalar field arithmetic.
//! let a = 0x53u8;
//! assert_eq!(mul(a, inv(a)), 1);
//!
//! // Bulk partial decoding: out = 3·x ⊕ 1·y.
//! let (x, y) = ([1u8, 2, 3], [4u8, 5, 6]);
//! let mut out = [0u8; 3];
//! lin_comb(&[3, 1], &[&x, &y], &mut out);
//! assert_eq!(out[0], mul(3, 1) ^ 4);
//! ```

// Unsafe is denied everywhere except the SIMD bodies in `kernels`, which
// opt back in locally and document their safety contracts.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
pub mod tables;

pub use kernels::{active_tier, available_tiers, xor_slice_on, KernelTier};
pub use tables::{EXP, LOG};

/// The primitive polynomial for GF(2^8): `x^8 + x^4 + x^3 + x^2 + 1`.
pub const PRIMITIVE_POLY: u16 = 0x11D;

/// Number of elements in the field.
pub const FIELD_SIZE: usize = 256;

/// The multiplicative order of the field (number of nonzero elements).
pub const ORDER: usize = 255;

/// An element of GF(2^8).
///
/// A thin newtype over `u8`; arithmetic is exposed both through methods and
/// through the free functions in this crate (which operate on raw `u8` and
/// are preferred in hot loops).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf8(pub u8);

impl core::fmt::Debug for Gf8 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Gf8({:#04x})", self.0)
    }
}

impl core::fmt::Display for Gf8 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

#[allow(clippy::should_implement_trait)] // methods mirror the operator impls below
impl Gf8 {
    /// The additive identity.
    pub const ZERO: Gf8 = Gf8(0);
    /// The multiplicative identity.
    pub const ONE: Gf8 = Gf8(1);
    /// The canonical generator (`x`, i.e. 2) of the multiplicative group.
    pub const GENERATOR: Gf8 = Gf8(2);

    /// Field addition (XOR).
    #[inline]
    pub fn add(self, rhs: Gf8) -> Gf8 {
        Gf8(self.0 ^ rhs.0)
    }

    /// Field subtraction — identical to addition in characteristic 2.
    #[inline]
    pub fn sub(self, rhs: Gf8) -> Gf8 {
        self.add(rhs)
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(self, rhs: Gf8) -> Gf8 {
        Gf8(mul(self.0, rhs.0))
    }

    /// Field division.
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    #[inline]
    pub fn div(self, rhs: Gf8) -> Gf8 {
        Gf8(div(self.0, rhs.0))
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `self` is zero.
    #[inline]
    pub fn inv(self) -> Gf8 {
        Gf8(inv(self.0))
    }

    /// Raise to an integer power (with `x^0 == 1`, including `0^0 == 1`).
    #[inline]
    pub fn pow(self, e: usize) -> Gf8 {
        Gf8(pow(self.0, e))
    }
}

impl core::ops::Add for Gf8 {
    type Output = Gf8;
    #[inline]
    fn add(self, rhs: Gf8) -> Gf8 {
        Gf8::add(self, rhs)
    }
}

impl core::ops::Sub for Gf8 {
    type Output = Gf8;
    #[inline]
    fn sub(self, rhs: Gf8) -> Gf8 {
        Gf8::sub(self, rhs)
    }
}

impl core::ops::Mul for Gf8 {
    type Output = Gf8;
    #[inline]
    fn mul(self, rhs: Gf8) -> Gf8 {
        Gf8::mul(self, rhs)
    }
}

impl core::ops::Div for Gf8 {
    type Output = Gf8;
    #[inline]
    fn div(self, rhs: Gf8) -> Gf8 {
        Gf8::div(self, rhs)
    }
}

impl From<u8> for Gf8 {
    #[inline]
    fn from(v: u8) -> Gf8 {
        Gf8(v)
    }
}

impl From<Gf8> for u8 {
    #[inline]
    fn from(v: Gf8) -> u8 {
        v.0
    }
}

/// Field addition on raw bytes (XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication on raw bytes via log/exp tables.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    // LOG entries are < 255 and their sum is < 510; EXP has 512 entries so
    // no modulo reduction is needed.
    EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
}

/// Field division on raw bytes.
///
/// # Panics
/// Panics if `b == 0`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(2^8)");
    if a == 0 {
        return 0;
    }
    let diff = LOG[a as usize] as isize - LOG[b as usize] as isize;
    let idx = diff.rem_euclid(ORDER as isize) as usize;
    EXP[idx]
}

/// Multiplicative inverse of a raw byte.
///
/// # Panics
/// Panics if `a == 0`.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(2^8)");
    EXP[ORDER - LOG[a as usize] as usize]
}

/// `a^e` with the convention `a^0 == 1` (also for `a == 0`).
#[inline]
pub fn pow(a: u8, e: usize) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    // a^e = g^(log(a) * e mod 255); reduce e first to avoid overflow.
    EXP[(LOG[a as usize] as usize * (e % ORDER)) % ORDER]
}

/// Discrete logarithm base the canonical generator.
///
/// # Panics
/// Panics if `a == 0`.
#[inline]
pub fn log(a: u8) -> u8 {
    assert!(a != 0, "log of zero in GF(2^8)");
    LOG[a as usize]
}

/// `GENERATOR^e`.
#[inline]
pub fn exp(e: usize) -> u8 {
    EXP[e % ORDER]
}

/// Carry-less "schoolbook" multiply with polynomial reduction.
///
/// This is the reference implementation used to generate and cross-check the
/// tables; it is slow and exists for verification only.
pub fn mul_reference(a: u8, b: u8) -> u8 {
    tables::mul_slow(a, b)
}

// ---------------------------------------------------------------------------
// Bulk slice kernels
// ---------------------------------------------------------------------------

/// `dst[i] ^= src[i]` over whole slices, runtime-dispatched to the
/// fastest available kernel (see [`kernels`]).
///
/// This is the "no decoding matrix" fast path of the paper (eq. 6): pure XOR
/// accumulation at close to memory bandwidth. SIMD tiers run one
/// `pxor`/`vpxor`/`eor` per vector; the scalar tier XORs wide `u64`
/// lanes, so even unoptimized builds never fall back to a
/// byte-at-a-time loop. Output is bit-identical across kernels.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn xor_slice(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_slice: length mismatch");
    kernels::xor_dispatch(dst, src);
}

/// `dst[i] = c * src[i]`, runtime-dispatched to the fastest available
/// kernel (see [`kernels`]).
///
/// Coefficients `0` and `1` take allocation-free fast paths (`fill` /
/// `copy_from_slice`); every other coefficient runs the split-nibble SIMD
/// kernel when the CPU has one, the 256-entry table row otherwise. Output
/// is bit-identical across kernels.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mul_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len(), "mul_slice: length mismatch");
    match c {
        0 => dst.fill(0),
        1 => dst.copy_from_slice(src),
        _ => kernels::mul_dispatch::<false>(c, src, dst),
    }
}

/// `dst[i] ^= c * src[i]` — the fused multiply-accumulate kernel used by
/// encoding, decoding and partial decoding, runtime-dispatched like
/// [`mul_slice`].
///
/// Coefficient `0` is a no-op and coefficient `1` degenerates to
/// [`xor_slice`]; general coefficients use the dispatched kernel. Output
/// is bit-identical across kernels.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mul_acc_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len(), "mul_acc_slice: length mismatch");
    match c {
        0 => {}
        1 => xor_slice(dst, src),
        _ => kernels::mul_dispatch::<true>(c, src, dst),
    }
}

/// Cache-block span for the multi-input combinators: big enough to
/// amortize per-span dispatch, small enough that one output span plus one
/// input span stay resident in L1/L2 while every input (or every output
/// row) is folded over it.
const CACHE_SPAN: usize = 32 * 1024;

/// Compute the linear combination `out = Σ coeffs[i] * blocks[i]`.
///
/// This is precisely a "partial decode" in the sense of the paper (§2.1.2):
/// the output is an intermediate block that can later be combined (XORed,
/// when coefficients have already been applied) with other intermediates.
///
/// The fold is *cache-blocked*: for buffers larger than one cache span the
/// inputs are folded span by span, so the output span is written `k` times
/// while hot instead of streaming the full output through cache `k` times.
///
/// # Panics
/// Panics if `coeffs.len() != blocks.len()`, if any block length differs from
/// `out`, or if `blocks` is empty.
pub fn lin_comb(coeffs: &[u8], blocks: &[&[u8]], out: &mut [u8]) {
    assert_eq!(coeffs.len(), blocks.len(), "lin_comb: arity mismatch");
    assert!(!blocks.is_empty(), "lin_comb: empty input");
    for (b, block) in blocks.iter().enumerate() {
        assert_eq!(block.len(), out.len(), "lin_comb: block {b} length");
    }
    let len = out.len();
    let mut start = 0;
    while start < len {
        let end = (start + CACHE_SPAN).min(len);
        mul_slice(coeffs[0], &blocks[0][start..end], &mut out[start..end]);
        for (&c, b) in coeffs[1..].iter().zip(&blocks[1..]) {
            mul_acc_slice(c, &b[start..end], &mut out[start..end]);
        }
        start = end;
    }
}

/// Compute several linear combinations of the same blocks at once:
/// `outs[r] = Σ_j coeff_rows[r][j] * blocks[j]` — one matrix–vector
/// product over block-sized buffers. This is the shape of a multi-row RS
/// encode (every parity row reads the same data blocks) and of a full
/// decode (every recovered row reads the same survivors).
///
/// Cache-blocked across *rows*: each input span is loaded once and folded
/// into every output row while it is still resident, instead of streaming
/// all inputs from memory once per row as repeated [`lin_comb`] calls
/// would.
///
/// Rows may contain zero coefficients (the corresponding block is skipped
/// for that row). Outputs are fully overwritten.
///
/// # Panics
/// Panics if row/block arities disagree, any buffer length differs, or
/// `blocks`/`coeff_rows` is empty.
pub fn lin_comb_multi(coeff_rows: &[&[u8]], blocks: &[&[u8]], outs: &mut [&mut [u8]]) {
    assert!(!coeff_rows.is_empty(), "lin_comb_multi: no rows");
    assert!(!blocks.is_empty(), "lin_comb_multi: empty input");
    assert_eq!(coeff_rows.len(), outs.len(), "lin_comb_multi: row arity");
    let len = outs[0].len();
    for (r, row) in coeff_rows.iter().enumerate() {
        assert_eq!(row.len(), blocks.len(), "lin_comb_multi: row {r} arity");
        assert_eq!(outs[r].len(), len, "lin_comb_multi: out {r} length");
    }
    for (b, block) in blocks.iter().enumerate() {
        assert_eq!(block.len(), len, "lin_comb_multi: block {b} length");
    }
    for out in outs.iter_mut() {
        out.fill(0);
    }
    let mut start = 0;
    while start < len {
        let end = (start + CACHE_SPAN).min(len);
        for (j, block) in blocks.iter().enumerate() {
            let span = &block[start..end];
            for (row, out) in coeff_rows.iter().zip(outs.iter_mut()) {
                mul_acc_slice(row[j], span, &mut out[start..end]);
            }
        }
        start = end;
    }
}

/// True if every coefficient equals 1, i.e. the combination is a pure XOR
/// (eq. 6 of the paper) and no Galois multiplication is needed.
pub fn is_xor_only(coeffs: &[u8]) -> bool {
    coeffs.iter().all(|&c| c == 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_matches_reference_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_reference(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn exp_log_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(exp(log(a) as usize), a);
        }
        for e in 0..ORDER {
            assert_eq!(log(exp(e)) as usize, e);
        }
    }

    #[test]
    fn inverse_is_correct() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "zero has no inverse")]
    fn inverse_of_zero_panics() {
        inv(0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        div(1, 0);
    }

    #[test]
    fn division_inverts_multiplication() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                assert_eq!(div(mul(a, b), b), a, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn pow_basics() {
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
        assert_eq!(pow(7, 0), 1);
        for a in 1..=255u8 {
            assert_eq!(pow(a, 1), a);
            assert_eq!(pow(a, 2), mul(a, a));
            assert_eq!(pow(a, ORDER), 1, "Fermat's little theorem, a={a}");
        }
    }

    #[test]
    fn generator_has_full_order() {
        let mut seen = [false; 256];
        let mut x = 1u8;
        for _ in 0..ORDER {
            assert!(!seen[x as usize], "generator order < 255");
            seen[x as usize] = true;
            x = mul(x, Gf8::GENERATOR.0);
        }
        assert_eq!(x, 1, "generator does not cycle back to 1");
    }

    #[test]
    fn gf8_operator_overloads() {
        let a = Gf8(0x53);
        let b = Gf8(0xCA);
        assert_eq!((a + b).0, 0x53 ^ 0xCA);
        assert_eq!((a - b).0, 0x53 ^ 0xCA);
        assert_eq!((a * b).0, mul(0x53, 0xCA));
        assert_eq!((a / b).0, div(0x53, 0xCA));
        assert_eq!(a.inv() * a, Gf8::ONE);
        assert_eq!(a.pow(0), Gf8::ONE);
        assert_ne!(a, Gf8::ZERO);
        assert_eq!(u8::from(a), 0x53);
        assert_eq!(Gf8::from(0x53u8), a);
        assert_eq!(format!("{a}"), "0x53");
        assert_eq!(format!("{a:?}"), "Gf8(0x53)");
    }

    #[test]
    fn xor_slice_basic_and_remainder() {
        // Length 19 exercises both the u64 body and the tail.
        let mut dst: Vec<u8> = (0..19).collect();
        let src: Vec<u8> = (100..119).collect();
        let expect: Vec<u8> = dst.iter().zip(&src).map(|(a, b)| a ^ b).collect();
        xor_slice(&mut dst, &src);
        assert_eq!(dst, expect);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_slice_length_mismatch_panics() {
        xor_slice(&mut [0u8; 3], &[0u8; 4]);
    }

    #[test]
    fn mul_slice_special_coefficients() {
        let src = [1u8, 2, 3, 255];
        let mut dst = [9u8; 4];
        mul_slice(0, &src, &mut dst);
        assert_eq!(dst, [0; 4]);
        mul_slice(1, &src, &mut dst);
        assert_eq!(dst, src);
        mul_slice(7, &src, &mut dst);
        let expect: Vec<u8> = src.iter().map(|&s| mul(7, s)).collect();
        assert_eq!(dst.to_vec(), expect);
    }

    #[test]
    fn mul_acc_slice_accumulates() {
        let src = [10u8, 20, 30];
        let mut dst = [1u8, 2, 3];
        let snapshot = dst;
        mul_acc_slice(0, &src, &mut dst);
        assert_eq!(dst, snapshot, "c=0 must be a no-op");
        mul_acc_slice(3, &src, &mut dst);
        let expect: Vec<u8> = snapshot
            .iter()
            .zip(&src)
            .map(|(&d, &s)| d ^ mul(3, s))
            .collect();
        assert_eq!(dst.to_vec(), expect);
    }

    #[test]
    fn lin_comb_matches_scalar_math() {
        let b0 = [1u8, 2, 3, 4];
        let b1 = [5u8, 6, 7, 8];
        let b2 = [9u8, 10, 11, 12];
        let coeffs = [3u8, 1, 200];
        let mut out = [0u8; 4];
        lin_comb(&coeffs, &[&b0, &b1, &b2], &mut out);
        for i in 0..4 {
            let want = mul(3, b0[i]) ^ b1[i] ^ mul(200, b2[i]);
            assert_eq!(out[i], want);
        }
    }

    #[test]
    fn lin_comb_cache_blocking_matches_unblocked_math() {
        // Longer than one CACHE_SPAN (plus a ragged tail) so the blocked
        // loop takes more than one span.
        let len = 3 * super::CACHE_SPAN + 17;
        let mk = |seed: u8| -> Vec<u8> {
            (0..len)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
                .collect()
        };
        let blocks = [mk(1), mk(2), mk(3)];
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let coeffs = [9u8, 1, 0xC3];
        let mut out = vec![0u8; len];
        lin_comb(&coeffs, &refs, &mut out);
        for i in [0, 1, super::CACHE_SPAN - 1, super::CACHE_SPAN, len - 1] {
            let want = mul(9, blocks[0][i]) ^ blocks[1][i] ^ mul(0xC3, blocks[2][i]);
            assert_eq!(out[i], want, "byte {i}");
        }
    }

    #[test]
    fn lin_comb_multi_matches_per_row_lin_comb() {
        let len = super::CACHE_SPAN + 41;
        let mk = |seed: u8| -> Vec<u8> {
            (0..len)
                .map(|i| (i as u8).wrapping_mul(113).wrapping_add(seed))
                .collect()
        };
        let blocks = [mk(5), mk(6), mk(7), mk(8)];
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        // Includes a zero coefficient and an all-ones (XOR) row.
        let rows: [&[u8]; 3] = [&[1, 1, 1, 1], &[3, 0, 7, 200], &[0, 0, 0, 5]];
        let mut outs: Vec<Vec<u8>> = vec![vec![0xEE; len]; 3];
        {
            let mut out_refs: Vec<&mut [u8]> = outs.iter_mut().map(|o| o.as_mut_slice()).collect();
            lin_comb_multi(&rows, &refs, &mut out_refs);
        }
        for (r, row) in rows.iter().enumerate() {
            let mut want = vec![0u8; len];
            lin_comb(row, &refs, &mut want);
            assert_eq!(outs[r], want, "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "row 1 arity")]
    fn lin_comb_multi_rejects_ragged_rows() {
        let b = [1u8, 2, 3];
        let mut o1 = [0u8; 3];
        let mut o2 = [0u8; 3];
        let rows: [&[u8]; 2] = [&[1], &[1, 2]];
        lin_comb_multi(&rows, &[&b], &mut [&mut o1, &mut o2]);
    }

    #[test]
    fn is_xor_only_detection() {
        assert!(is_xor_only(&[1, 1, 1]));
        assert!(!is_xor_only(&[1, 2, 1]));
        assert!(is_xor_only(&[]), "empty combination is vacuously XOR-only");
    }
}
