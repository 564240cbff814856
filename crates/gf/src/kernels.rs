//! Runtime-dispatched GF(2^8) bulk-multiply and bulk-XOR kernels.
//!
//! The crate's public slice API ([`crate::xor_slice`], [`crate::mul_slice`],
//! [`crate::mul_acc_slice`], [`crate::lin_comb`], [`crate::lin_comb_multi`])
//! routes every general coefficient through this module. At first use the
//! best kernel the CPU supports is detected once and cached; every later
//! call is a single atomic load plus an indirect-free `match`:
//!
//! | tier | ISA | bytes/step | technique |
//! |------|-----|-----------:|-----------|
//! | [`KernelTier::Avx2`]  | x86-64 AVX2  | 32 | `vpshufb` split-nibble |
//! | [`KernelTier::Ssse3`] | x86-64 SSSE3 | 16 | `pshufb` split-nibble |
//! | [`KernelTier::Neon`]  | AArch64 NEON | 16 | `tbl` split-nibble |
//! | [`KernelTier::Scalar`]| any | 1 | 256-entry table row |
//!
//! The split-nibble trick: `c·x` for `x = (hi << 4) | lo` equals
//! `NIB_LO[c][lo] ⊕ NIB_HI[c][hi]` (multiplication distributes over the
//! field's XOR addition), and each 16-entry table fits one shuffle
//! register, so a single `pshufb`/`tbl` performs 16–32 table lookups in
//! parallel.
//!
//! The bulk XOR (`dst[i] ^= src[i]`, the paper's eq. 6 accumulate) is
//! dispatched on the same tiers: one `pxor`/`vpxor`/`eor` per vector on
//! the SIMD tiers, wide `u64` lanes on the scalar tier. Optimized builds
//! auto-vectorize the scalar lanes anyway; the explicit path keeps
//! unoptimized and cross-compiled builds at vector width too.
//!
//! # Bit identity
//!
//! Every tier computes the *same function* — results are guaranteed (and
//! tested for every coefficient on every tier, see
//! `crates/gf/tests/kernel_equivalence.rs`) to be
//! byte-for-byte identical to [`crate::mul_reference`] applied pointwise,
//! for every coefficient, length, and alignment. Picking a tier changes
//! throughput only, never output.
//!
//! # Alignment and remainders
//!
//! The vector bodies use unaligned loads/stores exclusively
//! (`loadu`/`storeu`, `vld1q`/`vst1q`), so callers never need aligned
//! buffers. Lengths that are not a multiple of the vector width fall
//! through to the scalar table-row loop for the tail bytes; lengths
//! shorter than one vector run entirely scalar.
//!
//! # Escape hatch
//!
//! Setting the environment variable `RPR_FORCE_SCALAR` (to anything but
//! `0` or the empty string) before first use pins the dispatcher to
//! [`KernelTier::Scalar`]. This is the supported way to rule the SIMD
//! paths in or out when bisecting a miscompare or measuring the scalar
//! baseline; it is read once and cached with the detection result.

// The SIMD bodies below are the only unsafe code in the workspace's coding
// stack; each unsafe block states the invariant that makes it sound.
#![allow(unsafe_code)]

use crate::tables;
use core::sync::atomic::{AtomicU8, Ordering};

/// One dispatchable kernel implementation, ordered from slowest to
/// fastest. See the [module docs](self) for the table of tiers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum KernelTier {
    /// Portable per-byte 256-entry table-row loop. Always available; the
    /// mandatory fallback every other tier is verified against.
    Scalar,
    /// SSE `pshufb` split-nibble multiply, 16 bytes per step (x86-64).
    Ssse3,
    /// AVX2 `vpshufb` split-nibble multiply, 32 bytes per step (x86-64).
    Avx2,
    /// NEON `tbl` split-nibble multiply, 16 bytes per step (AArch64).
    Neon,
}

impl KernelTier {
    /// Stable lowercase name, as printed by `rpr kernels --json`.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Ssse3 => "ssse3",
            KernelTier::Avx2 => "avx2",
            KernelTier::Neon => "neon",
        }
    }
}

impl core::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

// Cached dispatch decision: 0 = undetected, else tier discriminant + 1.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn tier_code(t: KernelTier) -> u8 {
    match t {
        KernelTier::Scalar => 1,
        KernelTier::Ssse3 => 2,
        KernelTier::Avx2 => 3,
        KernelTier::Neon => 4,
    }
}

fn tier_from_code(c: u8) -> KernelTier {
    match c {
        1 => KernelTier::Scalar,
        2 => KernelTier::Ssse3,
        3 => KernelTier::Avx2,
        4 => KernelTier::Neon,
        _ => unreachable!("invalid cached kernel tier"),
    }
}

fn force_scalar() -> bool {
    match std::env::var_os("RPR_FORCE_SCALAR") {
        None => false,
        Some(v) => !v.is_empty() && v != "0",
    }
}

fn detect() -> KernelTier {
    if force_scalar() {
        return KernelTier::Scalar;
    }
    *available_tiers()
        .last()
        .expect("scalar is always available")
}

/// The kernel tier the dispatcher is using, detecting (and caching) it on
/// the first call. `RPR_FORCE_SCALAR` is honored at detection time only.
pub fn active_tier() -> KernelTier {
    let cached = ACTIVE.load(Ordering::Relaxed);
    if cached != 0 {
        return tier_from_code(cached);
    }
    let t = detect();
    // A concurrent first call detects the same value; the race is benign.
    ACTIVE.store(tier_code(t), Ordering::Relaxed);
    t
}

/// Every tier this CPU can run, slowest first (always starts with
/// [`KernelTier::Scalar`]). Ignores `RPR_FORCE_SCALAR`: this reports
/// hardware capability, not the dispatch decision.
pub fn available_tiers() -> Vec<KernelTier> {
    let mut tiers = vec![KernelTier::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("ssse3") {
            tiers.push(KernelTier::Ssse3);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push(KernelTier::Avx2);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            tiers.push(KernelTier::Neon);
        }
    }
    tiers
}

/// `dst[i] = c * src[i]` on an explicit tier. Exposed for the equivalence
/// tests and benchmarks; production code uses the dispatched
/// [`crate::mul_slice`].
///
/// # Panics
/// Panics if the slices have different lengths or `tier` is not in
/// [`available_tiers`] on this CPU.
pub fn mul_slice_on(tier: KernelTier, c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len(), "mul_slice: length mismatch");
    assert!(
        available_tiers().contains(&tier),
        "kernel tier {tier} not available on this CPU"
    );
    dispatch::<false>(tier, c, src, dst);
}

/// `dst[i] ^= c * src[i]` on an explicit tier. Exposed for the
/// equivalence tests and benchmarks; production code uses the dispatched
/// [`crate::mul_acc_slice`].
///
/// # Panics
/// As [`mul_slice_on`].
pub fn mul_acc_slice_on(tier: KernelTier, c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len(), "mul_acc_slice: length mismatch");
    assert!(
        available_tiers().contains(&tier),
        "kernel tier {tier} not available on this CPU"
    );
    dispatch::<true>(tier, c, src, dst);
}

/// `dst[i] ^= src[i]` on an explicit tier. Exposed for the equivalence
/// tests and benchmarks; production code uses the dispatched
/// [`crate::xor_slice`].
///
/// # Panics
/// Panics if the slices have different lengths or `tier` is not in
/// [`available_tiers`] on this CPU.
pub fn xor_slice_on(tier: KernelTier, dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_slice: length mismatch");
    assert!(
        available_tiers().contains(&tier),
        "kernel tier {tier} not available on this CPU"
    );
    dispatch_xor(tier, dst, src);
}

/// Dispatched general-coefficient multiply: `dst = c·src` (`ACC = false`)
/// or `dst ^= c·src` (`ACC = true`). Callers have already peeled the
/// `c == 0` / `c == 1` special cases.
#[inline]
pub(crate) fn mul_dispatch<const ACC: bool>(c: u8, src: &[u8], dst: &mut [u8]) {
    dispatch::<ACC>(active_tier(), c, src, dst);
}

/// Dispatched bulk XOR behind [`crate::xor_slice`]. Lengths are already
/// asserted equal by the caller.
#[inline]
pub(crate) fn xor_dispatch(dst: &mut [u8], src: &[u8]) {
    dispatch_xor(active_tier(), dst, src);
}

#[inline]
fn dispatch_xor(tier: KernelTier, dst: &mut [u8], src: &[u8]) {
    match tier {
        KernelTier::Scalar => scalar_xor(dst, src),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is only selected when the matching CPU feature
        // was runtime-detected (`available_tiers` / `detect`).
        KernelTier::Ssse3 => unsafe { x86::xor_sse2(dst, src) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — AVX2 was runtime-detected.
        KernelTier::Avx2 => unsafe { x86::xor_avx2(dst, src) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above — NEON was runtime-detected.
        KernelTier::Neon => unsafe { neon::xor_neon(dst, src) },
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        _ => scalar_xor(dst, src),
        // A SIMD tier of the *other* architecture can never be selected
        // (available_tiers is arch-gated), but the match must be total.
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        _ => unreachable!("foreign-architecture kernel tier"),
    }
}

#[inline]
fn dispatch<const ACC: bool>(tier: KernelTier, c: u8, src: &[u8], dst: &mut [u8]) {
    match tier {
        KernelTier::Scalar => scalar::<ACC>(c, src, dst),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is only selected when the matching CPU feature
        // was runtime-detected (`available_tiers` / `detect`).
        KernelTier::Ssse3 => unsafe { x86::mul_ssse3::<ACC>(c, src, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — AVX2 was runtime-detected.
        KernelTier::Avx2 => unsafe { x86::mul_avx2::<ACC>(c, src, dst) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above — NEON was runtime-detected.
        KernelTier::Neon => unsafe { neon::mul_neon::<ACC>(c, src, dst) },
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        _ => scalar::<ACC>(c, src, dst),
        // A SIMD tier of the *other* architecture can never be selected
        // (available_tiers is arch-gated), but the match must be total.
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        _ => unreachable!("foreign-architecture kernel tier"),
    }
}

/// The scalar XOR fallback and every vector XOR kernel's tail loop: wide
/// `u64` lanes via `chunks_exact`, byte-at-a-time only for the final
/// `len % 8` bytes. Safe code throughout.
fn scalar_xor(dst: &mut [u8], src: &[u8]) {
    const LANE: usize = 8;
    let mut d = dst.chunks_exact_mut(LANE);
    let mut s = src.chunks_exact(LANE);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let dv = u64::from_ne_bytes(dc.try_into().unwrap());
        let sv = u64::from_ne_bytes(sc.try_into().unwrap());
        dc.copy_from_slice(&(dv ^ sv).to_ne_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= *sb;
    }
}

/// The scalar fallback: one 256-entry table row, one lookup per byte.
/// This is byte-addressed (no lane tricks), so it has no alignment or
/// remainder concerns and serves as the tail loop of every vector kernel.
fn scalar<const ACC: bool>(c: u8, src: &[u8], dst: &mut [u8]) {
    let row = tables::mul_row(c);
    if ACC {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= row[*s as usize];
        }
    } else {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = row[*s as usize];
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSSE3 / AVX2 split-nibble kernels.
    //!
    //! Soundness rests on three invariants, shared by both widths:
    //!
    //! 1. **ISA**: the caller verified the CPU feature at runtime before
    //!    selecting this path (`#[target_feature]` makes the fn unsafe for
    //!    exactly this reason).
    //! 2. **Bounds**: the vector loop only touches `i..i + W` for
    //!    `i + W <= len`; the `..len` tail is handled by the safe scalar
    //!    loop.
    //! 3. **Aliasing**: `src` and `dst` are distinct Rust slices (`&` vs
    //!    `&mut`), so the raw pointers derived from them cannot overlap.
    //!
    //! All loads/stores are the unaligned variants; there is no alignment
    //! precondition.

    use super::scalar;
    use crate::tables::{NIB_HI, NIB_LO};
    use core::arch::x86_64::*;

    /// `dst ^= src` over 16-byte lanes (`pxor`).
    ///
    /// # Safety
    /// CPU must support SSE2 (baseline on x86-64; the dispatcher only
    /// takes this path after detecting the SSSE3 tier, which implies it).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn xor_sse2(dst: &mut [u8], src: &[u8]) {
        const W: usize = 16;
        let len = src.len();
        let mut i = 0;
        while i + W <= len {
            // SAFETY: i + 16 <= len for both slices (equal lengths,
            // asserted by the caller); loadu/storeu need no alignment.
            unsafe {
                let s = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
                let d = dst.as_mut_ptr().add(i) as *mut __m128i;
                _mm_storeu_si128(d, _mm_xor_si128(_mm_loadu_si128(d as *const __m128i), s));
            }
            i += W;
        }
        super::scalar_xor(&mut dst[i..], &src[i..]);
    }

    /// `dst ^= src` over 32-byte lanes (`vpxor`).
    ///
    /// # Safety
    /// CPU must support AVX2 (runtime-detected by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_avx2(dst: &mut [u8], src: &[u8]) {
        const W: usize = 32;
        let len = src.len();
        let mut i = 0;
        while i + W <= len {
            // SAFETY: i + 32 <= len for both slices (equal lengths,
            // asserted by the caller); loadu/storeu need no alignment.
            unsafe {
                let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
                let d = dst.as_mut_ptr().add(i) as *mut __m256i;
                _mm256_storeu_si256(
                    d,
                    _mm256_xor_si256(_mm256_loadu_si256(d as *const __m256i), s),
                );
            }
            i += W;
        }
        super::scalar_xor(&mut dst[i..], &src[i..]);
    }

    /// `dst ?= c·src` over 16-byte lanes.
    ///
    /// # Safety
    /// CPU must support SSSE3 (runtime-detected by the dispatcher).
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_ssse3<const ACC: bool>(c: u8, src: &[u8], dst: &mut [u8]) {
        const W: usize = 16;
        let len = src.len();
        // SAFETY: NIB_* rows are 16 bytes, exactly one __m128i.
        let lo_t = unsafe { _mm_loadu_si128(NIB_LO[c as usize].as_ptr() as *const __m128i) };
        let hi_t = unsafe { _mm_loadu_si128(NIB_HI[c as usize].as_ptr() as *const __m128i) };
        let mask = _mm_set1_epi8(0x0F);
        let mut i = 0;
        while i + W <= len {
            // SAFETY: i + 16 <= len for both slices (equal lengths,
            // asserted by the caller); loadu/storeu need no alignment.
            unsafe {
                let s = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
                let lo = _mm_shuffle_epi8(lo_t, _mm_and_si128(s, mask));
                let hi = _mm_shuffle_epi8(hi_t, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
                let mut prod = _mm_xor_si128(lo, hi);
                let d = dst.as_mut_ptr().add(i) as *mut __m128i;
                if ACC {
                    prod = _mm_xor_si128(prod, _mm_loadu_si128(d as *const __m128i));
                }
                _mm_storeu_si128(d, prod);
            }
            i += W;
        }
        scalar::<ACC>(c, &src[i..], &mut dst[i..]);
    }

    /// `dst ?= c·src` over 32-byte lanes.
    ///
    /// # Safety
    /// CPU must support AVX2 (runtime-detected by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_avx2<const ACC: bool>(c: u8, src: &[u8], dst: &mut [u8]) {
        const W: usize = 32;
        let len = src.len();
        // SAFETY: NIB_* rows are 16 bytes, exactly one __m128i; the
        // broadcast replicates the table into both 128-bit halves because
        // vpshufb shuffles within each half independently.
        let lo_t = unsafe {
            _mm256_broadcastsi128_si256(_mm_loadu_si128(
                NIB_LO[c as usize].as_ptr() as *const __m128i
            ))
        };
        let hi_t = unsafe {
            _mm256_broadcastsi128_si256(_mm_loadu_si128(
                NIB_HI[c as usize].as_ptr() as *const __m128i
            ))
        };
        let mask = _mm256_set1_epi8(0x0F);
        let mut i = 0;
        while i + W <= len {
            // SAFETY: i + 32 <= len for both slices (equal lengths,
            // asserted by the caller); loadu/storeu need no alignment.
            unsafe {
                let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
                let lo = _mm256_shuffle_epi8(lo_t, _mm256_and_si256(s, mask));
                let hi = _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
                let mut prod = _mm256_xor_si256(lo, hi);
                let d = dst.as_mut_ptr().add(i) as *mut __m256i;
                if ACC {
                    prod = _mm256_xor_si256(prod, _mm256_loadu_si256(d as *const __m256i));
                }
                _mm256_storeu_si256(d, prod);
            }
            i += W;
        }
        scalar::<ACC>(c, &src[i..], &mut dst[i..]);
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON split-nibble kernel. Same three soundness invariants as the
    //! x86 module: runtime-detected ISA, vector body bounded by
    //! `i + 16 <= len` with a safe scalar tail, and non-overlapping
    //! `&`/`&mut` slices. `vld1q`/`vst1q` have no alignment requirement.

    use super::scalar;
    use crate::tables::{NIB_HI, NIB_LO};
    use core::arch::aarch64::*;

    /// `dst ^= src` over 16-byte lanes (`eor`).
    ///
    /// # Safety
    /// CPU must support NEON (runtime-detected by the dispatcher).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn xor_neon(dst: &mut [u8], src: &[u8]) {
        const W: usize = 16;
        let len = src.len();
        let mut i = 0;
        while i + W <= len {
            // SAFETY: i + 16 <= len for both slices (equal lengths,
            // asserted by the caller).
            unsafe {
                let s = vld1q_u8(src.as_ptr().add(i));
                let d = vld1q_u8(dst.as_ptr().add(i));
                vst1q_u8(dst.as_mut_ptr().add(i), veorq_u8(d, s));
            }
            i += W;
        }
        super::scalar_xor(&mut dst[i..], &src[i..]);
    }

    /// `dst ?= c·src` over 16-byte lanes.
    ///
    /// # Safety
    /// CPU must support NEON (runtime-detected by the dispatcher; NEON is
    /// baseline on AArch64 but the dispatcher checks anyway).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn mul_neon<const ACC: bool>(c: u8, src: &[u8], dst: &mut [u8]) {
        const W: usize = 16;
        let len = src.len();
        // SAFETY: NIB_* rows are 16 bytes, exactly one uint8x16_t.
        let lo_t = unsafe { vld1q_u8(NIB_LO[c as usize].as_ptr()) };
        let hi_t = unsafe { vld1q_u8(NIB_HI[c as usize].as_ptr()) };
        let mask = vdupq_n_u8(0x0F);
        let mut i = 0;
        while i + W <= len {
            // SAFETY: i + 16 <= len for both slices (equal lengths,
            // asserted by the caller).
            unsafe {
                let s = vld1q_u8(src.as_ptr().add(i));
                let lo = vqtbl1q_u8(lo_t, vandq_u8(s, mask));
                let hi = vqtbl1q_u8(hi_t, vshrq_n_u8(s, 4));
                let mut prod = veorq_u8(lo, hi);
                if ACC {
                    prod = veorq_u8(prod, vld1q_u8(dst.as_ptr().add(i)));
                }
                vst1q_u8(dst.as_mut_ptr().add(i), prod);
            }
            i += W;
        }
        scalar::<ACC>(c, &src[i..], &mut dst[i..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_tier_is_available_and_cached() {
        let t = active_tier();
        assert!(available_tiers().contains(&t));
        assert_eq!(active_tier(), t, "detection must be cached and stable");
    }

    #[test]
    fn available_tiers_start_with_scalar_in_speed_order() {
        let tiers = available_tiers();
        assert_eq!(tiers[0], KernelTier::Scalar);
        assert!(tiers.windows(2).all(|w| w[0] < w[1]), "{tiers:?}");
    }

    #[test]
    fn tier_names_are_stable() {
        for (t, n) in [
            (KernelTier::Scalar, "scalar"),
            (KernelTier::Ssse3, "ssse3"),
            (KernelTier::Avx2, "avx2"),
            (KernelTier::Neon, "neon"),
        ] {
            assert_eq!(t.name(), n);
            assert_eq!(format!("{t}"), n);
        }
    }

    #[test]
    fn every_available_tier_matches_reference() {
        // Small smoke check here; the exhaustive ragged/unaligned sweep
        // lives in tests/kernel_equivalence.rs.
        let src: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37)).collect();
        for tier in available_tiers() {
            for c in [0u8, 1, 2, 0x53, 0xFF] {
                let mut dst = vec![0xAAu8; src.len()];
                mul_slice_on(tier, c, &src, &mut dst);
                for (d, s) in dst.iter().zip(&src) {
                    assert_eq!(*d, crate::mul_reference(c, *s), "{tier} c={c}");
                }
                let mut acc = src.clone();
                mul_acc_slice_on(tier, c, &src, &mut acc);
                for (a, s) in acc.iter().zip(&src) {
                    assert_eq!(*a, s ^ crate::mul_reference(c, *s), "{tier} c={c}");
                }
            }
        }
    }

    #[test]
    fn every_available_tier_xors_identically() {
        // Ragged lengths straddle the 16/32-byte vector widths so every
        // tier exercises both its vector body and its scalar tail.
        for len in [0usize, 1, 7, 8, 15, 16, 17, 31, 32, 33, 100, 257] {
            let src: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37)).collect();
            let base: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_add(113)).collect();
            let want: Vec<u8> = base.iter().zip(&src).map(|(d, s)| d ^ s).collect();
            for tier in available_tiers() {
                let mut dst = base.clone();
                xor_slice_on(tier, &mut dst, &src);
                assert_eq!(dst, want, "{tier} len={len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn explicit_tier_checks_lengths() {
        mul_slice_on(KernelTier::Scalar, 3, &[0u8; 4], &mut [0u8; 5]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn explicit_tier_xor_checks_lengths() {
        xor_slice_on(KernelTier::Scalar, &mut [0u8; 4], &[0u8; 5]);
    }
}
