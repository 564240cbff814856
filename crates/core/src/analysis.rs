//! Closed-form repair-time analysis (§4 of the paper).
//!
//! These are the formulas behind Figure 6 and the §4.3 limit discussion;
//! the test-suite cross-checks the simulator against them (the greedy
//! scheduler must never be slower than the paper's worst-case bounds).

use rpr_codec::CodeParams;

/// Analysis parameters: one inner-rack and one cross-rack block-transfer
/// time (`t_i`, `t_c`), as in §4.1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalysisParams {
    /// Time for one inner-rack transfer of a block.
    pub t_i: f64,
    /// Time for one cross-rack transfer of a block.
    pub t_c: f64,
}

impl AnalysisParams {
    /// The paper's Figure 6 setting: `t_i = 1 ms`, `t_c = 10 ms`.
    pub fn figure6() -> AnalysisParams {
        AnalysisParams {
            t_i: 1e-3,
            t_c: 10e-3,
        }
    }
}

/// Eq. 10: traditional repair time, `n · t_c`.
pub fn traditional_repair_time(params: CodeParams, a: AnalysisParams) -> f64 {
    params.n as f64 * a.t_c
}

/// Eq. 11: worst-case total inner-rack transfer time,
/// `(max_i ⌊log2 r_i⌋ + 1) · t_i`, with every rack holding `r_i = k`
/// helpers as §4.1 assumes.
pub fn rpr_inner_time(params: CodeParams, a: AnalysisParams) -> f64 {
    (floor_log2(params.k) + 1) as f64 * a.t_i
}

/// Eq. 12: worst-case total cross-rack transfer time,
/// `(⌊log2 q⌋ + 1) · t_c`.
pub fn rpr_cross_time(params: CodeParams, a: AnalysisParams) -> f64 {
    (floor_log2(params.rack_count()) + 1) as f64 * a.t_c
}

/// Eq. 13: worst-case RPR repair time (no pipelining assumed),
/// `T_inner + T_cross`.
pub fn rpr_repair_time(params: CodeParams, a: AnalysisParams) -> f64 {
    rpr_inner_time(params, a) + rpr_cross_time(params, a)
}

/// §4.3.1: worst-case (`k` failures) multi-block repair time in cross-rack
/// timesteps: `⌈log2 q⌉ · k` (capped below by the single-equation depth).
pub fn rpr_multi_worst_cross_timesteps(params: CodeParams) -> usize {
    ceil_log2(params.rack_count()) as usize * params.k
}

/// Floor of log2 (for `x ≥ 1`).
pub fn floor_log2(x: usize) -> u32 {
    assert!(x >= 1, "log2 of zero");
    usize::BITS - 1 - x.leading_zeros()
}

/// Ceiling of log2 (for `x ≥ 1`).
pub fn ceil_log2(x: usize) -> u32 {
    assert!(x >= 1, "log2 of zero");
    if x == 1 {
        0
    } else {
        usize::BITS - (x - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CODES: [(usize, usize); 6] = [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)];

    #[test]
    fn log_helpers() {
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(4), 2);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(5), 3);
    }

    #[test]
    fn figure6_trend_traditional_grows_linearly_rpr_logarithmically() {
        let a = AnalysisParams::figure6();
        for (n, k) in CODES {
            let p = CodeParams::new(n, k);
            let tra = traditional_repair_time(p, a);
            let rpr = rpr_repair_time(p, a);
            assert!(rpr < tra, "({n},{k}): RPR worst case must beat traditional");
            assert!((tra - n as f64 * 10e-3).abs() < 1e-12);
        }
        // Traditional grows linearly in n.
        for n in [4usize, 6, 8, 12] {
            let t = traditional_repair_time(CodeParams::new(n, 2), a);
            assert!((t - n as f64 * 10e-3).abs() < 1e-12);
        }
        // Concretely: (12,4) traditional 120 ms vs RPR <= 33 ms.
        let p = CodeParams::new(12, 4);
        assert!((traditional_repair_time(p, a) - 0.120).abs() < 1e-9);
        assert!((rpr_repair_time(p, a) - 0.033).abs() < 1e-9); // 3 t_i + 3 t_c
    }
}
