//! Paper-shape regression tests: the relationships the evaluation section
//! reports (who wins, by roughly what factor) must hold in our simulator.

use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_core::{
    simulate, CarPlanner, CostModel, RepairContext, RepairPlanner, RprPlanner, TraditionalPlanner,
};
use rpr_topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy};

const PAPER_CODES: [(usize, usize); 6] = [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)];
const BLOCK: u64 = 64 << 20;

struct Fixture {
    codec: StripeCodec,
    topo: rpr_topology::Topology,
    placement: Placement,
    profile: BandwidthProfile,
}

fn fixture(n: usize, k: usize, policy: PlacementPolicy) -> Fixture {
    let params = CodeParams::new(n, k);
    let topo = cluster_for(params, 1, 1);
    let placement = Placement::by_policy(policy, params, &topo);
    let profile = BandwidthProfile::simics_default(topo.rack_count());
    Fixture {
        codec: StripeCodec::new(params),
        topo,
        placement,
        profile,
    }
}

fn repair_time(f: &Fixture, planner: &dyn RepairPlanner, failed: Vec<BlockId>) -> (f64, usize) {
    let ctx = RepairContext::new(
        &f.codec,
        &f.topo,
        &f.placement,
        failed,
        BLOCK,
        &f.profile,
        CostModel::simics(),
    );
    let plan = planner.plan(&ctx);
    plan.validate(&f.codec, &f.topo, &f.placement)
        .expect("plan must be valid");
    let out = simulate(&plan, &ctx);
    (out.repair_time, out.stats.cross_transfers)
}

/// Figure 8's shape: RPR < CAR < traditional for single-block failures,
/// and the headline reductions are in the paper's ballpark.
#[test]
fn single_failure_ordering_and_reductions() {
    let mut reductions_tra = Vec::new();
    let mut reductions_car = Vec::new();
    for (n, k) in PAPER_CODES {
        let f = fixture(n, k, PlacementPolicy::RprPreplaced);
        // Average over every data-block failure position.
        let (mut tra_sum, mut car_sum, mut rpr_sum) = (0.0, 0.0, 0.0);
        for fail in 0..n {
            let (tra, _) = repair_time(&f, &TraditionalPlanner::new(), vec![BlockId(fail)]);
            let (car, _) = repair_time(&f, &CarPlanner::new(), vec![BlockId(fail)]);
            let (rpr, _) = repair_time(&f, &RprPlanner::new(), vec![BlockId(fail)]);
            assert!(
                rpr <= car + 1e-9 && car <= tra + 1e-9,
                "({n},{k}) fail {fail}: want rpr {rpr} <= car {car} <= tra {tra}"
            );
            tra_sum += tra;
            car_sum += car;
            rpr_sum += rpr;
        }
        reductions_tra.push(1.0 - rpr_sum / tra_sum);
        reductions_car.push(1.0 - rpr_sum / car_sum);
        eprintln!(
            "({n},{k}): tra {:.2}s car {:.2}s rpr {:.2}s | vs tra {:.1}% vs car {:.1}%",
            tra_sum / n as f64,
            car_sum / n as f64,
            rpr_sum / n as f64,
            (1.0 - rpr_sum / tra_sum) * 100.0,
            (1.0 - rpr_sum / car_sum) * 100.0
        );
    }
    let avg_tra = reductions_tra.iter().sum::<f64>() / reductions_tra.len() as f64;
    let max_tra = reductions_tra.iter().cloned().fold(0.0, f64::max);
    let avg_car = reductions_car.iter().sum::<f64>() / reductions_car.len() as f64;
    let max_car = reductions_car.iter().cloned().fold(0.0, f64::max);
    eprintln!(
        "avg vs tra {:.1}% (paper 67%), max {:.1}% (paper 81.5%), \
         avg vs car {:.1}% (paper 24%), max {:.1}% (paper 37%)",
        avg_tra * 100.0,
        max_tra * 100.0,
        avg_car * 100.0,
        max_car * 100.0
    );
    // Paper: avg 67%, max 81.5% vs traditional; avg 24%, max 37% vs CAR.
    assert!((0.50..0.80).contains(&avg_tra), "avg vs tra {avg_tra}");
    assert!((0.70..0.90).contains(&max_tra), "max vs tra {max_tra}");
    assert!(avg_car > 0.05, "avg vs car {avg_car}");
    assert!(max_car > 0.20, "max vs car {max_car}");
}

/// Figure 7's shape: single-failure cross-rack traffic — CAR and RPR tie
/// and both beat traditional.
#[test]
fn single_failure_traffic_shape() {
    for (n, k) in PAPER_CODES {
        let f = fixture(n, k, PlacementPolicy::Compact);
        let (_, tra) = repair_time(&f, &TraditionalPlanner::new(), vec![BlockId(0)]);
        let (_, car) = repair_time(&f, &CarPlanner::new(), vec![BlockId(0)]);
        let (_, rpr) = repair_time(&f, &RprPlanner::new(), vec![BlockId(0)]);
        assert_eq!(tra, n, "({n},{k}) traditional ships n blocks cross-rack");
        assert!(car < tra, "({n},{k}) CAR reduces traffic");
        assert!(rpr <= car, "({n},{k}) RPR traffic no worse than CAR");
    }
}

/// Figures 9/10's shape: multi-failure (non-worst) — RPR beats traditional
/// on both time and traffic.
#[test]
fn multi_failure_non_worst_shape() {
    for (n, k, z) in [
        (6usize, 3usize, 2usize),
        (8, 4, 2),
        (8, 4, 3),
        (12, 4, 2),
        (12, 4, 3),
    ] {
        let f = fixture(n, k, PlacementPolicy::Compact);
        // Sample a few failure position combinations.
        let combos: Vec<Vec<BlockId>> = vec![
            (0..z).map(BlockId).collect(),
            (0..z).map(|i| BlockId(i * 2)).collect(),
            (0..z).map(|i| BlockId(n - 1 - i)).collect(),
        ];
        for failed in combos {
            let (tra_t, tra_x) = repair_time(&f, &TraditionalPlanner::new(), failed.clone());
            let (rpr_t, rpr_x) = repair_time(&f, &RprPlanner::new(), failed.clone());
            assert!(
                rpr_t < tra_t,
                "({n},{k},{z}) {failed:?}: time {rpr_t} !< {tra_t}"
            );
            assert!(
                rpr_x <= tra_x,
                "({n},{k},{z}) {failed:?}: traffic {rpr_x} !<= {tra_x}"
            );
        }
    }
}

/// Figure 11's shape: worst case (k failures) — RPR still beats traditional
/// in time for codes with (n+k)/k > 3, and never increases traffic (§4.3.2).
#[test]
fn multi_failure_worst_case_shape() {
    for (n, k) in [(6usize, 2usize), (8, 2), (12, 4)] {
        let f = fixture(n, k, PlacementPolicy::Compact);
        let failed: Vec<BlockId> = (0..k).map(BlockId).collect();
        let (tra_t, tra_x) = repair_time(&f, &TraditionalPlanner::new(), failed.clone());
        let (rpr_t, rpr_x) = repair_time(&f, &RprPlanner::new(), failed);
        eprintln!(
            "worst ({n},{k}): tra {tra_t:.2}s/{tra_x} rpr {rpr_t:.2}s/{rpr_x} -> {:.1}%",
            (1.0 - rpr_t / tra_t) * 100.0
        );
        assert!(rpr_t < tra_t, "({n},{k}) worst-case time");
        assert!(rpr_x <= tra_x, "({n},{k}) worst-case traffic must not grow");
    }
}

/// §3.3: pre-placement lets RPR skip the decoding matrix for most single
/// data-block failures. Pre-placement relocates d(n-1), so a per-position
/// comparison is not apples-to-apples; we check the aggregate across all
/// data positions and all paper codes: the matrix-free XOR path fires for
/// the majority of failures and mean repair time stays within a few percent
/// of the compact layout (the paper's "no negative effect" claim, which our
/// finer-grained model confirms only approximately — see EXPERIMENTS.md).
#[test]
fn preplacement_ablation_on_slow_cpus() {
    let mut total_compact = 0.0;
    let mut total_pre = 0.0;
    let mut xor_hits = 0usize;
    let mut positions = 0usize;
    for (n, k) in PAPER_CODES {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let compact = Placement::compact(params, &topo);
        let preplaced = Placement::rpr_preplaced(params, &topo);

        for fail in 0..n {
            let t = |placement: &Placement| {
                let ctx = RepairContext::new(
                    &codec,
                    &topo,
                    placement,
                    vec![BlockId(fail)],
                    BLOCK,
                    &profile,
                    CostModel::ec2_t2micro(),
                );
                let plan = RprPlanner::new().plan(&ctx);
                plan.validate(&codec, &topo, placement).expect("valid");
                (
                    simulate(&plan, &ctx).repair_time,
                    plan.stats(&topo).needs_matrix,
                )
            };
            let (t_compact, _) = t(&compact);
            let (t_pre, needs_matrix) = t(&preplaced);
            total_compact += t_compact;
            total_pre += t_pre;
            positions += 1;
            if !needs_matrix {
                xor_hits += 1;
            }
        }
    }
    eprintln!(
        "preplacement aggregate: compact {:.2}s, preplaced {:.2}s, XOR on {xor_hits}/{positions}",
        total_compact / positions as f64,
        total_pre / positions as f64
    );
    assert!(
        xor_hits * 2 >= positions,
        "XOR path should fire for the majority of data failures ({xor_hits}/{positions})"
    );
    assert!(
        total_pre <= total_compact * 1.05,
        "pre-placement must stay within 5% of compact on average \
         ({total_pre} vs {total_compact})"
    );
}

// §4's timestep claims, checked on the simulator. Under a uniform
// 1e9 / 1e8 B/s profile and the free cost model a 1 MiB block crosses a
// rack in `t_c` = 10 `t_i` and decoding costs nothing, as §4.1 assumes.

const STEP_BLOCK: u64 = 1 << 20;
const T_I: f64 = STEP_BLOCK as f64 / 1e9;
const T_C: f64 = STEP_BLOCK as f64 / 1e8;

/// Simulate `planner` on RS(n,k) under the §4 setting: `(makespan,
/// outcome)`.
fn timestep_run(
    n: usize,
    k: usize,
    policy: PlacementPolicy,
    failed: Vec<BlockId>,
    planner: &dyn RepairPlanner,
) -> rpr_core::SimOutcome {
    let params = CodeParams::new(n, k);
    let codec = StripeCodec::new(params);
    let topo = cluster_for(params, 1, 1);
    let placement = Placement::by_policy(policy, params, &topo);
    let profile = BandwidthProfile::uniform(topo.rack_count(), 1e9, 1e8);
    let ctx = RepairContext::new(
        &codec,
        &topo,
        &placement,
        failed,
        STEP_BLOCK,
        &profile,
        CostModel::free(),
    );
    let plan = planner.plan(&ctx);
    plan.validate(&codec, &topo, &placement).expect("valid");
    simulate(&plan, &ctx)
}

/// [`timestep_run`]'s makespan, on the pre-placed layout.
fn timesteps(n: usize, k: usize, failed: Vec<BlockId>, planner: &dyn RepairPlanner) -> f64 {
    timestep_run(n, k, PlacementPolicy::RprPreplaced, failed, planner).repair_time
}

/// `a == b` up to float noise on the scale of the makespans here.
fn same_time(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(T_C)
}

#[test]
fn traditional_takes_exactly_n_cross_timesteps() {
    // Eq. 10: with the recovery node in a spare rack, the n helper
    // transfers serialize on its cross downlink: n * t_c.
    for (n, k) in PAPER_CODES {
        let out = timestep_run(
            n,
            k,
            PlacementPolicy::RprPreplaced,
            vec![BlockId(0)],
            &TraditionalPlanner::new(),
        );
        assert_eq!(out.stats.cross_transfers, n, "({n},{k})");
        assert!(
            same_time(out.repair_time, n as f64 * T_C),
            "({n},{k}): got {} want {}",
            out.repair_time,
            n as f64 * T_C
        );
    }
}

#[test]
fn rpr_single_failure_respects_eq11_eq12_bounds() {
    // Eqs. 11-13 are the worst-case, unpipelined bound; the greedy
    // schedule must never exceed it.
    let a = rpr_core::analysis::AnalysisParams { t_i: T_I, t_c: T_C };
    for (n, k) in PAPER_CODES {
        let bound = rpr_core::analysis::rpr_repair_time(CodeParams::new(n, k), a);
        for fail in 0..n {
            let t = timesteps(n, k, vec![BlockId(fail)], &RprPlanner::new());
            assert!(
                t <= bound + 1e-9,
                "({n},{k}) fail {fail}: {t} exceeds eq.13 bound {bound}"
            );
        }
    }
}

#[test]
fn figure5_timestep_counts_match_the_paper() {
    // RS(6,2), d1 fails: the paper's schedule 2 takes 1 inner + 2 cross
    // timesteps (2.1 t_c); the CAR-style schedule 1 serializes 3 cross
    // transfers (3.0 t_c).
    let rpr = timesteps(6, 2, vec![BlockId(1)], &RprPlanner::new());
    let car = timesteps(6, 2, vec![BlockId(1)], &CarPlanner::new());
    assert!(
        same_time(rpr, 2.0 * T_C + T_I),
        "RPR(6,2): {} t_c",
        rpr / T_C
    );
    assert!(same_time(car, 3.0 * T_C), "CAR(6,2): {} t_c", car / T_C);
    assert!(rpr < car);
}

#[test]
fn rpr_never_exceeds_car_in_timesteps() {
    for (n, k) in PAPER_CODES {
        for fail in 0..n {
            let rpr = timesteps(n, k, vec![BlockId(fail)], &RprPlanner::new());
            let car = timesteps(n, k, vec![BlockId(fail)], &CarPlanner::new());
            assert!(
                rpr <= car + 1e-9,
                "({n},{k}) fail {fail}: rpr {rpr} > car {car}"
            );
        }
    }
}

#[test]
fn multi_failure_worst_case_stays_within_4_3_1_analysis() {
    // §4.3.1: the worst case needs at most ceil(log2 q) * k cross
    // timesteps, plus an inner phase bounded by (k + 1) * t_i.
    for (n, k) in [(6usize, 2usize), (8, 2), (12, 4)] {
        let failed: Vec<BlockId> = (0..k).map(BlockId).collect();
        let t = timesteps(n, k, failed, &RprPlanner::new());
        let cross = rpr_core::analysis::rpr_multi_worst_cross_timesteps(CodeParams::new(n, k));
        let bound = cross as f64 * T_C + (k + 1) as f64 * T_I;
        eprintln!(
            "worst ({n},{k}): {:.1} t_c <= {:.1} t_c",
            t / T_C,
            bound / T_C
        );
        assert!(
            t <= bound + 1e-9,
            "({n},{k}) worst case: {} t_c exceeds the §4.3.1 bound {} t_c",
            t / T_C,
            bound / T_C
        );
    }
}

#[test]
fn traffic_counts_match_plan_stats() {
    let out = timestep_run(
        8,
        4,
        PlacementPolicy::Compact,
        vec![BlockId(2)],
        &RprPlanner::new(),
    );
    assert_eq!(
        out.report.cross_rack_bytes,
        out.stats.cross_transfers as u64 * STEP_BLOCK
    );
    let inner = out.stats.inner_transfers as u64 * STEP_BLOCK;
    assert_eq!(out.report.inner_rack_bytes, inner);
}
