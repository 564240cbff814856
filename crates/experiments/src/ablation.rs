//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. cross/inner bandwidth ratio sweep — where does pipelining stop
//!    mattering? (the paper assumes 10:1);
//! 2. pre-placement on/off at EC2 decode costs;
//! 3. helper-selection search vs heuristic;
//! 4. traditional repair's recovery site (spare rack vs failed rack).

use crate::util::{fmt_pct, fmt_s, print_table};
use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_core::{
    simulate, CarPlanner, CostModel, RepairContext, RepairPlanner, RprPlanner, TraditionalPlanner,
};
use rpr_topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy, GBIT};

const BLOCK: u64 = 256 << 20;

/// Run all ablations.
pub fn ablation() {
    ratio_sweep();
    preplacement();
    search_vs_heuristic();
    recovery_site();
    agg_switch();
    chain_baseline();
}

/// 1. Sweep the cross:inner bandwidth ratio for RS(12,4).
fn ratio_sweep() {
    let params = CodeParams::new(12, 4);
    let codec = StripeCodec::new(params);
    let topo = cluster_for(params, 1, 1);
    let placement = Placement::rpr_preplaced(params, &topo);

    let mut rows = Vec::new();
    for ratio in [1.0, 2.0, 5.0, 10.0, 20.0, 32.0] {
        let profile = BandwidthProfile::uniform(topo.rack_count(), GBIT, GBIT / ratio);
        let mut row = vec![format!("1:{ratio:.0}")];
        let mut tra_t = f64::NAN;
        for planner in [
            &TraditionalPlanner::new() as &dyn RepairPlanner,
            &CarPlanner::new(),
            &RprPlanner::new(),
        ] {
            let ctx = RepairContext::new(
                &codec,
                &topo,
                &placement,
                vec![BlockId(0)],
                BLOCK,
                &profile,
                CostModel::simics(),
            );
            let t = simulate(&planner.plan(&ctx), &ctx).repair_time;
            if tra_t.is_nan() {
                tra_t = t;
            }
            row.push(fmt_s(t));
        }
        let rpr_t: f64 = row.last().unwrap().parse().unwrap();
        row.push(fmt_pct(1.0 - rpr_t / tra_t));
        rows.push(row);
    }
    print_table(
        "Ablation 1 — cross:inner bandwidth ratio sweep, RS(12,4) single \
         failure (s). The paper assumes 1:10.",
        &["cross:inner", "Tra", "CAR", "RPR", "RPR vs Tra"],
        &rows,
    );
    println!(
        "\n> At 1:1 the rack hierarchy is irrelevant and all schemes converge; \
         the RPR advantage grows with the ratio."
    );
}

/// 2. Pre-placement on/off, averaged over data failures, EC2 decode costs.
fn preplacement() {
    let mut rows = Vec::new();
    for (n, k) in [(6usize, 2usize), (6, 3), (12, 4)] {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let mut means = Vec::new();
        let mut hits = Vec::new();
        for policy in [PlacementPolicy::Compact, PlacementPolicy::RprPreplaced] {
            let placement = Placement::by_policy(policy, params, &topo);
            let mut sum = 0.0;
            let mut xor_hits = 0usize;
            for fail in 0..n {
                let ctx = RepairContext::new(
                    &codec,
                    &topo,
                    &placement,
                    vec![BlockId(fail)],
                    BLOCK,
                    &profile,
                    CostModel::ec2_t2micro(),
                );
                let plan = RprPlanner::new().plan(&ctx);
                if !plan.stats(&topo).needs_matrix {
                    xor_hits += 1;
                }
                sum += simulate(&plan, &ctx).repair_time;
            }
            means.push(sum / n as f64);
            hits.push(xor_hits);
        }
        rows.push(vec![
            format!("({n},{k})"),
            fmt_s(means[0]),
            format!("{}/{n}", hits[0]),
            fmt_s(means[1]),
            format!("{}/{n}", hits[1]),
            fmt_pct(1.0 - means[1] / means[0]),
        ]);
    }
    print_table(
        "Ablation 2 — §3.3 pre-placement on/off: mean RPR repair time over all \
         data failures (s) and XOR-path hit rate, slow-CPU (t2.micro) decode \
         costs",
        &[
            "code",
            "compact",
            "compact XOR",
            "pre-placed",
            "pre-placed XOR",
            "gain",
        ],
        &rows,
    );
    println!(
        "\n> Reproduction finding: with a *time-driven, XOR-aware* helper \
         selection (which prefers P0\n> over other parities), the compact \
         layout already reaches the eq.-6 path whenever the\n> distribution \
         allows, so physically relocating P0 adds little — the paper's gain \
         comes from\n> choosing the XOR-friendly helper set, not from where \
         P0 sits."
    );
}

/// 3. Helper-selection search vs the fullest-first heuristic.
fn search_vs_heuristic() {
    let mut rows = Vec::new();
    for (n, k) in [(6usize, 2usize), (8, 2), (8, 4), (12, 4)] {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let (mut s_sum, mut h_sum) = (0.0, 0.0);
        for fail in 0..n {
            let ctx = RepairContext::new(
                &codec,
                &topo,
                &placement,
                vec![BlockId(fail)],
                BLOCK,
                &profile,
                CostModel::simics(),
            );
            s_sum += simulate(&RprPlanner::new().plan(&ctx), &ctx).repair_time;
            h_sum += simulate(&RprPlanner::without_search().plan(&ctx), &ctx).repair_time;
        }
        rows.push(vec![
            format!("({n},{k})"),
            fmt_s(s_sum / n as f64),
            fmt_s(h_sum / n as f64),
            fmt_pct(1.0 - s_sum / h_sum),
        ]);
    }
    print_table(
        "Ablation 3 — exhaustive helper-selection search vs fullest-first \
         heuristic: mean RPR repair time (s)",
        &["code", "search", "heuristic", "search gain"],
        &rows,
    );
}

/// 4. Traditional repair's recovery site.
fn recovery_site() {
    let mut rows = Vec::new();
    for (n, k) in [(6usize, 2usize), (12, 4)] {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::compact(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let t = |planner: &dyn RepairPlanner| {
            let ctx = RepairContext::new(
                &codec,
                &topo,
                &placement,
                vec![BlockId(0)],
                BLOCK,
                &profile,
                CostModel::simics(),
            );
            simulate(&planner.plan(&ctx), &ctx).repair_time
        };
        let spare = t(&TraditionalPlanner::new());
        let local = t(&TraditionalPlanner::locality_aware());
        rows.push(vec![
            format!("({n},{k})"),
            fmt_s(spare),
            fmt_s(local),
            fmt_pct(1.0 - local / spare),
        ]);
    }
    print_table(
        "Ablation 4 — traditional repair's recovery site: spare rack (the \
         paper's n*t_c model) vs failed rack (locality-aware) (s)",
        &["code", "spare rack", "failed rack", "locality gain"],
        &rows,
    );
    println!(
        "\n> Even locality-aware traditional repair stays far behind RPR \
         (compare Figure 8)."
    );
}

/// 5. Oversubscribed aggregation switch (Figure 2's shared fabric) at
///    fleet scale: a node failure repairs ~25 stripes concurrently, and
///    once the switch's total cross-rack capacity binds, traffic *volume*
///    (not just per-link scheduling) dictates the recovery makespan, so
///    RPR's traffic reduction pays twice.
fn agg_switch() {
    use rpr_core::CostModel as Cost;
    use rpr_store::{Failure, RecoveryOptions, Scheme, Store, StoreConfig};
    use rpr_topology::GBIT;

    let store = Store::build(StoreConfig {
        params: CodeParams::new(6, 3),
        racks: 5,
        nodes_per_rack: 5,
        stripes: 60,
        block_bytes: 64 << 20,
        preplace_p0: true,
        seed: 0xA66,
    });
    let profile = BandwidthProfile::simics_default(store.topology().rack_count());
    let cost = Cost::simics().scaled_for_block(store.config().block_bytes);
    let node = store
        .topology()
        .nodes()
        .max_by_key(|&n| store.blocks_on_node(n).len())
        .unwrap();

    let mut rows = Vec::new();
    for agg_gbit in [f64::INFINITY, 0.2, 0.1, 0.05] {
        let opts = RecoveryOptions {
            agg_capacity: agg_gbit.is_finite().then_some(agg_gbit * GBIT),
            ..Default::default()
        };
        let tra = store.recover(
            Failure::Node(node),
            Scheme::Traditional,
            &profile,
            cost,
            &opts,
        );
        let rpr = store.recover(Failure::Node(node), Scheme::Rpr, &profile, cost, &opts);
        rows.push(vec![
            if agg_gbit.is_finite() {
                format!("{agg_gbit} Gb/s")
            } else {
                "unlimited".to_string()
            },
            fmt_s(tra.makespan),
            fmt_s(rpr.makespan),
            fmt_pct(1.0 - rpr.makespan / tra.makespan),
        ]);
    }
    print_table(
        "Ablation 5 — oversubscribed aggregation switch at fleet scale: node \
         failure over a 60-stripe RS(6,3) store, total cross-rack fabric \
         capacity swept (recovery makespan, s)",
        &["agg capacity", "Tra", "RPR", "RPR vs Tra"],
        &rows,
    );
    println!(
        "\n> Once the shared fabric binds, makespan approaches \
         cross-bytes / capacity — and RPR\n> moves less than half the bytes."
    );
}

/// 6. Slice-pipelined chain repair (PUSH / ECPipe, the paper's related
///    work \[16\]) vs RPR's tree pipeline: same cross-rack traffic, different
///    schedule shape — the chain amortizes hops over slices, the tree
///    parallelizes racks over whole blocks.
fn chain_baseline() {
    use rpr_core::ChainPlanner;
    let mut rows = Vec::new();
    for (n, k) in [(6usize, 2usize), (8, 2), (8, 4), (12, 4)] {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let run = |planner: &dyn RepairPlanner| {
            let mut sum = 0.0;
            for fail in 0..n {
                let ctx = RepairContext::new(
                    &codec,
                    &topo,
                    &placement,
                    vec![BlockId(fail)],
                    BLOCK,
                    &profile,
                    CostModel::simics(),
                );
                sum += simulate(&planner.plan(&ctx), &ctx).repair_time;
            }
            sum / n as f64
        };
        let rpr = run(&RprPlanner::new());
        let chain1 = run(&ChainPlanner::with_slices(1));
        let chain16 = run(&ChainPlanner::with_slices(16));
        rows.push(vec![
            format!("({n},{k})"),
            fmt_s(rpr),
            fmt_s(chain1),
            fmt_s(chain16),
            fmt_pct(1.0 - chain16 / rpr),
        ]);
    }
    print_table(
        "Ablation 6 — repair pipelining (chain) baseline vs RPR: mean repair \
         time over data failures (s); chain shown unsliced and with 16 slices",
        &["code", "RPR", "chain s=1", "chain s=16", "chain16 vs RPR"],
        &rows,
    );
    println!(
        "\n> Slicing is orthogonal to rack-awareness: a 16-slice chain \
         amortizes its hop count and\n> can edge out whole-block tree \
         aggregation; RPR's schedule could adopt slicing too."
    );
}
