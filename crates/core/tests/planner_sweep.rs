//! Exhaustive planner sweep: every planner's plan for every failure
//! pattern of every paper code passes the symbolic validator — on both
//! placements, with no sampling. The space is small enough (21,544
//! plans) to enumerate, so a planner bug on a rare loss pattern cannot
//! hide behind a property test's draws.

use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_core::{
    CarPlanner, ChainPlanner, CostModel, RepairContext, RepairPlanner, RprPlanner,
    TraditionalPlanner,
};
use rpr_topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy};

const PAPER_CODES: [(usize, usize); 6] = [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)];

#[test]
fn every_planner_validates_on_every_failure_pattern() {
    let multi: [(&str, &dyn RepairPlanner); 3] = [
        ("rpr", &RprPlanner::new()),
        ("traditional", &TraditionalPlanner::new()),
        ("traditional-local", &TraditionalPlanner::locality_aware()),
    ];
    let single_only: [(&str, &dyn RepairPlanner); 2] =
        [("car", &CarPlanner::new()), ("chain", &ChainPlanner::new())];
    let mut cases = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for (n, k) in PAPER_CODES {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        for policy in [PlacementPolicy::RprPreplaced, PlacementPolicy::Compact] {
            let placement = Placement::by_policy(policy, params, &topo);
            for z in 1..=k {
                rpr_linalg::for_each_combination(n + k, z, |lost| {
                    let ctx = RepairContext::new(
                        &codec,
                        &topo,
                        &placement,
                        lost.iter().copied().map(BlockId).collect(),
                        1 << 20,
                        &profile,
                        CostModel::free(),
                    );
                    let planners = multi
                        .iter()
                        .chain(if z == 1 { &single_only[..] } else { &[] });
                    for (name, planner) in planners {
                        cases += 1;
                        let plan = planner.plan(&ctx);
                        if let Err(e) = plan.validate(&codec, &topo, &placement) {
                            failures.push(format!("({n},{k}) {policy:?} {lost:?} {name}: {e}"));
                        }
                    }
                });
            }
        }
    }
    assert_eq!(cases, 21_544, "the sweep must cover the whole space");
    assert!(
        failures.is_empty(),
        "{} invalid plans: {failures:#?}",
        failures.len()
    );
}
