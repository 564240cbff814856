//! Adversarial validator tests: take a correct plan and mutate it — the
//! symbolic validator must catch every data-affecting corruption. This is
//! the property that makes "plan validates" a real correctness proof
//! rather than a smoke test.
//!
//! Exhaustive: every code and failed block each property names, every
//! mutation site of the RPR plan, and (for coefficients) every other
//! nonzero value. A failure names the plan and the mutation.

use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_core::{CostModel, Input, Op, OpId, RepairContext, RepairPlan, RepairPlanner, RprPlanner};
use rpr_topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy, Topology};

/// The RPR plan for one failed block of `(n, k)` under pre-placement.
struct Case {
    tag: String,
    codec: StripeCodec,
    topo: Topology,
    placement: Placement,
    plan: RepairPlan,
}

impl Case {
    fn build(n: usize, k: usize, fail: usize) -> Case {
        let params = CodeParams::new(n, k);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::by_policy(PlacementPolicy::RprPreplaced, params, &topo);
        let profile = BandwidthProfile::simics_default(topo.rack_count());
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(fail)],
            1 << 20,
            &profile,
            CostModel::free(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        drop(ctx);
        Case {
            tag: format!("({n},{k}) fail d{fail}"),
            codec,
            topo,
            placement,
            plan,
        }
    }

    /// Every failed data block `fail < fails` of every code.
    fn all(codes: &[(usize, usize)], fails: usize) -> impl Iterator<Item = Case> + '_ {
        codes
            .iter()
            .flat_map(move |&(n, k)| (0..fails).map(move |fail| Case::build(n, k, fail)))
    }

    /// Apply `mutate` to a copy of the plan; the validator must reject it.
    fn assert_caught(&self, what: &str, mutate: impl FnOnce(&mut RepairPlan)) {
        let mut plan = self.plan.clone();
        mutate(&mut plan);
        assert!(
            plan.validate(&self.codec, &self.topo, &self.placement)
                .is_err(),
            "{}: {what} must be caught",
            self.tag
        );
    }
}

/// Changing any combine coefficient to a different nonzero value must
/// break symbolic consistency (generator rows are independent, so the
/// perturbation cannot cancel).
#[test]
fn coefficient_corruption_is_always_caught() {
    let mut mutations = 0usize;
    for case in Case::all(&[(4, 2), (6, 2), (8, 4)], 4) {
        // Every (op, input) coordinate holding a Block coefficient.
        for (oi, op) in case.plan.ops.iter().enumerate() {
            let Op::Combine { inputs, .. } = op else {
                continue;
            };
            for (ij, inp) in inputs.iter().enumerate() {
                let Input::Block { coeff: old, .. } = *inp else {
                    continue;
                };
                for new in (1..=255u8).filter(|&c| c != old) {
                    case.assert_caught(
                        &format!("op{oi} input {ij} coeff {old} -> {new}"),
                        |plan| {
                            if let Op::Combine { inputs, .. } = &mut plan.ops[oi] {
                                if let Input::Block { coeff, .. } = &mut inputs[ij] {
                                    *coeff = new;
                                }
                            }
                        },
                    );
                    mutations += 1;
                }
            }
        }
    }
    assert!(mutations >= 64, "only {mutations} corruptions tried");
}

/// Swapping an output op for any *other* op must be caught (either it
/// is misplaced or it decodes the wrong combination) — unless the other
/// op is a Send of the correct final intermediate to the same node,
/// which cannot occur for the final output of a valid RPR plan.
#[test]
fn output_rewiring_is_always_caught() {
    let mut mutations = 0usize;
    for case in Case::all(&[(4, 2), (6, 3)], 4) {
        let correct = case.plan.outputs[0].1;
        assert!(case.plan.ops.len() > 1, "{}", case.tag);
        for other in (0..case.plan.ops.len()).map(OpId).filter(|&o| o != correct) {
            case.assert_caught(&format!("rewiring output to {other:?}"), |plan| {
                plan.outputs[0].1 = other;
            });
            mutations += 1;
        }
    }
    assert!(mutations >= 64, "only {mutations} rewirings tried");
}

/// Dropping any input from a multi-input combine must be caught.
#[test]
fn dropped_inputs_are_always_caught() {
    let mut mutations = 0usize;
    for case in Case::all(&[(6, 2), (12, 4)], 6) {
        for (oi, op) in case.plan.ops.iter().enumerate() {
            let Op::Combine { inputs, .. } = op else {
                continue;
            };
            if inputs.len() < 2 {
                continue;
            }
            for drop_at in 0..inputs.len() {
                case.assert_caught(&format!("dropping input {drop_at} of op{oi}"), |plan| {
                    if let Op::Combine { inputs, .. } = &mut plan.ops[oi] {
                        inputs.remove(drop_at);
                    }
                });
                mutations += 1;
            }
        }
    }
    assert!(mutations >= 64, "only {mutations} drops tried");
}
