//! Fleet-scale recovery: whole-node and whole-rack failures over a
//! multi-stripe store — the production setting (§1: Facebook's 180 TB/day
//! of repair traffic) that motivates rack-aware repair.
//!
//! Not a paper figure; an extension experiment quantifying what the paper's
//! single-stripe numbers translate to when every affected stripe repairs
//! concurrently on shared links.

use std::num::NonZeroUsize;

use crate::util::{fmt_pct, fmt_s, print_table};
use rpr_codec::CodeParams;
use rpr_core::{CostModel, SuperviseConfig};
use rpr_faults::{CrashSite, StormFault};
use rpr_store::{Failure, RecoveryOptions, Scheme, Store, StoreConfig, SupervisedRecoveryOptions};
use rpr_topology::{BandwidthProfile, NodeId, RackId};

/// Node- and rack-failure recovery across schemes.
pub fn fleet(fast: bool) {
    let stripes = if fast { 24 } else { 96 };
    let store = Store::build(StoreConfig {
        params: CodeParams::new(6, 3),
        racks: 5,
        nodes_per_rack: 5,
        stripes,
        block_bytes: 64 << 20,
        preplace_p0: true,
        seed: 0xF1EE7,
    });
    let profile = BandwidthProfile::simics_default(store.topology().rack_count());
    let cost = CostModel::simics().scaled_for_block(store.config().block_bytes);
    let opts = RecoveryOptions::default();

    // --- Node failure -----------------------------------------------------
    // Fail the busiest node, as production incident reports do.
    let node = store
        .topology()
        .nodes()
        .max_by_key(|&n| store.blocks_on_node(n).len())
        .unwrap_or(NodeId(0));
    let affected = store.affected_stripes(Failure::Node(node)).len();
    let mut rows = Vec::new();
    let mut tra_makespan = f64::NAN;
    for scheme in [Scheme::Traditional, Scheme::Car, Scheme::Rpr] {
        let out = store.recover(Failure::Node(node), scheme, &profile, cost, &opts);
        if scheme == Scheme::Traditional {
            tra_makespan = out.makespan;
        }
        rows.push(vec![
            scheme.name().to_string(),
            fmt_s(out.makespan),
            fmt_s(out.mean_stripe_finish()),
            format!("{:.1}", out.cross_rack_bytes as f64 / (1 << 30) as f64),
            format!("{:.2}x", out.upload_imbalance),
            format!("{:.2}x", out.rack_upload_imbalance()),
            fmt_pct(1.0 - out.makespan / tra_makespan),
        ]);
    }
    print_table(
        &format!(
            "Fleet recovery — node failure: RS(6,3), {} stripes on {} racks x \
             {} nodes, {} stripes affected, 64 MiB blocks (Simics rates)",
            stripes,
            store.config().racks,
            store.config().nodes_per_rack,
            affected
        ),
        &[
            "scheme",
            "makespan (s)",
            "mean stripe (s)",
            "cross GiB",
            "node imbalance",
            "rack imbalance",
            "vs tra",
        ],
        &rows,
    );

    // --- Rack failure ------------------------------------------------------
    let rack = RackId(0);
    let affected = store.affected_stripes(Failure::Rack(rack)).len();
    let mut rows = Vec::new();
    let mut tra_makespan = f64::NAN;
    for scheme in [Scheme::Traditional, Scheme::Rpr] {
        let out = store.recover(Failure::Rack(rack), scheme, &profile, cost, &opts);
        if scheme == Scheme::Traditional {
            tra_makespan = out.makespan;
        }
        rows.push(vec![
            scheme.name().to_string(),
            fmt_s(out.makespan),
            fmt_s(out.mean_stripe_finish()),
            format!("{:.1}", out.cross_rack_bytes as f64 / (1 << 30) as f64),
            format!("{:.2}x", out.upload_imbalance),
            fmt_pct(1.0 - out.makespan / tra_makespan),
        ]);
    }
    print_table(
        &format!(
            "Fleet recovery — rack failure: same store, {} stripes affected \
             (multi-block repairs, rebuilt in surviving racks)",
            affected
        ),
        &[
            "scheme",
            "makespan (s)",
            "mean stripe (s)",
            "cross GiB",
            "node imbalance",
            "vs tra",
        ],
        &rows,
    );
    println!(
        "\n> Extension experiment (not a paper figure): single-stripe gains \
         compound at fleet scale\n> because partial decoding also removes the \
         recovery-node bottleneck that serializes stripes."
    );

    // --- Supervised recovery under fault storms ----------------------------
    // Route the same node failure through the repair supervisor: every
    // stripe repairs under a seeded storm while a fleet-shared health
    // tracker steers later stripes away from helpers that already failed.
    let mut rows = Vec::new();
    for (label, storm) in [
        ("clean", vec![]),
        (
            "crash/stripe",
            vec![vec![StormFault::Crash(CrashSite::SeedPick)]],
        ),
        (
            "crash+replacement",
            vec![
                vec![StormFault::Crash(CrashSite::SeedPick)],
                vec![StormFault::Crash(CrashSite::NewHelper)],
            ],
        ),
    ] {
        for max_concurrent in [None, NonZeroUsize::new(8)] {
            let opts = SupervisedRecoveryOptions {
                max_concurrent,
                storm: storm.clone(),
                seed: 0xF1EE7,
                cfg: SuperviseConfig::default(),
            };
            let out = store.recover_supervised(Failure::Node(node), &profile, cost, &opts);
            rows.push(vec![
                label.to_string(),
                max_concurrent.map_or("all".into(), |c| c.to_string()),
                format!("{}/{}", out.completed, out.stripes_affected),
                fmt_s(out.makespan),
                fmt_s(out.mttr),
                fmt_s(out.p99_stripe_seconds),
                out.tally.replans.to_string(),
                out.tally.degraded.to_string(),
                out.quarantined_nodes.len().to_string(),
            ]);
        }
    }
    print_table(
        &format!(
            "Fleet recovery — supervised (RPR tier ladder), node failure, \
             {} stripes affected, fleet-shared health tracker",
            store.affected_stripes(Failure::Node(node)).len()
        ),
        &[
            "storm",
            "admission",
            "completed",
            "makespan (s)",
            "MTTR (s)",
            "p99 stripe (s)",
            "replans",
            "degraded",
            "quarantined",
        ],
        &rows,
    );
    println!(
        "\n> Supervised makespans are comparable within this table only: \
         admission waves serialize,\n> but link contention inside a wave is \
         not modeled on the supervised path."
    );
}
