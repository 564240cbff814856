//! Degraded-mode repair: how much does an injected fault cost RPR?
//!
//! For every single-failure configuration of the paper, run the supervised
//! repair on the flow simulator under a one-fault storm of each family
//! (fixed seed, so the whole table is deterministic) and compare against
//! the fault-free repair time. Crash rows exercise the full recovery path:
//! replanning around the dead helper with partial-result reuse
//! (`docs/ROBUSTNESS.md`).

use crate::util::{self, Fixture, PAPER_CODES};
use rpr_codec::BlockId;
use rpr_core::{supervise_injected, SuperviseConfig};
use rpr_faults::{CrashSite, FaultStorm, HealthTracker, StormFault};

/// Seed for every fault table row — fixed so reruns are bit-identical.
const SEED: u64 = 17;

pub fn faults() {
    let block: u64 = 256 << 20;
    let cfg = SuperviseConfig::default();
    let cases = [
        StormFault::Crash(CrashSite::SeedPick),
        StormFault::Timeout,
        StormFault::Corrupt,
        StormFault::RackOutage,
    ];
    let mut rows = Vec::new();
    for (n, k) in PAPER_CODES {
        let fx = Fixture::simics(n, k, block);
        let ctx = fx.ctx(vec![BlockId(1)]);
        for fault in cases {
            let storm = FaultStorm::new(SEED).with_generation(vec![fault]);
            let mut tracker = HealthTracker::with_defaults();
            let out = supervise_injected(&ctx, &storm, &cfg, &mut tracker, rpr_obs::noop())
                .expect("a one-fault storm must complete");
            rows.push(vec![
                format!("({n},{k})"),
                out.fault_sites.join("; "),
                util::fmt_s(out.clean_time),
                util::fmt_s(out.repair_time),
                util::fmt_pct(out.repair_time / out.clean_time - 1.0),
                out.retries.to_string(),
                out.replans.to_string(),
                out.reused_ops.to_string(),
                out.final_scheme,
            ]);
        }
    }
    util::print_table(
        "Degraded repair under one injected fault (RPR, single failure, sim, seed 17)",
        &[
            "code",
            "fault site",
            "clean (s)",
            "degraded (s)",
            "overhead",
            "retries",
            "replans",
            "reused ops",
            "finished as",
        ],
        &rows,
    );
}
