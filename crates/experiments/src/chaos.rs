//! Supervised repair under fault storms: MTTR and completion rate.
//!
//! For every single-failure configuration of the paper, drive the RPR
//! repair through the supervisor (`rpr_core::supervise_injected`) under a
//! battery of seeded chaos storms (`rpr_faults::ChaosProcess`) plus the
//! acceptance storm — helper crash, crash of its replacement, then a
//! transient timeout. Fixed base seed, so the whole table is
//! bit-deterministic across reruns (`docs/ROBUSTNESS.md`).

use crate::util::{self, Fixture, PAPER_CODES};
use rpr_codec::BlockId;
use rpr_core::{supervise_injected, SuperviseConfig, Tier};
use rpr_faults::{ChaosProcess, CrashSite, FaultStorm, HealthTracker, StormFault};

/// Base seed for every storm in the table.
const SEED: u64 = 17;

pub fn chaos(fast: bool) {
    let block: u64 = 256 << 20;
    let storms_per_code = if fast { 8 } else { 24 };
    let cfg = SuperviseConfig {
        hedge: Some(3.0),
        ..SuperviseConfig::default()
    };

    let mut rows = Vec::new();
    for (n, k) in PAPER_CODES {
        let fx = Fixture::simics(n, k, block);

        // The acceptance storm first, then seeded chaos processes.
        let mut storms: Vec<FaultStorm> = vec![FaultStorm::new(SEED)
            .with_generation(vec![StormFault::Crash(CrashSite::SeedPick)])
            .with_generation(vec![StormFault::Crash(CrashSite::NewHelper)])
            .with_generation(vec![StormFault::Timeout])];
        for s in 0..storms_per_code as u64 - 1 {
            storms.push(ChaosProcess::new(SEED ^ (s + 1)).storm());
        }

        let mut clean = f64::NAN;
        let mut times = Vec::new();
        let (mut replans, mut hedge_wins, mut degraded) = (0usize, 0usize, 0usize);
        for storm in &storms {
            let ctx = fx.ctx(vec![BlockId(1)]);
            let mut tracker = HealthTracker::with_defaults();
            let Ok(out) = supervise_injected(&ctx, storm, &cfg, &mut tracker, rpr_obs::noop())
            else {
                // Storms may legitimately exceed the retry budget or k
                // total failures; those count against the completion rate.
                continue;
            };
            clean = out.clean_time;
            times.push(out.repair_time);
            replans += out.replans;
            hedge_wins += out.hedge_wins;
            if out.final_tier > Tier::Full {
                degraded += 1;
            }
        }

        let mttr = times.iter().sum::<f64>() / times.len().max(1) as f64;
        times.sort_by(f64::total_cmp);
        rows.push(vec![
            format!("({n},{k})"),
            storms.len().to_string(),
            util::fmt_pct(times.len() as f64 / storms.len() as f64),
            util::fmt_s(clean),
            util::fmt_s(mttr),
            util::fmt_s(rpr_sched::quantile(&times, 0.99)),
            util::fmt_pct(mttr / clean - 1.0),
            replans.to_string(),
            hedge_wins.to_string(),
            degraded.to_string(),
        ]);
    }
    util::print_table(
        &format!(
            "Supervised repair under chaos storms (RPR, single failure, sim, \
             seed {SEED}, {storms_per_code} storms/code, hedge 3.0x)"
        ),
        &[
            "code",
            "storms",
            "completed",
            "clean (s)",
            "MTTR (s)",
            "p99 (s)",
            "overhead",
            "replans",
            "hedges won",
            "degraded",
        ],
        &rows,
    );
    println!(
        "\n> Every storm resolves its fault sites against the live plan \
         generation by generation;\n> incomplete rows hit the retry budget or \
         lost more than k blocks — never a hang."
    );
}
