//! Structured repair traces (`rpr-obs`) for the paper's single-failure
//! configurations: one simulated RPR repair per code, with the pipeline's
//! cross-rack timestep count checked against the paper's `⌈log2(s+1)⌉`
//! bound (§3.2). With `--out DIR`, the Chrome `trace_event` JSON for each
//! repair is written to `DIR/trace_rpr_<n>_<k>.json` — load it in
//! `chrome://tracing` or Perfetto. Schema: `docs/TRACING.md`.

use crate::util::{self, Fixture, PAPER_CODES};
use rpr_codec::BlockId;
use rpr_core::{simulate_traced, RepairPlanner, RprPlanner};

pub fn traces(fast: bool) {
    let block: u64 = if fast { 4 << 20 } else { 256 << 20 };
    let mut rows = Vec::new();
    for (n, k) in PAPER_CODES {
        let fx = Fixture::simics(n, k, block);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&fx.codec, &fx.topo, &fx.placement)
            .expect("generated plans must validate");

        let rec = rpr_obs::TraceRecorder::default();
        let out = simulate_traced(&plan, &ctx, &rec);
        let events = rec.take_events();

        let stats = plan.stats(&fx.topo);
        let (_, timesteps) = plan.cross_waves(&fx.topo);
        let expected = ceil_log2(stats.cross_transfers + 1);

        let mut file = String::from("—");
        if let Some(dir) = util::output_dir() {
            let path = dir.join(format!("trace_rpr_{n}_{k}.json"));
            std::fs::write(&path, rpr_obs::export::to_chrome_trace(&events))
                .expect("write trace JSON");
            file = path.display().to_string();
        }
        rows.push(vec![
            format!("({n},{k})"),
            stats.cross_transfers.to_string(),
            expected.to_string(),
            timesteps.to_string(),
            util::fmt_s(out.repair_time),
            format!(
                "{} ({} dropped)",
                events.len() as u64 + rec.dropped(),
                rec.dropped()
            ),
            file,
        ]);
        assert_eq!(
            timesteps, expected,
            "({n},{k}): pipeline must hit the ⌈log2(s+1)⌉ timestep bound"
        );
    }
    util::print_table(
        "Repair traces: cross-rack pipeline timesteps (single failure, RPR)",
        &[
            "code",
            "cross sends s",
            "⌈log2(s+1)⌉",
            "timesteps",
            "sim time (s)",
            "events",
            "trace file",
        ],
        &rows,
    );
}

fn ceil_log2(x: usize) -> usize {
    (usize::BITS - (x.max(1) - 1).leading_zeros()) as usize
}
