//! The proof plane against a Byzantine helper: detection, conviction,
//! and the cost of integrity.
//!
//! For every single-failure configuration of the paper, inject a seeded
//! `StormFault::Lie` — wrong bytes under a valid transport checksum — and run
//! the supervised repair at each proof mode. Off misses the lie
//! entirely; Advisory records the rejected proofs without touching
//! control flow; Mandatory convicts the liar, replans around it, and the
//! offline auditor (`ProofLedger::audit`) localizes the same dishonest
//! hop from the sealed ledger alone (`docs/ROBUSTNESS.md`).

use crate::util::{self, Fixture, PAPER_CODES};
use rpr_codec::BlockId;
use rpr_core::{supervise_injected, SuperviseConfig, SuperviseOutcome};
use rpr_faults::{FaultStorm, HealthTracker, StormFault};
use rpr_proof::ProofMode;

/// Seed for every lie storm in the table.
const SEED: u64 = 21;

pub fn byzantine() {
    let block: u64 = 256 << 20;

    let mut rows = Vec::new();
    for (n, k) in PAPER_CODES {
        let fx = Fixture::simics(n, k, block);
        let storm = FaultStorm::new(SEED).with_generation(vec![StormFault::Lie]);

        let run = |mode: ProofMode| -> SuperviseOutcome {
            let ctx = fx.ctx(vec![BlockId(1)]);
            let cfg = SuperviseConfig {
                proof: mode,
                ..SuperviseConfig::default()
            };
            let mut tracker = HealthTracker::with_defaults();
            supervise_injected(&ctx, &storm, &cfg, &mut tracker, rpr_obs::noop())
                .expect("a lone lie never exceeds the replan budget")
        };

        let off = run(ProofMode::Off);
        let adv = run(ProofMode::Advisory);
        let man = run(ProofMode::Mandatory);

        // Advisory must be a pure observer of the Off timeline.
        assert_eq!(adv.repair_time, off.repair_time);
        assert_eq!(adv.replans, off.replans);

        let audit = man.ledger.audit();
        let verdict = match audit.first_dishonest() {
            Some(i) => {
                let e = &man.ledger.entries[i];
                format!("node {} (gen {} op {})", e.proof.node, e.gen, e.proof.op)
            }
            None => "none".to_string(),
        };
        rows.push(vec![
            format!("({n},{k})"),
            util::fmt_s(off.clean_time),
            "undetected".to_string(),
            format!("{} rejected", adv.proofs_rejected),
            format!("{}/{}", man.proofs_rejected, man.proofs_emitted),
            man.accusations.to_string(),
            util::fmt_s(man.repair_time),
            util::fmt_pct(man.repair_time / off.clean_time - 1.0),
            verdict,
        ]);
    }
    util::print_table(
        &format!("Byzantine helper vs the proof plane (RPR, single failure, sim, lie seed {SEED})"),
        &[
            "code",
            "clean (s)",
            "off",
            "advisory",
            "mandatory rej/emit",
            "accused",
            "repair (s)",
            "overhead",
            "audit localizes",
        ],
        &rows,
    );
    println!(
        "\n> Off completes on time with silently wrong bytes; Advisory sees the lie \
         without acting;\n> Mandatory pays one replan to finish verified, and the \
         offline audit convicts the same hop\n> from the ledger alone."
    );
}
