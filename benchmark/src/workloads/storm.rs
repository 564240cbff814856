//! `exec_shaped_storm`: the exec and supervisor layers of `exec_bulk` used
//! differently — Table-1 shapers instead of unshaped links, the
//! fault / replan / proof path instead of the clean path — and checked
//! against the simulator backend running the same storm.

use super::exec::ExecWorld;
use super::{Entry, Workload};
use crate::gen;
use crate::trace::Tracer;
use rpr_core::{
    crash_candidates, supervise_injected, RepairPlanner, RprPlanner, SuperviseConfig,
    SuperviseOutcome,
};
use rpr_exec::SupervisedReport;
use rpr_faults::{CrashSite, FaultStorm, HealthTracker, RetryPolicy, StormFault};
use rpr_proof::{ProofLedger, ProofMode};

pub const SHAPED_STORM: Entry = Entry {
    name: "exec_shaped_storm",
    why: "Table-1 shapers, mandatory proofs, crash + timeout + lie storms on both backends: a clean-path gain that costs fidelity or the failure path shows here",
    build: |seed, size, _| {
        let (block, chunk) = size.pick((2 << 20, 128 << 10), (1 << 20, 64 << 10));
        Box::new(ShapedStorm::new(seed, block, chunk))
    },
};

/// Below this share of the simulated time the repair finished faster than
/// the shaped links allow. A clean repair measures 0.83 here: each token
/// bucket starts with a burst allowance the simulator does not model.
const SHAPER_LEAK: f64 = 0.7;

const FAILED: [usize; 1] = [1];

struct ShapedStorm {
    world: ExecWorld,
    seed: u64,
    cfg: SuperviseConfig,
    /// Nodes whose crash ends generation 0: every crash candidate of the
    /// clean plan, one storm each. A seed-picked site would make an
    /// operation's cost depend on which wave the seed happens to hit
    /// (a wave-1 crash wastes 20 % more work than a wave-0 one).
    crash_nodes: Vec<usize>,
}

impl ShapedStorm {
    fn new(seed: u64, block: u64, chunk: u64) -> ShapedStorm {
        let world = ExecWorld::new(seed, block, Some(chunk), |racks| {
            rpr_exec::scaled_ec2_profile(racks, 1.0)
        });
        let ctx = world.ctx(&FAILED);
        let mut crash_nodes: Vec<usize> = crash_candidates(&RprPlanner::new().plan(&ctx), &ctx)
            .into_iter()
            .map(|(node, _wave)| node)
            .collect();
        crash_nodes.sort_unstable();
        crash_nodes.dedup();
        ShapedStorm {
            crash_nodes,
            world,
            seed,
            cfg: SuperviseConfig {
                policy: RetryPolicy {
                    backoff: 0.01,
                    multiplier: 2.0,
                    ..RetryPolicy::default()
                },
                proof: ProofMode::Mandatory,
                ..SuperviseConfig::default()
            },
        }
    }

    /// Run `storm` on the simulator, then on real bytes; both must tell
    /// the same story. Returns exec wall over simulated repair time.
    fn both_backends(&self, storm: &FaultStorm, tr: &mut Tracer) -> Result<f64, String> {
        let ctx = self.world.ctx(&FAILED);
        let sim = tr
            .span("core.supervise_injected", |_| {
                let mut tracker = HealthTracker::with_defaults();
                supervise_injected(&ctx, storm, &self.cfg, &mut tracker, rpr_obs::noop())
            })
            .map_err(|e| format!("supervise_injected: {e}"))?;
        let exec = self.world.repair(&FAILED, storm, &self.cfg, tr)?;
        agree(&sim, &exec)?;
        if !storm.is_empty() {
            if exec.replans != 2 || exec.accusations != 1 {
                return Err(format!(
                    "storm {}: {} replans, {} accusations (want 2, 1)",
                    storm.seed, exec.replans, exec.accusations
                ));
            }
            let convicted = tr.span("proof.audit", |_| dishonest_node(&exec.ledger));
            if convicted.is_none() || convicted != lie_site(&exec.fault_sites) {
                return Err(format!(
                    "storm {}: audit convicted {convicted:?}, sites {:?}",
                    storm.seed, exec.fault_sites
                ));
            }
        }
        Ok(exec.report.wall_seconds / sim.repair_time)
    }
}

/// The node the ledger's offline audit convicts, if any.
fn dishonest_node(ledger: &ProofLedger) -> Option<usize> {
    let audit = ledger.audit();
    audit
        .first_dishonest()
        .map(|i| ledger.entries[i].proof.node)
}

/// The node a resolved `lie op 10 (node 8)` fault site names.
fn lie_site(sites: &[String]) -> Option<usize> {
    let site = sites.iter().find(|s| s.starts_with("lie "))?;
    let (_, node) = site.split_once("(node ")?;
    node.trim_end_matches(')').parse().ok()
}

/// Both backends must report the same replans, retries and final tier,
/// resolve the same number of faults, and resolve generation 0's at the
/// same site. Later generations run replacement plans whose shape depends
/// on which partial results were banked when the crash landed — wall-clock
/// timing on the exec backend — so their op indices need not match.
fn agree(sim: &SuperviseOutcome, exec: &SupervisedReport) -> Result<(), String> {
    let same = sim.replans == exec.replans
        && sim.retries == exec.retries
        && sim.final_tier == exec.final_tier
        && sim.fault_sites.len() == exec.fault_sites.len()
        && sim.fault_sites.first() == exec.fault_sites.first();
    if same {
        Ok(())
    } else {
        Err(format!(
            "backends disagree: sim {}/{}/{:?}/{:?} vs exec {}/{}/{:?}/{:?}",
            sim.replans,
            sim.retries,
            sim.final_tier,
            sim.fault_sites,
            exec.replans,
            exec.retries,
            exec.final_tier,
            exec.fault_sites
        ))
    }
}

impl Workload for ShapedStorm {
    fn warmup_ops(&self) -> usize {
        0
    }

    /// One clean repair, then one storm per crash candidate: generation 0
    /// loses that helper, generation 1 meets a timeout and a lying helper.
    /// The op's own storm seed picks the timeout and lie sites.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let storm_seed = gen::derive(self.seed, 2, i as u64);
        let clean = self.both_backends(&FaultStorm::new(storm_seed), tr)?;
        tr.count("storm.clean_repairs", 1.0);
        tr.count("storm.clean_wall_over_model", clean);
        if clean < SHAPER_LEAK {
            return Err(format!(
                "shaper leak: clean wall/model {clean:.3} < {SHAPER_LEAK}"
            ));
        }
        for &node in &self.crash_nodes {
            let storm = FaultStorm::new(storm_seed)
                .with_generation(vec![StormFault::Crash(CrashSite::Node(node))])
                .with_generation(vec![StormFault::Timeout, StormFault::Lie]);
            let stormy = self.both_backends(&storm, tr)?;
            tr.count("storm.storm_repairs", 1.0);
            tr.count("storm.storm_wall_over_model", stormy);
        }
        Ok(())
    }

    fn invariants(&mut self) -> Vec<(bool, String)> {
        Vec::new()
    }
}
