//! Synthetic fleet construction and the end-to-end fleet run.
//!
//! A **fleet** is a large population of stripes spread over a rack
//! cluster, each stripe missing 1..=k blocks (its *at-risk level*). This
//! module generates such a population deterministically from a seed,
//! costs every stripe's supervised repair, and drains the backlog
//! through [`drain_fleet`] under bandwidth arbitration — optionally
//! co-simulated with a churn stream and journaled for crash restart
//! (see [`FleetIo`]).
//!
//! **Why a million stripes fit in one process.** Every stripe uses the
//! paper's compact placement pattern: `q = ⌈(n+k)/k⌉` racks, at most `k`
//! blocks per rack, same block→rack layout for all stripes — only the
//! *which racks / which hosts* assignment differs per stripe. Repair
//! cost and plan shape depend only on the failed-block set (the stripe's
//! **repair class**), not on which physical racks the stripe landed on.
//! So the fleet run simulates one supervised repair per distinct class
//! on a canonical `q`-rack cluster — a few dozen to a few hundred sims,
//! parallelized on the work-stealing pool — and every stripe stores just
//! its class id and its `n+k` host nodes (~40 bytes/stripe). Per-stripe
//! bandwidth demands are translated from canonical to physical node ids
//! lazily, only while a stripe is at the queue head, so the scheduler
//! never materializes a million demand vectors.
//!
//! Class caching is only valid when the repair outcome is
//! seed-independent: with an empty fault storm and hedging disabled,
//! `supervise_injected` is a pure function of the repair context. When a
//! storm template is configured (or hedging is on), the fleet falls back
//! to one full supervised sim per stripe under its [`stripe_storm`] —
//! still pooled, but sized for thousands of stripes rather than millions.

use std::cell::RefCell;
use std::collections::HashMap;

use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_core::{
    first_valid_plan, supervise_injected, CostModel, RepairContext, SuperviseConfig,
    SuperviseOutcome, Tier,
};
use rpr_faults::{ChurnProcess, FaultStorm, HealthTracker, SplitMix64, StormFault};
use rpr_netsim::Network;
use rpr_obs::Recorder;
use rpr_topology::{BandwidthProfile, NodeId, Placement, Topology, GBIT};

use crate::arbiter::{plan_demand, BandwidthArbiter, Demand, QosClass};
use crate::journal::{CostRec, FleetJournal, JournalReplay};
use crate::pool::{default_threads, run_indexed};
use crate::sched::{
    drain_fleet, ChurnOptions, DrainOptions, FleetJob, FleetSummary, JobCost, LostStripe,
    StripeRecord,
};

/// Salt mixed into the per-stripe escalation stream so escalated failed
/// blocks never replay the draws that chose the base failed set.
const ESCALATION_SALT: u64 = 0x9D39_247E_3377_6D41;

/// Salt deriving the fleet churn stream from the master seed.
const CHURN_SALT: u64 = 0x6368_7572_6E21_7273;

/// Everything that defines a synthetic fleet run. Construct with
/// [`FleetSpec::default`] and override fields.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// Code geometry of every stripe.
    pub params: CodeParams,
    /// Rack count of the physical cluster (must be ≥ the code's `q`).
    pub racks: usize,
    /// Nodes per rack (must be > `k` so every rack keeps a spare, and
    /// ≤ 64).
    pub nodes_per_rack: usize,
    /// Number of at-risk stripes in the backlog.
    pub stripes: usize,
    /// Bytes per block.
    pub block_bytes: u64,
    /// Master seed: placement, at-risk levels, and fault sites all
    /// derive from it. Same seed → bit-identical run.
    pub seed: u64,
    /// `level_weights[z-1]` is the relative frequency of stripes with
    /// `z` failed blocks; truncated at `k` and renormalized. The default
    /// skews heavily toward single failures, as real fleets do.
    pub level_weights: Vec<f64>,
    /// Fault-storm template applied to every stripe (empty = clean
    /// repairs, enabling class caching). Same shape as the Store's
    /// `SupervisedRecoveryOptions::storm` and `FleetRecoveryOptions::storm`;
    /// each stripe meets it through [`stripe_storm`].
    pub storm: Vec<Vec<StormFault>>,
    /// Supervisor configuration shared by every stripe.
    pub cfg: SuperviseConfig,
    /// Finite aggregation-switch capacity in bytes/sec shared by all
    /// concurrent cross-rack repair traffic (`None` = unconstrained).
    pub agg_capacity: Option<f64>,
    /// When false the arbiter admits everything immediately — used to
    /// prove arbitration only adds waiting.
    pub arbitrate: bool,
    /// QoS class repair admission runs under: with
    /// [`QosClass::ForegroundPriority`] the arbiter admits each stripe
    /// against only the residual (non-foreground) fraction of every
    /// link, so a drain sharing the cluster with client traffic queues
    /// earlier. See `docs/FOREGROUND.md`.
    pub qos: QosClass,
    /// Inner-rack link rate in bytes/sec.
    pub inner_bps: f64,
    /// Cross-rack link rate in bytes/sec.
    pub cross_bps: f64,
    /// Decode-cost model for planning and simulation.
    pub cost: CostModel,
    /// Worker threads for class sims and storm-path repairs
    /// (0 = automatic).
    pub threads: usize,
    /// Mean churn events per fleet-clock second co-simulated with the
    /// drain (0 = the world stops failing once the drain starts, the
    /// pre-churn behavior). Each event hits one or more live stripes
    /// with another block failure; a stripe pushed past `k` failures is
    /// permanently lost.
    pub churn_rate: f64,
    /// Escalation policy under churn: `true` re-prioritizes victims at
    /// their new at-risk level (in-flight victims hand the failure to
    /// their running supervisor); `false` keeps the enqueue-time order,
    /// the baseline the `churn` experiments table contrasts against.
    pub escalate: bool,
}

impl Default for FleetSpec {
    fn default() -> FleetSpec {
        FleetSpec {
            params: CodeParams::new(6, 3),
            racks: 25,
            nodes_per_rack: 16,
            stripes: 10_000,
            block_bytes: 256 << 20,
            seed: 17,
            level_weights: vec![0.85, 0.12, 0.03],
            storm: Vec::new(),
            cfg: SuperviseConfig::default(),
            agg_capacity: None,
            arbitrate: true,
            qos: QosClass::Unthrottled,
            inner_bps: GBIT,
            cross_bps: GBIT / 10.0,
            cost: CostModel::free(),
            threads: 0,
            churn_rate: 0.0,
            escalate: true,
        }
    }
}

impl FleetSpec {
    /// Panics with a descriptive message if the spec is internally
    /// inconsistent (too few racks for the code, no spare nodes, ...).
    pub fn validate(&self) {
        let q = self.params.rack_count();
        assert!(self.racks >= q, "FleetSpec: need at least {q} racks");
        assert!(
            self.nodes_per_rack > self.params.k,
            "FleetSpec: each rack needs a spare node beyond its {} blocks",
            self.params.k
        );
        assert!(
            self.nodes_per_rack <= 64,
            "FleetSpec: nodes_per_rack is limited to 64"
        );
        assert!(self.stripes > 0, "FleetSpec: empty fleet");
        assert!(self.block_bytes > 0, "FleetSpec: zero block size");
        assert!(
            !self.level_weights.is_empty() && self.level_weights.iter().any(|&w| w > 0.0),
            "FleetSpec: level weights must have positive mass"
        );
        assert!(
            self.churn_rate >= 0.0 && self.churn_rate.is_finite(),
            "FleetSpec: churn_rate must be finite and non-negative"
        );
    }

    /// True when every stripe's repair outcome is seed-independent, so
    /// stripes sharing a failed-block set share one canonical sim.
    fn cacheable(&self) -> bool {
        self.storm.is_empty() && self.cfg.hedge.is_none()
    }
}

/// External plumbing for a fleet run: the write-ahead journal the drain
/// appends to, and a parsed prior journal whose cost records short-cut
/// re-simulation on resume. `FleetIo::default()` runs unplumbed.
/// [`run_fleet_with`] (`rpr fleet --journal / --resume`) is the only
/// crash-restartable fleet path; the Store's recovery entry points do not
/// journal.
///
/// Resume works by deterministic re-derivation: the virtual-clock drain
/// is pure arithmetic, so replaying the same spec reconstructs the index
/// and arbiter state exactly. What the journal buys is skipping the
/// expensive part — the per-stripe supervised simulations of the storm
/// path — via `cost` records keyed `(stripe, level)` (the class-cached
/// clean path runs a few dozen shared sims and doesn't need skipping).
#[derive(Default)]
pub struct FleetIo<'a> {
    /// Append every scheduling decision and per-stripe cost here.
    pub journal: Option<&'a RefCell<FleetJournal>>,
    /// Replay cost records from this parsed journal (its header must
    /// match the spec's seed and stripe count).
    pub resume: Option<&'a JournalReplay>,
}

/// Result of a fleet run.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// Aggregate fleet numbers (what `rpr fleet --json` prints).
    pub summary: FleetSummary,
    /// Per-stripe admission/finish records for **repaired** stripes, in
    /// stripe order (every stripe, absent churn losses).
    pub records: Vec<StripeRecord>,
    /// Permanent-loss ledger: stripes churn pushed past the code's
    /// repair capability mid-drain, in loss order.
    pub lost: Vec<LostStripe>,
    /// Distinct repair classes the fleet decomposed into (1 sim each on
    /// the cached path).
    pub classes: usize,
    /// Fleet-wide sums of the per-stripe supervision counters.
    pub tally: RepairTally,
    /// Stripes whose storm was unrecoverable (excluded from the
    /// backlog; 0 on the cached path).
    pub unrepairable: usize,
    /// Peak reservation on the most loaded arbitrated link, as a
    /// fraction of its capacity (≤ 1 unless arbitration was disabled).
    pub max_utilization: f64,
    /// Per-stripe simulations skipped because a resume journal already
    /// held their cost records (0 without [`FleetIo::resume`]).
    pub replayed: usize,
}

/// Where a canonical node sits in the per-stripe translation: hosting
/// block `b`, or the `rank`-th spare of canonical rack `rack_pos`.
#[derive(Clone, Copy)]
enum Role {
    Host(usize),
    Free { rack_pos: usize, rank: usize },
}

/// The fault storm one stripe of a fleet repairs under: `template`'s
/// buckets, one per generation, under a seed mixed from the fleet seed and
/// the stripe id. Every fleet path ([`run_fleet_with`],
/// `Store::recover_supervised`, `Store::recover_fleet`) derives it here,
/// so the same stripe meets the same faults whichever path repairs it.
pub fn stripe_storm(seed: u64, stripe: u64, template: &[Vec<StormFault>]) -> FaultStorm {
    FaultStorm {
        seed: SplitMix64::new(seed ^ stripe).next_u64(),
        generations: template.to_vec(),
    }
}

/// One stripe's supervised repair, costed for the fleet: run the
/// supervisor on `ctx` under `storm`, reading and updating `tracker`, and
/// fold the outcome into the journal's [`CostRec`]. `None` when the storm
/// leaves the stripe unrepairable. The outcome rides along for the proof
/// counters and ledger. Every fleet path costs its stripes here.
pub fn cost_repair(
    ctx: &RepairContext<'_>,
    storm: &FaultStorm,
    cfg: &SuperviseConfig,
    tracker: &mut HealthTracker,
) -> Option<(CostRec, SuperviseOutcome)> {
    let out = supervise_injected(ctx, storm, cfg, tracker, rpr_obs::noop()).ok()?;
    let cost = CostRec {
        dur: out.repair_time,
        cross: out.cross_bytes,
        inner: out.inner_bytes,
        replans: out.replans,
        retries: out.retries,
        degraded: out.final_tier > Tier::Full,
    };
    Some((cost, out))
}

/// What the arbiter reserves for `ctx`'s stripe: the peak per-link rates
/// of its first valid plan on `net`.
pub fn stripe_demand(ctx: &RepairContext<'_>, net: &Network) -> Demand {
    let plan = first_valid_plan(ctx).expect("a valid plan exists for <=k failures");
    plan_demand(&plan, ctx.topo, net)
}

/// Fleet-wide sums of the per-stripe supervision counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairTally {
    /// Replan generations.
    pub replans: usize,
    /// Transfer retries.
    pub retries: usize,
    /// Stripes that finished below [`Tier::Full`].
    pub degraded: usize,
    /// Hedges launched.
    pub hedges: usize,
    /// Hedges whose speculative alternative won.
    pub hedge_wins: usize,
    /// Repair proofs recorded (zero with the proof plane off).
    pub proofs_emitted: usize,
    /// Proofs whose output hash disagreed with the expectation.
    pub proofs_rejected: usize,
    /// Helpers quarantined on proof evidence (Mandatory mode only).
    pub accusations: usize,
}

impl RepairTally {
    /// Count one costed stripe. `out` is its supervised outcome when this
    /// run simulated it, and `None` when its cost was replayed from a
    /// journal or shared with its repair class: those carry only the
    /// [`CostRec`] counters.
    pub fn add(&mut self, cost: &CostRec, out: Option<&SuperviseOutcome>) {
        self.replans += cost.replans;
        self.retries += cost.retries;
        self.degraded += usize::from(cost.degraded);
        if let Some(out) = out {
            self.hedges += out.hedges;
            self.hedge_wins += out.hedge_wins;
            self.proofs_emitted += out.proofs_emitted;
            self.proofs_rejected += out.proofs_rejected;
            self.accusations += out.accusations;
        }
    }
}

/// Draw an at-risk level from the spec's weight table (1-based,
/// truncated at `k`).
fn draw_level(rng: &mut SplitMix64, weights: &[f64], k: usize) -> usize {
    let weights = &weights[..weights.len().min(k)];
    let total: f64 = weights.iter().filter(|w| w.is_sign_positive()).sum();
    let mut u = rng.next_f64() * total;
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        u -= w;
        if u <= 0.0 {
            return i + 1;
        }
    }
    1
}

/// One stripe of the synthetic fleet: its repair class and where its
/// blocks physically live.
struct StripeGen {
    class: u32,
    /// Global node id of each block, indexed by block id.
    hosts: Box<[u32]>,
}

/// Run a synthetic fleet: generate the stripe population, cost every
/// repair class (or every stripe, under a storm), then drain the
/// backlog through the bandwidth arbiter — under churn and journaling
/// when the spec and [`FleetIo`] ask for them. Deterministic for a
/// fixed spec; `rec` receives the `stripe_enqueued` / `stripe_admitted`
/// / `bandwidth_waited` / churn event stream.
///
/// # Panics
/// Panics if the spec fails [`FleetSpec::validate`], or a resume
/// journal's header does not match the spec.
pub fn run_synthetic_fleet(spec: &FleetSpec, rec: &dyn Recorder) -> FleetOutcome {
    run_fleet_with(spec, FleetIo::default(), rec)
}

/// [`run_synthetic_fleet`] with journal/resume plumbing. See [`FleetIo`]
/// for the resume model.
///
/// # Panics
/// Panics if the spec fails [`FleetSpec::validate`], or a resume
/// journal's header does not match the spec.
pub fn run_fleet_with(spec: &FleetSpec, io: FleetIo<'_>, rec: &dyn Recorder) -> FleetOutcome {
    spec.validate();
    if let Some(r) = io.resume {
        assert_eq!(
            r.seed, spec.seed,
            "fleet resume: journal was written by seed {} but the spec says {}",
            r.seed, spec.seed
        );
        assert_eq!(
            r.stripes, spec.stripes,
            "fleet resume: journal covers {} stripes but the spec says {}",
            r.stripes, spec.stripes
        );
    }
    let params = spec.params;
    let q = params.rack_count();
    let npr = spec.nodes_per_rack;
    let total = params.total();
    let threads = if spec.threads == 0 {
        default_threads()
    } else {
        spec.threads
    };

    // Canonical q-rack world every class sim runs on. Same nodes-per-rack
    // as the physical cluster, so the canonical↔physical node translation
    // is a bijection per stripe.
    let codec = StripeCodec::new(params);
    let canon_topo = Topology::uniform(q, npr);
    let canon_placement = Placement::rpr_preplaced(params, &canon_topo);
    let canon_profile = BandwidthProfile::uniform(q, spec.inner_bps, spec.cross_bps);
    let canon_net = Network::new(canon_topo.clone(), canon_profile.clone());
    let canon_nodes = canon_topo.node_count();

    // Role of every canonical node, and each canonical rack's first
    // block (used to recover the stripe's physical rack from its hosts).
    let mut roles: Vec<Role> = Vec::with_capacity(canon_nodes);
    let mut free_rank = vec![0usize; q];
    for c in 0..canon_nodes {
        let rack_pos = c / npr;
        match canon_placement.block_on(NodeId(c)) {
            Some(b) => roles.push(Role::Host(b.0)),
            None => {
                roles.push(Role::Free {
                    rack_pos,
                    rank: free_rank[rack_pos],
                });
                free_rank[rack_pos] += 1;
            }
        }
    }
    let first_block_in_rack: Vec<usize> = (0..q)
        .map(|p| {
            (0..total)
                .find(|&b| canon_placement.node_of(BlockId(b)).0 / npr == p)
                .expect("compact placement hosts a block in every rack")
        })
        .collect();

    // ---- Stripe population -------------------------------------------
    // Per-stripe generation is serial (it interns class keys), but cheap:
    // a handful of rng draws and one map probe per stripe.
    let mut class_keys: std::collections::HashMap<Vec<usize>, u32> =
        std::collections::HashMap::new();
    let mut class_failed: Vec<Vec<usize>> = Vec::new();
    let mut stripes: Vec<StripeGen> = Vec::with_capacity(spec.stripes);
    for s in 0..spec.stripes {
        let mut rng = SplitMix64::new(
            (spec.seed ^ (s as u64))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0x5851_F42D_4C95_7F2D),
        );
        let z = draw_level(&mut rng, &spec.level_weights, params.k);
        let mut failed: Vec<usize> = Vec::with_capacity(z);
        while failed.len() < z {
            let b = rng.pick(total);
            if !failed.contains(&b) {
                failed.push(b);
            }
        }
        failed.sort_unstable();
        let next_id = class_failed.len() as u32;
        let class = *class_keys.entry(failed.clone()).or_insert_with(|| {
            class_failed.push(failed.clone());
            next_id
        });

        // Physical placement: q distinct racks, then a distinct slot per
        // block within its rack.
        let mut racks: Vec<usize> = Vec::with_capacity(q);
        while racks.len() < q {
            let r = rng.pick(spec.racks);
            if !racks.contains(&r) {
                racks.push(r);
            }
        }
        let mut hosts = vec![0u32; total].into_boxed_slice();
        let mut used_slots = vec![0u64; q];
        for b in 0..total {
            let c = canon_placement.node_of(BlockId(b)).0;
            let rack_pos = c / npr;
            loop {
                let slot = rng.pick(npr);
                if used_slots[rack_pos] & (1 << slot) == 0 {
                    used_slots[rack_pos] |= 1 << slot;
                    hosts[b] = (racks[rack_pos] * npr + slot) as u32;
                    break;
                }
            }
        }
        stripes.push(StripeGen { class, hosts });
    }

    // ---- Repair costing ----------------------------------------------
    let cost = spec.cost;
    let make_ctx = |failed: &[usize]| {
        RepairContext::new(
            &codec,
            &canon_topo,
            &canon_placement,
            failed.iter().map(|&b| BlockId(b)).collect(),
            spec.block_bytes,
            &canon_profile,
            cost,
        )
    };

    // One clean supervised sim of a canonical failed-block set, with the
    // demand of its plan.
    let clean = |failed: &[usize], cfg: &SuperviseConfig| -> (CostRec, Demand) {
        let ctx = make_ctx(failed);
        let mut tracker = HealthTracker::with_defaults();
        let (c, _) = cost_repair(&ctx, &FaultStorm::new(0), cfg, &mut tracker)
            .expect("clean supervised repair cannot fail");
        (c, stripe_demand(&ctx, &canon_net))
    };

    let mut tally = RepairTally::default();
    let mut unrepairable = 0usize;
    let mut replayed = 0usize;

    // jobs[i] schedules stripes[kept[i]]; its base cost and demand come
    // from `priced` (cached path: shared per class; storm path: per job).
    let mut jobs: Vec<FleetJob> = Vec::with_capacity(spec.stripes);
    let mut kept: Vec<u32> = Vec::with_capacity(spec.stripes);

    let priced: Vec<(CostRec, Demand)> = if spec.cacheable() {
        // One canonical sim per distinct failed-block set.
        let classes: Vec<(CostRec, Demand)> = run_indexed(threads, class_failed.len(), |ci| {
            clean(&class_failed[ci], &spec.cfg)
        });
        for (s, gen) in stripes.iter().enumerate() {
            let (c, _) = &classes[gen.class as usize];
            tally.add(c, None);
            jobs.push(FleetJob::costed(
                s as u32,
                class_failed[gen.class as usize].len(),
                c,
            ));
            kept.push(s as u32);
        }
        classes
    } else {
        // Storm path: every stripe runs its own supervised sim under its
        // `stripe_storm` — unless a resume journal already holds the
        // stripe's cost record, in which case the sim (the expensive part
        // of a restarted drain) is skipped and only the cheap plan-shaped
        // demand is rebuilt.
        let resume = io.resume;
        let outcomes: Vec<Option<(CostRec, Demand, bool)>> =
            run_indexed(threads, spec.stripes, |s| {
                let base = &class_failed[stripes[s].class as usize];
                let replay = match resume {
                    Some(r) if r.unrepairable.contains(&(s as u32)) => return None,
                    Some(r) => r.cost(s as u32, base.len()),
                    None => None,
                };
                let ctx = make_ctx(base);
                let (c, was_replay) = match replay {
                    Some(c) => (c, true),
                    None => {
                        let storm = stripe_storm(spec.seed, s as u64, &spec.storm);
                        let mut tracker = HealthTracker::with_defaults();
                        (cost_repair(&ctx, &storm, &spec.cfg, &mut tracker)?.0, false)
                    }
                };
                Some((c, stripe_demand(&ctx, &canon_net), was_replay))
            });
        let mut demands = Vec::new();
        for (s, outcome) in outcomes.into_iter().enumerate() {
            let Some((c, demand, was_replay)) = outcome else {
                unrepairable += 1;
                if let Some(j) = io.journal {
                    j.borrow_mut().unrepairable(s as u32);
                }
                continue;
            };
            replayed += usize::from(was_replay);
            tally.add(&c, None);
            let level = class_failed[stripes[s].class as usize].len();
            if let Some(j) = io.journal {
                // Cost records land (and the flush below makes them durable)
                // before the drain starts: a later crash leaves them replayable.
                j.borrow_mut().cost(s as u32, level, &c);
            }
            jobs.push(FleetJob::costed(s as u32, level, &c));
            kept.push(s as u32);
            demands.push((c, demand));
        }
        demands
    };
    if let Some(j) = io.journal {
        j.borrow_mut().flush();
    }

    // ---- Admission ----------------------------------------------------
    let phys_topo = Topology::uniform(spec.racks, npr);
    let phys_profile = BandwidthProfile::uniform(spec.racks, spec.inner_bps, spec.cross_bps);
    let mut phys_net = Network::new(phys_topo, phys_profile);
    if let Some(cap) = spec.agg_capacity {
        phys_net = phys_net.with_agg_capacity(cap);
    }
    let phys_nodes = phys_net.topology().node_count();
    let mut arbiter = BandwidthArbiter::new(&phys_net);
    arbiter.set_enabled(spec.arbitrate);
    arbiter.set_qos(spec.qos);

    let cacheable = spec.cacheable();
    // Escalated-class memo: churn can push a stripe into a failed-block
    // set no base stripe has, so those classes are costed lazily, the
    // first time the drain asks for them. The sim is the *clean*
    // canonical one even on the storm path (hedging off): the storm
    // already priced the stripe's own turbulence into its base cost, and
    // a seed-independent sim keeps `cost_of(stripe, level)` a pure
    // function — the property journal resume relies on.
    let esc_classes: RefCell<HashMap<Vec<usize>, (CostRec, Demand)>> = RefCell::new(HashMap::new());
    let mut esc_cfg = spec.cfg.clone();
    esc_cfg.hedge = None;
    let escalated = |s: usize, lvl: usize| -> (CostRec, Demand) {
        let base = &class_failed[stripes[s].class as usize];
        let failed = escalated_failed(base, total, spec.seed ^ (s as u64) ^ ESCALATION_SALT, lvl);
        // On the cached path a base class ran this very (hedge-free) sim.
        if let Some(&ci) = class_keys.get(&failed).filter(|_| cacheable) {
            return priced[ci as usize].clone();
        }
        if let Some(costed) = esc_classes.borrow().get(&failed) {
            return costed.clone();
        }
        let costed = clean(&failed, &esc_cfg);
        esc_classes.borrow_mut().insert(failed, costed.clone());
        costed
    };
    let mut cost_of = |job: usize, lvl: usize| -> JobCost {
        let gen = &stripes[kept[job] as usize];
        let translate = |canon: &Demand| -> Demand {
            if !spec.arbitrate {
                return Demand::default();
            }
            translate_demand(
                canon,
                canon_nodes,
                phys_nodes,
                npr,
                &roles,
                &first_block_in_rack,
                &gen.hosts,
            )
        };
        if lvl == jobs[job].level {
            let canon = if cacheable {
                &priced[gen.class as usize].1
            } else {
                &priced[job].1
            };
            JobCost {
                duration: jobs[job].duration,
                cross_bytes: jobs[job].cross_bytes,
                inner_bytes: jobs[job].inner_bytes,
                demand: translate(canon),
            }
        } else {
            let (c, demand) = escalated(kept[job] as usize, lvl);
            JobCost {
                duration: c.dur,
                cross_bytes: c.cross,
                inner_bytes: c.inner,
                demand: translate(&demand),
            }
        }
    };
    let opts = DrainOptions {
        churn: (spec.churn_rate > 0.0).then(|| ChurnOptions {
            process: ChurnProcess::new(spec.seed ^ CHURN_SALT, spec.churn_rate),
            max_level: params.k,
            escalate: spec.escalate,
        }),
        journal: io.journal,
    };
    let outcome = drain_fleet(&jobs, &mut cost_of, &mut arbiter, opts, rec);
    let esc = esc_classes.borrow();

    FleetOutcome {
        summary: outcome.summary,
        records: outcome.records,
        lost: outcome.lost,
        classes: class_failed.len() + esc.keys().filter(|f| !class_keys.contains_key(*f)).count(),
        tally,
        unrepairable,
        max_utilization: arbiter.max_utilization(),
        replayed,
    }
}

/// Pure derivation of a stripe's failed-block set at an escalated
/// at-risk level: the base class's blocks plus distinct extra blocks
/// drawn from the stripe's own escalation stream. Deterministic in
/// `(base, esc_seed, level)` and prefix-stable — the set at level `z+1`
/// contains the set at level `z` — so repeated escalations of one
/// stripe model one accumulating failure history.
fn escalated_failed(base: &[usize], total: usize, esc_seed: u64, level: usize) -> Vec<usize> {
    let mut failed = base.to_vec();
    let mut rng = SplitMix64::new(esc_seed);
    while failed.len() < level {
        let b = rng.pick(total);
        if !failed.contains(&b) {
            failed.push(b);
        }
    }
    failed.sort_unstable();
    failed
}

/// Rewrite a canonical-node demand into physical-cluster resources for
/// one stripe: hosts map to the stripe's physical block locations,
/// canonical spares map to the same-ranked spare of the stripe's
/// physical rack, and the canonical aggregation switch maps to the
/// physical one.
#[allow(clippy::too_many_arguments)]
fn translate_demand(
    canon: &Demand,
    canon_nodes: usize,
    phys_nodes: usize,
    npr: usize,
    roles: &[Role],
    first_block_in_rack: &[usize],
    hosts: &[u32],
) -> Demand {
    let canon_agg = BandwidthArbiter::agg(canon_nodes);
    let entries = canon
        .entries
        .iter()
        .map(|&(r, rate)| {
            if r == canon_agg {
                return (BandwidthArbiter::agg(phys_nodes), rate);
            }
            let c = r as usize / 2;
            let g = match roles[c] {
                Role::Host(b) => hosts[b] as usize,
                Role::Free { rack_pos, rank } => {
                    let rack = hosts[first_block_in_rack[rack_pos]] as usize / npr;
                    (rack * npr..(rack + 1) * npr)
                        .filter(|n| !hosts.contains(&(*n as u32)))
                        .nth(rank)
                        .expect("physical rack has as many spares as the canonical one")
                }
            };
            ((2 * g + (r as usize % 2)) as u32, rate)
        })
        .collect();
    Demand { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_obs::NoopRecorder;

    fn tiny_spec() -> FleetSpec {
        FleetSpec {
            params: CodeParams::new(4, 2),
            racks: 6,
            nodes_per_rack: 4,
            stripes: 200,
            block_bytes: 8 << 20,
            seed: 17,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn fleet_repairs_every_stripe() {
        let out = run_synthetic_fleet(&tiny_spec(), &NoopRecorder);
        assert_eq!(out.summary.stripes, 200);
        assert_eq!(out.summary.repaired, 200);
        assert_eq!(out.records.len(), 200);
        assert_eq!(out.unrepairable, 0);
        assert!(out.classes >= 1);
        assert!(out.summary.makespan > 0.0);
        assert!(out.summary.mttr_p99 >= out.summary.mttr_p50);
        assert!(out.max_utilization <= 1.0 + 1e-6);
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let a = run_synthetic_fleet(&tiny_spec(), &NoopRecorder);
        let b = run_synthetic_fleet(&tiny_spec(), &NoopRecorder);
        assert_eq!(a.summary.to_json(), b.summary.to_json());
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_synthetic_fleet(&tiny_spec(), &NoopRecorder);
        let b = run_synthetic_fleet(
            &FleetSpec {
                seed: 4242,
                ..tiny_spec()
            },
            &NoopRecorder,
        );
        assert_ne!(
            a.records, b.records,
            "placement and levels must depend on the seed"
        );
    }

    #[test]
    fn disabling_arbitration_only_removes_waiting() {
        let contended = FleetSpec {
            racks: 4,
            stripes: 300,
            ..tiny_spec()
        };
        let free = FleetSpec {
            arbitrate: false,
            ..contended.clone()
        };
        let with = run_synthetic_fleet(&contended, &NoopRecorder);
        let without = run_synthetic_fleet(&free, &NoopRecorder);
        // Same per-stripe durations, only admission times differ.
        for (a, b) in with.records.iter().zip(&without.records) {
            assert_eq!(a.stripe, b.stripe);
            let da = a.finish - a.admitted;
            let db = b.finish - b.admitted;
            assert!((da - db).abs() < 1e-12, "stripe {}: {da} vs {db}", a.stripe);
            assert_eq!(b.waited, 0.0, "no waiting without arbitration");
        }
        assert!(with.summary.makespan >= without.summary.makespan);
    }

    #[test]
    fn stripe_storm_is_pinned() {
        use rpr_faults::CrashSite;
        let tmpl = vec![
            vec![StormFault::Crash(CrashSite::SeedPick)],
            vec![StormFault::Timeout, StormFault::Corrupt],
        ];
        // SplitMix64::new(17 ^ 5).next_u64(): journals and committed
        // results depend on this derivation, so it is pinned literally.
        let want = FaultStorm::new(0x3622_5990_4816_818C)
            .with_generation(tmpl[0].clone())
            .with_generation(tmpl[1].clone());
        assert_eq!(stripe_storm(17, 5, &tmpl), want);
        assert_eq!(stripe_storm(17, 5, &[]), FaultStorm::new(want.seed));
        assert_ne!(stripe_storm(17, 6, &tmpl).seed, want.seed);
    }

    #[test]
    fn storm_path_is_deterministic() {
        use rpr_faults::CrashSite;
        let spec = FleetSpec {
            stripes: 24,
            storm: vec![vec![StormFault::Crash(CrashSite::SeedPick)]],
            ..tiny_spec()
        };
        let out = run_synthetic_fleet(&spec, &NoopRecorder);
        assert_eq!(out.summary.repaired + out.unrepairable, 24);
        assert!(out.tally.replans > 0, "every stripe crashed at least once");
        let again = run_synthetic_fleet(&spec, &NoopRecorder);
        assert_eq!(out.records, again.records, "storm path is deterministic");
    }

    #[test]
    fn foreground_qos_only_adds_waiting() {
        // A finite aggregation switch is the shared resource: several
        // stripes fit under it unthrottled, far fewer under a 5%
        // residual (per-node links admit one full-rate repair each
        // under either class, so they cannot show the difference).
        let contended = FleetSpec {
            racks: 4,
            stripes: 300,
            agg_capacity: Some(GBIT),
            ..tiny_spec()
        };
        let qos = FleetSpec {
            qos: QosClass::ForegroundPriority {
                foreground_share: 0.95,
                repair_floor: 0.05,
            },
            ..contended.clone()
        };
        let full = run_synthetic_fleet(&contended, &NoopRecorder);
        let shared = run_synthetic_fleet(&qos, &NoopRecorder);
        // Admission against the residual fraction changes *when* stripes
        // start, never how long each repair takes once admitted.
        for (a, b) in full.records.iter().zip(&shared.records) {
            assert_eq!(a.stripe, b.stripe);
            let da = a.finish - a.admitted;
            let db = b.finish - b.admitted;
            assert!((da - db).abs() < 1e-12, "stripe {}: {da} vs {db}", a.stripe);
        }
        let wait = |out: &FleetOutcome| -> f64 { out.records.iter().map(|r| r.waited).sum() };
        assert!(
            shared.summary.makespan >= full.summary.makespan,
            "residual admission can only delay the drain ({} vs {})",
            shared.summary.makespan,
            full.summary.makespan
        );
        assert!(
            wait(&shared) > wait(&full),
            "a 5% residual must queue more stripe admissions ({} vs {})",
            wait(&shared),
            wait(&full)
        );
        assert_eq!(shared.summary.repaired, 300, "QoS never starves repair");
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn too_few_racks_rejected() {
        let spec = FleetSpec {
            racks: 1,
            ..tiny_spec()
        };
        run_synthetic_fleet(&spec, &NoopRecorder);
    }
}
