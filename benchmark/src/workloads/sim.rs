//! `sim_sweep`: plan → validate → simulate over the paper's codes at
//! 256 chunks per hop. Planner search and `netsim` do all the work; no
//! bytes move.

use super::{Entry, Workload};
use crate::trace::Tracer;
use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_core::{
    simulate, CarPlanner, CostModel, RepairContext, RepairPlanner, RprPlanner, TraditionalPlanner,
};
use rpr_topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy, Topology};

pub const SWEEP: Entry = Entry {
    name: "sim_sweep",
    why: "six paper codes x three schemes plus two multi-failure cases at 256 chunks per hop: planner search and netsim do all the work, no bytes move",
    build: |_, size, _| Box::new(SimSweep::new(size.pick(1 << 20, 8 << 20))),
};

pub const BLOCK: u64 = 256 << 20;
const PAPER_CODES: [(usize, usize); 6] = [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)];
const FIGURE_8_ROW: &str = "(6,3)";

/// The paper's Simics-style cluster for one code (as `BenchWorld::simics`).
pub struct SimWorld {
    pub codec: StripeCodec,
    pub topo: Topology,
    pub placement: Placement,
    pub profile: BandwidthProfile,
}

impl SimWorld {
    pub fn new(n: usize, k: usize) -> SimWorld {
        let params = CodeParams::new(n, k);
        let topo = cluster_for(params, 1, 1);
        SimWorld {
            codec: StripeCodec::new(params),
            placement: Placement::by_policy(PlacementPolicy::RprPreplaced, params, &topo),
            profile: BandwidthProfile::simics_default(topo.rack_count()),
            topo,
        }
    }

    pub fn ctx(&self, failed: &[usize], chunk: Option<u64>) -> RepairContext<'_> {
        let ctx = RepairContext::new(
            &self.codec,
            &self.topo,
            &self.placement,
            failed.iter().map(|&b| BlockId(b)).collect(),
            BLOCK,
            &self.profile,
            CostModel::simics().scaled_for_block(BLOCK),
        );
        match chunk {
            Some(c) => ctx.with_chunk_size(c),
            None => ctx,
        }
    }

    /// `plan` → `validate` → `simulate`, each in its own span. Returns the
    /// simulated repair time and cross-rack traffic in blocks.
    pub fn run(
        &self,
        planner: &dyn RepairPlanner,
        failed: &[usize],
        chunk: Option<u64>,
        tr: &mut Tracer,
    ) -> Result<(f64, f64), String> {
        let ctx = self.ctx(failed, chunk);
        let plan = tr.span("core.plan", |_| planner.plan(&ctx));
        tr.count("core.plans", 1.0);
        tr.span("core.validate", |_| {
            plan.validate(&self.codec, &self.topo, &self.placement)
        })
        .map_err(|e| format!("{} plan for {failed:?} invalid: {e}", planner.name()))?;
        let out = tr.span("netsim.simulate", |_| simulate(&plan, &ctx));
        tr.count("netsim.jobs", out.report.records.len() as f64);
        Ok((out.repair_time, out.stats.cross_bytes as f64 / BLOCK as f64))
    }
}

struct Case {
    world: usize,
    failed: Vec<usize>,
    /// RPR and Traditional always; CAR on the single-failure cases.
    with_car: bool,
}

struct SimSweep {
    chunk: u64,
    worlds: Vec<SimWorld>,
    cases: Vec<Case>,
    /// `(repair_time bits, cross blocks bits)` per run of the first sweep.
    first: Vec<(u64, u64)>,
    identical: bool,
    /// Outcome of the set-up check against the committed Figure 8.
    figure_8: Result<(), String>,
}

impl SimSweep {
    fn new(chunk: u64) -> SimSweep {
        let worlds: Vec<SimWorld> = PAPER_CODES
            .iter()
            .map(|&(n, k)| SimWorld::new(n, k))
            .collect();
        let mut cases: Vec<Case> = (0..PAPER_CODES.len())
            .map(|world| Case {
                world,
                failed: vec![1],
                with_car: true,
            })
            .collect();
        cases.push(Case {
            world: 4, // (8,4), z = 2
            failed: vec![0, 4],
            with_car: false,
        });
        cases.push(Case {
            world: 5, // (12,4), z = 4
            failed: vec![0, 3, 6, 9],
            with_car: false,
        });
        SimSweep {
            figure_8: figure_8_check(&worlds[3]),
            chunk,
            worlds,
            cases,
            first: Vec::new(),
            identical: true,
        }
    }
}

impl Workload for SimSweep {
    fn warmup_ops(&self) -> usize {
        0
    }

    fn op(&mut self, _i: usize, tr: &mut Tracer) -> Result<(), String> {
        let (rpr, car, tra) = (
            RprPlanner::new(),
            CarPlanner::new(),
            TraditionalPlanner::new(),
        );
        let mut seen = Vec::new();
        let (mut time_sum, mut cross_sum) = (0.0, 0.0);
        for case in &self.cases {
            let w = &self.worlds[case.world];
            let mut planners: Vec<&dyn RepairPlanner> = vec![&rpr, &tra];
            if case.with_car {
                planners.push(&car);
            }
            for p in planners {
                let (t, x) = w.run(p, &case.failed, Some(self.chunk), tr)?;
                seen.push((t.to_bits(), x.to_bits()));
                if case.with_car && p.name() == rpr.name() {
                    time_sum += t;
                    cross_sum += x;
                }
            }
        }
        // Mean RPR repair time and cross-rack blocks over the six
        // single-failure codes: the paper's Fig. 8 / Fig. 7 quantities.
        let codes = PAPER_CODES.len() as f64;
        tr.count("sim.repair_time_s", time_sum / codes);
        tr.count("sim.cross_rack_blocks", cross_sum / codes);
        if self.first.is_empty() {
            self.first = seen;
        } else if self.first != seen {
            self.identical = false;
        }
        Ok(())
    }

    fn invariants(&mut self) -> Vec<(bool, String)> {
        vec![
            (self.identical, "sweeps were not bit-identical".into()),
            (
                self.figure_8.is_ok(),
                self.figure_8.clone().err().unwrap_or_default(),
            ),
        ]
    }
}

/// A block-mode (6,3) RPR run, averaged over the data positions as
/// `rpr-experiments fig8` does, must reproduce `results/figure_8_*.csv`.
fn figure_8_check(world: &SimWorld) -> Result<(), String> {
    let dir = std::fs::read_dir("results").map_err(|e| format!("results/: {e}"))?;
    let path = dir
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("figure_8_") && name.ends_with(".csv")
        })
        .ok_or("no results/figure_8_*.csv")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    // code,Tra,CAR,RPR,...  — the code cell is quoted because of its comma.
    let want = text
        .lines()
        .find_map(|l| l.strip_prefix(&format!("\"{FIGURE_8_ROW}\",")))
        .and_then(|rest| rest.split(',').nth(2))
        .ok_or(format!("{}: no row {FIGURE_8_ROW}", path.display()))?;
    let n = world.codec.params().n;
    let mut sum = 0.0;
    for d in 0..n {
        sum += world
            .run(&RprPlanner::new(), &[d], None, &mut Tracer::new(false))?
            .0;
    }
    let got = format!("{:.2}", sum / n as f64);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "figure 8 {FIGURE_8_ROW} RPR: simulated {got} s, committed {want} s"
        ))
    }
}
