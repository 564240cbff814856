//! `exec_bulk` and `exec_small`: byte-verified supervised repairs of one
//! RS(6,3) stripe over unshaped links. Same code path, opposite regimes:
//! at 32 MiB blocks the bytes do the work (arena, delivery channels,
//! copies, checksums, folds), at 64 KiB the per-repair fixed cost does
//! (planning, thread spawn, shaper admission, verification).

use super::{Entry, Workload};
use crate::gen;
use crate::trace::Tracer;
use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_core::{CostModel, RepairContext, SuperviseConfig};
use rpr_exec::{execute_supervised, SupervisedReport};
use rpr_faults::{FaultStorm, HealthTracker};
use rpr_obs::{Event, Recorder, TraceRecorder};
use rpr_topology::{cluster_for, BandwidthProfile, Placement, Topology};
use std::time::Instant;

pub const BULK: Entry = Entry {
    name: "exec_bulk",
    why: "32 MiB blocks in 1 MiB chunks over unshaped links: bytes dominate, so arena, channels, copies, checksums and folds do the work",
    build: |seed, size, _| {
        let (block, chunk) = size.pick((32 << 20, 1 << 20), (4 << 20, 256 << 10));
        // No warm-up: set-up has already built the 288 MiB stripe three
        // times over, and the first round measures no slower than the rest.
        Box::new(ExecLoop::new(seed, block, Some(chunk), 0))
    },
};

pub const SMALL: Entry = Entry {
    name: "exec_small",
    why: "64 KiB blocks in block mode: bytes are negligible, so per-repair planning, thread spawn, admission and verification do the work",
    build: |seed, _, _| Box::new(ExecLoop::new(seed, 64 << 10, None, 50)),
};

/// The failure sets one operation cycles through: `[d1]` takes the XOR
/// path, `[p1]` the matrix path, `[d0,d4]` is a two-block repair.
const FAILURES: [&[usize]; 3] = [&[1], &[7], &[0, 4]];

/// An RS(6,3) cluster with one encoded stripe of seeded bytes.
pub struct ExecWorld {
    pub codec: StripeCodec,
    pub topo: Topology,
    pub placement: Placement,
    pub profile: BandwidthProfile,
    pub block_bytes: u64,
    pub chunk_bytes: Option<u64>,
    pub stripe: Vec<Vec<u8>>,
}

impl ExecWorld {
    /// `profile` maps the rack count to link rates.
    pub fn new(
        seed: u64,
        block_bytes: u64,
        chunk_bytes: Option<u64>,
        profile: impl FnOnce(usize) -> BandwidthProfile,
    ) -> ExecWorld {
        let params = CodeParams::new(6, 3);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let codec = StripeCodec::new(params);
        let stripe = gen::stripe(&codec, seed, block_bytes as usize);
        ExecWorld {
            profile: profile(topo.rack_count()),
            codec,
            topo,
            placement,
            block_bytes,
            chunk_bytes,
            stripe,
        }
    }

    /// A repair context under [`CostModel::free`]: any other cost model
    /// makes `rpr-exec` sleep to the modelled decode time, which would
    /// hide the software's own cost.
    pub fn ctx(&self, failed: &[usize]) -> RepairContext<'_> {
        let ctx = RepairContext::new(
            &self.codec,
            &self.topo,
            &self.placement,
            failed.iter().map(|&b| BlockId(b)).collect(),
            self.block_bytes,
            &self.profile,
            CostModel::free(),
        );
        match self.chunk_bytes {
            Some(c) => ctx.with_chunk_size(c),
            None => ctx,
        }
    }

    /// One supervised repair on real bytes, traced and checked: the report
    /// says verified and every recovered block equals the lost original.
    pub fn repair(
        &self,
        failed: &[usize],
        storm: &FaultStorm,
        cfg: &SuperviseConfig,
        tr: &mut Tracer,
    ) -> Result<SupervisedReport, String> {
        let ctx = self.ctx(failed);
        let mut tracker = HealthTracker::with_defaults();
        let recorder = tr.enabled().then(TraceRecorder::default);
        let rec: &dyn Recorder = match &recorder {
            Some(r) => r,
            None => rpr_obs::noop(),
        };
        let start = Instant::now();
        let rep = tr
            .span("exec.execute_supervised", |_| {
                execute_supervised(&ctx, &self.stripe, rec, storm, cfg, &mut tracker)
            })
            .map_err(|e| format!("execute_supervised {failed:?}: {e}"))?;
        let outer = start.elapsed().as_secs_f64();
        if let Some(r) = &recorder {
            count_exec(tr, &rep, outer, &r.take_events());
        }
        tr.span("bench.verify", |_| self.check_recovered(failed, &rep))?;
        Ok(rep)
    }

    fn check_recovered(&self, failed: &[usize], rep: &SupervisedReport) -> Result<(), String> {
        if !rep.report.verified {
            return Err(format!("repair of {failed:?} not verified"));
        }
        for &b in failed {
            let got = rep.report.recovered.iter().find(|(id, _)| id.0 == b);
            match got {
                Some((_, bytes)) if **bytes == self.stripe[b] => {}
                Some(_) => return Err(format!("recovered block {b} differs from the original")),
                None => return Err(format!("block {b} was not recovered")),
            }
        }
        Ok(())
    }
}

/// Fold one repair's report and recorder events into the exec-layer counts.
fn count_exec(tr: &mut Tracer, rep: &SupervisedReport, outer_s: f64, events: &[Event]) {
    let r = &rep.report;
    tr.count("exec.repairs", 1.0);
    tr.count("exec.overhead_s", outer_s - r.wall_seconds);
    tr.count("exec.first_byte_s", r.first_byte_seconds.unwrap_or(0.0));
    tr.count("exec.arena_fresh", r.arena.fresh as f64);
    tr.count("exec.arena_recycled", r.arena.recycled as f64);
    tr.count("exec.cross_bytes", r.cross_bytes as f64);
    tr.count("exec.inner_bytes", r.inner_bytes as f64);
    tr.count("exec.retries", rep.retries as f64);
    tr.count("exec.replans", rep.replans as f64);
    tr.count("exec.reused_ops", rep.reused_ops as f64);
    tr.count("proof.emitted", rep.proofs_emitted as f64);
    tr.count("proof.rejected", rep.proofs_rejected as f64);
    tr.count("obs.events", events.len() as f64);
    for e in events {
        match e {
            Event::TransferStarted { queue_wait, .. } => {
                tr.count("exec.transfer_wait_s", *queue_wait)
            }
            Event::TransferDone { start, end, .. } => tr.count("exec.transfer_busy_s", end - start),
            Event::CombineDone {
                start,
                end,
                inputs,
                bytes,
                ..
            } => {
                tr.count("exec.combine_busy_s", end - start);
                tr.count("exec.folded_bytes", (*inputs as u64 * bytes) as f64);
            }
            Event::StreamSummary {
                first_chunk_latency,
                ..
            } => {
                tr.count("exec.streams", 1.0);
                tr.count("exec.first_chunk_s", *first_chunk_latency);
            }
            _ => {}
        }
    }
}

/// One operation = one pass over [`FAILURES`], each repair under an empty
/// storm with the default supervisor configuration.
struct ExecLoop {
    world: ExecWorld,
    warmup: usize,
    storm_seed: u64,
    cfg: SuperviseConfig,
}

impl ExecLoop {
    fn new(seed: u64, block: u64, chunk: Option<u64>, warmup: usize) -> ExecLoop {
        ExecLoop {
            warmup,
            world: ExecWorld::new(seed, block, chunk, |racks| {
                BandwidthProfile::uniform(racks, 1e12, 1e12)
            }),
            storm_seed: gen::derive(seed, 1, 0),
            cfg: SuperviseConfig::default(),
        }
    }
}

impl Workload for ExecLoop {
    fn warmup_ops(&self) -> usize {
        self.warmup
    }

    fn op(&mut self, _i: usize, tr: &mut Tracer) -> Result<(), String> {
        let storm = FaultStorm::new(self.storm_seed);
        for failed in FAILURES {
            self.world.repair(failed, &storm, &self.cfg, tr)?;
            let bytes = failed.len() as u64 * self.world.block_bytes;
            tr.count("exec.repaired_bytes", bytes as f64);
        }
        Ok(())
    }

    fn invariants(&mut self) -> Vec<(bool, String)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Ops;
    use std::sync::Arc;

    #[test]
    fn a_planted_bad_repair_counts_as_a_failed_op() {
        let world = ExecWorld::new(17, 4096, None, |racks| {
            BandwidthProfile::uniform(racks, 1e12, 1e12)
        });
        let failed = [0, 4];
        let cfg = SuperviseConfig::default();
        let mut tr = Tracer::new(false);
        let good = world
            .repair(&failed, &FaultStorm::new(1), &cfg, &mut tr)
            .expect("a clean repair passes its checks");

        let mut unverified = good.clone();
        unverified.report.verified = false;
        let mut wrong_bytes = good.clone();
        wrong_bytes.report.recovered[1].1 = Arc::new(vec![0u8; 4096]);
        let mut missing = good.clone();
        missing.report.recovered.pop();

        let mut ops = Ops::default();
        ops.record(world.check_recovered(&failed, &good));
        for planted in [&unverified, &wrong_bytes, &missing] {
            ops.record(world.check_recovered(&failed, planted));
        }
        assert_eq!((ops.attempted, ops.failed), (4, 3));
        assert!(!ops.correct());
    }
}
