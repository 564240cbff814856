//! Properties of the flow simulator: conservation, monotonicity, and lower
//! bounds that must hold for any random job set.
//!
//! Each property runs [`CASES`] job sets drawn from [`SplitMix64`] seeded
//! with [`SEED`]; a failure names the case index that reproduces it.

use rpr_faults::SplitMix64;
use rpr_netsim::{JobId, Network, Simulator};
use rpr_topology::{BandwidthProfile, NodeId, Topology};

const SEED: u64 = 0x510E_527F_ADE6_82D1;
const CASES: usize = 64;

#[derive(Clone, Debug)]
enum JobSpec {
    Transfer { from: usize, to: usize, bytes: u64 },
    Compute { node: usize, millis: u32 },
}

/// Between `min` and `max - 1` random jobs on `nodes` nodes; a transfer
/// never loops back to its source.
fn job_specs(rng: &mut SplitMix64, nodes: usize, min: usize, max: usize) -> Vec<JobSpec> {
    (0..min + rng.pick(max - min))
        .map(|_| {
            if rng.next_u64() & 1 == 0 {
                let from = rng.pick(nodes);
                JobSpec::Transfer {
                    from,
                    to: (from + 1 + rng.pick(nodes - 1)) % nodes,
                    bytes: 1 + rng.pick(199_999) as u64,
                }
            } else {
                JobSpec::Compute {
                    node: rng.pick(nodes),
                    millis: 1 + rng.pick(499) as u32,
                }
            }
        })
        .collect()
}

/// Build a simulator over the jobs; dependencies only point backwards
/// (acyclic by construction), each job depending on up to 2 earlier jobs.
/// Returns the job ids and each job's dependency list.
fn build(
    rng: &mut SplitMix64,
    racks: usize,
    per_rack: usize,
    specs: &[JobSpec],
) -> (Simulator, Vec<JobId>, Vec<Vec<JobId>>) {
    let topo = Topology::uniform(racks, per_rack);
    let profile = BandwidthProfile::uniform(racks, 1_000_000.0, 100_000.0);
    let mut sim = Simulator::new(Network::new(topo, profile));
    let mut ids = Vec::new();
    let mut deps_of = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let mut deps = Vec::new();
        if i > 0 {
            for _ in 0..2 {
                if rng.next_u64() & 1 == 0 {
                    deps.push(ids[rng.pick(i)]);
                }
            }
            deps.dedup();
        }
        let id = match *spec {
            JobSpec::Transfer { from, to, bytes } => {
                sim.transfer(format!("t{i}"), NodeId(from), NodeId(to), bytes, &deps)
            }
            JobSpec::Compute { node, millis } => {
                sim.compute(format!("c{i}"), NodeId(node), millis as f64 / 1000.0, &deps)
            }
        };
        ids.push(id);
        deps_of.push(deps);
    }
    (sim, ids, deps_of)
}

#[test]
fn traffic_is_conserved_and_times_are_sane() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let specs = job_specs(&mut rng, 6, 1, 25);
        let (sim, ids, _) = build(&mut rng, 3, 2, &specs);
        let report = sim.run();

        // Every job has start <= finish <= makespan.
        for &id in &ids {
            let r = report.record(id);
            assert!(r.start >= 0.0, "case {case} {id:?}");
            assert!(r.finish >= r.start - 1e-12, "case {case} {id:?}");
            assert!(r.finish <= report.makespan + 1e-9, "case {case} {id:?}");
        }

        // Byte conservation: per-node uploads == per-node downloads ==
        // total transfer payloads.
        let total: u64 = specs
            .iter()
            .filter_map(|s| match s {
                JobSpec::Transfer { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(report.total_transfer_bytes(), total, "case {case}");
        assert_eq!(
            report.node_upload_bytes.iter().sum::<u64>(),
            total,
            "case {case}"
        );
        assert_eq!(
            report.node_download_bytes.iter().sum::<u64>(),
            total,
            "case {case}"
        );
    }
}

#[test]
fn makespan_respects_physical_lower_bounds() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let specs = job_specs(&mut rng, 6, 1, 20);
        let (sim, ids, _) = build(&mut rng, 3, 2, &specs);
        let report = sim.run();

        // No single job can beat its own best-case duration.
        for (&id, spec) in ids.iter().zip(&specs) {
            let r = report.record(id);
            let min = match *spec {
                JobSpec::Transfer { from, to, bytes } => {
                    let rate = if from / 2 == to / 2 {
                        1_000_000.0
                    } else {
                        100_000.0
                    };
                    bytes as f64 / rate
                }
                JobSpec::Compute { millis, .. } => millis as f64 / 1000.0,
            };
            assert!(
                r.duration() >= min - 1e-9,
                "case {case}: job {id:?} ran faster than its link/CPU allows: {} < {min}",
                r.duration()
            );
        }

        // Aggregate bound: each node's uplink cannot push bytes faster
        // than its NIC for the whole makespan.
        for (node, &up) in report.node_upload_bytes.iter().enumerate() {
            assert!(
                up as f64 / 1_000_000.0 <= report.makespan + 1e-6,
                "case {case}: node {node}"
            );
        }
    }
}

#[test]
fn dependencies_are_honoured() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let specs = job_specs(&mut rng, 4, 2, 20);
        let (sim, ids, deps_of) = build(&mut rng, 2, 2, &specs);
        let report = sim.run();
        for (i, deps) in deps_of.iter().enumerate() {
            for d in deps {
                assert!(
                    report.record(*d).finish <= report.record(ids[i]).start + 1e-9,
                    "case {case}: job {i} started before its dependency {d:?} finished"
                );
            }
        }
    }
}

#[test]
fn compute_only_workloads_equal_sum_per_node() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        // All jobs independent on 4 separate nodes: makespan = max over
        // nodes of that node's total work (processor sharing conserves
        // total CPU time).
        let topo = Topology::uniform(2, 2);
        let profile = BandwidthProfile::uniform(2, 1e6, 1e5);
        let mut sim = Simulator::new(Network::new(topo, profile));
        let mut per_node = [0.0f64; 4];
        for i in 0..1 + rng.pick(11) {
            let node = rng.pick(4);
            let secs = (1 + rng.pick(199)) as f64 / 1000.0;
            per_node[node] += secs;
            sim.compute(format!("c{i}"), NodeId(node), secs, &[]);
        }
        let report = sim.run();
        let want = per_node.iter().cloned().fold(0.0, f64::max);
        assert!(
            (report.makespan - want).abs() < 1e-6,
            "case {case}: makespan {} vs per-node max {want}",
            report.makespan
        );
    }
}
