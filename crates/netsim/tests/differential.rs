//! Differential harness: the event-driven engine against the rescanning
//! one it replaced ([`reference`]), on seeded random job graphs. Every
//! graph must give a bit-identical `SimReport`: makespan, every record's
//! start, finish and failures, the byte counters and per-node compute
//! seconds.
//!
//! The graphs cover data dependencies (duplicates included), NICs shared
//! by several flows, the cross-traffic classes, a finite aggregation
//! switch, `derate_node`, `throttle`, pair rates below the cross class,
//! `fail_attempts` with backoff (several failures per job), `release_at`
//! and zero-work jobs. [`GRAPHS`] graphs are drawn from [`SplitMix64`]
//! seeded with [`SEED`] — 20,000 in a release build, 2,000 in a debug
//! one — and a failure names the graph index that reproduces it.
//!
//! Each graph also runs bounded: `run_within` a limit just above its
//! makespan must return the same report, and one just below it `None`.

mod reference;

use rpr_faults::SplitMix64;
use rpr_netsim::{FailSpec, JobId, Network, SimReport, Simulator};
use rpr_topology::{BandwidthProfile, NodeId, Topology};

const SEED: u64 = 0x6A09_E667_F3BC_C908;
const GRAPHS: usize = if cfg!(debug_assertions) {
    2_000
} else {
    20_000
};

/// One call on a simulator under construction, replayed on both engines.
#[derive(Clone, Debug)]
enum Call {
    Transfer {
        from: usize,
        to: usize,
        bytes: u64,
        deps: Vec<usize>,
    },
    Compute {
        node: usize,
        seconds: f64,
        deps: Vec<usize>,
    },
    Fail(usize, Vec<FailSpec>),
    Release(usize, f64),
    Throttle(usize, f64),
    Derate(usize, f64),
}

/// A value from `nice` (ties and exact arithmetic) half the time, else
/// uniform in `(0, max]` (rounding everywhere).
fn draw(rng: &mut SplitMix64, nice: &[f64], max: f64) -> f64 {
    if rng.next_u64() & 1 == 0 {
        nice[rng.pick(nice.len())]
    } else {
        max * (1.0 - rng.next_f64())
    }
}

/// A random network: 1–4 racks of 1–3 nodes, a symmetric rate matrix
/// whose cross rates differ per rack pair (so a pair rate can sit below
/// its racks' cross classes), and a finite aggregation switch a third
/// of the time.
fn network(rng: &mut SplitMix64) -> Network {
    let racks = 1 + rng.pick(4);
    let sizes: Vec<usize> = (0..racks).map(|_| 1 + rng.pick(3)).collect();
    // Per rack: its inner rate, then its cross rates to each lower rack.
    let drawn: Vec<(f64, Vec<f64>)> = (0..racks)
        .map(|a| {
            let inner = draw(rng, &[100.0, 250.0, 1000.0], 1000.0);
            let cross = (0..a)
                .map(|_| draw(rng, &[10.0, 25.0, 40.0, 100.0], 100.0))
                .collect();
            (inner, cross)
        })
        .collect();
    let rates = (0..racks)
        .map(|a| {
            (0..racks)
                .map(|b| match a.cmp(&b) {
                    std::cmp::Ordering::Equal => drawn[a].0,
                    std::cmp::Ordering::Greater => drawn[a].1[b],
                    std::cmp::Ordering::Less => drawn[b].1[a],
                })
                .collect()
        })
        .collect();
    let net = Network::new(
        Topology::with_rack_sizes(&sizes),
        BandwidthProfile::rack_matrix(rates),
    );
    if rng.pick(3) == 0 {
        net.with_agg_capacity(draw(rng, &[10.0, 30.0, 50.0], 60.0))
    } else {
        net
    }
}

/// Up to 3 dependencies on earlier jobs, repeats allowed.
fn deps(rng: &mut SplitMix64, i: usize) -> Vec<usize> {
    if i == 0 {
        return Vec::new();
    }
    (0..rng.pick(4)).map(|_| rng.pick(i)).collect()
}

fn fail_specs(rng: &mut SplitMix64) -> Vec<FailSpec> {
    (0..1 + rng.pick(3))
        .map(|_| FailSpec {
            fraction: match rng.pick(4) {
                0 => 0.0,
                1 => 1.0,
                2 => 0.5,
                _ => rng.next_f64(),
            },
            delay: draw(rng, &[0.0, 1.0, 2.5], 10.0),
            reason: "timeout".into(),
        })
        .collect()
}

/// The calls that build one random graph on a network of `nodes` nodes.
fn graph(rng: &mut SplitMix64, nodes: usize) -> Vec<Call> {
    let mut calls = Vec::new();
    for _ in 0..rng.pick(3) {
        let factor = draw(rng, &[0.25, 0.5, 1.0], 1.0);
        calls.push(Call::Derate(rng.pick(nodes), factor));
    }
    let jobs = 1 + rng.pick(40);
    for i in 0..jobs {
        let deps = deps(rng, i);
        let transfer = nodes > 1 && rng.pick(3) != 0;
        if transfer {
            // A few hot nodes, so flows share NICs and cross classes.
            let from = rng.pick(nodes.min(3));
            let to = (from + 1 + rng.pick(nodes - 1)) % nodes;
            let bytes = match rng.pick(10) {
                0 => 0,
                1..=5 => [100, 500, 1000, 2000][rng.pick(4)],
                _ => 1 + rng.pick(20_000) as u64,
            };
            calls.push(Call::Transfer {
                from,
                to,
                bytes,
                deps,
            });
            if rng.pick(5) == 0 {
                calls.push(Call::Throttle(i, draw(rng, &[0.25, 0.5, 1.0], 1.0)));
            }
        } else {
            let seconds = if rng.pick(10) == 0 {
                0.0
            } else {
                draw(rng, &[0.5, 1.0, 2.0], 20.0)
            };
            calls.push(Call::Compute {
                node: rng.pick(nodes),
                seconds,
                deps,
            });
        }
        if rng.pick(5) == 0 {
            calls.push(Call::Release(i, draw(rng, &[0.0, 5.0, 10.0], 50.0)));
        }
        for _ in 0..usize::from(rng.pick(5) == 0) + usize::from(rng.pick(10) == 0) {
            calls.push(Call::Fail(i, fail_specs(rng)));
        }
    }
    calls
}

/// Replay `calls` on a fresh engine of either kind; both expose the same
/// construction API.
macro_rules! build {
    ($engine:path, $net:expr, $calls:expr) => {{
        let mut sim = <$engine>::new($net);
        let ids = |d: &[usize]| d.iter().map(|&j| JobId(j)).collect::<Vec<_>>();
        for (n, call) in $calls.iter().enumerate() {
            match call {
                Call::Transfer {
                    from,
                    to,
                    bytes,
                    deps,
                } => {
                    let label = format!("t{n}");
                    sim.transfer(label, NodeId(*from), NodeId(*to), *bytes, &ids(deps));
                }
                Call::Compute {
                    node,
                    seconds,
                    deps,
                } => {
                    sim.compute(format!("c{n}"), NodeId(*node), *seconds, &ids(deps));
                }
                Call::Fail(j, specs) => sim.fail_attempts(JobId(*j), specs.clone()),
                Call::Release(j, t) => sim.release_at(JobId(*j), *t),
                Call::Throttle(j, f) => sim.throttle(JobId(*j), *f),
                Call::Derate(node, f) => sim.derate_node(NodeId(*node), *f),
            }
        }
        sim
    }};
}

/// Assert two reports are bit-identical, naming the graph and the field.
fn assert_identical(g: usize, want: &SimReport, got: &SimReport) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        want.makespan.to_bits(),
        got.makespan.to_bits(),
        "graph {g}: makespan {} vs {}",
        want.makespan,
        got.makespan
    );
    assert_eq!(want.records.len(), got.records.len(), "graph {g}: records");
    for (w, o) in want.records.iter().zip(&got.records) {
        let id = w.id;
        assert_eq!(w.id, o.id, "graph {g}: record order");
        assert_eq!(w.kind, o.kind, "graph {g} {id:?}: kind");
        assert_eq!(w.label, o.label, "graph {g} {id:?}: label");
        assert_eq!(
            (w.start.to_bits(), w.finish.to_bits()),
            (o.start.to_bits(), o.finish.to_bits()),
            "graph {g} {id:?}: (start, finish) ({}, {}) vs ({}, {})",
            w.start,
            w.finish,
            o.start,
            o.finish
        );
        assert_eq!(w.failures.len(), o.failures.len(), "graph {g} {id:?}");
        for (a, b) in w.failures.iter().zip(&o.failures) {
            assert_eq!(
                bits(&[a.start, a.at, a.delay, a.fraction]),
                bits(&[b.start, b.at, b.delay, b.fraction]),
                "graph {g} {id:?}: failure {a:?} vs {b:?}"
            );
            assert_eq!(a.reason, b.reason, "graph {g} {id:?}: reason");
        }
    }
    assert_eq!(
        (want.cross_rack_bytes, want.inner_rack_bytes),
        (got.cross_rack_bytes, got.inner_rack_bytes),
        "graph {g}: rack bytes"
    );
    assert_eq!(
        want.node_upload_bytes, got.node_upload_bytes,
        "graph {g}: upload"
    );
    assert_eq!(
        want.node_download_bytes, got.node_download_bytes,
        "graph {g}: download"
    );
    assert_eq!(
        want.retransmitted_bytes, got.retransmitted_bytes,
        "graph {g}: retransmitted"
    );
    assert_eq!(
        bits(&want.node_compute_seconds),
        bits(&got.node_compute_seconds),
        "graph {g}: compute seconds"
    );
}

#[test]
fn event_driven_engine_matches_the_reference_bit_for_bit() {
    let mut rng = SplitMix64::new(SEED);
    // What the graphs exercised, so a generator change cannot quietly
    // stop covering a feature.
    let (mut jobs, mut retried_twice, mut zero_work, mut released, mut agg) = (0, 0, 0, 0, 0);
    for g in 0..GRAPHS {
        let net = network(&mut rng);
        let calls = graph(&mut rng, net.topology().node_count());
        let reference = build!(reference::Simulator, net.clone(), calls);
        let engine = build!(Simulator, net.clone(), calls);
        assert_eq!(reference.job_count(), engine.job_count(), "graph {g}");
        let (want, got) = (reference.run(), engine.run());
        assert_identical(g, &want, &got);
        let above = build!(Simulator, net.clone(), calls).run_within(want.makespan * (1.0 + 1e-5));
        match above {
            Some(report) => assert_identical(g, &want, &report),
            None => panic!("graph {g}: a run within 1e-5 of its makespan was abandoned"),
        }
        let below = build!(Simulator, net.clone(), calls).run_within(want.makespan * (1.0 - 1e-3));
        assert!(
            want.makespan == 0.0 || below.is_none(),
            "graph {g}: a run past its limit was kept"
        );

        jobs += want.records.len();
        retried_twice += want.records.iter().filter(|r| r.failures.len() > 1).count();
        zero_work += want.records.iter().filter(|r| r.duration() == 0.0).count();
        released += calls
            .iter()
            .filter(|c| matches!(c, Call::Release(..)))
            .count();
        agg += usize::from(net.agg_capacity().is_finite());
    }
    for (what, n) in [
        ("jobs retried twice or more", retried_twice),
        ("zero-duration jobs", zero_work),
        ("release_at calls", released),
        ("graphs with a finite aggregation switch", agg),
    ] {
        assert!(n * 100 >= GRAPHS, "only {n} {what} over {GRAPHS} graphs");
    }
    assert!(jobs >= GRAPHS * 10, "{jobs} jobs over {GRAPHS} graphs");
}
