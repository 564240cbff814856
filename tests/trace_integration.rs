//! End-to-end trace integration: a simulated RPR repair, recorded through
//! the facade crate, must produce a structured trace whose cross-rack
//! timestep events match the paper's pipeline bound `⌈log2(s+1)⌉` (§3.2),
//! and whose Chrome `trace_event` export is valid JSON.

use rpr::codec::{BlockId, CodeParams, StripeCodec};
use rpr::core::{simulate_traced, CostModel, RepairContext, RepairPlanner, RprPlanner};
use rpr::obs::{export, Event, TraceRecorder};
use rpr::topology::{cluster_for, BandwidthProfile, Placement, PlacementPolicy};

fn ceil_log2(x: usize) -> usize {
    (usize::BITS - (x.max(1) - 1).leading_zeros()) as usize
}

/// Record one single-failure RPR repair of RS(n,k) and return the events.
fn traced_repair(n: usize, k: usize) -> Vec<Event> {
    let params = CodeParams::new(n, k);
    let codec = StripeCodec::new(params);
    let topo = cluster_for(params, 1, 1);
    let placement = Placement::by_policy(PlacementPolicy::RprPreplaced, params, &topo);
    let profile = BandwidthProfile::simics_default(topo.rack_count());
    let ctx = RepairContext::new(
        &codec,
        &topo,
        &placement,
        vec![BlockId(1)],
        64 << 20,
        &profile,
        CostModel::simics().scaled_for_block(64 << 20),
    );
    let plan = RprPlanner::new().plan(&ctx);
    plan.validate(&codec, &topo, &placement)
        .expect("valid plan");
    let rec = TraceRecorder::default();
    simulate_traced(&plan, &ctx, &rec);
    rec.take_events()
}

/// The trace's timestep events must count exactly `⌈log2(s+1)⌉` for `s`
/// cross-rack sends, and every cross transfer must carry a wave tag below
/// that bound.
fn assert_pipelined_trace(events: &[Event]) {
    let cross: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::TransferDone { xfer, .. } if xfer.cross => Some(xfer),
            _ => None,
        })
        .collect();
    let expected = ceil_log2(cross.len() + 1);

    let started: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            Event::TimestepStarted { step, .. } => Some(*step),
            _ => None,
        })
        .collect();
    let finished = events
        .iter()
        .filter(|e| matches!(e, Event::TimestepFinished { .. }))
        .count();
    assert_eq!(
        started,
        (0..expected).collect::<Vec<_>>(),
        "exactly ⌈log2(s+1)⌉ = {expected} timestep_started events, in order"
    );
    assert_eq!(finished, expected);

    for xfer in &cross {
        let step = xfer.timestep.expect("cross transfers carry a timestep");
        assert!(step < expected, "wave {step} out of range");
    }
    // Inner transfers never carry a wave tag.
    assert!(events.iter().all(|e| match e {
        Event::TransferDone { xfer, .. } if !xfer.cross => xfer.timestep.is_none(),
        _ => true,
    }));

    // Advertised plan shape matches what actually ran.
    let Some(Event::PlanBuilt {
        cross_transfers,
        cross_timesteps,
        ..
    }) = events.first()
    else {
        panic!("trace must open with plan_built");
    };
    assert_eq!(*cross_transfers, cross.len());
    assert_eq!(*cross_timesteps, expected);
    assert!(matches!(events.last(), Some(Event::RepairDone { .. })));
}

#[test]
fn rpr_4_2_trace_groups_cross_sends_into_log2_timesteps() {
    assert_pipelined_trace(&traced_repair(4, 2));
}

#[test]
fn rpr_6_3_trace_groups_cross_sends_into_log2_timesteps() {
    let events = traced_repair(6, 3);
    // (6,3) over q = 3 racks: two source racks merge into the recovery
    // rack in ⌈log2(3)⌉ = 2 pipelined timesteps (the acceptance example).
    let cross = events
        .iter()
        .filter(|e| matches!(e, Event::TransferDone { xfer, .. } if xfer.cross))
        .count();
    assert_eq!(cross, 2);
    assert_pipelined_trace(&events);
}

/// Multi-failure (z = 2) repair of RS(8,4): the §3.4 extension splits the
/// repair into one sub-equation per failed block, and the pipeline
/// schedule lines the sub-equations up back-to-back — every wave carries
/// exactly one cross send into the recovery rack, and each sub-equation's
/// sends occupy a contiguous, in-order wave range. This pins the wave
/// layout end to end: plan → cross_waves → recorded trace.
#[test]
fn rpr_8_4_z2_trace_pins_per_subequation_waves() {
    use rpr::core::Op;

    let params = CodeParams::new(8, 4);
    let codec = StripeCodec::new(params);
    let topo = cluster_for(params, 1, 1);
    let placement = Placement::by_policy(PlacementPolicy::RprPreplaced, params, &topo);
    let profile = BandwidthProfile::simics_default(topo.rack_count());
    let ctx = RepairContext::new(
        &codec,
        &topo,
        &placement,
        vec![BlockId(0), BlockId(1)],
        64 << 20,
        &profile,
        CostModel::simics().scaled_for_block(64 << 20),
    );
    let plan = RprPlanner::new().plan(&ctx);
    plan.validate(&codec, &topo, &placement)
        .expect("valid plan");
    assert_eq!(plan.outputs.len(), 2, "one sub-equation per failed block");

    // Map every op to its sub-equation by walking dependencies backwards
    // from each output op.
    let mut part = vec![usize::MAX; plan.ops.len()];
    for (p, &(_, out)) in plan.outputs.iter().enumerate() {
        let mut stack = vec![out.0];
        while let Some(i) = stack.pop() {
            if part[i] == p {
                continue;
            }
            part[i] = p;
            stack.extend(plan.deps_of(i).iter().map(|d| d.0));
        }
    }

    let (waves, count) = plan.cross_waves(&topo);
    assert_eq!(count, 4, "2 sub-equations x 2 source racks = 4 waves");

    // Every wave carries exactly one cross send, and it lands in the
    // recovery rack (the shared downlink serializes the pipeline).
    let recovery_rack = topo.rack_of(ctx.recovery_node());
    let mut wave_part = vec![usize::MAX; count];
    for (i, op) in plan.ops.iter().enumerate() {
        if let (Op::Send { to, .. }, Some(w)) = (op, waves[i]) {
            assert_eq!(wave_part[w], usize::MAX, "one cross send per wave");
            assert_eq!(topo.rack_of(*to), recovery_rack);
            wave_part[w] = part[i];
        }
    }
    // Sub-equation 0 owns waves {0,1}, sub-equation 1 owns waves {2,3}:
    // contiguous and in output order.
    assert_eq!(wave_part, vec![0, 0, 1, 1], "per-sub-equation wave ranges");

    // The recorded trace reproduces exactly this layout.
    let rec = TraceRecorder::default();
    simulate_traced(&plan, &ctx, &rec);
    let events = rec.take_events();
    let mut traced: Vec<(String, usize)> = events
        .iter()
        .filter_map(|e| match e {
            Event::TransferDone { xfer, .. } if xfer.cross => {
                Some((xfer.label.clone(), xfer.timestep.expect("tagged")))
            }
            _ => None,
        })
        .collect();
    traced.sort_by_key(|&(_, w)| w);
    let expected: Vec<(String, usize)> = {
        let mut v: Vec<(String, usize)> = waves
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.map(|w| (format!("p0op{i}:send"), w)))
            .collect();
        v.sort_by_key(|&(_, w)| w);
        v
    };
    assert_eq!(traced, expected, "trace wave tags match the plan schedule");
    let started = events
        .iter()
        .filter(|e| matches!(e, Event::TimestepStarted { .. }))
        .count();
    assert_eq!(started, 4);
}

#[test]
fn chrome_export_is_valid_json_with_timestep_spans() {
    let events = traced_repair(6, 3);
    let json = export::to_chrome_trace(&events);
    // Structural validity: balanced braces/brackets outside strings. The
    // unit tests in rpr-obs cover escaping; here we check the end-to-end
    // document shape and the timestep spans' presence.
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut esc = false;
    for c in json.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced JSON");
    }
    assert_eq!(depth, 0, "unbalanced JSON");
    assert!(!in_str, "unterminated string");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"name\":\"timestep 0\""));
    assert!(json.contains("\"name\":\"timestep 1\""));
    assert!(json.contains("\"cat\":\"transfer.cross\""));
}
