//! The suite: every workload, each in a child process of its own (so peak
//! RSS is the workload's), collected into `out/latest.json`; and
//! `--repeat-check`, which runs the set twice and compares.

use crate::metrics::{END_TO_END, EXACT};
use crate::report::num;
use crate::workloads::WORKLOADS;
use crate::Options;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One child run, parsed back from its `metric` lines and result line.
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// name → (value, unit, samples)
    metrics: BTreeMap<String, (f64, String, u64)>,
}

/// workload name → its run.
type Set = BTreeMap<&'static str, Run>;

pub fn run(o: &Options) -> Result<bool, String> {
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    let began = Instant::now();
    let plain = run_set(o, false)?;
    let traced = if o.trace || o.repeat_check {
        Some(run_set(o, true)?)
    } else {
        None
    };
    let mut ok = all_correct(&plain) && traced.as_ref().is_none_or(all_correct);

    let path = o.out_dir.join("latest.json");
    std::fs::write(&path, latest_json(o, &plain, traced.as_ref()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} ({:.0} s)",
        path.display(),
        began.elapsed().as_secs_f64()
    );

    if o.repeat_check {
        let again = run_set(o, false)?;
        let traced_again = run_set(o, true)?;
        ok &= all_correct(&again) && all_correct(&traced_again);
        ok &= within_bounds(&plain, &again);
        ok &= exactly_equal(traced.as_ref().expect("traced above"), &traced_again);
        println!("repeat check: {}", if ok { "passed" } else { "FAILED" });
    }
    Ok(ok)
}

fn all_correct(set: &Set) -> bool {
    set.values().all(|r| r.correct)
}

fn run_set(o: &Options, trace: bool) -> Result<Set, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut set = Set::new();
    for w in &WORKLOADS {
        println!("== {}{} ==", w.name, if trace { " (traced)" } else { "" });
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&o.out_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if o.quick {
            cmd.arg("--quick");
        }
        let began = Instant::now();
        let out = cmd
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let run = parse_run(&text).ok_or(format!("{}: no result (exit {})", w.name, out.status))?;
        for (name, (value, unit, samples)) in &run.metrics {
            println!("  {name:<28} {value:>16.6} {unit:<10} n={samples}");
        }
        println!(
            "  ops_attempted {} ops_failed {} correct {} ({:.1} s)",
            run.attempted,
            run.failed,
            run.correct,
            began.elapsed().as_secs_f64()
        );
        set.insert(w.name, run);
    }
    Ok(set)
}

/// Read a child's standard output back: `metric <name> <value> <unit>
/// n=<samples>` lines, then the result object on the last line.
fn parse_run(stdout: &str) -> Option<Run> {
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", name, value, unit, samples] = f[..] {
            let samples = samples.strip_prefix("n=")?.parse().ok()?;
            metrics.insert(
                name.to_string(),
                (value.parse().ok()?, unit.to_string(), samples),
            );
        }
    }
    let last = stdout.lines().last()?;
    let field = |key: &str| {
        let rest = last.split_once(&format!("\"{key}\": "))?.1;
        Some(rest.split([',', '}']).next()?.trim().to_string())
    };
    Some(Run {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

fn latest_json(o: &Options, plain: &Set, traced: Option<&Set>) -> String {
    let mut s = format!(
        "{{\n  \"seed\": {},\n  \"quick\": {},\n  \"seconds\": {},\n  \"workloads\": {{\n",
        o.seed,
        o.quick,
        num(o.seconds)
    );
    for (i, (name, run)) in plain.iter().enumerate() {
        let _ = write!(
            s,
            "    \"{name}\": {{\n      \"correct\": {}, \"ops_attempted\": {}, \"ops_failed\": {},\n      \"end_to_end\": {}",
            run.correct,
            run.attempted,
            run.failed,
            metrics_json(run)
        );
        if let Some(t) = traced.and_then(|t| t.get(name)) {
            let _ = write!(s, ",\n      \"per_layer\": {}", metrics_json(t));
        }
        let _ = writeln!(s, "\n    }}{}", if i + 1 < plain.len() { "," } else { "" });
    }
    s.push_str("  }\n}\n");
    s
}

fn metrics_json(run: &Run) -> String {
    let fields: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, (value, unit, samples))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"samples\": {samples}}}",
                num(*value)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Every end-to-end metric of every workload agrees between the two sets
/// to within its bound. Prints each spread.
fn within_bounds(a: &Set, b: &Set) -> bool {
    let mut ok = true;
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "spread", "bound"
    );
    for (name, first) in a {
        for e in &END_TO_END {
            let (x, y) = (first.metrics[e.name].0, b[name].metrics[e.name].0);
            let spread = (x - y).abs() / ((x + y) / 2.0);
            let fine = spread <= e.bound;
            ok &= fine;
            println!(
                "{name:<18} {:<14} {x:>14.4} {y:>14.4} {:>7.1}% {:>5.0}%{}",
                e.name,
                spread * 100.0,
                e.bound * 100.0,
                if fine { "" } else { "  <-- outside its bound" }
            );
        }
    }
    ok
}

/// The simulated-time results repeat exactly, to the last bit.
fn exactly_equal(a: &Set, b: &Set) -> bool {
    let mut ok = true;
    for (name, first) in a {
        for metric in EXACT {
            let (x, y) = (first.metrics[metric].0, b[name].metrics[metric].0);
            if x.to_bits() != y.to_bits() {
                ok = false;
                println!("{name:<18} {metric} drifted: {x} vs {y}");
            }
        }
    }
    println!(
        "simulated results ({}) repeat exactly: {ok}",
        EXACT.join(", ")
    );
    ok
}
