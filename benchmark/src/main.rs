//! The repo's benchmark harness. One process runs one workload:
//!
//! ```text
//! rpr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out DIR]
//! ```
//!
//! prints one `metric` line per metric and, last, the result as one JSON
//! object. Without `--workload` it runs every workload, each in a child
//! process of its own; `--manifest` prints `BENCHMARK.json`. See `README.md`.

mod gen;
mod metrics;
mod probes;
mod report;
mod runner;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Size;

/// Command-line options; anything malformed is an error, never a default.
pub struct Options {
    pub workload: Option<String>,
    pub manifest: bool,
    pub seed: u64,
    /// Seconds per run: `--seconds`, else `run_seconds` (1 under `--quick`).
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub repeat_check: bool,
    pub out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        manifest: false,
        seed: 17,
        seconds: 0.0,
        trace: false,
        quick: false,
        repeat_check: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            // The driver passes `--trace 0|1`; by hand a bare `--trace` is on.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    o.trace = true;
                }
                _ => o.trace = true,
            },
            "--out" => o.out_dir = PathBuf::from(value()?),
            "--quick" => o.quick = true,
            "--repeat-check" => o.repeat_check = true,
            "--manifest" => o.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let default = if o.quick {
        1.0
    } else {
        metrics::RUN_SECONDS as f64
    };
    o.seconds = seconds.unwrap_or(default);
    Ok(o)
}

impl Options {
    pub fn size(&self) -> Size {
        if self.quick {
            Size::Quick
        } else {
            Size::Full
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|o| {
        if o.manifest {
            print!("{}", metrics::manifest());
            Ok(true)
        } else if let Some(name) = &o.workload {
            run_one(name, &o)
        } else {
            suite::run(&o)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("rpr-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload in this process and print its result. Once a result
/// is printed the exit code is 0: whether the run was correct is in it.
fn run_one(name: &str, o: &Options) -> Result<bool, String> {
    let entry = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            known.join(", ")
        )
    })?;
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    // Probes go first, in a fresh heap: after a workload has grown and
    // freed hundreds of MiB the allocator serves the codec's per-call
    // buffers differently, and the probes would read up to 2.5x apart.
    let probed = o.trace.then(|| probes::run_all(o.seed));
    let m = runner::run(entry, o);
    for why in &m.ops.reasons {
        eprintln!("failed: {why}");
    }
    let metrics = match &probed {
        Some(probes) => {
            let path = o.out_dir.join(format!("trace-{name}.json"));
            std::fs::write(&path, m.tracer.to_json(name, o.seed))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            metrics::per_layer(&m, probes)
        }
        None => metrics::end_to_end(&m),
    };
    for metric in &metrics {
        println!("{}", report::metric_line(metric));
    }
    println!("{}", report::result_json(&m.ops, &metrics));
    Ok(true)
}
