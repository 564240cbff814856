//! Hand-rolled argument parsing (the repository avoids CLI framework
//! dependencies).

use rpr_codec::{BlockId, CodeParams};
use rpr_topology::PlacementPolicy;

/// Usage text.
pub const USAGE: &str = "\
usage:
  rpr plan    --code N,K --fail BLOCKS [options] [--gantt] [--dot]
  rpr compare --code N,K --fail BLOCKS [options]
  rpr trace   --code N,K --fail BLOCKS [options] [--format F] [--out FILE]
  rpr inject  --code N,K --fail BLOCKS [options] [--fault F] [chaos options]
  rpr chaos   --code N,K --fail BLOCKS [options] [--storm LIST] [--seed S]
              [--backend B] [--hedge M] [--deadline S] [--proof MODE]
              [--ledger-out FILE] [--format F] [--out FILE] [--json]
  rpr audit   --trace FILE --ledger FILE [--json]
  rpr fleet   [--code N,K] [--stripes N] [--racks R] [--nodes-per-rack N]
              [--block-mib M] [--ratio R] [--seed S] [--storm LIST]
              [--agg-gbit G] [--no-arbiter] [--threads T] [--churn-rate R]
              [--no-escalate] [--journal FILE] [--resume FILE] [--json]
              [--format F] [--out FILE]
  rpr load    [--mode M] [--code N,K] [--seed S] [--requests N] [--rate R]
              [--read-fraction F] [--zipf T] [--objects N] [--request-mib M]
              [--block-mib M] [--chunk-size M] [--ratio R] [--stripes N]
              [--stagger S] [--share F] [--floor F] [--json]
              [--format F] [--out FILE]
  rpr topo    --code N,K [--placement P]
  rpr analyze [--ti-ms X] [--tc-ms Y]
  rpr kernels [--json]

BLOCKS   comma-separated block names or indices: d1, p0, 3, d0,d2
options:
  --scheme S        rpr | car | chain | traditional | traditional-local (default rpr)
                    inject / chaos: rpr only, the supervisor picks the plan
  --placement P     compact | preplaced | flat                   (default preplaced)
  --block-mib M     block size in MiB                            (default 256)
  --chunk-size M    streaming chunk in MiB, or with a K / M suffix
                    (768K, 1M); payloads cut through hop-to-hop
                    in chunks of that size                       (default off:
                                                                  store-and-forward)
  --ratio R         inner:cross bandwidth ratio                  (default 10)
  --cost C          simics | ec2 | free | measured               (default simics)
                    measured calibrates against this machine's real
                    GF kernels (see docs/PERFORMANCE.md)
trace options (see docs/TRACING.md):
  --format F        chrome | jsonl                               (default chrome;
                                                                  inject, chaos: jsonl)
  --out FILE        write the trace to FILE instead of stdout
inject: `chaos` with a one-fault storm (see docs/ROBUSTNESS.md); takes
every chaos option except --storm:
  --fault F         the storm's only fault, named as in --storm   (default crash)
chaos options (supervised fault storms, see docs/ROBUSTNESS.md):
  --storm LIST      one fault per generation, comma-separated:
                    crash | replacement-crash | timeout | corrupt |
                    slow | rack | lie    (default crash,replacement-crash,timeout)
  --seed S          deterministic fault seed                      (default 17)
  --backend B       sim | exec                                    (default sim)
                    exec moves real bytes: pass a small --block-mib
  --json            machine-readable summary on stdout (the trace
                    is then only written when --out is given)
  --hedge M         hedge a straggler at M x the peer median      (default off)
  --deadline S      repair deadline in (virtual or wall) seconds  (default off)
  --proof MODE      off | advisory | mandatory: repair-proof plane (default off)
                    mandatory convicts Byzantine helpers on evidence
  --ledger-out FILE write the proof ledger (JSON lines) to FILE
audit options (offline proof verification, see docs/ROBUSTNESS.md):
  --trace FILE      the JSONL trace a chaos run recorded with --out
  --ledger FILE     the proof ledger the same run wrote with --ledger-out
                    exits non-zero when the evidence does not verify
fleet options (at-risk backlog drain, see docs/FLEET.md):
  --stripes N       at-risk stripes in the backlog                (default 10000)
  --racks R         physical racks in the cluster                 (default 25)
  --nodes-per-rack N  nodes per rack, 2..=64                      (default 16)
  --storm LIST      per-stripe fault storm, same names as chaos   (default none:
                                                                   clean repairs)
  --agg-gbit G      finite aggregation-switch capacity in Gbit/s  (default off)
  --no-arbiter      disable bandwidth arbitration (stripes never wait)
  --threads T       worker threads for repair costing             (default auto)
  --churn-rate R    live failure arrivals per virtual second,
                    co-simulated with the drain                   (default 0:
                                                                   static backlog)
  --no-escalate     serve churn-hit stripes at their original level
                    instead of escalating their priority
  --journal FILE    write a crash-restartable JSONL journal of the
                    drain (enqueue/admit/complete/lost/checkpoint)
  --resume FILE     replay a journal from an interrupted run: skips
                    completed stripes and re-simulated repair costs
  --json            machine-readable summary on stdout
  --out FILE        write the stripe_enqueued/admitted/bandwidth_waited
                    event stream to FILE (--format chrome | jsonl)
load options (foreground traffic under repair, see docs/FOREGROUND.md):
  --mode M          off | unthrottled | qos: repair tenancy       (default qos)
  --requests N      foreground requests to issue                  (default 240)
  --rate R          open-loop Poisson arrival rate, req/s         (default 40)
  --read-fraction F fraction of requests that are reads           (default 0.9)
  --zipf T          zipfian popularity skew; 0 = uniform          (default 0.9)
  --objects N       distinct objects (object 0 is the lost block) (default 64)
  --request-mib M   bytes moved per request, in MiB               (default 4)
  --stripes N       stripes under repair during the run           (default 4)
  --stagger S       seconds between stripe repair starts          (default 0.25)
  --share F         qos: link fraction reserved for foreground    (default 0.85)
  --floor F         qos: guaranteed repair fraction floor         (default 0.1)
  --json            machine-readable summary on stdout
  --out FILE        write the request/QoS/transfer event stream
                    to FILE (--format chrome | jsonl)
kernels (SIMD dispatch report, see docs/PERFORMANCE.md):
  --json            one JSON object: active and available tiers, dispatched
                    rates, and each tier's own pinned GF fold rate";

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Plan one scheme and report (optionally with Gantt/DOT output).
    Plan(PlanArgs),
    /// Compare all schemes on one scenario.
    Compare(PlanArgs),
    /// Simulate one scheme and dump its structured repair trace.
    Trace(TraceArgs),
    /// Drive a repair through the supervisor under a fault storm: one
    /// seed-picked fault (`inject`) or one per generation (`chaos`, crash
    /// of a replacement helper included).
    Chaos(ChaosArgs),
    /// Drain a fleet-scale backlog of at-risk stripes through the
    /// prioritized, bandwidth-arbitrated repair scheduler.
    Fleet(FleetArgs),
    /// Co-simulate an open-loop foreground workload against a stream of
    /// repairs and report per-request latency quantiles.
    Load(LoadArgs),
    /// Verify a recorded repair offline: replay the proof ledger against
    /// the captured trace and pinpoint the first dishonest hop.
    Audit(AuditArgs),
    /// Print the cluster/placement layout.
    Topo {
        /// Code geometry.
        params: CodeParams,
        /// Placement policy.
        placement: PlacementPolicy,
    },
    /// Print the §4 closed-form analysis table.
    Analyze {
        /// Inner-rack transfer time (ms).
        ti_ms: f64,
        /// Cross-rack transfer time (ms).
        tc_ms: f64,
    },
    /// Report the GF(2^8) kernel tiers this host dispatches to, with
    /// measured throughput.
    Kernels {
        /// Machine-readable JSON instead of the human table.
        json: bool,
    },
}

/// Options shared by `plan` and `compare`.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanArgs {
    /// Code geometry.
    pub params: CodeParams,
    /// Failed blocks.
    pub failed: Vec<BlockId>,
    /// Scheme name (plan only).
    pub scheme: String,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// Block size in bytes.
    pub block_bytes: u64,
    /// Streaming chunk size in bytes; `None` keeps store-and-forward.
    pub chunk_bytes: Option<u64>,
    /// inner:cross bandwidth ratio.
    pub ratio: f64,
    /// Cost model name.
    pub cost: String,
    /// Emit an ASCII Gantt chart.
    pub gantt: bool,
    /// Emit Graphviz DOT.
    pub dot: bool,
}

/// Output format of `rpr trace`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome `trace_event` JSON — load in `chrome://tracing` or Perfetto.
    Chrome,
    /// One JSON object per line (machine-friendly event log).
    Jsonl,
}

/// Options for the `trace` command.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceArgs {
    /// The scenario to trace (same knobs as `plan`).
    pub plan: PlanArgs,
    /// Output format.
    pub format: TraceFormat,
    /// Output path; stdout when absent.
    pub out: Option<String>,
}

/// Which substrate runs the supervised repair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Virtual-clock flow simulator (bit-deterministic traces).
    Sim,
    /// Real-byte executor (wall-clock timing, byte-exact verification).
    Exec,
}

/// One storm generation of `rpr chaos` (`rpr inject` runs exactly one);
/// the concrete site is picked deterministically from the seed each
/// generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosFault {
    /// A seed-picked cross-sending helper crashes.
    Crash,
    /// A helper that joined in the previous replan crashes.
    ReplacementCrash,
    /// One transfer times out once.
    Timeout,
    /// One intermediate arrives corrupted.
    Corrupt,
    /// One helper's links run at 25% for the rest of the repair.
    Slow,
    /// A rack switch drops one timestep's cross transfers once.
    Rack,
    /// A Byzantine helper sends wrong bytes under a valid transport
    /// checksum; only the proof plane can convict it.
    Lie,
}

impl ChaosFault {
    pub(crate) fn from_name(s: &str) -> Result<ChaosFault, String> {
        Ok(match s {
            "crash" => ChaosFault::Crash,
            "replacement-crash" => ChaosFault::ReplacementCrash,
            "timeout" => ChaosFault::Timeout,
            "corrupt" => ChaosFault::Corrupt,
            "slow" => ChaosFault::Slow,
            "rack" => ChaosFault::Rack,
            "lie" => ChaosFault::Lie,
            other => return Err(format!("unknown storm fault `{other}`")),
        })
    }
}

/// Options for the `chaos` and `inject` commands.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosArgs {
    /// The scenario to batter (same knobs as `plan`).
    pub plan: PlanArgs,
    /// Backend that runs the supervised repair.
    pub backend: Backend,
    /// One fault per storm generation, in order.
    pub storm: Vec<ChaosFault>,
    /// Seed driving every site pick across the storm.
    pub seed: u64,
    /// Hedge multiple (straggler detection threshold); off when absent.
    pub hedge: Option<f64>,
    /// Repair deadline in seconds; off when absent.
    pub deadline: Option<f64>,
    /// Proof-plane mode name: `off`, `advisory`, or `mandatory`.
    pub proof: String,
    /// Proof-ledger output path; the ledger is dropped when absent.
    pub ledger_out: Option<String>,
    /// Output format of the trace.
    pub format: TraceFormat,
    /// Trace output path; stdout when absent.
    pub out: Option<String>,
    /// Print a machine-readable summary object on stdout; the trace is
    /// then only written when `out` is set.
    pub json: bool,
}

/// Options for the `audit` command.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditArgs {
    /// Path of the JSONL trace the audited run recorded.
    pub trace: String,
    /// Path of the proof ledger the same run wrote.
    pub ledger: String,
    /// Print a machine-readable verdict object on stdout.
    pub json: bool,
}

/// Options for the `fleet` command.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetArgs {
    /// Code geometry of every stripe.
    pub params: CodeParams,
    /// At-risk stripes in the backlog.
    pub stripes: usize,
    /// Physical racks in the cluster.
    pub racks: usize,
    /// Nodes per rack.
    pub nodes_per_rack: usize,
    /// Block size in bytes.
    pub block_bytes: u64,
    /// inner:cross bandwidth ratio.
    pub ratio: f64,
    /// Master seed (placement, at-risk levels, fault sites).
    pub seed: u64,
    /// Per-stripe fault storm, one fault per generation; empty = clean.
    pub storm: Vec<ChaosFault>,
    /// Finite aggregation-switch capacity in Gbit/s; off when absent.
    pub agg_gbit: Option<f64>,
    /// False disables bandwidth arbitration (`--no-arbiter`).
    pub arbitrate: bool,
    /// Worker threads for repair costing (0 = automatic).
    pub threads: usize,
    /// Live failure arrivals per virtual second; 0 = static backlog.
    pub churn_rate: f64,
    /// False serves churn-hit stripes at their original level
    /// (`--no-escalate`).
    pub escalate: bool,
    /// Write-ahead journal path; no journal is written when absent.
    pub journal: Option<String>,
    /// Journal of an interrupted run to resume from.
    pub resume: Option<String>,
    /// Print a machine-readable summary object on stdout.
    pub json: bool,
    /// Output format of the scheduler event stream.
    pub format: TraceFormat,
    /// Event-stream output path; no events are recorded when absent.
    pub out: Option<String>,
}

/// Repair tenancy of `rpr load` (mirrors `rpr_load::RepairMode`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadModeChoice {
    /// No repair traffic: the pre-failure latency baseline.
    Off,
    /// Repair competes with client traffic at full link rate.
    Unthrottled,
    /// Foreground-priority QoS (`--share` / `--floor`).
    Qos,
}

/// Options for the `load` command.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadArgs {
    /// Code geometry.
    pub params: CodeParams,
    /// Repair tenancy mode.
    pub mode: LoadModeChoice,
    /// Workload seed.
    pub seed: u64,
    /// Foreground requests to issue.
    pub requests: usize,
    /// Open-loop arrival rate, requests/second.
    pub rate: f64,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Zipfian popularity skew.
    pub zipf: f64,
    /// Distinct objects.
    pub objects: usize,
    /// Bytes per request.
    pub request_bytes: u64,
    /// Stripe block size in bytes.
    pub block_bytes: u64,
    /// Streaming chunk size in bytes.
    pub chunk_bytes: Option<u64>,
    /// inner:cross bandwidth ratio.
    pub ratio: f64,
    /// Stripes under repair during the run.
    pub stripes: usize,
    /// Seconds between stripe repair starts.
    pub stagger: f64,
    /// QoS: link fraction reserved for foreground traffic.
    pub share: f64,
    /// QoS: guaranteed repair fraction floor.
    pub floor: f64,
    /// Print a machine-readable summary object on stdout.
    pub json: bool,
    /// Output format of the event stream.
    pub format: TraceFormat,
    /// Event-stream output path; no events are recorded when absent.
    pub out: Option<String>,
}

/// Parse a code spec like `6,2` or `12,4`.
pub fn parse_code(s: &str) -> Result<CodeParams, String> {
    let (n, k) = s
        .split_once(',')
        .ok_or_else(|| format!("bad --code `{s}`, expected N,K"))?;
    let n: usize = n.trim().parse().map_err(|_| format!("bad n in `{s}`"))?;
    let k: usize = k.trim().parse().map_err(|_| format!("bad k in `{s}`"))?;
    if n < 1 || k < 1 || n + k > 256 {
        return Err(format!("code ({n},{k}) out of range"));
    }
    if k > n {
        return Err(format!("code ({n},{k}): k > n is not supported"));
    }
    Ok(CodeParams::new(n, k))
}

/// Parse a failed-block list like `d1`, `p0,d3`, or `0,7`.
pub fn parse_failed(s: &str, params: CodeParams) -> Result<Vec<BlockId>, String> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        let id = if let Some(rest) = part.strip_prefix('d') {
            let i: usize = rest.parse().map_err(|_| format!("bad block `{part}`"))?;
            if i >= params.n {
                return Err(format!("data block `{part}` out of range (n={})", params.n));
            }
            i
        } else if let Some(rest) = part.strip_prefix('p') {
            let i: usize = rest.parse().map_err(|_| format!("bad block `{part}`"))?;
            if i >= params.k {
                return Err(format!(
                    "parity block `{part}` out of range (k={})",
                    params.k
                ));
            }
            params.n + i
        } else {
            let i: usize = part.parse().map_err(|_| format!("bad block `{part}`"))?;
            if i >= params.total() {
                return Err(format!("block index `{part}` out of range"));
            }
            i
        };
        out.push(BlockId(id));
    }
    if out.is_empty() {
        return Err("no failed blocks given".into());
    }
    if out.len() > params.k {
        return Err(format!(
            "{} failures exceed k = {} (unrecoverable)",
            out.len(),
            params.k
        ));
    }
    Ok(out)
}

pub(crate) fn parse_placement(s: &str) -> Result<PlacementPolicy, String> {
    match s {
        "compact" => Ok(PlacementPolicy::Compact),
        "preplaced" => Ok(PlacementPolicy::RprPreplaced),
        "flat" => Ok(PlacementPolicy::Flat),
        other => Err(format!("unknown placement `{other}`")),
    }
}

/// A tiny flag-walker: `--key value` pairs plus boolean flags. It
/// remembers every key a verb looked up, so [`Flags::finish`] can reject
/// whatever the verb never asked about without a per-verb list of flags.
struct Flags<'a> {
    rest: &'a [String],
    /// Keys looked up so far, and whether each takes a value.
    asked: std::cell::RefCell<Vec<(&'static str, bool)>>,
}

impl<'a> Flags<'a> {
    /// The value after `key`; `None` also when the value is missing (the
    /// flag is last, or another `--flag` follows), which `finish` reports.
    fn get(&self, key: &'static str) -> Option<&'a str> {
        self.asked.borrow_mut().push((key, true));
        let i = self.rest.iter().position(|a| a == key)?;
        let value = self.rest.get(i + 1)?;
        (!value.starts_with("--")).then_some(value.as_str())
    }

    fn has(&self, key: &'static str) -> bool {
        self.asked.borrow_mut().push((key, false));
        self.rest.iter().any(|a| a == key)
    }

    /// A numeric flag, `None` when absent.
    fn opt_num<T: std::str::FromStr>(&self, key: &'static str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("bad {key}")))
            .transpose()
    }

    /// A numeric flag with a default.
    fn num<T: std::str::FromStr>(&self, key: &'static str, default: T) -> Result<T, String> {
        Ok(self.opt_num(key)?.unwrap_or(default))
    }

    /// A size flag in bytes, `None` when absent: a count of MiB, or —
    /// where `suffixed` — of KiB or MiB with a `K` or `M` suffix (`768K`,
    /// `1M`). Zero, and a size past `u64`, are errors.
    fn opt_bytes(&self, key: &'static str, suffixed: bool) -> Result<Option<u64>, String> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        let (count, shift) = match (v.strip_suffix('K'), v.strip_suffix('M')) {
            (Some(kib), _) if suffixed => (kib, 10),
            (_, Some(mib)) if suffixed => (mib, 20),
            _ => (v, 20),
        };
        let count: u64 = count.parse().map_err(|_| format!("bad {key}"))?;
        match count.checked_mul(1 << shift) {
            Some(0) => Err(format!("{key} must be positive")),
            Some(bytes) => Ok(Some(bytes)),
            None => Err(format!("{key} {v} is more bytes than a u64 holds")),
        }
    }

    /// `--block-mib` as bytes.
    fn block_bytes(&self, default_mib: u64) -> Result<u64, String> {
        Ok(self
            .opt_bytes("--block-mib", false)?
            .unwrap_or(default_mib << 20))
    }

    /// `--ratio`, the inner:cross bandwidth ratio.
    fn ratio(&self) -> Result<f64, String> {
        let ratio: f64 = self.num("--ratio", 10.0)?;
        if !(ratio >= 1.0 && ratio.is_finite()) {
            return Err("--ratio must be >= 1".into());
        }
        Ok(ratio)
    }

    fn trace_format(&self, default: TraceFormat) -> Result<TraceFormat, String> {
        match self.get("--format") {
            None => Ok(default),
            Some("chrome") => Ok(TraceFormat::Chrome),
            Some("jsonl") => Ok(TraceFormat::Jsonl),
            Some(other) => Err(format!("unknown trace format `{other}`")),
        }
    }

    /// Reject what the lookups above would silently skip: a `--flag` the
    /// verb never asked about, a value-taking flag without a value, and a
    /// token that is neither a flag nor a flag's value.
    fn finish(&self, verb: &str) -> Result<(), String> {
        let asked = self.asked.borrow();
        let mut args = self.rest.iter().peekable();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                return Err(format!("unexpected argument `{arg}` for `rpr {verb}`"));
            }
            match asked.iter().find(|(key, _)| key == arg) {
                None => return Err(format!("unknown flag `{arg}` for `rpr {verb}`")),
                Some((_, false)) => {}
                Some((_, true)) => {
                    if args.next_if(|v| !v.starts_with("--")).is_none() {
                        return Err(format!("flag `{arg}` needs a value"));
                    }
                }
            }
        }
        Ok(())
    }
}

fn parse_storm(list: &str) -> Result<Vec<ChaosFault>, String> {
    list.split(',')
        .map(|s| ChaosFault::from_name(s.trim()))
        .collect()
}

/// Parse argv into a [`Command`].
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some(verb) = argv.first() else {
        return Err("missing command".into());
    };
    let flags = Flags {
        rest: &argv[1..],
        asked: Default::default(),
    };

    let cmd = match verb.as_str() {
        "analyze" => Command::Analyze {
            ti_ms: flags.num("--ti-ms", 1.0)?,
            tc_ms: flags.num("--tc-ms", 10.0)?,
        },
        "kernels" => Command::Kernels {
            json: flags.has("--json"),
        },
        "audit" => Command::Audit(AuditArgs {
            trace: flags.get("--trace").ok_or("missing --trace")?.to_string(),
            ledger: flags.get("--ledger").ok_or("missing --ledger")?.to_string(),
            json: flags.has("--json"),
        }),
        "topo" => {
            let params = parse_code(flags.get("--code").ok_or("missing --code")?)?;
            let placement = parse_placement(flags.get("--placement").unwrap_or("preplaced"))?;
            Command::Topo { params, placement }
        }
        "fleet" => {
            let params = parse_code(flags.get("--code").unwrap_or("6,3"))?;
            let stripes: usize = flags.num("--stripes", 10_000)?;
            if stripes == 0 {
                return Err("--stripes must be positive".into());
            }
            let racks: usize = flags.num("--racks", 25)?;
            if racks < params.rack_count() {
                return Err(format!(
                    "--racks {racks} too small: RS({},{}) stripes span {} racks",
                    params.n,
                    params.k,
                    params.rack_count()
                ));
            }
            let nodes_per_rack: usize = flags.num("--nodes-per-rack", 16)?;
            if nodes_per_rack <= params.k || nodes_per_rack > 64 {
                return Err(format!(
                    "--nodes-per-rack must be in {}..=64 (each rack hosts up to k = {} \
                     blocks plus a spare)",
                    params.k + 1,
                    params.k
                ));
            }
            let block_bytes = flags.block_bytes(256)?;
            let ratio = flags.ratio()?;
            let storm = flags.get("--storm").map_or(Ok(Vec::new()), parse_storm)?;
            let agg_gbit: Option<f64> = flags.opt_num("--agg-gbit")?;
            if agg_gbit.is_some_and(|g| !(g > 0.0 && g.is_finite())) {
                return Err("--agg-gbit must be positive".into());
            }
            let threads: usize = flags.num("--threads", 0)?;
            let churn_rate: f64 = flags.num("--churn-rate", 0.0)?;
            if !(churn_rate >= 0.0 && churn_rate.is_finite()) {
                return Err("--churn-rate must be finite and >= 0".into());
            }
            Command::Fleet(FleetArgs {
                params,
                stripes,
                racks,
                nodes_per_rack,
                block_bytes,
                ratio,
                seed: flags.num("--seed", 17)?,
                storm,
                agg_gbit,
                arbitrate: !flags.has("--no-arbiter"),
                threads,
                churn_rate,
                escalate: !flags.has("--no-escalate"),
                journal: flags.get("--journal").map(String::from),
                resume: flags.get("--resume").map(String::from),
                json: flags.has("--json"),
                format: flags.trace_format(TraceFormat::Jsonl)?,
                out: flags.get("--out").map(String::from),
            })
        }
        "load" => {
            let params = parse_code(flags.get("--code").unwrap_or("6,3"))?;
            let mode = match flags.get("--mode").unwrap_or("qos") {
                "off" => LoadModeChoice::Off,
                "unthrottled" => LoadModeChoice::Unthrottled,
                "qos" => LoadModeChoice::Qos,
                other => return Err(format!("unknown load mode `{other}`")),
            };
            let requests: usize = flags.num("--requests", 240)?;
            if requests == 0 {
                return Err("--requests must be positive".into());
            }
            let rate: f64 = flags.num("--rate", 40.0)?;
            if !(rate > 0.0 && rate.is_finite()) {
                return Err("--rate must be positive".into());
            }
            let read_fraction: f64 = flags.num("--read-fraction", 0.9)?;
            if !(0.0..=1.0).contains(&read_fraction) {
                return Err("--read-fraction must be in [0, 1]".into());
            }
            let zipf: f64 = flags.num("--zipf", 0.9)?;
            if !(zipf >= 0.0 && zipf.is_finite()) {
                return Err("--zipf must be non-negative".into());
            }
            let objects: usize = flags.num("--objects", 64)?;
            if objects == 0 {
                return Err("--objects must be positive".into());
            }
            let request_bytes = flags.opt_bytes("--request-mib", false)?.unwrap_or(4 << 20);
            let block_bytes = flags.block_bytes(64)?;
            let chunk_bytes = flags.opt_bytes("--chunk-size", true)?.unwrap_or(8 << 20);
            let ratio = flags.ratio()?;
            let stripes: usize = flags.num("--stripes", 4)?;
            let stagger: f64 = flags.num("--stagger", 0.25)?;
            if !(stagger >= 0.0 && stagger.is_finite()) {
                return Err("--stagger must be non-negative".into());
            }
            let share: f64 = flags.num("--share", 0.85)?;
            if !(0.0..1.0).contains(&share) {
                return Err("--share must be in [0, 1)".into());
            }
            let floor: f64 = flags.num("--floor", 0.1)?;
            if !(floor > 0.0 && floor <= 1.0) {
                return Err("--floor must be in (0, 1]".into());
            }
            Command::Load(LoadArgs {
                params,
                mode,
                seed: flags.num("--seed", 17)?,
                requests,
                rate,
                read_fraction,
                zipf,
                objects,
                request_bytes,
                block_bytes,
                chunk_bytes: Some(chunk_bytes),
                ratio,
                stripes,
                stagger,
                share,
                floor,
                json: flags.has("--json"),
                format: flags.trace_format(TraceFormat::Jsonl)?,
                out: flags.get("--out").map(String::from),
            })
        }
        "plan" | "compare" | "trace" | "inject" | "chaos" => {
            let params = parse_code(flags.get("--code").ok_or("missing --code")?)?;
            let failed = parse_failed(flags.get("--fail").ok_or("missing --fail")?, params)?;
            let block_bytes = flags.block_bytes(256)?;
            let chunk_bytes = flags.opt_bytes("--chunk-size", true)?;
            let ratio = flags.ratio()?;
            let scheme = flags.get("--scheme").unwrap_or("rpr").to_string();
            if !matches!(
                scheme.as_str(),
                "rpr" | "car" | "chain" | "traditional" | "traditional-local"
            ) {
                return Err(format!("unknown scheme `{scheme}`"));
            }
            if matches!(verb.as_str(), "inject" | "chaos") && scheme != "rpr" {
                return Err(format!(
                    "--scheme {scheme}: the supervisor chooses the plan (RPR first, then \
                     CAR, then traditional); `{verb}` accepts only --scheme rpr"
                ));
            }
            let cost = flags.get("--cost").unwrap_or("simics").to_string();
            if !matches!(cost.as_str(), "simics" | "ec2" | "free" | "measured") {
                return Err(format!("unknown cost model `{cost}`"));
            }
            let args = PlanArgs {
                params,
                failed,
                scheme,
                placement: parse_placement(flags.get("--placement").unwrap_or("preplaced"))?,
                block_bytes,
                chunk_bytes,
                ratio,
                cost,
                gantt: flags.has("--gantt"),
                dot: flags.has("--dot"),
            };
            match verb.as_str() {
                "plan" => Command::Plan(args),
                "compare" => Command::Compare(args),
                "trace" => Command::Trace(TraceArgs {
                    plan: args,
                    format: flags.trace_format(TraceFormat::Chrome)?,
                    out: flags.get("--out").map(String::from),
                }),
                _ => {
                    let backend = match flags.get("--backend").unwrap_or("sim") {
                        "sim" => Backend::Sim,
                        "exec" => Backend::Exec,
                        other => return Err(format!("unknown backend `{other}`")),
                    };
                    let storm = match verb.as_str() {
                        // `inject` is `chaos` with a one-fault storm.
                        "inject" => {
                            vec![ChaosFault::from_name(
                                flags.get("--fault").unwrap_or("crash"),
                            )?]
                        }
                        _ => parse_storm(
                            flags
                                .get("--storm")
                                .unwrap_or("crash,replacement-crash,timeout"),
                        )?,
                    };
                    if storm.is_empty() {
                        return Err("--storm needs at least one fault".into());
                    }
                    let hedge: Option<f64> = flags.opt_num("--hedge")?;
                    if hedge.is_some_and(|m| !(m > 1.0 && m.is_finite())) {
                        return Err("--hedge must be > 1".into());
                    }
                    let deadline: Option<f64> = flags.opt_num("--deadline")?;
                    if deadline.is_some_and(|d| !(d > 0.0 && d.is_finite())) {
                        return Err("--deadline must be positive".into());
                    }
                    let proof = flags.get("--proof").unwrap_or("off").to_string();
                    if !matches!(proof.as_str(), "off" | "advisory" | "mandatory") {
                        return Err(format!("unknown proof mode `{proof}`"));
                    }
                    Command::Chaos(ChaosArgs {
                        plan: args,
                        backend,
                        storm,
                        seed: flags.num("--seed", 17)?,
                        hedge,
                        deadline,
                        proof,
                        ledger_out: flags.get("--ledger-out").map(String::from),
                        // JSONL by default: degraded traces exist to be diffed.
                        format: flags.trace_format(TraceFormat::Jsonl)?,
                        out: flags.get("--out").map(String::from),
                        json: flags.has("--json"),
                    })
                }
            }
        }
        other => return Err(format!("unknown command `{other}`")),
    };
    flags.finish(verb)?;
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_code_accepts_and_rejects() {
        assert_eq!(parse_code("6,2").unwrap(), CodeParams::new(6, 2));
        assert_eq!(parse_code(" 12 , 4 ").unwrap(), CodeParams::new(12, 4));
        assert!(parse_code("6").is_err());
        assert!(parse_code("0,2").is_err());
        assert!(parse_code("2,6").is_err(), "k > n rejected");
        assert!(parse_code("200,100").is_err());
    }

    #[test]
    fn parse_failed_names_and_indices() {
        let p = CodeParams::new(6, 2);
        assert_eq!(parse_failed("d1", p).unwrap(), vec![BlockId(1)]);
        assert_eq!(parse_failed("p0", p).unwrap(), vec![BlockId(6)]);
        assert_eq!(
            parse_failed("d0,p1", p).unwrap(),
            vec![BlockId(0), BlockId(7)]
        );
        assert_eq!(parse_failed("3", p).unwrap(), vec![BlockId(3)]);
        assert!(parse_failed("d9", p).is_err());
        assert!(parse_failed("p2", p).is_err());
        assert!(parse_failed("x1", p).is_err());
        assert!(parse_failed("d0,d1,d2", p).is_err(), "more than k");
    }

    #[test]
    fn parse_full_plan_command() {
        let cmd = parse(&argv(
            "plan --code 6,2 --fail d1 --scheme car --placement compact \
             --block-mib 64 --ratio 5 --gantt",
        ))
        .unwrap();
        match cmd {
            Command::Plan(a) => {
                assert_eq!(a.params, CodeParams::new(6, 2));
                assert_eq!(a.failed, vec![BlockId(1)]);
                assert_eq!(a.scheme, "car");
                assert_eq!(a.placement, PlacementPolicy::Compact);
                assert_eq!(a.block_bytes, 64 << 20);
                assert_eq!(a.chunk_bytes, None, "streaming is off by default");
                assert_eq!(a.ratio, 5.0);
                assert!(a.gantt && !a.dot);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_defaults() {
        let cmd = parse(&argv("compare --code 4,2 --fail 0")).unwrap();
        match cmd {
            Command::Compare(a) => {
                assert_eq!(a.scheme, "rpr");
                assert_eq!(a.placement, PlacementPolicy::RprPreplaced);
                assert_eq!(a.block_bytes, 256 << 20);
                assert_eq!(a.cost, "simics");
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_trace_command() {
        let cmd = parse(&argv(
            "trace --code 6,3 --fail d1 --format jsonl --out repair.jsonl",
        ))
        .unwrap();
        match cmd {
            Command::Trace(t) => {
                assert_eq!(t.plan.params, CodeParams::new(6, 3));
                assert_eq!(t.format, TraceFormat::Jsonl);
                assert_eq!(t.out.as_deref(), Some("repair.jsonl"));
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("trace --code 4,2 --fail d0")).unwrap() {
            Command::Trace(t) => {
                assert_eq!(t.format, TraceFormat::Chrome, "chrome is the default");
                assert_eq!(t.out, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("trace --code 4,2 --fail d0 --format xml")).is_err());
    }

    #[test]
    fn parse_inject_command() {
        let cmd = parse(&argv(
            "inject --code 6,3 --fail d1 --fault timeout --seed 4242 \
             --backend exec --format chrome --out chaos.json --json",
        ))
        .unwrap();
        match cmd {
            Command::Chaos(c) => {
                assert_eq!(c.plan.params, CodeParams::new(6, 3));
                assert_eq!(c.storm, vec![ChaosFault::Timeout]);
                assert_eq!(c.backend, Backend::Exec);
                assert_eq!(c.seed, 4242);
                assert_eq!(c.format, TraceFormat::Chrome);
                assert_eq!(c.out.as_deref(), Some("chaos.json"));
                assert!(c.json);
            }
            other => panic!("wrong command {other:?}"),
        }
        // `inject` is `chaos` with a one-fault storm, nothing else.
        assert_eq!(
            parse(&argv("inject --code 6,3 --fail d1")).unwrap(),
            parse(&argv("chaos --code 6,3 --fail d1 --storm crash")).unwrap(),
            "crash is the default fault; sim, seed 17, jsonl, no --json as for chaos"
        );
        assert!(parse(&argv("inject --code 6,3 --fail d1 --fault meteor")).is_err());
        assert!(parse(&argv("inject --code 6,3 --fail d1 --fault crash,timeout")).is_err());
        assert!(parse(&argv("inject --code 6,3 --fail d1 --backend fpga")).is_err());
        assert!(parse(&argv("inject --code 6,3 --fail d1 --seed -1")).is_err());
    }

    #[test]
    fn inject_and_chaos_reject_a_scheme_the_supervisor_would_ignore() {
        for verb in ["inject", "chaos"] {
            for scheme in ["car", "chain", "traditional", "traditional-local"] {
                let err = parse(&argv(&format!(
                    "{verb} --code 6,3 --fail d1 --scheme {scheme}"
                )))
                .unwrap_err();
                assert!(err.contains("the supervisor chooses the plan"), "{err}");
            }
            assert!(parse(&argv(&format!("{verb} --code 6,3 --fail d1 --scheme rpr"))).is_ok());
            let err =
                parse(&argv(&format!("{verb} --code 6,3 --fail d1 --scheme nope"))).unwrap_err();
            assert!(err.contains("unknown scheme"), "{err}");
        }
        // Every other verb still takes any scheme.
        assert!(parse(&argv("trace --code 6,3 --fail d1 --scheme car")).is_ok());
    }

    #[test]
    fn parse_chaos_command() {
        let cmd = parse(&argv(
            "chaos --code 6,3 --fail d1 --storm crash,replacement-crash,timeout \
             --seed 99 --backend exec --block-mib 1 --hedge 2.5 --deadline 30 \
             --json --out storm.jsonl",
        ))
        .unwrap();
        match cmd {
            Command::Chaos(c) => {
                assert_eq!(c.plan.params, CodeParams::new(6, 3));
                assert_eq!(
                    c.storm,
                    vec![
                        ChaosFault::Crash,
                        ChaosFault::ReplacementCrash,
                        ChaosFault::Timeout
                    ]
                );
                assert_eq!(c.seed, 99);
                assert_eq!(c.backend, Backend::Exec);
                assert_eq!(c.hedge, Some(2.5));
                assert_eq!(c.deadline, Some(30.0));
                assert!(c.json);
                assert_eq!(c.out.as_deref(), Some("storm.jsonl"));
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("chaos --code 6,3 --fail d1")).unwrap() {
            Command::Chaos(c) => {
                assert_eq!(
                    c.storm,
                    vec![
                        ChaosFault::Crash,
                        ChaosFault::ReplacementCrash,
                        ChaosFault::Timeout
                    ],
                    "the acceptance storm is the default"
                );
                assert_eq!(c.backend, Backend::Sim);
                assert_eq!(c.hedge, None);
                assert_eq!(c.deadline, None);
                assert!(!c.json);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("chaos --code 6,3 --fail d1 --storm meteor")).is_err());
        assert!(parse(&argv("chaos --code 6,3 --fail d1 --hedge 0.5")).is_err());
        assert!(parse(&argv("chaos --code 6,3 --fail d1 --deadline -4")).is_err());
    }

    #[test]
    fn parse_chaos_proof_flags() {
        let cmd = parse(&argv(
            "chaos --code 6,3 --fail d1 --storm lie --proof mandatory \
             --ledger-out proofs.jsonl",
        ))
        .unwrap();
        match cmd {
            Command::Chaos(c) => {
                assert_eq!(c.storm, vec![ChaosFault::Lie]);
                assert_eq!(c.proof, "mandatory");
                assert_eq!(c.ledger_out.as_deref(), Some("proofs.jsonl"));
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("chaos --code 6,3 --fail d1")).unwrap() {
            Command::Chaos(c) => {
                assert_eq!(c.proof, "off", "proofs are off by default");
                assert_eq!(c.ledger_out, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("chaos --code 6,3 --fail d1 --proof maybe")).is_err());
    }

    #[test]
    fn parse_audit_command() {
        let cmd = parse(&argv("audit --trace t.jsonl --ledger l.jsonl --json")).unwrap();
        assert_eq!(
            cmd,
            Command::Audit(AuditArgs {
                trace: "t.jsonl".to_string(),
                ledger: "l.jsonl".to_string(),
                json: true,
            })
        );
        assert!(
            parse(&argv("audit --ledger l.jsonl")).is_err(),
            "missing --trace"
        );
        assert!(
            parse(&argv("audit --trace t.jsonl")).is_err(),
            "missing --ledger"
        );
    }

    #[test]
    fn parse_fleet_command() {
        let cmd = parse(&argv(
            "fleet --code 4,2 --stripes 5000 --racks 12 --nodes-per-rack 8 \
             --block-mib 64 --ratio 5 --seed 99 --storm crash,timeout \
             --agg-gbit 4 --no-arbiter --threads 2 --churn-rate 0.5 \
             --no-escalate --journal j.jsonl --resume old.jsonl --json \
             --out fleet.jsonl",
        ))
        .unwrap();
        match cmd {
            Command::Fleet(f) => {
                assert_eq!(f.params, CodeParams::new(4, 2));
                assert_eq!(f.stripes, 5000);
                assert_eq!(f.racks, 12);
                assert_eq!(f.nodes_per_rack, 8);
                assert_eq!(f.block_bytes, 64 << 20);
                assert_eq!(f.ratio, 5.0);
                assert_eq!(f.seed, 99);
                assert_eq!(f.storm, vec![ChaosFault::Crash, ChaosFault::Timeout]);
                assert_eq!(f.agg_gbit, Some(4.0));
                assert!(!f.arbitrate);
                assert_eq!(f.threads, 2);
                assert_eq!(f.churn_rate, 0.5);
                assert!(!f.escalate);
                assert_eq!(f.journal.as_deref(), Some("j.jsonl"));
                assert_eq!(f.resume.as_deref(), Some("old.jsonl"));
                assert!(f.json);
                assert_eq!(f.out.as_deref(), Some("fleet.jsonl"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_fleet_defaults() {
        match parse(&argv("fleet")).unwrap() {
            Command::Fleet(f) => {
                assert_eq!(f.params, CodeParams::new(6, 3), "paper code by default");
                assert_eq!(f.stripes, 10_000);
                assert_eq!(f.racks, 25);
                assert_eq!(f.nodes_per_rack, 16);
                assert_eq!(f.block_bytes, 256 << 20);
                assert_eq!(f.seed, 17);
                assert!(f.storm.is_empty(), "clean repairs by default");
                assert_eq!(f.agg_gbit, None);
                assert!(f.arbitrate, "arbitration is on by default");
                assert_eq!(f.threads, 0);
                assert_eq!(f.churn_rate, 0.0, "static backlog by default");
                assert!(f.escalate, "churn hits escalate by default");
                assert_eq!(f.journal, None);
                assert_eq!(f.resume, None);
                assert!(!f.json);
                assert_eq!(f.format, TraceFormat::Jsonl);
                assert_eq!(f.out, None);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_fleet_rejects_bad_input() {
        assert!(parse(&argv("fleet --stripes 0")).is_err());
        assert!(
            parse(&argv("fleet --racks 2")).is_err(),
            "fewer than q racks"
        );
        assert!(
            parse(&argv("fleet --code 4,2 --nodes-per-rack 2")).is_err(),
            "no spare node beyond k blocks"
        );
        assert!(parse(&argv("fleet --nodes-per-rack 65")).is_err());
        assert!(parse(&argv("fleet --storm meteor")).is_err());
        assert!(parse(&argv("fleet --agg-gbit 0")).is_err());
        assert!(parse(&argv("fleet --churn-rate -1")).is_err());
        assert!(parse(&argv("fleet --churn-rate inf")).is_err());
        assert!(parse(&argv("fleet --format xml")).is_err());
    }

    #[test]
    fn parse_load_command() {
        let cmd = parse(&argv(
            "load --mode unthrottled --code 4,2 --seed 99 --requests 100 \
             --rate 25 --read-fraction 0.8 --zipf 1.1 --objects 32 \
             --request-mib 2 --block-mib 32 --chunk-size 4 --ratio 5 \
             --stripes 2 --stagger 0.5 --share 0.7 --floor 0.2 --json \
             --out load.jsonl",
        ))
        .unwrap();
        match cmd {
            Command::Load(l) => {
                assert_eq!(l.mode, LoadModeChoice::Unthrottled);
                assert_eq!(l.params, CodeParams::new(4, 2));
                assert_eq!(l.seed, 99);
                assert_eq!(l.requests, 100);
                assert_eq!(l.rate, 25.0);
                assert_eq!(l.read_fraction, 0.8);
                assert_eq!(l.zipf, 1.1);
                assert_eq!(l.objects, 32);
                assert_eq!(l.request_bytes, 2 << 20);
                assert_eq!(l.block_bytes, 32 << 20);
                assert_eq!(l.chunk_bytes, Some(4 << 20));
                assert_eq!(l.ratio, 5.0);
                assert_eq!(l.stripes, 2);
                assert_eq!(l.stagger, 0.5);
                assert_eq!(l.share, 0.7);
                assert_eq!(l.floor, 0.2);
                assert!(l.json);
                assert_eq!(l.out.as_deref(), Some("load.jsonl"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_load_defaults() {
        match parse(&argv("load")).unwrap() {
            Command::Load(l) => {
                assert_eq!(l.mode, LoadModeChoice::Qos, "qos by default");
                assert_eq!(l.params, CodeParams::new(6, 3), "paper code");
                assert_eq!(l.seed, 17);
                assert_eq!(l.requests, 240);
                assert_eq!(l.rate, 40.0);
                assert_eq!(l.read_fraction, 0.9);
                assert_eq!(l.zipf, 0.9);
                assert_eq!(l.objects, 64);
                assert_eq!(l.request_bytes, 4 << 20);
                assert_eq!(l.block_bytes, 64 << 20);
                assert_eq!(l.chunk_bytes, Some(8 << 20));
                assert_eq!(l.stripes, 4);
                assert_eq!(l.stagger, 0.25);
                assert_eq!(l.share, 0.85);
                assert_eq!(l.floor, 0.1);
                assert!(!l.json);
                assert_eq!(l.format, TraceFormat::Jsonl);
                assert_eq!(l.out, None);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_load_rejects_bad_input() {
        assert!(parse(&argv("load --mode sometimes")).is_err());
        assert!(parse(&argv("load --requests 0")).is_err());
        assert!(parse(&argv("load --rate 0")).is_err());
        assert!(parse(&argv("load --read-fraction 1.5")).is_err());
        assert!(parse(&argv("load --zipf -1")).is_err());
        assert!(parse(&argv("load --objects 0")).is_err());
        assert!(parse(&argv("load --share 1.0")).is_err());
        assert!(parse(&argv("load --floor 0")).is_err());
        assert!(parse(&argv("load --stagger -1")).is_err());
        assert!(parse(&argv("load --format xml")).is_err());
    }

    #[test]
    fn parse_chunk_size_flag() {
        match parse(&argv("plan --code 6,3 --fail d1 --chunk-size 8")).unwrap() {
            Command::Plan(a) => assert_eq!(a.chunk_bytes, Some(8 << 20)),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("compare --code 6,3 --fail d1 --chunk-size 1")).unwrap() {
            Command::Compare(a) => assert_eq!(a.chunk_bytes, Some(1 << 20)),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("plan --code 6,3 --fail d1 --chunk-size 0")).is_err());
        assert!(parse(&argv("plan --code 6,3 --fail d1 --chunk-size lots")).is_err());
        // A K or M suffix counts KiB or MiB; a bare integer stays MiB.
        let chunk = |v: &str| parse(&argv(&format!("plan --code 6,3 --fail 1 --chunk-size {v}")));
        for (flag, bytes) in [
            ("32K", 32 << 10),
            ("768K", 768 << 10),
            ("1M", 1 << 20),
            ("8M", 8 << 20),
            ("17592186044415", u64::MAX - (1 << 20) + 1),
        ] {
            match chunk(flag) {
                Ok(Command::Plan(a)) => assert_eq!(a.chunk_bytes, Some(bytes), "{flag}"),
                other => panic!("--chunk-size {flag}: {other:?}"),
            }
        }
        match parse(&argv("load --chunk-size 768K")).unwrap() {
            Command::Load(l) => assert_eq!(l.chunk_bytes, Some(768 << 10)),
            other => panic!("wrong command {other:?}"),
        }
        // Past u64 (2^44 MiB = 2^64 bytes), zero with a suffix, and a
        // bare or foreign suffix are errors, never a wrapped size.
        for flag in [
            "17592186044416",
            "17592186044417",
            "18014398509481984K",
            "0K",
            "0M",
            "K",
            "M",
            "1G",
            "1k",
            "1KM",
            "-1K",
        ] {
            assert!(chunk(flag).is_err(), "{flag}");
        }
    }

    #[test]
    fn parse_kernels_command() {
        assert_eq!(
            parse(&argv("kernels")).unwrap(),
            Command::Kernels { json: false }
        );
        assert_eq!(
            parse(&argv("kernels --json")).unwrap(),
            Command::Kernels { json: true }
        );
    }

    #[test]
    fn parse_measured_cost_model() {
        match parse(&argv("plan --code 6,3 --fail d1 --cost measured")).unwrap() {
            Command::Plan(a) => assert_eq!(a.cost, "measured"),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("plan --code 6,3 --fail d1 --cost guess")).is_err());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("plan --fail d0")).is_err(), "missing --code");
        assert!(parse(&argv("plan --code 4,2")).is_err(), "missing --fail");
        assert!(parse(&argv("plan --code 4,2 --fail d0 --scheme nope")).is_err());
        assert!(parse(&argv("plan --code 4,2 --fail d0 --ratio 0.5")).is_err());
        assert!(parse(&argv("plan --code 4,2 --fail d0 --block-mib 0")).is_err());
        // 2^44 MiB is 2^64 bytes: an overflow is an error, not a zero or
        // a wrapped block, and the size flags without a suffix take none.
        for flag in ["--block-mib", "--request-mib"] {
            for value in ["17592186044416", "17592186044417", "1K", "1M"] {
                let line = format!("load {flag} {value}");
                assert!(parse(&argv(&line)).is_err(), "{line}");
            }
        }
        let block = |v: &str| parse(&argv(&format!("plan --code 6,3 --fail 1 --block-mib {v}")));
        assert!(block("17592186044416").is_err());
        assert!(block("17592186044417").is_err());
        match block("17592186044415").unwrap() {
            Command::Plan(a) => assert_eq!(a.block_bytes, 17592186044415 << 20),
            other => panic!("wrong command {other:?}"),
        }
    }

    /// Every line here parsed `Ok` before `Flags::finish` existed (the
    /// typo'd flag was skipped, the default used), except `--seed --json`,
    /// which failed as "bad --seed" for the wrong reason.
    #[test]
    fn parse_rejects_unknown_flags_and_missing_values() {
        for (line, want) in [
            ("fleet --strom crash --json", "unknown flag `--strom`"),
            (
                "plan --code 6,3 --fail d1 --chunk-sise 8",
                "unknown flag `--chunk-sise`",
            ),
            ("fleet --stripes", "flag `--stripes` needs a value"),
            (
                "chaos --code 6,3 --fail d1 --seed",
                "flag `--seed` needs a value",
            ),
            (
                "chaos --code 6,3 --fail d1 --seed --json",
                "flag `--seed` needs a value",
            ),
            (
                "chaos --code 6,3 --fail d1 --out --json",
                "flag `--out` needs a value",
            ),
            (
                "audit --trace a --ledger b extra",
                "unexpected argument `extra`",
            ),
            // A flag another verb owns is unknown to this one.
            (
                "plan --code 6,3 --fail d1 --seed 3",
                "unknown flag `--seed`",
            ),
            (
                "inject --code 6,3 --fail d1 --storm crash",
                "unknown flag `--storm`",
            ),
            ("kernels --jsno", "unknown flag `--jsno`"),
        ] {
            let err = parse(&argv(line)).expect_err(line);
            assert!(err.contains(want), "`{line}`: {err}");
        }
        // A negative number is a value, not a flag; a bad value keeps its
        // own message.
        assert_eq!(
            parse(&argv("chaos --code 6,3 --fail d1 --seed -1")).unwrap_err(),
            "bad --seed"
        );
        // The same flag twice is not this check's business.
        assert!(parse(&argv("fleet --seed 1 --seed 2")).is_ok());
    }

    #[test]
    fn parse_analyze_and_topo() {
        assert_eq!(
            parse(&argv("analyze")).unwrap(),
            Command::Analyze {
                ti_ms: 1.0,
                tc_ms: 10.0
            }
        );
        match parse(&argv("topo --code 8,4 --placement flat")).unwrap() {
            Command::Topo { params, placement } => {
                assert_eq!(params, CodeParams::new(8, 4));
                assert_eq!(placement, PlacementPolicy::Flat);
            }
            other => panic!("wrong command {other:?}"),
        }
    }
}
