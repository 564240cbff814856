//! Crash-restartable fleet drains: a durable JSON-lines write-ahead log.
//!
//! A drain that dies (OOM-kill, node reboot, `kill -9`) must not forget
//! what it already repaired. [`FleetJournal`] appends one self-contained
//! JSON record per scheduling decision — enqueue, admit, per-stripe cost,
//! complete, escalate, lost — plus periodic checkpoints, group-committed:
//! flushed after costing (before the first admission), at every
//! checkpoint and when the drain returns. A `kill -9` loses at most the
//! records since the last flush (a torn final line is ignored on replay);
//! resume still re-derives the drain bit-identically.
//!
//! [`JournalReplay`] parses a journal back into lookup maps. Resume
//! (`rpr fleet --resume F`) re-drives the *deterministic* admission loop
//! from the same seed — reconstructing index and arbiter state exactly —
//! while the costing layer consults the replay and **skips the expensive
//! per-stripe repair simulation** for every stripe the journal already
//! priced. Because the loop is a pure function of seed + costs, the
//! resumed run's summary and records are bit-identical to an
//! uninterrupted run's; `scripts/verify.sh` kills a journaled drain
//! mid-flight and byte-compares exactly that.
//!
//! Record schema (one JSON object per line; field order is fixed):
//!
//! ```text
//! {"journal":"rpr-fleet","version":1,"seed":S,"stripes":N}      header
//! {"rec":"enqueue","stripe":s,"level":z,"t":T}
//! {"rec":"cost","stripe":s,"level":z,"dur":D,"cross":C,"inner":I,
//!  "replans":R,"retries":Y,"degraded":B}
//! {"rec":"admit","stripe":s,"level":z,"t":T,"waited":W}
//! {"rec":"complete","stripe":s,"level":z,"admitted":A,"finish":F,
//!  "waited":W}
//! {"rec":"escalate","stripe":s,"from":a,"to":b,"in_flight":B,"t":T}
//! {"rec":"lost","stripe":s,"level":z,"t":T}
//! {"rec":"unrepairable","stripe":s}
//! {"rec":"checkpoint","seq":Q,"completed":C,"lost":L,"t":T}
//! ```
//!
//! Floats use Rust's shortest-roundtrip formatting, so a parsed value is
//! bit-identical to the written one — the property the resume
//! byte-identity guarantee rests on.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Default completions between checkpoint records.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1000;

/// A checkpoint the journal just flushed (surfaced so the drain can emit
/// the matching `journal_checkpoint` event).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Checkpoint {
    /// Monotone record sequence number of the checkpoint line.
    pub seq: u64,
    /// Stripes recorded complete so far.
    pub completed: u64,
    /// Stripes recorded permanently lost so far.
    pub lost: u64,
}

/// Append-only JSON-lines write-ahead log of one fleet drain.
///
/// Records are buffered and reach the file at the module's flush points;
/// every flush panics on error. A `kill -9` loses at most the records
/// since the last flush; resume still re-derives the drain bit-identically.
#[derive(Debug)]
pub struct FleetJournal {
    out: BufWriter<File>,
    path: PathBuf,
    seq: u64,
    completed: u64,
    lost: u64,
    checkpoint_every: u64,
    stall: Option<std::time::Duration>,
}

impl FleetJournal {
    /// Create (truncate) the journal at `path` and write the header.
    pub fn create(path: &Path, seed: u64, stripes: usize) -> std::io::Result<FleetJournal> {
        let file = File::create(path)?;
        let mut j = FleetJournal {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            seq: 0,
            completed: 0,
            lost: 0,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            stall: None,
        };
        j.write_line(format_args!(
            "{{\"journal\":\"rpr-fleet\",\"version\":1,\"seed\":{seed},\"stripes\":{stripes}}}"
        ));
        Ok(j)
    }

    /// Path the journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Override the checkpoint cadence (completions per checkpoint).
    #[cfg(test)]
    fn set_checkpoint_every(&mut self, every: u64) {
        self.checkpoint_every = every.max(1);
    }

    /// Sleep this long after every appended record. Test/CI hook: it
    /// slows the drain down enough that an external `kill -9` reliably
    /// lands mid-drain (`RPR_JOURNAL_STALL_US` on the CLI).
    pub fn set_stall(&mut self, stall: std::time::Duration) {
        self.stall = Some(stall);
    }

    fn write_line(&mut self, record: std::fmt::Arguments<'_>) {
        writeln!(self.out, "{record}").unwrap_or_else(|e| self.fail(e));
        self.seq += 1;
        if let Some(d) = self.stall {
            std::thread::sleep(d);
        }
    }

    /// Push every buffered record to the file (the module's flush points).
    pub fn flush(&mut self) {
        self.out.flush().unwrap_or_else(|e| self.fail(e));
    }

    /// A journal that cannot persist is worse than none: fail loudly.
    fn fail(&self, e: std::io::Error) -> ! {
        panic!("fleet journal write to {} failed: {e}", self.path.display());
    }

    /// Record a stripe entering the at-risk index.
    pub fn enqueue(&mut self, stripe: u32, level: usize, t: f64) {
        self.write_line(format_args!(
            "{{\"rec\":\"enqueue\",\"stripe\":{stripe},\"level\":{level},\"t\":{t}}}"
        ));
    }

    /// Record the costed repair of `stripe` at `level`: stand-alone
    /// duration, bytes moved, and supervision counters. Resume uses
    /// these to skip re-simulating already-priced repairs.
    pub fn cost(&mut self, stripe: u32, level: usize, c: &CostRec) {
        let CostRec {
            dur,
            cross,
            inner,
            replans,
            retries,
            degraded,
        } = c;
        self.write_line(format_args!(
            "{{\"rec\":\"cost\",\"stripe\":{stripe},\"level\":{level},\"dur\":{dur},\
             \"cross\":{cross},\"inner\":{inner},\"replans\":{replans},\
             \"retries\":{retries},\"degraded\":{degraded}}}"
        ));
    }

    /// Record an admission.
    pub fn admit(&mut self, stripe: u32, level: usize, t: f64, waited: f64) {
        self.write_line(format_args!(
            "{{\"rec\":\"admit\",\"stripe\":{stripe},\"level\":{level},\"t\":{t},\
             \"waited\":{waited}}}"
        ));
    }

    /// Record a completed repair. Returns a [`Checkpoint`] when the
    /// cadence elapsed and a checkpoint record was appended after it.
    pub fn complete(
        &mut self,
        stripe: u32,
        level: usize,
        admitted: f64,
        finish: f64,
        waited: f64,
    ) -> Option<Checkpoint> {
        self.write_line(format_args!(
            "{{\"rec\":\"complete\",\"stripe\":{stripe},\"level\":{level},\
             \"admitted\":{admitted},\"finish\":{finish},\"waited\":{waited}}}"
        ));
        self.completed += 1;
        if self.completed.is_multiple_of(self.checkpoint_every) {
            Some(self.checkpoint(finish))
        } else {
            None
        }
    }

    /// Record a risk escalation.
    pub fn escalate(&mut self, stripe: u32, from: usize, to: usize, in_flight: bool, t: f64) {
        self.write_line(format_args!(
            "{{\"rec\":\"escalate\",\"stripe\":{stripe},\"from\":{from},\"to\":{to},\
             \"in_flight\":{in_flight},\"t\":{t}}}"
        ));
    }

    /// Record a permanent loss (the stripe crossed `z > r`).
    pub fn lost(&mut self, stripe: u32, level: usize, t: f64) {
        self.write_line(format_args!(
            "{{\"rec\":\"lost\",\"stripe\":{stripe},\"level\":{level},\"t\":{t}}}"
        ));
        self.lost += 1;
    }

    /// Record a stripe that was unrepairable at costing time (too many
    /// failures for the code before the drain even started).
    pub fn unrepairable(&mut self, stripe: u32) {
        self.write_line(format_args!(
            "{{\"rec\":\"unrepairable\",\"stripe\":{stripe}}}"
        ));
    }

    /// Append a checkpoint record now and return it.
    pub fn checkpoint(&mut self, t: f64) -> Checkpoint {
        let cp = Checkpoint {
            seq: self.seq,
            completed: self.completed,
            lost: self.lost,
        };
        self.write_line(format_args!(
            "{{\"rec\":\"checkpoint\",\"seq\":{},\"completed\":{},\"lost\":{},\"t\":{t}}}",
            cp.seq, cp.completed, cp.lost
        ));
        self.flush();
        cp
    }
}

/// One journaled `complete` record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompletedRec {
    /// At-risk level the stripe was served at.
    pub level: usize,
    /// Fleet-clock admission time.
    pub admitted: f64,
    /// Fleet-clock finish time.
    pub finish: f64,
    /// Seconds waited at the queue head.
    pub waited: f64,
}

/// One journaled `cost` record: everything the costing layer needs to
/// skip a per-stripe repair simulation on resume.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostRec {
    /// Stand-alone repair duration in seconds.
    pub dur: f64,
    /// Cross-rack bytes the repair moves.
    pub cross: u64,
    /// Inner-rack bytes the repair moves.
    pub inner: u64,
    /// Replans the supervised repair needed.
    pub replans: usize,
    /// Transfer retries the supervised repair needed.
    pub retries: usize,
    /// True when the repair fell back to a degraded tier.
    pub degraded: bool,
}

/// A parsed fleet journal, ready to answer resume queries.
#[derive(Clone, Debug, Default)]
pub struct JournalReplay {
    /// Seed recorded in the header.
    pub seed: u64,
    /// Backlog size recorded in the header.
    pub stripes: usize,
    /// Completed stripes by id.
    pub completed: HashMap<u32, CompletedRec>,
    /// Costed (stripe, level) pairs.
    pub costs: HashMap<(u32, usize), CostRec>,
    /// Permanently lost stripes by id → (level, t).
    pub lost: HashMap<u32, (usize, f64)>,
    /// Stripes unrepairable at costing time.
    pub unrepairable: HashSet<u32>,
    /// Total well-formed records parsed (header excluded).
    pub records: usize,
    /// True when the final line was torn (crash mid-write) and dropped.
    pub truncated: bool,
}

impl JournalReplay {
    /// Parse journal text. The final line may be torn (the process was
    /// killed mid-write); it is dropped, not an error. Any other
    /// malformed line is an error — a corrupt middle means the file is
    /// not a journal.
    pub fn parse(text: &str) -> Result<JournalReplay, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("journal is empty")?;
        if field_raw(header, "journal") != Some("\"rpr-fleet\"") {
            return Err("not an rpr-fleet journal (bad header)".into());
        }
        let version = field_u64(header, "version").ok_or("header missing version")?;
        if version != 1 {
            return Err(format!("unsupported journal version {version}"));
        }
        let mut replay = JournalReplay {
            seed: field_u64(header, "seed").ok_or("header missing seed")?,
            stripes: field_u64(header, "stripes").ok_or("header missing stripes")? as usize,
            ..JournalReplay::default()
        };
        // Only a missing trailing newline marks the last line as
        // possibly torn; parse failures there are tolerated.
        let complete_tail = text.ends_with('\n');
        let body: Vec<&str> = lines.collect();
        for (i, line) in body.iter().enumerate() {
            let last = i + 1 == body.len();
            match parse_record(line, &mut replay) {
                Ok(()) => replay.records += 1,
                Err(e) if last && !complete_tail => {
                    replay.truncated = true;
                    let _ = e;
                }
                Err(e) => return Err(format!("journal line {}: {e}", i + 2)),
            }
        }
        Ok(replay)
    }

    /// Parse the journal file at `path`.
    pub fn load(path: &Path) -> Result<JournalReplay, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        JournalReplay::parse(&text)
    }

    /// The cost record journaled for `(stripe, level)`, if any.
    pub fn cost(&self, stripe: u32, level: usize) -> Option<CostRec> {
        self.costs.get(&(stripe, level)).copied()
    }
}

fn parse_record(line: &str, replay: &mut JournalReplay) -> Result<(), String> {
    let rec = field_raw(line, "rec").ok_or("missing rec field")?;
    match rec {
        // Progress records: informational on replay (resume re-derives
        // them deterministically), but they must still be well-formed.
        "\"enqueue\"" => check_fields(line, "enqueue", &["stripe", "level"], &["t"]),
        "\"admit\"" => check_fields(line, "admit", &["stripe", "level"], &["t", "waited"]),
        "\"escalate\"" => {
            field_bool(line, "in_flight").ok_or("escalate missing in_flight")?;
            check_fields(line, "escalate", &["stripe", "from", "to"], &["t"])
        }
        "\"checkpoint\"" => check_fields(line, "checkpoint", &["seq", "completed", "lost"], &["t"]),
        "\"cost\"" => {
            let stripe = field_u64(line, "stripe").ok_or("cost missing stripe")? as u32;
            let level = field_u64(line, "level").ok_or("cost missing level")? as usize;
            replay.costs.insert(
                (stripe, level),
                CostRec {
                    dur: field_time(line, "cost", "dur")?,
                    cross: field_u64(line, "cross").ok_or("cost missing cross")?,
                    inner: field_u64(line, "inner").ok_or("cost missing inner")?,
                    replans: field_u64(line, "replans").ok_or("cost missing replans")? as usize,
                    retries: field_u64(line, "retries").ok_or("cost missing retries")? as usize,
                    degraded: field_bool(line, "degraded").ok_or("cost missing degraded")?,
                },
            );
            Ok(())
        }
        "\"complete\"" => {
            let stripe = field_u64(line, "stripe").ok_or("complete missing stripe")? as u32;
            replay.completed.insert(
                stripe,
                CompletedRec {
                    level: field_u64(line, "level").ok_or("complete missing level")? as usize,
                    admitted: field_time(line, "complete", "admitted")?,
                    finish: field_time(line, "complete", "finish")?,
                    waited: field_time(line, "complete", "waited")?,
                },
            );
            Ok(())
        }
        "\"lost\"" => {
            let stripe = field_u64(line, "stripe").ok_or("lost missing stripe")? as u32;
            let level = field_u64(line, "level").ok_or("lost missing level")? as usize;
            let t = field_time(line, "lost", "t")?;
            replay.lost.insert(stripe, (level, t));
            Ok(())
        }
        "\"unrepairable\"" => {
            let stripe = field_u64(line, "stripe").ok_or("unrepairable missing stripe")? as u32;
            replay.unrepairable.insert(stripe);
            Ok(())
        }
        other => Err(format!("unknown record kind {other}")),
    }
}

/// Require the unsigned-integer fields `ints` and the time fields
/// `times` of a `kind` record whose values replay does not keep.
fn check_fields(line: &str, kind: &str, ints: &[&str], times: &[&str]) -> Result<(), String> {
    for key in ints {
        field_u64(line, key).ok_or_else(|| format!("{kind} missing {key}"))?;
    }
    for key in times {
        field_time(line, kind, key)?;
    }
    Ok(())
}

/// Raw text of `"key":<value>` in a one-line JSON object (value ends at
/// the next top-level `,` or the closing `}`). Values here are numbers,
/// booleans, or simple quoted strings — no nesting, no escapes.
fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut end = rest.len();
    let mut in_str = false;
    for (i, c) in rest.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' | '}' if !in_str => {
                end = i;
                break;
            }
            _ => {}
        }
    }
    Some(rest[..end].trim())
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    field_raw(line, key)?.parse().ok()
}

/// A time or duration field of a `kind` record: every float the journal
/// writes is one, so anything but a finite, non-negative number is
/// corrupt (the drain would panic on it, or order jobs by garbage).
fn field_time(line: &str, kind: &str, key: &str) -> Result<f64, String> {
    let v: f64 = field_raw(line, key)
        .and_then(|raw| raw.parse().ok())
        .ok_or_else(|| format!("{kind} missing {key}"))?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(format!("{kind} has invalid {key} {v}"))
    }
}

fn field_bool(line: &str, key: &str) -> Option<bool> {
    field_raw(line, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "rpr-journal-test-{}-{name}.jsonl",
            std::process::id()
        ));
        p
    }

    #[test]
    fn journal_roundtrips_through_replay() {
        let path = temp_path("roundtrip");
        {
            let mut j = FleetJournal::create(&path, 17, 3).expect("create");
            j.set_checkpoint_every(2);
            j.enqueue(0, 1, 0.0);
            j.enqueue(1, 2, 0.0);
            let cost = |dur, cross, inner, replans, retries, degraded| CostRec {
                dur,
                cross,
                inner,
                replans,
                retries,
                degraded,
            };
            j.cost(0, 1, &cost(2.5, 100, 50, 1, 2, false));
            j.cost(1, 2, &cost(4.25, 200, 80, 0, 0, true));
            j.admit(1, 2, 0.0, 0.0);
            assert!(j.complete(1, 2, 0.0, 4.25, 0.0).is_none());
            j.escalate(0, 1, 2, false, 1.5);
            j.admit(0, 2, 4.25, 4.25);
            // Second completion crosses the cadence → checkpoint.
            let cp = j.complete(0, 2, 4.25, 6.75, 4.25).expect("checkpoint");
            assert_eq!(cp.completed, 2);
            assert_eq!(cp.lost, 0);
            j.lost(2, 4, 7.0);
            j.unrepairable(9);
            j.flush();
        }
        let replay = JournalReplay::load(&path).expect("parse");
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.seed, 17);
        assert_eq!(replay.stripes, 3);
        assert!(!replay.truncated);
        assert_eq!(replay.completed.len(), 2);
        let c0 = replay.completed[&0];
        assert_eq!(c0.level, 2);
        assert_eq!(c0.finish.to_bits(), 6.75f64.to_bits());
        let cost = replay.cost(1, 2).expect("cost record");
        assert_eq!(cost.dur.to_bits(), 4.25f64.to_bits());
        assert_eq!(cost.cross, 200);
        assert!(cost.degraded);
        assert_eq!(replay.cost(1, 3), None);
        assert_eq!(replay.lost[&2], (4, 7.0));
        assert!(replay.unrepairable.contains(&9));
    }

    #[test]
    fn torn_final_line_is_tolerated_but_corrupt_middle_is_not() {
        let good = "{\"journal\":\"rpr-fleet\",\"version\":1,\"seed\":1,\"stripes\":2}\n\
                    {\"rec\":\"enqueue\",\"stripe\":0,\"level\":1,\"t\":0}\n\
                    {\"rec\":\"complete\",\"stripe\":0,\"level\":1,\"admitted\":0,\"fini";
        let replay = JournalReplay::parse(good).expect("torn tail tolerated");
        assert!(replay.truncated);
        assert!(replay.completed.is_empty());
        assert_eq!(replay.records, 1);

        let bad = "{\"journal\":\"rpr-fleet\",\"version\":1,\"seed\":1,\"stripes\":2}\n\
                   {\"rec\":\"garbage\"}\n\
                   {\"rec\":\"enqueue\",\"stripe\":0,\"level\":1,\"t\":0}\n";
        assert!(
            JournalReplay::parse(bad).is_err(),
            "corrupt middle rejected"
        );

        assert!(JournalReplay::parse("").is_err());
        assert!(JournalReplay::parse("{\"journal\":\"other\"}").is_err());
    }

    #[test]
    fn malformed_progress_records_are_rejected_mid_file() {
        const HEADER: &str = "{\"journal\":\"rpr-fleet\",\"version\":1,\"seed\":1,\"stripes\":2}\n";
        const GOOD: &str = "{\"rec\":\"enqueue\",\"stripe\":0,\"level\":1,\"t\":0}\n";
        for (bad, want) in [
            // Each kind once with a field missing, once with it non-numeric.
            ("{\"rec\":\"enqueue\",\"stripe\":0,\"t\":0}", "enqueue missing level"),
            ("{\"rec\":\"enqueue\",\"stripe\":0,\"level\":1,\"t\":\"soon\"}", "enqueue missing t"),
            ("{\"rec\":\"admit\"}", "admit missing stripe"),
            (
                "{\"rec\":\"admit\",\"stripe\":0,\"level\":1,\"t\":0,\"waited\":x}",
                "admit missing waited",
            ),
            (
                "{\"rec\":\"escalate\",\"stripe\":0,\"from\":1,\"to\":2,\"t\":1.5}",
                "escalate missing in_flight",
            ),
            (
                "{\"rec\":\"escalate\",\"stripe\":0,\"from\":1,\"to\":-2,\"in_flight\":false,\"t\":1.5}",
                "escalate missing to",
            ),
            ("{\"rec\":\"checkpoint\",\"seq\":4,\"completed\":2,\"t\":3}", "checkpoint missing lost"),
            (
                "{\"rec\":\"checkpoint\",\"seq\":\"x\",\"completed\":2,\"lost\":0,\"t\":3}",
                "checkpoint missing seq",
            ),
        ] {
            let err = JournalReplay::parse(&format!("{HEADER}{bad}\n{GOOD}")).expect_err(bad);
            assert_eq!(err, format!("journal line 2: {want}"), "{bad}");
            // A complete last line gets no torn-write benefit of the doubt.
            let err = JournalReplay::parse(&format!("{HEADER}{GOOD}{bad}\n")).expect_err(bad);
            assert_eq!(err, format!("journal line 3: {want}"), "{bad}");
            // The same line as an unterminated tail is a torn write.
            let replay = JournalReplay::parse(&format!("{HEADER}{GOOD}{bad}")).expect(bad);
            assert!(replay.truncated);
            assert_eq!(replay.records, 1);
        }
    }

    /// A `kind` record with its integer and flag fields `fixed` and its
    /// time fields `times` is accepted with every time at 1.5 and
    /// rejected — naming the line, kind and field — with any one of them
    /// non-finite or negative, unless it is the torn tail.
    fn times_are_checked(kind: &str, fixed: &str, times: &[&str]) {
        const HEADER: &str = "{\"journal\":\"rpr-fleet\",\"version\":1,\"seed\":1,\"stripes\":2}\n";
        const GOOD: &str = "{\"rec\":\"enqueue\",\"stripe\":0,\"level\":1,\"t\":0}\n";
        let record = |bad: Option<(&str, &str)>| {
            let times: Vec<String> = times
                .iter()
                .map(|key| match bad {
                    Some((k, v)) if k == *key => format!("\"{key}\":{v}"),
                    _ => format!("\"{key}\":1.5"),
                })
                .collect();
            format!("{{\"rec\":\"{kind}\",{fixed},{}}}", times.join(","))
        };
        let ok = format!("{HEADER}{}\n{GOOD}", record(None));
        assert!(JournalReplay::parse(&ok).is_ok(), "{ok}");
        for key in times {
            for bad in ["NaN", "inf", "-inf", "-5", "-0.5"] {
                let line = record(Some((key, bad)));
                let err =
                    JournalReplay::parse(&format!("{HEADER}{line}\n{GOOD}")).expect_err(&line);
                assert!(
                    err.starts_with(&format!("journal line 2: {kind} has invalid {key} ")),
                    "{line}: {err}"
                );
                let torn = JournalReplay::parse(&format!("{HEADER}{GOOD}{line}")).expect(&line);
                assert!(torn.truncated, "{line}");
            }
        }
    }

    #[test]
    fn enqueue_rejects_a_bad_time() {
        times_are_checked("enqueue", "\"stripe\":0,\"level\":1", &["t"]);
    }

    #[test]
    fn cost_rejects_a_bad_duration() {
        let fixed = "\"stripe\":0,\"level\":1,\"cross\":5,\"inner\":6,\"replans\":0,\"retries\":0,\"degraded\":false";
        times_are_checked("cost", fixed, &["dur"]);
    }

    #[test]
    fn admit_rejects_a_bad_time() {
        times_are_checked("admit", "\"stripe\":0,\"level\":1", &["t", "waited"]);
    }

    #[test]
    fn complete_rejects_a_bad_time() {
        times_are_checked(
            "complete",
            "\"stripe\":0,\"level\":1",
            &["admitted", "finish", "waited"],
        );
    }

    #[test]
    fn escalate_rejects_a_bad_time() {
        let fixed = "\"stripe\":0,\"from\":1,\"to\":2,\"in_flight\":false";
        times_are_checked("escalate", fixed, &["t"]);
    }

    #[test]
    fn lost_rejects_a_bad_time() {
        times_are_checked("lost", "\"stripe\":0,\"level\":1", &["t"]);
    }

    #[test]
    fn checkpoint_rejects_a_bad_time() {
        times_are_checked("checkpoint", "\"seq\":4,\"completed\":2,\"lost\":0", &["t"]);
    }

    #[test]
    fn float_roundtrip_is_bit_exact() {
        // The resume byte-identity guarantee needs shortest-roundtrip
        // floats to survive write → parse exactly.
        let vals = [
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            123456.789012345,
            2.5e-17,
        ];
        for v in vals {
            let s = format!("{v}");
            let back: f64 = s.parse().expect("parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} did not roundtrip");
        }
    }
}
