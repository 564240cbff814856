//! What a run reports: operations attempted and failed, named metrics, and
//! the two output forms (one `metric` line each for people and the suite,
//! one JSON object on the last line for the driver).

use std::fmt::Write as _;

/// Operations attempted and failed. An `Err`, a caught panic, an
/// unverified repair, recovered bytes that differ from the originals and a
/// broken invariant all count as failed.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the log.
    pub reasons: Vec<String>,
}

impl Ops {
    /// Count one operation and its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Count a whole-run invariant as one more checked operation.
    pub fn invariant(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.record(if holds { Ok(()) } else { Err(what()) });
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// `metric <name> <value> <unit> n=<samples>` — parsed back by the suite.
pub fn metric_line(m: &Metric) -> String {
    format!(
        "metric {} {} {} n={}",
        m.name,
        num(m.value),
        m.unit,
        m.samples
    )
}

/// The driver's result object, on one line.
pub fn result_json(ops: &Ops, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.correct(),
        ops.attempted,
        ops.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A JSON number with all the digits measured (non-finite reads as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_and_broken_invariants_count_as_failed_ops() {
        let mut ops = Ops::default();
        ops.record(Ok(()));
        ops.record(Err("repair not verified".into()));
        ops.invariant(true, || unreachable!());
        ops.invariant(false, || "summaries differ".into());
        assert_eq!((ops.attempted, ops.failed), (4, 2));
        assert!(!ops.correct());
        assert_eq!(ops.reasons, vec!["repair not verified", "summaries differ"]);
        assert!(
            !Ops::default().correct(),
            "nothing attempted is not correct"
        );
    }

    #[test]
    fn result_is_one_line_with_exactly_the_contract_keys() {
        let mut ops = Ops::default();
        ops.record(Ok(()));
        let line = result_json(&ops, &[Metric::new("setup_s", 0.8127, "s", 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
