//! End-to-end CLI tests: parse a command line, run it, and check it
//! neither errors nor panics (output goes to stdout; correctness of the
//! underlying numbers is covered by the core test-suite).

use rpr_cli::{args, commands};

fn run(line: &str) -> Result<(), String> {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    commands::run(args::parse(&argv)?)
}

#[test]
fn plan_command_runs_for_every_scheme() {
    for scheme in ["rpr", "car", "chain", "traditional", "traditional-local"] {
        run(&format!(
            "plan --code 6,2 --fail d1 --scheme {scheme} --block-mib 16"
        ))
        .unwrap_or_else(|e| panic!("{scheme}: {e}"));
    }
}

#[test]
fn plan_with_gantt_and_dot() {
    run("plan --code 4,2 --fail d0 --gantt --dot --block-mib 8").expect("viz outputs");
}

#[test]
fn compare_single_and_multi_failure() {
    run("compare --code 8,4 --fail d0 --block-mib 16").expect("single");
    run("compare --code 8,4 --fail d0,d3 --block-mib 16").expect("multi");
}

#[test]
fn compare_with_custom_ratio_and_cost() {
    run("compare --code 6,3 --fail p0 --ratio 5 --cost ec2 --block-mib 16").expect("ec2 cost");
    run("compare --code 6,3 --fail 2 --cost free --block-mib 16").expect("free cost");
}

#[test]
fn topo_for_all_placements() {
    for placement in ["compact", "preplaced", "flat"] {
        run(&format!("topo --code 6,2 --placement {placement}"))
            .unwrap_or_else(|e| panic!("{placement}: {e}"));
    }
}

#[test]
fn analyze_with_custom_times() {
    run("analyze").expect("defaults");
    run("analyze --ti-ms 2 --tc-ms 40").expect("custom");
}

#[test]
fn parity_failures_through_the_cli() {
    run("plan --code 12,4 --fail p2 --block-mib 8").expect("parity repair");
    run("plan --code 12,4 --fail p0,p1 --block-mib 8").expect("double parity");
}

/// A scratch path for one test's `--out` file (tests run in parallel, so
/// each names its own).
fn scratch(name: &str) -> String {
    format!("{}/cli_{name}", env!("CARGO_TARGET_TMPDIR"))
}

#[test]
fn inject_runs_every_fault_family_on_both_backends() {
    for fault in ["crash", "timeout", "corrupt", "slow", "rack"] {
        let out = scratch(&format!("inject_{fault}.jsonl"));
        run(&format!(
            "inject --code 6,3 --fail d1 --fault {fault} --block-mib 16 --json --out {out}"
        ))
        .unwrap_or_else(|e| panic!("sim {fault}: {e}"));
        let trace = std::fs::read_to_string(&out).expect("trace written");
        assert!(trace.ends_with("\n") && trace.contains("\"type\":\"repair_done\""));
    }
    // Real bytes: byte verification failing is an error, so Ok means verified.
    let out = scratch("inject_exec.jsonl");
    run(&format!(
        "inject --code 6,3 --fail d1 --fault corrupt --backend exec --block-mib 1 --out {out}"
    ))
    .expect("exec corrupt");
}

#[test]
fn chaos_runs_the_acceptance_storm_and_the_proof_plane() {
    let out = scratch("chaos_default.jsonl");
    run(&format!(
        "chaos --code 6,3 --fail d1 --block-mib 16 --seed 77 --json --out {out}"
    ))
    .expect("acceptance storm");
    let trace = std::fs::read_to_string(&out).expect("trace written");
    assert_eq!(trace.matches("\"type\":\"replanned\"").count(), 2);

    let (out, ledger) = (scratch("chaos_lie.jsonl"), scratch("chaos_lie.ledger"));
    run(&format!(
        "chaos --code 6,3 --fail d1 --block-mib 16 --storm lie --proof mandatory --seed 21 \
         --out {out} --ledger-out {ledger}"
    ))
    .expect("lie storm");
    run(&format!("audit --trace {out} --ledger {ledger}")).expect("audit localizes the liar");

    let out = scratch("chaos_hedge.jsonl");
    run(&format!(
        "chaos --code 6,3 --fail d1 --block-mib 16 --storm slow --hedge 2 --deadline 30 \
         --format chrome --out {out}"
    ))
    .expect("hedged straggler");
}

#[test]
fn audit_ignores_a_proof_event_with_junk_after_its_op() {
    let (out, ledger) = (scratch("audit_junk.jsonl"), scratch("audit_junk.ledger"));
    run(&format!(
        "chaos --code 6,3 --fail d1 --block-mib 16 --storm lie --proof mandatory --seed 21 \
         --out {out} --ledger-out {ledger}"
    ))
    .expect("lie storm");
    run(&format!("audit --trace {out} --ledger {ledger}")).expect("clean evidence audits");

    // `"op":7x` is not op 7: the announcement must not count, so the
    // ledger entry it claims to announce goes unannounced.
    let trace = std::fs::read_to_string(&out).expect("trace written");
    let line = trace
        .lines()
        .find(|l| l.contains("\"type\":\"proof_emitted\""))
        .expect("a proof_emitted event");
    let at = line.find("\"op\":").expect("an op field") + "\"op\":".len();
    let digits = line[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let hostile_line = format!("{}x{}", &line[..at + digits], &line[at + digits..]);
    let hostile = scratch("audit_junk_hostile.jsonl");
    std::fs::write(&hostile, trace.replacen(line, &hostile_line, 1)).unwrap();
    let err = run(&format!("audit --trace {hostile} --ledger {ledger}"))
        .expect_err("an unparseable announcement must not count");
    assert!(err.contains("announces"), "{err}");
}

#[test]
fn inject_is_chaos_with_a_one_fault_storm() {
    for (mode, chunk) in [("block", ""), ("chunk", "--chunk-size 8")] {
        let (a, b) = (
            scratch(&format!("same_inject_{mode}.jsonl")),
            scratch(&format!("same_chaos_{mode}.jsonl")),
        );
        run(&format!(
            "inject --code 6,3 --fail d1 --fault crash --seed 17 {chunk} --out {a}"
        ))
        .expect("inject");
        run(&format!(
            "chaos --code 6,3 --fail d1 --storm crash --seed 17 {chunk} --out {b}"
        ))
        .expect("chaos");
        let (a, b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        assert!(!a.is_empty());
        assert!(
            a == b,
            "{mode}: inject and chaos --storm crash traces differ"
        );
    }
}

#[test]
fn inject_and_chaos_refuse_a_scheme_instead_of_ignoring_it() {
    for verb in ["inject", "chaos"] {
        let err = run(&format!("{verb} --code 6,3 --fail d1 --scheme car")).unwrap_err();
        assert!(
            err.contains("the supervisor chooses the plan"),
            "{verb}: {err}"
        );
    }
}

/// The binary itself: a misspelt flag is a usage error (exit 2, the flag
/// named on stderr, nothing on stdout), not a silently clean drain.
#[test]
fn a_misspelt_flag_fails_the_process_and_is_named_on_stderr() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rpr"))
        .args(["fleet", "--stripes", "50", "--strom", "crash", "--json"])
        .output()
        .expect("spawn rpr");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--strom`"), "{stderr}");
}

/// A tampered fleet journal is rejected on `--resume` (exit 1, the bad
/// line named on stderr), never a panic in the drain: a `cost` record's
/// duration, once NaN and once negative.
#[test]
fn resume_rejects_a_journal_with_a_bad_duration() {
    let rpr = env!("CARGO_BIN_EXE_rpr");
    let flags = ["fleet", "--code", "6,3", "--stripes", "200", "--seed", "17"];
    let storm = ["--storm", "crash,timeout", "--json"];
    let journal = scratch("tampered_journal.jsonl");
    let first = std::process::Command::new(rpr)
        .args(flags)
        .args(storm)
        .args(["--journal", &journal])
        .output()
        .expect("spawn rpr");
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let (line, record) = (text.lines().enumerate())
        .find(|(_, l)| l.contains("\"rec\":\"cost\""))
        .expect("a storm drain journals cost records");
    let dur = record
        .split("\"dur\":")
        .nth(1)
        .and_then(|r| r.split(',').next());
    let dur = format!("\"dur\":{}", dur.expect("cost records carry dur"));
    for bad in ["NaN", "-5"] {
        let tampered = text.replacen(
            record,
            &record.replacen(&dur, &format!("\"dur\":{bad}"), 1),
            1,
        );
        let path = scratch(&format!("tampered_journal_{bad}.jsonl"));
        std::fs::write(&path, tampered).expect("write tampered journal");
        let out = std::process::Command::new(rpr)
            .args(flags)
            .args(storm)
            .args(["--resume", &path])
            .output()
            .expect("spawn rpr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad}: {stderr}");
        assert!(
            stderr.contains(&format!("journal line {}: cost has invalid dur", line + 1)),
            "{bad}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{bad}: {stderr}");
    }
}
