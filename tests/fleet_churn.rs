//! Properties of the fleet drain under live churn, checked end-to-end
//! through the `rpr` facade:
//!
//! * **conservation** — every enqueued stripe terminates exactly once,
//!   as repaired or as a permanent loss, across seeds and churn rates;
//! * **strict escalation ordering** — replaying the trace, no stripe is
//!   ever admitted while a strictly higher-level stripe sits queued
//!   (escalations reorder the queue, they never inverts it);
//! * **no starvation** — sustained churn cannot park a stripe forever:
//!   the repaired + lost id sets partition the full backlog;
//! * **zero-churn neutrality** — at `churn_rate = 0` the escalation
//!   policy flag is unobservable and the churn counters stay zero;
//! * **crash restart** — resuming from a journal truncated mid-write
//!   reproduces the uninterrupted run's summary and records bit for
//!   bit, while skipping the already-costed simulations.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;

use rpr::codec::CodeParams;
use rpr::obs::{Event, NoopRecorder, TraceRecorder};
use rpr::sched::{
    run_fleet_with, run_synthetic_fleet, FleetIo, FleetJournal, FleetOutcome, FleetSpec,
    JournalReplay,
};

/// A small contended fleet that a churn stream keeps hitting: few racks,
/// so drains are long enough for arrivals to land on live stripes.
fn churned_spec(seed: u64, churn_rate: f64) -> FleetSpec {
    FleetSpec {
        params: CodeParams::new(4, 2),
        racks: 3,
        nodes_per_rack: 4,
        stripes: 300,
        block_bytes: 16 << 20,
        seed,
        level_weights: vec![0.7, 0.3],
        churn_rate,
        ..FleetSpec::default()
    }
}

#[test]
fn repaired_plus_lost_equals_enqueued_across_seeds_and_rates() {
    for seed in [3u64, 17, 99] {
        for rate in [0.01, 0.05, 0.2] {
            for escalate in [true, false] {
                let mut spec = churned_spec(seed, rate);
                spec.escalate = escalate;
                let out = run_synthetic_fleet(&spec, &NoopRecorder);
                let s = &out.summary;
                assert_eq!(
                    s.repaired + s.lost,
                    s.stripes,
                    "seed {seed} rate {rate} escalate {escalate}: every stripe terminates"
                );
                assert_eq!(out.records.len(), s.repaired);
                assert_eq!(out.lost.len(), s.lost);
                assert!(
                    s.churn_failures >= s.escalations,
                    "every escalation is caused by a churn hit"
                );
            }
        }
    }
}

#[test]
fn escalation_never_inverts_level_priority() {
    // Replay the trace: maintain the queued set (stripe → current
    // level) through enqueues, queued escalations, losses, and
    // admissions. At every admission the admitted stripe must carry the
    // maximum level present in the queue — a churn hit re-prioritizes
    // its victim, it never lets a safer stripe jump a riskier one.
    let rec = TraceRecorder::with_capacity(1 << 20);
    let out = run_synthetic_fleet(&churned_spec(42, 0.1), &rec);
    assert!(
        out.summary.escalations > 0,
        "the spec must actually escalate to exercise ordering"
    );
    let mut queued: HashMap<u64, usize> = HashMap::new();
    let mut admissions = 0usize;
    let mut lost_in_flight = 0usize;
    for e in rec.take_events() {
        match e {
            Event::StripeEnqueued { stripe, level, .. } => {
                queued.insert(stripe, level);
            }
            Event::RiskEscalated {
                stripe,
                to,
                in_flight: false,
                ..
            } => {
                queued.insert(stripe, to);
            }
            Event::StripeLost { stripe, .. } => match queued.remove(&stripe) {
                Some(_) => {}
                None => lost_in_flight += 1,
            },
            Event::StripeAdmitted { stripe, level, t } => {
                queued.remove(&stripe);
                admissions += 1;
                if let Some((&rival, &l)) = queued.iter().max_by_key(|(_, &l)| l) {
                    assert!(
                        l <= level,
                        "t={t}: stripe {stripe} admitted at level {level} \
                         while stripe {rival} queued at level {l}"
                    );
                }
            }
            _ => {}
        }
    }
    // Admitted stripes either finish or are lost in flight (a fatal
    // churn hit past `k` kills even a running repair).
    assert_eq!(admissions, out.summary.repaired + lost_in_flight);
}

#[test]
fn sustained_churn_starves_no_stripe() {
    // Heavy sustained churn with escalation on: the repaired and lost
    // id sets must still partition 0..stripes — nothing is dropped,
    // nothing is repaired twice, nothing waits forever.
    let spec = churned_spec(7, 0.2);
    let out = run_synthetic_fleet(&spec, &NoopRecorder);
    let mut ids: Vec<u32> = out.records.iter().map(|r| r.stripe).collect();
    ids.extend(out.lost.iter().map(|l| l.stripe));
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..spec.stripes as u32).collect::<Vec<_>>(),
        "repaired ∪ lost must partition the backlog"
    );
}

#[test]
fn zero_churn_makes_the_escalation_flag_unobservable() {
    let run = |escalate: bool| {
        let mut spec = churned_spec(2024, 0.0);
        spec.escalate = escalate;
        run_synthetic_fleet(&spec, &NoopRecorder)
    };
    let (a, b) = (run(true), run(false));
    assert_eq!(a.summary.to_json(), b.summary.to_json());
    assert_eq!(a.records, b.records);
    assert_eq!(a.summary.churn_failures, 0);
    assert_eq!(a.summary.escalations, 0);
    assert_eq!(a.summary.lost, 0);
}

#[test]
fn resume_from_a_truncated_journal_is_bit_identical() {
    // A storm template forces one supervised sim per stripe, which is
    // exactly the work the journal's cost records let a resume skip.
    let mut spec = churned_spec(11, 0.05);
    spec.stripes = 120;
    spec.storm = vec![vec![]];

    let dir = std::env::temp_dir();
    let full = dir.join(format!("rpr-churn-journal-{}.jsonl", std::process::id()));
    let cut = dir.join(format!(
        "rpr-churn-journal-cut-{}.jsonl",
        std::process::id()
    ));

    let clean = journaled_run(&spec, &full);
    assert!(clean.summary.lost > 0, "churn must cost the fleet stripes");
    assert_eq!(clean.replayed, 0);

    // Simulate a crash mid-write: keep 60% of the journal bytes, ending
    // mid-line, and resume from the torn log.
    let bytes = std::fs::read(&full).expect("read journal");
    std::fs::write(&cut, &bytes[..bytes.len() * 6 / 10]).expect("write truncated copy");
    let replay = JournalReplay::load(&cut).expect("torn journal still parses");
    assert!(replay.truncated, "the cut must land mid-record");
    assert!(!replay.costs.is_empty(), "the cut keeps some cost records");
    assert!(
        replay.completed.len() < clean.records.len(),
        "a mid-drain crash must leave completions unlogged"
    );

    let resumed = run_fleet_with(
        &spec,
        FleetIo {
            journal: None,
            resume: Some(&replay),
        },
        &NoopRecorder,
    );
    assert!(
        resumed.replayed > 0,
        "resume must skip the already-costed sims"
    );
    assert_eq!(
        resumed.summary.to_json(),
        clean.summary.to_json(),
        "a resumed drain is bit-identical to the uninterrupted run"
    );
    assert_eq!(resumed.records, clean.records);
    assert_eq!(resumed.lost, clean.lost);

    // The same replay with one stripe's cost record turned into an
    // `unrepairable` marker: the marker is honoured (the stripe is not
    // repaired) and counts in `unrepairable`, never in `replayed`.
    let mut marked_replay = replay.clone();
    let key = *marked_replay
        .costs
        .keys()
        .min()
        .expect("the cut keeps cost records");
    marked_replay.costs.remove(&key);
    marked_replay.unrepairable.insert(key.0);
    let marked = run_fleet_with(
        &spec,
        FleetIo {
            journal: None,
            resume: Some(&marked_replay),
        },
        &NoopRecorder,
    );
    assert_eq!(marked.unrepairable, clean.unrepairable + 1);
    assert_eq!(marked.replayed, resumed.replayed - 1);
    assert_eq!(marked.summary.stripes, clean.summary.stripes - 1);
    assert!(marked.records.iter().all(|r| r.stripe != key.0));

    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&cut);
}

/// 64-bit FNV-1a: a stable digest for pinning bytes in literals.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of every repaired record and every loss, floats by their bits.
fn outcome_digest(out: &FleetOutcome) -> u64 {
    let mut s = String::new();
    for r in &out.records {
        let _ = write!(
            s,
            "r{},{},{:x},{:x},{:x};",
            r.stripe,
            r.level,
            r.admitted.to_bits(),
            r.finish.to_bits(),
            r.waited.to_bits()
        );
    }
    for l in &out.lost {
        let _ = write!(s, "l{},{},{:x};", l.stripe, l.level, l.t.to_bits());
    }
    fnv1a(s.as_bytes())
}

/// The pinned grid: both codes, three seeds, two churn rates, both
/// escalation policies, plus one per-stripe storm case.
fn pinned_cases() -> Vec<(String, FleetSpec)> {
    let mut cases = Vec::new();
    for (n, k) in [(4, 2), (6, 3)] {
        for seed in [3u64, 17, 99] {
            for rate in [0.01, 0.2] {
                for escalate in [true, false] {
                    let mut spec = churned_spec(seed, rate);
                    spec.params = CodeParams::new(n, k);
                    spec.escalate = escalate;
                    cases.push((
                        format!("({n},{k}) seed {seed} rate {rate} esc {escalate}"),
                        spec,
                    ));
                }
            }
        }
    }
    let mut storm = churned_spec(5, 0.1);
    storm.stripes = 100;
    storm.storm = vec![vec![]];
    cases.push(("storm seed 5 rate 0.1".into(), storm));
    cases
}

/// A small journaled drain under churn and a per-stripe storm: it writes
/// every record kind but `unrepairable`, and its resumes are cheap.
fn small_journaled_spec() -> FleetSpec {
    let mut spec = churned_spec(11, 0.2);
    spec.stripes = 40;
    spec.storm = vec![vec![]];
    spec
}

/// Run `spec` journaled to `path` and return the outcome.
fn journaled_run(spec: &FleetSpec, path: &std::path::Path) -> FleetOutcome {
    let journal =
        RefCell::new(FleetJournal::create(path, spec.seed, spec.stripes).expect("create journal"));
    run_fleet_with(
        spec,
        FleetIo {
            journal: Some(&journal),
            resume: None,
        },
        &NoopRecorder,
    )
}

/// `(case, FleetSummary::to_json(), outcome_digest)` of every pinned case,
/// computed by the drain whose per-hit victim draw scanned every job.
const PINS: &[(&str, &str, u64)] = &[
    ("(4,2) seed 3 rate 0.01 esc true", "{\"stripes\":300,\"repaired\":300,\"makespan\":716.4486686353086,\"stripes_per_sec\":0.4187320224510152,\"bytes_per_sec\":32362559.283088494,\"mttr_p50\":401.31100671999894,\"mttr_p99\":705.7112503953088,\"mttr_mean\":390.8540668197859,\"waited\":299,\"max_wait\":711.0799595153087,\"mean_wait\":387.3478523719993,\"cross_bytes\":13119782912,\"inner_bytes\":10066329600,\"mismatched_releases\":0,\"lost\":0,\"escalations\":15,\"churn_failures\":15}", 0x89c399a59b97ad2c),
    ("(4,2) seed 3 rate 0.01 esc false", "{\"stripes\":300,\"repaired\":299,\"makespan\":704.5088542719961,\"stripes_per_sec\":0.4244091443094374,\"bytes_per_sec\":32625261.95465821,\"mttr_p50\":392.98950758399894,\"mttr_p99\":699.1401451519962,\"mttr_mean\":385.1236305012428,\"waited\":298,\"max_wait\":701.8244997119962,\"mean_wait\":381.6523740108616,\"cross_bytes\":12952010752,\"inner_bytes\":10032775168,\"mismatched_releases\":0,\"lost\":1,\"escalations\":0,\"churn_failures\":14}", 0xa5729b627ab48f5a),
    ("(4,2) seed 3 rate 0.2 esc true", "{\"stripes\":300,\"repaired\":256,\"makespan\":765.2283813481235,\"stripes_per_sec\":0.3345406498763126,\"bytes_per_sec\":32492043.836895738,\"mttr_p50\":425.6924050556008,\"mttr_p99\":759.8596722281236,\"mttr_mean\":407.26943157772484,\"waited\":255,\"max_wait\":759.8596722281236,\"mean_wait\":402.1633907457251,\"cross_bytes\":16273899520,\"inner_bytes\":8589934592,\"mismatched_releases\":0,\"lost\":44,\"escalations\":197,\"churn_failures\":241}", 0x01fe854f8735a767),
    ("(4,2) seed 3 rate 0.2 esc false", "{\"stripes\":300,\"repaired\":229,\"makespan\":655.3011279860083,\"stripes_per_sec\":0.3494576618596779,\"bytes_per_sec\":30261918.47547593,\"mttr_p50\":348.3451840500099,\"mttr_p99\":647.1138465780083,\"mttr_mean\":340.46883326094405,\"waited\":228,\"max_wait\":649.7982011380083,\"mean_wait\":336.2131349071975,\"cross_bytes\":12146704384,\"inner_bytes\":7683964928,\"mismatched_releases\":0,\"lost\":71,\"escalations\":0,\"churn_failures\":199}", 0xaddb33d985b8b600),
    ("(4,2) seed 17 rate 0.01 esc true", "{\"stripes\":300,\"repaired\":299,\"makespan\":675.9125890261179,\"stripes_per_sec\":0.4423648928196637,\"bytes_per_sec\":33955916.57949301,\"mttr_p50\":407.47713302612044,\"mttr_p99\":673.2282344661179,\"mttr_mean\":388.032732986181,\"waited\":297,\"max_wait\":673.2282344661179,\"mean_wait\":384.5709031589701,\"cross_bytes\":12918456320,\"inner_bytes\":10032775168,\"mismatched_releases\":0,\"lost\":1,\"escalations\":8,\"churn_failures\":9}", 0x5fdd5418dc40754f),
    ("(4,2) seed 17 rate 0.01 esc false", "{\"stripes\":300,\"repaired\":299,\"makespan\":669.7464627199963,\"stripes_per_sec\":0.446437594885819,\"bytes_per_sec\":34268537.07414848,\"mttr_p50\":390.3051530239988,\"mttr_p99\":664.3777535999964,\"mttr_mean\":378.0931353308884,\"waited\":297,\"max_wait\":667.0621081599963,\"mean_wait\":374.6308566149551,\"cross_bytes\":12918456320,\"inner_bytes\":10032775168,\"mismatched_releases\":0,\"lost\":1,\"escalations\":0,\"churn_failures\":9}", 0x8c0c581f4646b1bf),
    ("(4,2) seed 17 rate 0.2 esc true", "{\"stripes\":300,\"repaired\":266,\"makespan\":750.6641345795704,\"stripes_per_sec\":0.3543528826630041,\"bytes_per_sec\":34686936.58394032,\"mttr_p50\":405.9330703977509,\"mttr_p99\":747.9797800195704,\"mttr_mean\":397.85342452026987,\"waited\":264,\"max_wait\":745.2954254595704,\"mean_wait\":392.6870511481197,\"cross_bytes\":17112760320,\"inner_bytes\":8925478912,\"mismatched_releases\":0,\"lost\":34,\"escalations\":199,\"churn_failures\":233}", 0x6cd0668124f7c6e0),
    ("(4,2) seed 17 rate 0.2 esc false", "{\"stripes\":300,\"repaired\":221,\"makespan\":628.464104985194,\"stripes_per_sec\":0.3516509507018011,\"bytes_per_sec\":30166009.37049004,\"mttr_p50\":298.9028802559999,\"mttr_p99\":611.6369784520576,\"mttr_mean\":307.16456622111593,\"waited\":219,\"max_wait\":623.0953958651941,\"mean_wait\":302.97527261141465,\"cross_bytes\":11542724608,\"inner_bytes\":7415529472,\"mismatched_releases\":0,\"lost\":79,\"escalations\":0,\"churn_failures\":202}", 0x09020b91a78e558d),
    ("(4,2) seed 99 rate 0.01 esc true", "{\"stripes\":300,\"repaired\":299,\"makespan\":668.6199317301658,\"stripes_per_sec\":0.4471897797397208,\"bytes_per_sec\":33924797.864318036,\"mttr_p50\":379.5677347839989,\"mttr_p99\":665.9355771701659,\"mttr_mean\":367.83891086627887,\"waited\":298,\"max_wait\":665.9355771701659,\"mean_wait\":364.44890323465364,\"cross_bytes\":12650020864,\"inner_bytes\":10032775168,\"mismatched_releases\":0,\"lost\":1,\"escalations\":4,\"churn_failures\":5}", 0xc41378da6041783b),
    ("(4,2) seed 99 rate 0.01 esc false", "{\"stripes\":300,\"repaired\":299,\"makespan\":674.7125186559963,\"stripes_per_sec\":0.4431517005132757,\"bytes_per_sec\":33618460.31430295,\"mttr_p50\":384.80222617599895,\"mttr_p99\":672.0281640959963,\"mttr_mean\":370.4736981567347,\"waited\":298,\"max_wait\":672.0281640959963,\"mean_wait\":367.0836905251092,\"cross_bytes\":12650020864,\"inner_bytes\":10032775168,\"mismatched_releases\":0,\"lost\":1,\"escalations\":0,\"churn_failures\":5}", 0xb380ac5df82a0d60),
    ("(4,2) seed 99 rate 0.2 esc true", "{\"stripes\":300,\"repaired\":255,\"makespan\":756.5582848625176,\"stripes_per_sec\":0.33705268331882565,\"bytes_per_sec\":33130508.52196386,\"mttr_p50\":385.9714666795985,\"mttr_p99\":753.8739303025176,\"mttr_mean\":390.31221501741805,\"waited\":254,\"max_wait\":753.8739303025176,\"mean_wait\":385.10825157923745,\"cross_bytes\":16508780544,\"inner_bytes\":8556380160,\"mismatched_releases\":0,\"lost\":45,\"escalations\":207,\"churn_failures\":252}", 0x195691d47c976345),
    ("(4,2) seed 99 rate 0.2 esc false", "{\"stripes\":300,\"repaired\":219,\"makespan\":621.7751574139309,\"stripes_per_sec\":0.3522173528303357,\"bytes_per_sec\":30652426.602679487,\"mttr_p50\":323.4260054315981,\"mttr_p99\":610.9035214459309,\"mttr_mean\":317.7969559827817,\"waited\":218,\"max_wait\":616.4064482939309,\"mean_wait\":313.5050530184714,\"cross_bytes\":11710496768,\"inner_bytes\":7348420608,\"mismatched_releases\":0,\"lost\":81,\"escalations\":0,\"churn_failures\":217}", 0xbc6646cffec82582),
    ("(6,3) seed 3 rate 0.01 esc true", "{\"stripes\":300,\"repaired\":300,\"makespan\":671.0072319736013,\"stripes_per_sec\":0.44708907103374196,\"bytes_per_sec\":49506005.44541805,\"mttr_p50\":378.27836720560396,\"mttr_p99\":660.2698137336014,\"mttr_mean\":367.74961183554694,\"waited\":299,\"max_wait\":668.3228774136013,\"mean_wait\":364.2496608817337,\"cross_bytes\":13086228480,\"inner_bytes\":20132659200,\"mismatched_releases\":0,\"lost\":0,\"escalations\":14,\"churn_failures\":14}", 0xaabe0ff8dcfac3bd),
    ("(6,3) seed 3 rate 0.01 esc false", "{\"stripes\":300,\"repaired\":300,\"makespan\":683.8393241599964,\"stripes_per_sec\":0.4386995444704927,\"bytes_per_sec\":48527968.596663654,\"mttr_p50\":383.0573957119989,\"mttr_p99\":673.1019059199965,\"mttr_mean\":370.97958976170537,\"waited\":299,\"max_wait\":681.1549695999964,\"mean_wait\":367.48903404885203,\"cross_bytes\":13052674048,\"inner_bytes\":20132659200,\"mismatched_releases\":0,\"lost\":0,\"escalations\":0,\"churn_failures\":14}", 0x3caa3b6fdf861764),
    ("(6,3) seed 3 rate 0.2 esc true", "{\"stripes\":300,\"repaired\":298,\"makespan\":909.7491847988146,\"stripes_per_sec\":0.32756281069479704,\"bytes_per_sec\":45772011.45962957,\"mttr_p50\":502.1681581522724,\"mttr_p99\":901.6961211188146,\"mttr_mean\":484.56465536644197,\"waited\":297,\"max_wait\":907.0648302388146,\"mean_wait\":478.7883387167777,\"cross_bytes\":21642608640,\"inner_bytes\":19998441472,\"mismatched_releases\":0,\"lost\":2,\"escalations\":275,\"churn_failures\":277}", 0x6c7d1a4dcb9065d5),
    ("(6,3) seed 3 rate 0.2 esc false", "{\"stripes\":300,\"repaired\":259,\"makespan\":815.5069153279984,\"stripes_per_sec\":0.3175938733711776,\"bytes_per_sec\":40610599.0783411,\"mttr_p50\":406.8139335679995,\"mttr_p99\":814.1647380479984,\"mttr_mean\":409.0780156283545,\"waited\":258,\"max_wait\":810.1382062079985,\"mean_wait\":404.23581311703396,\"cross_bytes\":15737028608,\"inner_bytes\":17381195776,\"mismatched_releases\":0,\"lost\":41,\"escalations\":0,\"churn_failures\":261}", 0x5eb248e534ed6b73),
    ("(6,3) seed 17 rate 0.01 esc true", "{\"stripes\":300,\"repaired\":300,\"makespan\":659.3040140407494,\"stripes_per_sec\":0.45502528971628253,\"bytes_per_sec\":50282992.53453506,\"mttr_p50\":391.50522339412055,\"mttr_p99\":651.2509503607495,\"mttr_mean\":375.1623467823379,\"waited\":298,\"max_wait\":656.6196594807494,\"mean_wait\":371.68029152559143,\"cross_bytes\":13019119616,\"inner_bytes\":20132659200,\"mismatched_releases\":0,\"lost\":0,\"escalations\":9,\"churn_failures\":9}", 0x404e2a2c8875c5a0),
    ("(6,3) seed 17 rate 0.01 esc false", "{\"stripes\":300,\"repaired\":300,\"makespan\":667.5989790719963,\"stripes_per_sec\":0.4493715679688703,\"bytes_per_sec\":49658222.75834367,\"mttr_p50\":385.74175027199885,\"mttr_p99\":659.5459153919963,\"mttr_mean\":372.90069284181203,\"waited\":298,\"max_wait\":664.9146245119963,\"mean_wait\":369.4195323699189,\"cross_bytes\":13019119616,\"inner_bytes\":20132659200,\"mismatched_releases\":0,\"lost\":0,\"escalations\":0,\"churn_failures\":9}", 0xd467815d6eb7d451),
    ("(6,3) seed 17 rate 0.2 esc true", "{\"stripes\":300,\"repaired\":291,\"makespan\":951.4082485051312,\"stripes_per_sec\":0.3058623892080231,\"bytes_per_sec\":43309318.11947369,\"mttr_p50\":479.83883655872967,\"mttr_p99\":945.9053216571311,\"mttr_mean\":471.6249875930148,\"waited\":289,\"max_wait\":948.7238939451312,\"mean_wait\":465.6917338026644,\"cross_bytes\":21676163072,\"inner_bytes\":19528679424,\"mismatched_releases\":0,\"lost\":9,\"escalations\":294,\"churn_failures\":303}", 0x253424e1be616f2f),
    ("(6,3) seed 17 rate 0.2 esc false", "{\"stripes\":300,\"repaired\":260,\"makespan\":797.1986782165453,\"stripes_per_sec\":0.32614203598738967,\"bytes_per_sec\":41627431.34777975,\"mttr_p50\":392.0499834879994,\"mttr_p99\":789.1456145365454,\"mttr_mean\":403.87611972248715,\"waited\":258,\"max_wait\":791.8299690965454,\"mean_wait\":399.0494437347947,\"cross_bytes\":15737028608,\"inner_bytes\":17448304640,\"mismatched_releases\":0,\"lost\":40,\"escalations\":0,\"churn_failures\":252}", 0x32e357bc196d6169),
    ("(6,3) seed 99 rate 0.01 esc true", "{\"stripes\":300,\"repaired\":300,\"makespan\":643.9766589439963,\"stripes_per_sec\":0.4658553937217927,\"bytes_per_sec\":51062942.892872326,\"mttr_p50\":378.0913397759988,\"mttr_p99\":638.6079498239964,\"mttr_mean\":363.8902093687454,\"waited\":299,\"max_wait\":641.2923043839963,\"mean_wait\":360.4797369002655,\"cross_bytes\":12750684160,\"inner_bytes\":20132659200,\"mismatched_releases\":0,\"lost\":0,\"escalations\":5,\"churn_failures\":5}", 0xd4e351420c057bf3),
    ("(6,3) seed 99 rate 0.01 esc false", "{\"stripes\":300,\"repaired\":300,\"makespan\":646.6610135039964,\"stripes_per_sec\":0.46392158137757594,\"bytes_per_sec\":50850975.50851004,\"mttr_p50\":375.4069852159989,\"mttr_p99\":641.2923043839965,\"mttr_mean\":364.0803511500788,\"waited\":299,\"max_wait\":643.9766589439964,\"mean_wait\":360.66987868159885,\"cross_bytes\":12750684160,\"inner_bytes\":20132659200,\"mismatched_releases\":0,\"lost\":0,\"escalations\":0,\"churn_failures\":5}", 0x47f2877d0511329a),
    ("(6,3) seed 99 rate 0.2 esc true", "{\"stripes\":300,\"repaired\":298,\"makespan\":1021.648163304458,\"stripes_per_sec\":0.29168554371608457,\"bytes_per_sec\":41842532.39366976,\"mttr_p50\":499.71362069323294,\"mttr_p99\":1018.963808744458,\"mttr_mean\":514.8453629694442,\"waited\":297,\"max_wait\":1016.279454184458,\"mean_wait\":508.8033132341422,\"cross_bytes\":22749904896,\"inner_bytes\":19998441472,\"mismatched_releases\":0,\"lost\":2,\"escalations\":309,\"churn_failures\":311}", 0x74f393301bdc8414),
    ("(6,3) seed 99 rate 0.2 esc false", "{\"stripes\":300,\"repaired\":261,\"makespan\":821.4040548861118,\"stripes_per_sec\":0.31774861403160204,\"bytes_per_sec\":41054343.42502193,\"mttr_p50\":388.4261048319996,\"mttr_p99\":807.223783322153,\"mttr_mean\":402.27092381903145,\"waited\":260,\"max_wait\":813.2167734781118,\"mean_wait\":397.3274946264493,\"cross_bytes\":16206790656,\"inner_bytes\":17515413504,\"mismatched_releases\":0,\"lost\":39,\"escalations\":0,\"churn_failures\":265}", 0x3e9ce6a70bf51554),
    ("storm seed 5 rate 0.1", "{\"stripes\":100,\"repaired\":92,\"makespan\":252.69344203425905,\"stripes_per_sec\":0.36407751328792715,\"bytes_per_sec\":33595138.94645933,\"mttr_p50\":148.99221688659085,\"mttr_p99\":252.69344203425905,\"mttr_mean\":141.60054512175478,\"waited\":91,\"max_wait\":250.00908747425905,\"mean_wait\":136.88395909323302,\"cross_bytes\":5402263552,\"inner_bytes\":3087007744,\"mismatched_releases\":0,\"lost\":8,\"escalations\":49,\"churn_failures\":57}", 0x94f577cc917f9e66),
];

/// FNV-1a of the bytes [`small_journaled_spec`] journals.
const JOURNAL_PIN: u64 = 0x5f0e056ccc4a78af;

#[test]
fn churned_drains_are_pinned() {
    let mut got = Vec::new();
    for (case, spec) in pinned_cases() {
        let out = run_synthetic_fleet(&spec, &NoopRecorder);
        let json = out.summary.to_json();
        let digest = outcome_digest(&out);
        got.push((case, json, digest));
    }
    let path = std::env::temp_dir().join(format!("rpr-churn-pin-{}.jsonl", std::process::id()));
    journaled_run(&small_journaled_spec(), &path);
    let bytes = std::fs::read(&path).expect("read journal");
    let _ = std::fs::remove_file(&path);
    let journal = fnv1a(&bytes);

    assert_eq!(got.len(), PINS.len(), "pinned grid size");
    for ((case, json, digest), &(pin_case, pin_json, pin_digest)) in got.iter().zip(PINS) {
        assert_eq!(case, pin_case);
        assert_eq!(json, pin_json, "{case}: summary");
        assert_eq!(*digest, pin_digest, "{case}: records + lost");
    }
    assert_eq!(journal, JOURNAL_PIN, "journal bytes");
}

#[test]
fn resume_from_every_crash_point_is_bit_identical() {
    // Group commit moves when records reach the file, so a crash may
    // leave any prefix of the journal behind. Cut the journal at every
    // record boundary and once inside every record: each resume must
    // re-derive the uninterrupted drain and replay exactly the cost
    // records the prefix kept.
    let spec = small_journaled_spec();
    let path = std::env::temp_dir().join(format!("rpr-churn-cuts-{}.jsonl", std::process::id()));
    let clean = journaled_run(&spec, &path);
    let bytes = std::fs::read(&path).expect("read journal");
    let _ = std::fs::remove_file(&path);
    assert!(clean.summary.lost > 0 && clean.summary.escalations > 0);

    let text = std::str::from_utf8(&bytes).expect("journal is UTF-8");
    let header = text.find('\n').expect("header line") + 1;
    let mut cuts = vec![header];
    let mut start = header;
    for line in text[header..].split_inclusive('\n') {
        cuts.push(start + line.len() / 2);
        start += line.len();
        cuts.push(start);
    }
    for cut in cuts {
        let prefix = &text[..cut];
        let replay = JournalReplay::parse(prefix).expect("every prefix parses");
        let resumed = run_fleet_with(
            &spec,
            FleetIo {
                journal: None,
                resume: Some(&replay),
            },
            &NoopRecorder,
        );
        // A torn final line never parses, so only whole cost lines count.
        let costs = prefix
            .split_inclusive('\n')
            .filter(|l| l.ends_with('\n') && l.contains("\"rec\":\"cost\""))
            .count();
        assert_eq!(resumed.replayed, costs, "cut at byte {cut}");
        assert_eq!(
            resumed.summary.to_json(),
            clean.summary.to_json(),
            "cut at byte {cut}"
        );
        assert_eq!(resumed.records, clean.records, "cut at byte {cut}");
        assert_eq!(resumed.lost, clean.lost, "cut at byte {cut}");
    }
}
