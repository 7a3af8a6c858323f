//! Tests of the benchmark itself: seeded op streams, mix and skew,
//! the percentile helper, the output checkers, the metric lists, and a
//! short correct run of every workload.

use std::path::PathBuf;

use e2ebench::check::{check_goals, digest, GoalRecord, ToggleLog};
use e2ebench::hist::Hist;
use e2ebench::report::{END_TO_END, PER_LAYER};
use e2ebench::rng::{Rng, Zipf};
use e2ebench::stats::supported_tail_rank;
use e2ebench::workloads::durable_ingest::{self, IngestGen, IngestOp};
use e2ebench::workloads::what_if::{self, Hypo, WhatIfGen};
use e2ebench::workloads::wire_read::{self, ReadOp, WireReadGen};
use e2ebench::workloads::Args;
use kbt_service::{Service, WireResponse};

const OPS: usize = 200_000;

#[test]
fn the_same_seed_gives_the_same_op_stream() {
    let wire = |seed| {
        let mut g = WireReadGen::new(seed, 0);
        (0..2000).map(|_| g.next_op()).collect::<Vec<_>>()
    };
    assert_eq!(wire(7), wire(7));
    assert_ne!(wire(7), wire(8));
    let ingest = |seed| {
        let mut g = IngestGen::new(seed, 1);
        (0..2000).map(|_| g.next_op()).collect::<Vec<_>>()
    };
    assert_eq!(ingest(7), ingest(7));
    assert_ne!(ingest(7), ingest(8));
    let hypo = |seed| {
        let mut g = WhatIfGen::new(seed);
        (0..2000).map(|_| g.next_op()).collect::<Vec<_>>()
    };
    assert_eq!(hypo(7), hypo(7));
    assert_ne!(hypo(7), hypo(8));
    // the graph model (popularity order, bridge edges) is seeded too
    assert_eq!(wire_read::model(7).toggles, wire_read::model(7).toggles);
}

/// `|got - want| <= tol`.
fn near(got: f64, want: f64, tol: f64) -> bool {
    (got - want).abs() <= tol
}

#[test]
fn wire_read_mix_and_zipf_skew_stay_within_tolerance() {
    let mut g = WireReadGen::new(3, 0);
    let pop = wire_read::popularity(3);
    let (mut goals, mut scans, mut toggles, mut hottest) = (0usize, 0usize, 0usize, 0usize);
    for _ in 0..OPS {
        match g.next_op() {
            ReadOp::Goal(chain) => {
                goals += 1;
                hottest += (chain == pop[0]) as usize;
            }
            ReadOp::Scan => scans += 1,
            ReadOp::Toggle(_) => toggles += 1,
        }
    }
    let share = |n: usize| n as f64 / OPS as f64;
    // stated tolerances: ±0.2 points on toggles, ±0.5 on scans and goals
    assert!(
        near(share(toggles), wire_read::TOGGLE_SHARE, 0.002),
        "{toggles}"
    );
    assert!(near(share(scans), wire_read::SCAN_SHARE, 0.005), "{scans}");
    assert!(near(
        share(goals),
        1.0 - wire_read::TOGGLE_SHARE - wire_read::SCAN_SHARE,
        0.005
    ));
    // the hottest head's share of goals within 5% of the Zipf law
    let zipf = Zipf::new(wire_read::CHAINS, wire_read::ZIPF_S);
    let want = zipf.probability(0);
    let got = hottest as f64 / goals as f64;
    assert!(near(got, want, 0.05 * want), "hottest head {got} vs {want}");
}

#[test]
fn durable_and_what_if_mixes_follow_their_cycles() {
    let mut g = IngestGen::new(5, 0);
    let ops: Vec<IngestOp> = (0..OPS).map(|_| g.next_op()).collect();
    for (i, op) in ops.iter().enumerate() {
        assert_eq!(
            *op == IngestOp::Apply,
            (i as u64 + 1).is_multiple_of(durable_ingest::APPLY_EVERY)
        );
    }
    let others = ops.iter().filter(|o| **o != IngestOp::Apply).count() as f64;
    let toggles = ops
        .iter()
        .filter(|o| matches!(o, IngestOp::Toggle(..)))
        .count() as f64;
    assert!(near(toggles / others, durable_ingest::TOGGLE_SHARE, 0.005));
    let asserts = ops
        .iter()
        .filter(|o| matches!(o, IngestOp::Assert(..)))
        .count() as f64;
    let retracts = ops
        .iter()
        .filter(|o| matches!(o, IngestOp::Retract(..)))
        .count() as f64;
    // the window stays full: one retract per assert once it holds WINDOW readings
    assert!(near(asserts - retracts, durable_ingest::WINDOW as f64, 1.0));

    let mut g = WhatIfGen::new(5);
    let cycle = what_if::CYCLE as usize;
    let ops: Vec<Hypo> = (0..cycle * 100).map(|_| g.next_op()).collect();
    let count = |t: usize| ops.iter().filter(|o| o.template() == t).count();
    assert_eq!(count(1), 100);
    let closures = cycle / what_if::CLOSURE_EVERY as usize;
    assert_eq!(count(0), 100 * closures);
    assert_eq!(count(2), 100 * (cycle - 1 - closures));
    // p50 and p90 of the mix fall inside (c) and (a), away from the edges
    assert!(count(2) as f64 / ops.len() as f64 > 0.7);
    assert!(count(2) as f64 / ops.len() as f64 + 0.05 < 0.9);
    assert!((count(2) + count(0)) as f64 / ops.len() as f64 > 0.95);
    // every generated op is among those whose answers are precomputed
    let all = what_if::all_ops();
    assert!(ops.iter().all(|o| all.contains(o)));
}

#[test]
fn percentile_helper_reports_the_highest_supported_tail_and_its_count() {
    // (percentile, zero-based rank, samples beyond)
    assert_eq!(supported_tail_rank(1000), Some((99.0, 989, 10)));
    assert_eq!(supported_tail_rank(10_000), Some((99.9, 9989, 10)));
    // 999 samples: p99 would have only 9 beyond it
    assert_eq!(supported_tail_rank(999), Some((95.0, 949, 49)));
    assert_eq!(supported_tail_rank(10), None);
    assert_eq!(supported_tail_rank(0), None);
    // the latency histogram reports the value at that rank
    let mut h = Hist::default();
    for us in 1..=1000u64 {
        h.record_ns(us * 1000);
    }
    let (p, v, beyond) = h.tail_us().expect("1000 samples support p99");
    assert_eq!((p, beyond), (99.0, 10));
    assert!((v - 990.0).abs() <= 990.0 / 64.0, "{v}");
}

#[test]
fn a_wrong_expected_answer_makes_the_checkers_fail() {
    let mut m = wire_read::model(1);
    let chain = wire_read::popularity(1)[0];
    // client 0 bridges the hottest chain: present from epoch 10 on
    let logs = vec![ToggleLog(vec![(10, true)]), ToggleLog::default()];
    let before = m.expected(chain, 0);
    let after = m.expected(chain, 1);
    assert_eq!(before.0, wire_read::CHAIN_LEN);
    assert_eq!(after.0, 2 * wire_read::CHAIN_LEN + 1);
    let ok = [
        GoalRecord {
            chain,
            epoch: 9,
            digest: before,
        },
        GoalRecord {
            chain,
            epoch: 10,
            digest: after,
        },
    ];
    assert!(check_goals(&mut m, &logs, &ok).is_empty());
    let stale = [GoalRecord {
        chain,
        epoch: 11,
        digest: before,
    }];
    assert_eq!(check_goals(&mut m, &logs, &stale).len(), 1);
    let short = [GoalRecord {
        chain,
        epoch: 9,
        digest: (before.0 - 1, before.1),
    }];
    assert_eq!(check_goals(&mut m, &logs, &short).len(), 1);

    // what_if: the wire answer must match the in-process one exactly
    let s = Service::new(what_if::config());
    for l in what_if::seed_script() {
        s.execute(&l).unwrap();
    }
    let text = what_if::line(Hypo::Closure(3));
    let want = what_if::expected(&s, &text).unwrap();
    let resp = WireResponse {
        data: want.0.iter().map(|l| format!("= {l}")).collect(),
        status: format!("OK id=t1 epoch=4 worlds={}", want.1),
    };
    assert!(what_if::check_answer(&text, &resp, &want).is_ok());
    let mut wrong = want.clone();
    wrong.0[0].push('x');
    assert!(what_if::check_answer(&text, &resp, &wrong).is_err());
    wrong = want.clone();
    wrong.1 += 1;
    assert!(what_if::check_answer(&text, &resp, &wrong).is_err());

    // durable_ingest: persistent STATS parts compare; a changed count fails
    let stats = |facts: u32| {
        vec![
            format!("epoch 7 | 1 world(s), {facts} fact(s) | threads 1 | commits 7 (applies 1, defines 1) | queries 3"),
            "eval: 2 update(s), 9 fixpoint round(s), 4 reused, 0 rederived".to_string(),
            "sessions: accepted 3, active 1, rejected-at-capacity 0, idle-closed 0".to_string(),
        ]
    };
    let mut other = stats(10);
    other[0] = other[0].replace("queries 3", "queries 0");
    other[1] = other[1].replace("9 fixpoint", "8 fixpoint");
    assert_eq!(
        durable_ingest::persistent_stats(&stats(10)),
        durable_ingest::persistent_stats(&other)
    );
    assert_ne!(
        durable_ingest::persistent_stats(&stats(10)),
        durable_ingest::persistent_stats(&stats(11))
    );
}

#[test]
fn digests_ignore_order_but_not_content() {
    assert_eq!(digest(["a", "b"]), digest(["b", "a"]));
    assert_ne!(digest(["a", "b"]), digest(["a", "c"]));
    assert_ne!(digest(["a"]), digest(["a", "a"]));
}

#[test]
fn rng_is_uniform_enough_and_permutations_are_complete() {
    let mut r = Rng::new(9, 0);
    let mut p = r.permutation(100);
    p.sort_unstable();
    assert_eq!(p, (0..100).collect::<Vec<_>>());
    let mean = (0..OPS).map(|_| r.unit()).sum::<f64>() / OPS as f64;
    assert!(near(mean, 0.5, 0.005));
}

#[test]
fn metric_lists_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = |section: &str| -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted name")].to_string())
            .collect()
    };
    let want = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names("end_to_end"), want(&END_TO_END));
    assert_eq!(names("per_layer"), want(&PER_LAYER));
}

fn short_run(workload: &str, trace: bool) {
    let args = Args {
        workload: workload.to_string(),
        seed: 4,
        seconds: 0.4,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}")),
    };
    let report = match workload {
        "wire_read" => wire_read::run(&args),
        "durable_ingest" => durable_ingest::run(&args),
        _ => what_if::run(&args),
    };
    assert!(report.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(report.failed, 0, "{workload}: {:?}", report.lines);
    assert_eq!(
        report.failed_checks, 0,
        "{workload}: {:?}",
        report.check_failures
    );
    let names = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for (name, _) in names {
        let v = report.metrics.get(name).copied().unwrap_or(0.0);
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
    if !trace {
        for (name, _) in END_TO_END {
            assert!(report.metrics[name] > 0.0, "{workload}: {name} is 0");
        }
    }
}

#[test]
fn every_workload_runs_correctly_untraced_and_traced() {
    for workload in ["wire_read", "durable_ingest", "what_if"] {
        short_run(workload, false);
        short_run(workload, true);
    }
}
