//! The benchmark's own tests: every workload at tiny size emits every
//! published metric with its unit, the checks catch a corrupted
//! reference, and the traced side reproduces the untraced side.

use riskpipe_sessionbench::{run, Options, Outcome, Size, Workload, E2E_METRICS, LAYER_METRICS};
use std::path::PathBuf;

fn options(workload: Workload, trace: bool, corrupt: bool, tag: &str) -> Options {
    let work_dir = std::env::temp_dir().join(format!(
        "sessionbench-test-{}-{tag}-{}",
        workload.name(),
        std::process::id()
    ));
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        work_dir,
        corrupt_reference: corrupt,
    }
}

fn run_in_scratch(opts: &Options) -> Outcome {
    std::fs::create_dir_all(&opts.work_dir).expect("create scratch dir");
    let outcome = run(opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    outcome
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn published(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let tag = format!("\"{key}\": \"");
        let from = entry.find(&tag).expect("field present") + tag.len();
        entry[from..from + entry[from..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn assert_emits(outcome: &Outcome, expected: &[(&str, &str)], section: &str) {
    let emitted: Vec<&str> = outcome.metrics.names().collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(emitted, wanted, "metric names and order");
    for (name, unit) in expected {
        assert_eq!(outcome.metrics.unit(name), Some(*unit), "unit of {name}");
    }
    let published = published(section);
    let ours: Vec<(String, String)> = expected
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(ours, published, "BENCHMARK.json {section} list");
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        let e2e = run_in_scratch(&options(workload, false, false, "e2e"));
        assert!(
            e2e.checks.correct(),
            "{workload:?}: {:?}",
            e2e.checks.notes()
        );
        assert_emits(&e2e, &E2E_METRICS, "end_to_end");
        for (name, _) in E2E_METRICS {
            assert!(
                e2e.metrics.get(name).is_some_and(|v| v > 0.0),
                "{workload:?}: {name} must never read 0"
            );
        }
        let traced = run_in_scratch(&options(workload, true, false, "trace"));
        assert!(
            traced.checks.correct(),
            "{workload:?}: {:?}",
            traced.checks.notes()
        );
        assert_emits(&traced, &LAYER_METRICS, "per_layer");
        let line = traced.result_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(!line.contains('\n'));
    }
}

#[test]
fn a_corrupted_reference_digest_counts_as_failed() {
    for workload in Workload::ALL {
        let outcome = run_in_scratch(&options(workload, false, true, "corrupt"));
        assert!(
            !outcome.checks.correct(),
            "{workload:?} missed the corruption"
        );
        assert!(outcome.checks.failed() >= 2, "YLT and DFA both mismatch");
        assert!(outcome.result_json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn the_traced_run_is_bit_identical_to_the_untraced_run() {
    for workload in Workload::ALL {
        let traced = run_in_scratch(&options(workload, true, false, "identity"));
        assert!(
            traced.checks.correct(),
            "{workload:?}: {:?}",
            traced.checks.notes()
        );
        // The comparison is live: against corrupted untraced digests
        // every traced slot mismatches.
        let corrupted = run_in_scratch(&options(workload, true, true, "identity-corrupt"));
        let mismatches = corrupted
            .checks
            .notes()
            .iter()
            .filter(|n| n.contains("equals the untraced run's"))
            .count();
        assert!(
            mismatches >= 2,
            "{workload:?}: {:?}",
            corrupted.checks.notes()
        );
    }
}

#[test]
fn equal_seeds_give_equal_digests() {
    for workload in Workload::ALL {
        let a = run_in_scratch(&options(workload, false, false, "digest-a"));
        let b = run_in_scratch(&options(workload, false, false, "digest-b"));
        assert_eq!(a.digest, b.digest, "{workload:?}");
    }
}
