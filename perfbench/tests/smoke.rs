//! The benchmark's own self-test: every workload at smoke size, in both
//! modes, emits exactly the metrics `BENCHMARK.json` names, finite and
//! tagged with their units; and a second seed changes the generated
//! inputs but not the set of metrics.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::Mutex;

use insitu_types::json::Value;
use perfbench::gen;
use perfbench::report::Outcome;
use perfbench::{run_workload, RunConfig, END_TO_END, PER_LAYER, SMOKE, WORKLOADS};

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Workload runs take every core, as in a real run; the harness's test
/// threads take turns so that one run's timing (and its accounting check)
/// does not absorb another's.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = RunConfig {
        seed,
        seconds: 0.4,
        trace,
        threads: 2,
    };
    run_workload(workload, &cfg, &SMOKE).expect("known workload")
}

/// The result line parses back with exactly the contract's keys, and its
/// metrics are exactly `listed`, finite, with the listed units.
fn assert_emits(outcome: &Outcome, listed: &[(String, String)], what: &str) {
    assert!(
        outcome.correct(),
        "{what}: {:?} {:?}",
        outcome.problems,
        outcome.report
    );
    let line = outcome.result_json();
    assert!(!line.contains('\n'), "{what}: result must be one line");
    let doc = Value::parse(&line).expect("result line parses");
    let top = doc.as_object().expect("result object");
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{what}"
    );
    assert!(
        doc.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0,
        "{what}"
    );
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    assert_eq!(metrics.len(), listed.len(), "{what}: metric count");
    for (name, unit) in listed {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{what}: {name} = {value}");
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: {name} unit"
        );
    }
}

#[test]
fn contract_lists_match_the_code() {
    let doc = contract();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
}

#[test]
fn every_workload_emits_every_metric_in_both_modes() {
    let doc = contract();
    for w in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let listed = names(&doc, key);
            let what = format!("{w} trace={trace}");
            let first = run(w, 1, trace);
            assert_emits(&first, &listed, &what);
            let second = run(w, 2, trace);
            assert_emits(&second, &listed, &format!("{what} seed 2"));
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for w in WORKLOADS {
        let outcome = run(w, 3, false);
        for m in &outcome.metrics.0 {
            assert!(m.value > 0.0, "{w}: {} = {}", m.name, m.value);
        }
    }
}

#[test]
fn traced_runs_meet_the_workload_invariants() {
    let hot = run("hot_hits", 1, true).metrics;
    assert_eq!(hot.get("service.hit_ratio"), Some(1.0));
    assert_eq!(hot.get("service.solves_per_req"), Some(0.0));
    assert_eq!(hot.get("failed_frac"), Some(0.0));
    let cold = run("cold_misses", 1, true).metrics;
    assert_eq!(cold.get("service.hit_ratio"), Some(0.0));
    assert_eq!(cold.get("service.solves_per_req"), Some(1.0));
    let md = run("insitu_md", 1, true).metrics;
    assert!(md.get("runtime.sim_ms_per_step").unwrap() > 0.0);
    assert_eq!(md.get("service.hit_ratio"), Some(0.0));
}

#[test]
fn a_second_seed_changes_the_generated_inputs() {
    let zipf = gen::Zipf::new(8, gen::ZIPF_S);
    let u = gen::universe(8);
    let stream = |seed| {
        (0..16)
            .map(|i| gen::hot_request(seed, i, &u, &zipf))
            .collect::<Vec<_>>()
    };
    assert_ne!(stream(1), stream(2));
    assert_ne!(gen::cold_request(1, 0), gen::cold_request(2, 0));
    assert_ne!(
        perfbench::md::declared_problem(1, 100),
        perfbench::md::declared_problem(2, 100)
    );
    // same seed, same inputs
    assert_eq!(stream(1), stream(1));
    assert_eq!(gen::cold_request(7, 3), gen::cold_request(7, 3));
}

#[test]
fn cold_requests_are_distinct() {
    let fps: std::collections::HashSet<_> = (0..200)
        .map(|i| certify::fingerprint(&gen::cold_request(1, i)))
        .chain((0..50).map(|i| certify::fingerprint(&gen::warmup_instance(1, i))))
        .collect();
    assert_eq!(fps.len(), 250);
}
