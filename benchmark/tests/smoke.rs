//! End-to-end smoke tests of the `nembench` binary: every workload runs
//! with cut-down op counts, passes its checks, and prints exactly the
//! metrics `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use nemfpga_service::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn declared(list: &str) -> BTreeSet<String> {
    let doc = json::parse(BENCHMARK_JSON).unwrap();
    let Some(Value::Arr(items)) = doc.get(list) else { panic!("no {list} list") };
    items.iter().map(|m| m.get("name").and_then(Value::as_str).unwrap().to_owned()).collect()
}

fn workloads() -> Vec<String> {
    let doc = json::parse(BENCHMARK_JSON).unwrap();
    let Some(Value::Arr(items)) = doc.get("workloads") else { panic!("no workloads") };
    items.iter().map(|w| w.get("name").and_then(Value::as_str).unwrap().to_owned()).collect()
}

/// The tests below run whole workloads on every core; one at a time keeps
/// the smoke run's time limit meaningful.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/test-smoke")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the binary, asserts it exited 0 (no failed op or check), and
/// returns its stdout and wall time.
fn nembench(args: &[&str]) -> (String, Duration) {
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_nembench")).args(args).output().unwrap();
    let took = started.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "nembench {args:?} failed: {stderr}");
    (String::from_utf8(out.stdout).unwrap(), took)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Checks `run`'s stdout: one record per (workload, metric), every name
/// well formed and declared, every declared metric present for every
/// workload, every value finite.
fn check_records(stdout: &str, expected: &BTreeSet<String>) {
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for line in stdout.lines() {
        let record = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let name = record.get("name").and_then(Value::as_str).unwrap().to_owned();
        let workload = record.get("workload").and_then(Value::as_str).unwrap().to_owned();
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(expected.contains(&name), "{name} is printed but not declared");
        let value = record.get("value").and_then(Value::as_f64).unwrap();
        assert!(value.is_finite(), "{workload} {name} = {value}");
        assert!(record.get("samples").and_then(Value::as_u64).unwrap() >= 1);
        assert!(seen.insert((workload, name)), "duplicate record: {line}");
    }
    for workload in workloads() {
        for name in expected {
            assert!(seen.contains(&(workload.clone(), name.clone())), "{workload} lacks {name}");
        }
    }
}

#[test]
fn smoke_run_of_every_workload_passes_and_prints_the_declared_metrics() {
    let _serial = one_at_a_time();
    let out = scratch("run");
    let (stdout, took) =
        nembench(&["run", "--seed", "1", "--smoke", "--out", out.to_str().unwrap()]);
    // Exit 0 means every workload passed with fail_frac = 0.
    assert!(took < Duration::from_secs(60), "smoke run took {took:?}");
    check_records(&stdout, &declared("end_to_end"));
    for workload in workloads() {
        assert!(out.join(format!("{workload}.jsonl")).is_file(), "no result file for {workload}");
    }
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn traced_smoke_run_prints_the_per_layer_metrics_and_loadable_traces() {
    let _serial = one_at_a_time();
    let out = scratch("trace");
    let traces = out.join("traces");
    let (stdout, _) = nembench(&[
        "run",
        "--seed",
        "2",
        "--smoke",
        "--out",
        out.to_str().unwrap(),
        "--trace",
        traces.to_str().unwrap(),
    ]);
    check_records(&stdout, &declared("per_layer"));
    for workload in workloads() {
        let trace = traces.join(format!("{workload}.r1.trace.json"));
        let doc = json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let Some(Value::Arr(events)) = doc.get("traceEvents") else {
            panic!("{trace:?}: no events")
        };
        assert!(!events.is_empty(), "{trace:?} is empty");
        assert!(events.iter().all(|e| e.get("ph").and_then(Value::as_str) == Some("X")));
    }
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn single_workload_form_ends_with_the_result_object() {
    let _serial = one_at_a_time();
    let out = scratch("single");
    let (stdout, _) = nembench(&[
        "--workload",
        "http_hit",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
        "--out",
        out.to_str().unwrap(),
    ]);
    let last = json::parse(stdout.lines().last().unwrap()).unwrap();
    let Value::Obj(fields) = &last else { panic!("not an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
    assert!(last.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    let Some(Value::Obj(metrics)) = last.get("metrics") else { panic!("no metrics") };
    let names: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(names, declared("end_to_end"));
    for (name, m) in metrics {
        assert!(m.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite), "{name}");
        assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
    }
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn bad_flags_exit_with_usage() {
    for args in [&["--seed", "1"][..], &["--workload", "nope", "--seed", "1"], &["run"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_nembench")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
