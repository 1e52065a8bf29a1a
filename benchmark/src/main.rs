//! `nembench` — end-to-end benchmark of the Fig. 9 / Fig. 12 CAD flows and
//! `/v1` serving, with per-layer timings taken from outside the library.
//!
//! ```text
//! nembench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! nembench run --seed N [--seconds S] [--trace DIR] [--smoke] [--out DIR]
//! nembench compare BASE_DIR CHANGE_DIR
//! ```
//!
//! The first form runs one workload and prints, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics, or per-layer ones with `--trace 1`). `run` runs
//! all four workloads and prints one JSON line per metric. Both write
//! one `.jsonl` file per workload under `--out` (default
//! `benchmark/target/results/<unix ms>/`), which `compare` reads. See
//! `benchmark/README.md`.

mod cad;
mod catalog;
mod compare;
mod report;
mod run;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;

use catalog::Catalog;
use nemfpga_service::json::Value;
use run::{Outcome, RunConfig, Workload};

const USAGE: &str =
    "usage: nembench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
       nembench run --seed N [--seconds S] [--trace DIR] [--smoke] [--out DIR]
       nembench compare BASE_DIR CHANGE_DIR";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("round") => run::child_main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("run") => cli(&args[1..], true),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            0
        }
        _ => cli(&args, false),
    };
    std::process::exit(code);
}

/// Parsed flags of the two run forms.
struct Flags {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    trace_dir: Option<PathBuf>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String], all: bool) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: None,
        seconds: None,
        trace: false,
        trace_dir: None,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            f.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match (flag.as_str(), all) {
            ("--workload", false) => {
                f.workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value}"))?);
            }
            ("--seed", _) => f.seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            ("--seconds", _) => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                f.seconds = Some(s);
            }
            ("--trace", false) => {
                f.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            ("--trace", true) => {
                f.trace = true;
                f.trace_dir = Some(PathBuf::from(value));
            }
            ("--out", _) => f.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if f.seed.is_none() {
        return Err("--seed is required".to_owned());
    }
    if !all && f.workload.is_none() {
        return Err("--workload is required".to_owned());
    }
    Ok(f)
}

/// Both run forms: one workload with the contract's last-line object, or
/// (`all`) every workload with one JSON line per metric.
fn cli(args: &[String], all: bool) -> i32 {
    let flags = match parse_flags(args, all) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("nembench: {e}\n{USAGE}");
            return 2;
        }
    };
    let catalog = match Catalog::load() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("nembench: {e}");
            return 2;
        }
    };
    let out = flags.out.clone().unwrap_or_else(run::default_out_dir);
    let cfg = RunConfig {
        seed: flags.seed.expect("checked by parse_flags"),
        seconds: flags.seconds.unwrap_or(catalog.run_seconds as f64),
        trace: flags.trace,
        smoke: flags.smoke,
        out: flags.trace_dir.clone().unwrap_or_else(|| out.clone()),
    };
    let workloads = match flags.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut all_correct = true;
    for workload in workloads {
        let outcome = match run::run_workload(workload, &cfg, &catalog) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("nembench: {}: {e}", workload.name());
                return 1;
            }
        };
        for e in &outcome.errors {
            eprintln!("nembench: {}: {e}", workload.name());
        }
        if let Err(e) = std::fs::create_dir_all(&out)
            .map_err(|e| e.to_string())
            .and_then(|()| outcome.write(&out))
        {
            eprintln!("nembench: cannot write results: {e}");
            return 1;
        }
        all_correct &= outcome.correct();
        if all {
            for line in outcome.records() {
                println!("{line}");
            }
            eprintln!(
                "nembench: {}: {} ops, {} failed",
                workload.name(),
                outcome.attempted,
                outcome.failed
            );
        } else {
            println!("{}", contract_line(&outcome));
        }
    }
    eprintln!("nembench: results in {}", out.display());
    i32::from(!all_correct)
}

/// The single-workload result object.
fn contract_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::obj(vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    Value::obj(vec![
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::U64(outcome.attempted.max(1))),
        ("failed", Value::U64(outcome.failed)),
        ("metrics", Value::Obj(metrics)),
    ])
    .to_json()
}
