//! The coordinator: runs one workload as a sequence of rounds, each a
//! fresh child process, and turns the pooled rounds into metrics.
//!
//! A round is set-up, a `ready` line on stdout, the timed ops, and a
//! report line. Because every round is a new process, nothing carries
//! over between rounds or workloads: not the process-global graph store,
//! not the engine counters, not the allocator's high-water mark. Set-up
//! time is the parent's clock from spawn to `ready`, measured once per
//! round and reported as the median.

use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use nemfpga::request::{ExperimentKind, ExperimentRequest};
use nemfpga_runtime::{mix_seed, ParallelConfig};

use crate::cad::{self, CadRound, CadWorkload};
use crate::catalog::Catalog;
use crate::report::RoundReport;
use crate::serving::{self, HttpRound, Mix};
use crate::stats;
use crate::trace::Tracer;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro fig9`'s evaluation, one placement seed per op.
    Fig9Frisc,
    /// `repro fig12`'s sweep, one MCNC-20 circuit per op.
    Fig12Mcnc20,
    /// Cache hits over HTTP.
    HttpHit,
    /// Fresh Fig. 9 jobs among cache hits over HTTP.
    HttpColdMix,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Self::Fig9Frisc, Self::Fig12Mcnc20, Self::HttpHit, Self::HttpColdMix];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Self::Fig9Frisc => "fig9_frisc",
            Self::Fig12Mcnc20 => "fig12_mcnc20",
            Self::HttpHit => "http_hit",
            Self::HttpColdMix => "http_cold_mix",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Timed ops a run completes at least: `op_p80_ms` needs 50 for ten
/// samples beyond it, and Fig. 9's `qor_*` cover the reference ops among
/// the first 60. A 15 s Fig. 9 run on a 2-core host times about 66.
pub const MIN_TIMED_OPS: u64 = 60;

/// The tail percentile every workload reports. The hit path's p90 moved
/// 14% between runs on a shared two-core host, its p80 under 4%.
const TAIL_PCT: usize = 80;

/// Rounds of the time-sliced workloads (Fig. 9 and both HTTP mixes); a
/// traced run makes four, two of them traced.
const ROUNDS: u64 = 3;

/// Circuits in one Fig. 12 pass.
const SUITE_LEN: usize = 20;

/// Fig. 12 passes an untraced run makes, all of them behind `qor_*`: 60
/// ops, 12 of them beyond `op_p80_ms`.
const FIG12_PASSES: u64 = 3;

/// How a workload is run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Seconds of timed window to aim for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Cut op counts and windows to a few seconds in all (tests).
    pub smoke: bool,
    /// Directory for result and trace files.
    pub out: PathBuf,
}

/// One metric of a finished run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Unit from the catalogue.
    pub unit: String,
    /// Value, as measured.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

/// A finished workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Which workload.
    pub workload: Workload,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that errored or failed a check, plus failed round checks.
    pub failed: u64,
    /// Every printed metric, in catalogue order.
    pub metrics: Vec<Measured>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Outcome {
    /// True when every op and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// One JSON line per metric (the `.jsonl` result format).
    pub fn records(&self) -> Vec<String> {
        use nemfpga_service::json::Value;
        self.metrics
            .iter()
            .map(|m| {
                Value::obj(vec![
                    ("workload", Value::Str(self.workload.name().to_owned())),
                    ("name", Value::Str(m.name.clone())),
                    ("unit", Value::Str(m.unit.clone())),
                    ("value", Value::F64(m.value)),
                    ("samples", Value::U64(m.samples as u64)),
                ])
                .to_json()
            })
            .collect()
    }

    /// Writes [`Outcome::records`] to `<out>/<workload>.jsonl`.
    pub fn write(&self, out: &Path) -> Result<(), String> {
        let path = out.join(format!("{}.jsonl", self.workload.name()));
        let mut text = self.records().join("\n");
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Where results go by default: `benchmark/target/results/<unix ms>/`.
pub fn default_out_dir() -> PathBuf {
    let ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target/results").join(ms.to_string())
}

/// Runs `workload` round by round and computes its metrics.
pub fn run_workload(
    workload: Workload,
    cfg: &RunConfig,
    catalog: &Catalog,
) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let mut pooled = RoundReport::default();
    let mut series = RoundSeries::default();
    let mut first_op = 0;
    for round in 0u64.. {
        let timed = pooled.ops_ms.len() as u64;
        let Some((window_s, min_ops)) = plan_round(workload, cfg, round, timed) else {
            break;
        };
        // A traced run alternates untraced and traced rounds over the same
        // inputs; their op medians give `obs.trace_overhead_frac`.
        let traced = cfg.trace && round % 2 == 1;
        if !traced {
            first_op = pooled.attempted;
        }
        let args = RoundArgs {
            workload,
            seed: cfg.seed,
            round,
            first_op,
            window_s,
            min_ops,
            trace: traced,
            smoke: cfg.smoke,
            out: cfg.out.clone(),
        };
        let (setup_s, report) = spawn_round(&args)?;
        series.push(setup_s, &report);
        pooled.absorb(report);
    }
    pooled.ops_ms.sort_by(f64::total_cmp);
    let mut outcome = Outcome {
        workload,
        attempted: pooled.attempted,
        failed: pooled.failed,
        metrics: Vec::new(),
        errors: pooled.errors.clone(),
    };
    for metric in catalog.printed(cfg.trace) {
        match measure(&metric.name, &pooled, &series, cfg.smoke) {
            Some((value, samples)) if value.is_finite() => outcome.metrics.push(Measured {
                name: metric.name.clone(),
                unit: metric.unit.clone(),
                value,
                samples,
            }),
            _ => {
                outcome.failed += 1;
                outcome.errors.push(format!("metric {} was not measured", metric.name));
            }
        }
    }
    Ok(outcome)
}

/// The next round's window and minimum timed-op count, given the ops
/// timed so far, or `None` when the run is complete.
fn plan_round(workload: Workload, cfg: &RunConfig, round: u64, timed: u64) -> Option<(f64, u64)> {
    let rounds = match (cfg.smoke, cfg.trace) {
        (true, _) => 2,
        (false, true) => 4,
        (false, false) => ROUNDS,
    };
    let slice = if cfg.smoke { 0.5 } else { cfg.seconds / rounds as f64 };
    // The last time-sliced round tops an untraced run up to MIN_TIMED_OPS.
    let top_up = if !cfg.smoke && !cfg.trace && round + 1 == rounds {
        MIN_TIMED_OPS.saturating_sub(timed)
    } else {
        0
    };
    match workload {
        // Fig. 12 rounds are whole suite passes, so every run covers the
        // suite evenly, and a fixed number of them, so every run times the
        // same work: about 20 s on a 2-core host.
        Workload::Fig12Mcnc20 => {
            let passes = if cfg.smoke || cfg.trace { rounds } else { FIG12_PASSES };
            (round < passes).then_some((0.0, 0))
        }
        Workload::Fig9Frisc if cfg.smoke => (round < rounds).then_some((0.0, 2)),
        Workload::HttpHit | Workload::Fig9Frisc => (round < rounds).then_some((slice, top_up)),
        Workload::HttpColdMix => {
            (round < rounds).then_some((slice, top_up.max(u64::from(cfg.smoke))))
        }
    }
}

/// One value per round, for the metrics that report the median over
/// rounds.
#[derive(Debug, Default)]
struct RoundSeries {
    /// Spawn to `ready`.
    setup_s: Vec<f64>,
    /// VmHWM of the round's process.
    rss_mb: Vec<f64>,
    /// Nearest-rank median of the round's timed ops (untraced rounds).
    p50_ms: Vec<f64>,
    /// The same for traced rounds.
    traced_p50_ms: Vec<f64>,
}

impl RoundSeries {
    fn push(&mut self, setup_s: f64, report: &RoundReport) {
        self.setup_s.push(setup_s);
        self.rss_mb.push(report.rss_mb);
        let p50 = |ops: &[f64]| {
            let mut ops = ops.to_vec();
            ops.sort_by(f64::total_cmp);
            stats::nearest_rank(&ops, 50)
        };
        self.p50_ms.extend(p50(&report.ops_ms));
        self.traced_p50_ms.extend(p50(&report.traced_ops_ms));
    }
}

/// The value and sample count of one metric, or `None` if the run could
/// not measure it. `pooled` holds its op latencies in ascending order.
fn measure(
    name: &str,
    pooled: &RoundReport,
    series: &RoundSeries,
    smoke: bool,
) -> Option<(f64, usize)> {
    let ops = &pooled.ops_ms;
    let n = ops.len();
    let qor = |i: usize| {
        let column: Vec<f64> = pooled.qor.iter().map(|q| q[i]).collect();
        Some((stats::geomean(&column)?, column.len()))
    };
    let total = |key: &str| pooled.totals.get(key).copied();
    // Share of all traced op time spent in the given layer spans.
    let share = |layers: &[&str]| {
        let sum = |name: &str| pooled.samples.get(name).map(|v| v.iter().sum::<f64>());
        let op = sum("flow.op_ms").filter(|&ms| ms > 0.0)?;
        let part = layers.iter().map(|l| sum(l)).sum::<Option<f64>>()?;
        Some((part / op, pooled.samples["flow.op_ms"].len()))
    };
    let mean = |histogram: &str, scale: f64| {
        let count = total(&format!("{histogram}.count")).filter(|&c| c > 0.0)?;
        Some((total(&format!("{histogram}.sum"))? / count / scale, count as usize))
    };
    match name {
        "setup_s" => Some((stats::median(&series.setup_s)?, series.setup_s.len())),
        // A Fig. 12 pass is 20 different circuits, so over pooled ops the
        // median lands where one circuit's runs end and the next one's
        // begin, and reads the slowest run of a circuit; a pass's own
        // median reads one run of that circuit.
        "op_p50_ms" => Some((stats::median(&series.p50_ms)?, n)),
        "op_p80_ms" => {
            let min_beyond = if smoke { 0 } else { stats::TAIL_MIN_BEYOND };
            Some((stats::tail_percentile(ops, TAIL_PCT, min_beyond)?, n))
        }
        "ops_per_s" => (pooled.window_s > 0.0).then(|| (n as f64 / pooled.window_s, n)),
        "peak_rss_mb" => Some((stats::median(&series.rss_mb)?, series.rss_mb.len())),
        "qor_wmin" => qor(0),
        "qor_wirelength" => qor(1),
        "qor_fmax_mhz" => qor(2),
        "service.hit_ratio" => {
            let hits = total("service.cache_hits_memory")? + total("service.cache_hits_disk")?;
            let lookups = hits + total("service.cache_misses")?;
            (lookups > 0.0).then(|| (hits / lookups, lookups as usize))
        }
        "service.queue_wait_us_mean" => mean("job_queue_wait_us", 1.0),
        "service.exec_ms_mean" => mean("job_exec_us", 1e3),
        "service.job_latency_ms_mean" => mean("job_latency_us", 1e3),
        "runtime.job_peak_mb_mean" => mean("job_peak_bytes", 1024.0 * 1024.0),
        "pnr.place_share" => share(&["pnr.place_ms"]),
        "pnr.route_share" => share(&["pnr.wmin_search_ms", "pnr.route_final_ms"]),
        "obs.trace_overhead_frac" => {
            let ratio = stats::median(&series.traced_p50_ms)? / stats::median(&series.p50_ms)?;
            Some((ratio - 1.0, pooled.traced_ops_ms.len()))
        }
        _ => match (pooled.totals.get(name), pooled.samples.get(name)) {
            (Some(&count), _) => Some((count, 1)),
            (None, Some(samples)) => Some((stats::median(samples)?, samples.len())),
            (None, None) => None,
        },
    }
}

/// Everything a round needs, passed to the child on its command line.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundArgs {
    /// Workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Round number.
    pub round: u64,
    /// Global index of the round's first op.
    pub first_op: u64,
    /// Timed window (time-sliced workloads).
    pub window_s: f64,
    /// Ops the round must issue at least.
    pub min_ops: u64,
    /// Traced round.
    pub trace: bool,
    /// Smoke sizes.
    pub smoke: bool,
    /// Result directory (trace files go here).
    pub out: PathBuf,
}

impl RoundArgs {
    fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "round".to_owned(),
            "--workload".to_owned(),
            self.workload.name().to_owned(),
            "--seed".to_owned(),
            self.seed.to_string(),
            "--round".to_owned(),
            self.round.to_string(),
            "--first-op".to_owned(),
            self.first_op.to_string(),
            "--window-s".to_owned(),
            self.window_s.to_string(),
            "--min-ops".to_owned(),
            self.min_ops.to_string(),
            "--trace".to_owned(),
            u8::from(self.trace).to_string(),
            "--out".to_owned(),
            self.out.display().to_string(),
        ];
        if self.smoke {
            args.push("--smoke".to_owned());
        }
        args
    }

    /// Parses the child's command line (after `round`).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut it = args.iter();
        let mut out = Self {
            workload: Workload::Fig9Frisc,
            seed: 0,
            round: 0,
            first_op: 0,
            window_s: 0.0,
            min_ops: 0,
            trace: false,
            smoke: false,
            out: PathBuf::new(),
        };
        let mut workload = None;
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                out.smoke = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value}"));
            match flag.as_str() {
                "--workload" => workload = Workload::from_name(value),
                "--seed" => out.seed = number()?,
                "--round" => out.round = number()?,
                "--first-op" => out.first_op = number()?,
                "--min-ops" => out.min_ops = number()?,
                "--window-s" => {
                    out.window_s = value.parse().map_err(|_| format!("--window-s: bad {value}"))?;
                }
                "--trace" => out.trace = number()? != 0,
                "--out" => out.out = PathBuf::from(value),
                other => return Err(format!("unknown round option {other}")),
            }
        }
        out.workload = workload.ok_or("round needs a known --workload")?;
        Ok(out)
    }
}

/// Spawns one round and returns its set-up time and report.
fn spawn_round(args: &RoundArgs) -> Result<(f64, RoundReport), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let spawned = Instant::now();
    let mut child = Command::new(exe)
        .args(args.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a round: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let (mut setup_s, mut last) = (None, None);
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line == "ready" && setup_s.is_none() {
            setup_s = Some(spawned.elapsed().as_secs_f64());
        } else {
            last = Some(line);
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let name = args.workload.name();
    if !status.success() {
        return Err(format!("{name} round {} exited with {status}", args.round));
    }
    let report = RoundReport::from_json(
        &last.ok_or(format!("{name} round {} printed no report", args.round))?,
    )?;
    Ok((setup_s.ok_or(format!("{name} round {} never became ready", args.round))?, report))
}

/// The child side: runs one round and prints `ready`, then its report.
pub fn child_main(args: &[String]) -> i32 {
    let args = match RoundArgs::parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nembench round: {e}");
            return 2;
        }
    };
    let mut t = Tracer::new(args.round);
    let ready = || {
        println!("ready");
        let _ = std::io::stdout().flush();
    };
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/scratch").join(format!(
        "{}-{}-r{}",
        args.workload.name(),
        std::process::id(),
        args.round
    ));
    let report = match args.workload {
        Workload::Fig9Frisc | Workload::Fig12Mcnc20 => {
            let fig9 = args.workload == Workload::Fig9Frisc;
            let spec = CadRound {
                workload: if fig9 { CadWorkload::Fig9 } else { CadWorkload::Fig12 },
                seed: args.seed,
                first_op: args.first_op,
                window_s: args.window_s,
                min_ops: args.min_ops,
                qor_ops: match (args.smoke, fig9) {
                    (true, _) => u64::MAX,
                    (false, true) => MIN_TIMED_OPS,
                    (false, false) => FIG12_PASSES * SUITE_LEN as u64,
                },
                suite_len: if args.smoke { 3 } else { SUITE_LEN },
                trace: args.trace,
            };
            let mut report = cad::run_round(&spec, ready, &mut t);
            if args.trace {
                if let Err(e) = cad_serving_layers(&args, &mut report, &mut t, &scratch) {
                    report.fail(e);
                }
            }
            report
        }
        Workload::HttpHit | Workload::HttpColdMix => {
            let spec = HttpRound {
                mix: if args.workload == Workload::HttpHit { Mix::Hit } else { Mix::ColdMix },
                seed: args.seed,
                first_op: args.first_op,
                window_s: args.window_s,
                min_ops: args.min_ops,
                trace: args.trace,
                dir: scratch,
            };
            serving::run_round(&spec, ready, &mut t)
        }
    };
    if args.trace {
        let path = args.out.join(format!("{}.r{}.trace.json", args.workload.name(), args.round));
        if let Err(e) = std::fs::write(&path, t.to_chrome_trace()) {
            eprintln!("nembench round: {}: {e}", path.display());
            return 1;
        }
    }
    println!("{}", report.to_json());
    0
}

/// The serving layers, seen from a CAD workload: a direct render of the
/// workload's own request kind, and the hit-path probes against an idle
/// service. Neither runs inside the CAD ops.
fn cad_serving_layers(
    args: &RoundArgs,
    report: &mut RoundReport,
    t: &mut Tracer,
    scratch: &Path,
) -> Result<(), String> {
    let request = match args.workload {
        Workload::Fig9Frisc => ExperimentRequest {
            scale: cad::SCALE,
            seed: mix_seed(args.seed, args.first_op),
            ..ExperimentRequest::new(ExperimentKind::Fig9)
        },
        _ => ExperimentRequest {
            scale: cad::SCALE,
            benchmarks: 1,
            seed: mix_seed(args.seed, args.round),
            ..ExperimentRequest::new(ExperimentKind::Fig12)
        },
    };
    let span = t.open(0, 0, "bench.render_ms");
    let rendered = nemfpga_bench::render::render_experiment(&request, &ParallelConfig::serial());
    report.sample("bench.render_ms", t.close(span));
    if rendered.is_empty() {
        return Err(format!("{} rendered nothing", request.experiment));
    }
    serving::probe_idle_service(report, t, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_args_round_trip() {
        let args = RoundArgs {
            workload: Workload::HttpColdMix,
            seed: 9,
            round: 2,
            first_op: 1234,
            window_s: 6.5,
            min_ops: 3,
            trace: true,
            smoke: true,
            out: PathBuf::from("x/y"),
        };
        let line = args.to_args();
        assert_eq!(line[0], "round");
        assert_eq!(RoundArgs::parse(&line[1..]).unwrap(), args);
    }

    #[test]
    fn every_plan_reaches_the_tail_with_ten_samples_beyond() {
        let cfg =
            RunConfig { seed: 1, seconds: 1.0, trace: false, smoke: false, out: PathBuf::new() };
        // Time-sliced runs: the last round tops the run up to MIN_TIMED_OPS.
        for w in [Workload::Fig9Frisc, Workload::HttpHit, Workload::HttpColdMix] {
            assert_eq!(plan_round(w, &cfg, 0, 0), Some((1.0 / 3.0, 0)));
            assert_eq!(plan_round(w, &cfg, 2, 40), Some((1.0 / 3.0, 20)));
            assert_eq!(plan_round(w, &cfg, 3, 100), None);
        }
        // Fig. 12: a fixed number of whole passes.
        let passes = (0..).take_while(|&r| plan_round(Workload::Fig12Mcnc20, &cfg, r, 0).is_some());
        assert_eq!(passes.count() as u64, FIG12_PASSES);
        assert!(FIG12_PASSES * SUITE_LEN as u64 >= MIN_TIMED_OPS);
        let ops = vec![1.0; MIN_TIMED_OPS as usize];
        assert!(stats::tail_percentile(&ops, TAIL_PCT, stats::TAIL_MIN_BEYOND).is_some());
    }
}
