//! The HTTP workloads: an in-process `Service` set up like `serve` (disk
//! cache and journal in a fresh directory, two workers), driven by two
//! closed-loop clients over `POST /v1/jobs {wait: true}`.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nemfpga::flow::{evaluate, EvaluationConfig};
use nemfpga::request::{ExperimentKind, ExperimentRequest};
use nemfpga_bench::render::render_experiment;
use nemfpga_runtime::{mix_seed, parallel_map, ParallelConfig};
use nemfpga_service::{
    job_key, Executor, JobState, MetricsView, Service, ServiceClient, ServiceConfig,
};

use crate::cad;
use crate::report::{peak_rss_mb, RoundReport};
use crate::trace::Tracer;

/// Threads for the post-window re-render check (`nproc` here).
const CHECK_THREADS: usize = 2;

/// Scale of the fresh Fig. 9 keys of `http_cold_mix` (the `repro` default).
const COLD_SCALE: f64 = 0.05;

/// Scale of the four hot Fig. 9 keys: small, so prefill stays short.
const HOT_FIG9_SCALE: f64 = 0.02;

/// Every `CHECK_EVERY`-th cold job of a round, starting with its first, is
/// re-rendered after the window.
const CHECK_EVERY: u64 = 5;

/// Repetitions of each hit-path probe in a traced round.
const PROBES: usize = 200;

/// Which traffic mix.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Only hot keys: the cache-hit path, no CAD.
    Hit,
    /// Every fifth request a fresh Fig. 9 key, the rest hot keys. An op
    /// is a cold job; the hits are its background traffic.
    ColdMix,
}

impl Mix {
    /// Closed-loop clients, one connection each at a time. One client
    /// times the hit path without the two clients and the server's
    /// connection threads oversubscribing two cores; the mix needs two,
    /// so hits run while the other client's cold job computes.
    fn clients(self) -> usize {
        match self {
            Self::Hit => 1,
            Self::ColdMix => 2,
        }
    }
}

/// Parameters of one HTTP round.
pub struct HttpRound {
    /// Traffic mix.
    pub mix: Mix,
    /// Workload seed.
    pub seed: u64,
    /// Global index of this round's first op.
    pub first_op: u64,
    /// Length of the timed window...
    pub window_s: f64,
    /// ...which also lasts until this many timed ops completed.
    pub min_ops: u64,
    /// Record spans and run the per-layer probes.
    pub trace: bool,
    /// Fresh directory for this round's cache, journal and graph snapshots.
    pub dir: PathBuf,
}

/// The 16 hot keys: twelve cheap renders and four small Fig. 9 results.
/// Fixed, so every round pre-fills the same work.
pub fn hot_keys() -> Vec<ExperimentRequest> {
    let mut keys = Vec::with_capacity(16);
    for kind in
        [ExperimentKind::Table1, ExperimentKind::Fig2b, ExperimentKind::Fig4, ExperimentKind::Fig11]
    {
        for seed in 1..=3 {
            keys.push(ExperimentRequest { seed, ..ExperimentRequest::new(kind) });
        }
    }
    for seed in 1..=4 {
        keys.push(ExperimentRequest {
            scale: HOT_FIG9_SCALE,
            seed,
            ..ExperimentRequest::new(ExperimentKind::Fig9)
        });
    }
    keys
}

/// The request of step `j`: an index into the hot keys, or a fresh key.
/// In the cold mix, cold steps sit at every fifth index exactly, so the
/// cold share never varies with the seed; which hot key and which fresh
/// seed do.
pub fn schedule(mix: Mix, seed: u64, j: u64) -> Result<usize, ExperimentRequest> {
    match mix {
        Mix::ColdMix if j.is_multiple_of(5) => Err(ExperimentRequest {
            scale: COLD_SCALE,
            seed: mix_seed(!seed, j),
            ..ExperimentRequest::new(ExperimentKind::Fig9)
        }),
        _ => Ok((mix_seed(seed, j) % 16) as usize),
    }
}

/// Whether step `j` is a timed op: every step of the hit mix, only the
/// cold jobs of the cold mix.
fn timed(mix: Mix, j: u64) -> bool {
    mix == Mix::Hit || j.is_multiple_of(5)
}

/// Starts a service the way `serve` does, with its state under `dir`.
pub fn start_service(dir: &Path) -> Result<Service, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let config = ServiceConfig {
        cache_dir: Some(dir.join("cache")),
        journal_path: Some(dir.join("journal.log")),
        ..ServiceConfig::default()
    };
    let parallel = config.parallel;
    let executor: Executor =
        Arc::new(move |request: &ExperimentRequest| Ok(render_experiment(request, &parallel)));
    Service::start(&config, executor).map_err(|e| e.to_string())
}

/// Runs one HTTP round: set-up (service, prefill, expected bytes), the
/// `ready` signal, the timed window, then the checks.
pub fn run_round(spec: &HttpRound, ready: impl FnOnce(), t: &mut Tracer) -> RoundReport {
    let mut report = RoundReport::default();
    if let Err(e) = run_round_inner(spec, ready, t, &mut report) {
        report.fail(e);
    }
    let _ = std::fs::remove_dir_all(&spec.dir);
    report.rss_mb = peak_rss_mb();
    report
}

/// What one client thread saw. Kept compact: the log of a pure-hit
/// window must not dominate the round's peak memory.
#[derive(Default)]
struct ClientLog {
    ops_ms: Vec<f64>,
    /// Traced ops: op index, cold, issue and completion instants.
    traced: Vec<(u64, bool, Instant, Instant)>,
    colds: u64,
    hits: u64,
    errors: Vec<String>,
    /// Cold keys kept for the re-render check, with their served bytes.
    kept: Vec<(ExperimentRequest, String)>,
}

fn run_round_inner(
    spec: &HttpRound,
    ready: impl FnOnce(),
    t: &mut Tracer,
    report: &mut RoundReport,
) -> Result<(), String> {
    let service = start_service(&spec.dir)?;
    let client = ServiceClient::new(service.addr())
        .map_err(|e| e.to_string())?
        .with_timeout(Duration::from_secs(120));
    let metrics = || client.metrics().map_err(|e| format!("GET /v1/metrics: {e}"));
    let m0 = metrics()?;
    let hot = hot_keys();
    for request in &hot {
        let job = client.submit(request, true).map_err(|e| format!("prefill: {e}"))?;
        if job.state != JobState::Done {
            return Err(format!("prefill of {} ended {}", request.experiment, job.state.name()));
        }
    }
    // Expected bytes come from a direct render, never from the service.
    let mut expected = Vec::with_capacity(hot.len());
    for request in &hot {
        let started = Instant::now();
        expected.push(render_experiment(request, &ParallelConfig::serial()));
        if spec.trace && request.experiment == ExperimentKind::Fig9 && spec.mix == Mix::Hit {
            report.sample("bench.render_ms", started.elapsed().as_secs_f64() * 1e3);
        }
    }
    ready();

    let m1 = metrics()?;
    let window = Window {
        next: AtomicU64::new(spec.first_op),
        timed: AtomicU64::new(0),
        deadline: Instant::now() + Duration::from_secs_f64(spec.window_s),
    };
    let window_start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..spec.mix.clients())
            .map(|_| scope.spawn(|| client_loop(spec, &client, &hot, &expected, &window)))
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    report.window_s = window_start.elapsed().as_secs_f64();
    let m2 = metrics()?;

    let (mut colds, mut hits, mut kept) = (0, 0, Vec::new());
    for log in logs {
        colds += log.colds;
        hits += log.hits;
        report.attempted += log.colds + log.hits;
        report.ops_ms.extend(log.ops_ms);
        for (j, cold, start, end) in log.traced {
            t.record(j + 1, 0, if cold { "http.cold_op" } else { "http.hit_op" }, start, end);
            report.traced_ops_ms.push(end.duration_since(start).as_secs_f64() * 1e3);
        }
        for e in log.errors {
            report.fail(e);
        }
        kept.extend(log.kept);
    }

    // Cold means a miss and hit means a hit: the window's cache deltas
    // must account for every op exactly.
    let delta = |name: &str| counter(&m2, name) - counter(&m1, name);
    if delta("cache_misses") != colds {
        report.fail(format!("{} cache misses for {colds} cold ops", delta("cache_misses")));
    }
    if delta("cache_hits_memory") + delta("cache_hits_disk") != hits {
        report.fail(format!(
            "{} memory + {} disk hits for {hits} hit ops",
            delta("cache_hits_memory"),
            delta("cache_hits_disk")
        ));
    }
    // The kept cold keys, re-rendered directly.
    let rendered =
        parallel_map(&ParallelConfig::with_threads(CHECK_THREADS), &kept, |_, (request, _)| {
            let started = Instant::now();
            (render_experiment(request, &ParallelConfig::serial()), started.elapsed())
        });
    for ((request, served), (direct, took)) in kept.iter().zip(rendered) {
        if *served != direct {
            report
                .fail(format!("served Fig. 9 seed {} differs from a direct render", request.seed));
        }
        if spec.trace {
            report.sample("bench.render_ms", took.as_secs_f64() * 1e3);
        }
    }

    // The CAD behind this workload's results: the hot Fig. 9 keys give
    // `qor_*`; a traced round also traces the CAD of the jobs it timed
    // (the hot keys for the hit mix, the re-checked cold keys for the mix).
    let hot_fig9 = hot.iter().filter(|r| r.experiment == ExperimentKind::Fig9);
    for (i, request) in hot_fig9.enumerate() {
        let traced = (spec.trace && spec.mix == Mix::Hit).then_some((&mut *t, &mut *report));
        let eval = fig9_evaluation(request, traced, i)?;
        report.qor.push(cad::qor_of(&eval)?);
    }
    if spec.trace {
        if spec.mix == Mix::ColdMix {
            for (i, (request, _)) in kept.iter().enumerate() {
                fig9_evaluation(request, Some((&mut *t, &mut *report)), 16 + i)?;
            }
        }
        sample_server_side(report, &m0, &m2);
        probe_hit_path(report, t, &service, &client, &hot[0])?;
    }
    service.shutdown();
    Ok(())
}

/// The clients' shared view of the timed window.
struct Window {
    /// Next op index to issue.
    next: AtomicU64,
    /// Timed ops completed so far.
    timed: AtomicU64,
    deadline: Instant,
}

/// One closed-loop client: issues ops until the window closes.
fn client_loop(
    spec: &HttpRound,
    client: &ServiceClient,
    hot: &[ExperimentRequest],
    expected: &[String],
    window: &Window,
) -> ClientLog {
    let mut log = ClientLog::default();
    loop {
        if Instant::now() >= window.deadline && window.timed.load(Ordering::Relaxed) >= spec.min_ops
        {
            return log;
        }
        let j = window.next.fetch_add(1, Ordering::Relaxed);
        let planned = schedule(spec.mix, spec.seed, j);
        let started = Instant::now();
        let outcome = match &planned {
            Ok(i) => client.submit(&hot[*i], true),
            Err(fresh) => client.submit(fresh, true),
        };
        let ended = Instant::now();
        if timed(spec.mix, j) {
            window.timed.fetch_add(1, Ordering::Relaxed);
            if spec.trace {
                log.traced.push((j, spec.mix == Mix::ColdMix, started, ended));
            } else {
                log.ops_ms.push(ended.duration_since(started).as_secs_f64() * 1e3);
            }
        }
        if planned.is_ok() {
            log.hits += 1;
        } else {
            log.colds += 1;
        }
        let problem = match (outcome, planned) {
            (Err(e), _) => Some(e.to_string()),
            (Ok(job), _) if job.state != JobState::Done => {
                Some(format!("job ended {}", job.state.name()))
            }
            (Ok(job), Ok(i)) => (job.output.as_deref() != Some(expected[i].as_str()))
                .then(|| "hot key output differs from a direct render".to_owned()),
            (Ok(job), Err(fresh)) => match job.output {
                Some(out) if (j / 5 - spec.first_op.div_ceil(5)).is_multiple_of(CHECK_EVERY) => {
                    log.kept.push((fresh, out));
                    None
                }
                Some(_) => None,
                None => Some("cold job has no output".to_owned()),
            },
        };
        if let Some(problem) = problem {
            log.errors.push(format!("step {j}: {problem}"));
        }
    }
}

fn counter(view: &MetricsView, name: &str) -> u64 {
    view.counter(name).unwrap_or(0)
}

/// Server-side per-layer numbers: `/v1/metrics` deltas over the round,
/// prefill included (a pure-hit window executes nothing).
pub fn sample_server_side(report: &mut RoundReport, before: &MetricsView, after: &MetricsView) {
    for name in ["cache_hits_memory", "cache_hits_disk", "cache_misses", "coalesced"] {
        report.count(
            &format!("service.{name}"),
            (counter(after, name) - counter(before, name)) as f64,
        );
    }
    for name in ["job_queue_wait_us", "job_exec_us", "job_latency_us", "job_peak_bytes"] {
        let (sum, count) = match (before.histogram(name), after.histogram(name)) {
            (Some(b), Some(a)) => (a.sum.wrapping_sub(b.sum), a.count - b.count),
            _ => (0, 0),
        };
        report.count(&format!("{name}.sum"), sum as f64);
        report.count(&format!("{name}.count"), count as f64);
    }
}

/// The hit path, one piece at a time, timed from the client side.
pub fn probe_hit_path(
    report: &mut RoundReport,
    t: &mut Tracer,
    service: &Service,
    client: &ServiceClient,
    hot: &ExperimentRequest,
) -> Result<(), String> {
    for _ in 0..PROBES {
        probe(report, t, "service.job_key_us", || {
            job_key(std::hint::black_box(hot)).map(drop).map_err(|e| e.to_string())
        })?;
        probe(report, t, "service.scheduler_hit_us", || match service.scheduler().submit(*hot) {
            Ok(s) if s.cache_tier.is_some() => Ok(()),
            Ok(_) => Err("probe key missed the cache".to_owned()),
            Err(e) => Err(e.to_string()),
        })?;
        probe(report, t, "http.connect_us", || {
            TcpStream::connect(service.addr()).map(drop).map_err(|e| e.to_string())
        })?;
        probe(report, t, "http.healthz_us", || client.healthz().map_err(|e| e.to_string()))?;
    }
    Ok(())
}

/// Times `f` as one span and one µs sample called `name`.
fn probe(
    report: &mut RoundReport,
    t: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    let span = t.open(0, 0, name);
    let outcome = f();
    report.sample(name, t.close(span) * 1e3);
    outcome
}

/// The serving-layer probes for a workload that serves nothing itself: a
/// service with one cached key, probed after the workload's ops.
pub fn probe_idle_service(
    report: &mut RoundReport,
    t: &mut Tracer,
    dir: &Path,
) -> Result<(), String> {
    let service = start_service(dir)?;
    let result = (|| {
        let client = ServiceClient::new(service.addr()).map_err(|e| e.to_string())?;
        let before = client.metrics().map_err(|e| e.to_string())?;
        let key = ExperimentRequest::new(ExperimentKind::Table1);
        client.submit(&key, true).map_err(|e| e.to_string())?;
        let after = client.metrics().map_err(|e| e.to_string())?;
        sample_server_side(report, &before, &after);
        probe_hit_path(report, t, &service, &client, &key)
    })();
    service.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    result
}

/// The Fig. 9 evaluation behind `request`, as `render_experiment` runs it
/// (serial): traced through the layer composition when `traced` is given.
fn fig9_evaluation(
    request: &ExperimentRequest,
    traced: Option<(&mut Tracer, &mut RoundReport)>,
    index: usize,
) -> Result<nemfpga::flow::Evaluation, String> {
    let started = Instant::now();
    let netlist = cad::fig9_netlist(request.scale.max(0.02))?;
    let generate_ms = started.elapsed().as_secs_f64() * 1e3;
    let config = EvaluationConfig::paper_defaults(request.seed);
    let variants = cad::fig9_variants(&config);
    match traced {
        None => evaluate(netlist, &config, &variants).map_err(|e| e.to_string()),
        Some((t, report)) => {
            report.sample("netlist.generate_ms", generate_ms);
            cad::trace_op(t, report, u64::MAX - index as u64, netlist, &config, &variants)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_keys_are_sixteen_distinct_jobs() {
        let keys: std::collections::BTreeSet<String> =
            hot_keys().iter().map(|r| job_key(r).unwrap().as_hex().to_owned()).collect();
        assert_eq!(keys.len(), 16);
    }

    #[test]
    fn hit_schedule_is_seeded_over_all_hot_keys() {
        let keys: std::collections::BTreeSet<usize> =
            (0..1000).map(|j| schedule(Mix::Hit, 7, j).unwrap()).collect();
        assert_eq!(keys.len(), 16);
        let run = |seed| (0..64).map(|j| schedule(Mix::Hit, seed, j).unwrap()).collect::<Vec<_>>();
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn cold_mix_schedule_is_seeded_and_one_in_five_cold() {
        let step = |j| schedule(Mix::ColdMix, 7, j);
        let colds = (0..10_000).filter(|&j| step(j).is_err()).count();
        assert_eq!(colds, 2_000);
        assert_eq!(step(3), step(3));
        let fresh: std::collections::BTreeSet<u64> =
            (0..1000).filter_map(|j| step(j).err()).map(|r| r.seed).collect();
        assert_eq!(fresh.len(), 200, "fresh keys repeat");
    }
}
