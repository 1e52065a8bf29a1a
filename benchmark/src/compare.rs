//! `compare A/ B/`: two result sets, one verdict per workload and metric
//! against the bound in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use nemfpga_service::json;

use crate::catalog::{Catalog, Metric};
use crate::stats;

/// Runs a set needs per workload before its spread means anything.
pub const MIN_RUNS: usize = 3;

/// Values of one result set: workload → metric → one value per run.
pub type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads every `.jsonl` file under `dir` (one file = one run of one
/// workload) into a [`ResultSet`].
pub fn load(dir: &Path) -> Result<ResultSet, String> {
    let mut files = Vec::new();
    collect_jsonl(dir, &mut files)?;
    if files.is_empty() {
        return Err(format!("{}: no .jsonl result files", dir.display()));
    }
    let mut set = ResultSet::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let record = json::parse(line).map_err(|e| format!("{}: {e}", file.display()))?;
            let field =
                |k: &str| record.get(k).ok_or(format!("{}: record lacks `{k}`", file.display()));
            let workload = field("workload")?.as_str().ok_or("`workload` is not a string")?;
            let name = field("name")?.as_str().ok_or("`name` is not a string")?;
            let value = field("value")?.as_f64().ok_or("`value` is not a number")?;
            set.entry(workload.to_owned())
                .or_default()
                .entry(name.to_owned())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

fn collect_jsonl(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_jsonl(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "jsonl") {
            files.push(path);
        }
    }
    Ok(())
}

/// What one metric did between the sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Agree,
    /// Better than the base by more than the bound.
    Improved,
    /// Worse than the base by more than the bound.
    Regressed,
    /// A set's own runs spread wider than the bound.
    Unresolved,
    /// The metric has no bound (per-layer).
    Unbounded,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Self::Agree => "agree",
            Self::Improved => "improved",
            Self::Regressed => "regressed",
            Self::Unresolved => "unresolved",
            Self::Unbounded => "-",
        }
    }
}

/// Median and quartiles of one set's runs.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median over runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises at least two runs.
    pub fn of(values: &[f64]) -> Option<Self> {
        let (q1, q3) = stats::quartiles(values)?;
        Some(Self { median: stats::median(values)?, q1, q3 })
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The verdict for `metric` going from `base` to `change`.
pub fn verdict(metric: &Metric, base: &Summary, change: &Summary) -> Verdict {
    let Some(bound) = metric.bound else {
        return Verdict::Unbounded;
    };
    if base.spread() > bound || change.spread() > bound {
        return Verdict::Unresolved;
    }
    let relative = (change.median - base.median) / base.median.abs();
    let worse = if metric.higher_is_better { -relative } else { relative };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Agree
    }
}

/// `compare A B`: prints one row per workload and metric; exits 1 when
/// any metric regressed.
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: nembench compare BASE_DIR CHANGE_DIR");
        return 2;
    };
    match compare(Path::new(a), Path::new(b)) {
        Ok(rows) => {
            println!(
                "{:<14} {:<28} {:>34} {:>34} {:>8}  verdict",
                "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "diff"
            );
            for row in &rows {
                println!("{row}");
            }
            let regressed = rows.iter().filter(|r| r.verdict == Verdict::Regressed).count();
            let unresolved = rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count();
            println!("{} rows: {regressed} regressed, {unresolved} unresolved", rows.len());
            i32::from(regressed > 0)
        }
        Err(e) => {
            eprintln!("nembench compare: {e}");
            2
        }
    }
}

/// One printed comparison.
#[derive(Debug)]
pub struct Row {
    workload: String,
    metric: Metric,
    base: Summary,
    change: Summary,
    /// The verdict.
    pub verdict: Verdict,
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cell = |s: &Summary| format!("{:.5} [{:.5}, {:.5}]", s.median, s.q1, s.q3);
        let diff = (self.change.median - self.base.median) / self.base.median.abs() * 100.0;
        write!(
            f,
            "{:<14} {:<28} {:>34} {:>34} {:>+7.2}%  {}",
            self.workload,
            format!("{} ({})", self.metric.name, self.metric.unit),
            cell(&self.base),
            cell(&self.change),
            diff,
            self.verdict.name()
        )
    }
}

/// Compares two result directories.
pub fn compare(base_dir: &Path, change_dir: &Path) -> Result<Vec<Row>, String> {
    let catalog = Catalog::load()?;
    let (base, change) = (load(base_dir)?, load(change_dir)?);
    let mut rows = Vec::new();
    for workload in &catalog.workloads {
        let (Some(base_w), Some(change_w)) = (base.get(workload), change.get(workload)) else {
            continue;
        };
        for metric in catalog.end_to_end.iter().chain(&catalog.per_layer) {
            let (Some(bv), Some(cv)) = (base_w.get(&metric.name), change_w.get(&metric.name))
            else {
                continue;
            };
            for (which, values) in [("base", bv), ("change", cv)] {
                if values.len() < MIN_RUNS {
                    return Err(format!(
                        "{which} set has {} run(s) of {workload} {}; need {MIN_RUNS}",
                        values.len(),
                        metric.name
                    ));
                }
            }
            let (b, c) = (Summary::of(bv).expect(">= 2 runs"), Summary::of(cv).expect(">= 2 runs"));
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                verdict: verdict(metric, &b, &c),
                base: b,
                change: c,
            });
        }
    }
    if rows.is_empty() {
        return Err("the sets share no workload and metric".to_owned());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> Metric {
        Metric { name: "m".into(), unit: "ms".into(), higher_is_better: higher, bound: Some(0.1) }
    }

    fn tight(median: f64) -> Summary {
        Summary { median, q1: median * 0.99, q3: median * 1.01 }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = metric(false);
        assert_eq!(verdict(&lower, &tight(100.0), &tight(105.0)), Verdict::Agree);
        assert_eq!(verdict(&lower, &tight(100.0), &tight(115.0)), Verdict::Regressed);
        assert_eq!(verdict(&lower, &tight(100.0), &tight(80.0)), Verdict::Improved);
        let higher = metric(true);
        assert_eq!(verdict(&higher, &tight(100.0), &tight(80.0)), Verdict::Regressed);
        let wide = Summary { median: 100.0, q1: 80.0, q3: 120.0 };
        assert_eq!(verdict(&lower, &wide, &tight(100.0)), Verdict::Unresolved);
        let unbounded = Metric { bound: None, ..metric(false) };
        assert_eq!(verdict(&unbounded, &tight(1.0), &tight(2.0)), Verdict::Unbounded);
    }

    #[test]
    fn compare_reads_result_trees_and_needs_three_runs() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/test-compare")
            .join(std::process::id().to_string());
        let write = |set: &str, run: usize, p50: f64| {
            let dir = root.join(set).join(format!("run{run}"));
            std::fs::create_dir_all(&dir).unwrap();
            let line = format!(
                "{{\"workload\":\"http_hit\",\"name\":\"op_p50_ms\",\"unit\":\"ms\",\"value\":{p50},\"samples\":9}}\n"
            );
            std::fs::write(dir.join("http_hit.jsonl"), line).unwrap();
        };
        for run in 0..3 {
            write("a", run, 1.0 + run as f64 * 0.001);
            write("b", run, 1.5 + run as f64 * 0.001);
        }
        let rows = compare(&root.join("a"), &root.join("b")).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!(rows[0].to_string().contains("op_p50_ms (ms)"));
        std::fs::remove_dir_all(root.join("b").join("run2")).unwrap();
        assert!(compare(&root.join("a"), &root.join("b")).unwrap_err().contains("need 3"));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
