//! What one round (a child process) hands back to the coordinator.

use std::collections::BTreeMap;

use nemfpga_service::json::{self, Value};

/// Raw measurements of one round; the coordinator pools rounds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RoundReport {
    /// Ops issued in the timed window, timed or not.
    pub attempted: u64,
    /// Latency (ms) of every timed, untraced op, in issue order.
    pub ops_ms: Vec<f64>,
    /// Latency (ms) of every traced op (trace mode only).
    pub traced_ops_ms: Vec<f64>,
    /// Wall time of the timed window: first op issued to last op done.
    pub window_s: f64,
    /// Ops that errored or failed an output check, plus failed
    /// whole-round checks.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Peak resident set of the round's process (VmHWM).
    pub rss_mb: f64,
    /// Result quality of the ops that count toward `qor_*`, one sample per
    /// op: W_min, routed wirelength, baseline critical path.
    pub qor: Vec<[f64; 3]>,
    /// Per-layer sample lists (trace mode), pooled across rounds.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Per-layer counts (trace mode), summed across rounds.
    pub totals: BTreeMap<String, f64>,
}

impl RoundReport {
    /// Records one failure; keeps the first few messages.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Appends one per-layer sample.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    /// Adds to one per-layer count.
    pub fn count(&mut self, name: &str, value: f64) {
        *self.totals.entry(name.to_owned()).or_default() += value;
    }

    /// Pools `other` into `self`.
    pub fn absorb(&mut self, other: RoundReport) {
        self.attempted += other.attempted;
        self.ops_ms.extend(other.ops_ms);
        self.traced_ops_ms.extend(other.traced_ops_ms);
        self.window_s += other.window_s;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.qor.extend(other.qor);
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in other.totals {
            *self.totals.entry(k).or_default() += v;
        }
    }

    /// One-line JSON encoding.
    pub fn to_json(&self) -> String {
        let floats = |v: &[f64]| Value::Arr(v.iter().map(|x| Value::F64(*x)).collect());
        Value::obj(vec![
            ("attempted", Value::U64(self.attempted)),
            ("ops_ms", floats(&self.ops_ms)),
            ("traced_ops_ms", floats(&self.traced_ops_ms)),
            ("window_s", Value::F64(self.window_s)),
            ("failed", Value::U64(self.failed)),
            ("errors", Value::Arr(self.errors.iter().cloned().map(Value::Str).collect())),
            ("rss_mb", Value::F64(self.rss_mb)),
            ("qor", Value::Arr(self.qor.iter().map(|q| floats(q)).collect())),
            (
                "samples",
                Value::Obj(self.samples.iter().map(|(k, v)| (k.clone(), floats(v))).collect()),
            ),
            (
                "totals",
                Value::Obj(self.totals.iter().map(|(k, v)| (k.clone(), Value::F64(*v))).collect()),
            ),
        ])
        .to_json()
    }

    /// Inverse of [`RoundReport::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let field = |name: &str| doc.get(name).ok_or(format!("round report lacks `{name}`"));
        let floats = |v: &Value| -> Result<Vec<f64>, String> {
            match v {
                Value::Arr(items) => {
                    items.iter().map(|x| x.as_f64().ok_or("not a number".to_owned())).collect()
                }
                _ => Err("not an array".to_owned()),
            }
        };
        let object = |v: &Value| match v {
            Value::Obj(fields) => Ok(fields.clone()),
            _ => Err("not an object".to_owned()),
        };
        let number = |name: &str| field(name)?.as_f64().ok_or(format!("`{name}` is not a number"));
        let qor = match field("qor")? {
            Value::Arr(items) => items
                .iter()
                .map(|q| {
                    let v = floats(q)?;
                    <[f64; 3]>::try_from(v).map_err(|_| "qor sample is not a triple".to_owned())
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("`qor` is not an array".to_owned()),
        };
        Ok(Self {
            attempted: field("attempted")?.as_u64().ok_or("`attempted` is not an integer")?,
            ops_ms: floats(field("ops_ms")?)?,
            traced_ops_ms: floats(field("traced_ops_ms")?)?,
            window_s: number("window_s")?,
            failed: field("failed")?.as_u64().ok_or("`failed` is not an integer")?,
            errors: match field("errors")? {
                Value::Arr(items) => {
                    items.iter().filter_map(Value::as_str).map(str::to_owned).collect()
                }
                _ => return Err("`errors` is not an array".to_owned()),
            },
            rss_mb: number("rss_mb")?,
            qor,
            samples: object(field("samples")?)?
                .iter()
                .map(|(k, v)| Ok((k.clone(), floats(v)?)))
                .collect::<Result<_, String>>()?,
            totals: object(field("totals")?)?
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or("total is not a number")?)))
                .collect::<Result<_, String>>()?,
        })
    }
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let mut r = RoundReport {
            attempted: 2,
            ops_ms: vec![1.5, 2.25],
            traced_ops_ms: vec![3.0],
            window_s: 0.125,
            rss_mb: 12.5,
            qor: vec![[9.0, 1234.0, 850.5]],
            ..RoundReport::default()
        };
        r.fail("bad \"output\"".to_owned());
        r.sample("pnr.place_ms", 4.0);
        r.count("service.cache_misses", 3.0);
        let back = RoundReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn absorb_pools_samples_and_sums_totals() {
        let mut a = RoundReport::default();
        a.sample("x", 1.0);
        a.count("n", 2.0);
        let mut b = RoundReport { window_s: 1.0, ..RoundReport::default() };
        b.sample("x", 2.0);
        b.count("n", 3.0);
        a.absorb(b);
        assert_eq!(a.samples["x"], vec![1.0, 2.0]);
        assert_eq!(a.totals["n"], 5.0);
        assert_eq!(a.window_s, 1.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
