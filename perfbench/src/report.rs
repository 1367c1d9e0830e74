//! Result assembly: named metrics with units, exact quantiles, the
//! provenance block and the one-line JSON result.

use std::collections::BTreeMap;

use insitu_types::json::Value;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit tag (`ms`, `us`, `1/s`, `count`, `frac`, ...).
    pub unit: &'static str,
}

/// Ordered metric list with a push helper.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted in the timed phase: service requests, or
    /// coupled runs of `insitu_md`.
    pub attempted: u64,
    /// Operations that errored or failed their correctness check.
    pub failed: u64,
    /// Setup-level checks (reference state, accounting) that failed.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Run facts for the provenance block (counts, thread counts, ...).
    pub facts: BTreeMap<String, Value>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Outcome {
    /// True when every operation and every run-level check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The one-line result object: `correct`, `attempted`, `failed`,
    /// `metrics` (each `{value, unit}`).
    pub fn result_json(&self) -> String {
        let mut metrics = BTreeMap::new();
        for m in &self.metrics.0 {
            let mut o = BTreeMap::new();
            o.insert("value".to_string(), Value::Number(finite(m.value)));
            o.insert("unit".to_string(), Value::String(m.unit.into()));
            metrics.insert(m.name.clone(), Value::Object(o));
        }
        let mut top = BTreeMap::new();
        top.insert("correct".to_string(), Value::Bool(self.correct()));
        top.insert(
            "attempted".to_string(),
            Value::Number(self.attempted as f64),
        );
        top.insert("failed".to_string(), Value::Number(self.failed as f64));
        top.insert("metrics".to_string(), Value::Object(metrics));
        Value::Object(top).to_string()
    }
}

/// JSON has no NaN/inf: a metric that could not be computed reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Exact nearest-rank quantile of **sorted** samples: the smallest sample
/// with at least `q·n` samples at or below it.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the `q` quantile's rank (the tail count the
/// quantile rests on).
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `(commit, dirty)` of the git checkout in the working directory, or
/// `("unknown", None)` outside one. Only a `.git` in the working
/// directory itself counts, so an enclosing repository is never
/// mistaken for the benchmarked tree.
fn git_state() -> (String, Option<bool>) {
    if !std::path::Path::new(".git").exists() {
        return ("unknown".into(), None);
    }
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = run(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = run(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    (commit, dirty)
}

/// The provenance block: host, toolchain, tree, and the run's own facts
/// (seed, counts, thread counts).
pub fn provenance(
    workload: &str,
    seed: u64,
    trace: bool,
    facts: &BTreeMap<String, Value>,
) -> String {
    let (commit, dirty) = git_state();
    let mut m = BTreeMap::new();
    m.insert("workload".into(), Value::String(workload.into()));
    m.insert("seed".into(), Value::Number(seed as f64));
    m.insert("trace".into(), Value::Bool(trace));
    m.insert("nproc".into(), Value::Number(nproc() as f64));
    m.insert("cpu_model".into(), Value::String(cpu_model()));
    m.insert(
        "rustc".into(),
        Value::String(env!("PERFBENCH_RUSTC_VERSION").into()),
    );
    m.insert(
        "profile".into(),
        Value::String(env!("PERFBENCH_PROFILE").into()),
    );
    m.insert("git_commit".into(), Value::String(commit));
    m.insert("git_dirty".into(), dirty.map_or(Value::Null, Value::Bool));
    for (k, v) in facts {
        m.insert(k.clone(), v.clone());
    }
    let mut top = BTreeMap::new();
    top.insert("provenance".to_string(), Value::Object(m));
    Value::Object(top).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(beyond(v.len(), 0.99), 10);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
