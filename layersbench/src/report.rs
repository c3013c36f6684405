//! Metric definitions, the per-run result, and its two renderings: the
//! one-line JSON summary that ends standard output and the full record
//! written under the output directory.

use serde_json::{json, Value};
use std::fmt::Write as _;
use std::path::Path;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction, and for end-to-end metrics the
/// share of the baseline median by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// A per-layer metric of work done or time taken.
const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

/// A per-layer metric of work avoided (skips, cache hits).
const fn saving(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
/// `BENCHMARK.json` repeats this table; a test keeps the two equal.
///
/// Peak memory varies by a few percent between runs at two threads (per-
/// thread allocator arenas grow differently), hence its bound. The timing
/// bounds are the widest allowed because the shared 2-core
/// x86-64 VM they were set on changes speed by 20–40% over minutes (a
/// fixed single-threaded loop took 203–243 ms in one minute and 219–356 ms
/// in another; set-up, which allocates and parses, moved between 7 and
/// 15 ms), and two series of the same commit must agree within the bound.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_tail_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

/// Per-layer metrics, reported by every workload in the traced run (zero
/// where the workload does not reach the layer).
pub const PER_LAYER: &[MetricDef] = &[
    layer("mapmatch.busy_s", "s"),
    layer("mapmatch.samples_matched", "count"),
    layer("mapmatch.candidate_lookups", "count"),
    layer("mapmatch.matrix_cells", "count"),
    layer("mapmatch.traces_skipped", "count"),
    layer("phase1.busy_s", "s"),
    layer("phase1.busy_1t_s", "s"),
    layer("phase1.samples_scanned", "count"),
    layer("phase1.fragments", "count"),
    layer("phase1.base_clusters", "count"),
    layer("phase2.busy_s", "s"),
    layer("phase2.busy_1t_s", "s"),
    layer("phase2.flows_kept", "count"),
    layer("phase2.flows_discarded", "count"),
    layer("phase3.busy_s", "s"),
    layer("phase3.busy_1t_s", "s"),
    layer("phase3.pairs_considered", "count"),
    saving("phase3.elb_skips", "count"),
    saving("phase3.alt_skips", "count"),
    saving("phase3.filter_ratio", "ratio"),
    layer("rnet.sp_computations", "count"),
    layer("rnet.one_to_many_scans", "count"),
    saving("rnet.sp_cache_hits", "count"),
    layer("incremental.ingest_ms", "ms"),
    layer("incremental.expire_ms", "ms"),
    layer("incremental.refine_ms", "ms"),
    layer("incremental.retained_flows", "count"),
    layer("incremental.live_fragments", "count"),
    layer("retention.expiries", "count"),
    layer("retention.expired_fragments", "count"),
    layer("retention.drift_events", "count"),
    layer("checkpoint.log_ms", "ms"),
    layer("checkpoint.save_ms", "ms"),
    layer("checkpoint.saves", "count"),
    layer("fs.busy_ms", "ms"),
    layer("fs.writes", "count"),
    layer("fs.appends", "count"),
    layer("fs.renames", "count"),
    layer("fs.removes", "count"),
    layer("fs.dir_syncs", "count"),
    layer("fs.bytes_written", "bytes"),
    layer("fs.bytes_read", "bytes"),
    layer("fs.state_mb", "MB"),
    layer("spool.load_ms", "ms"),
    layer("tenant.push_ms_p50", "ms"),
    layer("tenant.push_ms_p90", "ms"),
    layer("frame.encode_us", "us"),
    layer("frame.decode_us", "us"),
    layer("frame.request_bytes", "bytes"),
    layer("net.overhead_ms", "ms"),
    layer("net.gen_lag_p99_ms", "ms"),
    layer("trace.overhead_ratio", "ratio"),
];

/// Looks a metric up in either table.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One output check and whether it held.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence (digests, counts) or the mismatch.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (not applied, degraded, not acked, errored).
    pub failed: u64,
    /// Metric values, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Raw samples, quartiles and workload facts for the record file.
    pub detail: Vec<(String, Value)>,
}

impl RunResult {
    /// An empty result for `workload`.
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        RunResult {
            workload: workload.to_string(),
            seed,
            trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            checks: Vec::new(),
            detail: Vec::new(),
        }
    }

    /// Sets metric `name` (which must be in one of the tables).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(metric_def(name).is_some(), "unknown metric {name}");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Adds a field to the record file.
    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.detail.push((key.to_string(), value.into()));
    }

    /// The metrics this run must report: every end-to-end metric, or
    /// with tracing every per-layer one.
    pub fn required(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// True when every check held and every required metric is present
    /// and finite.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.missing().is_empty()
    }

    /// Required metrics that were not set or are not finite.
    pub fn missing(&self) -> Vec<&'static str> {
        self.required()
            .iter()
            .filter(|m| !self.get(m.name).is_some_and(f64::is_finite))
            .map(|m| m.name)
            .collect()
    }

    /// The summary line: `correct`, `attempted`, `failed` and the
    /// required metrics with their units.
    pub fn summary_line(&self) -> String {
        let metrics = self
            .required()
            .iter()
            .filter_map(|m| {
                self.get(m.name)
                    .map(|v| (m.name.to_string(), json!({"value": v, "unit": m.unit})))
            })
            .collect();
        compact(&json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        }))
    }

    /// Human-readable lines: every required metric by name with its
    /// unit, then every check.
    pub fn human_lines(&self) -> String {
        let mut out = String::new();
        for m in self.required() {
            let v = self
                .get(m.name)
                .map_or("missing".to_string(), |v| format!("{v:.6}"));
            let _ = writeln!(out, "{}: {:<28} {v} {}", self.workload, m.name, m.unit);
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            let _ = writeln!(
                out,
                "{}: check {:<34} {verdict} ({})",
                self.workload, c.name, c.detail
            );
        }
        out
    }

    /// The full record: metrics, checks, raw detail and `machine`.
    pub fn record(&self, machine: Value) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v)| {
                let unit = metric_def(n).map_or("", |m| m.unit);
                (n.to_string(), json!({"value": *v, "unit": unit}))
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| json!({"name": c.name.clone(), "ok": c.ok, "detail": c.detail.clone()}))
            .collect();
        json!({
            "workload": self.workload.clone(),
            "seed": self.seed,
            "trace": self.trace,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
            "checks": Value::Array(checks),
            "detail": Value::Object(self.detail.clone()),
            "machine": machine,
        })
    }
}

/// Single-line JSON (the vendored `serde_json` only pretty-prints).
pub fn compact(v: &Value) -> String {
    let mut out = String::new();
    write_compact(v, &mut out);
    out
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&scalar(&Value::String(k.clone())));
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
        other => out.push_str(&scalar(other)),
    }
}

/// A scalar rendered by the vendored pretty-printer (which is already
/// single-line for scalars); non-finite floats become `null`.
fn scalar(v: &Value) -> String {
    serde_json::to_string_pretty(v).unwrap_or_else(|_| "null".to_string())
}

/// Machine and build facts recorded with every result: CPU model,
/// available parallelism, the source revision when the checkout is a git
/// work tree, and the storage the state directories sit on.
pub fn machine(state_dir: &Path) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    json!({
        "cpu_model": cpu,
        "nproc": nproc,
        "git_rev": git_rev(),
        "storage": storage_kind(state_dir),
        "os": std::env::consts::OS,
    })
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark may run from an export that is not a repository).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// File-system type of the mount holding `dir` (longest matching mount
/// point in `/proc/self/mounts`).
pub fn storage_kind(dir: &Path) -> String {
    let abs = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, k)| k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_limits() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn summary_line_has_exactly_the_documented_keys() {
        let mut r = RunResult::new("w", 1, false);
        for m in END_TO_END {
            r.set(m.name, 1.5);
        }
        r.set("phase1.busy_s", 9.0); // per-layer values stay out of it
        r.attempted = 3;
        r.check("c", true, "x");
        let line = r.summary_line();
        assert!(!line.contains('\n'));
        let v = serde_json::from_str(&line).unwrap();
        let Value::Object(fields) = &v else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        let Some(Value::Object(ms)) = v.get("metrics") else {
            panic!()
        };
        assert_eq!(ms.len(), END_TO_END.len());
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn a_missing_metric_or_failed_check_is_incorrect() {
        let mut r = RunResult::new("w", 1, true);
        assert!(!r.correct());
        for m in PER_LAYER {
            r.set(m.name, 0.0);
        }
        assert!(r.correct());
        r.check("c", false, "mismatch");
        assert!(!r.correct());
    }
}
