//! `layers compare A.json B.json`: the acceptance rule for a change,
//! applied per workload and end-to-end metric to two series of runs
//! (A the baseline, B the change), paired by seed.
//!
//! * **improved** — B wins at least nine tenths of the pairs (ties count
//!   for neither side) and the medians differ by more than A's
//!   interquartile distance;
//! * **worse** — B's median is worse than A's by more than the metric's
//!   bound (a share of A's median);
//! * **unresolved** — either side's spread (interquartile distance over
//!   median) exceeds the bound, unless every B run beats every A run;
//! * **unchanged** — otherwise.

use crate::report::{Better, MetricDef, END_TO_END};
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One run of a series: its workload, seed and end-to-end values.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRun {
    /// Workload name.
    pub workload: String,
    /// Input seed (the pairing key).
    pub seed: u64,
    /// Whether the run's checks held.
    pub correct: bool,
    /// End-to-end metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The verdict for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better, by the gain rule.
    Improved,
    /// B is within the bound of A.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread is wider than the bound, so no call can be made.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Comparison of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric.
    pub metric: MetricDef,
    /// A's quartiles.
    pub a: (f64, f64, f64),
    /// B's quartiles.
    pub b: (f64, f64, f64),
    /// Pairs B won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// `x` is better than `y` under `better`.
fn beats(better: Better, x: f64, y: f64) -> bool {
    match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    }
}

/// Applies the rule in the module docs to A's and B's values of `metric`,
/// with `pairs` the seed-matched (A, B) values.
pub fn verdict(metric: &MetricDef, a: &[f64], b: &[f64], pairs: &[(f64, f64)]) -> (Verdict, usize) {
    let bound = metric.bound.unwrap_or(0.0);
    let wins = pairs
        .iter()
        .filter(|(x, y)| beats(metric.better, *y, *x))
        .count();
    let (a1, a2, a3) = stats::quartiles(a);
    let b2 = stats::median(b);
    // Positive when B is better.
    let gain = match metric.better {
        Better::Lower => a2 - b2,
        Better::Higher => b2 - a2,
    };
    let all_better = b
        .iter()
        .all(|&y| a.iter().all(|&x| beats(metric.better, y, x)));
    let v = if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && gain > a3 - a1 {
        Verdict::Improved
    } else if -gain > bound * a2.abs() {
        Verdict::Worse
    } else if (stats::spread(a) > bound || stats::spread(b) > bound) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (v, wins)
}

/// Reads a series file written by `layers series`.
///
/// # Errors
///
/// Unreadable or malformed files, as text.
pub fn load_series(path: &str) -> Result<Vec<SeriesRun>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Array(runs)) = doc.get("runs") else {
        return Err(format!("{path}: no `runs` array"));
    };
    runs.iter()
        .map(|r| {
            let workload = r.get("workload").and_then(Value::as_str);
            let seed = r.get("seed").and_then(Value::as_u64);
            let Some(Value::Object(ms)) = r.get("metrics") else {
                return Err(format!("{path}: a run has no metrics"));
            };
            Ok(SeriesRun {
                workload: workload
                    .ok_or(format!("{path}: a run has no workload"))?
                    .to_string(),
                seed: seed.ok_or(format!("{path}: a run has no seed"))?,
                correct: r.get("correct").and_then(Value::as_bool).unwrap_or(false),
                metrics: ms
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                    .collect(),
            })
        })
        .collect()
}

/// Compares series A and B for every workload they share.
pub fn compare(a: &[SeriesRun], b: &[SeriesRun]) -> Vec<Row> {
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        if !b.iter().any(|r| r.workload == w) {
            continue;
        }
        for m in END_TO_END {
            let vals = |s: &[SeriesRun]| -> Vec<(u64, f64)> {
                s.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| r.metrics.get(m.name).map(|v| (r.seed, *v)))
                    .collect()
            };
            let (va, vb) = (vals(a), vals(b));
            let pairs: Vec<(f64, f64)> = va
                .iter()
                .filter_map(|(s, x)| vb.iter().find(|(t, _)| t == s).map(|(_, y)| (*x, *y)))
                .collect();
            let xa: Vec<f64> = va.iter().map(|p| p.1).collect();
            let xb: Vec<f64> = vb.iter().map(|p| p.1).collect();
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let (v, wins) = verdict(m, &xa, &xb, &pairs);
            rows.push(Row {
                workload: w.to_string(),
                metric: *m,
                a: stats::quartiles(&xa),
                b: stats::quartiles(&xb),
                wins,
                pairs: pairs.len(),
                verdict: v,
            });
        }
    }
    rows
}

/// The comparison as text, one line per workload and metric, every
/// ratio with its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for r in rows {
        let (a, b, u) = (r.a, r.b, r.metric.unit);
        let change = (r.b.1 - r.a.1) / r.a.1 * 100.0;
        let _ = writeln!(
            out,
            "{:<17} {:<17} A {:.4} [{:.4} {:.4}] {u} | B {:.4} [{:.4} {:.4}] {u} | \
             B-A {change:+.1}% of A's median {:.4} {u} | B wins {}/{} pairs | spread A {:.1}% B {:.1}% \
             (bound {:.0}%) | {}",
            r.workload,
            r.metric.name,
            a.1,
            a.0,
            a.2,
            b.1,
            b.0,
            b.2,
            a.1,
            r.wins,
            r.pairs,
            (a.2 - a.0) / a.1 * 100.0,
            (b.2 - b.0) / b.1 * 100.0,
            r.metric.bound.unwrap_or(0.0) * 100.0,
            r.verdict.name(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAT: MetricDef = MetricDef {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.10),
    };
    const THROUGHPUT: MetricDef = MetricDef {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Some(0.10),
    };

    fn paired(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn a_clear_win_is_improved_and_a_clear_loss_is_worse() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            verdict(&LAT, &a, &b, &paired(&a, &b)),
            (Verdict::Improved, 10)
        );
        assert_eq!(verdict(&LAT, &b, &a, &paired(&b, &a)).0, Verdict::Worse);
        // Direction flips for a higher-is-better metric.
        assert_eq!(
            verdict(&THROUGHPUT, &a, &b, &paired(&a, &b)).0,
            Verdict::Worse
        );
    }

    #[test]
    fn small_shifts_are_unchanged_and_wide_spreads_unresolved() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 1.02).collect();
        assert_eq!(verdict(&LAT, &a, &b, &paired(&a, &b)).0, Verdict::Unchanged);
        let wide: Vec<f64> = (0..10).map(|i| 60.0 + 10.0 * f64::from(i)).collect();
        assert_eq!(
            verdict(&LAT, &wide, &wide, &paired(&wide, &wide)).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn nine_tenths_of_the_pairs_are_needed_for_a_gain() {
        let a = vec![100.0; 10];
        let mut b = vec![80.0; 10];
        b[0] = 120.0;
        b[1] = 120.0; // 8 of 10 wins
        assert_ne!(verdict(&LAT, &a, &b, &paired(&a, &b)).0, Verdict::Improved);
        b[1] = 80.0; // 9 of 10
        assert_eq!(
            verdict(&LAT, &a, &b, &paired(&a, &b)),
            (Verdict::Improved, 9)
        );
    }

    #[test]
    fn series_pair_by_seed_across_workloads() {
        let run = |w: &str, seed, v| SeriesRun {
            workload: w.to_string(),
            seed,
            correct: true,
            metrics: [("latency_p50_ms".to_string(), v)].into_iter().collect(),
        };
        let a = vec![run("x", 1, 10.0), run("x", 2, 11.0), run("y", 1, 5.0)];
        let b = vec![run("x", 2, 10.0), run("x", 1, 12.0), run("y", 1, 5.0)];
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 2, "only metrics present in both series");
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].pairs, rows[0].wins),
            ("x", 2, 1)
        );
        assert!(render(&rows).contains("B wins 1/2 pairs"));
    }
}
