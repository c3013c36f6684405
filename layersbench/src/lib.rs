//! The `layers` benchmark: five workloads over the NEAT batch pipeline,
//! the windowed streaming service and the framed-TCP push path, each
//! reporting end-to-end metrics (tracing off) or per-layer metrics (a
//! separate traced run). See `BENCHMARK.md` for the workloads, metrics
//! and how to run and compare.
//!
//! | workload | module |
//! |---|---|
//! | `batch-sj5000-gps`, `batch-mia5000` | [`batch`] |
//! | `stream-w1`, `stream-w16` | [`stream`] |
//! | `push-net` | [`push`] |

pub mod batch;
pub mod compare;
pub mod inputs;
pub mod push;
pub mod report;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod tracedfs;

use neat_core::phase3::Phase3Stats;
use neat_core::{FlowCluster, TrajectoryCluster};
use report::{RunResult, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "batch-sj5000-gps",
    "batch-mia5000",
    "stream-w1",
    "stream-w16",
    "push-net",
];

/// Measurement length of one run when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 12.0;

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measurement length the run is sized to.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input scale.
    pub scale: inputs::Scale,
    /// Scratch directory for network files and service state; the caller
    /// creates and removes it.
    pub work: PathBuf,
    /// Where records and traces are written.
    pub out: PathBuf,
}

/// Runs workload `name`, or `None` for an unknown name.
pub fn run_workload(name: &str, opts: &Opts) -> Option<RunResult> {
    Some(match name {
        "batch-sj5000-gps" => batch::run(batch::Kind::Gps, opts),
        "batch-mia5000" => batch::run(batch::Kind::Mia, opts),
        "stream-w1" => stream::run(stream::Kind::W1, opts),
        "stream-w16" => stream::run(stream::Kind::W16, opts),
        "push-net" => push::run(opts),
        _ => return None,
    })
}

/// Set-up repetitions per run, at least; the fastest is `setup_s`.
const SETUP_SAMPLES: usize = 14;

/// Most points of a run at which set-up is sampled. The shared 2-core VM
/// the benchmark was calibrated on switches between a fast and a slow
/// speed every 0.5–3 s (the SJ network parse takes about 7 or about 13
/// ms); set-ups timed back to back all land in one such phase, so their
/// median moved from 8.8 to 13.3 ms between two series of one commit.
/// Groups spread over the whole measured phase reach a fast phase in
/// nearly every run, and the fastest sample follows the program.
const SETUP_POINTS: usize = 7;

/// Runs `f`, returning its output and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Streaming 64-bit digest of clustering output. Hashing the structure
/// directly keeps it cheap next to a run: rendering a MIA5000 result
/// with `Debug` costs several times the clustering itself.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in one word.
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }

    /// Folds in a float, bit-exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds in every flow in order: each member's segment, and each
    /// fragment's trajectory, segment, end points and point count.
    pub fn flows(&mut self, flows: &[FlowCluster]) {
        self.u64(flows.len() as u64);
        for flow in flows {
            self.u64(flow.members().len() as u64);
            for base in flow.members() {
                self.u64(base.segment().index() as u64);
                self.u64(base.fragments().len() as u64);
                for f in base.fragments() {
                    self.u64(f.trajectory.value());
                    self.u64(f.segment.index() as u64);
                    for p in [&f.first, &f.last] {
                        self.u64(p.segment.index() as u64);
                        self.f64(p.position.x);
                        self.f64(p.position.y);
                        self.f64(p.time);
                    }
                    self.u64(f.point_count as u64);
                }
            }
        }
    }

    /// Folds in trajectory clusters (each a list of flows).
    pub fn clusters(&mut self, clusters: &[TrajectoryCluster]) {
        self.u64(clusters.len() as u64);
        for c in clusters {
            self.flows(c.flows());
        }
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a text rendering (FNV-1a).
pub fn digest(text: &str) -> u64 {
    neat_durability::fnv64(text.as_bytes())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Sets `latency_p50_ms` and `latency_tail_ms` from the workload's
/// per-operation latencies in milliseconds, one per operation of its
/// sequence, each already the best of that operation's replays. A
/// sequence of one operation (a batch run) reports that operation for
/// both. The tail's percentile and the quartiles go into the record.
pub fn set_latencies(res: &mut RunResult, ms: &[f64]) {
    if let [only] = ms {
        res.set("latency_p50_ms", *only);
        res.set("latency_tail_ms", *only);
        return;
    }
    match (stats::percentile(ms, 0.5), stats::tail(ms, 0.9)) {
        (Ok(p50), Ok((q, tail))) => {
            res.set("latency_p50_ms", p50);
            res.set("latency_tail_ms", tail);
            res.note("latency_tail_percentile", q * 100.0);
        }
        (p50, tail) => res.check(
            "latency sample supports its percentiles",
            false,
            format!("{p50:?} {tail:?}"),
        ),
    }
    let (q1, q2, q3) = stats::quartiles(ms);
    res.note("latency_quartiles_ms", vec![q1, q2, q3]);
    res.note("latency_samples_ms", ms.to_vec());
}

/// Sets the phase-3 and shortest-path-oracle counters from `s`.
pub fn set_phase3_counters(res: &mut RunResult, s: &Phase3Stats) {
    res.set("phase3.pairs_considered", s.pairs_considered as f64);
    res.set("phase3.elb_skips", s.elb_skips as f64);
    res.set("phase3.alt_skips", s.alt_skips as f64);
    let skipped = (s.elb_skips + s.alt_skips) as f64;
    let ratio = if s.pairs_considered == 0 {
        0.0
    } else {
        skipped / s.pairs_considered as f64
    };
    res.set("phase3.filter_ratio", ratio);
    res.set("rnet.sp_computations", s.sp_computations as f64);
    res.set("rnet.one_to_many_scans", s.one_to_many_scans as f64);
    res.set("rnet.sp_cache_hits", s.sp_cache_hits as f64);
}

/// Reports zero for every per-layer metric the workload did not reach.
pub fn zero_unreached(res: &mut RunResult) {
    for m in PER_LAYER {
        if res.get(m.name).is_none() {
            res.set(m.name, 0.0);
        }
    }
}

/// How many set-ups to time before each operation of a sequence of `ops`
/// (entry `ops`: after the last): at least [`SETUP_SAMPLES`] in all, in
/// equal groups at up to [`SETUP_POINTS`] evenly spread points, the first
/// before the first operation and the last after the last.
pub fn setup_schedule(ops: usize) -> Vec<usize> {
    let points = SETUP_POINTS.min(ops + 1);
    let step = (points - 1).max(1);
    let mut due = vec![0; ops + 1];
    for k in 0..points {
        due[k * ops / step] += SETUP_SAMPLES.div_ceil(points);
    }
    due
}

/// Times `reps` runs of the program's set-up, each on a fresh state,
/// appending their wall times to `samples`. The value `set_up` returns
/// is released outside the timing.
///
/// # Errors
///
/// The first set-up failure.
pub fn time_setup<T>(
    reps: usize,
    samples: &mut Vec<f64>,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(), String> {
    for _ in 0..reps {
        let (r, dt) = timed(&mut set_up);
        std::hint::black_box(r?);
        samples.push(dt);
    }
    Ok(())
}

/// Sets `setup_s` to the fastest set-up sample and records them all.
pub fn set_setup(res: &mut RunResult, samples: Vec<f64>) {
    res.set(
        "setup_s",
        samples.iter().copied().fold(f64::INFINITY, f64::min),
    );
    res.note("setup_samples_s", samples);
}

/// Writes the recorded spans to `<out>/<workload>.trace.jsonl` and adds
/// each span name's total time, self time and count to the record.
pub fn write_trace(opts: &Opts, res: &mut RunResult, spans: &[trace::Span]) {
    let totals = trace::totals(spans)
        .into_iter()
        .map(|(n, (total, own, count))| {
            let v = serde_json::json!({"total_s": total, "self_s": own, "count": count});
            (n.to_string(), v)
        })
        .collect();
    res.note("spans", serde_json::Value::Object(totals));
    let path = opts.out.join(format!("{}.trace.jsonl", res.workload));
    match std::fs::write(&path, trace::to_jsonl(spans)) {
        Ok(()) => res.note("trace_file", path.display().to_string()),
        Err(e) => res.check(
            "trace file written",
            false,
            format!("{}: {e}", path.display()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_sampled_before_the_first_and_after_the_last_operation() {
        for ops in [0, 1, 2, 5, 6, 25, 1500] {
            let due = setup_schedule(ops);
            assert_eq!(due.len(), ops + 1);
            assert!(due[0] > 0 && due[ops] > 0, "{ops}: {due:?}");
            assert!(due.iter().sum::<usize>() >= SETUP_SAMPLES, "{ops}");
            let points = due.iter().filter(|&&n| n > 0).count();
            assert_eq!(points, SETUP_POINTS.min(ops + 1), "{ops}: {due:?}");
        }
    }
}
