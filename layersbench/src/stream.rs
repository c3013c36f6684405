//! The two windowed-stream workloads: batches handed to a `Service`
//! through its spool, one `Service::tick` each (closed loop, one
//! producer).
//!
//! Batch `k` holds trips drawn from the SJ5000 population departing
//! `60·k` trajectory-seconds after batch 0. The window decides how much
//! state the service retains:
//!
//! * `stream-w1` (window 60 s, one stride, 40 trips a batch): the window
//!   retains almost nothing, so per-batch phases 1–2 and the
//!   journal/checkpoint writes dominate an apply;
//! * `stream-w16` (window 960 s, sixteen strides, 30 trips a batch):
//!   retained flows pile up and the repeated phase-3 refinement of every
//!   retained flow dominates.
//!
//! Every replay starts from an empty state directory and feeds the same
//! batch sequence; per batch position the fastest replay counts, and the
//! percentiles are taken over the measured positions.

use crate::inputs::{self, Scale};
use crate::report::RunResult;
use crate::trace::{self, Tracer};
use crate::tracedfs::TracedFs;
use crate::{digest, dir_bytes, peak_rss_mb, stats, timed, Digest, Opts};
use neat_core::incremental::IncrementalNeat;
use neat_core::phase1::form_base_clusters_ctl;
use neat_core::phase2::form_flow_clusters_ctl;
use neat_core::phase3::Phase3Stats;
use neat_core::CheckpointStore;
use neat_durability::fs::write_atomic;
use neat_durability::{Fs, StdFs};
use neat_rnet::netgen::MapPreset;
use neat_rnet::RoadNetwork;
use neat_runctl::Control;
use neat_svc::{spool, DrainOutcome, Service, SvcConfig, TickOutcome};
use neat_traj::Dataset;
use std::path::Path;

/// Which stream workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `stream-w1`: window of one stride.
    W1,
    /// `stream-w16`: window of sixteen strides.
    W16,
}

/// Trajectory-seconds between consecutive batches.
const STRIDE_S: f64 = 60.0;

/// Thread count the service's clustering configuration asks for.
const THREADS: usize = 2;

/// Fewest replays at full scale. Every fourth batch writes a checkpoint,
/// and those fsync-heavy applies form the p90; with fewer than five
/// replays to take each position's best from, one noisy disk or CPU
/// moment moved that tail by up to a quarter between runs.
const MIN_REPLAYS: usize = 5;

/// Sizes of one workload at one scale.
struct Shape {
    name: &'static str,
    window_s: f64,
    per_batch: usize,
    warm: usize,
    measured: usize,
    /// Typical seconds per batch (hand-off plus apply) on a 2-core
    /// x86-64 VM, used only to size the replay count to `--seconds`.
    nominal_s: f64,
}

fn shape(kind: Kind, scale: Scale) -> Shape {
    let (name, window_s, per_batch, nominal_s) = match kind {
        Kind::W1 => ("stream-w1", STRIDE_S, 40, 0.020),
        Kind::W16 => ("stream-w16", 16.0 * STRIDE_S, 30, 0.030),
    };
    let (per_batch, warm, measured) = match scale {
        Scale::Full => (per_batch, 30, 100),
        Scale::Smoke => (4, 2, 20),
    };
    Shape {
        name,
        window_s,
        per_batch,
        warm,
        measured,
        nominal_s,
    }
}

/// Service configuration rooted at `dir`.
fn svc_config(dir: &Path, shape: &Shape, scale: Scale) -> SvcConfig {
    let mut cfg = SvcConfig::new(dir.join("spool"), dir.join("state"), dir.join("quarantine"));
    cfg.neat = inputs::neat_config(scale, THREADS);
    cfg.window = Some(shape.window_s);
    cfg
}

/// A digest of the retained clustering state of `session` (operation
/// count, watermark, flows, resilience counters), comparable between the
/// service's session and the bench-side replica.
fn session_digest(s: &IncrementalNeat<'_>) -> u64 {
    let mut d = Digest::default();
    d.u64(s.batches() as u64);
    d.f64(s.watermark().unwrap_or(f64::NEG_INFINITY));
    d.flows(s.flow_clusters());
    d.u64(digest(&format!("{:?}", s.resilience())));
    d.finish()
}

/// What one replay of the batch sequence through a real `Service` left.
struct Replay {
    /// Apply latency (one `Service::tick`) per batch position, seconds.
    ticks: Vec<f64>,
    failed: u64,
    fingerprint: String,
    session: u64,
    checkpoints: u64,
    state_bytes: u64,
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Feeds every batch through the spool of a fresh `Service` over `fs`,
/// one tick per batch, then drains to the final checkpoint.
fn replay<F: Fs + Clone>(
    fs: F,
    net: &RoadNetwork,
    cfg: &SvcConfig,
    batches: &[(String, Vec<u8>)],
    tracer: Option<&Tracer>,
) -> Result<Replay, String> {
    let mut svc = Service::open(net, cfg.clone(), fs).map_err(|e| format!("open: {e}"))?;
    let mut ticks = Vec::with_capacity(batches.len());
    let mut failed = 0u64;
    for (k, (id, bytes)) in batches.iter().enumerate() {
        let before = svc.health();
        // The producer's hand-off goes straight to the disk: it is the
        // client's write, not the service's, and is not timed.
        write_atomic(&StdFs, &cfg.spool_dir.join(id), bytes)
            .map_err(|e| format!("hand-off {id}: {e}"))?;
        let (outcome, apply) = timed(|| match tracer {
            Some(t) => t.span("tick", k as u64, || svc.tick()),
            None => svc.tick(),
        });
        let after = svc.health();
        let ok = outcome == TickOutcome::Worked
            && after.applied == before.applied + 1
            && after.degraded_batches == before.degraded_batches;
        if !ok {
            failed += 1;
        }
        ticks.push(apply);
    }
    if svc.run_drain(64) != DrainOutcome::Drained {
        failed += 1;
    }
    Ok(Replay {
        ticks,
        failed,
        fingerprint: svc.state_fingerprint(),
        session: session_digest(svc.session()),
        checkpoints: svc.health().checkpoints,
        state_bytes: dir_bytes(&cfg.state_dir),
    })
}

/// Runs the workload; see the module docs.
pub fn run(kind: Kind, opts: &Opts) -> RunResult {
    let shape = shape(kind, opts.scale);
    let mut res = RunResult::new(shape.name, opts.seed, opts.trace);
    match run_inner(&shape, opts, &mut res) {
        Ok(()) => {}
        Err(e) => res.check("workload completed", false, e),
    }
    res
}

fn run_inner(shape: &Shape, opts: &Opts, res: &mut RunResult) -> Result<(), String> {
    let file = opts.work.join("SJ.net");
    let batches: Vec<(String, Vec<u8>)> = {
        let net = inputs::network(MapPreset::SanJose, opts.scale);
        let pool = inputs::population(MapPreset::SanJose, &net, opts.scale);
        inputs::write_network_file(&net, &file)?;
        let stream = inputs::batch_stream(
            &pool,
            shape.warm + shape.measured,
            shape.per_batch,
            STRIDE_S,
            opts.seed,
        );
        stream
            .iter()
            .map(|b| (format!("{}.batch", b.name()), inputs::encode_batch(b)))
            .collect()
    };
    res.note("batches", batches.len());
    res.note("trips_per_batch", shape.per_batch);
    res.note("window_s", shape.window_s);

    let net = read_net(&file)?;
    if opts.trace {
        traced(shape, opts, &net, &batches, res)
    } else {
        measured(shape, opts, &file, &net, &batches, res)?;
        res.set("peak_rss_mb", peak_rss_mb());
        Ok(())
    }
}

fn read_net(file: &Path) -> Result<RoadNetwork, String> {
    let text = std::fs::read(file).map_err(|e| format!("read network: {e}"))?;
    neat_rnet::io::read_network(std::io::Cursor::new(text)).map_err(|e| format!("parse: {e}"))
}

fn replay_count(shape: &Shape, opts: &Opts) -> usize {
    match opts.scale {
        Scale::Full => {
            let per_replay = (shape.warm + shape.measured) as f64 * shape.nominal_s;
            ((opts.seconds / per_replay).round() as usize).max(MIN_REPLAYS)
        }
        Scale::Smoke => 2,
    }
}

fn measured(
    shape: &Shape,
    opts: &Opts,
    file: &Path,
    net: &RoadNetwork,
    batches: &[(String, Vec<u8>)],
    res: &mut RunResult,
) -> Result<(), String> {
    let replays = replay_count(shape, opts);
    // The program's set-up: read the network, open a service on an
    // empty state directory.
    let setup_root = opts.work.join("setup");
    let mut opened = 0;
    let mut set_up = || -> Result<RoadNetwork, String> {
        opened += 1;
        let cfg = svc_config(&setup_root.join(opened.to_string()), shape, opts.scale);
        let net = read_net(file)?;
        let svc = Service::open(&net, cfg, StdFs).map_err(|e| format!("open: {e}"))?;
        std::hint::black_box(svc.status());
        drop(svc);
        Ok(net)
    };
    // Set-up is sampled in groups spread over the replays.
    let due = crate::setup_schedule(replays);
    let mut setup = Vec::new();
    let mut runs = Vec::with_capacity(replays);
    for (r, &reps) in due.iter().take(replays).enumerate() {
        crate::time_setup(reps, &mut setup, &mut set_up)?;
        let dir = opts.work.join(format!("replay-{r}"));
        fresh_dir(&dir)?;
        let cfg = svc_config(&dir, shape, opts.scale);
        runs.push(replay(StdFs, net, &cfg, batches, None)?);
        let _ = std::fs::remove_dir_all(&dir);
    }
    crate::time_setup(due[replays], &mut setup, &mut set_up)?;
    let _ = std::fs::remove_dir_all(&setup_root);
    res.attempted = (replays * batches.len()) as u64;
    res.failed = runs.iter().map(|r| r.failed).sum();
    let first = &runs[0].fingerprint;
    res.check(
        "every replay ends in the same service state",
        runs.iter().all(|r| &r.fingerprint == first),
        format!("state digest {:016x} over {replays} replays", digest(first)),
    );
    res.check(
        "every batch applied, none degraded",
        res.failed == 0,
        format!("{} failed of {}", res.failed, res.attempted),
    );
    let measured_ticks: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| r.ticks[shape.warm..].iter().map(|s| s * 1e3).collect())
        .collect();
    let best = stats::best_of_replays(&measured_ticks);
    crate::set_latencies(res, &best);
    crate::set_setup(res, setup);
    res.note("replays", replays);
    res.note("threads", THREADS);
    res.note("state_bytes", runs[0].state_bytes);
    res.note("checkpoints", runs[0].checkpoints);
    res.note(
        "replay_ticks_ms",
        measured_ticks
            .into_iter()
            .map(serde_json::Value::from)
            .collect::<Vec<_>>(),
    );
    Ok(())
}

/// Totals the bench-side replica accumulates.
#[derive(Default)]
struct ReplicaOut {
    session: u64,
    p3: Phase3Stats,
    samples: u64,
    fragments: u64,
    base_clusters: u64,
    flows_kept: u64,
    flows_discarded: u64,
    expiries: u64,
    expired_fragments: u64,
    drift_events: u64,
    retained_flows: usize,
    live_fragments: usize,
}

/// Replays the service's per-batch order through public calls, one span
/// each: `spool::load` → `ingest_controlled` → `CheckpointStore::log_batch`
/// → `expire_before` → `log_expiry` → `save_checkpoint` every fourth
/// batch. Read-only probes add the batch's phases 1–2 as the ingest runs
/// them (one thread) and one refinement of the retained flows, so their
/// cost can be attributed; they do not change the replica's state. The
/// replica skips the service's private replay-index rewrite, so file-I/O
/// totals come from the `TracedFs` service run instead.
fn replica(
    dir: &Path,
    net: &RoadNetwork,
    cfg: &SvcConfig,
    batches: &[(String, Vec<u8>)],
    tracer: &Tracer,
) -> Result<ReplicaOut, String> {
    let (spool_dir, state_dir) = (dir.join("spool"), dir.join("state"));
    std::fs::create_dir_all(&spool_dir).map_err(|e| e.to_string())?;
    let store = CheckpointStore::open(StdFs, &state_dir).map_err(|e| format!("store: {e}"))?;
    let mut session = IncrementalNeat::new(net, cfg.neat);
    let window = cfg.window.unwrap_or(f64::INFINITY);
    let mut out = ReplicaOut::default();
    for (k, (id, bytes)) in batches.iter().enumerate() {
        let req = k as u64;
        write_atomic(&StdFs, &spool_dir.join(id), bytes).map_err(|e| e.to_string())?;
        let batch: Dataset = tracer
            .span("spool.load", req, || spool::load(&StdFs, &spool_dir, id))
            .map_err(|e| format!("load {id}: {e}"))?;
        // The same calls, with the same single thread, that the ingest
        // below makes for the batch's phases 1–2.
        let ctl = Control::unlimited();
        let (probe, _, _) = tracer
            .span("phase1", req, || {
                form_base_clusters_ctl(net, &batch, cfg.neat.insert_junctions, 1, cfg.policy, &ctl)
            })
            .map_err(|e| format!("phase 1 probe: {e}"))?;
        out.samples += probe.samples_scanned as u64;
        out.fragments += probe.fragment_count as u64;
        out.base_clusters += probe.base_clusters.len() as u64;
        let (p2, _) = tracer
            .span("phase2", req, || {
                form_flow_clusters_ctl(net, probe.base_clusters, &cfg.neat, &ctl)
            })
            .map_err(|e| format!("phase 2 probe: {e}"))?;
        out.flows_kept += p2.flow_clusters.len() as u64;
        out.flows_discarded += p2.discarded as u64;

        let ingest = tracer
            .span("incremental.ingest", req, || {
                session.ingest_controlled(&batch, cfg.policy, &Control::unlimited())
            })
            .map_err(|e| format!("ingest {id}: {e}"))?;
        if !ingest.applied || ingest.interrupt.is_some() {
            return Err(format!("replica batch {id} not applied cleanly"));
        }
        out.p3.absorb(&session.last_refinement_stats());
        tracer
            .span("checkpoint.log", req, || {
                store.log_batch(session.batches() as u64, &batch, cfg.policy)
            })
            .map_err(|e| format!("log {id}: {e}"))?;
        spool::remove(&StdFs, &spool_dir, id).map_err(|e| e.to_string())?;

        let max_time = batch
            .trajectories()
            .iter()
            .map(|t| t.last().time)
            .fold(f64::NEG_INFINITY, f64::max);
        let target = max_time - window;
        if target.is_finite() && session.watermark().is_none_or(|w| target > w) {
            let exp = tracer
                .span("incremental.expire", req, || session.expire_before(target))
                .map_err(|e| format!("expire: {e}"))?;
            if exp.advanced {
                out.p3.absorb(&session.last_refinement_stats());
                out.expiries += 1;
                out.expired_fragments += exp.expired_fragments as u64;
                out.drift_events += exp.events.len() as u64;
                tracer
                    .span("checkpoint.log", req, || {
                        store.log_expiry(session.batches() as u64, target)
                    })
                    .map_err(|e| format!("log expiry: {e}"))?;
            }
        }
        if (k + 1) % cfg.checkpoint_every_batches.max(1) == 0 {
            tracer
                .span("checkpoint.save", req, || session.save_checkpoint(&store))
                .map_err(|e| format!("save: {e}"))?;
        }
        tracer
            .span("incremental.refine", req, || session.current_clusters())
            .map_err(|e| format!("refine probe: {e}"))?;
    }
    out.session = session_digest(&session);
    out.retained_flows = session.flow_clusters().len();
    out.live_fragments = session.live_fragments();
    Ok(out)
}

fn traced(
    shape: &Shape,
    opts: &Opts,
    net: &RoadNetwork,
    batches: &[(String, Vec<u8>)],
    res: &mut RunResult,
) -> Result<(), String> {
    // Untraced and traced runs of the real service: their ratio is the
    // tracing overhead, and the traced one counts every file operation.
    let dir = opts.work.join("plain");
    fresh_dir(&dir)?;
    let plain = replay(
        StdFs,
        net,
        &svc_config(&dir, shape, opts.scale),
        batches,
        None,
    )?;
    let _ = std::fs::remove_dir_all(&dir);

    let tracer = Tracer::new();
    let dir = opts.work.join("traced");
    fresh_dir(&dir)?;
    let fs = TracedFs::new(StdFs);
    let cfg = svc_config(&dir, shape, opts.scale);
    let svc_run = replay(fs.clone(), net, &cfg, batches, Some(&tracer))?;
    let _ = std::fs::remove_dir_all(&dir);

    let dir = opts.work.join("replica");
    fresh_dir(&dir)?;
    let rep = replica(&dir, net, &cfg, batches, &tracer)?;
    let _ = std::fs::remove_dir_all(&dir);

    res.attempted = 3 * batches.len() as u64;
    res.failed = plain.failed + svc_run.failed;
    res.check(
        "traced replica state equals the service's",
        rep.session == svc_run.session && svc_run.session == plain.session,
        format!(
            "replica {:016x}, traced service {:016x}, service {:016x}",
            rep.session, svc_run.session, plain.session
        ),
    );
    res.check(
        "every batch applied, none degraded",
        res.failed == 0,
        format!("{} failed", res.failed),
    );

    let spans = tracer.spans();
    let warm = shape.warm as u64;
    let median_ms = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && s.req >= warm)
            .map(|s| s.secs() * 1e3)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let total_s = |name: &str| trace::durations(&spans, name).iter().sum::<f64>();
    res.set("phase1.busy_s", total_s("phase1"));
    res.set("phase2.busy_s", total_s("phase2"));
    res.set("phase3.busy_s", total_s("incremental.refine"));
    res.set("phase1.samples_scanned", rep.samples as f64);
    res.set("phase1.fragments", rep.fragments as f64);
    res.set("phase1.base_clusters", rep.base_clusters as f64);
    res.set("phase2.flows_kept", rep.flows_kept as f64);
    res.set("phase2.flows_discarded", rep.flows_discarded as f64);
    crate::set_phase3_counters(res, &rep.p3);
    res.set("incremental.ingest_ms", median_ms("incremental.ingest"));
    res.set("incremental.expire_ms", median_ms("incremental.expire"));
    res.set("incremental.refine_ms", median_ms("incremental.refine"));
    res.set("incremental.retained_flows", rep.retained_flows as f64);
    res.set("incremental.live_fragments", rep.live_fragments as f64);
    res.set("retention.expiries", rep.expiries as f64);
    res.set("retention.expired_fragments", rep.expired_fragments as f64);
    res.set("retention.drift_events", rep.drift_events as f64);
    res.set("checkpoint.log_ms", median_ms("checkpoint.log"));
    res.set("checkpoint.save_ms", median_ms("checkpoint.save"));
    res.set("checkpoint.saves", svc_run.checkpoints as f64);
    res.set("spool.load_ms", median_ms("spool.load"));
    set_fs_counters(res, &fs, svc_run.state_bytes);
    let (plain_s, traced_s): (f64, f64) = (plain.ticks.iter().sum(), svc_run.ticks.iter().sum());
    res.set("trace.overhead_ratio", traced_s / plain_s);
    crate::zero_unreached(res);
    crate::write_trace(opts, res, &spans);
    Ok(())
}

/// Sets the `fs.*` metrics from a traced file system.
pub fn set_fs_counters<F: Fs>(res: &mut RunResult, fs: &TracedFs<F>, state_bytes: u64) {
    let c = fs.stats().counts();
    res.set("fs.busy_ms", c.busy_ns as f64 / 1e6);
    res.set("fs.writes", c.writes as f64);
    res.set("fs.appends", c.appends as f64);
    res.set("fs.renames", c.renames as f64);
    res.set("fs.removes", c.removes as f64);
    res.set("fs.dir_syncs", c.dir_syncs as f64);
    res.set("fs.bytes_written", c.bytes_written as f64);
    res.set("fs.bytes_read", c.bytes_read as f64);
    res.set("fs.state_mb", state_bytes as f64 / 1e6);
}
