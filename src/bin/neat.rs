//! `neat` — command-line interface to the NEAT reproduction.
//!
//! Subcommands:
//!
//! ```text
//! neat gen-network --map atl|sj|mia | --grid RxC   [--seed N] --out net.txt
//! neat simulate    --network net.txt --objects N   [--seed N] [--hotspots H]
//!                  [--destinations D] [--period S]
//!                  [--faults dropout=0.05,dup=0.02,...] --out data.csv
//! neat cluster     --network net.txt --dataset data.csv
//!                  [--mode base|flow|opt] [--min-card N] [--epsilon M]
//!                  [--weights q,k,v] [--beta B] [--no-elb] [--full-route]
//!                  [--on-error fail|skip|repair] [--quarantine FILE]
//!                  [--quarantine-max-bytes N]
//!                  [--deadline DUR] [--max-ops N] [--max-settled-nodes N]
//!                  [--max-clusters N] [--on-overrun fail|degrade|partial]
//!                  [--threads N] [--trace] [--svg out.svg] [--json out.json]
//!                  [--checkpoint-dir DIR] [--checkpoint-every N]
//!                  [--batches N] [--resume]
//! neat stats       --network net.txt [--dataset data.csv]
//! neat serve       --network net.txt --spool DIR --state DIR [...]
//! ```
//!
//! `neat serve` runs the supervised streaming service (`neatd` is the
//! same loop as a standalone binary): batches renamed into `--spool`
//! are clustered incrementally, journaled and checkpointed into
//! `--state`, and shed/poison batches are quarantined. Exit codes:
//! 0 = clean, 3 = degraded-but-served, 4 = unrecoverable.
//!
//! With `--checkpoint-dir` the dataset is split into `--batches` time
//! windows and clustered incrementally; after every `--checkpoint-every`
//! batches a durable snapshot is written and each applied batch is
//! journaled, so a killed run restarted with `--resume` continues from
//! the last acknowledged batch and produces the same clusters as an
//! uninterrupted run. All file outputs are written atomically
//! (temp file + rename), so a crash never leaves a half-written artifact.
//!
//! With a budget flag (`--deadline`, `--max-ops`, `--max-settled-nodes`,
//! `--max-clusters`) the run is executed under cooperative execution
//! control: on overrun it degrades along the ladder documented in
//! DESIGN.md §11 instead of aborting. Exit codes: 0 = complete,
//! 3 = degraded/partial result delivered, 1 = error. `--on-overrun fail`
//! turns an overrun into a hard error instead.
//!
//! With `--threads N` phase-1 fragment extraction fans out across `N`
//! workers (phases 2 and 3 run on the calling thread, so `--full-route`
//! phase 3 does not speed up with `N`); the output is
//! bit-identical to a sequential run for any `N`, budgets included.
//! `--threads 0` resolves to one worker per hardware thread — that
//! resolution happens only here in the binary, never in library code.
//!
//! Everything is deterministic under `--seed` (default 42).

use neat_repro::cli::{parse, parse_duration_ms, parse_flags, required};
use neat_repro::durability::{write_atomic_std, StdFs};
use neat_repro::mobisim::faults::{inject_faults, FaultConfig};
use neat_repro::mobisim::{generate_dataset, SimConfig};
use neat_repro::neat::{
    CheckpointError, CheckpointStore, ErrorPolicy, IncrementalNeat, Mode, Neat, NeatConfig,
    Outcome, Weights,
};
use neat_repro::rnet::netgen::{generate_grid_network, GridNetworkConfig, MapPreset};
use neat_repro::rnet::{io as netio, RoadNetwork};
use neat_repro::runctl::{CancelToken, Control, OverrunMode, RunBudget, SystemClock};
use neat_repro::traj::sanitize::{
    save_quarantine, save_quarantine_capped, SanitizeOutput, Sanitizer,
};
use neat_repro::traj::{io as trajio, Dataset};
use neat_repro::viz::render;
use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;

/// Exit code for a run that finished but delivered a degraded or partial
/// result because a budget or deadline was exhausted.
const EXIT_DEGRADED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  neat gen-network (--map atl|sj|mia | --grid RxC) [--seed N] --out FILE
  neat simulate    --network FILE --objects N [--seed N] [--hotspots H]
                   [--destinations D] [--period S]
                   [--faults dropout=R,dup=R,reorder=R,teleport=R,truncate=R]
                   --out FILE
  neat cluster     --network FILE --dataset FILE [--mode base|flow|opt]
                   [--min-card N] [--epsilon M] [--weights q,k,v]
                   [--beta B] [--no-elb] [--full-route] [--trace]
                   [--on-error fail|skip|repair] [--quarantine FILE]
                   [--quarantine-max-bytes N]
                   [--deadline DUR] [--max-ops N] [--max-settled-nodes N]
                   [--max-clusters N] [--on-overrun fail|degrade|partial]
                   [--threads N (0 = one per hardware thread)]
                   [--svg FILE] [--json FILE]
                   [--checkpoint-dir DIR] [--checkpoint-every N]
                   [--batches N] [--resume]
  neat stats       --network FILE [--dataset FILE]
  neat push        --addr HOST:PORT --tenant NAME
                   (--dataset FILE [--batch-id ID] | --status | --drain)
                   [--retries N] [--retry-base DUR] [--retry-max DUR]
                   [--max-elapsed DUR] [--timeout DUR] [--seed N]
  neat serve       --network FILE --spool DIR --state DIR [--quarantine DIR]
                   [--listen HOST:PORT] [--max-tenants N] [--push-ticks N]
                   [--max-conns N] [--idle-timeout DUR] [--read-timeout DUR]
                   [--drain] [--max-ticks N] [--poll-ms N] [--seed N]
                   [--queue-cap N] [--shed-backlog N]
                   [--checkpoint-every N] [--checkpoint-ops N]
                   [--batch-max-ops N] [--batch-deadline DUR]
                   [--on-error fail|skip|repair] [--min-card N] [--epsilon M]
                   [--poison-after N] [--max-restarts N]";

fn load_network(path: &str) -> Result<RoadNetwork, String> {
    let f = File::open(path).map_err(|e| format!("cannot open network `{path}`: {e}"))?;
    netio::read_network(BufReader::new(f)).map_err(|e| format!("cannot read network: {e}"))
}

fn load_dataset(path: &str) -> Result<Dataset, String> {
    let f = File::open(path).map_err(|e| format!("cannot open dataset `{path}`: {e}"))?;
    trajio::read_dataset(path, BufReader::new(f)).map_err(|e| format!("cannot read dataset: {e}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args.split_first().ok_or("no subcommand given")?;
    let flags = parse_flags(rest)?;
    match cmd.as_str() {
        "gen-network" => gen_network(&flags).map(|()| ExitCode::SUCCESS),
        "simulate" => simulate(&flags).map(|()| ExitCode::SUCCESS),
        "cluster" => cluster(&flags),
        "stats" => stats(&flags).map(|()| ExitCode::SUCCESS),
        "push" => neat_repro::push::push(&flags),
        "serve" => neat_repro::serve::serve(&flags),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// What `--on-overrun` asks for when a budget is exhausted.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OverrunPolicy {
    /// Treat an overrun as a hard error (exit 1).
    Fail,
    /// Walk the degradation ladder (default; exit 3 when it triggers).
    Degrade,
    /// Stop immediately with the best result so far (exit 3).
    Partial,
}

/// Builds the execution [`Control`] from the budget flags, or `None`
/// when no budget flag was given (the run then gets an unlimited
/// control, which is bit-identical to a free run).
fn build_control(
    flags: &HashMap<String, String>,
) -> Result<Option<(Control, OverrunPolicy)>, String> {
    let budget_flags = [
        "deadline",
        "max-ops",
        "max-settled-nodes",
        "max-clusters",
        "on-overrun",
    ];
    if !budget_flags.iter().any(|k| flags.contains_key(*k)) {
        return Ok(None);
    }
    let mut budget = RunBudget::unlimited();
    if let Some(spec) = flags.get("deadline") {
        budget = budget.with_deadline_ms(parse_duration_ms(spec)?);
    }
    if flags.contains_key("max-ops") {
        budget = budget.with_max_ops(parse(flags, "max-ops", u64::MAX)?);
    }
    if flags.contains_key("max-settled-nodes") {
        budget = budget.with_max_settled_nodes(parse(flags, "max-settled-nodes", u64::MAX)?);
    }
    if flags.contains_key("max-clusters") {
        budget = budget.with_max_clusters(parse(flags, "max-clusters", usize::MAX)?);
    }
    let policy = match flags
        .get("on-overrun")
        .map(String::as_str)
        .unwrap_or("degrade")
    {
        "fail" => OverrunPolicy::Fail,
        "degrade" => OverrunPolicy::Degrade,
        "partial" => OverrunPolicy::Partial,
        other => {
            return Err(format!(
                "unknown --on-overrun `{other}` (fail|degrade|partial)"
            ))
        }
    };
    let overrun = match policy {
        OverrunPolicy::Partial => OverrunMode::Partial,
        _ => OverrunMode::Degrade,
    };
    let ctl = Control::new(budget, CancelToken::new())
        .with_clock(Arc::new(SystemClock::new()))
        .with_overrun(overrun);
    Ok(Some((ctl, policy)))
}

/// JSON fields describing a controlled run's outcome.
fn outcome_json(out: &Outcome) -> serde_json::Value {
    serde_json::json!({
        "completeness": serde_json::json!({
            "phase1": out.completeness.phase1.label(),
            "phase2": out.completeness.phase2.label(),
            "phase3": out.completeness.phase3.label(),
        }),
        "degradation": serde_json::json!({
            "requested": out.degradation.requested.name(),
            "delivered": out.degradation.delivered.name(),
            "steps": out.degradation.steps.iter()
                .map(|s| s.label()).collect::<Vec<_>>(),
        }),
        "interrupt": out.interrupt.map(|i| i.name()),
    })
}

fn gen_network(flags: &HashMap<String, String>) -> Result<(), String> {
    let seed: u64 = parse(flags, "seed", 42)?;
    let net = match (flags.get("map"), flags.get("grid")) {
        (Some(map), None) => {
            let preset = match map.to_lowercase().as_str() {
                "atl" | "atlanta" => MapPreset::Atlanta,
                "sj" | "sanjose" | "san-jose" => MapPreset::SanJose,
                "mia" | "miami" => MapPreset::Miami,
                other => return Err(format!("unknown map `{other}` (atl|sj|mia)")),
            };
            preset.generate(seed)
        }
        (None, Some(grid)) => {
            let (r, c) = grid
                .split_once(['x', 'X'])
                .ok_or_else(|| format!("--grid expects RxC, got `{grid}`"))?;
            let rows: usize = r.parse().map_err(|_| format!("bad rows `{r}`"))?;
            let cols: usize = c.parse().map_err(|_| format!("bad cols `{c}`"))?;
            generate_grid_network(&GridNetworkConfig::small_test(rows, cols), seed)
        }
        _ => return Err("give exactly one of --map or --grid".into()),
    };
    let out = required(flags, "out")?;
    let mut buf = Vec::new();
    netio::write_network(&net, &mut buf).map_err(|e| e.to_string())?;
    write_atomic_std(out.as_ref(), &buf).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    let s = net.stats();
    println!(
        "wrote {out}: {} junctions, {} segments, {:.1} km",
        s.junctions, s.segments, s.total_length_km
    );
    Ok(())
}

fn simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let net = load_network(required(flags, "network")?)?;
    let config = SimConfig {
        num_objects: parse(flags, "objects", 100)?,
        num_hotspots: parse(flags, "hotspots", 2)?,
        num_destinations: parse(flags, "destinations", 3)?,
        sample_period_s: parse(flags, "period", 3.0)?,
        ..SimConfig::default()
    };
    let seed: u64 = parse(flags, "seed", 42)?;
    let data = generate_dataset(&net, &config, seed, "cli");
    let out = required(flags, "out")?;
    match flags.get("faults") {
        None => {
            let mut buf = Vec::new();
            trajio::write_dataset(&data, &mut buf).map_err(|e| e.to_string())?;
            write_atomic_std(out.as_ref(), &buf)
                .map_err(|e| format!("cannot write `{out}`: {e}"))?;
            println!(
                "wrote {out}: {} trajectories, {} points",
                data.len(),
                data.total_points()
            );
        }
        Some(spec) => {
            let fault_config = FaultConfig::parse(spec)?;
            let (fixes, log) = inject_faults(&data, &fault_config, seed);
            let mut buf = Vec::new();
            trajio::write_raw_fixes(data.name(), &fixes, &mut buf).map_err(|e| e.to_string())?;
            write_atomic_std(out.as_ref(), &buf)
                .map_err(|e| format!("cannot write `{out}`: {e}"))?;
            println!(
                "wrote {out}: {} trajectories, {} fixes (faulted)",
                data.len(),
                fixes.len()
            );
            println!("faults: {}", log.digest());
        }
    }
    Ok(())
}

/// Loads the dataset for `cluster` under the active policy: `fail` uses
/// the legacy strict reader path; `skip`/`repair` read leniently and
/// sanitize, reporting what was done.
fn load_sanitized(path: &str, policy: ErrorPolicy) -> Result<SanitizeOutput, String> {
    let f = File::open(path).map_err(|e| format!("cannot open dataset `{path}`: {e}"))?;
    Sanitizer::with_policy(policy)
        .read(path, BufReader::new(f))
        .map_err(|e| format!("cannot read dataset: {e}"))
}

fn cluster(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let net = load_network(required(flags, "network")?)?;
    let policy: ErrorPolicy = parse(flags, "on-error", ErrorPolicy::Strict)?;
    let sanitized = load_sanitized(required(flags, "dataset")?, policy)?;
    if !sanitized.summary.is_clean() {
        println!("sanitize: {}", sanitized.summary.digest());
    }
    if let Some(qpath) = flags.get("quarantine") {
        if flags.contains_key("quarantine-max-bytes") {
            let cap: usize = parse(flags, "quarantine-max-bytes", usize::MAX)?;
            let report = save_quarantine_capped(&sanitized.quarantined, qpath, Some(cap))
                .map_err(|e| format!("cannot write `{qpath}`: {e}"))?;
            println!(
                "wrote {qpath}: {} quarantined trajectories ({} dropped by \
                 --quarantine-max-bytes, {} bytes)",
                report.written, report.dropped, report.bytes
            );
        } else {
            save_quarantine(&sanitized.quarantined, qpath)
                .map_err(|e| format!("cannot write `{qpath}`: {e}"))?;
            println!(
                "wrote {qpath}: {} quarantined trajectories",
                sanitized.quarantined.len()
            );
        }
    }
    let data = sanitized.dataset;
    let mode = match flags.get("mode").map(String::as_str).unwrap_or("opt") {
        "base" => Mode::Base,
        "flow" => Mode::Flow,
        "opt" => Mode::Opt,
        other => return Err(format!("unknown mode `{other}` (base|flow|opt)")),
    };
    let weights = match flags.get("weights") {
        None => Weights::balanced(),
        Some(spec) => {
            let parts: Vec<&str> = spec.split(',').collect();
            if parts.len() != 3 {
                return Err(format!("--weights expects q,k,v — got `{spec}`"));
            }
            let p = |s: &str| -> Result<f64, String> {
                s.parse().map_err(|_| format!("bad weight `{s}`"))
            };
            Weights::new(p(parts[0])?, p(parts[1])?, p(parts[2])?).map_err(|e| e.to_string())?
        }
    };
    // `--threads 0` means "one worker per hardware thread". The machine
    // is consulted only here, in the binary: library crates take the
    // resolved count as plain config, so clustering output never depends
    // on the host (and is bit-identical for any thread count anyway).
    let threads = match parse(flags, "threads", 1)? {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        t => t,
    };
    let config = NeatConfig {
        weights,
        min_card: parse(flags, "min-card", 5)?,
        epsilon: parse(flags, "epsilon", 6500.0)?,
        beta: parse(flags, "beta", f64::INFINITY)?,
        use_elb: !flags.contains_key("no-elb"),
        threads,
        route_distance: if flags.contains_key("full-route") {
            neat_repro::neat::RouteDistance::FullRoute
        } else {
            neat_repro::neat::RouteDistance::Endpoints
        },
        ..NeatConfig::default()
    };
    if flags.contains_key("resume") && !flags.contains_key("checkpoint-dir") {
        return Err("--resume requires --checkpoint-dir".into());
    }
    let control = build_control(flags)?;
    if let Some(dir) = flags.get("checkpoint-dir") {
        if mode == Mode::Base {
            return Err("--checkpoint-dir needs --mode flow or opt (incremental \
                        clustering maintains flow clusters)"
                .into());
        }
        if control.is_some() {
            return Err("budget flags (--deadline/--max-ops/--max-settled-nodes/\
                        --max-clusters/--on-overrun) are not supported with \
                        --checkpoint-dir; bound each batch by splitting into more \
                        --batches instead"
                .into());
        }
        return cluster_checkpointed(&net, &data, mode, config, policy, flags, dir)
            .map(|()| ExitCode::SUCCESS);
    }
    if flags.contains_key("trace") && mode != Mode::Base {
        // Re-run phases 1–2 with tracing to print the merge decisions.
        let (p1, _) = neat_repro::neat::phase1::form_base_clusters_parallel_with_policy(
            &net,
            &data,
            config.insert_junctions,
            1,
            policy,
        )
        .map_err(|e| e.to_string())?;
        let mut trace = Some(Vec::new());
        let _ = neat_repro::neat::phase2::form_flow_clusters_traced(
            &net,
            p1.base_clusters,
            &config,
            &mut trace,
        )
        .map_err(|e| e.to_string())?;
        println!("phase-2 merge trace:");
        for e in trace.expect("collected") {
            println!("  {e:?}");
        }
    }
    // Without budget flags the run is free: an unlimited control never
    // fires, and the JSON carries no outcome fields.
    let budgeted = control.is_some();
    let (ctl, overrun_policy) =
        control.unwrap_or_else(|| (Control::unlimited(), OverrunPolicy::Degrade));
    let out = Neat::new(&net, config)
        .run_controlled(&data, mode, policy, &ctl)
        .map_err(|e| e.to_string())?;
    let exit = match out.interrupt {
        None => ExitCode::SUCCESS,
        Some(i) => {
            if overrun_policy == OverrunPolicy::Fail {
                return Err(format!("run interrupted: {} (--on-overrun fail)", i.name()));
            }
            println!(
                "overrun: {} — delivered {} (requested {})",
                i.name(),
                out.degradation.delivered.name(),
                out.degradation.requested.name()
            );
            for step in &out.degradation.steps {
                println!("  degradation: {}", step.label());
            }
            ExitCode::from(EXIT_DEGRADED)
        }
    };
    let outcome_meta = budgeted.then(|| outcome_json(&out));
    let result = out.result;
    print!("{}", result.summary(&net));
    if mode != Mode::Base {
        for (i, f) in result.flow_clusters.iter().enumerate() {
            println!(
                "  flow {i}: {} segments, {:.0} m, {} trajectories",
                f.members().len(),
                f.route_length(&net),
                f.trajectory_cardinality()
            );
        }
    }
    if mode == Mode::Opt {
        for (i, c) in result.clusters.iter().enumerate() {
            println!(
                "  cluster {i}: {} flows, {} trajectories, {:.1} km",
                c.flows().len(),
                c.trajectory_cardinality(),
                c.total_route_length(&net) / 1000.0
            );
        }
    }
    if let Some(json_path) = flags.get("json") {
        // Machine-readable result: flow clusters and final clusters with
        // their routes and participating trajectories. `mode` is the
        // *delivered* mode — under a budget it may sit below the request.
        let mut doc = serde_json::json!({
            "mode": result.mode.name(),
            "fragment_count": result.fragment_count,
            "base_cluster_count": result.base_cluster_count,
            "flow_clusters": result.flow_clusters.iter().map(|f| {
                serde_json::json!({
                    "route": f.route().iter().map(|s| s.index()).collect::<Vec<_>>(),
                    "trajectories": f.participating_trajectories().iter()
                        .map(|t| t.value()).collect::<Vec<_>>(),
                    "route_length_m": f.route_length(&net),
                    "density": f.density(),
                })
            }).collect::<Vec<_>>(),
            "clusters": result.clusters.iter().map(|c| {
                serde_json::json!({
                    "flows": c.flows().len(),
                    "trajectory_cardinality": c.trajectory_cardinality(),
                    "total_route_length_m": c.total_route_length(&net),
                })
            }).collect::<Vec<_>>(),
        });
        if let Some(serde_json::Value::Object(meta_fields)) = &outcome_meta {
            if let serde_json::Value::Object(fields) = &mut doc {
                fields.extend(meta_fields.iter().cloned());
            }
        }
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        write_atomic_std(json_path.as_ref(), text.as_bytes())
            .map_err(|e| format!("cannot write json: {e}"))?;
        println!("wrote {json_path}");
    }
    if let Some(svg_path) = flags.get("svg") {
        let svg = match mode {
            Mode::Base => render::render_dataset(&net, &data),
            Mode::Flow => render::render_flow_clusters(&net, &result.flow_clusters),
            Mode::Opt => render::render_trajectory_clusters(&net, &result.clusters),
        };
        write_atomic_std(svg_path.as_ref(), svg.as_bytes())
            .map_err(|e| format!("cannot write svg: {e}"))?;
        println!("wrote {svg_path}");
    }
    Ok(exit)
}

/// Incremental, crash-safe variant of `cluster`: the dataset is split
/// into `--batches` time windows which are ingested one by one, each
/// applied batch is journaled and a durable snapshot is written every
/// `--checkpoint-every` batches (and at the end). A run killed part-way
/// restarts with `--resume`, skips the batches already acknowledged by
/// the checkpoint and produces the same clusters as an uninterrupted run.
fn cluster_checkpointed(
    net: &RoadNetwork,
    data: &Dataset,
    mode: Mode,
    config: NeatConfig,
    policy: ErrorPolicy,
    flags: &HashMap<String, String>,
    dir: &str,
) -> Result<(), String> {
    let every: usize = parse(flags, "checkpoint-every", 1)?;
    if every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    let batches: usize = parse(flags, "batches", 4)?;
    if batches == 0 {
        return Err("--batches must be at least 1".into());
    }
    let store = CheckpointStore::open(StdFs, dir)
        .map_err(|e| format!("cannot open checkpoint dir `{dir}`: {e}"))?;
    let mut session = if flags.contains_key("resume") {
        match IncrementalNeat::resume(net, config, &store) {
            Ok((session, report)) => {
                println!(
                    "resumed from {dir}: snapshot at batch {}, {} journaled batch(es) replayed",
                    report
                        .snapshot_seq
                        .map_or_else(|| "none".to_string(), |s| s.to_string()),
                    report.replayed_batches
                );
                for (name, why) in &report.rejected_snapshots {
                    println!("  note: snapshot {name} rejected ({why}); used an older one");
                }
                if report.torn_tail_bytes > 0 {
                    println!(
                        "  note: dropped {} byte(s) of a journal append torn by the crash",
                        report.torn_tail_bytes
                    );
                }
                session
            }
            Err(CheckpointError::NoCheckpoint { .. }) => {
                println!("nothing to resume in {dir}; starting fresh");
                IncrementalNeat::new(net, config)
            }
            Err(e) => return Err(format!("cannot resume from `{dir}`: {e}")),
        }
    } else {
        IncrementalNeat::new(net, config)
    };
    let windows = data.split_windows(batches);
    let done = session.batches();
    if done > windows.len() {
        return Err(format!(
            "checkpoint in `{dir}` already covers {done} batches but the dataset \
             splits into only {}; re-run with the original --batches value",
            windows.len()
        ));
    }
    if done > 0 {
        println!("skipping {done} already-applied batch(es)");
    }
    for window in windows.iter().skip(done) {
        let seq = session.batches() + 1;
        session
            .ingest_logged(window, policy, &store)
            .map_err(|e| format!("batch {seq} failed: {e}"))?;
        if session.batches() % every == 0 {
            session
                .save_checkpoint(&store)
                .map_err(|e| format!("checkpoint after batch {seq} failed: {e}"))?;
        }
    }
    session
        .save_checkpoint(&store)
        .map_err(|e| format!("final checkpoint failed: {e}"))?;
    let flows = session.flow_clusters();
    let clusters = session.current_clusters().map_err(|e| e.to_string())?;
    let r = session.resilience();
    println!(
        "{} batch(es) clustered incrementally: {} flow clusters, {} trajectory clusters",
        session.batches(),
        flows.len(),
        clusters.len()
    );
    if r.skipped > 0 || r.repaired > 0 {
        println!(
            "  resilience: {} skipped, {} repaired trajectories",
            r.skipped, r.repaired
        );
    }
    for (i, f) in flows.iter().enumerate() {
        println!(
            "  flow {i}: {} segments, {:.0} m, {} trajectories",
            f.members().len(),
            f.route_length(net),
            f.trajectory_cardinality()
        );
    }
    if mode == Mode::Opt {
        for (i, c) in clusters.iter().enumerate() {
            println!(
                "  cluster {i}: {} flows, {} trajectories, {:.1} km",
                c.flows().len(),
                c.trajectory_cardinality(),
                c.total_route_length(net) / 1000.0
            );
        }
    }
    if let Some(json_path) = flags.get("json") {
        let doc = serde_json::json!({
            "mode": mode.name(),
            "incremental": true,
            "batches": session.batches(),
            "flow_clusters": flows.iter().map(|f| {
                serde_json::json!({
                    "route": f.route().iter().map(|s| s.index()).collect::<Vec<_>>(),
                    "trajectories": f.participating_trajectories().iter()
                        .map(|t| t.value()).collect::<Vec<_>>(),
                    "route_length_m": f.route_length(net),
                    "density": f.density(),
                })
            }).collect::<Vec<_>>(),
            "clusters": clusters.iter().map(|c| {
                serde_json::json!({
                    "flows": c.flows().len(),
                    "trajectory_cardinality": c.trajectory_cardinality(),
                    "total_route_length_m": c.total_route_length(net),
                })
            }).collect::<Vec<_>>(),
        });
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        write_atomic_std(json_path.as_ref(), text.as_bytes())
            .map_err(|e| format!("cannot write json: {e}"))?;
        println!("wrote {json_path}");
    }
    if let Some(svg_path) = flags.get("svg") {
        let svg = match mode {
            Mode::Flow => render::render_flow_clusters(net, flows),
            _ => render::render_trajectory_clusters(net, &clusters),
        };
        write_atomic_std(svg_path.as_ref(), svg.as_bytes())
            .map_err(|e| format!("cannot write svg: {e}"))?;
        println!("wrote {svg_path}");
    }
    Ok(())
}

fn stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let net = load_network(required(flags, "network")?)?;
    let s = net.stats();
    println!(
        "network: {} junctions, {} segments, {:.1} km total, avg segment {:.1} m, \
         degree avg {:.2} / max {}",
        s.junctions,
        s.segments,
        s.total_length_km,
        s.avg_segment_length_m,
        s.avg_degree,
        s.max_degree
    );
    if let Some(path) = flags.get("dataset") {
        let data = load_dataset(path)?;
        let d = data.stats();
        println!(
            "dataset: {} trajectories, {} points, {:.1} points/trajectory, \
             avg duration {:.0} s",
            d.trajectories, d.points, d.avg_points_per_trajectory, d.avg_duration_s
        );
    }
    Ok(())
}
