//! Cancel-point chaos harness for the execution-control layer.
//!
//! The budget-side counterpart of `tests/crash_chaos.rs`: instead of
//! killing disk operations, this harness trips an interrupt at every
//! cooperative check point of a seeded clustering run — cancellation,
//! op-budget exhaustion, and op-budget exhaustion under
//! [`OverrunMode::Partial`] — for every pipeline version (base-, flow-
//! and opt-NEAT), and asserts the execution-control contract:
//!
//! * **No panics, no errors** — every armed run returns `Ok(Outcome)`.
//! * **Valid partial outcome** — the delivered mode never exceeds the
//!   requested one, every surviving flow cluster still satisfies
//!   `minCard` and lies on real road segments, trajectory clusters
//!   partition the flow clusters, and the reported completeness /
//!   degradation agree with the interrupt that fired.
//! * **Deterministic completed prefix** — re-running with the same
//!   arming reproduces the outcome `Debug`-byte for byte.
//! * **Observation is free** — an unlimited [`Control`] is bit-identical
//!   to the uncontrolled [`Neat::run`].
//!
//! The default tests arm *every* check point of a small fixture
//! (exhaustive matrix) and a dense-head-plus-stride sample of a larger
//! one. The `#[ignore]`d matrix does the same on seeded SJ/ATL-style
//! networks (Table I stand-ins) and is run in release by the CI
//! `budget-chaos` job. On any violation the failing cancel-point id is
//! written to `target/chaos-artifacts/` for offline inspection.

use neat_repro::mobisim::{generate_dataset, SimConfig};
use neat_repro::neat::{
    Completeness, ErrorPolicy, IncrementalNeat, Mode, Neat, NeatConfig, NeatResult, Outcome,
};
use neat_repro::rnet::netgen::{generate_grid_network, GridNetworkConfig, MapPreset};
use neat_repro::rnet::RoadNetwork;
use neat_repro::runctl::{CancelToken, CollectingProgress, Control, OverrunMode, RunBudget};
use neat_repro::traj::Dataset;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

const MODES: [Mode; 3] = [Mode::Base, Mode::Flow, Mode::Opt];

/// The two ways the matrix trips an interrupt at check point `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arming {
    /// External cancellation: a [`CancelToken`] fused to trip on the
    /// `n+1`-th poll.
    Cancel,
    /// Budget exhaustion: `max_ops = n`, under the given overrun mode.
    OpBudget(OverrunMode),
}

impl Arming {
    fn control(self, at: u64) -> Control {
        match self {
            Arming::Cancel => Control::new(RunBudget::unlimited(), CancelToken::armed_after(at)),
            Arming::OpBudget(overrun) => {
                Control::new(RunBudget::unlimited().with_max_ops(at), CancelToken::new())
                    .with_overrun(overrun)
            }
        }
    }

    fn label(self) -> &'static str {
        match self {
            Arming::Cancel => "cancel",
            Arming::OpBudget(OverrunMode::Degrade) => "ops-degrade",
            Arming::OpBudget(OverrunMode::Partial) => "ops-partial",
        }
    }
}

/// Tiny fixture whose runs are cheap enough to arm *every* check point.
fn tiny_fixture() -> &'static (RoadNetwork, Dataset) {
    static FIXTURE: OnceLock<(RoadNetwork, Dataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let net = generate_grid_network(&GridNetworkConfig::small_test(3, 3), 11);
        let config = SimConfig {
            num_objects: 6,
            num_hotspots: 2,
            num_destinations: 2,
            sample_period_s: 4.0,
            ..SimConfig::default()
        };
        let data = generate_dataset(&net, &config, 11, "budget-tiny");
        (net, data)
    })
}

/// The `crash_chaos` fixture: same seeds, same network, whole dataset in
/// one window (this harness interrupts compute, not disk).
fn chaos_fixture() -> &'static (RoadNetwork, Dataset) {
    static FIXTURE: OnceLock<(RoadNetwork, Dataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let net = generate_grid_network(&GridNetworkConfig::small_test(4, 4), 7);
        let config = SimConfig {
            num_objects: 18,
            num_hotspots: 2,
            num_destinations: 2,
            sample_period_s: 4.0,
            ..SimConfig::default()
        };
        let data = generate_dataset(&net, &config, 7, "chaos");
        (net, data)
    })
}

fn neat_config() -> NeatConfig {
    NeatConfig {
        min_card: 3,
        epsilon: 600.0,
        ..NeatConfig::default()
    }
}

/// `Debug` fingerprint of everything observable except wall-clock
/// timings (the only field allowed to differ between identical runs).
fn result_fingerprint(r: &NeatResult) -> String {
    format!(
        "mode={:?}\nbase={:#?}\nbase_count={}\nfragments={}\nflows={:#?}\ndiscarded={}\n\
         clusters={:#?}\nstats={:#?}\nresilience={:#?}",
        r.mode,
        r.base_clusters,
        r.base_cluster_count,
        r.fragment_count,
        r.flow_clusters,
        r.discarded_flows,
        r.clusters,
        r.phase3_stats,
        r.resilience,
    )
}

fn outcome_fingerprint(out: &Outcome) -> String {
    format!(
        "{}\ncompleteness={:#?}\ndegradation={:#?}\ninterrupt={:?}",
        result_fingerprint(&out.result),
        out.completeness,
        out.degradation,
        out.interrupt,
    )
}

/// Writes the failing cancel point to `target/chaos-artifacts/` and
/// panics with `msg` (mirrors `crash_chaos::fail_with_artifact`).
fn fail_with_artifact(id: &str, detail: &str, msg: &str) -> ! {
    let dir = PathBuf::from("target/chaos-artifacts");
    let _ = std::fs::create_dir_all(&dir);
    let report = format!("cancel point: {id}\nfailure: {msg}\n\n{detail}\n");
    let file = dir.join(format!(
        "{}.txt",
        id.replace(['{', '}', ' ', ':', ','], "_")
    ));
    let _ = std::fs::write(&file, report);
    panic!("[{id}] {msg} (artifact: {})", file.display());
}

fn mode_rank(mode: Mode) -> u8 {
    match mode {
        Mode::Base => 0,
        Mode::Flow => 1,
        Mode::Opt => 2,
    }
}

/// The validity contract every armed run must satisfy, interrupt or not.
fn check_outcome(id: &str, net: &RoadNetwork, cfg: &NeatConfig, requested: Mode, out: &Outcome) {
    let fail = |msg: &str| -> ! { fail_with_artifact(id, &outcome_fingerprint(out), msg) };

    // The ladder only ever goes down.
    if out.degradation.requested != requested {
        fail("degradation.requested does not echo the requested mode");
    }
    if out.result.mode != out.degradation.delivered {
        fail("result.mode disagrees with degradation.delivered");
    }
    if mode_rank(out.result.mode) > mode_rank(requested) {
        fail("delivered a higher mode than requested");
    }

    // Interrupt bookkeeping: complete ⇔ no interrupt fired.
    match out.interrupt {
        None => {
            if out.completeness != Completeness::complete_for(requested) {
                fail("no interrupt but completeness is not fully complete");
            }
            if out.degradation.is_degraded() || out.result.mode != requested {
                fail("no interrupt but the run degraded");
            }
        }
        Some(_) => {
            if out.completeness.is_complete() {
                fail("interrupt fired but completeness claims complete");
            }
            if !out.degradation.is_degraded() {
                fail("interrupt fired but no degradation step recorded");
            }
        }
    }

    // Every surviving flow cluster is still a valid Definition-8 flow.
    let flows_valid = |flows: &[neat_repro::neat::FlowCluster]| {
        for f in flows {
            if f.trajectory_cardinality() < cfg.min_card {
                fail("flow cluster below minCard survived");
            }
            let route = f.route();
            if route.is_empty() {
                fail("flow cluster with an empty route");
            }
            for s in route {
                if net.segment(s).is_err() {
                    fail("flow cluster references a segment not in the network");
                }
            }
        }
    };
    flows_valid(&out.result.flow_clusters);

    match out.result.mode {
        Mode::Base => {
            if !out.result.flow_clusters.is_empty() || !out.result.clusters.is_empty() {
                fail("base-NEAT outcome carries flow or trajectory clusters");
            }
        }
        Mode::Flow => {
            if !out.result.clusters.is_empty() {
                fail("flow-NEAT outcome carries trajectory clusters");
            }
        }
        Mode::Opt => {
            // Phase 3 (complete, ELB-only or stopped) always partitions
            // the flow clusters; unreached flows become singletons.
            let grouped: usize = out.result.clusters.iter().map(|c| c.flows().len()).sum();
            if grouped != out.result.flow_clusters.len() {
                fail("trajectory clusters do not partition the flow clusters");
            }
            for c in &out.result.clusters {
                if c.flows().is_empty() {
                    fail("empty trajectory cluster");
                }
                flows_valid(c.flows());
            }
        }
    }
}

/// One armed run: must return `Ok`, satisfy the contract, and reproduce
/// itself when re-armed identically.
fn run_armed(
    net: &RoadNetwork,
    data: &Dataset,
    cfg: &NeatConfig,
    mode: Mode,
    arming: Arming,
    at: u64,
) {
    let id = format!("{}-{}-at{at}", mode.name(), arming.label());
    let neat = Neat::new(net, *cfg);
    let run = |neat: &Neat| {
        let ctl = arming.control(at);
        match neat.run_controlled(data, mode, ErrorPolicy::Strict, &ctl) {
            Ok(out) => out,
            Err(e) => fail_with_artifact(&id, "", &format!("armed run errored: {e}")),
        }
    };
    let first = run(&neat);
    check_outcome(&id, net, cfg, mode, &first);
    let second = run(&neat);
    if outcome_fingerprint(&first) != outcome_fingerprint(&second) {
        fail_with_artifact(
            &id,
            &format!(
                "first:\n{}\n\nsecond:\n{}",
                outcome_fingerprint(&first),
                outcome_fingerprint(&second)
            ),
            "completed prefix is not deterministic",
        );
    }
}

/// Total check points of a clean run of `mode`, via an unlimited probe.
fn probe_ops(net: &RoadNetwork, data: &Dataset, cfg: &NeatConfig, mode: Mode) -> u64 {
    let ctl = Control::unlimited();
    let out = Neat::new(net, *cfg)
        .run_controlled(data, mode, ErrorPolicy::Strict, &ctl)
        .expect("probe run");
    assert!(out.is_complete(), "unlimited probe must complete");
    ctl.ops()
}

/// Dense head, stride across the middle, dense tail — plus two points
/// past the end (an interrupt that never fires must be harmless).
fn strided_points(total: u64, cap: u64) -> Vec<u64> {
    if total + 2 <= cap {
        return (0..=total + 2).collect();
    }
    let mut pts: Vec<u64> = (0..16.min(total)).collect();
    let stride = (total / cap).max(1);
    pts.extend((16..total).step_by(stride as usize));
    pts.extend([total.saturating_sub(1), total, total + 1, total + 2]);
    pts.sort_unstable();
    pts.dedup();
    pts
}

/// Exhaustive matrix on the tiny fixture: every check point × every
/// pipeline version × every arming kind.
#[test]
fn every_check_point_of_the_tiny_fixture_survives_interruption() {
    let (net, data) = tiny_fixture();
    let cfg = neat_config();
    for mode in MODES {
        let total = probe_ops(net, data, &cfg, mode);
        for arming in [
            Arming::Cancel,
            Arming::OpBudget(OverrunMode::Degrade),
            Arming::OpBudget(OverrunMode::Partial),
        ] {
            for at in 0..=total + 2 {
                run_armed(net, data, &cfg, mode, arming, at);
            }
        }
    }
}

/// Strided matrix on the `crash_chaos`-sized fixture.
#[test]
fn strided_cancel_matrix_on_the_chaos_fixture() {
    let (net, data) = chaos_fixture();
    let cfg = neat_config();
    for mode in MODES {
        let total = probe_ops(net, data, &cfg, mode);
        for arming in [
            Arming::Cancel,
            Arming::OpBudget(OverrunMode::Degrade),
            Arming::OpBudget(OverrunMode::Partial),
        ] {
            for at in strided_points(total, 48) {
                run_armed(net, data, &cfg, mode, arming, at);
            }
        }
    }
}

/// The settled-node budget interrupts mid-Dijkstra; the outcome must be
/// just as valid as any other truncation.
#[test]
fn settled_node_budget_truncates_to_a_valid_outcome() {
    let (net, data) = chaos_fixture();
    let cfg = neat_config();
    let neat = Neat::new(net, cfg);
    for cap in [0u64, 1, 7, 64, 512] {
        let id = format!("opt-NEAT-settled-at{cap}");
        let ctl = Control::new(
            RunBudget::unlimited().with_max_settled_nodes(cap),
            CancelToken::new(),
        );
        let out = neat
            .run_controlled(data, Mode::Opt, ErrorPolicy::Strict, &ctl)
            .unwrap_or_else(|e| fail_with_artifact(&id, "", &format!("errored: {e}")));
        check_outcome(&id, net, &cfg, Mode::Opt, &out);
    }
}

/// Infinite-budget acceptance: an unlimited `Control` is bit-identical
/// to the uncontrolled pipeline on the chaos fixture, in every mode.
#[test]
fn unlimited_control_matches_the_free_run_on_the_chaos_fixture() {
    let (net, data) = chaos_fixture();
    let cfg = neat_config();
    let neat = Neat::new(net, cfg);
    for mode in MODES {
        let free = neat.run(data, mode).expect("free run");
        let ctl = Control::unlimited();
        let out = neat
            .run_controlled(data, mode, ErrorPolicy::Strict, &ctl)
            .expect("controlled run");
        assert_eq!(
            result_fingerprint(&free),
            result_fingerprint(&out.result),
            "unlimited control changed the {} result",
            mode.name()
        );
        assert!(out.is_complete());
    }
}

/// Streaming output equals batch output for one batch: under every op
/// budget, in `Degrade` and `Partial` overrun modes, a fresh
/// [`IncrementalNeat`] ingesting the chaos fixture as its only batch
/// reports the same completeness, degradation and interrupt as opt-NEAT
/// on it, applies the batch exactly when opt-NEAT was delivered, then
/// returns the same clusters, and its progress observer sees the same
/// events.
#[test]
fn one_batch_stream_matches_batch_opt_neat_under_every_op_budget() {
    let (net, data) = chaos_fixture();
    let cfg = neat_config();
    let total = probe_ops(net, data, &cfg, Mode::Opt);
    for overrun in [OverrunMode::Degrade, OverrunMode::Partial] {
        for at in 0..=total + 1 {
            let armed = || {
                let events = Arc::new(CollectingProgress::new());
                let ctl = Control::new(RunBudget::unlimited().with_max_ops(at), CancelToken::new())
                    .with_overrun(overrun)
                    .with_progress(events.clone());
                (ctl, events)
            };
            let id = format!("{overrun:?} max_ops={at}");
            let (ctl, batch_events) = armed();
            let batch = Neat::new(net, cfg)
                .run_controlled(data, Mode::Opt, ErrorPolicy::Strict, &ctl)
                .expect("batch run");
            let (ctl, stream_events) = armed();
            let stream = IncrementalNeat::new(net, cfg)
                .ingest_controlled(data, ErrorPolicy::Strict, &ctl)
                .expect("streamed batch");
            assert_eq!(stream.completeness, batch.completeness, "{id}");
            assert_eq!(stream.degradation, batch.degradation, "{id}");
            assert_eq!(stream.interrupt, batch.interrupt, "{id}");
            assert_eq!(stream.applied, batch.result.mode == Mode::Opt, "{id}");
            if stream.applied {
                assert_eq!(stream.clusters, batch.result.clusters, "{id}");
            }
            assert_eq!(stream_events.events(), batch_events.events(), "{id}");
        }
    }
}

/// Release-only matrix on the seeded SJ/ATL-style stand-in networks of
/// Table I — run by the CI `budget-chaos` job via `-- --ignored`.
#[test]
#[ignore = "heavy: run in release via the CI budget-chaos job"]
fn cancel_matrix_on_paper_style_networks() {
    for preset in [MapPreset::Atlanta, MapPreset::SanJose] {
        let net = preset.generate(7);
        let config = SimConfig {
            num_objects: 8,
            num_hotspots: 2,
            num_destinations: 2,
            sample_period_s: 4.0,
            ..SimConfig::default()
        };
        let data = generate_dataset(&net, &config, 7, preset.code());
        let cfg = NeatConfig {
            min_card: 3,
            ..NeatConfig::default()
        };
        for mode in MODES {
            let total = probe_ops(&net, &data, &cfg, mode);
            for arming in [Arming::Cancel, Arming::OpBudget(OverrunMode::Degrade)] {
                for at in strided_points(total, 24) {
                    run_armed(&net, &data, &cfg, mode, arming, at);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary arming never panics: any cancel point, any mode, any
    /// arming kind yields `Ok(Outcome)` satisfying the full contract.
    #[test]
    fn prop_arbitrary_arming_yields_a_valid_outcome(
        at in 0u64..4096,
        mode_ix in 0usize..3,
        kind in 0usize..3,
    ) {
        let (net, data) = tiny_fixture();
        let cfg = neat_config();
        let mode = MODES[mode_ix];
        let arming = match kind {
            0 => Arming::Cancel,
            1 => Arming::OpBudget(OverrunMode::Degrade),
            _ => Arming::OpBudget(OverrunMode::Partial),
        };
        run_armed(net, data, &cfg, mode, arming, at);
    }
}
