//! Regression: resuming from a checkpoint mid-stream must be
//! observationally identical to running straight through — for the flow
//! clusters (flow-NEAT) and the refined trajectory clusters (opt-NEAT)
//! alike, on a seeded mobisim dataset, across interruption points and
//! configurations.

use neat_repro::durability::MemFs;
use neat_repro::mobisim::{generate_dataset, SimConfig};
use neat_repro::neat::{CheckpointStore, ErrorPolicy, IncrementalNeat, NeatConfig, RouteDistance};
use neat_repro::rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_repro::rnet::RoadNetwork;
use neat_repro::runctl::Control;
use neat_repro::traj::Dataset;

const BATCHES: usize = 4;

fn fixture(seed: u64) -> (RoadNetwork, Vec<Dataset>) {
    sized_fixture(seed, 30)
}

fn sized_fixture(seed: u64, num_objects: usize) -> (RoadNetwork, Vec<Dataset>) {
    let net = generate_grid_network(&GridNetworkConfig::small_test(5, 5), seed);
    let sim = SimConfig {
        num_objects,
        num_hotspots: 2,
        num_destinations: 3,
        sample_period_s: 3.0,
        ..SimConfig::default()
    };
    let data = generate_dataset(&net, &sim, seed, "resume-det");
    (net.clone(), data.split_windows(BATCHES))
}

/// Flow-NEAT view: the retained flow clusters.
fn flow_fingerprint(s: &IncrementalNeat<'_>) -> String {
    format!("{:#?}", s.flow_clusters())
}

/// Opt-NEAT view: the fully refined trajectory clusters.
fn opt_fingerprint(s: &IncrementalNeat<'_>) -> String {
    format!("{:#?}", s.current_clusters().expect("refinement succeeds"))
}

/// Runs all batches straight through, no persistence.
fn straight_through<'n>(
    net: &'n RoadNetwork,
    config: NeatConfig,
    windows: &[Dataset],
    policy: ErrorPolicy,
) -> IncrementalNeat<'n> {
    let mut s = IncrementalNeat::new(net, config);
    for w in windows {
        s.ingest_controlled(w, policy, &Control::unlimited())
            .expect("clean ingest");
    }
    s
}

/// Runs to `interrupt_after` batches with checkpointing, drops the
/// session (the "kill"), resumes from the store and finishes.
fn interrupted<'n>(
    net: &'n RoadNetwork,
    config: NeatConfig,
    windows: &[Dataset],
    policy: ErrorPolicy,
    interrupt_after: usize,
) -> IncrementalNeat<'n> {
    let fs = MemFs::new();
    let store = CheckpointStore::open(fs.clone(), "/det/ckpt").expect("open store");
    {
        let mut first = IncrementalNeat::new(net, config);
        for w in &windows[..interrupt_after] {
            first.ingest_logged(w, policy, &store).expect("ingest");
        }
        first.save_checkpoint(&store).expect("checkpoint");
        // `first` is dropped here without seeing the remaining batches.
    }
    let store = CheckpointStore::open(fs, "/det/ckpt").expect("reopen store");
    let (mut resumed, report) =
        IncrementalNeat::resume(net, config, &store).expect("resume succeeds");
    assert_eq!(resumed.batches(), interrupt_after);
    assert_eq!(report.snapshot_seq, Some(interrupt_after as u64));
    for w in &windows[interrupt_after..] {
        resumed.ingest_logged(w, policy, &store).expect("ingest");
    }
    resumed
}

fn assert_resume_deterministic(config: NeatConfig, policy: ErrorPolicy, seed: u64) {
    let (net, windows) = fixture(seed);
    let reference = straight_through(&net, config, &windows, policy);
    let ref_flows = flow_fingerprint(&reference);
    let ref_opt = opt_fingerprint(&reference);
    for interrupt_after in 1..BATCHES {
        let resumed = interrupted(&net, config, &windows, policy, interrupt_after);
        assert_eq!(
            flow_fingerprint(&resumed),
            ref_flows,
            "flow-NEAT diverged when interrupted after batch {interrupt_after}"
        );
        assert_eq!(
            opt_fingerprint(&resumed),
            ref_opt,
            "opt-NEAT diverged when interrupted after batch {interrupt_after}"
        );
        assert_eq!(resumed.batches(), BATCHES);
    }
}

#[test]
fn flow_and_opt_neat_resume_deterministically_default_config() {
    let config = NeatConfig {
        min_card: 3,
        epsilon: 600.0,
        ..NeatConfig::default()
    };
    assert_resume_deterministic(config, ErrorPolicy::Strict, 42);
}

#[test]
fn resume_deterministic_without_elb_and_full_route() {
    // A deliberately different parameterization: ELB pruning off and
    // full-route distances, so the resumed phase-3 refinement exercises
    // the other code paths too.
    let config = NeatConfig {
        min_card: 2,
        epsilon: 450.0,
        use_elb: false,
        route_distance: RouteDistance::FullRoute,
        ..NeatConfig::default()
    };
    assert_resume_deterministic(config, ErrorPolicy::Skip, 7);
}

#[test]
fn resume_deterministic_under_parallel_phase1() {
    // threads is excluded from the config hash by design: the
    // parallel path is bit-identical, so a checkpoint written by a
    // single-threaded run must resume cleanly into a threaded one.
    let (net, windows) = fixture(42);
    let serial = NeatConfig {
        min_card: 3,
        epsilon: 600.0,
        threads: 1,
        ..NeatConfig::default()
    };
    let threaded = NeatConfig {
        threads: 4,
        ..serial
    };
    let reference = straight_through(&net, serial, &windows, ErrorPolicy::Strict);

    let fs = MemFs::new();
    let store = CheckpointStore::open(fs.clone(), "/det/threads").expect("open");
    {
        let mut first = IncrementalNeat::new(&net, serial);
        for w in &windows[..2] {
            first
                .ingest_logged(w, ErrorPolicy::Strict, &store)
                .expect("ingest");
        }
        first.save_checkpoint(&store).expect("checkpoint");
    }
    let (mut resumed, _) =
        IncrementalNeat::resume(&net, threaded, &store).expect("thread-count change resumes");
    for w in &windows[2..] {
        resumed
            .ingest_logged(w, ErrorPolicy::Strict, &store)
            .expect("ingest");
    }
    assert_eq!(flow_fingerprint(&resumed), flow_fingerprint(&reference));
    assert_eq!(opt_fingerprint(&resumed), opt_fingerprint(&reference));
}

#[test]
fn journal_only_resume_replays_under_threads() {
    // Two journaled windows and no snapshot: the resume replays both
    // records at `threads: 4`, which must match the serial reference.
    // Each replayed window spans at least 2·threads phase-1 chunks of 32
    // trajectories, so the replay really fans out.
    let (net, windows) = sized_fixture(42, 1000);
    assert!(windows[..2].iter().all(|w| w.len() >= 2 * 4 * 32));
    let serial = NeatConfig {
        min_card: 3,
        epsilon: 600.0,
        threads: 1,
        ..NeatConfig::default()
    };
    let threaded = NeatConfig {
        threads: 4,
        ..serial
    };
    let reference = straight_through(&net, serial, &windows, ErrorPolicy::Strict);

    let fs = MemFs::new();
    let store = CheckpointStore::open(fs.clone(), "/det/journal").expect("open");
    {
        let mut first = IncrementalNeat::new(&net, serial);
        for w in &windows[..2] {
            first
                .ingest_logged(w, ErrorPolicy::Strict, &store)
                .expect("ingest");
        }
        // Dropped without a snapshot: only the journal survives.
    }
    let (mut resumed, report) =
        IncrementalNeat::resume(&net, threaded, &store).expect("journal-only resume");
    assert_eq!(report.snapshot_seq, None);
    assert_eq!(report.replayed_batches, 2);
    for w in &windows[2..] {
        resumed
            .ingest_logged(w, ErrorPolicy::Strict, &store)
            .expect("ingest");
    }
    assert_eq!(flow_fingerprint(&resumed), flow_fingerprint(&reference));
    assert_eq!(opt_fingerprint(&resumed), opt_fingerprint(&reference));
}
