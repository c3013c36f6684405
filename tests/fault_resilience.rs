//! Fault-injection matrix and sanitizer property tests: every fault class
//! crossed with every error policy must either fail loudly (Strict) or
//! degrade gracefully (Skip/Repair) with counters that account for every
//! trajectory, and repairing is idempotent.

use neat_repro::mobisim::faults::{inject_faults, FaultConfig};
use neat_repro::mobisim::{generate_dataset, SimConfig};
use neat_repro::neat::{Mode, Neat, NeatConfig};
use neat_repro::rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_repro::rnet::{Point, RoadNetwork, SegmentId};
use neat_repro::runctl::Control;
use neat_repro::traj::sanitize::{ErrorPolicy, RawFix, Sanitizer};
use neat_repro::traj::Dataset;
use proptest::prelude::*;

fn small_net(seed: u64) -> RoadNetwork {
    let mut cfg = GridNetworkConfig::small_test(8, 8);
    cfg.segment_ratio = 1.5;
    generate_grid_network(&cfg, seed)
}

fn sim(seed: u64, objects: usize) -> (RoadNetwork, Dataset) {
    let net = small_net(seed);
    let data = generate_dataset(
        &net,
        &SimConfig {
            num_objects: objects,
            ..SimConfig::default()
        },
        seed.wrapping_add(1),
        "faulty",
    );
    (net, data)
}

/// Every single-fault class and the full mix, under Skip and Repair: the
/// sanitizer must complete, its counters must account for every input
/// trajectory, and opt-NEAT must run the surviving dataset to completion.
#[test]
fn fault_matrix_degrades_gracefully_under_skip_and_repair() {
    let (net, data) = sim(3, 24);
    let neat = Neat::new(&net, NeatConfig::default());
    let specs = [
        "dropout=0.4",
        "dup=0.6",
        "reorder=0.5",
        "teleport=0.4",
        "truncate=0.3",
        "dropout=0.2,dup=0.3,reorder=0.3,teleport=0.2,truncate=0.1",
    ];
    for spec in specs {
        let config = FaultConfig::parse(spec).unwrap();
        let (fixes, log) = inject_faults(&data, &config, 7);
        assert!(log.total_faults() > 0, "seed produced no faults for {spec}");
        for policy in [ErrorPolicy::Skip, ErrorPolicy::Repair] {
            let out = Sanitizer::with_policy(policy)
                .sanitize_fixes("m", fixes.clone())
                .unwrap_or_else(|e| panic!("{} must not fail on {spec}: {e}", policy.name()));
            let s = &out.summary;
            assert_eq!(
                s.clean + s.repaired + s.quarantined,
                s.trajectories_in,
                "unaccounted trajectories for {spec}/{}",
                policy.name()
            );
            assert_eq!(out.quarantined.len(), s.quarantined);
            assert_eq!(out.dataset.total_points(), s.points_out);
            assert_eq!(out.dataset.len(), s.clean + s.repaired + s.splits);
            match policy {
                ErrorPolicy::Skip => {
                    assert_eq!(s.repaired, 0);
                    // Only fault-affected trajectories may be rejected.
                    for q in &out.quarantined {
                        assert!(
                            log.affected.contains(&q.id.value()),
                            "{} quarantined without a fault under {spec}",
                            q.id
                        );
                    }
                }
                ErrorPolicy::Repair => {
                    // Repairing what was already repaired changes nothing.
                    let again = Sanitizer::with_policy(policy)
                        .sanitize_dataset(&out.dataset)
                        .unwrap();
                    assert!(
                        again.summary.is_clean(),
                        "repair not idempotent for {spec}: {}",
                        again.summary.digest()
                    );
                }
                ErrorPolicy::Strict => unreachable!(),
            }
            // The surviving dataset clusters end to end; its segments all
            // come from the simulator's network, so no degradation left.
            let result = neat
                .run_controlled(&out.dataset, Mode::Opt, policy, &Control::unlimited())
                .map(|out| out.result)
                .unwrap_or_else(|e| panic!("opt-NEAT failed for {spec}/{}: {e}", policy.name()));
            assert!(result.resilience.is_clean());
        }
    }
}

/// Strict ingestion rejects streams whose faults break trajectory
/// invariants, and accepts fault classes that merely degrade quality
/// (dropout keeps order, teleports keep timestamps).
#[test]
fn fault_matrix_strict_policy_fails_loudly_or_passes_through() {
    let (_, data) = sim(3, 24);
    let strict = Sanitizer::with_policy(ErrorPolicy::Strict);
    for spec in ["dup=0.6", "reorder=0.5", "truncate=0.3"] {
        let config = FaultConfig::parse(spec).unwrap();
        let (fixes, log) = inject_faults(&data, &config, 7);
        assert!(
            log.stale_duplicated + log.reordered + log.truncated > 0,
            "seed produced no invariant-breaking fault for {spec}"
        );
        assert!(
            strict.sanitize_fixes("m", fixes).is_err(),
            "strict must reject {spec}"
        );
    }
    for spec in ["dropout=0.4", "teleport=0.4"] {
        let config = FaultConfig::parse(spec).unwrap();
        let (fixes, log) = inject_faults(&data, &config, 7);
        assert!(log.total_faults() > 0);
        let out = strict.sanitize_fixes("m", fixes).unwrap_or_else(|e| {
            panic!("{spec} preserves trajectory invariants, strict must pass: {e}")
        });
        assert_eq!(out.dataset.len(), out.summary.trajectories_in);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Idempotence on realistic corruption: repairing a faulted simulated
    /// stream twice gives exactly the dataset of repairing it once, and
    /// the second pass finds nothing to fix.
    #[test]
    fn prop_repair_is_idempotent_on_faulted_streams(
        seed in 0u64..8,
        objects in 4usize..16,
        dropout in 0.0f64..0.5,
        duplicate in 0.0f64..0.5,
        reorder in 0.0f64..0.5,
        teleport in 0.0f64..0.5,
        truncate in 0.0f64..0.3,
    ) {
        let (_, data) = sim(seed, objects);
        let config = FaultConfig { dropout, duplicate, reorder, teleport, truncate };
        let (fixes, _) = inject_faults(&data, &config, seed ^ 0x5eed);
        let sanitizer = Sanitizer::with_policy(ErrorPolicy::Repair);
        let once = sanitizer.sanitize_fixes("p", fixes).unwrap();
        let twice = sanitizer.sanitize_dataset(&once.dataset).unwrap();
        prop_assert!(
            twice.summary.is_clean(),
            "second pass not clean: {}", twice.summary.digest()
        );
        prop_assert_eq!(&twice.dataset, &once.dataset);
    }

    /// Total-function guarantee on adversarial input: arbitrary fix
    /// streams never panic any policy, Skip/Repair always produce a valid
    /// dataset with consistent counters, and the repaired output survives
    /// a second screening untouched and clusters end to end.
    #[test]
    fn prop_sanitizer_is_total_on_arbitrary_fixes(
        raw in proptest::collection::vec(
            (0u64..6, 0usize..200, -1.0e5f64..1.0e5, -1.0e5f64..1.0e5, -1.0e3f64..1.0e4),
            0..120,
        ),
    ) {
        let fixes: Vec<RawFix> = raw
            .iter()
            .map(|&(id, seg, x, y, t)| {
                RawFix::new(id, SegmentId::new(seg), Point::new(x, y), t)
            })
            .collect();
        // Strict may accept or reject, but must not panic.
        let _ = Sanitizer::with_policy(ErrorPolicy::Strict)
            .sanitize_fixes("arb", fixes.clone());
        for policy in [ErrorPolicy::Skip, ErrorPolicy::Repair] {
            let out = Sanitizer::with_policy(policy)
                .sanitize_fixes("arb", fixes.clone())
                .unwrap();
            let s = &out.summary;
            prop_assert_eq!(s.clean + s.repaired + s.quarantined, s.trajectories_in);
            prop_assert_eq!(out.dataset.total_points(), s.points_out);
            for tr in out.dataset.trajectories() {
                prop_assert!(tr.len() >= 2);
            }
        }
        let sanitizer = Sanitizer::with_policy(ErrorPolicy::Repair);
        let once = sanitizer.sanitize_fixes("arb", fixes).unwrap();
        let twice = sanitizer.sanitize_dataset(&once.dataset).unwrap();
        prop_assert!(
            twice.summary.is_clean(),
            "second pass not clean: {}", twice.summary.digest()
        );
        prop_assert_eq!(&twice.dataset, &once.dataset);
        // Arbitrary segment ids are mostly unknown to the network; the
        // pipeline must degrade, not abort.
        let net = small_net(0);
        let result = Neat::new(&net, NeatConfig::default())
            .run_controlled(&once.dataset, Mode::Opt, ErrorPolicy::Repair, &Control::unlimited());
        prop_assert!(result.is_ok(), "pipeline aborted: {:?}", result.err());
    }
}
