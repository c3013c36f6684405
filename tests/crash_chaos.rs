//! Crash-point chaos harness for the durable checkpoint/resume pipeline.
//!
//! The headline robustness test of the durability subsystem: a seeded
//! incremental clustering run is executed against a fault-injecting
//! filesystem ([`FaultFs`]) that kills or corrupts exactly one mutating
//! disk operation. Every operation index is tried with every fault kind;
//! after each simulated crash the run is "restarted" from the surviving
//! bytes and must reproduce the clusters of an uninterrupted run — byte
//! for byte, compared via `Debug` fingerprints.
//!
//! Invariants asserted per crash point:
//!
//! * **Fatal faults** (`Lost`, `Torn`) — the driver errors (or, when the
//!   fault strikes the best-effort retention phase of the final
//!   checkpoint, completes with reference-identical clusters), the
//!   restart resumes and finishes with a fingerprint identical to the
//!   reference.
//! * **Recoverable faults** (`NoSpace`, `RenameFail`) — the driver sees
//!   the error (or rides through it when it hits best-effort retention),
//!   the on-disk state stays consistent, and a restart again matches the
//!   reference exactly.
//! * **Silent corruption** (`BitFlip`) — the live run is unaffected; the
//!   restart either recovers to the reference (older snapshot + journal)
//!   or fails with a structured corruption error. It must never succeed
//!   with *different* clusters.
//!
//! On any violation the failing crash-point id and a hex dump of the
//! surviving filesystem are written to `target/chaos-artifacts/` so the
//! exact disk image can be inspected offline.

use neat_repro::durability::{Fs, MemFs};
use neat_repro::mobisim::faults::{DiskFault, FaultFs};
use neat_repro::mobisim::{generate_dataset, SimConfig};
use neat_repro::neat::{
    CheckpointError, CheckpointStore, ErrorPolicy, IncrementalNeat, NeatConfig,
};
use neat_repro::rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_repro::rnet::RoadNetwork;
use neat_repro::traj::Dataset;
use std::fmt::Write as _;
use std::path::PathBuf;

const CKPT_DIR: &str = "/chaos/ckpt";
const BATCHES: usize = 3;

fn fixture() -> (RoadNetwork, Vec<Dataset>) {
    let net = generate_grid_network(&GridNetworkConfig::small_test(4, 4), 7);
    let config = SimConfig {
        num_objects: 18,
        num_hotspots: 2,
        num_destinations: 2,
        sample_period_s: 4.0,
        ..SimConfig::default()
    };
    let data = generate_dataset(&net, &config, 7, "chaos");
    let windows = data.split_windows(BATCHES);
    (net, windows)
}

fn neat_config() -> NeatConfig {
    NeatConfig {
        min_card: 3,
        epsilon: 600.0,
        ..NeatConfig::default()
    }
}

/// `Debug` fingerprint of the complete observable clustering state.
fn fingerprint(session: &IncrementalNeat<'_>) -> Result<String, String> {
    let clusters = session.current_clusters().map_err(|e| e.to_string())?;
    Ok(format!(
        "batches={}\nflows={:#?}\nclusters={:#?}\nresilience={:#?}",
        session.batches(),
        session.flow_clusters(),
        clusters,
        session.resilience()
    ))
}

/// One full driver run over `fs`: resume if a checkpoint exists (fresh
/// otherwise), re-feed every batch the checkpoint has not acknowledged,
/// snapshot after each batch, and fingerprint the final clusters.
fn drive<F: Fs>(fs: F, net: &RoadNetwork, windows: &[Dataset]) -> Result<String, String> {
    let store = CheckpointStore::open(fs, CKPT_DIR).map_err(|e| e.to_string())?;
    let mut session = match IncrementalNeat::resume(net, neat_config(), &store) {
        Ok((session, _report)) => session,
        Err(CheckpointError::NoCheckpoint { .. }) => IncrementalNeat::new(net, neat_config()),
        Err(e) => return Err(format!("resume: {e}")),
    };
    for window in windows.iter().skip(session.batches()) {
        session
            .ingest_logged(window, ErrorPolicy::Strict, &store)
            .map_err(|e| format!("ingest: {e}"))?;
        session
            .save_checkpoint(&store)
            .map_err(|e| format!("checkpoint: {e}"))?;
    }
    fingerprint(&session)
}

/// Straight-through run with no store at all — the ground truth.
fn reference_fingerprint(net: &RoadNetwork, windows: &[Dataset]) -> String {
    let mut session = IncrementalNeat::new(net, neat_config());
    for window in windows {
        session.ingest(window).expect("clean ingest");
    }
    fingerprint(&session).expect("clean fingerprint")
}

/// Writes the failing crash point and a hex dump of the surviving disk
/// to `target/chaos-artifacts/` and panics with `msg`.
fn fail_with_artifact(id: &str, disk: &MemFs, msg: &str) -> ! {
    let dir = PathBuf::from("target/chaos-artifacts");
    let _ = std::fs::create_dir_all(&dir);
    let mut report = format!("crash point: {id}\nfailure: {msg}\n\nsurviving disk:\n");
    for (path, bytes) in disk.dump() {
        let _ = writeln!(report, "--- {} ({} bytes)", path.display(), bytes.len());
        for chunk in bytes.chunks(16) {
            let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
            let _ = writeln!(report, "    {}", hex.join(" "));
        }
    }
    let path = dir.join(format!(
        "{}.txt",
        id.replace(['{', '}', ' ', ':', ','], "_")
    ));
    let _ = std::fs::write(&path, &report);
    panic!(
        "chaos harness failed at {id}: {msg} (artifact: {})",
        path.display()
    );
}

#[test]
fn every_crash_point_recovers_to_identical_clusters() {
    let (net, windows) = fixture();
    let reference = reference_fingerprint(&net, &windows);

    // An unfaulted checkpointed run must already match the straight-through
    // run, and tells us how many mutating disk operations there are.
    let probe = FaultFs::unarmed(MemFs::new());
    let clean = drive(probe.clone(), &net, &windows).expect("unfaulted run");
    assert_eq!(clean, reference, "checkpointing must not change results");
    let total_ops = probe.mutating_ops();
    assert!(
        total_ops >= (BATCHES * 2) as u64,
        "expected at least one journal append and one snapshot write per batch, got {total_ops}"
    );

    let faults = [
        DiskFault::Lost,
        DiskFault::Torn { keep: 0 },
        DiskFault::Torn { keep: 7 },
        DiskFault::BitFlip {
            offset: 3,
            mask: 0x01,
        },
        DiskFault::BitFlip {
            offset: 13,
            mask: 0x40,
        },
        DiskFault::NoSpace,
        DiskFault::RenameFail,
    ];
    let mut crash_points = 0u64;
    for op in 0..total_ops {
        for fault in faults {
            crash_points += 1;
            let id = format!("op{op}-{fault:?}");
            let fs = FaultFs::armed(MemFs::new(), op, fault);
            let first = drive(fs.clone(), &net, &windows);
            assert!(
                fs.fault_fired(),
                "crash point {id}: probe said op {op} exists but the fault never fired"
            );
            let silent = matches!(fault, DiskFault::BitFlip { .. });
            match &first {
                Ok(fp) if fp == &reference => {}
                Ok(fp) => fail_with_artifact(
                    &id,
                    &fs.storage(),
                    &format!("live run diverged:\n{fp}\nvs reference:\n{reference}"),
                ),
                // A detected error is legitimate for every fault kind: the
                // crash faults kill the handle, the recoverable faults
                // surface an I/O error, and a bit flip may be *detected*
                // later (e.g. while pruning past a corrupted journal).
                Err(_) => {}
            }

            // "Restart the process": reopen the surviving bytes.
            let survivor = fs.storage();
            match drive(survivor.clone(), &net, &windows) {
                Ok(fp) if fp == reference => {}
                Ok(fp) => fail_with_artifact(
                    &id,
                    &survivor,
                    &format!(
                        "restart produced different clusters:\n{fp}\nvs reference:\n{reference}"
                    ),
                ),
                Err(e) if silent => {
                    // Silent media corruption may be unrecoverable, but it
                    // must be *detected* (structured error), never folded
                    // into wrong output. Reaching this arm is that case.
                    let _ = e;
                }
                Err(e) => fail_with_artifact(
                    &id,
                    &survivor,
                    &format!("restart failed after a non-silent fault: {e}"),
                ),
            }
        }
    }
    assert!(
        crash_points >= 7 * (BATCHES as u64) * 2,
        "matrix unexpectedly small: {crash_points} crash points"
    );
}

/// A crash can also strike while *resuming* (the recovery path itself
/// writes snapshots once it starts ingesting again). Re-run the matrix
/// with the fault armed beyond the first run's operations so it fires
/// during the post-restart run, then restart once more.
#[test]
fn crashes_during_recovery_are_also_recoverable() {
    let (net, windows) = fixture();
    let reference = reference_fingerprint(&net, &windows);

    // Crash the first run at a fixed early point (mid second batch).
    let probe = FaultFs::unarmed(MemFs::new());
    drive(probe.clone(), &net, &windows).expect("unfaulted run");
    let total_ops = probe.mutating_ops();
    let first_crash = total_ops / 2;

    let fs = FaultFs::armed(MemFs::new(), first_crash, DiskFault::Lost);
    assert!(drive(fs.clone(), &net, &windows).is_err(), "first crash");

    // Probe how many ops the *recovery* run performs.
    let recovery_probe = FaultFs::unarmed(fs.storage());
    drive(recovery_probe.clone(), &net, &windows).expect("recovery probe");
    let recovery_ops = recovery_probe.mutating_ops();
    // The probe mutated the shared disk; rebuild the crashed disk fresh.
    for op in 0..recovery_ops {
        let fs = FaultFs::armed(MemFs::new(), first_crash, DiskFault::Lost);
        let _ = drive(fs.clone(), &net, &windows);
        let recovery = FaultFs::armed(fs.storage(), op, DiskFault::Torn { keep: 3 });
        let second = drive(recovery.clone(), &net, &windows);
        if !recovery.fault_fired() {
            // This recovery run performed fewer ops than the probe
            // (it resumed from a later snapshot); the run must simply
            // have succeeded.
            assert_eq!(second.expect("no fault fired"), reference);
            continue;
        }
        match &second {
            Err(_) => {}
            // Retention (snapshot pruning + journal compaction) is
            // best-effort: a crash there is swallowed by
            // `save_checkpoint`, so a fault striking the *final*
            // batch's retention phase lets the run complete — but only
            // ever with the reference clusters.
            Ok(fp) if fp == &reference => {}
            Ok(fp) => fail_with_artifact(
                &format!("recovery-op{op}"),
                &recovery.storage(),
                &format!("faulted recovery diverged:\n{fp}\nvs:\n{reference}"),
            ),
        }
        match drive(recovery.storage(), &net, &windows) {
            Ok(fp) if fp == reference => {}
            Ok(fp) => fail_with_artifact(
                &format!("recovery-op{op}"),
                &recovery.storage(),
                &format!("double-crash recovery diverged:\n{fp}\nvs:\n{reference}"),
            ),
            Err(e) => fail_with_artifact(
                &format!("recovery-op{op}"),
                &recovery.storage(),
                &format!("double-crash recovery failed: {e}"),
            ),
        }
    }
}
