//! Crash-safe incremental clustering — what `--checkpoint-dir`/`--resume`
//! do under the hood: batches are journaled as they are applied, the
//! clustering state is snapshotted durably, and a process killed at any
//! instant resumes with byte-identical clusters.
//!
//! The "crash" here is simulated hermetically: the checkpoint store
//! lives on an in-memory filesystem whose clones share storage, so
//! dropping one handle mid-run and reopening another is exactly a
//! `kill -9` followed by a restart.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use neat_repro::durability::MemFs;
use neat_repro::mobisim::{generate_dataset, SimConfig};
use neat_repro::neat::{CheckpointStore, ErrorPolicy, IncrementalNeat, NeatConfig};
use neat_repro::rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_repro::traj::Dataset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = generate_grid_network(&GridNetworkConfig::small_test(12, 12), 4);
    let config = NeatConfig {
        min_card: 4,
        epsilon: 500.0,
        ..NeatConfig::default()
    };

    // One day of traffic split into six batches.
    let data = generate_dataset(
        &net,
        &SimConfig {
            num_objects: 120,
            ..SimConfig::default()
        },
        42,
        "day",
    );
    let batches: Vec<Dataset> = data.split_windows(6);

    // The "disk": clones of a MemFs share the same byte map, so the
    // bytes survive when a handle is dropped. Swap in `StdFs` and a real
    // directory for actual on-disk checkpoints.
    let disk = MemFs::new();

    // --- First life: apply three of the six batches, then "crash". ----
    {
        let store = CheckpointStore::open(disk.clone(), "/ckpt")?;
        let mut session = IncrementalNeat::new(&net, config);
        for batch in &batches[..3] {
            session.ingest_logged(batch, ErrorPolicy::Strict, &store)?;
            if session.batches() % 2 == 0 {
                session.save_checkpoint(&store)?;
            }
        }
        println!(
            "first life: applied {} batches ({} retained flows), then the process dies",
            session.batches(),
            session.flow_clusters().len()
        );
        // `session` and `store` drop here — batch 3 was applied and
        // journaled, but only batch 2's snapshot was written. That is
        // fine: the journal replays the difference.
    }

    // --- Second life: resume from the surviving bytes and finish. -----
    let store = CheckpointStore::open(disk.clone(), "/ckpt")?;
    let (mut session, report) = IncrementalNeat::resume(&net, config, &store)?;
    println!(
        "resumed: snapshot at batch {:?}, {} journaled batch(es) replayed -> at batch {}",
        report.snapshot_seq,
        report.replayed_batches,
        session.batches()
    );
    for batch in batches.iter().skip(session.batches()) {
        session.ingest_logged(batch, ErrorPolicy::Strict, &store)?;
    }
    session.save_checkpoint(&store)?;
    let resumed_clusters = session.current_clusters()?;

    // --- Referee: an uninterrupted run over the same batches. ---------
    let mut straight = IncrementalNeat::new(&net, config);
    for batch in &batches {
        straight.ingest(batch)?;
    }
    let straight_clusters = straight.current_clusters()?;

    println!(
        "resumed run:   {} flows -> {} clusters",
        session.flow_clusters().len(),
        resumed_clusters.len()
    );
    println!(
        "straight run:  {} flows -> {} clusters",
        straight.flow_clusters().len(),
        straight_clusters.len()
    );
    assert_eq!(
        format!("{resumed_clusters:#?}"),
        format!("{straight_clusters:#?}"),
        "crash + resume must be observationally identical"
    );
    println!("identical down to the Debug representation — the crash left no trace");
    Ok(())
}
