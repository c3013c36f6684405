//! Spool-directory conventions: atomic handoff, scan, quarantine.
//!
//! Producers hand a batch over by writing it somewhere temporary and
//! renaming it into the spool (exactly what
//! [`neat_durability::fs::write_atomic`] does), so the
//! service never observes a half-written batch: `*.tmp` entries and
//! dotfiles are skipped by [`scan`]. The file name is the batch ID — it
//! becomes the journaled dataset name, which is how replay recognises
//! duplicates after a crash.

use neat_durability::fs::{is_tmp, write_atomic, Fs};
use neat_traj::{io as trajio, Dataset};
use std::fmt;
use std::io;
use std::path::Path;

/// File the quarantine directory accumulates one reason line per
/// quarantined batch in.
pub const QUARANTINE_LOG: &str = "reasons.log";

/// Batch files currently in the spool, sorted by name (the arrival
/// order contract: producers use lexicographically increasing names).
/// `*.tmp` handoffs in flight and dotfiles are ignored.
///
/// # Errors
///
/// Propagates directory listing failures.
pub fn scan<F: Fs>(fs: &F, dir: &Path) -> io::Result<Vec<String>> {
    let mut ids: Vec<String> = fs
        .list(dir)?
        .iter()
        .filter(|p| !is_tmp(p))
        .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(String::from))
        .filter(|n| !n.starts_with('.') && n != QUARANTINE_LOG)
        .collect();
    ids.sort();
    Ok(ids)
}

/// Atomically submits a batch into the spool under `id` — the
/// producer-side half of the handoff convention.
///
/// # Errors
///
/// `Err(String)` describes serialization or filesystem failure.
pub fn submit<F: Fs>(fs: &F, dir: &Path, id: &str, batch: &Dataset) -> Result<(), String> {
    let mut buf = Vec::new();
    trajio::write_dataset(batch, &mut buf).map_err(|e| format!("encode batch `{id}`: {e}"))?;
    write_atomic(fs, &dir.join(id), &buf).map_err(|e| format!("submit batch `{id}`: {e}"))
}

/// Why a spool batch could not be loaded.
#[derive(Debug)]
pub enum LoadError {
    /// The file disappeared between the directory scan and the open — a
    /// racing writer renamed or removed it (or an operator withdrew it).
    /// Benign: the batch was never really there; skip it.
    Vanished,
    /// Unreadable or malformed batch data — the poison path.
    Bad(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Vanished => write!(f, "batch vanished before load"),
            LoadError::Bad(msg) => write!(f, "{msg}"),
        }
    }
}

/// Loads and parses the spool batch `id`; the dataset is named after
/// the batch ID so the journal records it.
///
/// # Errors
///
/// [`LoadError::Vanished`] when the file no longer exists (a racing
/// writer won between `readdir` and `open` — tolerated, not a failure);
/// [`LoadError::Bad`] for unreadable or malformed batch files — the
/// caller treats those as a batch failure (poison path), not an
/// infrastructure failure.
pub fn load<F: Fs>(fs: &F, dir: &Path, id: &str) -> Result<Dataset, LoadError> {
    let bytes = match fs.read(&dir.join(id)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(LoadError::Vanished),
        Err(e) => return Err(LoadError::Bad(format!("read batch `{id}`: {e}"))),
    };
    trajio::read_dataset(id, io::Cursor::new(bytes))
        .map_err(|e| LoadError::Bad(format!("parse batch `{id}`: {e}")))
}

/// Removes an acknowledged batch file from the spool. A file that is
/// already gone (`ENOENT`) is success: someone else won the race, and
/// the goal — the file not being in the spool — holds.
///
/// # Errors
///
/// Propagates other filesystem failure; recovery reconciles a leftover
/// file by its journaled ID, so the caller may simply restart.
pub fn remove<F: Fs>(fs: &F, dir: &Path, id: &str) -> io::Result<()> {
    match fs.remove_file(&dir.join(id)) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    }
    fs.sync_dir(dir)
}

/// Moves the spool batch `id` into the quarantine directory and appends
/// a reason line to [`QUARANTINE_LOG`]. Quarantined data is never
/// deleted — an operator can inspect, fix and resubmit it.
///
/// Returns `Ok(false)` when the source file vanished before the move (a
/// racing writer took it back) — there is nothing to quarantine and no
/// reason line is written.
///
/// # Errors
///
/// Propagates filesystem failure.
pub fn quarantine<F: Fs>(
    fs: &F,
    spool: &Path,
    qdir: &Path,
    id: &str,
    reason: &str,
) -> io::Result<bool> {
    fs.create_dir_all(qdir)?;
    match fs.rename(&spool.join(id), &qdir.join(id)) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    }
    fs.sync_dir(qdir)?;
    fs.sync_dir(spool)?;
    fs.append(
        &qdir.join(QUARANTINE_LOG),
        format!("{id}\t{reason}\n").as_bytes(),
    )?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_durability::fs::MemFs;
    use neat_rnet::{Point, RoadLocation, SegmentId};
    use neat_traj::{Trajectory, TrajectoryId};
    use std::path::PathBuf;

    fn batch(name: &str) -> Dataset {
        let mut d = Dataset::new(name);
        d.push(
            Trajectory::new(
                TrajectoryId::new(7),
                vec![
                    RoadLocation::new(SegmentId::new(0), Point::new(10.0, 0.0), 0.0),
                    RoadLocation::new(SegmentId::new(0), Point::new(20.0, 0.0), 5.0),
                ],
            )
            .unwrap(),
        );
        d
    }

    #[test]
    fn scan_skips_tmp_and_hidden_entries() {
        let fs = MemFs::new();
        let dir = PathBuf::from("/spool");
        fs.create_dir_all(&dir).unwrap();
        fs.write(&dir.join("b-002.batch"), b"x").unwrap();
        fs.write(&dir.join("b-001.batch"), b"x").unwrap();
        fs.write(&dir.join("b-003.batch.tmp"), b"half").unwrap();
        fs.write(&dir.join(".hidden"), b"x").unwrap();
        assert_eq!(
            scan(&fs, &dir).unwrap(),
            vec!["b-001.batch".to_string(), "b-002.batch".to_string()]
        );
    }

    #[test]
    fn submit_load_round_trips_with_id_as_name() {
        let fs = MemFs::new();
        let dir = PathBuf::from("/spool");
        fs.create_dir_all(&dir).unwrap();
        submit(&fs, &dir, "b-1.batch", &batch("ignored-name")).unwrap();
        let loaded = load(&fs, &dir, "b-1.batch").unwrap();
        assert_eq!(loaded.name(), "b-1.batch");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.total_points(), 2);
    }

    #[test]
    fn quarantine_moves_file_and_logs_reason() {
        let fs = MemFs::new();
        let (spool, qdir) = (PathBuf::from("/spool"), PathBuf::from("/quarantine"));
        fs.create_dir_all(&spool).unwrap();
        submit(&fs, &spool, "bad.batch", &batch("b")).unwrap();
        quarantine(&fs, &spool, &qdir, "bad.batch", "poison: failed twice").unwrap();
        assert!(scan(&fs, &spool).unwrap().is_empty());
        assert_eq!(scan(&fs, &qdir).unwrap(), vec!["bad.batch".to_string()]);
        let log = String::from_utf8(fs.read(&qdir.join(QUARANTINE_LOG)).unwrap()).unwrap();
        assert!(log.contains("bad.batch\tpoison: failed twice"));
    }

    #[test]
    fn remove_deletes_only_the_acknowledged_batch() {
        let fs = MemFs::new();
        let dir = PathBuf::from("/spool");
        fs.create_dir_all(&dir).unwrap();
        submit(&fs, &dir, "a.batch", &batch("a")).unwrap();
        submit(&fs, &dir, "b.batch", &batch("b")).unwrap();
        remove(&fs, &dir, "a.batch").unwrap();
        assert_eq!(scan(&fs, &dir).unwrap(), vec!["b.batch".to_string()]);
    }

    #[test]
    fn load_of_a_vanished_file_is_the_race_not_poison() {
        let fs = MemFs::new();
        let dir = PathBuf::from("/spool");
        fs.create_dir_all(&dir).unwrap();
        assert!(matches!(
            load(&fs, &dir, "gone.batch"),
            Err(LoadError::Vanished)
        ));
        fs.write(&dir.join("junk.batch"), b"not a dataset").unwrap();
        assert!(matches!(
            load(&fs, &dir, "junk.batch"),
            Err(LoadError::Bad(_))
        ));
    }

    #[test]
    fn remove_tolerates_an_already_gone_file() {
        let fs = MemFs::new();
        let dir = PathBuf::from("/spool");
        fs.create_dir_all(&dir).unwrap();
        remove(&fs, &dir, "never-there.batch").unwrap();
    }

    #[test]
    fn quarantine_of_a_vanished_file_reports_false_and_logs_nothing() {
        let fs = MemFs::new();
        let (spool, qdir) = (PathBuf::from("/spool"), PathBuf::from("/quarantine"));
        fs.create_dir_all(&spool).unwrap();
        assert!(!quarantine(&fs, &spool, &qdir, "gone.batch", "why").unwrap());
        assert!(!fs.exists(&qdir.join(QUARANTINE_LOG)));
    }
}
