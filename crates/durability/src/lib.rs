//! Crash-safe storage primitives for the NEAT reproduction.
//!
//! Long-running incremental clustering (Section III-C of the paper) is
//! only deployable if the process can be killed at any instant and
//! resume with byte-identical results. This crate provides the storage
//! layer that makes that possible:
//!
//! * [`fs::Fs`] — the filesystem surface everything writes through, with
//!   a production [`fs::StdFs`] (fsync on every mutation), an in-memory
//!   [`fs::MemFs`] for hermetic chaos tests, and room for the
//!   fault-injecting `FaultFs` in `neat-mobisim`.
//! * [`fs::write_atomic`] — temp-file + fsync + rename, so a crash never
//!   leaves a partial file at a destination path.
//! * [`codec`] — a deterministic little-endian binary codec whose
//!   decoder bounds-checks every length against the bytes actually
//!   present, plus CRC-32 and FNV-64.
//! * [`snapshot`] — the versioned, checksummed, length-prefixed
//!   container frame; any single-bit flip is detected.
//! * [`journal`] — an append-only record log that tolerates a torn tail
//!   (crash mid-append) but treats interior corruption as a hard error.
//! * [`retry::RetryFs`] — a decorator retrying transient I/O errors of
//!   idempotent operations with injectable backoff (never `append`,
//!   which could duplicate journal records).
//! * [`store::Store`] — a checkpoint directory combining numbered
//!   snapshots with a segmented, sequence-tagged journal, including
//!   retention, crash-safe journal compaction (rewrite live records
//!   into a fresh segment, fsync, rename, then prune the old ones) and
//!   fallback-to-previous-snapshot recovery.
//!
//! The NEAT-specific state encoding lives in `neat_core::checkpoint`;
//! this crate is deliberately dependency-free and knows nothing about
//! clusters.
//!
//! ```
//! use neat_durability::fs::MemFs;
//! use neat_durability::store::Store;
//!
//! # fn main() -> Result<(), neat_durability::DurabilityError> {
//! let store = Store::open(MemFs::new(), "/ckpt", 1)?;
//! store.append_journal(1, b"batch one")?;
//! let retention = store.write_snapshot(1, b"state after batch one")?;
//! assert!(retention.error.is_none());
//! let recovered = store.load()?;
//! assert_eq!(recovered.snapshot.unwrap().1, b"state after batch one");
//! # Ok(())
//! # }
//! ```

pub mod codec;
pub mod error;
pub mod fs;
pub mod journal;
pub mod retry;
pub mod snapshot;
pub mod store;

pub use codec::{crc32, fnv64, Dec, Enc};
pub use error::DurabilityError;
pub use fs::{write_atomic, write_atomic_std, Fs, MemFs, StdFs};
pub use retry::{Backoff, JitterBackoff, NoBackoff, RetryFs, RetryStats};
pub use store::{CompactionOutcome, JournalEntry, Recovery, RetentionReport, Store};
