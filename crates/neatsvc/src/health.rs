//! Service health: counters, status, and the storage-retry surface.

use crate::queue::Backpressure;
use neat_core::DriftCounts;
use neat_durability::retry::RetryStats;

/// Coarse service state, mapped onto exit codes by the CLI layer
/// (0 = clean, 3 = degraded-but-serving, 4 = unrecoverable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceStatus {
    /// Serving; every batch so far applied undegraded.
    #[default]
    Running,
    /// Serving, but something was lost or reduced: a degraded
    /// refinement, a shed or poisoned batch, or a journal repair.
    Degraded,
    /// The supervisor exhausted its restart budget (or recovery itself
    /// failed); the service no longer processes batches.
    Failed,
}

impl ServiceStatus {
    /// Stable kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ServiceStatus::Running => "running",
            ServiceStatus::Degraded => "degraded",
            ServiceStatus::Failed => "failed",
        }
    }
}

/// Monotonic counters the service accumulates; cheap to clone into a
/// report. Filesystem retry statistics are attached by
/// [`Service::health`](crate::service::Service::health) when a probe is
/// installed.
#[derive(Debug, Clone, Default)]
pub struct Health {
    /// Batches admitted into the queue.
    pub accepted: u64,
    /// Admission deferrals (batch stayed in the spool).
    pub deferred: u64,
    /// Batches shed to quarantine under overload.
    pub shed: u64,
    /// Batches applied and journaled.
    pub applied: u64,
    /// Applied batches whose refinement view was degraded.
    pub degraded_batches: u64,
    /// Spool files skipped because their ID was already journaled
    /// (crash replay found them applied).
    pub duplicates_skipped: u64,
    /// Batches quarantined after failing [`poison_after`] times.
    ///
    /// [`poison_after`]: crate::config::SvcConfig::poison_after
    pub poisoned: u64,
    /// Spool files that vanished between the directory scan and the
    /// open — a racing writer renamed or removed them. Benign; counted
    /// for observability only.
    pub spool_races: u64,
    /// Checkpoints written (cadence + final).
    pub checkpoints: u64,
    /// Emergency checkpoints taken because a journal append failed
    /// after a successful in-memory apply (the divergence-window
    /// repair documented on `IncrementalNeat::ingest_logged`).
    pub journal_repairs: u64,
    /// Supervised worker restarts performed.
    pub restarts: u64,
    /// Watermark advances, one per journaled expiry operation (an
    /// advance counts even when it expired no fragment).
    pub expiries: u64,
    /// T-fragments removed by retention since the service opened.
    pub expired_fragments: u64,
    /// The subset of [`expiries`](Health::expiries) driven by the
    /// idle-stream wall clock ([`idle_expiry`]) rather than a batch.
    ///
    /// [`idle_expiry`]: crate::config::SvcConfig::idle_expiry
    pub idle_expiries: u64,
    /// Cluster-drift lifecycle totals across all expiries.
    pub drift: DriftCounts,
    /// Journal compactions that completed (checkpoint retention,
    /// forced cadence, or a successful retry).
    pub compactions: u64,
    /// Journal compactions that failed (e.g. ENOSPC mid-rewrite). The
    /// service keeps serving from the old segments and retries with
    /// backoff.
    pub compaction_failures: u64,
    /// Backpressure state of the most recent spool scan.
    pub backpressure: Backpressure,
    /// Most recent worker failure, for diagnostics.
    pub last_error: Option<String>,
    /// Storage-layer retry counters (present when the service was given
    /// a retry probe): transient retries performed and operations that
    /// exhausted their retry budget.
    pub retry: Option<RetryStats>,
}

impl Health {
    /// One-line operator summary.
    pub fn digest(&self) -> String {
        let retry = match &self.retry {
            Some(r) => format!(" fs-retries={} fs-exhausted={}", r.retries, r.exhausted),
            None => String::new(),
        };
        format!(
            "applied={} accepted={} deferred={} shed={} poisoned={} spool-races={} dup-skipped={} \
             degraded={} checkpoints={} journal-repairs={} restarts={} expiries={} \
             idle-expiries={} expired={} \
             drift={} compactions={} compaction-failures={} backpressure={}{}",
            self.applied,
            self.accepted,
            self.deferred,
            self.shed,
            self.poisoned,
            self.spool_races,
            self.duplicates_skipped,
            self.degraded_batches,
            self.checkpoints,
            self.journal_repairs,
            self.restarts,
            self.expiries,
            self.idle_expiries,
            self.expired_fragments,
            self.drift.total(),
            self.compactions,
            self.compaction_failures,
            self.backpressure.name(),
            retry
        )
    }
}
