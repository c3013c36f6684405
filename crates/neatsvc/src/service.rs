//! The supervised service: spool → admission → controlled ingest →
//! journal → checkpoint → published snapshot, with crash recovery.
//!
//! # Execution model
//!
//! [`Service`] is a deterministic, single-threaded state machine driven
//! by [`Service::tick`]. One tick scans the spool, makes admission
//! decisions, processes at most one batch end-to-end and takes any due
//! checkpoint. The `neatd` binary wraps it in a poll loop; the chaos
//! harness calls it directly so every interleaving is enumerable.
//!
//! # Exactly-once pipeline
//!
//! Per batch, the order is *apply → journal → remove spool file*. The
//! batch ID (spool file name) doubles as the journaled dataset name, so
//! each crash window resolves safely:
//!
//! * crash before the journal append — the journal has no record, the
//!   spool file survives, and the batch is simply re-ingested;
//! * crash after the append but before the spool removal — recovery
//!   rebuilds the replay index as the union of
//!   [`CheckpointStore::journaled_batch_index`] and the persisted
//!   `applied.ids`, finds the file's ID there and *skips* it (counted as
//!   `duplicates_skipped`), so no batch is applied twice;
//! * a journal append that fails outright (the divergence window
//!   documented on `IncrementalNeat::ingest_logged`) is repaired on the
//!   spot with an emergency checkpoint (counted as `journal_repairs`).
//!
//! # Supervision
//!
//! [`Service::tick`] wraps the worker in `catch_unwind`: a panic — its
//! own or one injected through a [`FaultHook`] — or an infrastructure
//! error triggers [recovery](Service::tick) from the latest checkpoint
//! plus journal. Restarts are budgeted
//! ([`max_restarts`](SvcConfig::max_restarts)); exhausting the budget
//! (or failing recovery itself) parks the service in
//! [`ServiceStatus::Failed`]. Failures attributable to a single batch
//! (parse errors, strict-policy data errors, per-batch budget
//! overruns) do not consume restarts: the batch is retried and, after
//! [`poison_after`](SvcConfig::poison_after) failures, moved to the
//! quarantine directory as poison.

use crate::config::SvcConfig;
use crate::health::{Health, ServiceStatus};
use crate::hooks::{Edge, FaultHook, NoFaults};
use crate::queue::{Admission, AdmissionQueue};
use crate::snapshot::{QueryView, SnapshotCell};
use crate::spool;
use neat_core::checkpoint::{CheckpointError, CheckpointStore};
use neat_core::incremental::IncrementalNeat;
use neat_core::{DriftEvent, ExpiryOutcome, NeatError, TrajectoryCluster};
use neat_durability::codec::{Dec, Enc};
use neat_durability::fs::{write_atomic, Fs};
use neat_durability::journal;
use neat_durability::retry::{JitterBackoff, NoSleep, RetryStats};
use neat_rnet::RoadNetwork;
use neat_runctl::{CancelToken, Clock, Control, Interrupt, OverrunMode, RunBudget};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Version header of the on-disk applied-ID index: a format-tag record
/// written first, so a pre-retention index (bare UTF-8 IDs, no
/// metadata) is still recognized and loaded conservatively.
const APPLIED_IDS_HEADER: &[u8] = b"AIDX2";

/// What the replay index remembers about one applied batch: the journal
/// sequence its record landed at and the largest observation time it
/// carried. Together they decide when the ID itself may be retired (see
/// [`Service::prune_applied_ids`]).
#[derive(Debug, Clone, Copy)]
struct AppliedMeta {
    /// Journal sequence of the batch record (0 when unknown — a legacy
    /// index entry — which keeps the ID forever).
    seq: u64,
    /// Largest trajectory-point time in the batch
    /// (`f64::INFINITY` when unknown, which keeps the ID forever).
    max_time: f64,
}

/// Infrastructure-level service failure (never a single bad batch —
/// those go down the poison path instead).
#[derive(Debug)]
pub enum SvcError {
    /// Checkpoint store failure (open, journal, snapshot or resume).
    Checkpoint(CheckpointError),
    /// Spool or quarantine filesystem failure.
    Io {
        /// What the service was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Pipeline failure outside any single batch (e.g. an invalid
    /// configuration, or rebuilding the query view after recovery).
    Pipeline(String),
}

impl fmt::Display for SvcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvcError::Checkpoint(e) => write!(f, "checkpoint store: {e}"),
            SvcError::Io { context, source } => write!(f, "{context}: {source}"),
            SvcError::Pipeline(msg) => write!(f, "pipeline: {msg}"),
        }
    }
}

impl std::error::Error for SvcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SvcError::Checkpoint(e) => Some(e),
            SvcError::Io { source, .. } => Some(source),
            SvcError::Pipeline(_) => None,
        }
    }
}

impl From<CheckpointError> for SvcError {
    fn from(e: CheckpointError) -> Self {
        SvcError::Checkpoint(e)
    }
}

impl SvcError {
    fn io(context: &str, source: std::io::Error) -> Self {
        SvcError::Io {
            context: context.to_string(),
            source,
        }
    }
}

/// What one supervised [`Service::tick`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// Progress was made: a batch processed, a failure handled, a
    /// checkpoint written, or a supervised recovery performed.
    Worked,
    /// Spool empty, queue empty, nothing pending — all state durable.
    Idle,
    /// Cancellation observed; pending state was checkpointed and the
    /// remaining spool is left for the next run.
    Cancelled,
    /// The restart budget is exhausted (or recovery failed); the
    /// service no longer processes batches.
    Failed,
}

/// Terminal state of [`Service::run_drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// The spool was fully drained and all state checkpointed.
    Drained,
    /// Cancellation stopped the drain early.
    Cancelled,
    /// The service became unrecoverable.
    Failed,
    /// The tick allowance ran out before the spool drained.
    TicksExhausted,
}

/// The supervised streaming clustering service. See the
/// [module docs](self) for the execution model.
pub struct Service<'n, F: Fs + Clone> {
    net: &'n RoadNetwork,
    cfg: SvcConfig,
    fs: F,
    store: CheckpointStore<F>,
    session: IncrementalNeat<'n>,
    queue: AdmissionQueue,
    cell: SnapshotCell,
    hooks: Arc<dyn FaultHook>,
    clock: Option<Arc<dyn Clock>>,
    cancel: CancelToken,
    health: Health,
    status: ServiceStatus,
    /// Batch IDs applied and journaled — the idempotent-replay index —
    /// with the metadata retention needs to eventually retire them.
    applied_ids: BTreeMap<String, AppliedMeta>,
    /// Failure counts per batch ID, kept across supervised restarts so
    /// a batch that keeps crashing the worker still reaches the poison
    /// threshold.
    attempts: HashMap<String, u32>,
    /// The batch being ingested, for failure attribution on panic.
    current: Option<String>,
    batches_since_ckpt: usize,
    ops_since_ckpt: u64,
    /// Applied batches since the last forced journal compaction
    /// ([`compact_every_batches`](SvcConfig::compact_every_batches)).
    batches_since_compact: usize,
    /// A journal compaction failed and a retry is scheduled; the
    /// service keeps serving from the uncompacted segments meanwhile.
    compaction_pending: bool,
    /// Consecutive failed compaction attempts (drives the backoff).
    compaction_attempt: u32,
    /// Ticks to wait before the next compaction retry.
    compaction_hold_ticks: u64,
    /// Deterministic jittered backoff for compaction retries.
    compaction_backoff: JitterBackoff<NoSleep>,
    /// The idle-stream retention anchor ([`SvcConfig::idle_expiry`]):
    /// the newest observation time applied so far, paired with the
    /// clock reading taken when it was applied. Idle ticks extrapolate
    /// the stream's observation time as `anchor + wall seconds since`.
    idle_anchor: Option<(f64, u64)>,
    retry_probe: Option<Arc<dyn Fn() -> RetryStats + Send + Sync>>,
}

impl<'n, F: Fs + Clone> Service<'n, F> {
    /// Opens a service with no fault hooks, no injected clock and a
    /// fresh cancellation token.
    ///
    /// # Errors
    ///
    /// See [`Service::open_with`].
    pub fn open(net: &'n RoadNetwork, cfg: SvcConfig, fs: F) -> Result<Self, SvcError> {
        Service::open_with(net, cfg, fs, Arc::new(NoFaults), None, CancelToken::new())
    }

    /// Opens a service over `fs`: creates the spool and quarantine
    /// directories, opens the checkpoint store and performs the same
    /// recovery a supervised restart would (resume from checkpoint +
    /// journal if one exists, reload the replay index, reconcile the
    /// spool, publish the recovered view). The [`Edge::Recovered`] hook
    /// fires before this returns, so an injected fault there models a
    /// crash during boot — callers of the chaos harness treat a panic
    /// out of `open_with` as death-at-boot and construct again.
    ///
    /// # Errors
    ///
    /// [`SvcError::Pipeline`] on an invalid clustering configuration;
    /// [`SvcError::Checkpoint`] when the state directory cannot be
    /// opened or holds a checkpoint from a different session
    /// (configuration or network mismatch); [`SvcError::Io`] on spool
    /// setup failure.
    pub fn open_with(
        net: &'n RoadNetwork,
        cfg: SvcConfig,
        fs: F,
        hooks: Arc<dyn FaultHook>,
        clock: Option<Arc<dyn Clock>>,
        cancel: CancelToken,
    ) -> Result<Self, SvcError> {
        cfg.neat
            .validate()
            .map_err(|e| SvcError::Pipeline(format!("invalid clustering config: {e}")))?;
        fs.create_dir_all(&cfg.spool_dir)
            .map_err(|e| SvcError::io("create spool dir", e))?;
        fs.create_dir_all(&cfg.quarantine_dir)
            .map_err(|e| SvcError::io("create quarantine dir", e))?;
        let store = CheckpointStore::open(fs.clone(), cfg.state_dir.clone())?;
        let session = IncrementalNeat::new(net, cfg.neat);
        let queue = AdmissionQueue::new(cfg.queue_capacity, cfg.shed_backlog);
        let mut svc = Service {
            net,
            cfg,
            fs,
            store,
            session,
            queue,
            cell: SnapshotCell::new(),
            hooks,
            clock,
            cancel,
            health: Health::default(),
            status: ServiceStatus::Running,
            applied_ids: BTreeMap::new(),
            attempts: HashMap::new(),
            current: None,
            batches_since_ckpt: 0,
            ops_since_ckpt: 0,
            batches_since_compact: 0,
            compaction_pending: false,
            compaction_attempt: 0,
            compaction_hold_ticks: 0,
            compaction_backoff: JitterBackoff::with_sleeper(
                0x5ea7_c0de,
                Duration::from_millis(20),
                Duration::from_secs(2),
                NoSleep,
            ),
            idle_anchor: None,
            retry_probe: None,
        };
        svc.recover()?;
        Ok(svc)
    }

    /// Installs a probe the health report pulls filesystem retry
    /// statistics from (typically `RetryFs::stats` on the handle the
    /// service writes through).
    pub fn with_retry_probe(mut self, probe: Arc<dyn Fn() -> RetryStats + Send + Sync>) -> Self {
        self.retry_probe = Some(probe);
        self
    }

    /// One supervised step of the worker state machine.
    ///
    /// Never panics and never returns an error: worker panics and
    /// infrastructure failures are caught here, charged against the
    /// restart budget and answered with recovery. The return value says
    /// whether progress was made, the service is idle (all state
    /// durable), cancellation was observed, or the service is failed.
    pub fn tick(&mut self) -> TickOutcome {
        if self.status == ServiceStatus::Failed {
            return TickOutcome::Failed;
        }
        // lint:allow(L8) reason=invariants restored by worker_failed -> recover(), which rebuilds worker state from the durable store before the next tick
        match catch_unwind(AssertUnwindSafe(|| self.tick_inner())) {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(e)) => self.worker_failed(format!("worker error: {e}")),
            Err(payload) => {
                self.worker_failed(format!("worker panic: {}", panic_text(payload.as_ref())))
            }
        }
    }

    /// Ticks until the spool drains ([`DrainOutcome::Drained`]), the
    /// run is cancelled, the service fails, or `max_ticks` supervised
    /// steps have run.
    pub fn run_drain(&mut self, max_ticks: u64) -> DrainOutcome {
        for _ in 0..max_ticks {
            match self.tick() {
                TickOutcome::Worked => {}
                TickOutcome::Idle => return DrainOutcome::Drained,
                TickOutcome::Cancelled => return DrainOutcome::Cancelled,
                TickOutcome::Failed => return DrainOutcome::Failed,
            }
        }
        DrainOutcome::TicksExhausted
    }

    /// The current query snapshot. Cheap; safe to call from other
    /// threads holding a reference to the cell via [`Service::queries`].
    pub fn query(&self) -> Arc<QueryView> {
        self.cell.load()
    }

    /// The snapshot cell itself, for handing to reader threads.
    pub fn queries(&self) -> &SnapshotCell {
        &self.cell
    }

    /// Current coarse status.
    pub fn status(&self) -> ServiceStatus {
        self.status
    }

    /// Whether `id` is already journaled — the idempotent-replay index
    /// the network layer consults to acknowledge duplicate sends
    /// without re-applying.
    pub fn is_applied(&self, id: &str) -> bool {
        self.applied_ids.contains_key(id)
    }

    /// Size of the in-memory idempotent-replay index. With a retention
    /// window configured this is bounded O(window); without one it
    /// grows with history (the keep-forever contract).
    pub fn replay_index_len(&self) -> usize {
        self.applied_ids.len()
    }

    /// A health report: counters plus, when a probe is installed,
    /// storage retry statistics.
    pub fn health(&self) -> Health {
        let mut h = self.health.clone();
        h.retry = self.retry_probe.as_ref().map(|p| p());
        h
    }

    /// The cancellation token the service polls; cancel it (or any
    /// clone) to request a graceful shutdown.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The underlying clustering session (read-only).
    pub fn session(&self) -> &IncrementalNeat<'n> {
        &self.session
    }

    /// A deterministic digest of the retained clustering state — what
    /// the chaos harness compares between an interrupted-and-recovered
    /// run and an uninterrupted one.
    pub fn state_fingerprint(&self) -> String {
        format!(
            "batches={};watermark={:?};flows={:?};resilience={:?}",
            self.session.batches(),
            self.session.watermark(),
            self.session.flow_clusters(),
            self.session.resilience()
        )
    }

    /// The worker body. Any `Err` or panic escaping this is handled by
    /// the supervisor in [`Service::tick`].
    fn tick_inner(&mut self) -> Result<TickOutcome, SvcError> {
        if self.cancel.is_cancelled() {
            // Graceful shutdown: make pending applied state durable,
            // leave the rest of the spool for the next run.
            if self.batches_since_ckpt > 0 {
                self.checkpoint_now()?;
            }
            return Ok(TickOutcome::Cancelled);
        }

        // A failed journal compaction is retried on a tick-counted
        // backoff; serving never stops while the retry is pending.
        let compaction_ticked = self.tick_compaction_retry();

        self.hooks.at(Edge::SpoolScan);
        let pending = spool::scan(&self.fs, &self.cfg.spool_dir)
            .map_err(|e| SvcError::io("scan spool", e))?;
        self.queue.begin_scan();
        for id in &pending {
            if self.queue.contains(id) {
                continue;
            }
            if self.applied_ids.contains_key(id) {
                // Already journaled: the acknowledgement (spool file
                // removal) was lost in a crash. Skip, never re-apply.
                spool::remove(&self.fs, &self.cfg.spool_dir, id)
                    .map_err(|e| SvcError::io("remove duplicate batch", e))?;
                self.health.duplicates_skipped += 1;
                continue;
            }
            match self.queue.offer(id) {
                Admission::Accepted => self.health.accepted += 1,
                Admission::Deferred => self.health.deferred += 1,
                Admission::Shed => {
                    if spool::quarantine(
                        &self.fs,
                        &self.cfg.spool_dir,
                        &self.cfg.quarantine_dir,
                        id,
                        "shed: deferral backlog over limit",
                    )
                    .map_err(|e| SvcError::io("quarantine shed batch", e))?
                    {
                        self.health.shed += 1;
                        self.mark_degraded();
                    } else {
                        // A racing writer withdrew the file between the
                        // scan and the move; nothing was shed.
                        self.health.spool_races += 1;
                    }
                }
            }
        }
        self.health.backpressure = self.queue.state();
        self.hooks.at(Edge::Admit);

        let Some(id) = self.queue.pop() else {
            if self.batches_since_ckpt > 0 {
                // Idle with undurable batches: take the final
                // checkpoint inside the supervised tick so a crash here
                // is part of the chaos matrix too.
                self.checkpoint_now()?;
                return Ok(TickOutcome::Worked);
            }
            if compaction_ticked || self.compaction_pending {
                // Keep driving the compaction retry to completion;
                // applied state is already durable, so this only delays
                // the Idle verdict, never correctness.
                return Ok(TickOutcome::Worked);
            }
            // Wall-clock retention for quiet streams: with
            // `idle_expiry` on, an idle tick may still advance the
            // watermark and fire drift events.
            if self.idle_expire()? {
                return Ok(TickOutcome::Worked);
            }
            return Ok(TickOutcome::Idle);
        };

        let batch = match spool::load(&self.fs, &self.cfg.spool_dir, &id) {
            Ok(b) => b,
            Err(spool::LoadError::Vanished) => {
                // ENOENT between readdir and open: the writer renamed or
                // removed the file after the scan. Not a batch failure —
                // drop any attempt count and move on.
                self.attempts.remove(&id);
                self.health.spool_races += 1;
                return Ok(TickOutcome::Worked);
            }
            Err(spool::LoadError::Bad(detail)) => {
                self.batch_failure(&id, &detail);
                return Ok(TickOutcome::Worked);
            }
        };

        self.current = Some(id.clone());
        self.hooks.at(Edge::IngestStart);
        let ctl = self.batch_control();
        let outcome = self
            .session
            .ingest_controlled(&batch, self.cfg.policy, &ctl);
        self.current = None;
        self.ops_since_ckpt = self.ops_since_ckpt.saturating_add(ctl.ops());
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                // Config was validated at open; this is a strict-policy
                // data error attributable to the batch.
                self.batch_failure(&id, &format!("ingest: {e}"));
                return Ok(TickOutcome::Worked);
            }
        };

        if !outcome.applied {
            if outcome.interrupt.is_some_and(|i| i == Interrupt::Cancelled) {
                // Shutdown request mid-batch; state untouched, the
                // batch stays in the spool for the next run.
                if self.batches_since_ckpt > 0 {
                    self.checkpoint_now()?;
                }
                return Ok(TickOutcome::Cancelled);
            }
            let why = outcome
                .interrupt
                .map_or("interrupted before apply", Interrupt::name);
            self.batch_failure(&id, &format!("budget: {why}"));
            return Ok(TickOutcome::Worked);
        }

        self.hooks.at(Edge::Applied);
        // Apply → journal. A failed append opens the divergence window
        // documented on `IncrementalNeat::ingest_logged`: memory is
        // ahead of disk. Repair immediately with an emergency
        // checkpoint; if that also fails, the supervisor restores from
        // the store (the batch is still in the spool and is retried).
        if let Err(e) = self
            .store
            .log_batch(self.session.batches() as u64, &batch, self.cfg.policy)
        {
            self.health.journal_repairs += 1;
            self.health.last_error = Some(format!(
                "journal append for `{id}` failed ({e}); repairing via checkpoint"
            ));
            self.mark_degraded();
            self.checkpoint_now()?;
        }
        self.hooks.at(Edge::Journaled);

        let batch_max_time = batch
            .trajectories()
            .iter()
            .map(|t| t.last().time)
            .fold(f64::NEG_INFINITY, f64::max);
        self.applied_ids.insert(
            id.clone(),
            AppliedMeta {
                seq: self.session.batches() as u64,
                max_time: batch_max_time,
            },
        );
        self.attempts.remove(&id);
        spool::remove(&self.fs, &self.cfg.spool_dir, &id)
            .map_err(|e| SvcError::io("remove acknowledged batch", e))?;
        self.hooks.at(Edge::SpoolRemoved);

        // Re-anchor idle-stream retention at the newest observation
        // ever applied: wall time elapsed on later idle ticks counts
        // from here. `max` keeps the anchor monotone when batches
        // arrive out of observation order.
        if self.cfg.idle_expiry {
            if let Some(clock) = &self.clock {
                let base = self
                    .idle_anchor
                    .map_or(batch_max_time, |(b, _)| b.max(batch_max_time));
                if base.is_finite() {
                    self.idle_anchor = Some((base, clock.now_millis()));
                }
            }
        }

        let mut degraded = outcome.interrupt.is_some() || !outcome.degradation.steps.is_empty();
        if degraded {
            self.health.degraded_batches += 1;
            self.mark_degraded();
        }

        // Retention: advance the watermark to `newest observation -
        // window`. Expiry is reclamation, not correctness: a refinement
        // error here degrades the service but must not fail the
        // already-applied batch.
        let mut clusters = outcome.clusters;
        let mut drift = Vec::new();
        if let Some(window) = self.cfg.window {
            match self.advance_watermark(batch_max_time - window)? {
                Ok(Some(exp)) => (clusters, drift) = (exp.clusters, exp.events),
                Ok(None) => {}
                Err(e) => {
                    self.health.last_error = Some(format!("expiry failed: {e}"));
                    self.mark_degraded();
                    degraded = true;
                }
            }
        }

        self.publish(clusters, degraded, drift);
        self.hooks.at(Edge::Published);
        self.health.applied += 1;
        self.batches_since_ckpt += 1;
        self.batches_since_compact += 1;

        if self.batches_since_ckpt >= self.cfg.checkpoint_every_batches
            || self.ops_since_ckpt >= self.cfg.checkpoint_every_ops
        {
            self.checkpoint_now()?;
        }
        if let Some(every) = self.cfg.compact_every_batches {
            if every > 0 && self.batches_since_compact >= every {
                self.batches_since_compact = 0;
                self.attempt_compaction();
            }
        }
        Ok(TickOutcome::Worked)
    }

    /// The idle-stream watermark advance ([`SvcConfig::idle_expiry`]).
    ///
    /// Extrapolates the stream's observation time from the injected
    /// wall clock (one wall-clock second = one trajectory-time unit,
    /// counted from the newest observation applied) and expires
    /// t-fragments that fall out of the window, exactly like the
    /// batch-path retention block. Returns `true` when state changed
    /// (the tick counts as [`TickOutcome::Worked`]).
    ///
    /// Two properties keep this safe to call every idle tick:
    ///
    /// * **Journal discipline** — the checkpoint journal is gapless in
    ///   the operation-sequence domain, so every watermark advance must
    ///   be journaled immediately. The advance is therefore gated on
    ///   [`IncrementalNeat::oldest_retained_time`]: the watermark only
    ///   moves when it expires at least one fragment, bounding idle
    ///   journal appends by the retained-fragment count instead of the
    ///   poll frequency — and letting a drain loop reach its Idle
    ///   verdict once the stream has fully quiesced.
    /// * **Anchored extrapolation** — with no anchor yet (fresh or
    ///   freshly recovered session), the first idle observation anchors
    ///   at the recovered watermark's implied observation time
    ///   (`watermark + window`) so wall time starts counting from now,
    ///   never from before a restart.
    fn idle_expire(&mut self) -> Result<bool, SvcError> {
        if !self.cfg.idle_expiry {
            return Ok(false);
        }
        let (Some(window), Some(clock)) = (self.cfg.window, self.clock.as_ref()) else {
            return Ok(false);
        };
        let now = clock.now_millis();
        let Some((base, anchor_ms)) = self.idle_anchor else {
            self.idle_anchor = self.session.watermark().map(|w| (w + window, now));
            return Ok(false);
        };
        let elapsed_s = (now.saturating_sub(anchor_ms)) as f64 / 1000.0;
        let target = base + elapsed_s - window;
        let expirable = self
            .session
            .oldest_retained_time()
            .is_some_and(|oldest| oldest < target);
        if !expirable {
            return Ok(false);
        }
        match self.advance_watermark(target)? {
            Ok(Some(exp)) => {
                self.health.idle_expiries += 1;
                self.publish(exp.clusters, false, exp.events);
                self.hooks.at(Edge::Published);
                // Count toward the checkpoint cadence so a long-idle
                // stream still snapshots (and compacts) what it expired.
                self.batches_since_ckpt += 1;
                Ok(true)
            }
            Ok(None) => Ok(false),
            Err(e) => {
                // Reclamation, not correctness: degrade and keep serving.
                self.health.last_error = Some(format!("idle expiry failed: {e}"));
                self.mark_degraded();
                Ok(false)
            }
        }
    }

    /// The one watermark advance (batch tick, idle tick, recovery):
    /// expires state before a finite `target` ahead of the watermark,
    /// accounts it in [`Health`] and journals it. Like the batch path it
    /// mutates memory first, so a failed append gets the same
    /// emergency-checkpoint repair, whose failure is the outer error.
    /// A refinement error is the inner one, left to the caller's policy.
    fn advance_watermark(
        &mut self,
        target: f64,
    ) -> Result<Result<Option<ExpiryOutcome>, NeatError>, SvcError> {
        if !target.is_finite() || self.session.watermark().is_some_and(|w| target <= w) {
            return Ok(Ok(None));
        }
        let exp = match self.session.expire_before(target) {
            Ok(exp) if exp.advanced => exp,
            Ok(_) => return Ok(Ok(None)),
            Err(e) => return Ok(Err(e)),
        };
        self.health.expiries += 1;
        self.health.expired_fragments += exp.expired_fragments as u64;
        self.health.drift.absorb(&exp.events);
        if let Err(e) = self.store.log_expiry(self.session.batches() as u64, target) {
            self.health.journal_repairs += 1;
            self.health.last_error = Some(format!(
                "expiry journal append failed ({e}); repairing via checkpoint"
            ));
            self.mark_degraded();
            self.checkpoint_now()?;
        }
        Ok(Ok(Some(exp)))
    }

    /// Swaps in a new query view of the session with `clusters`.
    fn publish(&self, clusters: Vec<TrajectoryCluster>, degraded: bool, drift: Vec<DriftEvent>) {
        self.cell.publish(QueryView {
            epoch: 0, // stamped by the cell
            batches: self.session.batches(),
            flows: self.session.flow_clusters().len(),
            clusters,
            degraded,
            watermark: self.session.watermark(),
            live_fragments: self.session.live_fragments(),
            drift,
        });
    }

    /// Builds the per-batch [`Control`] from the configured budget,
    /// deadline and injected clock, observing the service token.
    fn batch_control(&self) -> Control {
        let mut budget = RunBudget::unlimited();
        if let Some(ops) = self.cfg.batch_max_ops {
            budget = budget.with_max_ops(ops);
        }
        if let Some(ms) = self.cfg.batch_deadline_ms {
            budget = budget.with_deadline_ms(ms);
        }
        let mut ctl =
            Control::new(budget, self.cancel.observer()).with_overrun(OverrunMode::Degrade);
        if let Some(clock) = &self.clock {
            ctl = ctl.with_clock(Arc::clone(clock));
        }
        ctl
    }

    /// Path of the durable applied-ID index (see
    /// [`persist_applied_ids`](Self::persist_applied_ids)).
    fn applied_ids_path(&self) -> std::path::PathBuf {
        std::path::Path::new(&self.cfg.state_dir).join("applied.ids")
    }

    /// Persists the full idempotent-replay index.
    ///
    /// The checkpoint journal alone cannot carry it: retention prunes
    /// journal records older than the retained snapshots, and with them
    /// the batch IDs a network client may re-send arbitrarily later
    /// (`kill -9` the daemon, restart, replay your whole outbox). This
    /// index is rewritten atomically *before* every snapshot — and
    /// therefore before any pruning — so at every crash point the union
    /// of journal IDs and this file covers every batch ever applied.
    ///
    /// Format (`AIDX2`): one journal-framed record per entry, torn
    /// tails tolerated. The first record is the literal header tag;
    /// every following record is `str id, u64 seq, f64 max_time`. A
    /// file without the header is the pre-retention format (bare UTF-8
    /// IDs) and loads with conservative metadata that never prunes.
    fn persist_applied_ids(&self) -> Result<(), SvcError> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&journal::encode_record(APPLIED_IDS_HEADER));
        for (id, meta) in &self.applied_ids {
            let mut enc = Enc::with_capacity(id.len() + 20);
            enc.str(id);
            enc.u64(meta.seq);
            enc.f64(meta.max_time);
            buf.extend_from_slice(&journal::encode_record(&enc.into_bytes()));
        }
        write_atomic(&self.fs, &self.applied_ids_path(), &buf)
            .map_err(|e| SvcError::Checkpoint(CheckpointError::Durability(e)))
    }

    /// Reloads the applied-ID index persisted by
    /// [`persist_applied_ids`](Self::persist_applied_ids), in either
    /// format; IDs that are not valid UTF-8 cannot match any batch and
    /// are impossible to write, so they are reported as corruption.
    fn load_applied_ids(&self) -> Result<Vec<(String, AppliedMeta)>, SvcError> {
        let scan = journal::read_journal(&self.fs, &self.applied_ids_path())
            .map_err(|e| SvcError::Checkpoint(CheckpointError::Durability(e)))?;
        let mut records = scan.records.into_iter();
        let first = records.next();
        let versioned = first.as_deref() == Some(APPLIED_IDS_HEADER);
        let mut ids = Vec::new();
        if versioned {
            for rec in records {
                let mut dec = Dec::new(&rec);
                let entry =
                    (|| -> Result<(String, AppliedMeta), neat_durability::DurabilityError> {
                        let id = dec.str("applied-id")?.to_string();
                        let seq = dec.u64("applied-id seq")?;
                        let max_time = dec.f64("applied-id max-time")?;
                        dec.expect_exhausted("applied-id record")?;
                        Ok((id, AppliedMeta { seq, max_time }))
                    })()
                    .map_err(|e| SvcError::Checkpoint(CheckpointError::Durability(e)))?;
                ids.push(entry);
            }
        } else {
            // Legacy index: IDs only. Unknown seq/max_time means these
            // entries are never pruned — correctness over reclamation.
            for rec in first.into_iter().chain(records) {
                match String::from_utf8(rec) {
                    Ok(id) => ids.push((
                        id,
                        AppliedMeta {
                            seq: 0,
                            max_time: f64::INFINITY,
                        },
                    )),
                    Err(_) => {
                        return Err(SvcError::Pipeline(
                            "applied-id index record is not UTF-8".to_string(),
                        ))
                    }
                }
            }
        }
        Ok(ids)
    }

    /// Retires replay-index entries that can never again change state.
    ///
    /// An ID is dropped only when **both** hold:
    ///
    /// * `seq <= retained_floor` — its journal record is behind every
    ///   retained snapshot, so compaction has dropped (or may drop) it
    ///   and recovery can no longer re-derive the ID from the journal;
    /// * `max_time < watermark` — every observation in the batch is
    ///   behind the watermark, so re-ingesting it is a clustering no-op
    ///   (ingest admits no flow that ends before the watermark).
    ///
    /// Together: a duplicate send of a dropped ID re-journals but
    /// cannot change clusters — the exactly-once guarantee narrows to
    /// exactly-once *effect*, which is what bounds the index at
    /// O(window) instead of O(history). With no watermark (no window
    /// configured) nothing is ever dropped — the pre-retention
    /// keep-forever behavior.
    fn prune_applied_ids(&mut self) -> Result<(), SvcError> {
        let Some(watermark) = self.session.watermark() else {
            return Ok(());
        };
        let floor = self.store.retained_floor()?;
        self.applied_ids
            .retain(|_, meta| meta.seq > floor || meta.max_time >= watermark);
        Ok(())
    }

    /// Writes a snapshot of the full retained state, resets the cadence
    /// counters and accounts the best-effort retention outcome.
    fn checkpoint_now(&mut self) -> Result<(), SvcError> {
        self.hooks.at(Edge::CheckpointStart);
        // Index first: `save_checkpoint` prunes the journal, and every
        // pruned ID must already be durable here (or the batch could be
        // applied twice on a post-restart duplicate send). Pruning the
        // index itself uses the floor of the *previous* checkpoint —
        // conservative, since this one has not landed yet.
        self.prune_applied_ids()?;
        self.persist_applied_ids()?;
        let report = self.session.save_checkpoint(&self.store)?;
        self.hooks.at(Edge::CheckpointDone);
        self.health.checkpoints += 1;
        self.batches_since_ckpt = 0;
        self.ops_since_ckpt = 0;
        if report.compaction.is_some() {
            self.health.compactions += 1;
            self.compaction_pending = false;
            self.compaction_attempt = 0;
            self.compaction_hold_ticks = 0;
        }
        if let Some(err) = report.error {
            self.compaction_failed(&err.to_string());
        }
        Ok(())
    }

    /// One immediate journal-compaction attempt (forced cadence or a
    /// due retry); failure schedules the next backoff step.
    fn attempt_compaction(&mut self) {
        match self.store.compact_journal() {
            Ok(_) => {
                self.health.compactions += 1;
                self.compaction_pending = false;
                self.compaction_attempt = 0;
                self.compaction_hold_ticks = 0;
            }
            Err(e) => self.compaction_failed(&e.to_string()),
        }
    }

    /// Accounts a failed compaction and schedules a jittered retry. The
    /// store is built so a failed compaction leaves the old segments
    /// fully readable — the service keeps serving, merely degraded.
    fn compaction_failed(&mut self, err: &str) {
        self.health.compaction_failures += 1;
        self.health.last_error = Some(format!(
            "journal compaction failed ({err}); serving from uncompacted segments, retry scheduled"
        ));
        self.mark_degraded();
        let delay = self.compaction_backoff.next_delay(self.compaction_attempt);
        self.compaction_attempt = self.compaction_attempt.saturating_add(1);
        // One supervised tick ~ one poll interval; translate the
        // backoff delay into held ticks (at least one).
        self.compaction_hold_ticks = (delay.as_millis() as u64 / 10).max(1);
        self.compaction_pending = true;
    }

    /// Counts down the compaction-retry hold and fires the attempt when
    /// it reaches zero. Returns whether any retry work happened.
    fn tick_compaction_retry(&mut self) -> bool {
        if !self.compaction_pending {
            return false;
        }
        if self.compaction_hold_ticks > 0 {
            self.compaction_hold_ticks -= 1;
            return true;
        }
        self.attempt_compaction();
        true
    }

    /// Supervisor response to a worker panic or infrastructure error:
    /// charge the restart budget, recover from the store, then account
    /// the failure to the in-flight batch (if any) for poison tracking.
    fn worker_failed(&mut self, msg: String) -> TickOutcome {
        self.health.last_error = Some(msg);
        let failed_batch = self.current.take();
        loop {
            if self.health.restarts >= u64::from(self.cfg.max_restarts) {
                self.status = ServiceStatus::Failed;
                return TickOutcome::Failed;
            }
            self.health.restarts += 1;
            // lint:allow(L8) reason=invariants restored by retrying recover() under the restart budget; recover rebuilds all worker state from the durable store
            match catch_unwind(AssertUnwindSafe(|| self.recover())) {
                Ok(Ok(())) => break,
                Ok(Err(e)) => {
                    self.health.last_error = Some(format!("recovery failed: {e}"));
                }
                Err(payload) => {
                    self.health.last_error =
                        Some(format!("recovery panic: {}", panic_text(payload.as_ref())));
                }
            }
        }
        if let Some(id) = failed_batch {
            self.batch_failure(&id, "crashed the worker");
        }
        TickOutcome::Worked
    }

    /// Restores in-memory state from the checkpoint store (snapshot +
    /// journal replay; a store with no checkpoint yet yields a fresh
    /// session), reloads the idempotent-replay index, republishes the
    /// query view and fires [`Edge::Recovered`].
    fn recover(&mut self) -> Result<(), SvcError> {
        self.queue.clear();
        self.current = None;
        self.session = match IncrementalNeat::resume(self.net, self.cfg.neat, &self.store) {
            Ok((session, _report)) => session,
            Err(CheckpointError::NoCheckpoint { .. }) => {
                IncrementalNeat::new(self.net, self.cfg.neat)
            }
            Err(e) => return Err(SvcError::Checkpoint(e)),
        };
        // The replay index is the union of the journal (everything
        // since the oldest retained snapshot) and the persisted index
        // (everything pruned before it) — together, every batch whose
        // replay could still change state, so duplicate sends stay
        // duplicates across restarts. The journal entry wins when both
        // exist: it carries the authoritative sequence.
        self.applied_ids = self
            .store
            .journaled_batch_index()?
            .into_iter()
            .map(|(seq, id, max_time)| (id, AppliedMeta { seq, max_time }))
            .collect();
        for (id, meta) in self.load_applied_ids()? {
            self.applied_ids.entry(id).or_insert(meta);
        }
        // Watermark catch-up: a crash between a batch's journal append
        // and its expiry append leaves the batch durable but its
        // watermark advance lost — with no further traffic the restarted
        // process would retain state the uninterrupted run expired.
        // Re-derive the target from the replay index (the largest
        // observation time of any applied batch) and jump to it; a jump
        // is equivalent to the step-by-step expiries it replaces because
        // expiry composes monotonically (see `tests/prop_retention.rs`).
        if let Some(window) = self.cfg.window {
            let max_observed = self
                .applied_ids
                .values()
                .map(|m| m.max_time)
                .filter(|t| t.is_finite())
                .fold(f64::NEG_INFINITY, f64::max);
            self.advance_watermark(max_observed - window)?
                .map_err(|e| SvcError::Pipeline(format!("recovery expiry: {e}")))?;
        }
        // Resume replays the journal, so memory and disk agree again.
        self.batches_since_ckpt = 0;
        self.ops_since_ckpt = 0;
        // A pending compaction retry does not survive the restart; the
        // next checkpoint's retention pass re-detects the backlog.
        self.batches_since_compact = 0;
        self.compaction_pending = false;
        self.compaction_attempt = 0;
        self.compaction_hold_ticks = 0;
        let clusters = self
            .session
            .current_clusters()
            .map_err(|e| SvcError::Pipeline(format!("rebuild query view: {e}")))?;
        self.publish(clusters, false, Vec::new());
        self.hooks.at(Edge::Recovered);
        Ok(())
    }

    /// Counts a batch-attributable failure; at
    /// [`poison_after`](SvcConfig::poison_after) the batch is moved to
    /// quarantine so it cannot wedge the queue.
    fn batch_failure(&mut self, id: &str, why: &str) {
        if self.applied_ids.contains_key(id) {
            // The batch actually landed (e.g. a crash after the journal
            // append); reconciliation skips it, nothing failed.
            return;
        }
        let n = {
            let e = self.attempts.entry(id.to_string()).or_insert(0);
            *e += 1;
            *e
        };
        self.health.last_error = Some(format!("batch `{id}` failed (attempt {n}): {why}"));
        if n >= self.cfg.poison_after {
            match spool::quarantine(
                &self.fs,
                &self.cfg.spool_dir,
                &self.cfg.quarantine_dir,
                id,
                &format!("poison after {n} failures: {why}"),
            ) {
                Ok(true) => {
                    self.attempts.remove(id);
                    self.health.poisoned += 1;
                    self.mark_degraded();
                }
                Ok(false) => {
                    // The file vanished before the move — a racing
                    // writer took it back; nothing poisoned.
                    self.attempts.remove(id);
                    self.health.spool_races += 1;
                }
                Err(e) => {
                    // Leave the file and the count; the next failure
                    // retries the quarantine move.
                    self.health.last_error =
                        Some(format!("quarantining poison batch `{id}` failed: {e}"));
                }
            }
        }
    }

    fn mark_degraded(&mut self) {
        if self.status == ServiceStatus::Running {
            self.status = ServiceStatus::Degraded;
        }
    }
}

/// Best-effort text of a panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_core::NeatConfig;
    use neat_durability::fs::MemFs;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::{Point, RoadLocation, SegmentId};
    use neat_traj::{Dataset, Trajectory, TrajectoryId};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn net() -> RoadNetwork {
        chain_network(6, 100.0, 13.9)
    }

    fn cfg() -> SvcConfig {
        let mut c = SvcConfig::new("/spool", "/state", "/quarantine");
        c.neat = NeatConfig {
            min_card: 1,
            ..NeatConfig::default()
        };
        c.checkpoint_every_batches = 2;
        c
    }

    fn batch(seed: u64) -> Dataset {
        let mut d = Dataset::new("b");
        let off = (seed % 40) as f64;
        d.push(
            Trajectory::new(
                TrajectoryId::new(seed),
                vec![
                    RoadLocation::new(SegmentId::new(0), Point::new(10.0 + off, 0.0), 0.0),
                    RoadLocation::new(SegmentId::new(1), Point::new(150.0, 0.0), 30.0),
                    RoadLocation::new(SegmentId::new(2), Point::new(250.0, 0.0), 60.0),
                ],
            )
            .unwrap(),
        );
        d
    }

    fn seed_spool(fs: &MemFs, n: u64) {
        fs.create_dir_all(Path::new("/spool")).unwrap();
        for i in 0..n {
            spool::submit(
                fs,
                Path::new("/spool"),
                &format!("b-{i:03}.batch"),
                &batch(i),
            )
            .unwrap();
        }
    }

    use std::path::Path;

    #[test]
    fn drains_spool_and_checkpoints() {
        let network = net();
        let fs = MemFs::new();
        seed_spool(&fs, 3);
        let mut svc = Service::open(&network, cfg(), fs.clone()).unwrap();
        assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
        let h = svc.health();
        assert_eq!(h.applied, 3);
        assert_eq!(h.accepted, 3);
        assert_eq!(h.poisoned, 0);
        assert!(h.checkpoints >= 1, "cadence + final checkpoint expected");
        assert_eq!(svc.status(), ServiceStatus::Running);
        assert_eq!(svc.query().batches, 3);
        assert!(spool::scan(&fs, Path::new("/spool")).unwrap().is_empty());
    }

    #[test]
    fn restart_resumes_identical_state() {
        let network = net();
        let fs = MemFs::new();
        seed_spool(&fs, 4);
        let reference = {
            let mut svc = Service::open(&network, cfg(), fs.clone()).unwrap();
            assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
            svc.state_fingerprint()
        };
        // A second service over the same store sees the drained spool
        // and resumes to the exact same state.
        let svc = Service::open(&network, cfg(), fs).unwrap();
        assert_eq!(svc.state_fingerprint(), reference);
        assert_eq!(svc.query().batches, 4);
    }

    #[test]
    fn replay_index_survives_journal_pruning_across_restarts() {
        // Regression: checkpoint retention prunes the journal past the
        // oldest retained snapshot, and `journaled_batch_index` alone
        // then forgets early batches — a duplicate send after restart
        // would re-apply them. The persisted applied-id index must keep
        // every ID alive forever.
        let network = net();
        let fs = MemFs::new();
        let mut cfg_tight = cfg();
        cfg_tight.checkpoint_every_batches = 1; // checkpoint (and prune) per batch
        seed_spool(&fs, 5);
        let reference = {
            let mut svc = Service::open(&network, cfg_tight.clone(), fs.clone()).unwrap();
            assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
            for i in 0..5 {
                assert!(svc.is_applied(&format!("b-{i:03}.batch")));
            }
            svc.state_fingerprint()
        };
        // Re-submit every batch to the spool of a restarted service —
        // the network layer's "replay your whole outbox" pattern. All
        // must be recognized as duplicates; none may re-apply.
        let mut svc = Service::open(&network, cfg_tight, fs.clone()).unwrap();
        for i in 0..5 {
            assert!(
                svc.is_applied(&format!("b-{i:03}.batch")),
                "batch b-{i:03} forgotten after pruning + restart"
            );
        }
        seed_spool(&fs, 5);
        assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
        assert_eq!(svc.health().applied, 0, "a pruned-id batch re-applied");
        assert_eq!(svc.health().duplicates_skipped, 5);
        assert_eq!(svc.state_fingerprint(), reference);
        assert_eq!(svc.query().batches, 5);
    }

    #[test]
    fn malformed_batch_is_poisoned_after_two_attempts() {
        let network = net();
        let fs = MemFs::new();
        fs.create_dir_all(Path::new("/spool")).unwrap();
        fs.write(Path::new("/spool/garbage.batch"), b"not,a,real\nbatch")
            .unwrap();
        let mut svc = Service::open(&network, cfg(), fs.clone()).unwrap();
        assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
        let h = svc.health();
        assert_eq!(h.poisoned, 1);
        assert_eq!(svc.status(), ServiceStatus::Degraded);
        assert_eq!(
            spool::scan(&fs, Path::new("/quarantine")).unwrap(),
            vec!["garbage.batch".to_string()]
        );
        let log = String::from_utf8(
            fs.read(&Path::new("/quarantine").join(spool::QUARANTINE_LOG))
                .unwrap(),
        )
        .unwrap();
        assert!(
            log.contains("garbage.batch\tpoison after 2 failures"),
            "{log}"
        );
    }

    #[test]
    fn overload_sheds_to_quarantine() {
        let network = net();
        let fs = MemFs::new();
        seed_spool(&fs, 6);
        let mut c = cfg();
        c.queue_capacity = 2;
        c.shed_backlog = 1;
        let mut svc = Service::open(&network, c, fs.clone()).unwrap();
        // First tick: 2 accepted, 1 deferred, 3 shed.
        assert_eq!(svc.tick(), TickOutcome::Worked);
        let h = svc.health();
        assert_eq!(h.accepted, 2);
        assert_eq!(h.deferred, 1);
        assert_eq!(h.shed, 3);
        assert_eq!(svc.status(), ServiceStatus::Degraded);
        assert_eq!(spool::scan(&fs, Path::new("/quarantine")).unwrap().len(), 3);
        // Draining still applies everything that was not shed.
        assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
        assert_eq!(svc.health().applied, 3);
    }

    #[test]
    fn cancel_checkpoints_and_stops() {
        let network = net();
        let fs = MemFs::new();
        seed_spool(&fs, 3);
        let mut c = cfg();
        c.checkpoint_every_batches = 100; // only the cancel flush
        let mut svc = Service::open(&network, c.clone(), fs.clone()).unwrap();
        assert_eq!(svc.tick(), TickOutcome::Worked);
        svc.cancel_token().cancel();
        assert_eq!(svc.tick(), TickOutcome::Cancelled);
        assert_eq!(svc.health().checkpoints, 1, "cancel flushed a checkpoint");
        // A fresh service (new token) finishes the job with no loss.
        let mut svc2 = Service::open(&network, c, fs).unwrap();
        assert_eq!(svc2.run_drain(64), DrainOutcome::Drained);
        assert_eq!(svc2.query().batches, 3);
    }

    /// Hook that panics the first time it sees the configured edge.
    struct PanicOnce {
        edge: Edge,
        left: AtomicU64,
    }

    impl FaultHook for PanicOnce {
        fn at(&self, edge: Edge) {
            if edge == self.edge
                && self
                    .left
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
            {
                panic!("injected fault at {}", edge.name());
            }
        }
    }

    #[test]
    fn supervisor_restarts_after_injected_panic() {
        let network = net();
        let fs = MemFs::new();
        seed_spool(&fs, 3);
        let reference = {
            let mut svc = Service::open(&network, cfg(), fs.clone()).unwrap();
            assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
            svc.state_fingerprint()
        };

        let fs2 = MemFs::new();
        seed_spool(&fs2, 3);
        let hook = Arc::new(PanicOnce {
            edge: Edge::Journaled,
            left: AtomicU64::new(1),
        });
        let mut svc =
            Service::open_with(&network, cfg(), fs2, hook, None, CancelToken::new()).unwrap();
        assert_eq!(svc.run_drain(128), DrainOutcome::Drained);
        let h = svc.health();
        assert_eq!(h.restarts, 1);
        assert_eq!(h.poisoned, 0, "applied batch must not be poisoned");
        assert_eq!(svc.state_fingerprint(), reference);
    }

    /// Injected racing writer: removes one spool file right after the
    /// admission scan — modelling a producer that renames/withdraws the
    /// file between the service's `readdir` and `open`.
    struct StealOnce {
        fs: MemFs,
        victim: std::path::PathBuf,
        left: AtomicU64,
    }

    impl FaultHook for StealOnce {
        fn at(&self, edge: Edge) {
            if edge == Edge::Admit
                && self
                    .left
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
            {
                self.fs.remove_file(&self.victim).unwrap();
            }
        }
    }

    #[test]
    fn racing_writer_removal_is_tolerated_not_poisoned() {
        let network = net();
        let fs = MemFs::new();
        seed_spool(&fs, 3);
        // Partial handoffs and dotfiles sit in the spool the whole time;
        // they must never be treated as batches.
        fs.write(Path::new("/spool/b-009.batch.tmp"), b"half-written")
            .unwrap();
        fs.write(Path::new("/spool/.lock"), b"editor droppings")
            .unwrap();
        let hook = Arc::new(StealOnce {
            fs: fs.clone(),
            victim: Path::new("/spool").join("b-000.batch"),
            left: AtomicU64::new(1),
        });
        let mut svc =
            Service::open_with(&network, cfg(), fs.clone(), hook, None, CancelToken::new())
                .unwrap();
        assert_eq!(svc.run_drain(64), DrainOutcome::Drained);
        let h = svc.health();
        assert_eq!(h.applied, 2, "the two surviving batches are applied");
        assert_eq!(h.spool_races, 1, "the vanished file is counted as a race");
        assert_eq!(h.poisoned, 0, "a race is not poison");
        assert_eq!(h.restarts, 0, "a race is not a worker failure");
        assert_eq!(
            svc.status(),
            ServiceStatus::Running,
            "a race does not degrade the service"
        );
        assert!(
            spool::scan(&fs, Path::new("/quarantine"))
                .unwrap()
                .is_empty(),
            "nothing reaches quarantine"
        );
        // The partials were left untouched.
        assert!(fs.exists(Path::new("/spool/b-009.batch.tmp")));
        assert!(fs.exists(Path::new("/spool/.lock")));
    }

    #[test]
    fn restart_budget_exhaustion_fails_the_service() {
        let network = net();
        let fs = MemFs::new();
        seed_spool(&fs, 2);
        let mut c = cfg();
        c.max_restarts = 0;
        let hook = Arc::new(PanicOnce {
            edge: Edge::Applied,
            left: AtomicU64::new(1),
        });
        let mut svc = Service::open_with(&network, c, fs, hook, None, CancelToken::new()).unwrap();
        assert_eq!(svc.run_drain(64), DrainOutcome::Failed);
        assert_eq!(svc.status(), ServiceStatus::Failed);
        assert_eq!(
            svc.tick(),
            TickOutcome::Failed,
            "failed service stays failed"
        );
    }
}
