//! Incremental (online) trajectory clustering.
//!
//! Section III-C of the paper motivates the Phase-3 design with real-time
//! clustering: "the first two phases of NEAT can be performed on each
//! newly arrived set of trajectories. The new flow clusters are then
//! merged with the available flow clusters to produce compact clustering
//! results."
//!
//! [`IncrementalNeat`] implements exactly that loop: each
//! [`IncrementalNeat::ingest`] call runs Phases 1–2 on the fresh batch
//! only, appends the resulting flow clusters to the retained set and
//! re-refines with the density-based Phase 3, once per change to the
//! retained flows. The partition found by the last `Complete` refinement
//! is kept as the view that reads and drift diffs reuse; a degraded one
//! is never kept. Clusters are built from it only when they are returned.

use crate::checkpoint::{self, CheckpointError, CheckpointStore, ResumeReport};
use crate::config::NeatConfig;
use crate::control::{ladder, Completeness, Degradation, PhaseStatus};
use crate::error::NeatError;
use crate::model::{FlowCluster, TrajectoryCluster};
use crate::phase1::ResilienceCounters;
use crate::phase3::{
    clusters_of, refine_flow_clusters_ctl, ControlledRefinement, Landmarks, Phase3Stats,
};
use crate::pipeline::{batch_phases, timed_phase, Mode};
use crate::retention::{self, ExpiryOutcome};
use neat_durability::fs::Fs;
use neat_rnet::RoadNetwork;
use neat_runctl::{Control, Interrupt};
use neat_traj::sanitize::ErrorPolicy;
use neat_traj::Dataset;

/// Result of [`IncrementalNeat::ingest_controlled`].
///
/// Ingestion under a [`Control`] is *atomic with respect to the retained
/// state*: the batch's Phases 1–2 run to the side, and only when both
/// complete uninterrupted is the state mutated (`applied == true`). An
/// interrupt during the batch phases leaves the session exactly as it was
/// — resuming with the same batch later reproduces the uninterrupted
/// result, preserving the replay-determinism guarantees of the
/// checkpoint journal.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// Current trajectory clusters. Empty when `applied` is false (the
    /// pre-batch view is available via
    /// [`IncrementalNeat::current_clusters`]); possibly degraded, and
    /// then not kept as the session's view, when `applied` is true.
    pub clusters: Vec<TrajectoryCluster>,
    /// Whether the batch was folded into the retained state. False only
    /// when Phase 1 or Phase 2 of the batch was interrupted.
    pub applied: bool,
    /// Per-phase completion status for this ingest call.
    pub completeness: Completeness,
    /// Degradation ladder record (requested mode is always [`Mode::Opt`]).
    pub degradation: Degradation,
    /// The first interrupt observed, if any.
    pub interrupt: Option<Interrupt>,
}

/// Online NEAT clusterer retaining flow clusters across batches.
///
/// ```
/// use neat_core::incremental::IncrementalNeat;
/// use neat_core::NeatConfig;
/// use neat_rnet::netgen::chain_network;
/// use neat_rnet::{RoadLocation, SegmentId, Point};
/// use neat_traj::{Dataset, Trajectory, TrajectoryId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = chain_network(4, 100.0, 13.9);
/// let config = NeatConfig { min_card: 1, ..NeatConfig::default() };
/// let mut online = IncrementalNeat::new(&net, config);
/// let mut batch = Dataset::new("batch1");
/// batch.push(Trajectory::new(TrajectoryId::new(1), vec![
///     RoadLocation::new(SegmentId::new(0), Point::new(50.0, 0.0), 0.0),
///     RoadLocation::new(SegmentId::new(1), Point::new(150.0, 0.0), 10.0),
/// ])?);
/// let clusters = online.ingest(&batch)?;
/// assert_eq!(clusters.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalNeat<'a> {
    net: &'a RoadNetwork,
    config: NeatConfig,
    flows: Vec<FlowCluster>,
    batches: usize,
    last_stats: Phase3Stats,
    resilience: ResilienceCounters,
    /// Logical-time retention watermark: every retained t-fragment has
    /// `last.time >= watermark`. `None` until the first expiry.
    watermark: Option<f64>,
    /// The partition of `flows` (indices per cluster) found by the last
    /// `Complete` refinement, if the flows have not changed since.
    view: Option<Vec<Vec<usize>>>,
    /// Phase 3's ALT landmarks: cold at `new` and `resume`, never
    /// persisted, and charged alike warm or cold.
    landmarks: Landmarks<'a>,
}

impl<'a> IncrementalNeat<'a> {
    /// Creates an online clusterer with no retained state.
    pub fn new(net: &'a RoadNetwork, config: NeatConfig) -> Self {
        IncrementalNeat {
            net,
            config,
            flows: Vec::new(),
            batches: 0,
            last_stats: Phase3Stats::default(),
            resilience: ResilienceCounters::default(),
            watermark: None,
            view: None,
            landmarks: Landmarks::new(net),
        }
    }

    /// Number of state-changing operations applied so far. Every ingest
    /// *and* every watermark advance counts one: this is the sequence
    /// domain of the checkpoint journal, so replay stays contiguous when
    /// expiry records are interleaved with batches.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// The current retention watermark, if any expiry has run.
    pub fn watermark(&self) -> Option<f64> {
        self.watermark
    }

    /// Number of t-fragments currently retained across all flows.
    pub fn live_fragments(&self) -> usize {
        self.flows.iter().map(FlowCluster::density).sum()
    }

    /// The earliest `last.time` among retained t-fragments — the first
    /// observation a watermark advance could expire — or `None` when
    /// nothing is retained. A watermark at or below this value is
    /// guaranteed to expire zero fragments, which lets idle-stream
    /// retention skip no-op advances (each advance is a journaled
    /// operation, so callers only want ones that reclaim something).
    pub fn oldest_retained_time(&self) -> Option<f64> {
        self.flows
            .iter()
            .flat_map(|flow| flow.members())
            .flat_map(|member| member.fragments())
            .map(|f| f.last.time)
            .min_by(f64::total_cmp)
    }

    /// The retained flow clusters (across all batches).
    pub fn flow_clusters(&self) -> &[FlowCluster] {
        &self.flows
    }

    /// Phase-3 instrumentation of the most recent refinement that
    /// changed the retained state: an ingest, or an
    /// [`IncrementalNeat::expire_before`] that advanced the watermark.
    pub fn last_refinement_stats(&self) -> Phase3Stats {
        self.last_stats
    }

    /// Ingests a new batch of trajectories: Phases 1–2 run on the batch
    /// alone; the new flows join the retained set; Phase 3 re-refines the
    /// combined set and returns the current trajectory clusters. Runs
    /// under [`ErrorPolicy::Strict`] and no [`Control`]; for another
    /// policy, pass it to [`IncrementalNeat::ingest_controlled`] with
    /// [`Control::unlimited`].
    ///
    /// # Errors
    ///
    /// Propagates configuration and unknown-segment errors from the
    /// underlying phases.
    pub fn ingest(&mut self, batch: &Dataset) -> Result<Vec<TrajectoryCluster>, NeatError> {
        self.ingest_inner(batch, ErrorPolicy::Strict, None)
            .map(|outcome| outcome.clusters)
    }

    /// [`IncrementalNeat::ingest`] under an [`ErrorPolicy`] and a
    /// [`Control`].
    ///
    /// With [`ErrorPolicy::Skip`] or [`ErrorPolicy::Repair`] a faulty
    /// trajectory in the batch is isolated — and accumulated into
    /// [`IncrementalNeat::resilience`] — instead of poisoning the whole
    /// online session. Cooperative cancel points run through the batch's
    /// Phases 1–2 and the combined refinement, and on interrupt the call
    /// degrades gracefully instead of erroring. The control's progress
    /// observer sees each phase start and end, as under
    /// [`Neat::run_controlled`](crate::Neat::run_controlled).
    ///
    /// State mutation is atomic: an interrupt during the batch's Phase 1
    /// or Phase 2 returns `applied == false` and leaves the retained
    /// flows, batch count and counters untouched, so the caller can
    /// simply retry the batch with a fresh budget. Once the batch is
    /// applied, a refinement interrupt only degrades the *returned view*
    /// (ELB-only distances or partial grouping) — the retained flow set
    /// is already consistent.
    ///
    /// # Errors
    ///
    /// Configuration errors always fail; data errors only under
    /// [`ErrorPolicy::Strict`]. Interrupts are reported inside the
    /// [`IngestOutcome`], never as errors.
    pub fn ingest_controlled(
        &mut self,
        batch: &Dataset,
        policy: ErrorPolicy,
        ctl: &Control,
    ) -> Result<IngestOutcome, NeatError> {
        self.ingest_inner(batch, policy, Some(ctl))
    }

    /// The one ingest body, so a live apply and a journal replay run the
    /// same code: the batch driver's phases 1–2 on the batch alone, then
    /// phase 3 over the retained flows once the batch is admitted.
    fn ingest_inner(
        &mut self,
        batch: &Dataset,
        policy: ErrorPolicy,
        ctl: Option<&Control>,
    ) -> Result<IngestOutcome, NeatError> {
        // Phases 1–2 run on the batch alone, without touching `self`.
        let run = batch_phases(self.net, &self.config, batch, Mode::Opt, policy, ctl)?;
        let Some(s2) = run.phase2.filter(PhaseStatus::is_complete) else {
            let (completeness, degradation, interrupt) = run.stop(Mode::Opt);
            return Ok(IngestOutcome {
                clusters: Vec::new(),
                applied: false,
                completeness,
                degradation,
                interrupt,
            });
        };

        // Both batch phases completed: fold into the retained state.
        let admitted = self.admit_flows(run.result.flow_clusters);
        self.flows.extend(admitted);
        self.batches += 1;
        self.resilience.merge(&run.result.resilience);

        // Refinement reads the retained flows but never mutates them, so
        // a degraded or partial grouping here only affects this view.
        let (refined, _) = timed_phase(ctl, "phase3", || self.refresh_view(ctl))?;
        self.last_stats = refined.stats;
        let (completeness, degradation, interrupt) = ladder(
            Mode::Opt,
            &[run.phase1, s2, refined.status],
            refined.elb_only,
        );
        Ok(IngestOutcome {
            clusters: clusters_of(&refined.groups, &self.flows),
            applied: true,
            completeness,
            degradation,
            interrupt,
        })
    }

    /// Trajectories isolated (skipped/repaired) across all batches
    /// ingested so far under non-strict policies.
    pub fn resilience(&self) -> &ResilienceCounters {
        &self.resilience
    }

    /// The configuration this clusterer runs under.
    pub fn config(&self) -> &NeatConfig {
        &self.config
    }

    /// The current trajectory clusters: the stored view. Phase 3 runs
    /// (without storing) only when there is none — after a degraded
    /// refinement, or on a resumed session before its first operation.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the refinement phase.
    pub fn current_clusters(&self) -> Result<Vec<TrajectoryCluster>, NeatError> {
        match &self.view {
            Some(view) => Ok(clusters_of(view, &self.flows)),
            None => Ok(clusters_of(&self.refine(None)?.groups, &self.flows)),
        }
    }

    /// The one Phase-3 call: partitions the retained flows.
    fn refine(&self, ctl: Option<&Control>) -> Result<ControlledRefinement, NeatError> {
        #[cfg(test)]
        tests::REFINEMENTS.with(|n| n.set(n.get() + 1));
        refine_flow_clusters_ctl(self.net, &self.flows, &self.config, &self.landmarks, ctl)
    }

    /// Refines the retained flows and stores the partition as the view
    /// when it finished `Complete`; any other outcome clears the view.
    fn refresh_view(&mut self, ctl: Option<&Control>) -> Result<ControlledRefinement, NeatError> {
        let refined = self.refine(ctl);
        self.view = match &refined {
            Ok(r) if r.status == PhaseStatus::Complete => Some(r.groups.clone()),
            _ => None,
        };
        refined
    }

    /// Filters freshly formed batch flows through the current watermark
    /// before they join the retained set. Running the *same* per-flow
    /// expiry at ingest time is what makes expiry commute with ingestion
    /// (`ingest(A); expire(w); ingest(B)` ≡
    /// `ingest(A); ingest(B); expire(w)`): both orders leave exactly
    /// `expire(flows_A) ++ expire(flows_B)` retained.
    fn admit_flows(&self, fresh: Vec<FlowCluster>) -> Vec<FlowCluster> {
        match self.watermark {
            None => fresh,
            Some(w) => retention::expire_flows(fresh, w).0,
        }
    }

    /// Advances the retention watermark to `watermark` and expires every
    /// retained t-fragment observed strictly before it
    /// (`fragment.last.time < watermark`). Flows whose interior members
    /// empty out are split into contiguous runs; fully expired flows are
    /// dropped. Phase 3 re-refines the rest once; the cluster-level
    /// changes against the stored view (refined afresh if there is none)
    /// are reported as typed [`retention::DriftEvent`]s.
    ///
    /// The watermark is monotonic: a `watermark` at or below the current
    /// one, or one that is not finite, is an idempotent no-op
    /// (`advanced == false`, no state change, no operation counted). An
    /// advance counts one operation in [`IncrementalNeat::batches`] — the
    /// journal sequence domain — even when nothing expires, because the
    /// new watermark itself changes how future batches are admitted.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the refinement phase.
    pub fn expire_before(&mut self, watermark: f64) -> Result<ExpiryOutcome, NeatError> {
        self.config.validate()?;
        if !watermark.is_finite() || self.watermark.is_some_and(|w| watermark <= w) {
            return Ok(ExpiryOutcome {
                watermark: self.watermark.unwrap_or(f64::NEG_INFINITY),
                advanced: false,
                expired_fragments: 0,
                expired_flows: 0,
                split_flows: 0,
                events: Vec::new(),
                clusters: self.current_clusters()?,
            });
        }
        // The pre-expiry side is built from the old flows, before
        // `expire_flows` consumes them.
        let before = self.current_clusters()?;
        let (kept, stats) = retention::expire_flows(std::mem::take(&mut self.flows), watermark);
        self.flows = kept;
        self.watermark = Some(watermark);
        self.batches += 1;
        let after = self.refresh_view(None)?;
        self.last_stats = after.stats;
        let clusters = clusters_of(&after.groups, &self.flows);
        let events = retention::diff_drift(&before, &clusters);
        Ok(ExpiryOutcome {
            watermark,
            advanced: true,
            expired_fragments: stats.expired_fragments,
            expired_flows: stats.expired_flows,
            split_flows: stats.split_flows,
            events,
            clusters,
        })
    }

    /// [`IncrementalNeat::ingest_controlled`] under an unlimited
    /// [`Control`], plus durability: after the batch is successfully
    /// applied, it is appended to `store`'s batch journal so a crash
    /// before the next snapshot replays it. (A watermark advance is
    /// journaled the same way: [`IncrementalNeat::expire_before`], then
    /// [`CheckpointStore::log_expiry`] when it advanced.)
    ///
    /// The append happens strictly *after* the apply. A crash between
    /// the two loses only this batch's acknowledgement: resume reports
    /// one batch fewer via [`IncrementalNeat::batches`] and the driver
    /// re-feeds it, which is exactly once overall.
    ///
    /// # Divergence-window invariant
    ///
    /// When the **append itself fails** (`Err(Durability)`) the call
    /// returns an error but the batch *was* applied: from that instant
    /// until the next successful [`IncrementalNeat::save_checkpoint`],
    /// in-memory state is ahead of durable state by exactly this batch.
    /// The invariant callers must preserve is:
    ///
    /// * **Crash inside the window** → safe. The journal has no record
    ///   for the batch, so resume reconstructs the pre-batch state and
    ///   re-feeding the batch reproduces the uninterrupted result
    ///   byte-for-byte (regression-tested by
    ///   `journal_append_crash_window_recovers_exactly_once` in
    ///   `tests/service_chaos.rs`).
    /// * **Continue inside the window** → the caller must either repair
    ///   immediately (take a checkpoint, which persists the applied
    ///   batch and empties the window — what `neat-svc` does, counting
    ///   it as a `journal_repair`) or treat the session as un-acknowledged
    ///   and restart from the store. It must **not** journal any later
    ///   batch first: a subsequent append would create a sequence gap
    ///   ([`CheckpointError::JournalGap`]) because this batch consumed a
    ///   sequence number that never reached disk.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Neat`] when ingestion itself fails (nothing is
    /// journaled and nothing was applied — the session is unchanged),
    /// [`CheckpointError::Durability`] when the journal append fails
    /// (the divergence window above is open; repair or restart).
    pub fn ingest_logged<F: Fs>(
        &mut self,
        batch: &Dataset,
        policy: ErrorPolicy,
        store: &CheckpointStore<F>,
    ) -> Result<Vec<TrajectoryCluster>, CheckpointError> {
        let outcome = self
            .ingest_controlled(batch, policy, &Control::unlimited())
            .map_err(CheckpointError::Neat)?;
        store.log_batch(self.batches as u64, batch, policy)?;
        Ok(outcome.clusters)
    }

    /// Atomically snapshots the full retained state (flows, counters,
    /// batch count, watermark, Phase-3 stats) into `store`, tagged with
    /// the current configuration hash and road-network fingerprint.
    /// Older snapshots and already-covered journal records are then
    /// reclaimed per the store's retention policy.
    ///
    /// Retention is best-effort: the returned
    /// [`RetentionReport`](neat_durability::RetentionReport) carries the
    /// compaction outcome and any non-fatal reclamation error (e.g.
    /// disk full while compacting) — the snapshot itself is durable
    /// either way and the store keeps serving from the old segments.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Durability`] only when the snapshot itself
    /// failed to land; the previous snapshot and journal survive intact.
    pub fn save_checkpoint<F: Fs>(
        &self,
        store: &CheckpointStore<F>,
    ) -> Result<neat_durability::RetentionReport, CheckpointError> {
        let payload = checkpoint::encode_state(&checkpoint::StateParts {
            config: &self.config,
            net: self.net,
            flows: &self.flows,
            batches: self.batches,
            last_stats: self.last_stats,
            resilience: &self.resilience,
            watermark: self.watermark,
        });
        Ok(store
            .store()
            .write_snapshot(self.batches as u64, &payload)?)
    }

    /// Reconstructs an online clusterer from a checkpoint directory:
    /// loads the newest valid snapshot (falling back to the previous one
    /// on damage), validates its configuration hash and network
    /// fingerprint against the arguments, then replays every journaled
    /// batch newer than the snapshot.
    ///
    /// The resumed instance is state-identical to the one that wrote the
    /// checkpoint — continuing the batch stream yields byte-identical
    /// clusters to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NoCheckpoint`] when the directory holds
    /// neither a snapshot nor journal records;
    /// [`CheckpointError::ConfigMismatch`] /
    /// [`CheckpointError::NetworkMismatch`] when the checkpoint belongs
    /// to a different session; [`CheckpointError::JournalGap`] on lost
    /// records; [`CheckpointError::Durability`] on storage damage beyond
    /// what fallback can absorb.
    pub fn resume<F: Fs>(
        net: &'a RoadNetwork,
        config: NeatConfig,
        store: &CheckpointStore<F>,
    ) -> Result<(Self, ResumeReport), CheckpointError> {
        config.validate().map_err(CheckpointError::Neat)?;
        let recovery = store.store().load()?;
        if recovery.snapshot.is_none() {
            if !recovery.rejected_snapshots.is_empty() {
                // Snapshots exist but none loads — surface every
                // rejection instead of quietly replaying from scratch
                // (the journal alone no longer covers early batches once
                // pruning has run).
                return Err(CheckpointError::Durability(
                    neat_durability::DurabilityError::NoSnapshot {
                        dir: store.dir().display().to_string(),
                        rejected: recovery.rejected_snapshots,
                    },
                ));
            }
            if recovery.journal.is_empty() {
                return Err(CheckpointError::NoCheckpoint {
                    dir: store.dir().display().to_string(),
                });
            }
        }

        let mut report = ResumeReport {
            snapshot_seq: recovery.snapshot.as_ref().map(|(seq, _)| *seq),
            replayed_batches: 0,
            rejected_snapshots: recovery.rejected_snapshots,
            torn_tail_bytes: recovery.torn_tail_bytes,
        };

        let mut session = match &recovery.snapshot {
            Some((seq, payload)) => {
                let state = checkpoint::decode_state(payload, net, &config)?;
                if state.batches as u64 != *seq {
                    return Err(CheckpointError::InvalidState {
                        detail: format!(
                            "snapshot file sequence {seq} disagrees with encoded \
                             batch count {}",
                            state.batches
                        ),
                    });
                }
                IncrementalNeat {
                    net,
                    config,
                    flows: state.flows,
                    batches: state.batches,
                    last_stats: state.last_stats,
                    resilience: state.resilience,
                    watermark: state.watermark,
                    view: None,
                    landmarks: Landmarks::new(net),
                }
            }
            None => IncrementalNeat::new(net, config),
        };

        let first_seq = session.batches as u64 + 1;
        for (expected, entry) in (first_seq..).zip(&recovery.journal) {
            if entry.seq != expected {
                return Err(CheckpointError::JournalGap {
                    expected,
                    got: entry.seq,
                });
            }
            // The journal is an *operation* log: a record is either an
            // ingested batch or a watermark advance, told apart by the
            // first payload byte (expiry marker vs. error-policy code).
            if checkpoint::is_expiry_record(&entry.payload) {
                let w = checkpoint::decode_expiry(&entry.payload)?;
                session
                    .expire_before(w)
                    .map_err(|source| CheckpointError::Replay {
                        seq: entry.seq,
                        source,
                    })?;
            } else {
                let (batch, policy) = checkpoint::decode_batch(&entry.payload)?;
                session
                    .ingest_controlled(&batch, policy, &Control::unlimited())
                    .map_err(|source| CheckpointError::Replay {
                        seq: entry.seq,
                        source,
                    })?;
            }
            report.replayed_batches += 1;
        }
        Ok((session, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::{Point, RoadLocation, SegmentId};
    use neat_traj::{Trajectory, TrajectoryId};
    use std::cell::Cell;

    thread_local! {
        /// Phase-3 runs on this test's thread, counted by `refine`.
        pub(super) static REFINEMENTS: Cell<usize> = const { Cell::new(0) };
    }

    /// Phase-3 runs `f` performs.
    fn refinements<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let start = REFINEMENTS.with(Cell::get);
        let out = f();
        (out, REFINEMENTS.with(Cell::get) - start)
    }

    fn traverse(id0: u64, count: u64, segs: &[usize]) -> Vec<Trajectory> {
        traverse_at(id0, count, segs, 0.0)
    }

    fn traverse_at(id0: u64, count: u64, segs: &[usize], t0: f64) -> Vec<Trajectory> {
        (0..count)
            .map(|i| {
                let pts = segs
                    .iter()
                    .enumerate()
                    .map(|(k, &s)| {
                        RoadLocation::new(
                            SegmentId::new(s),
                            Point::new(s as f64 * 100.0 + 50.0, 0.0),
                            t0 + k as f64 * 10.0,
                        )
                    })
                    .collect();
                Trajectory::new(TrajectoryId::new(id0 + i), pts).unwrap()
            })
            .collect()
    }

    fn cfg() -> NeatConfig {
        NeatConfig {
            min_card: 2,
            epsilon: 250.0,
            ..NeatConfig::default()
        }
    }

    #[test]
    fn batches_accumulate_flows() {
        let net = chain_network(10, 100.0, 10.0);
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut batch1 = Dataset::new("b1");
        batch1.extend(traverse(0, 3, &[0, 1, 2]));
        let c1 = online.ingest(&batch1).unwrap();
        assert_eq!(online.batches(), 1);
        assert_eq!(online.flow_clusters().len(), 1);
        assert_eq!(c1.len(), 1);

        let mut batch2 = Dataset::new("b2");
        batch2.extend(traverse(100, 3, &[6, 7, 8]));
        let c2 = online.ingest(&batch2).unwrap();
        assert_eq!(online.batches(), 2);
        assert_eq!(online.flow_clusters().len(), 2);
        // Far apart (Hausdorff 600 m > 250 m): two clusters.
        assert_eq!(c2.len(), 2);
    }

    #[test]
    fn nearby_batches_merge_in_refinement() {
        let net = chain_network(10, 100.0, 10.0);
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut b1 = Dataset::new("b1");
        b1.extend(traverse(0, 3, &[0, 1]));
        online.ingest(&b1).unwrap();
        let mut b2 = Dataset::new("b2");
        b2.extend(traverse(100, 3, &[2, 3]));
        let clusters = online.ingest(&b2).unwrap();
        // Adjacent routes (Hausdorff 200 m ≤ 250 m) merge into one
        // cluster even though they arrived in different batches.
        assert_eq!(online.flow_clusters().len(), 2);
        assert_eq!(clusters.len(), 1);
    }

    #[test]
    fn incremental_matches_oneshot_for_disjoint_populations() {
        let net = chain_network(12, 100.0, 10.0);
        // Two disjoint traffic populations that arrive as two batches.
        let pop1 = traverse(0, 4, &[0, 1, 2]);
        let pop2 = traverse(100, 4, &[8, 9, 10]);

        let mut online = IncrementalNeat::new(&net, cfg());
        let mut b1 = Dataset::new("b1");
        b1.extend(pop1.clone());
        online.ingest(&b1).unwrap();
        let mut b2 = Dataset::new("b2");
        b2.extend(pop2.clone());
        let incr = online.ingest(&b2).unwrap();

        let mut all = Dataset::new("all");
        all.extend(pop1);
        all.extend(pop2);
        let oneshot = crate::pipeline::Neat::new(&net, cfg())
            .run(&all, crate::pipeline::Mode::Opt)
            .unwrap();
        assert_eq!(incr.len(), oneshot.clusters.len());
        let sizes = |cs: &[TrajectoryCluster]| {
            let mut v: Vec<usize> = cs.iter().map(|c| c.flows().len()).collect();
            v.sort();
            v
        };
        assert_eq!(sizes(&incr), sizes(&oneshot.clusters));
    }

    #[test]
    fn faulty_batch_degrades_without_poisoning_the_session() {
        let net = chain_network(10, 100.0, 10.0);
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut b1 = Dataset::new("b1");
        b1.extend(traverse(0, 3, &[0, 1]));
        online.ingest(&b1).unwrap();

        // Batch 2 carries a trajectory on a segment this network lacks.
        let mut b2 = Dataset::new("b2");
        b2.extend(traverse(100, 3, &[4, 5]));
        b2.push(
            Trajectory::new(
                TrajectoryId::new(900),
                vec![
                    RoadLocation::new(SegmentId::new(77), Point::new(0.0, 0.0), 0.0),
                    RoadLocation::new(SegmentId::new(77), Point::new(1.0, 0.0), 1.0),
                ],
            )
            .unwrap(),
        );
        // Strict ingestion fails and does not advance the batch count.
        assert!(online.ingest(&b2).is_err());
        assert_eq!(online.batches(), 1);
        // Skip ingests the clean part of the batch.
        let clusters = online
            .ingest_controlled(&b2, ErrorPolicy::Skip, &Control::unlimited())
            .unwrap()
            .clusters;
        assert_eq!(online.batches(), 2);
        assert_eq!(online.flow_clusters().len(), 2);
        assert!(!clusters.is_empty());
        assert_eq!(online.resilience().skipped, 1);
        assert_eq!(
            online.resilience().skipped_ids,
            vec![TrajectoryId::new(900)]
        );
        let fresh = IncrementalNeat::new(&net, cfg());
        assert!(fresh.resilience().is_clean());
    }

    #[test]
    fn empty_batch_is_harmless() {
        let net = chain_network(6, 100.0, 10.0);
        let mut online = IncrementalNeat::new(&net, cfg());
        let clusters = online.ingest(&Dataset::new("empty")).unwrap();
        assert!(clusters.is_empty());
        assert_eq!(online.batches(), 1);
    }

    #[test]
    fn checkpoint_save_resume_round_trip() {
        use neat_durability::MemFs;

        let net = chain_network(10, 100.0, 10.0);
        let store = CheckpointStore::open(MemFs::new(), "/ckpt").unwrap();
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut b1 = Dataset::new("b1");
        b1.extend(traverse(0, 3, &[0, 1, 2]));
        online
            .ingest_logged(&b1, ErrorPolicy::Strict, &store)
            .unwrap();
        online.save_checkpoint(&store).unwrap();
        let mut b2 = Dataset::new("b2");
        b2.extend(traverse(100, 3, &[6, 7, 8]));
        let live = online
            .ingest_logged(&b2, ErrorPolicy::Strict, &store)
            .unwrap();

        // "Crash": drop the instance, resume from the surviving bytes.
        let (resumed, report) = IncrementalNeat::resume(&net, cfg(), &store).unwrap();
        assert_eq!(report.snapshot_seq, Some(1));
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(resumed.batches(), 2);
        assert_eq!(resumed.flow_clusters(), online.flow_clusters());
        let resumed_clusters = resumed.current_clusters().unwrap();
        assert_eq!(
            format!("{live:#?}"),
            format!("{resumed_clusters:#?}"),
            "resumed clusters must be identical to the uninterrupted run"
        );
    }

    #[test]
    fn resume_rejects_other_config_and_network() {
        use neat_durability::MemFs;

        let net = chain_network(10, 100.0, 10.0);
        let store = CheckpointStore::open(MemFs::new(), "/ckpt").unwrap();
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut b = Dataset::new("b");
        b.extend(traverse(0, 3, &[0, 1]));
        online
            .ingest_logged(&b, ErrorPolicy::Strict, &store)
            .unwrap();
        online.save_checkpoint(&store).unwrap();

        let other_cfg = NeatConfig {
            epsilon: 9.0,
            ..cfg()
        };
        assert!(matches!(
            IncrementalNeat::resume(&net, other_cfg, &store).unwrap_err(),
            CheckpointError::ConfigMismatch { .. }
        ));
        let other_net = chain_network(11, 100.0, 10.0);
        assert!(matches!(
            IncrementalNeat::resume(&other_net, cfg(), &store).unwrap_err(),
            CheckpointError::NetworkMismatch { .. }
        ));
    }

    #[test]
    fn resume_from_journal_alone_before_first_snapshot() {
        use neat_durability::MemFs;

        let net = chain_network(10, 100.0, 10.0);
        let store = CheckpointStore::open(MemFs::new(), "/ckpt").unwrap();
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut b = Dataset::new("b");
        b.extend(traverse(0, 3, &[0, 1]));
        online
            .ingest_logged(&b, ErrorPolicy::Strict, &store)
            .unwrap();
        // No snapshot was ever written: resume replays the journal.
        let (resumed, report) = IncrementalNeat::resume(&net, cfg(), &store).unwrap();
        assert_eq!(report.snapshot_seq, None);
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(resumed.batches(), 1);
        assert_eq!(resumed.flow_clusters(), online.flow_clusters());
    }

    #[test]
    fn resume_empty_dir_is_no_checkpoint() {
        use neat_durability::MemFs;

        let net = chain_network(4, 100.0, 10.0);
        let store = CheckpointStore::open(MemFs::new(), "/ckpt").unwrap();
        assert!(matches!(
            IncrementalNeat::resume(&net, cfg(), &store).unwrap_err(),
            CheckpointError::NoCheckpoint { .. }
        ));
    }

    #[test]
    fn resumed_cold_session_charges_like_the_warm_live_one() {
        use neat_durability::MemFs;
        use neat_runctl::{CancelToken, RunBudget};

        let net = chain_network(12, 100.0, 10.0);
        let store = CheckpointStore::open(MemFs::new(), "/ckpt").unwrap();
        let mut live = IncrementalNeat::new(&net, cfg());
        let mut b1 = Dataset::new("b1");
        b1.extend(traverse(0, 3, &[0, 1]));
        let mut b2 = Dataset::new("b2");
        b2.extend(traverse(100, 3, &[7, 8]));
        live.ingest(&b1).unwrap();
        live.ingest(&b2).unwrap();
        live.save_checkpoint(&store).unwrap();
        let (resumed, report) = IncrementalNeat::resume(&net, cfg(), &store).unwrap();
        assert_eq!(report.replayed_batches, 0);
        assert!(live.landmarks.settled().is_some(), "live session is warm");
        assert_eq!(resumed.landmarks.settled(), None, "resume starts cold");

        let mut next = Dataset::new("b3");
        next.extend(traverse(200, 3, &[4, 5]));
        let free = Control::unlimited();
        live.clone()
            .ingest_controlled(&next, ErrorPolicy::Strict, &free)
            .unwrap();
        for max_ops in 0..=free.ops() + 1 {
            let ingest = |session: &IncrementalNeat| {
                let mut session = session.clone();
                let ctl = Control::new(
                    RunBudget::unlimited().with_max_ops(max_ops),
                    CancelToken::new(),
                );
                let outcome = session
                    .ingest_controlled(&next, ErrorPolicy::Strict, &ctl)
                    .unwrap();
                format!(
                    "{outcome:?} {:?} {}/{}",
                    session.last_refinement_stats(),
                    ctl.ops(),
                    ctl.settled()
                )
            };
            assert_eq!(ingest(&live), ingest(&resumed), "max_ops {max_ops}");
        }
    }

    #[test]
    fn resume_preserves_resilience_counters() {
        use neat_durability::MemFs;

        let net = chain_network(10, 100.0, 10.0);
        let store = CheckpointStore::open(MemFs::new(), "/ckpt").unwrap();
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut bad = Dataset::new("bad");
        bad.extend(traverse(0, 3, &[0, 1]));
        bad.push(
            Trajectory::new(
                TrajectoryId::new(900),
                vec![
                    RoadLocation::new(SegmentId::new(77), Point::new(0.0, 0.0), 0.0),
                    RoadLocation::new(SegmentId::new(77), Point::new(1.0, 0.0), 1.0),
                ],
            )
            .unwrap(),
        );
        online
            .ingest_logged(&bad, ErrorPolicy::Skip, &store)
            .unwrap();
        online.save_checkpoint(&store).unwrap();
        let (resumed, _) = IncrementalNeat::resume(&net, cfg(), &store).unwrap();
        assert_eq!(resumed.resilience().skipped, 1);
        assert_eq!(
            resumed.resilience().skipped_ids,
            vec![TrajectoryId::new(900)]
        );
        assert_eq!(
            resumed.last_refinement_stats(),
            online.last_refinement_stats()
        );
    }

    #[test]
    fn controlled_ingest_is_atomic_on_interrupt() {
        use neat_runctl::{CancelToken, Control, Interrupt, RunBudget};

        let net = chain_network(10, 100.0, 10.0);
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut b1 = Dataset::new("b1");
        b1.extend(traverse(0, 3, &[0, 1, 2]));
        online.ingest(&b1).unwrap();
        let flows_before = online.flow_clusters().to_vec();

        // A batch interrupted during its own phases must not touch state.
        let mut b2 = Dataset::new("b2");
        b2.extend(traverse(100, 3, &[6, 7, 8]));
        let ctl = Control::new(RunBudget::unlimited(), CancelToken::armed_after(0));
        let out = online
            .ingest_controlled(&b2, ErrorPolicy::Strict, &ctl)
            .unwrap();
        assert!(!out.applied);
        assert_eq!(out.interrupt, Some(Interrupt::Cancelled));
        assert!(out.clusters.is_empty());
        assert_eq!(online.batches(), 1);
        assert_eq!(online.flow_clusters(), flows_before.as_slice());

        // Retrying the same batch with a fresh budget applies it and
        // matches the uncontrolled path exactly.
        let mut reference = IncrementalNeat::new(&net, cfg());
        reference.ingest(&b1).unwrap();
        let expected = reference.ingest(&b2).unwrap();
        let out = online
            .ingest_controlled(&b2, ErrorPolicy::Strict, &Control::unlimited())
            .unwrap();
        assert!(out.applied);
        assert!(out.interrupt.is_none());
        assert_eq!(online.batches(), 2);
        assert_eq!(
            format!("{expected:?}"),
            format!("{:?}", out.clusters),
            "controlled retry must reproduce the uncontrolled ingest"
        );
    }

    #[test]
    fn expire_before_removes_old_state_and_emits_drift() {
        use crate::retention::DriftEvent;

        let net = chain_network(12, 100.0, 10.0);
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut old = Dataset::new("old");
        old.extend(traverse_at(0, 3, &[0, 1, 2], 0.0));
        online.ingest(&old).unwrap();
        let mut fresh = Dataset::new("fresh");
        fresh.extend(traverse_at(100, 3, &[8, 9, 10], 1000.0));
        online.ingest(&fresh).unwrap();
        assert_eq!(online.current_clusters().unwrap().len(), 2);
        let live_before = online.live_fragments();

        let out = online.expire_before(500.0).unwrap();
        assert!(out.advanced);
        assert_eq!(online.watermark(), Some(500.0));
        assert_eq!(out.expired_flows, 1);
        assert!(out.expired_fragments > 0);
        assert!(online.live_fragments() < live_before);
        assert_eq!(out.clusters.len(), 1);
        // The old population's cluster died; the fresh one is untouched.
        assert_eq!(out.events, vec![DriftEvent::Died { key: 0, size: 3 }]);
        // Expiry counts one operation in the journal sequence domain.
        assert_eq!(online.batches(), 3);

        // Idempotent: re-expiring at or below the watermark is a no-op.
        let noop = online.expire_before(500.0).unwrap();
        assert!(!noop.advanced);
        assert!(noop.events.is_empty());
        assert_eq!(online.batches(), 3);
        assert_eq!(noop.clusters.len(), 1);
    }

    #[test]
    fn ingest_respects_the_watermark() {
        let net = chain_network(12, 100.0, 10.0);
        let mut online = IncrementalNeat::new(&net, cfg());
        online.expire_before(500.0).unwrap();
        // A batch entirely behind the watermark is admitted as nothing.
        let mut stale = Dataset::new("stale");
        stale.extend(traverse_at(0, 3, &[0, 1, 2], 0.0));
        online.ingest(&stale).unwrap();
        assert_eq!(online.live_fragments(), 0);
        assert_eq!(online.batches(), 2);
        // A batch ahead of it is admitted whole.
        let mut fresh = Dataset::new("fresh");
        fresh.extend(traverse_at(100, 3, &[8, 9, 10], 1000.0));
        online.ingest(&fresh).unwrap();
        assert!(online.live_fragments() > 0);
    }

    #[test]
    fn expiry_checkpoint_resume_round_trip() {
        use neat_durability::MemFs;

        let net = chain_network(12, 100.0, 10.0);
        let store = CheckpointStore::open(MemFs::new(), "/ckpt").unwrap();
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut b1 = Dataset::new("b1");
        b1.extend(traverse_at(0, 3, &[0, 1, 2], 0.0));
        online
            .ingest_logged(&b1, ErrorPolicy::Strict, &store)
            .unwrap();
        online.save_checkpoint(&store).unwrap();
        // Expiry and a later batch live only in the journal.
        let expiry = online.expire_before(500.0).unwrap();
        assert!(expiry.advanced);
        store.log_expiry(online.batches() as u64, 500.0).unwrap();
        let mut b2 = Dataset::new("b2");
        b2.extend(traverse_at(100, 3, &[8, 9, 10], 1000.0));
        let live = online
            .ingest_logged(&b2, ErrorPolicy::Strict, &store)
            .unwrap();

        let (resumed, report) = IncrementalNeat::resume(&net, cfg(), &store).unwrap();
        assert_eq!(report.snapshot_seq, Some(1));
        assert_eq!(report.replayed_batches, 2); // expiry op + batch
        assert_eq!(resumed.batches(), 3);
        assert_eq!(resumed.watermark(), Some(500.0));
        assert_eq!(resumed.flow_clusters(), online.flow_clusters());
        let resumed_clusters = resumed.current_clusters().unwrap();
        assert_eq!(format!("{live:#?}"), format!("{resumed_clusters:#?}"));

        // A checkpoint after the expiry persists the watermark too.
        online.save_checkpoint(&store).unwrap();
        let (resumed2, report2) = IncrementalNeat::resume(&net, cfg(), &store).unwrap();
        assert_eq!(report2.snapshot_seq, Some(3));
        assert_eq!(report2.replayed_batches, 0);
        assert_eq!(resumed2.watermark(), Some(500.0));
        assert_eq!(resumed2.flow_clusters(), online.flow_clusters());
    }

    #[test]
    fn noop_expiry_journals_nothing() {
        use neat_durability::MemFs;

        let net = chain_network(6, 100.0, 10.0);
        let store = CheckpointStore::open(MemFs::new(), "/ckpt").unwrap();
        let mut online = IncrementalNeat::new(&net, cfg());
        // Journal each expiry the way the service does: only an advance.
        let mut expire_journaled = |w: f64| {
            let out = online.expire_before(w).unwrap();
            if out.advanced {
                store.log_expiry(online.batches() as u64, w).unwrap();
            }
            out
        };
        let out = expire_journaled(100.0);
        assert!(out.advanced);
        let noop = expire_journaled(50.0);
        assert!(!noop.advanced);
        assert_eq!(online.batches(), 1);
        assert_eq!(store.store().load().unwrap().journal.len(), 1);
        let (resumed, report) = IncrementalNeat::resume(&net, cfg(), &store).unwrap();
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(resumed.watermark(), Some(100.0));
    }

    #[test]
    fn refinement_stats_update_per_batch() {
        let net = chain_network(10, 100.0, 10.0);
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut b1 = Dataset::new("b1");
        b1.extend(traverse(0, 3, &[0, 1]));
        online.ingest(&b1).unwrap();
        let s1 = online.last_refinement_stats();
        let mut b2 = Dataset::new("b2");
        b2.extend(traverse(100, 3, &[4, 5]));
        online.ingest(&b2).unwrap();
        let s2 = online.last_refinement_stats();
        // Second refinement sees more flows, so it considers more pairs.
        assert!(s2.pairs_considered >= s1.pairs_considered);
    }

    #[test]
    fn phase3_runs_once_per_state_change() {
        let net = chain_network(12, 100.0, 10.0);
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut old = Dataset::new("old");
        old.extend(traverse_at(0, 3, &[0, 1, 2], 0.0));
        let (_, n) = refinements(|| online.ingest(&old).unwrap());
        assert_eq!(n, 1, "an ingest refines once");
        let mut fresh = Dataset::new("fresh");
        fresh.extend(traverse_at(100, 3, &[8, 9, 10], 1000.0));
        let (view, n) = refinements(|| online.ingest(&fresh).unwrap());
        assert_eq!(n, 1);
        let (current, n) = refinements(|| online.current_clusters().unwrap());
        assert_eq!((current, n), (view, 0), "current_clusters reads the view");

        let (out, n) = refinements(|| online.expire_before(500.0).unwrap());
        assert!(out.advanced);
        assert_eq!(n, 1, "an advance refines only its post-expiry side");
        let (noop, n) = refinements(|| online.expire_before(400.0).unwrap());
        assert!(!noop.advanced);
        assert_eq!(
            (noop.clusters, n),
            (out.clusters, 0),
            "a no-op reads the view"
        );
    }

    #[test]
    fn a_resumed_session_refines_until_its_first_operation() {
        use neat_durability::MemFs;

        let net = chain_network(12, 100.0, 10.0);
        let store = CheckpointStore::open(MemFs::new(), "/ckpt").unwrap();
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut b = Dataset::new("b");
        b.extend(traverse_at(0, 3, &[0, 1, 2], 0.0));
        let live = online
            .ingest_logged(&b, ErrorPolicy::Strict, &store)
            .unwrap();
        online.save_checkpoint(&store).unwrap();

        // A snapshot carries no view: reads refine, and do not store it.
        let (mut resumed, _) = IncrementalNeat::resume(&net, cfg(), &store).unwrap();
        for _ in 0..2 {
            let (clusters, n) = refinements(|| resumed.current_clusters().unwrap());
            assert_eq!((&clusters, n), (&live, 1));
        }
        // Without a view, an advance refines both sides of its drift
        // diff; afterwards the view is stored again.
        let (_, n) = refinements(|| resumed.expire_before(5.0).unwrap());
        assert_eq!(n, 2);
        let (_, n) = refinements(|| resumed.current_clusters().unwrap());
        assert_eq!(n, 0);
    }

    #[test]
    fn non_finite_watermark_is_a_noop() {
        let net = chain_network(12, 100.0, 10.0);
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut b = Dataset::new("b");
        b.extend(traverse_at(0, 3, &[0, 1, 2], 0.0));
        online.ingest(&b).unwrap();
        let flows = online.flow_clusters().to_vec();

        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let out = online.expire_before(w).unwrap();
            assert!(!out.advanced, "{w} must not advance");
            assert_eq!(out.expired_fragments, 0);
            assert!(out.events.is_empty());
            assert_eq!(out.clusters.len(), 1);
            assert_eq!(online.flow_clusters(), flows.as_slice());
            assert_eq!(online.batches(), 1);
            assert_eq!(online.watermark(), None);
        }

        // A later finite advance still works.
        let out = online.expire_before(500.0).unwrap();
        assert!(out.advanced);
        assert_eq!(out.expired_flows, 1);
        assert_eq!(online.watermark(), Some(500.0));
        assert_eq!(online.batches(), 2);
        assert!(!online.expire_before(f64::NAN).unwrap().advanced);
        assert_eq!(online.watermark(), Some(500.0));
    }
}
