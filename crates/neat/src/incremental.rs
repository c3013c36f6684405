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
//! re-refines with the density-based Phase 3.

use crate::checkpoint::{self, CheckpointError, CheckpointStore, ResumeReport};
use crate::config::NeatConfig;
use crate::control::{Completeness, Degradation, DegradationStep, PhaseStatus};
use crate::error::NeatError;
use crate::model::{FlowCluster, TrajectoryCluster};
use crate::phase1::{form_base_clusters_ctl, ResilienceCounters};
use crate::phase2::form_flow_clusters_inner;
use crate::phase3::{refine_flow_clusters, refine_flow_clusters_ctl, Phase3Stats};
use crate::pipeline::Mode;
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
    /// [`IncrementalNeat::current_clusters`]); possibly produced by a
    /// degraded refinement when `applied` is true.
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
    /// combined set and returns the current trajectory clusters.
    ///
    /// # Errors
    ///
    /// Propagates configuration and unknown-segment errors from the
    /// underlying phases.
    pub fn ingest(&mut self, batch: &Dataset) -> Result<Vec<TrajectoryCluster>, NeatError> {
        self.ingest_with_policy(batch, ErrorPolicy::Strict)
    }

    /// [`IncrementalNeat::ingest`] under an explicit [`ErrorPolicy`]:
    /// with [`ErrorPolicy::Skip`] or [`ErrorPolicy::Repair`] a faulty
    /// trajectory in the batch is isolated — and accumulated into
    /// [`IncrementalNeat::resilience`] — instead of poisoning the whole
    /// online session.
    ///
    /// # Errors
    ///
    /// Configuration errors always fail; data errors only under
    /// [`ErrorPolicy::Strict`].
    pub fn ingest_with_policy(
        &mut self,
        batch: &Dataset,
        policy: ErrorPolicy,
    ) -> Result<Vec<TrajectoryCluster>, NeatError> {
        self.ingest_inner(batch, policy, None)
            .map(|outcome| outcome.clusters)
    }

    /// [`IncrementalNeat::ingest_with_policy`] under a [`Control`]:
    /// cooperative cancel points run through the batch's Phases 1–2 and
    /// the combined refinement, and on interrupt the call degrades
    /// gracefully instead of erroring.
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
    /// Same as [`IncrementalNeat::ingest_with_policy`]; interrupts are
    /// reported inside the [`IngestOutcome`], never as errors.
    pub fn ingest_controlled(
        &mut self,
        batch: &Dataset,
        policy: ErrorPolicy,
        ctl: &Control,
    ) -> Result<IngestOutcome, NeatError> {
        self.ingest_inner(batch, policy, Some(ctl))
    }

    /// The one ingest body, so a live apply and a journal replay run the
    /// same code. Phase 1 always runs under a control (an unlimited one
    /// on free runs); phases 2 and 3 get `ctl` as given.
    fn ingest_inner(
        &mut self,
        batch: &Dataset,
        policy: ErrorPolicy,
        ctl: Option<&Control>,
    ) -> Result<IngestOutcome, NeatError> {
        self.config.validate()?;
        // Phases 1–2 run on the batch alone, without touching `self`.
        let free = Control::unlimited();
        let (p1, counters, s1) = form_base_clusters_ctl(
            self.net,
            batch,
            self.config.insert_junctions,
            self.config.threads,
            policy,
            ctl.unwrap_or(&free),
        )?;
        if !s1.is_complete() {
            let why = s1.interrupt();
            let mut steps = Vec::new();
            if let PhaseStatus::Partial { done, total, .. } = s1 {
                steps.push(DegradationStep::TruncatedPhase1 { done, total });
            }
            steps.push(DegradationStep::SkippedPhase2);
            steps.push(DegradationStep::SkippedPhase3);
            return Ok(IngestOutcome {
                clusters: Vec::new(),
                applied: false,
                completeness: Completeness {
                    phase1: s1,
                    phase2: PhaseStatus::Skipped {
                        why: why.unwrap_or(Interrupt::Cancelled),
                    },
                    phase3: PhaseStatus::Skipped {
                        why: why.unwrap_or(Interrupt::Cancelled),
                    },
                },
                degradation: Degradation {
                    requested: Mode::Opt,
                    delivered: Mode::Base,
                    steps,
                },
                interrupt: why,
            });
        }
        let (p2, s2) =
            form_flow_clusters_inner(self.net, p1.base_clusters, &self.config, &mut None, ctl)?;
        if !s2.is_complete() {
            let why = s2.interrupt();
            let mut steps = Vec::new();
            if let PhaseStatus::Partial { done, total, .. } = s2 {
                steps.push(DegradationStep::TruncatedPhase2 { done, total });
            }
            steps.push(DegradationStep::SkippedPhase3);
            return Ok(IngestOutcome {
                clusters: Vec::new(),
                applied: false,
                completeness: Completeness {
                    phase1: s1,
                    phase2: s2,
                    phase3: PhaseStatus::Skipped {
                        why: why.unwrap_or(Interrupt::Cancelled),
                    },
                },
                degradation: Degradation {
                    requested: Mode::Opt,
                    delivered: Mode::Flow,
                    steps,
                },
                interrupt: why,
            });
        }

        // Both batch phases completed: fold into the retained state.
        let admitted = self.admit_flows(p2.flow_clusters);
        self.flows.extend(admitted);
        self.batches += 1;
        self.resilience.merge(&counters);

        // Refinement reads the retained flows but never mutates them, so
        // a degraded or partial grouping here only affects this view.
        let refined = refine_flow_clusters_ctl(self.net, self.flows.clone(), &self.config, ctl)?;
        self.last_stats = refined.output.stats;
        let s3 = refined.status;
        let mut steps = Vec::new();
        if refined.elb_only {
            steps.push(DegradationStep::ElbOnlyPhase3);
        }
        if let PhaseStatus::Partial { done, total, .. } = s3 {
            steps.push(DegradationStep::TruncatedPhase3 {
                grouped: done,
                total,
            });
        }
        Ok(IngestOutcome {
            clusters: refined.output.clusters,
            applied: true,
            completeness: Completeness {
                phase1: s1,
                phase2: s2,
                phase3: s3,
            },
            degradation: Degradation {
                requested: Mode::Opt,
                delivered: Mode::Opt,
                steps,
            },
            interrupt: s3.interrupt(),
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

    /// Re-runs Phase 3 on the retained flows and returns the current
    /// trajectory clusters without ingesting anything — the view a
    /// resumed session exposes before its first new batch.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the refinement phase.
    pub fn current_clusters(&self) -> Result<Vec<TrajectoryCluster>, NeatError> {
        let p3 = refine_flow_clusters(self.net, self.flows.clone(), &self.config)?;
        Ok(p3.clusters)
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
    /// dropped. The state is re-refined and the cluster-level changes are
    /// reported as typed [`retention::DriftEvent`]s.
    ///
    /// The watermark is monotonic: a `watermark` at or below the current
    /// one is an idempotent no-op (`advanced == false`, no state change,
    /// no operation counted). An advance counts one operation in
    /// [`IncrementalNeat::batches`] — the journal sequence domain — even
    /// when nothing expires, because the new watermark itself changes how
    /// future batches are admitted.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the refinement phase.
    pub fn expire_before(&mut self, watermark: f64) -> Result<ExpiryOutcome, NeatError> {
        self.config.validate()?;
        if let Some(current) = self.watermark {
            if watermark <= current {
                let p3 = refine_flow_clusters(self.net, self.flows.clone(), &self.config)?;
                return Ok(ExpiryOutcome {
                    watermark: current,
                    advanced: false,
                    expired_fragments: 0,
                    expired_flows: 0,
                    split_flows: 0,
                    events: Vec::new(),
                    clusters: p3.clusters,
                });
            }
        }
        let before = refine_flow_clusters(self.net, self.flows.clone(), &self.config)?;
        let (kept, stats) = retention::expire_flows(std::mem::take(&mut self.flows), watermark);
        self.flows = kept;
        self.watermark = Some(watermark);
        self.batches += 1;
        let after = refine_flow_clusters(self.net, self.flows.clone(), &self.config)?;
        self.last_stats = after.stats;
        let events = retention::diff_drift(&before.clusters, &after.clusters);
        Ok(ExpiryOutcome {
            watermark,
            advanced: true,
            expired_fragments: stats.expired_fragments,
            expired_flows: stats.expired_flows,
            split_flows: stats.split_flows,
            events,
            clusters: after.clusters,
        })
    }

    /// [`IncrementalNeat::expire_before`] plus durability: a watermark
    /// advance is appended to `store`'s journal as an expiry operation so
    /// a crash before the next snapshot replays it at the same point in
    /// the operation stream. No-op expiries journal nothing.
    ///
    /// The same divergence-window invariant as
    /// [`IncrementalNeat::ingest_logged`] applies when the append fails.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Neat`] when refinement fails (nothing applied),
    /// [`CheckpointError::Durability`] when the journal append fails (the
    /// expiry *was* applied; repair with a checkpoint or restart).
    pub fn expire_logged<F: Fs>(
        &mut self,
        watermark: f64,
        store: &CheckpointStore<F>,
    ) -> Result<ExpiryOutcome, CheckpointError> {
        let outcome = self
            .expire_before(watermark)
            .map_err(CheckpointError::Neat)?;
        if outcome.advanced {
            store.log_expiry(self.batches as u64, watermark)?;
        }
        Ok(outcome)
    }

    /// [`IncrementalNeat::ingest_with_policy`] plus durability: after the
    /// batch is successfully applied, it is appended to `store`'s batch
    /// journal so a crash before the next snapshot replays it.
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
        let clusters = self
            .ingest_with_policy(batch, policy)
            .map_err(CheckpointError::Neat)?;
        store.log_batch(self.batches as u64, batch, policy)?;
        Ok(clusters)
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
                    .ingest_with_policy(&batch, policy)
                    .map_err(|source| CheckpointError::Replay {
                        seq: entry.seq,
                        source,
                    })?;
            }
            report.replayed_batches += 1;
        }
        Ok((session, report))
    }

    /// Compacts the retained flow set: drops flows whose trajectory
    /// cardinality has fallen below `min_card` (e.g. noise from early
    /// batches) and returns how many were evicted. Long-running online
    /// deployments call this periodically to bound state.
    pub fn compact(&mut self, min_card: usize) -> usize {
        let before = self.flows.len();
        self.flows
            .retain(|f| f.trajectory_cardinality() >= min_card);
        before - self.flows.len()
    }

    /// Drops all retained state.
    pub fn reset(&mut self) {
        self.flows.clear();
        self.batches = 0;
        self.last_stats = Phase3Stats::default();
        self.resilience = ResilienceCounters::default();
        self.watermark = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::{Point, RoadLocation, SegmentId};
    use neat_traj::{Trajectory, TrajectoryId};

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
    fn reset_clears_state() {
        let net = chain_network(6, 100.0, 10.0);
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut b = Dataset::new("b");
        b.extend(traverse(0, 3, &[0, 1]));
        online.ingest(&b).unwrap();
        assert!(!online.flow_clusters().is_empty());
        online.reset();
        assert!(online.flow_clusters().is_empty());
        assert_eq!(online.batches(), 0);
    }

    #[test]
    fn compact_evicts_small_flows() {
        let net = chain_network(10, 100.0, 10.0);
        let mut online = IncrementalNeat::new(&net, cfg());
        let mut b1 = Dataset::new("b1");
        b1.extend(traverse(0, 5, &[0, 1]));
        b1.extend(traverse(100, 2, &[5, 6]));
        online.ingest(&b1).unwrap();
        assert_eq!(online.flow_clusters().len(), 2);
        let evicted = online.compact(4);
        assert_eq!(evicted, 1);
        assert_eq!(online.flow_clusters().len(), 1);
        assert!(online.flow_clusters()[0].trajectory_cardinality() >= 4);
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
        let clusters = online.ingest_with_policy(&b2, ErrorPolicy::Skip).unwrap();
        assert_eq!(online.batches(), 2);
        assert_eq!(online.flow_clusters().len(), 2);
        assert!(!clusters.is_empty());
        assert_eq!(online.resilience().skipped, 1);
        assert_eq!(
            online.resilience().skipped_ids,
            vec![TrajectoryId::new(900)]
        );
        online.reset();
        assert!(online.resilience().is_clean());
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
        online.expire_logged(500.0, &store).unwrap();
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
        let out = online.expire_logged(100.0, &store).unwrap();
        assert!(out.advanced);
        let noop = online.expire_logged(50.0, &store).unwrap();
        assert!(!noop.advanced);
        assert_eq!(online.batches(), 1);
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
}
