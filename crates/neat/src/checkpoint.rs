//! Durable checkpoint/resume for [`IncrementalNeat`](crate::incremental::IncrementalNeat).
//!
//! Long-running online clustering must survive a crash at any instant
//! without losing acknowledged batches and without ever resuming into a
//! state that diverges from an uninterrupted run. This module provides
//! the NEAT-specific layer on top of `neat_durability`:
//!
//! * [`CheckpointStore`] — a checkpoint directory holding versioned,
//!   CRC-protected state snapshots plus an append-only journal of the
//!   batches ingested since the last snapshot.
//! * State codec — encodes the retained flow clusters, resilience
//!   counters, batch count and Phase-3 stats, prefixed with a
//!   [`config_hash`] and a [`network_fingerprint`] so a snapshot can
//!   never be resumed under a different configuration or road network.
//! * Batch codec — journal records carrying a full batch (dataset plus
//!   [`ErrorPolicy`]) so replay re-runs the exact same ingestion.
//!
//! # Protocol
//!
//! The online loop calls
//! [`ingest_logged`](crate::incremental::IncrementalNeat::ingest_logged)
//! per batch (ingest, then append the batch to the journal) and
//! [`save_checkpoint`](crate::incremental::IncrementalNeat::save_checkpoint)
//! every N batches. Because the journal is appended only *after* a batch
//! is successfully applied, every complete journal record corresponds to
//! an applied batch and replay is deterministic; a crash between apply
//! and append merely rolls the durable state back one batch, which the
//! driver detects from [`batches`](crate::incremental::IncrementalNeat::batches)
//! after resuming and re-feeds.
//!
//! # Recovery state machine
//!
//! [`resume`](crate::incremental::IncrementalNeat::resume) proceeds:
//!
//! 1. Load the newest snapshot that passes magic/version/length/CRC
//!    validation, falling back to the previous one on damage (both are
//!    retained; the journal is pruned only past the older of the two).
//! 2. Reject the snapshot unless its embedded config hash and network
//!    fingerprint match the caller's — resuming under different
//!    parameters would silently produce different clusters.
//! 3. Replay journal records with `seq > snapshot.seq` in order,
//!    requiring a contiguous sequence (a gap means lost records, a
//!    structured error — never a silent skip).
//! 4. A torn final journal record (crash mid-append) is dropped: by the
//!    protocol above its batch is at worst un-acknowledged.

use crate::config::{NeatConfig, RouteDistance, SpStrategy};
use crate::error::NeatError;
use crate::model::{BaseCluster, FlowCluster};
use crate::phase1::ResilienceCounters;
use crate::phase3::Phase3Stats;
use neat_durability::fs::Fs;
use neat_durability::store::Store;
use neat_durability::{fnv64, Dec, DurabilityError, Enc};
use neat_rnet::{NodeId, RoadLocation, RoadNetwork, SegmentId};
use neat_traj::sanitize::ErrorPolicy;
use neat_traj::{Dataset, TFragment, Trajectory, TrajectoryId};
use std::fmt;
use std::path::{Path, PathBuf};

/// Version of the checkpoint state payload. Bump on any wire-format
/// change; older snapshots are rejected with a structured error rather
/// than misparsed.
///
/// Version history: 1 — initial format; 2 — retention watermark added to
/// the state payload and expiry operations added to the journal.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Everything that can go wrong saving or resuming a checkpoint.
///
/// All failure modes are structured errors — corrupted or mismatched
/// checkpoints never panic and are never silently accepted.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Storage-layer failure: I/O, bad magic, version skew, CRC mismatch,
    /// truncation, or no loadable snapshot.
    Durability(DurabilityError),
    /// The snapshot was written under a different [`NeatConfig`].
    ConfigMismatch {
        /// Config hash embedded in the snapshot.
        stored: u64,
        /// Hash of the configuration passed to resume.
        current: u64,
    },
    /// The snapshot was written against a different road network.
    NetworkMismatch {
        /// Network fingerprint embedded in the snapshot.
        stored: u64,
        /// Fingerprint of the network passed to resume.
        current: u64,
    },
    /// The checkpoint directory holds nothing to resume from.
    NoCheckpoint {
        /// The directory that was inspected.
        dir: String,
    },
    /// Journal replay found a hole in the batch sequence (records lost).
    JournalGap {
        /// The next sequence number replay needed.
        expected: u64,
        /// The sequence number actually found.
        got: u64,
    },
    /// A decoded payload is structurally valid but semantically
    /// inconsistent (e.g. a flow cluster's node chain does not match its
    /// segments on this network).
    InvalidState {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// The clustering pipeline itself failed outside replay (invalid
    /// configuration, or a strict-policy ingest error before anything
    /// was journaled).
    Neat(NeatError),
    /// Re-ingesting a journaled batch failed — the checkpoint was
    /// written by an incompatible pipeline or the data is damaged in a
    /// way the CRC could not see.
    Replay {
        /// Sequence number of the failing batch.
        seq: u64,
        /// The underlying pipeline error.
        source: NeatError,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Durability(e) => write!(f, "checkpoint storage: {e}"),
            CheckpointError::ConfigMismatch { stored, current } => write!(
                f,
                "checkpoint was written under a different configuration \
                 (stored hash {stored:#018x}, current {current:#018x}); \
                 resume with the original NeatConfig or start fresh"
            ),
            CheckpointError::NetworkMismatch { stored, current } => write!(
                f,
                "checkpoint was written against a different road network \
                 (stored fingerprint {stored:#018x}, current {current:#018x})"
            ),
            CheckpointError::NoCheckpoint { dir } => {
                write!(
                    f,
                    "nothing to resume: `{dir}` holds no snapshot and no journal"
                )
            }
            CheckpointError::JournalGap { expected, got } => write!(
                f,
                "journal gap: expected batch sequence {expected} but found {got} \
                 — records were lost, refusing to resume past the hole"
            ),
            CheckpointError::InvalidState { detail } => {
                write!(f, "checkpoint state is inconsistent: {detail}")
            }
            CheckpointError::Neat(e) => write!(f, "clustering pipeline: {e}"),
            CheckpointError::Replay { seq, source } => {
                write!(f, "replaying journaled batch {seq} failed: {source}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Durability(e) => Some(e),
            CheckpointError::Neat(e) | CheckpointError::Replay { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<DurabilityError> for CheckpointError {
    fn from(e: DurabilityError) -> Self {
        CheckpointError::Durability(e)
    }
}

/// Stable 64-bit hash of every [`NeatConfig`] field that influences
/// clustering output.
///
/// `threads` is deliberately excluded: every parallel path is
/// bit-identical to the sequential one, so a checkpoint taken with 4
/// threads resumes cleanly on 1.
pub fn config_hash(config: &NeatConfig) -> u64 {
    let mut e = Enc::with_capacity(64);
    e.f64(config.weights.wq());
    e.f64(config.weights.wk());
    e.f64(config.weights.wv());
    e.f64(config.beta);
    e.usize(config.min_card);
    e.f64(config.epsilon);
    e.u8(u8::from(config.use_elb));
    e.u8(match config.sp_strategy {
        SpStrategy::AStar => 0,
        SpStrategy::Dijkstra => 1,
    });
    e.u8(match config.route_distance {
        RouteDistance::Endpoints => 0,
        RouteDistance::FullRoute => 1,
    });
    e.u8(u8::from(config.insert_junctions));
    fnv64(&e.into_bytes())
}

/// Stable 64-bit fingerprint of a road network's full structure: every
/// junction position and every segment's endpoints, length, speed limit
/// and one-way flag.
pub fn network_fingerprint(net: &RoadNetwork) -> u64 {
    let mut e = Enc::with_capacity(24 * net.segments().len() + 16 * net.nodes().len() + 16);
    e.usize(net.nodes().len());
    for n in net.nodes() {
        e.f64(n.position.x);
        e.f64(n.position.y);
    }
    e.usize(net.segments().len());
    for s in net.segments() {
        e.u32(s.a.index() as u32); // lint:allow(L4) reason=NodeId/SegmentId wrap u32, so index() round-trips losslessly
        e.u32(s.b.index() as u32); // lint:allow(L4) reason=NodeId/SegmentId wrap u32, so index() round-trips losslessly
        e.f64(s.length);
        e.f64(s.speed_limit);
        e.u8(u8::from(s.oneway));
    }
    fnv64(&e.into_bytes())
}

/// The pieces of an [`IncrementalNeat`](crate::incremental::IncrementalNeat)
/// that a snapshot captures. Borrowed on encode, owned on decode.
pub(crate) struct StateParts<'s> {
    pub config: &'s NeatConfig,
    pub net: &'s RoadNetwork,
    pub flows: &'s [FlowCluster],
    pub batches: usize,
    pub last_stats: Phase3Stats,
    pub resilience: &'s ResilienceCounters,
    pub watermark: Option<f64>,
}

/// Decoded snapshot state, ready to rebuild the online clusterer.
#[derive(Debug)]
pub(crate) struct DecodedState {
    pub flows: Vec<FlowCluster>,
    pub batches: usize,
    pub last_stats: Phase3Stats,
    pub resilience: ResilienceCounters,
    pub watermark: Option<f64>,
}

fn enc_location(e: &mut Enc, loc: &RoadLocation) {
    e.u32(loc.segment.index() as u32); // lint:allow(L4) reason=NodeId/SegmentId wrap u32, so index() round-trips losslessly
    e.f64(loc.position.x);
    e.f64(loc.position.y);
    e.f64(loc.time);
}

fn dec_location(d: &mut Dec<'_>, context: &str) -> Result<RoadLocation, DurabilityError> {
    let segment = SegmentId::new(d.u32(context)? as usize);
    let x = d.f64(context)?;
    let y = d.f64(context)?;
    let time = d.f64(context)?;
    Ok(RoadLocation::new(
        segment,
        neat_rnet::Point::new(x, y),
        time,
    ))
}

fn enc_fragment(e: &mut Enc, f: &TFragment) {
    e.u64(f.trajectory.value());
    e.u32(f.segment.index() as u32); // lint:allow(L4) reason=NodeId/SegmentId wrap u32, so index() round-trips losslessly
    enc_location(e, &f.first);
    enc_location(e, &f.last);
    e.usize(f.point_count);
}

/// Minimum encoded size of one t-fragment (for count validation).
const FRAGMENT_MIN_LEN: usize = 8 + 4 + 28 + 28 + 8;

fn dec_fragment(d: &mut Dec<'_>) -> Result<TFragment, DurabilityError> {
    const CTX: &str = "t-fragment";
    Ok(TFragment {
        trajectory: TrajectoryId::new(d.u64(CTX)?),
        segment: SegmentId::new(d.u32(CTX)? as usize),
        first: dec_location(d, CTX)?,
        last: dec_location(d, CTX)?,
        point_count: d.usize(CTX)?,
    })
}

/// Encodes the full online-clusterer state into a snapshot payload.
pub(crate) fn encode_state(parts: &StateParts<'_>) -> Vec<u8> {
    let mut e = Enc::with_capacity(1024);
    e.u64(config_hash(parts.config));
    e.u64(network_fingerprint(parts.net));
    e.usize(parts.batches);
    match parts.watermark {
        Some(w) => {
            e.u8(1);
            e.f64(w);
        }
        None => e.u8(0),
    }
    e.usize(parts.flows.len());
    for flow in parts.flows {
        e.usize(flow.members().len());
        for member in flow.members() {
            e.u32(member.segment().index() as u32); // lint:allow(L4) reason=NodeId/SegmentId wrap u32, so index() round-trips losslessly
            e.usize(member.fragments().len());
            for frag in member.fragments() {
                enc_fragment(&mut e, frag);
            }
        }
        e.usize(flow.node_chain().len());
        for node in flow.node_chain() {
            e.u32(node.index() as u32); // lint:allow(L4) reason=NodeId/SegmentId wrap u32, so index() round-trips losslessly
        }
    }
    e.usize(parts.resilience.skipped);
    e.usize(parts.resilience.repaired);
    e.usize(parts.resilience.skipped_ids.len());
    for id in &parts.resilience.skipped_ids {
        e.u64(id.value());
    }
    e.u64(parts.last_stats.pairs_considered);
    e.u64(parts.last_stats.elb_skips);
    e.u64(parts.last_stats.sp_computations);
    e.u64(parts.last_stats.sp_cache_hits);
    e.u64(parts.last_stats.alt_skips);
    e.u64(parts.last_stats.one_to_many_scans);
    e.into_bytes()
}

fn invalid(detail: impl Into<String>) -> CheckpointError {
    CheckpointError::InvalidState {
        detail: detail.into(),
    }
}

/// Decodes and validates a snapshot payload against the current network
/// and configuration.
pub(crate) fn decode_state(
    payload: &[u8],
    net: &RoadNetwork,
    config: &NeatConfig,
) -> Result<DecodedState, CheckpointError> {
    let mut d = Dec::new(payload);
    let stored_cfg = d.u64("config hash")?;
    let current_cfg = config_hash(config);
    if stored_cfg != current_cfg {
        return Err(CheckpointError::ConfigMismatch {
            stored: stored_cfg,
            current: current_cfg,
        });
    }
    let stored_net = d.u64("network fingerprint")?;
    let current_net = network_fingerprint(net);
    if stored_net != current_net {
        return Err(CheckpointError::NetworkMismatch {
            stored: stored_net,
            current: current_net,
        });
    }
    let batches = d.usize("batch count")?;
    let watermark = match d.u8("watermark flag")? {
        0 => None,
        1 => Some(d.f64("watermark")?),
        other => return Err(invalid(format!("unknown watermark flag {other}"))),
    };

    let flow_count = d.count("flow cluster count", 8)?;
    let mut flows = Vec::with_capacity(flow_count);
    for fi in 0..flow_count {
        let member_count = d.count("member count", 4 + 8)?;
        if member_count == 0 {
            return Err(invalid(format!("flow {fi} has no members")));
        }
        let mut members = Vec::with_capacity(member_count);
        for _ in 0..member_count {
            let segment = SegmentId::new(d.u32("member segment")? as usize);
            let frag_count = d.count("fragment count", FRAGMENT_MIN_LEN)?;
            let mut fragments = Vec::with_capacity(frag_count);
            for _ in 0..frag_count {
                fragments.push(dec_fragment(&mut d)?);
            }
            let base = BaseCluster::new(segment, fragments)
                .map_err(|e| invalid(format!("flow {fi}: {e}")))?;
            members.push(base);
        }
        let node_count = d.count("node chain length", 4)?;
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            nodes.push(NodeId::new(d.u32("node id")? as usize));
        }
        flows.push(rebuild_flow(net, fi, members, nodes)?);
    }

    let skipped = d.usize("skipped count")?;
    let repaired = d.usize("repaired count")?;
    let id_count = d.count("skipped id count", 8)?;
    let mut skipped_ids = Vec::with_capacity(id_count);
    for _ in 0..id_count {
        skipped_ids.push(TrajectoryId::new(d.u64("skipped id")?));
    }
    let last_stats = Phase3Stats {
        pairs_considered: d.u64("pairs_considered")?,
        elb_skips: d.u64("elb_skips")?,
        sp_computations: d.u64("sp_computations")?,
        sp_cache_hits: d.u64("sp_cache_hits")?,
        alt_skips: d.u64("alt_skips")?,
        one_to_many_scans: d.u64("one_to_many_scans")?,
    };
    d.expect_exhausted("checkpoint state")?;

    Ok(DecodedState {
        flows,
        batches,
        last_stats,
        resilience: ResilienceCounters {
            skipped,
            repaired,
            skipped_ids,
        },
        watermark,
    })
}

/// Reassembles one flow cluster, re-validating its route against the
/// current network: every member segment must exist and the stored node
/// chain must walk that segment's endpoints.
fn rebuild_flow(
    net: &RoadNetwork,
    fi: usize,
    members: Vec<BaseCluster>,
    nodes: Vec<NodeId>,
) -> Result<FlowCluster, CheckpointError> {
    if nodes.len() != members.len() + 1 {
        return Err(invalid(format!(
            "flow {fi}: node chain has {} entries for {} members (want members + 1)",
            nodes.len(),
            members.len()
        )));
    }
    for (mi, member) in members.iter().enumerate() {
        let seg = net.segment(member.segment()).map_err(|_| {
            invalid(format!(
                "flow {fi} member {mi}: segment {} not in this network",
                member.segment()
            ))
        })?;
        let (u, v) = (nodes[mi], nodes[mi + 1]);
        let matches = (u == seg.a && v == seg.b) || (u == seg.b && v == seg.a);
        if !matches {
            return Err(invalid(format!(
                "flow {fi} member {mi}: node chain ({u}, {v}) does not match \
                 segment {} endpoints ({}, {})",
                member.segment(),
                seg.a,
                seg.b
            )));
        }
    }
    FlowCluster::from_parts(members, nodes)
        .ok_or_else(|| invalid(format!("flow {fi}: could not reassemble members")))
}

/// First payload byte of a journaled expiry operation. Disjoint from
/// every [`policy_code`] (0–2), so the two record kinds are told apart
/// by peeking one byte.
pub(crate) const EXPIRY_MARKER: u8 = 0xE0;

/// Whether a journal payload is an expiry operation rather than a batch.
pub(crate) fn is_expiry_record(payload: &[u8]) -> bool {
    payload.first() == Some(&EXPIRY_MARKER)
}

/// Encodes a journaled watermark advance.
pub(crate) fn encode_expiry(watermark: f64) -> Vec<u8> {
    let mut e = Enc::with_capacity(9);
    e.u8(EXPIRY_MARKER);
    e.f64(watermark);
    e.into_bytes()
}

/// Decodes a journaled watermark advance.
pub(crate) fn decode_expiry(payload: &[u8]) -> Result<f64, CheckpointError> {
    let mut d = Dec::new(payload);
    let marker = d.u8("expiry marker")?;
    if marker != EXPIRY_MARKER {
        return Err(invalid(format!(
            "expected expiry marker {EXPIRY_MARKER:#04x}, found {marker:#04x}"
        )));
    }
    let w = d.f64("expiry watermark")?;
    d.expect_exhausted("expiry record")?;
    Ok(w)
}

fn policy_code(policy: ErrorPolicy) -> u8 {
    match policy {
        ErrorPolicy::Strict => 0,
        ErrorPolicy::Skip => 1,
        ErrorPolicy::Repair => 2,
    }
}

fn policy_from_code(code: u8) -> Result<ErrorPolicy, CheckpointError> {
    match code {
        0 => Ok(ErrorPolicy::Strict),
        1 => Ok(ErrorPolicy::Skip),
        2 => Ok(ErrorPolicy::Repair),
        other => Err(invalid(format!("unknown error-policy code {other}"))),
    }
}

/// Encodes one journaled batch: the error policy plus the full dataset.
pub(crate) fn encode_batch(batch: &Dataset, policy: ErrorPolicy) -> Vec<u8> {
    let mut e = Enc::with_capacity(64 + 32 * batch.total_points());
    e.u8(policy_code(policy));
    e.str(batch.name());
    e.usize(batch.len());
    for tr in batch.trajectories() {
        e.u64(tr.id().value());
        e.usize(tr.points().len());
        for p in tr.points() {
            enc_location(&mut e, p);
        }
    }
    e.into_bytes()
}

/// Decodes a journaled batch back into a dataset and its policy.
pub(crate) fn decode_batch(payload: &[u8]) -> Result<(Dataset, ErrorPolicy), CheckpointError> {
    let mut d = Dec::new(payload);
    let policy = policy_from_code(d.u8("policy code")?)?;
    let name = d.str("dataset name")?.to_string();
    let traj_count = d.count("trajectory count", 8 + 8)?;
    let mut batch = Dataset::new(name);
    for _ in 0..traj_count {
        let id = TrajectoryId::new(d.u64("trajectory id")?);
        let point_count = d.count("point count", 28)?;
        let mut points = Vec::with_capacity(point_count);
        for _ in 0..point_count {
            points.push(dec_location(&mut d, "location")?);
        }
        let tr = Trajectory::new(id, points)
            .map_err(|e| invalid(format!("journaled trajectory {}: {e}", id.value())))?;
        batch.push(tr);
    }
    d.expect_exhausted("journaled batch")?;
    Ok((batch, policy))
}

/// A checkpoint directory for one online clustering session.
///
/// Thin typed wrapper over [`Store`] fixing the payload version to
/// [`CHECKPOINT_VERSION`]; the actual save/resume entry points live on
/// [`IncrementalNeat`](crate::incremental::IncrementalNeat).
#[derive(Debug, Clone)]
pub struct CheckpointStore<F: Fs> {
    store: Store<F>,
}

impl<F: Fs> CheckpointStore<F> {
    /// Opens (creating if necessary) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Durability`] when the directory cannot be
    /// created.
    pub fn open(fs: F, dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        Ok(CheckpointStore {
            store: Store::open(fs, dir, CHECKPOINT_VERSION)?,
        })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Appends one applied batch to the journal, tagged with its
    /// sequence number (= the batch count after applying it).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Durability`] on filesystem failure.
    pub fn log_batch(
        &self,
        seq: u64,
        batch: &Dataset,
        policy: ErrorPolicy,
    ) -> Result<(), CheckpointError> {
        Ok(self
            .store
            .append_journal(seq, &encode_batch(batch, policy))?)
    }

    /// Appends one applied watermark advance to the journal, tagged with
    /// its operation sequence number.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Durability`] on filesystem failure.
    pub fn log_expiry(&self, seq: u64, watermark: f64) -> Result<(), CheckpointError> {
        Ok(self.store.append_journal(seq, &encode_expiry(watermark))?)
    }

    /// Batch IDs (journaled dataset names) of **every** batch record
    /// currently in the journal, with their sequence numbers and each
    /// batch's maximum point time, in sequence order — including
    /// records already covered by a snapshot that compaction has not yet
    /// dropped, across all journal segments. Expiry records carry no
    /// batch ID and are skipped.
    ///
    /// This is the service layer's idempotent-replay index: a spool file
    /// whose name appears here was applied and journaled, so finding it
    /// again after a crash (the append-succeeded-but-ack-was-lost
    /// window) means *skip*, not *re-ingest*. Because pruning only runs
    /// when a snapshot is written, reconciling the spool against this
    /// list before writing any new checkpoint sees every applied-but-
    /// unacknowledged batch. The index is bounded: an ID may be dropped
    /// from the durable index once its journal records are compacted
    /// away **and** its `max_time` is below the watermark, because
    /// re-ingesting such a batch is provably a state no-op (every flow
    /// it could form is filtered by watermark admission).
    ///
    /// An empty batch reports `f64::NEG_INFINITY` — vacuously below any
    /// watermark, which is correct: replaying it changes nothing. A torn
    /// final record is ignored (by the journal protocol its batch was
    /// never acknowledged).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Durability`] on an unreadable journal,
    /// [`CheckpointError::InvalidState`] on an undecodable batch record.
    pub fn journaled_batch_index(&self) -> Result<Vec<(u64, String, f64)>, CheckpointError> {
        let records = self.store.journal_records()?;
        let mut index = Vec::with_capacity(records.len());
        for entry in &records {
            if is_expiry_record(&entry.payload) {
                continue;
            }
            let (batch, _policy) = decode_batch(&entry.payload)?;
            let max_time = batch
                .trajectories()
                .iter()
                .map(|t| t.last().time)
                .fold(f64::NEG_INFINITY, f64::max);
            index.push((entry.seq, batch.name().to_string(), max_time));
        }
        Ok(index)
    }

    /// The sequence floor journal compaction prunes up to: the oldest
    /// *retained* snapshot (zero with no snapshot on disk). Records at
    /// or below this floor may disappear from the journal at any
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Durability`] when the directory cannot be
    /// listed.
    pub fn retained_floor(&self) -> Result<u64, CheckpointError> {
        let seqs = self.store.snapshot_seqs()?;
        let retained = &seqs[seqs
            .len()
            .saturating_sub(neat_durability::store::RETAIN_SNAPSHOTS)..];
        Ok(retained.first().copied().unwrap_or(0))
    }

    /// Compacts the journal past the oldest retained snapshot — the
    /// same reclamation a checkpoint performs, callable on its own so a
    /// service can retry a failed compaction (or force one on a cadence)
    /// without writing a new snapshot.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Durability`] on filesystem failure; the
    /// journal stays loadable from the old segments.
    pub fn compact_journal(&self) -> Result<neat_durability::CompactionOutcome, CheckpointError> {
        let cutoff = self.retained_floor()?;
        Ok(self.store.compact_journal(cutoff)?)
    }

    /// The underlying durability store.
    pub(crate) fn store(&self) -> &Store<F> {
        &self.store
    }
}

/// What [`IncrementalNeat::resume`](crate::incremental::IncrementalNeat::resume)
/// reconstructed, for logging and diagnostics.
#[derive(Debug, Clone, Default)]
pub struct ResumeReport {
    /// Sequence (batch count) of the snapshot that was loaded, `None`
    /// when the session resumed from journal replay alone.
    pub snapshot_seq: Option<u64>,
    /// Journaled batches re-ingested on top of the snapshot.
    pub replayed_batches: usize,
    /// Snapshot files that failed validation and were skipped, as
    /// `(file, reason)` — non-empty means the newest snapshot was
    /// damaged and an older one was used.
    pub rejected_snapshots: Vec<(String, String)>,
    /// Bytes dropped from an incomplete final journal record (crash
    /// mid-append).
    pub torn_tail_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::Point;

    fn frag(tr: u64, seg: usize, x: f64) -> TFragment {
        TFragment {
            trajectory: TrajectoryId::new(tr),
            segment: SegmentId::new(seg),
            first: RoadLocation::new(SegmentId::new(seg), Point::new(x, 0.0), 0.0),
            last: RoadLocation::new(SegmentId::new(seg), Point::new(x + 1.0, 0.0), 5.0),
            point_count: 2,
        }
    }

    fn sample_flows(net: &RoadNetwork) -> Vec<FlowCluster> {
        let b0 =
            BaseCluster::new(SegmentId::new(0), vec![frag(1, 0, 10.0), frag(2, 0, 20.0)]).unwrap();
        let b1 = BaseCluster::new(SegmentId::new(1), vec![frag(1, 1, 110.0)]).unwrap();
        let mut f = FlowCluster::from_base(net, b0).unwrap();
        f.push_back(net, b1).unwrap();
        let b5 = BaseCluster::new(SegmentId::new(5), vec![frag(9, 5, 510.0)]).unwrap();
        let g = FlowCluster::from_base(net, b5).unwrap();
        vec![f, g]
    }

    fn parts<'s>(
        net: &'s RoadNetwork,
        config: &'s NeatConfig,
        flows: &'s [FlowCluster],
        resilience: &'s ResilienceCounters,
    ) -> StateParts<'s> {
        StateParts {
            config,
            net,
            flows,
            batches: 7,
            last_stats: Phase3Stats {
                pairs_considered: 10,
                elb_skips: 3,
                alt_skips: 1,
                sp_computations: 4,
                sp_cache_hits: 2,
                one_to_many_scans: 2,
            },
            resilience,
            watermark: Some(123.5),
        }
    }

    #[test]
    fn state_round_trips_exactly() {
        let net = chain_network(8, 100.0, 10.0);
        let config = NeatConfig::default();
        let flows = sample_flows(&net);
        let res = ResilienceCounters {
            skipped: 2,
            repaired: 1,
            skipped_ids: vec![TrajectoryId::new(41), TrajectoryId::new(42)],
        };
        let payload = encode_state(&parts(&net, &config, &flows, &res));
        let state = decode_state(&payload, &net, &config).unwrap();
        assert_eq!(state.flows, flows);
        assert_eq!(state.batches, 7);
        assert_eq!(state.watermark, Some(123.5));
        assert_eq!(state.last_stats.pairs_considered, 10);
        assert_eq!(state.resilience.skipped, 2);
        assert_eq!(state.resilience.skipped_ids, res.skipped_ids);
        // Encoding the decoded state reproduces the same bytes.
        let again = encode_state(&parts(&net, &config, &state.flows, &state.resilience));
        assert_eq!(again, payload);
    }

    #[test]
    fn config_mismatch_is_structured() {
        let net = chain_network(8, 100.0, 10.0);
        let config = NeatConfig::default();
        let flows = sample_flows(&net);
        let res = ResilienceCounters::default();
        let payload = encode_state(&parts(&net, &config, &flows, &res));
        let other = NeatConfig {
            epsilon: 123.0,
            ..config
        };
        assert!(matches!(
            decode_state(&payload, &net, &other).unwrap_err(),
            CheckpointError::ConfigMismatch { .. }
        ));
    }

    #[test]
    fn network_mismatch_is_structured() {
        let net = chain_network(8, 100.0, 10.0);
        let config = NeatConfig::default();
        let flows = sample_flows(&net);
        let res = ResilienceCounters::default();
        let payload = encode_state(&parts(&net, &config, &flows, &res));
        let other = chain_network(9, 100.0, 10.0);
        assert!(matches!(
            decode_state(&payload, &other, &config).unwrap_err(),
            CheckpointError::NetworkMismatch { .. }
        ));
    }

    #[test]
    fn default_config_hash_is_pinned() {
        // Snapshots store this hash and refuse to resume under another,
        // so any change to the hashed fields or their encoding orphans
        // every checkpoint already on disk.
        assert_eq!(config_hash(&NeatConfig::default()), 0x0b04_2447_b4a1_ce74);
    }

    #[test]
    fn output_preserving_knobs_do_not_change_the_config_hash() {
        let base = NeatConfig::default();
        let tuned = NeatConfig { threads: 8, ..base };
        assert_eq!(config_hash(&base), config_hash(&tuned));
        let different = NeatConfig {
            min_card: base.min_card + 1,
            ..base
        };
        assert_ne!(config_hash(&base), config_hash(&different));
    }

    #[test]
    fn network_fingerprint_sees_every_field() {
        let a = chain_network(5, 100.0, 10.0);
        let b = chain_network(5, 100.0, 12.0); // different speed limit
        let c = chain_network(6, 100.0, 10.0); // different topology
        assert_ne!(network_fingerprint(&a), network_fingerprint(&b));
        assert_ne!(network_fingerprint(&a), network_fingerprint(&c));
        assert_eq!(
            network_fingerprint(&a),
            network_fingerprint(&chain_network(5, 100.0, 10.0))
        );
    }

    #[test]
    fn truncated_state_is_rejected_not_panicking() {
        let net = chain_network(8, 100.0, 10.0);
        let config = NeatConfig::default();
        let flows = sample_flows(&net);
        let res = ResilienceCounters::default();
        let payload = encode_state(&parts(&net, &config, &flows, &res));
        for cut in 0..payload.len() {
            assert!(
                decode_state(&payload[..cut], &net, &config).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn batch_round_trips_with_policy() {
        let mut batch = Dataset::new("rush-hour");
        batch.push(
            Trajectory::new(
                TrajectoryId::new(7),
                vec![
                    RoadLocation::new(SegmentId::new(0), Point::new(1.0, 2.0), 0.0),
                    RoadLocation::new(SegmentId::new(1), Point::new(3.0, 4.0), 9.5),
                ],
            )
            .unwrap(),
        );
        for policy in [ErrorPolicy::Strict, ErrorPolicy::Skip, ErrorPolicy::Repair] {
            let payload = encode_batch(&batch, policy);
            let (decoded, got_policy) = decode_batch(&payload).unwrap();
            assert_eq!(decoded, batch);
            assert_eq!(got_policy, policy);
        }
    }

    #[test]
    fn batch_decode_rejects_bad_policy_and_trailing_bytes() {
        let batch = Dataset::new("b");
        let mut payload = encode_batch(&batch, ErrorPolicy::Skip);
        payload[0] = 9;
        assert!(matches!(
            decode_batch(&payload).unwrap_err(),
            CheckpointError::InvalidState { .. }
        ));
        let mut payload = encode_batch(&batch, ErrorPolicy::Skip);
        payload.push(0);
        assert!(decode_batch(&payload).is_err());
    }

    #[test]
    fn expiry_record_round_trips_and_is_distinguishable() {
        let payload = encode_expiry(98.25);
        assert!(is_expiry_record(&payload));
        assert_eq!(decode_expiry(&payload).unwrap(), 98.25);
        // Batch records never look like expiry records: their first byte
        // is a policy code, disjoint from the marker.
        for policy in [ErrorPolicy::Strict, ErrorPolicy::Skip, ErrorPolicy::Repair] {
            assert!(!is_expiry_record(&encode_batch(&Dataset::new("b"), policy)));
        }
        // Truncated or padded expiry records are rejected.
        assert!(decode_expiry(&payload[..5]).is_err());
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode_expiry(&padded).is_err());
    }

    #[test]
    fn node_chain_inconsistent_with_network_is_invalid_state() {
        let net = chain_network(8, 100.0, 10.0);
        let config = NeatConfig::default();
        let res = ResilienceCounters::default();
        let b0 = BaseCluster::new(SegmentId::new(0), vec![frag(1, 0, 10.0)]).unwrap();
        let bad_flow = FlowCluster::from_parts(
            vec![b0],
            vec![NodeId::new(5), NodeId::new(6)], // wrong endpoints for segment 0
        )
        .unwrap();
        let payload = encode_state(&parts(&net, &config, std::slice::from_ref(&bad_flow), &res));
        assert!(matches!(
            decode_state(&payload, &net, &config).unwrap_err(),
            CheckpointError::InvalidState { .. }
        ));
    }
}
